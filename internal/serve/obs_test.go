package serve

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"vmopt/internal/disptrace"
	"vmopt/internal/metrics"
	"vmopt/internal/obs"
)

// scrape fetches GET /metrics and parses it with the same strict
// parser vmload uses in CI, so a test failure here is exactly what
// would fail a real scrape.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.TextContentType {
		t.Errorf("Content-Type = %q, want %q", ct, metrics.TextContentType)
	}
	series, err := metrics.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse as Prometheus text format: %v", err)
	}
	return series
}

// TestMetricsCountTraffic drives a mixed workload — runs with a
// repeat (LRU hit), a sweep, a diff, a trace listing, a rejected
// request and a failed one — then checks that GET /metrics counts
// exactly that traffic, and that /v1/stats is gone.
func TestMetricsCountTraffic(t *testing.T) {
	cache := disptrace.NewCache(t.TempDir())
	s, ts := newTestServer(t, Config{Traces: cache, MaxInFlight: 2})

	for _, variant := range []string{"plain", "switch"} {
		status, body := post(t, ts.URL+"/v1/run", RunRequest{
			Workload: "gray", Variant: variant, Machine: "celeron-800", ScaleDiv: testScaleDiv,
		})
		if status != http.StatusOK {
			t.Fatalf("run %s: HTTP %d: %s", variant, status, body)
		}
	}
	// Repeat of the first run: an LRU hit.
	if status, body := post(t, ts.URL+"/v1/run", RunRequest{
		Workload: "gray", Variant: "plain", Machine: "celeron-800", ScaleDiv: testScaleDiv,
	}); status != http.StatusOK {
		t.Fatalf("repeat run: HTTP %d: %s", status, body)
	}
	if status, body := post(t, ts.URL+"/v1/sweep", SweepRequest{
		Workloads: []string{"gray"}, Variants: []string{"plain"}, ScaleDiv: testScaleDiv,
	}); status != http.StatusOK {
		t.Fatalf("sweep: HTTP %d: %s", status, body)
	}
	entries, err := cache.List()
	if err != nil || len(entries) != 2 {
		t.Fatalf("cache holds %d traces (%v), want 2", len(entries), err)
	}
	if status, body := post(t, ts.URL+"/v1/diff", DiffRequest{A: entries[0].ID, B: entries[1].ID}); status != http.StatusOK {
		t.Fatalf("diff: HTTP %d: %s", status, body)
	}
	if _, err := fetchOK(ts.URL + "/v1/traces"); err != nil {
		t.Fatal(err)
	}
	// One failure (unknown workload -> 400) and one rejection (503).
	if status, _ := post(t, ts.URL+"/v1/run", RunRequest{Workload: "nope", Variant: "plain", Machine: "celeron-800"}); status != http.StatusBadRequest {
		t.Fatalf("unknown workload: HTTP %d, want 400", status)
	}
	s.stats.inFlight.Add(2)
	if status, _ := post(t, ts.URL+"/v1/run", RunRequest{Workload: "gray", Variant: "plain", Machine: "celeron-800", ScaleDiv: testScaleDiv}); status != http.StatusServiceUnavailable {
		t.Fatalf("at capacity: HTTP %d, want 503", status)
	}
	s.stats.inFlight.Add(-2)

	series := scrape(t, ts.URL)
	for key, want := range map[string]float64{
		`vmserved_requests_total{endpoint="run"}`:    5,
		`vmserved_requests_total{endpoint="sweep"}`:  1,
		`vmserved_requests_total{endpoint="diff"}`:   1,
		`vmserved_requests_total{endpoint="traces"}`: 1,
		`vmserved_rejected_total`:                    1,
		`vmserved_errors_total`:                      1,
		`vmserved_computed_total{kind="diffs"}`:      1,
		`vmserved_in_flight`:                         0,
		// Every request is timed, the failed and rejected ones too.
		`vmserved_request_seconds_count{endpoint="run"}`:    5,
		`vmserved_request_seconds_count{endpoint="sweep"}`:  1,
		`vmserved_request_seconds_count{endpoint="diff"}`:   1,
		`vmserved_request_seconds_count{endpoint="traces"}`: 1,
	} {
		if got, ok := series[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	if series["vmserved_cache_hits_total"] == 0 || series[`vmserved_computed_total{kind="cells"}`] == 0 {
		t.Errorf("workload produced no cache hit (%v) or computed cell (%v)",
			series["vmserved_cache_hits_total"], series[`vmserved_computed_total{kind="cells"}`])
	}
	if got := series[`vmserved_trace_records_total`]; got != 2 {
		t.Errorf("vmserved_trace_records_total = %v, want 2", got)
	}
	for _, key := range []string{
		`vmserved_requests_total{endpoint="stats"}`,
		`vmserved_request_seconds_count{endpoint="stats"}`,
	} {
		if _, ok := series[key]; ok {
			t.Errorf("/metrics still carries %s", key)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/stats: HTTP %d, want 404", resp.StatusCode)
	}

	// Histogram exposition: cumulative run buckets ending in +Inf ==
	// _count.
	infKey := `vmserved_request_seconds_bucket{endpoint="run",le="+Inf"}`
	if series[infKey] != series[`vmserved_request_seconds_count{endpoint="run"}`] {
		t.Errorf("%s = %v, want the run _count", infKey, series[infKey])
	}
}

// TestRequestIDAndServerTiming checks the per-request trace surface:
// the X-Request-ID echo and generation, a Server-Timing header whose
// stage durations account for the server-measured handler latency
// within 10%, and the trace appearing in GET /debug/requests with the
// same breakdown.
func TestRequestIDAndServerTiming(t *testing.T) {
	_, ts := newTestServer(t, Config{Traces: disptrace.NewCache(t.TempDir())})

	body, _ := json.Marshal(RunRequest{Workload: "gray", Variant: "plain", Machine: "celeron-800", ScaleDiv: testScaleDiv})
	req, err := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "test-req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "test-req-42" {
		t.Errorf("X-Request-ID = %q, want the supplied id echoed back", got)
	}
	timing := resp.Header.Get("Server-Timing")
	if timing == "" {
		t.Fatal("run response has no Server-Timing header")
	}

	// A request without an id gets a generated one.
	resp2, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Error("server did not generate an X-Request-ID")
	}

	// The header's stage durations must sum to the handler latency the
	// server itself measured for that request (within 10% — the
	// "other" stage tiles the unattributed remainder, so the two can
	// only drift by rounding or concurrent-span overlap).
	debugBody, err := fetchOK(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var dbg obs.DebugRequests
	if err := json.Unmarshal(debugBody, &dbg); err != nil {
		t.Fatalf("/debug/requests is not valid JSON: %v", err)
	}
	var trace *obs.TraceSnapshot
	for i := range dbg.Recent {
		if dbg.Recent[i].ID == "test-req-42" {
			trace = &dbg.Recent[i]
			break
		}
	}
	if trace == nil {
		t.Fatalf("trace test-req-42 not in /debug/requests recent list (%d entries)", len(dbg.Recent))
	}
	if trace.Endpoint != "run" || trace.Status != http.StatusOK {
		t.Errorf("trace = %s/%d, want run/200", trace.Endpoint, trace.Status)
	}
	if trace.Outcome != "computed" {
		t.Errorf("first run's outcome = %q, want computed", trace.Outcome)
	}
	var headerSum float64
	stageNames := map[string]bool{}
	for _, entry := range strings.Split(timing, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		if len(parts) != 2 || !strings.HasPrefix(parts[1], "dur=") {
			t.Fatalf("malformed Server-Timing entry %q in %q", entry, timing)
		}
		ms, err := strconv.ParseFloat(strings.TrimPrefix(parts[1], "dur="), 64)
		if err != nil {
			t.Fatalf("bad duration in %q: %v", entry, err)
		}
		headerSum += ms
		stageNames[parts[0]] = true
	}
	for _, want := range []string{"parse", "queue", "encode"} {
		if !stageNames[want] {
			t.Errorf("Server-Timing %q lacks a %q stage", timing, want)
		}
	}
	// With a trace cache the first run's simulation happens inside the
	// recording stage; without one it would be "sim".
	if !stageNames["record"] && !stageNames["sim"] {
		t.Errorf("Server-Timing %q attributes the computation to neither record nor sim", timing)
	}
	tol := 0.10*trace.DurMS + 0.05 // 10% plus rendering slack for sub-ms requests
	if diff := math.Abs(headerSum - trace.DurMS); diff > tol {
		t.Errorf("Server-Timing stages sum to %.3fms but the handler took %.3fms (diff %.3fms > %.3fms)",
			headerSum, trace.DurMS, diff, tol)
	}

	// The slowest-per-endpoint index retained the run too.
	if len(dbg.Slowest["run"]) == 0 {
		t.Error("/debug/requests has no slowest entries for run")
	}

	// Streaming responses cannot know their breakdown at WriteHeader
	// time; the sweep delivers Server-Timing as a declared trailer.
	sweepBody, _ := json.Marshal(SweepRequest{Workloads: []string{"gray"}, Variants: []string{"plain"}, ScaleDiv: testScaleDiv})
	sresp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(string(sweepBody)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fetchBody(sresp); err != nil {
		t.Fatal(err)
	}
	if got := sresp.Trailer.Get("Server-Timing"); got == "" {
		t.Error("sweep response has no Server-Timing trailer")
	}
}

// fetchBody drains and closes a response body; trailers are only
// populated once the body has been read to EOF.
func fetchBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// TestMetricsScrapeUnderLoad scrapes /metrics and /debug/requests
// concurrently with live traffic — the race-detector soak for the
// whole observability surface (registry collection callbacks, the
// recorder ring, trace span appends).
func TestMetricsScrapeUnderLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{Traces: disptrace.NewCache(t.TempDir())})
	variants := []string{"plain", "dynamic super", "switch"}

	var wg sync.WaitGroup
	for i := range 9 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%3 == 0 {
				status, body := post(t, ts.URL+"/v1/sweep", SweepRequest{
					Workloads: []string{"gray"}, Variants: variants[:1+i%2], ScaleDiv: testScaleDiv,
				})
				if status != http.StatusOK {
					t.Errorf("sweep %d: HTTP %d: %s", i, status, body)
				}
				return
			}
			status, body := post(t, ts.URL+"/v1/run", RunRequest{
				Workload: "gray", Variant: variants[i%len(variants)], Machine: "celeron-800", ScaleDiv: testScaleDiv,
			})
			if status != http.StatusOK {
				t.Errorf("run %d: HTTP %d: %s", i, status, body)
			}
		}()
	}
	done := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for range 3 {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				series := scrape(t, ts.URL)
				if len(series) == 0 {
					t.Error("empty /metrics scrape")
				}
				body, err := fetchOK(ts.URL + "/debug/requests")
				if err != nil {
					t.Error(err)
					return
				}
				var dbg obs.DebugRequests
				if err := json.Unmarshal(body, &dbg); err != nil {
					t.Errorf("/debug/requests mid-load: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	scrapeWG.Wait()

	series := scrape(t, ts.URL)
	if got := series[`vmserved_requests_total{endpoint="run"}`]; got != 6 {
		t.Errorf("run requests after load = %v, want 6", got)
	}
	if got := series[`vmserved_requests_total{endpoint="sweep"}`]; got != 3 {
		t.Errorf("sweep requests after load = %v, want 3", got)
	}
}
