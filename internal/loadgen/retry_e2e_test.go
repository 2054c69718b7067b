package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmopt/internal/faults"
	"vmopt/internal/metrics"
	"vmopt/internal/serve"
)

// retrySpec is the fast retry policy the stub tests share.
func retrySpec(attempts int) *Retry {
	return &Retry{
		MaxAttempts: attempts,
		BaseBackoff: Duration(time.Millisecond),
		MaxBackoff:  Duration(5 * time.Millisecond),
	}
}

// TestRetryRecoversFlakyServer: a server that 503s the first two
// attempts of every request is fully recovered by a 4-attempt retry
// policy — zero failures and zero residual backpressure in the
// report, two counted retries per logical request, and every retried
// attempt announcing itself with X-Retry-Attempt.
func TestRetryRecoversFlakyServer(t *testing.T) {
	var headerMu sync.Mutex
	headersSeen := map[string]int{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/run" {
			http.NotFound(w, r)
			return
		}
		attempt := r.Header.Get("X-Retry-Attempt")
		headerMu.Lock()
		headersSeen[attempt]++
		headerMu.Unlock()
		if attempt == "" || attempt == "1" {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"flaky"}`, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, `{"ok":true}`)
	}))
	t.Cleanup(ts.Close)

	spec := &Spec{
		Ops:             map[string]float64{OpRun: 1},
		Workloads:       []string{"gray"},
		Seed:            1,
		Arrival:         Arrival{Mode: ModeClosed, Workers: 1},
		MeasureRequests: 4,
		Retry:           retrySpec(4),
	}
	report, err := (&Runner{Addr: ts.URL, Spec: spec}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stats := report.Ops[OpRun]
	if stats.Errors+stats.Non2xx+stats.Backpressure+stats.Diverged != 0 {
		t.Errorf("recovered run still reports failures: %+v", stats)
	}
	if stats.Retries != 8 {
		t.Errorf("retries = %d, want 8 (2 per request)", stats.Retries)
	}
	headerMu.Lock()
	defer headerMu.Unlock()
	if headersSeen["1"] != 4 || headersSeen["2"] != 4 {
		t.Errorf("X-Retry-Attempt headers seen: %v, want 4 each of \"1\" and \"2\"", headersSeen)
	}
}

// TestRetryHonorsRetryAfter: the server's Retry-After floors the
// backoff (capped at max_backoff). With a 1s Retry-After and a 40ms
// cap, every retry must wait ~40ms instead of the ~1ms base, which is
// observable as a wall-clock lower bound.
func TestRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/run" {
			http.NotFound(w, r)
			return
		}
		if calls.Add(1)%2 == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, `{"ok":true}`)
	}))
	t.Cleanup(ts.Close)

	spec := &Spec{
		Ops:             map[string]float64{OpRun: 1},
		Workloads:       []string{"gray"},
		Seed:            1,
		Arrival:         Arrival{Mode: ModeClosed, Workers: 1},
		MeasureRequests: 5,
		Retry: &Retry{
			MaxAttempts: 3,
			BaseBackoff: Duration(time.Millisecond),
			MaxBackoff:  Duration(40 * time.Millisecond),
		},
	}
	start := time.Now()
	report, err := (&Runner{Addr: ts.URL, Spec: spec}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stats := report.Ops[OpRun]
	if stats.Retries != 5 || stats.Backpressure != 0 {
		t.Fatalf("want 5 clean retries, got %+v", stats)
	}
	// 5 retries, each floored to the 40ms-capped Retry-After. Without
	// the floor the whole run takes ~5ms.
	if elapsed := time.Since(start); elapsed < 5*40*time.Millisecond {
		t.Errorf("run took %s; Retry-After floor (5 x 40ms) not honored", elapsed)
	}
}

// TestSweepResumeStitch: a sweep stream that dies mid-flight is
// retried with the last cursor, the server streams only the remaining
// groups, and the stitched response is byte-identical (after
// normalization) to an unbroken run of the same sweep — diverged
// stays zero.
func TestSweepResumeStitch(t *testing.T) {
	const (
		cell1 = `{"run":{"workload":"gray","variant":"plain","machine":"m1"}}`
		cell2 = `{"run":{"workload":"gray","variant":"dynamic super","machine":"m1"}}`
	)
	var broke atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sweep" {
			// The runner probes /metrics around the measurement
			// phase; those probes must not consume the one-shot
			// broken stream below.
			http.NotFound(w, r)
			return
		}
		var req struct {
			Resume string `json:"resume"`
		}
		body := new(bytes.Buffer)
		body.ReadFrom(r.Body)
		json.Unmarshal(body.Bytes(), &req)
		w.Header().Set("Content-Type", "application/x-ndjson")
		switch {
		case req.Resume == "c1":
			// Resumed: only the remaining group, summary notes the skip.
			fmt.Fprintln(w, cell2)
			fmt.Fprintln(w, `{"cursor":"c2"}`)
			fmt.Fprintln(w, `{"done":true,"cells":1,"groups":1,"skipped":1}`)
		case broke.CompareAndSwap(false, true):
			// First attempt: one group and its cursor reach the client,
			// then the connection dies.
			fmt.Fprintln(w, cell1)
			fmt.Fprintln(w, `{"cursor":"c1"}`)
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		default:
			fmt.Fprintln(w, cell1)
			fmt.Fprintln(w, `{"cursor":"c1"}`)
			fmt.Fprintln(w, cell2)
			fmt.Fprintln(w, `{"cursor":"c2"}`)
			fmt.Fprintln(w, `{"done":true,"cells":2,"groups":2}`)
		}
	}))
	t.Cleanup(ts.Close)

	spec := &Spec{
		Ops:             map[string]float64{OpSweep: 1},
		Workloads:       []string{"gray"},
		Seed:            1,
		Arrival:         Arrival{Mode: ModeClosed, Workers: 1},
		MeasureRequests: 2, // broken-then-resumed, then unbroken
		Retry:           retrySpec(3),
	}
	report, err := (&Runner{Addr: ts.URL, Spec: spec}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stats := report.Ops[OpSweep]
	if stats.Errors != 0 || stats.CellErrors != 0 {
		t.Errorf("stitched sweep counted failures: %+v", stats)
	}
	if stats.Retries != 1 {
		t.Errorf("retries = %d, want 1 (the resumed attempt)", stats.Retries)
	}
	if stats.Diverged != 0 {
		t.Errorf("stitched sweep diverged from the unbroken one: %+v", stats)
	}
}

// TestRealServerRetryRecovery drives a real internal/serve handler
// with injected serve.handler unavailability: the real 503s carry
// Retry-After, the client retries through them, and both sides agree
// — zero client-visible failures, the server counting exactly the
// injected rejections and the announced retries.
func TestRealServerRetryRecovery(t *testing.T) {
	// First, the header contract on its own server: the very first
	// handler call trips an nth:1 rule — a real-server 503, which must
	// carry Retry-After, the header the retry policy's backoff floor
	// honors.
	hsrv := serve.New(serve.Config{DefaultScaleDiv: testScaleDiv,
		Faults: faults.New(&faults.Spec{Faults: []faults.Rule{
			{Site: faults.SiteHandler, Mode: faults.ModeUnavailable, Nth: 1, Limit: 1},
		}})})
	hts := httptest.NewServer(hsrv.Handler())
	resp, err := http.Post(hts.URL+"/v1/run", "application/json",
		bytes.NewReader([]byte(`{"workload":"gray","variant":"plain","machine":"celeron-800"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	hts.Close()
	hsrv.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("injected unavailability: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("real server 503 is missing Retry-After")
	}

	// Now the retry loop against a fresh server. Every instrumented
	// endpoint counts as a handler call and the runner's /metrics
	// probes are not instrumented, so nth:3 fires on the third
	// measured run, which retries as call 4.
	inj := faults.New(&faults.Spec{Faults: []faults.Rule{
		{Site: faults.SiteHandler, Mode: faults.ModeUnavailable, Nth: 3, Limit: 1},
	}})
	srv := serve.New(serve.Config{DefaultScaleDiv: testScaleDiv, Faults: inj})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	spec := &Spec{
		Ops:             map[string]float64{OpRun: 1},
		Workloads:       []string{"gray"},
		Machines:        []string{"celeron-800"},
		Variants:        []string{"plain"},
		ScaleDiv:        testScaleDiv,
		Seed:            1,
		Arrival:         Arrival{Mode: ModeClosed, Workers: 1},
		MeasureRequests: 3,
		Retry:           retrySpec(4),
	}
	report, err := (&Runner{Addr: ts.URL, Spec: spec}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stats := report.Ops[OpRun]
	if stats.Errors+stats.Non2xx+stats.Backpressure+stats.Diverged != 0 {
		t.Errorf("recovered run still reports failures: %+v", stats)
	}
	if stats.Retries != 1 {
		t.Errorf("retries = %d, want 1", stats.Retries)
	}
	if report.Server == nil {
		t.Fatal("report carries no server stats delta")
	}
	if report.Server.Rejected != 1 {
		t.Errorf("server rejected delta = %d, want the 1 injected rejection", report.Server.Rejected)
	}

	// The server's own view: the announced retry and the injected
	// fault are on /metrics.
	series, err := metrics.ScrapeMetrics(http.DefaultClient, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got := series["vmserved_retried_requests_total"]; got != 1 {
		t.Errorf("vmserved_retried_requests_total = %v, want 1", got)
	}
	if got := series[`vmserved_faults_injected_total{fault="serve.handler/unavailable"}`]; got != 1 {
		t.Errorf(`vmserved_faults_injected_total{fault="serve.handler/unavailable"} = %v, want 1`, got)
	}
}

// TestResponseDump: KeepResponses captures one hash per non-volatile
// logical request, and CompareResponses cross-checks two runs of the
// same spec — equal on the shared keys, counting how many it compared.
func TestResponseDump(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"ok":true}`)
	}))
	t.Cleanup(ts.Close)
	spec := &Spec{
		Ops:             map[string]float64{OpRun: 1},
		Workloads:       []string{"gray"},
		Seed:            7,
		Arrival:         Arrival{Mode: ModeClosed, Workers: 2},
		MeasureRequests: 20,
	}
	run := func() map[string]string {
		r, err := (&Runner{Addr: ts.URL, Spec: spec, KeepResponses: true}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Responses) == 0 {
			t.Fatal("KeepResponses produced an empty dump")
		}
		return r.Responses
	}
	a, b := run(), run()
	compared, mismatched := CompareResponses(a, b)
	if compared == 0 || len(mismatched) != 0 {
		t.Errorf("dumps disagree: compared %d, mismatched %v", compared, mismatched)
	}
	b["run|gray|plain|celeron-800|0"] = "0000"
	if _, mm := CompareResponses(a, b); len(mm) != 1 {
		t.Errorf("poisoned key not caught: %v", mm)
	}
}
