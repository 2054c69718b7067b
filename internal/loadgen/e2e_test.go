package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"vmopt/internal/disptrace"
	"vmopt/internal/serve"
)

// testScaleDiv shrinks every workload to its scale floor so
// simulations finish in milliseconds; these tests exercise the load
// framework's semantics, not the counters' magnitudes.
const testScaleDiv = 400

// TestEndToEndMixedSpec drives a real internal/serve handler
// in-process with the full op mix: warm-up records dispatch traces
// through the server's trace cache, the diff population is paired
// from them, and the measured phase issues all four ops. Run under
// -race in CI, this is the integration gate for the whole framework.
func TestEndToEndMixedSpec(t *testing.T) {
	srv := serve.New(serve.Config{
		Traces:          disptrace.NewCache(t.TempDir()),
		DefaultScaleDiv: testScaleDiv,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	spec := &Spec{
		Ops:             map[string]float64{OpRun: 0.5, OpSweep: 0.2, OpDiff: 0.15, OpTraces: 0.15},
		Workloads:       []string{"gray"},
		Variants:        []string{"plain", "dynamic super"},
		Machines:        []string{"celeron-800", "pentium-m"},
		ScaleDiv:        testScaleDiv,
		ZipfTheta:       0.9,
		Seed:            1,
		Arrival:         Arrival{Mode: ModeClosed, Workers: 4},
		WarmupRequests:  12,
		MeasureRequests: 80,
	}
	r := &Runner{Addr: ts.URL, Spec: spec}
	report, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	tot := report.Total
	if tot.Count != 80 {
		t.Errorf("measured %d requests, want 80", tot.Count)
	}
	if tot.Errors+tot.Non2xx+tot.Backpressure+tot.Diverged+tot.CellErrors != 0 {
		t.Errorf("failures in clean run: %+v", tot)
	}
	var sum uint64
	for _, op := range Ops {
		s := report.Ops[op]
		sum += s.Count
		if s.Count == 0 {
			t.Errorf("op %s never drawn in 80 requests of a mixed spec", op)
		}
		if s.Latency.Count != s.Count {
			t.Errorf("op %s: %d latencies recorded for %d requests", op, s.Latency.Count, s.Count)
		}
	}
	if sum != tot.Count {
		t.Errorf("per-op counts sum to %d, total says %d", sum, tot.Count)
	}
	if report.ThroughputRPS <= 0 || report.ElapsedS <= 0 {
		t.Errorf("throughput %.1f rps over %.2fs", report.ThroughputRPS, report.ElapsedS)
	}

	// Cross-check the client-side view against the server's own
	// /metrics request-counter delta over the measurement window:
	// every measured request must be accounted for on both sides.
	if report.Server == nil {
		t.Fatal("report carries no server stats delta")
	}
	sd := report.Server
	for _, c := range []struct {
		name   string
		server uint64
		client uint64
	}{
		{"run", sd.Run, report.Ops[OpRun].Count},
		{"sweep", sd.Sweep, report.Ops[OpSweep].Count},
		{"diff", sd.Diff, report.Ops[OpDiff].Count},
		{"traces", sd.Traces, report.Ops[OpTraces].Count},
		{"rejected", sd.Rejected, tot.Backpressure},
	} {
		if c.server != c.client {
			t.Errorf("%s: server saw %d, client issued %d", c.name, c.server, c.client)
		}
	}

	// A fresh report from the same spec and seed must gate cleanly
	// against itself — the self-consistency every checked-in baseline
	// run relies on.
	if regs := Diff(report, report, DefaultThresholds); len(regs) != 0 {
		t.Errorf("report does not pass its own gate: %v", regs)
	}
}

// TestDiffCorpusNeedsTraces: a diff-bearing spec against a server
// without a trace cache fails loudly at prepare time instead of
// silently measuring a different mix.
func TestDiffCorpusNeedsTraces(t *testing.T) {
	srv := serve.New(serve.Config{DefaultScaleDiv: testScaleDiv})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	spec := &Spec{
		Ops:             map[string]float64{OpRun: 0.5, OpDiff: 0.5},
		Workloads:       []string{"gray"},
		Machines:        []string{"celeron-800"},
		ScaleDiv:        testScaleDiv,
		Arrival:         Arrival{Workers: 2},
		WarmupRequests:  4,
		MeasureRequests: 4,
	}
	if _, err := (&Runner{Addr: ts.URL, Spec: spec}).Run(context.Background()); err == nil {
		t.Fatal("diff spec against trace-less server succeeded")
	}
}

// stallServer serializes every request behind one mutex with a fixed
// service time: a server whose capacity is 1/serviceTime, the
// textbook setup for observing coordinated omission.
func stallServer(t *testing.T, serviceTime time.Duration) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/run" {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		time.Sleep(serviceTime)
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestOpenLoopCoordinatedOmission: against a server that serializes
// 20ms requests (capacity 50 rps), an open-loop schedule at 200 rps
// must record the queueing delay — latency from *intended* start —
// so the percentiles show hundreds of milliseconds even though no
// single request is ever served slower than ~20ms. A closed-loop run
// against the same server records only service time and stays an
// order of magnitude lower: the gap IS the coordinated-omission
// penalty the open-loop recorder exists to expose.
func TestOpenLoopCoordinatedOmission(t *testing.T) {
	const serviceTime = 20 * time.Millisecond
	ts := stallServer(t, serviceTime)

	openSpec := &Spec{
		Ops:             map[string]float64{OpRun: 1},
		Workloads:       []string{"gray"},
		Seed:            1,
		Arrival:         Arrival{Mode: ModeOpen, Schedule: ScheduleFixed, RateRPS: 200},
		MeasureRequests: 40,
	}
	open, err := (&Runner{Addr: ts.URL, Spec: openSpec}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stats := open.Ops[OpRun]
	if stats.Count != 40 || stats.Errors+stats.Non2xx != 0 {
		t.Fatalf("open-loop run dirty: %+v", stats)
	}
	// 40 requests arriving over 200ms into a 50 rps server: the last
	// ones queue for ~600ms. Anything under 200ms would mean the
	// recorder silently forgave the queueing.
	if stats.Latency.P99MS < 200 {
		t.Errorf("open-loop p99 = %.1fms; queueing penalty missing (coordinated omission)", stats.Latency.P99MS)
	}
	if stats.Latency.P50MS < float64(serviceTime/time.Millisecond) {
		t.Errorf("open-loop p50 = %.1fms, below the service time itself", stats.Latency.P50MS)
	}

	closedSpec := &Spec{
		Ops:             map[string]float64{OpRun: 1},
		Workloads:       []string{"gray"},
		Seed:            1,
		Arrival:         Arrival{Mode: ModeClosed, Workers: 2},
		MeasureRequests: 20,
	}
	closed, err := (&Runner{Addr: ts.URL, Spec: closedSpec}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cp99 := closed.Ops[OpRun].Latency.P99MS
	// Two closed-loop workers over a serialized 20ms server wait at
	// most ~one service time each: ~40ms per request, far under the
	// open-loop percentiles.
	if cp99 > 150 {
		t.Errorf("closed-loop p99 = %.1fms, implausibly high for a 20ms server", cp99)
	}
	if stats.Latency.P99MS < 2*cp99 {
		t.Errorf("open-loop p99 %.1fms not clearly above closed-loop p99 %.1fms", stats.Latency.P99MS, cp99)
	}
}

// TestBackpressureNotFatal: 503s are classified as backpressure and
// counted, not treated as failures — an open-loop overload run must
// survive the server shedding load, because measuring that shedding
// is the point.
func TestBackpressureNotFatal(t *testing.T) {
	var served, shed int
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if (served+shed)%2 == 1 { // every other request rejected
			shed++
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"server at capacity"}`, http.StatusServiceUnavailable)
			return
		}
		served++
		fmt.Fprintln(w, `{"ok":true}`)
	}))
	t.Cleanup(ts.Close)

	spec := &Spec{
		Ops:             map[string]float64{OpRun: 1},
		Workloads:       []string{"gray"},
		Seed:            1,
		Arrival:         Arrival{Mode: ModeClosed, Workers: 1},
		MeasureRequests: 20,
	}
	report, err := (&Runner{Addr: ts.URL, Spec: spec}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stats := report.Ops[OpRun]
	if stats.Backpressure != 10 {
		t.Errorf("backpressure = %d, want 10", stats.Backpressure)
	}
	if stats.Non2xx != 0 || stats.Errors != 0 {
		t.Errorf("503s leaked into failure counts: %+v", stats)
	}
	if stats.ErrorRate != 0 {
		t.Errorf("error rate %.3f includes backpressure", stats.ErrorRate)
	}
	if stats.BackpressureRate != 0.5 {
		t.Errorf("backpressure rate = %.3f, want 0.5", stats.BackpressureRate)
	}
}

// TestRunDeterministicMix: the same spec and seed draw the same op
// sequence — per-op counts match run to run even against a stub.
func TestRunDeterministicMix(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"ok":true}`)
	}))
	t.Cleanup(ts.Close)
	spec := &Spec{
		Ops:             map[string]float64{OpRun: 0.7, OpTraces: 0.3},
		Workloads:       []string{"gray"},
		Seed:            99,
		ZipfTheta:       0.9,
		Arrival:         Arrival{Mode: ModeOpen, Schedule: SchedulePoisson, RateRPS: 2000},
		MeasureRequests: 50,
	}
	counts := func() [2]uint64 {
		r, err := (&Runner{Addr: ts.URL, Spec: spec}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return [2]uint64{r.Ops[OpRun].Count, r.Ops[OpTraces].Count}
	}
	a, b := counts(), counts()
	if a != b {
		t.Errorf("op mix not deterministic under one seed: %v vs %v", a, b)
	}
	if a[0]+a[1] != 50 {
		t.Errorf("counts %v don't sum to 50", a)
	}
}
