package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/faults"
	"vmopt/internal/harness"
	"vmopt/internal/obs"
	"vmopt/internal/runner"
	"vmopt/internal/workload"
)

// testScaleDiv shrinks every workload to its scale floor so
// simulations finish in milliseconds; tests care about the serving
// semantics, not the counters' magnitudes.
const testScaleDiv = 400

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// directRun computes a cell without the server, the way a vmbench
// invocation would — the reference for byte-identity.
func directRun(t *testing.T, wname, vname, mname string) []byte {
	t.Helper()
	w, err := workload.ByName(wname)
	if err != nil {
		t.Fatal(err)
	}
	v, err := harness.VariantByName(w, vname)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cpu.MachineByName(mname)
	if err != nil {
		t.Fatal(err)
	}
	suite := harness.NewSuite()
	suite.ScaleDiv = testScaleDiv
	c, err := suite.Run(w, v, m)
	if err != nil {
		t.Fatal(err)
	}
	run := runner.NewRun(w.Name, v.Name, m.Name, suite.Scale(w), c)
	b, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n') // json.Encoder terminates with a newline
}

// TestRunCoalescing hammers one group with identical concurrent
// requests — as a /v1/run, a one-machine sweep and a five-machine
// sweep. Each herd must cost exactly one computation, every response
// must be byte-identical to the direct harness result, and every
// duplicate must report a hit or coalesced outcome in
// /debug/requests.
func TestRunCoalescing(t *testing.T) {
	for _, tc := range []struct {
		name     string
		path     string
		body     any
		machines []string
	}{
		{"run", "/v1/run",
			RunRequest{Workload: "gray", Variant: "plain", Machine: "celeron-800", ScaleDiv: testScaleDiv},
			[]string{"celeron-800"}},
		{"sweep-one-machine", "/v1/sweep",
			SweepRequest{Workloads: []string{"gray"}, Variants: []string{"plain"}, Machines: []string{"celeron-800"}, ScaleDiv: testScaleDiv},
			[]string{"celeron-800"}},
		{"sweep-five-machines", "/v1/sweep",
			SweepRequest{Workloads: []string{"gray"}, Variants: []string{"plain"}, ScaleDiv: testScaleDiv},
			machineNames()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Traces: disptrace.NewCache(t.TempDir())})
			const herd = 16
			bodies := make([][]byte, herd)
			var wg sync.WaitGroup
			for i := range herd {
				wg.Add(1)
				go func() {
					defer wg.Done()
					status, body := post(t, ts.URL+tc.path, tc.body)
					if status != http.StatusOK {
						t.Errorf("request %d: HTTP %d: %s", i, status, body)
					}
					bodies[i] = body
				}()
			}
			wg.Wait()

			for i, b := range bodies {
				var runs []runner.Run
				if tc.path == "/v1/run" {
					var run runner.Run
					if err := json.Unmarshal(b, &run); err != nil {
						t.Fatalf("response %d: %v", i, err)
					}
					runs = []runner.Run{run}
				} else {
					runs, _, _ = parseSweep(t, b)
				}
				if len(runs) != len(tc.machines) {
					t.Fatalf("response %d has %d cells, want %d", i, len(runs), len(tc.machines))
				}
				for _, run := range runs {
					got, _ := json.Marshal(run)
					want := directRun(t, "gray", "plain", run.Machine)
					if !bytes.Equal(append(got, '\n'), want) {
						t.Fatalf("response %d cell %s differs from direct harness result:\ngot  %s\nwant %s", i, run.Machine, got, want)
					}
				}
			}

			if got := s.stats.computedCells.Load(); got != uint64(len(tc.machines)) {
				t.Errorf("computed %d cells for %d identical requests, want %d", got, herd, len(tc.machines))
			}
			if got := s.cfg.Traces.Stats().Records; got != 1 {
				t.Errorf("recorded %d traces, want 1", got)
			}
			outcomes := waitOutcomes(t, ts.URL, herd)
			if outcomes["computed"] != 1 || outcomes["hit"]+outcomes["coalesced"] != herd-1 {
				t.Errorf("outcomes = %v, want 1 computed and %d hit or coalesced", outcomes, herd-1)
			}
			if len(tc.machines) == 1 {
				// A one-cell duplicate is exactly one hit or one join.
				coalesced := s.stats.coalescedRuns.Load() + s.stats.coalescedGroups.Load()
				if hits := s.stats.lruHits.Load(); hits+coalesced != herd-1 {
					t.Errorf("hits (%d) + coalesced (%d) != %d duplicates", hits, coalesced, herd-1)
				}
			}
		})
	}
}

// TestRunAndSweepShareFlight: a /v1/run and a one-machine /v1/sweep of
// the same cell are one group, so while the run's computation is
// stalled the sweep joins its flight instead of computing again.
func TestRunAndSweepShareFlight(t *testing.T) {
	inj := faults.New(&faults.Spec{Faults: []faults.Rule{{
		Site: faults.SiteCompute, Mode: faults.ModeLatency,
		Nth: 1, Limit: 1, Latency: faults.Duration(300 * time.Millisecond),
	}}})
	s, ts := newTestServer(t, Config{Traces: disptrace.NewCache(t.TempDir()), Faults: inj})

	runBody := make(chan []byte, 1)
	go func() {
		var body []byte
		defer func() { runBody <- body }() // also when post gives up
		var status int
		status, body = post(t, ts.URL+"/v1/run", RunRequest{
			Workload: "gray", Variant: "plain", Machine: "celeron-800", ScaleDiv: testScaleDiv,
		})
		if status != http.StatusOK {
			t.Errorf("run: HTTP %d: %s", status, body)
		}
	}()
	// The stall firing means the run leads the flight and is parked
	// inside it.
	for deadline := time.Now().Add(5 * time.Second); inj.Total() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the run never reached the compute stall")
		}
	}
	status, body := post(t, ts.URL+"/v1/sweep", SweepRequest{
		Workloads: []string{"gray"}, Variants: []string{"plain"}, Machines: []string{"celeron-800"}, ScaleDiv: testScaleDiv,
	})
	if status != http.StatusOK {
		t.Fatalf("sweep: HTTP %d: %s", status, body)
	}
	runs, errLines, _ := parseSweep(t, body)
	if len(runs) != 1 || len(errLines) != 0 {
		t.Fatalf("sweep returned %d runs and errors %+v, want one run", len(runs), errLines)
	}
	swept, _ := json.Marshal(runs[0])
	if run := <-runBody; !bytes.Equal(append(swept, '\n'), run) {
		t.Fatalf("sweep cell differs from the run:\nsweep %s\nrun   %s", swept, run)
	}
	if got := s.stats.computedCells.Load(); got != 1 {
		t.Errorf("computed{kind=cells} = %d, want 1", got)
	}
	if got := s.stats.coalescedGroups.Load(); got != 1 {
		t.Errorf("coalesced{kind=groups} = %d, want 1 (the sweep joined the run)", got)
	}
}

// machineNames lists every predefined machine model.
func machineNames() []string {
	var names []string
	for _, m := range cpu.Machines() {
		names = append(names, m.Name)
	}
	return names
}

// waitOutcomes polls /debug/requests until n requests have been
// recorded (the recorder runs after a response is written) and counts
// their outcomes.
func waitOutcomes(t *testing.T, base string, n int) map[string]int {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		body, err := fetchOK(base + "/debug/requests")
		if err != nil {
			t.Fatal(err)
		}
		var dbg obs.DebugRequests
		if err := json.Unmarshal(body, &dbg); err != nil {
			t.Fatal(err)
		}
		if len(dbg.Recent) >= n || time.Now().After(deadline) {
			outcomes := map[string]int{}
			for _, tr := range dbg.Recent {
				outcomes[tr.Outcome]++
			}
			return outcomes
		}
	}
}

// parseSweep splits an NDJSON sweep response into its lines and the
// final summary.
func parseSweep(t *testing.T, body []byte) (runs []runner.Run, errLines []SweepLine, done SweepLine) {
	t.Helper()
	sawDone := false
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		var l SweepLine
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch {
		case l.Done:
			done, sawDone = l, true
		case l.Run != nil:
			runs = append(runs, *l.Run)
		case l.Cursor != "":
			// Resume cursors are cumulative completion sets, so they
			// vary with group completion order; cell comparisons
			// ignore them (TestSweepResume covers them directly).
		default:
			errLines = append(errLines, l)
		}
	}
	if !sawDone {
		t.Fatalf("sweep response missing done line: %s", body)
	}
	return runs, errLines, done
}

// TestSweepCoalescing fires identical concurrent sweeps and checks
// the acceptance criterion end to end: one simulation per (workload,
// variant) group in the shared trace cache, all responses identical
// up to line order, and every cell byte-identical to direct
// Suite.RunSpecs output.
func TestSweepCoalescing(t *testing.T) {
	cache := disptrace.NewCache(t.TempDir())
	s, ts := newTestServer(t, Config{Traces: cache})
	req := SweepRequest{
		Workloads: []string{"gray"},
		Variants:  []string{"plain", "dynamic super"},
		ScaleDiv:  testScaleDiv,
	}
	wantCells := 2 * len(cpu.Machines())

	const herd = 8
	bodies := make([][]byte, herd)
	var wg sync.WaitGroup
	for i := range herd {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body := post(t, ts.URL+"/v1/sweep", req)
			if status != http.StatusOK {
				t.Errorf("sweep %d: HTTP %d: %s", i, status, body)
			}
			bodies[i] = body
		}()
	}
	wg.Wait()

	normalize := func(b []byte) string {
		var lines []string
		for _, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
			// Cursor lines encode completion order, which legitimately
			// differs between identical concurrent requests; cell
			// content must not.
			if strings.Contains(line, `"cursor"`) {
				continue
			}
			lines = append(lines, line)
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	first := normalize(bodies[0])
	for i, b := range bodies[1:] {
		if normalize(b) != first {
			t.Fatalf("sweep response %d differs from response 0", i+1)
		}
	}
	runs, errLines, done := parseSweep(t, bodies[0])
	if len(errLines) > 0 {
		t.Fatalf("sweep reported cell errors: %+v", errLines)
	}
	if done.Cells != wantCells || done.Errors != 0 || len(runs) != wantCells {
		t.Fatalf("done = %+v with %d runs, want %d cells and no errors", done, len(runs), wantCells)
	}

	// One recording per (workload, variant) group, never a duplicate.
	if st := cache.Stats(); st.Records != 2 {
		t.Errorf("trace cache performed %d recordings for %d identical sweeps, want 2 (one per group)", st.Records, herd)
	}

	// Byte-identity against a direct grid run sharing no state with
	// the server (its own trace cache directory).
	w, _ := workload.ByName("gray")
	suite := harness.NewSuite()
	suite.ScaleDiv = testScaleDiv
	suite.Traces = disptrace.NewCache(t.TempDir())
	var specs []harness.RunSpec
	for _, vn := range req.Variants {
		v, err := harness.VariantByName(w, vn)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cpu.Machines() {
			specs = append(specs, harness.RunSpec{W: w, V: v, M: m})
		}
	}
	cs, err := suite.RunSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i, sp := range specs {
		run := runner.NewRun(sp.W.Name, sp.V.Name, sp.M.Name, suite.Scale(sp.W), cs[i])
		b, _ := json.Marshal(run)
		want[run.Key()] = string(b)
	}
	for _, run := range runs {
		b, _ := json.Marshal(run)
		if want[run.Key()] != string(b) {
			t.Errorf("cell %s differs from direct RunSpecs output:\ngot  %s\nwant %s", run.Key(), b, want[run.Key()])
		}
	}
	if s.stats.computedCells.Load() < uint64(wantCells) {
		t.Errorf("computed cells %d < %d", s.stats.computedCells.Load(), wantCells)
	}
}

// TestMixedDistinctRequests drives overlapping distinct runs and
// sweeps concurrently — the race-detector soak for the serving path.
func TestMixedDistinctRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Traces: disptrace.NewCache(t.TempDir())})
	variants := []string{"plain", "dynamic super", "dynamic repl"}
	machines := cpu.Machines()

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := range 12 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%3 == 0 {
				status, body := post(t, ts.URL+"/v1/sweep", SweepRequest{
					Workloads: []string{"gray"},
					Variants:  variants[:1+i%2],
					ScaleDiv:  testScaleDiv,
				})
				if status != http.StatusOK {
					errs <- fmt.Sprintf("sweep %d: HTTP %d: %s", i, status, body)
				}
				return
			}
			v := variants[i%len(variants)]
			m := machines[i%len(machines)]
			status, body := post(t, ts.URL+"/v1/run", RunRequest{
				Workload: "gray", Variant: v, Machine: m.Name, ScaleDiv: testScaleDiv,
			})
			if status != http.StatusOK {
				errs <- fmt.Sprintf("run %d (%s/%s): HTTP %d: %s", i, v, m.Name, status, body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestSweepCancellation cancels a sweep mid-flight and checks nothing
// leaks: the handler returns, in-flight drops to zero, and the
// goroutine count settles back to its pre-request level.
func TestSweepCancellation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// A grid big enough to still be running when the cancel lands:
	// every forth workload under the dynamic variants, full machine
	// set, at test scale.
	req := SweepRequest{
		Workloads: []string{"gray", "tscp", "brew", "bench-gc", "cross", "vmgen", "brainless"},
		Variants:  []string{"plain", "dynamic repl", "dynamic super", "dynamic both", "across bb"},
		ScaleDiv:  testScaleDiv,
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	httpReq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	resp, err := http.DefaultClient.Do(httpReq)
	if err == nil {
		// The cancel may have landed after the response completed;
		// that is fine — the request was simply fast.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		inFlight := s.stats.inFlight.Load()
		goroutines := runtime.NumGoroutine()
		if inFlight == 0 && goroutines <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("after cancellation: in-flight %d, goroutines %d (started at %d); stacks:\n%s",
				inFlight, goroutines, before, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestBackpressure verifies the 503 path: with every slot occupied,
// run and sweep requests are rejected without executing.
func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 2})
	s.stats.inFlight.Add(2) // occupy both slots deterministically
	defer s.stats.inFlight.Add(-2)

	status, body := post(t, ts.URL+"/v1/run", RunRequest{Workload: "gray", Variant: "plain", Machine: "celeron-800", ScaleDiv: testScaleDiv})
	if status != http.StatusServiceUnavailable {
		t.Errorf("run at capacity: HTTP %d (%s), want 503", status, body)
	}
	status, _ = post(t, ts.URL+"/v1/sweep", SweepRequest{Workloads: []string{"gray"}, Variants: []string{"plain"}, ScaleDiv: testScaleDiv})
	if status != http.StatusServiceUnavailable {
		t.Errorf("sweep at capacity: HTTP %d, want 503", status)
	}
	if got := s.stats.rejected.Load(); got != 2 {
		t.Errorf("rejected = %d, want 2", got)
	}
	if got := s.stats.computedCells.Load(); got != 0 {
		t.Errorf("rejected requests computed %d cells", got)
	}
}

// TestValidation covers the 4xx surface.
func TestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxCells: 3})
	for _, tc := range []struct {
		name string
		path string
		body any
		want int
	}{
		{"unknown workload", "/v1/run", RunRequest{Workload: "nope", Variant: "plain", Machine: "celeron-800"}, 400},
		{"unknown variant", "/v1/run", RunRequest{Workload: "gray", Variant: "nope", Machine: "celeron-800"}, 400},
		{"unknown machine", "/v1/run", RunRequest{Workload: "gray", Variant: "plain", Machine: "nope"}, 400},
		{"empty sweep", "/v1/sweep", SweepRequest{}, 400},
		{"variant matches nothing", "/v1/sweep", SweepRequest{Workloads: []string{"gray"}, Variants: []string{"w/static super across"}}, 400},
		{"too many cells", "/v1/sweep", SweepRequest{Workloads: []string{"gray"}, Variants: []string{"plain"}, ScaleDiv: testScaleDiv}, 413},
	} {
		status, body := post(t, ts.URL+tc.path, tc.body)
		if status != tc.want {
			t.Errorf("%s: HTTP %d (%s), want %d", tc.name, status, body, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/traces/zz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("traces without cache: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestTraceAndStatsEndpoints exercises the observability surface
// after real traffic.
func TestTraceAndStatsEndpoints(t *testing.T) {
	cache := disptrace.NewCache(t.TempDir())
	_, ts := newTestServer(t, Config{Traces: cache})
	status, body := post(t, ts.URL+"/v1/sweep", SweepRequest{
		Workloads: []string{"tscp"}, Variants: []string{"plain"}, ScaleDiv: testScaleDiv,
	})
	if status != http.StatusOK {
		t.Fatalf("sweep: HTTP %d: %s", status, body)
	}

	listBody, err := fetchOK(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	var list TraceList
	if err := json.Unmarshal(listBody, &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 1 || len(list.Traces) != 1 {
		t.Fatalf("trace list = %+v, want exactly the one recorded trace", list)
	}

	infoBody, err := fetchOK(ts.URL + "/v1/traces/" + list.Traces[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	var info TraceInfo
	if err := json.Unmarshal(infoBody, &info); err != nil {
		t.Fatal(err)
	}
	if info.Workload != "tscp" || info.Variant != "plain" || info.Records == 0 || info.Segments == 0 {
		t.Errorf("trace info = %+v, want tscp/plain with records and segments", info)
	}

	statsBody, err := fetchOK(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests.Sweep != 1 || st.Host == nil || st.Host.GoMaxProcs < 1 {
		t.Errorf("stats = %+v, want one sweep and host metadata", st)
	}
	if st.Traces == nil || st.Traces.Records != 1 {
		t.Errorf("stats.Traces = %+v, want 1 recording", st.Traces)
	}
	if st.Latency["sweep"].Count != 1 {
		t.Errorf("sweep latency count = %d, want 1", st.Latency["sweep"].Count)
	}
}

// TestDiffEndpoint drives POST /v1/diff over traces recorded through
// the server: self-diff reports zero divergences, a cross-technique
// diff reports a deterministic first divergence, concurrent duplicate
// requests receive byte-identical bodies from one coalesced
// computation, and bad inputs map to the right statuses.
func TestDiffEndpoint(t *testing.T) {
	cache := disptrace.NewCache(t.TempDir())
	s, ts := newTestServer(t, Config{Traces: cache})

	// Populate the cache with two techniques of one workload.
	for _, variant := range []string{"plain", "switch"} {
		status, body := post(t, ts.URL+"/v1/run", RunRequest{
			Workload: "gray", Variant: variant, Machine: "celeron-800", ScaleDiv: testScaleDiv,
		})
		if status != http.StatusOK {
			t.Fatalf("run %s: HTTP %d: %s", variant, status, body)
		}
	}
	entries, err := cache.List()
	if err != nil || len(entries) != 2 {
		t.Fatalf("cache holds %d traces (%v), want 2", len(entries), err)
	}
	byVariant := map[string]disptrace.CacheEntry{}
	for _, e := range entries {
		byVariant[e.Variant] = e
	}
	a, b := byVariant["switch"], byVariant["plain"]
	if a.ID == "" || b.ID == "" {
		t.Fatalf("trace list lacks variant metadata: %+v", entries)
	}
	if !a.Seekable || a.VMInstructions == 0 || a.Segments == 0 {
		t.Fatalf("listed entry missing index metadata: %+v", a)
	}

	// Self-diff: identical.
	status, body := post(t, ts.URL+"/v1/diff", DiffRequest{A: a.ID, B: a.ID})
	if status != http.StatusOK {
		t.Fatalf("self-diff: HTTP %d: %s", status, body)
	}
	var selfResp DiffResponse
	if err := json.Unmarshal(body, &selfResp); err != nil {
		t.Fatal(err)
	}
	if !selfResp.Report.Identical || selfResp.Report.Divergences != 0 {
		t.Fatalf("self-diff not identical: %+v", selfResp.Report)
	}

	// Concurrent duplicate cross-diffs: byte-identical bodies.
	const herd = 12
	bodies := make([][]byte, herd)
	var wg sync.WaitGroup
	for i := range herd {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := post(t, ts.URL+"/v1/diff", DiffRequest{A: a.ID, B: b.ID, N: 3})
			if status != http.StatusOK {
				t.Errorf("cross-diff %d: HTTP %d: %s", i, status, body)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < herd; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("duplicate diff %d diverged:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	var crossResp DiffResponse
	if err := json.Unmarshal(bodies[0], &crossResp); err != nil {
		t.Fatal(err)
	}
	if crossResp.Report.Identical || crossResp.Report.Divergences == 0 || crossResp.Report.FirstDivergence < 0 {
		t.Fatalf("cross-technique diff reports no divergence: %+v", crossResp.Report)
	}
	if len(crossResp.Report.First) == 0 || len(crossResp.Report.First) > 3 {
		t.Fatalf("asked for 3 detailed divergences, got %d", len(crossResp.Report.First))
	}
	if got := s.stats.reqDiff.Load(); got != herd+1 {
		t.Errorf("diff request count = %d, want %d", got, herd+1)
	}

	// Unknown id -> 404; malformed id -> 400; no body -> 400.
	fake := strings.Repeat("ab", 32)
	if status, _ := post(t, ts.URL+"/v1/diff", DiffRequest{A: fake, B: fake}); status != http.StatusNotFound {
		t.Errorf("unknown trace id: HTTP %d, want 404", status)
	}
	if status, _ := post(t, ts.URL+"/v1/diff", DiffRequest{A: "zz", B: a.ID}); status != http.StatusBadRequest {
		t.Errorf("malformed trace id: HTTP %d, want 400", status)
	}

	// Mismatched workloads -> 400 with ErrMismatched. Record another
	// workload's trace to pair with.
	if status, body := post(t, ts.URL+"/v1/run", RunRequest{
		Workload: "tscp", Variant: "plain", Machine: "celeron-800", ScaleDiv: testScaleDiv,
	}); status != http.StatusOK {
		t.Fatalf("run tscp: HTTP %d: %s", status, body)
	}
	entries, err = cache.List()
	if err != nil {
		t.Fatal(err)
	}
	var other disptrace.CacheEntry
	for _, e := range entries {
		if e.Workload == "tscp" {
			other = e
		}
	}
	if status, body := post(t, ts.URL+"/v1/diff", DiffRequest{A: a.ID, B: other.ID}); status != http.StatusBadRequest {
		t.Errorf("mismatched workloads: HTTP %d (%s), want 400", status, body)
	}

	// Stats reflect the diff traffic.
	statsBody, err := fetchOK(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests.Diff == 0 || st.Computed.Diffs == 0 {
		t.Errorf("diff stats missing: %+v", st.Requests)
	}
	if st.Latency["diff"].Count == 0 {
		t.Errorf("diff latency not observed")
	}
}

func fetchOK(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
	}
	return body, nil
}
