package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"vmopt/internal/disptrace"
	"vmopt/internal/faults"
	"vmopt/internal/runner"
)

// postResp is post with access to the response headers.
func postResp(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestDeadlineExceededReturns504: a request that exhausts its
// server-side budget gets 504 with the machine-readable timeout body,
// counts into the deadline-timeout metric, reports outcome "timeout",
// and releases its in-flight slot so the next request runs normally.
func TestDeadlineExceededReturns504(t *testing.T) {
	inj := faults.New(&faults.Spec{Faults: []faults.Rule{{
		Site: faults.SiteCompute, Mode: faults.ModeLatency,
		Nth: 1, Limit: 1, Latency: faults.Duration(300 * time.Millisecond),
	}}})
	s, ts := newTestServer(t, Config{RunDeadline: 30 * time.Millisecond, Faults: inj})

	req := RunRequest{Workload: "gray", Variant: "plain", Machine: "celeron-800", ScaleDiv: testScaleDiv}
	resp := postResp(t, ts.URL+"/v1/run", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled run: HTTP %d, want 504", resp.StatusCode)
	}
	var body struct {
		Error      string `json:"error"`
		Timeout    bool   `json:"timeout"`
		DeadlineMS int64  `json:"deadline_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("504 body is not the timeout document: %v", err)
	}
	if !body.Timeout || body.DeadlineMS != 30 || body.Error == "" {
		t.Fatalf("timeout body = %+v", body)
	}
	if got := s.stats.deadlineTimeouts.Load(); got != 1 {
		t.Errorf("deadline timeouts = %d, want 1", got)
	}
	if got := s.stats.inFlight.Load(); got != 0 {
		t.Errorf("in-flight slot not released: %d", got)
	}

	// The injected stall is spent (limit 1): the same request now
	// completes inside the budget, proving the slot and the compute
	// path both recovered.
	status, out := post(t, ts.URL+"/v1/run", req)
	if status != http.StatusOK {
		t.Fatalf("run after timeout: HTTP %d: %s", status, out)
	}

	// The timed-out request reports outcome "timeout" in the debug
	// surface (it outranks the generic 4xx/5xx "error").
	dresp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(dresp.Body)
	if !strings.Contains(buf.String(), `"outcome": "timeout"`) {
		t.Errorf("/debug/requests has no timeout outcome: %s", buf.String())
	}
}

// TestBackpressureSendsRetryAfter: every 503 the real server emits —
// admission control and injected unavailability alike — carries a
// Retry-After header, so retrying clients have a backoff floor.
func TestBackpressureSendsRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1})
	s.stats.inFlight.Add(1) // occupy the slot deterministically
	req := RunRequest{Workload: "gray", Variant: "plain", Machine: "celeron-800", ScaleDiv: testScaleDiv}
	resp := postResp(t, ts.URL+"/v1/run", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("run at capacity: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("admission-control 503 is missing Retry-After")
	}
	s.stats.inFlight.Add(-1)
}

// TestInjectedHandlerFaults: serve.handler unavailability answers 503
// with Retry-After before any work, counts as a rejection (so
// client/server backpressure accounting still cross-checks), and the
// next request is served normally.
func TestInjectedHandlerFaults(t *testing.T) {
	inj := faults.New(&faults.Spec{Faults: []faults.Rule{{
		Site: faults.SiteHandler, Mode: faults.ModeUnavailable, Nth: 1, Limit: 1,
	}}})
	s, ts := newTestServer(t, Config{Faults: inj})
	req := RunRequest{Workload: "gray", Variant: "plain", Machine: "celeron-800", ScaleDiv: testScaleDiv}

	resp := postResp(t, ts.URL+"/v1/run", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("injected unavailability: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("injected 503 is missing Retry-After")
	}
	if got := s.stats.rejected.Load(); got != 1 {
		t.Errorf("rejected = %d, want 1 (injected rejection must count as backpressure)", got)
	}
	if got := s.stats.computedCells.Load(); got != 0 {
		t.Errorf("rejected request computed %d cells", got)
	}

	status, out := post(t, ts.URL+"/v1/run", req)
	if status != http.StatusOK {
		t.Fatalf("run after spent fault: HTTP %d: %s", status, out)
	}
	// The armed injector surfaces on /metrics, one series per rule.
	if status, body := post(t, ts.URL+"/v1/run", req); status != http.StatusOK {
		t.Fatalf("warm rerun: HTTP %d: %s", status, body)
	}
	series := scrape(t, ts.URL)
	if got := series[`vmserved_faults_injected_total{fault="serve.handler/unavailable"}`]; got != 1 {
		t.Errorf(`vmserved_faults_injected_total{fault="serve.handler/unavailable"} = %v, want 1`, got)
	}
	if got := series["vmserved_rejected_total"]; got != 1 {
		t.Errorf("vmserved_rejected_total = %v, want 1", got)
	}
}

// sweepBody runs one sweep and splits its lines.
func sweepBody(t *testing.T, url string, req SweepRequest) (runs []runner.Run, cursors []string, done SweepLine) {
	t.Helper()
	status, body := post(t, url+"/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("sweep: HTTP %d: %s", status, body)
	}
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
			cursors = append(cursors, l.Cursor)
		default:
			t.Fatalf("sweep error line: %+v", l)
		}
	}
	if !sawDone {
		t.Fatalf("sweep missing done line")
	}
	return runs, cursors, done
}

// runKeys renders runs as sorted strings for multiset comparison.
func runKeys(runs []runner.Run) []string {
	keys := make([]string, len(runs))
	for i, r := range runs {
		b, _ := json.Marshal(r)
		keys[i] = string(b)
	}
	sort.Strings(keys)
	return keys
}

// TestSweepResume: a sweep interrupted after its first cursor resumes
// to exactly the remaining groups, the resumed cells are
// byte-identical to the full run's, the final cursor resumes to an
// empty remainder, and bad cursors are rejected.
func TestSweepResume(t *testing.T) {
	cache := disptrace.NewCache(t.TempDir())
	s, ts := newTestServer(t, Config{Traces: cache})
	req := SweepRequest{
		Workloads: []string{"gray"},
		Variants:  []string{"plain", "dynamic super"},
		ScaleDiv:  testScaleDiv,
	}
	groups, err := resolveSweep(req, testScaleDiv)
	if err != nil {
		t.Fatal(err)
	}
	grid := gridHash(groups)

	fullRuns, cursors, fullDone := sweepBody(t, ts.URL, req)
	if len(cursors) != len(groups) {
		t.Fatalf("full sweep emitted %d cursors, want one per group (%d)", len(cursors), len(groups))
	}
	if fullDone.Skipped != 0 || fullDone.Groups != len(groups) {
		t.Fatalf("full done = %+v", fullDone)
	}

	// Pretend the client dropped after the first cursor: resume must
	// deliver exactly the groups that cursor does not cover.
	firstDone, err := decodeSweepCursor(cursors[0], grid, len(groups))
	if err != nil {
		t.Fatalf("first cursor does not decode: %v", err)
	}
	if len(firstDone) != 1 {
		t.Fatalf("first cursor covers %d groups, want 1", len(firstDone))
	}
	doneGroup := groups[firstDone[0]]

	resumeReq := req
	resumeReq.Resume = cursors[0]
	resRuns, resCursors, resDone := sweepBody(t, ts.URL, resumeReq)
	wantCells := 0
	for gi, g := range groups {
		if gi != firstDone[0] {
			wantCells += len(g.cells)
		}
	}
	if len(resRuns) != wantCells {
		t.Fatalf("resume streamed %d cells, want %d (the remaining groups)", len(resRuns), wantCells)
	}
	if resDone.Skipped != 1 || resDone.Groups != len(groups)-1 || resDone.Cells != wantCells || resDone.Errors != 0 {
		t.Fatalf("resume done = %+v", resDone)
	}
	for _, r := range resRuns {
		if r.Workload == doneGroup.cells[0].cell.workload && r.Variant == doneGroup.cells[0].cell.variant {
			t.Fatalf("resume re-streamed a cell of the done group: %+v", r)
		}
	}

	// Stitching the interrupted prefix (the done group's cells from
	// the full response) onto the resumed remainder reconstructs the
	// full grid byte-identically.
	var prefix []runner.Run
	for _, r := range fullRuns {
		if r.Workload == doneGroup.cells[0].cell.workload && r.Variant == doneGroup.cells[0].cell.variant {
			prefix = append(prefix, r)
		}
	}
	stitched := runKeys(append(prefix, resRuns...))
	want := runKeys(fullRuns)
	if fmt.Sprint(stitched) != fmt.Sprint(want) {
		t.Fatal("stitched prefix+resume differs from the full sweep")
	}

	// The resumed stream's last cursor covers the whole grid: one
	// more resume yields nothing but the summary.
	lastDone, err := decodeSweepCursor(resCursors[len(resCursors)-1], grid, len(groups))
	if err != nil {
		t.Fatal(err)
	}
	if len(lastDone) != len(groups) {
		t.Fatalf("final cursor covers %d groups, want all %d", len(lastDone), len(groups))
	}
	resumeReq.Resume = resCursors[len(resCursors)-1]
	tailRuns, _, tailDone := sweepBody(t, ts.URL, resumeReq)
	if len(tailRuns) != 0 || tailDone.Skipped != len(groups) || tailDone.Groups != 0 {
		t.Fatalf("resume of a complete sweep: %d runs, done %+v", len(tailRuns), tailDone)
	}

	if got := s.stats.sweepResumes.Load(); got != 2 {
		t.Errorf("sweep resumes = %d, want 2", got)
	}

	// Rejections: garbage tokens and tokens for another grid.
	for name, bad := range map[string]SweepRequest{
		"garbage": func() SweepRequest { r := req; r.Resume = "not!base64"; return r }(),
		"other grid": func() SweepRequest {
			r := req
			r.Variants = []string{"plain"}
			r.Resume = cursors[0]
			return r
		}(),
	} {
		if status, body := post(t, ts.URL+"/v1/sweep", bad); status != http.StatusBadRequest {
			t.Errorf("%s cursor: HTTP %d (%s), want 400", name, status, body)
		}
	}
}

// TestRetriedRequestCounter: requests announcing X-Retry-Attempt > 0
// are counted server-side.
func TestRetriedRequestCounter(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(RunRequest{Workload: "gray", Variant: "plain", Machine: "celeron-800", ScaleDiv: testScaleDiv})
	for attempt := 0; attempt < 3; attempt++ {
		hreq, err := http.NewRequest("POST", ts.URL+"/v1/run", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set("X-Retry-Attempt", fmt.Sprint(attempt))
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("attempt %d: HTTP %d", attempt, resp.StatusCode)
		}
	}
	if got := s.stats.retriedRequests.Load(); got != 2 {
		t.Errorf("retried requests = %d, want 2 (attempts 1 and 2)", got)
	}
}
