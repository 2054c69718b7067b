package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"vmopt/internal/disptrace"
	"vmopt/internal/metrics"
	"vmopt/internal/serve"
)

// testScaleDiv shrinks every workload to its scale floor so the
// cluster tests exercise routing and peer fill, not simulation time.
const testScaleDiv = 400

// fleet is an in-process cluster: n replicas with shared-nothing trace
// caches wired to each other through PeerClients, fronted by a Router.
type fleet struct {
	urls    []string
	caches  []*disptrace.Cache
	servers []*serve.Server
	backend []*httptest.Server
	router  *Router
	front   *httptest.Server
}

// newFleet stands the cluster up. Listener addresses have to exist
// before ring membership can (member names ARE the URLs), so each
// backend starts unstarted: the listener provides the URL, the ring is
// built over all URLs, and only then are servers constructed and
// handlers installed.
func newFleet(t *testing.T, n int) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		ts := httptest.NewUnstartedServer(nil)
		f.backend = append(f.backend, ts)
		f.urls = append(f.urls, "http://"+ts.Listener.Addr().String())
		f.caches = append(f.caches, disptrace.NewCache(t.TempDir()))
	}
	ring := NewRing(f.urls, DefaultVNodes, 0)
	for i, ts := range f.backend {
		pc := NewPeerClient(ring, f.urls[i], 5*time.Second)
		f.caches[i].Fill = pc.Fill
		s := serve.New(serve.Config{Traces: f.caches[i], InstanceID: f.urls[i]})
		f.servers = append(f.servers, s)
		ts.Config.Handler = s.Handler()
		ts.Start()
	}
	f.router = NewRouter(RouterConfig{Instances: f.urls, HopDeadline: time.Minute})
	f.front = httptest.NewServer(f.router.Handler())
	t.Cleanup(func() {
		f.front.Close()
		for i, ts := range f.backend {
			ts.Close()
			f.servers[i].Close()
		}
	})
	return f
}

func post(t *testing.T, url string, body any) (int, []byte, http.Header) {
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
	return resp.StatusCode, out, resp.Header
}

// metricValue scrapes one series (name plus label set, verbatim) off
// an instance's or the router's /metrics.
func metricValue(t *testing.T, base, series string) float64 {
	t.Helper()
	all, err := metrics.ScrapeMetrics(http.DefaultClient, base)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := all[series]
	if !ok {
		t.Fatalf("series %s not found on %s", series, base)
	}
	return v
}

// sweepCellLines normalizes a sweep NDJSON body to its comparable
// content: the multiset of cell and error lines, sorted. Cursor and
// done lines legitimately differ between topologies.
func sweepCellLines(t *testing.T, body []byte) []string {
	t.Helper()
	var cells []string
	for _, raw := range bytes.Split(body, []byte{'\n'}) {
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var line serve.SweepLine
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("undecodable sweep line %q: %v", raw, err)
		}
		if line.Done || line.Cursor != "" {
			continue
		}
		cells = append(cells, string(raw))
	}
	sort.Strings(cells)
	return cells
}

// TestClusterByteIdentity is the tentpole invariant: a 3-instance
// cluster behind a router answers every run, sweep and diff with
// exactly the bytes a single instance produces for the same requests.
func TestClusterByteIdentity(t *testing.T) {
	_, single := newSingle(t)
	f := newFleet(t, 3)

	// Runs: every variant the CI loadspec exercises.
	for _, variant := range []string{"plain", "dynamic super"} {
		req := serve.RunRequest{Workload: "gray", Variant: variant,
			Machine: "celeron-800", ScaleDiv: testScaleDiv}
		st1, b1, _ := post(t, single.URL+"/v1/run", req)
		st2, b2, hdr := post(t, f.front.URL+"/v1/run", req)
		if st1 != http.StatusOK || st2 != http.StatusOK {
			t.Fatalf("run %q: single %d, cluster %d", variant, st1, st2)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("run %q: cluster response differs from single instance:\n%s\nvs\n%s", variant, b2, b1)
		}
		if by := hdr.Get("X-Served-By"); by == "" {
			t.Errorf("run %q: cluster response missing X-Served-By", variant)
		} else if f.router.Ring().Owner(CellKey("gray", variant, testScaleDiv)) != by {
			t.Errorf("run %q: served by %s, not the cell owner", variant, by)
		}
		if hdr.Get("X-Cluster-Hop") != "1" {
			t.Errorf("run %q: X-Cluster-Hop = %q, want 1", variant, hdr.Get("X-Cluster-Hop"))
		}
	}

	// Sweep: two groups, routed to (potentially) different owners and
	// stitched back together. Comparable on the cell-line multiset.
	sweep := serve.SweepRequest{Workloads: []string{"gray"},
		Variants: []string{"plain", "dynamic super"},
		Machines: []string{"celeron-800"}, ScaleDiv: testScaleDiv}
	st1, b1, _ := post(t, single.URL+"/v1/sweep", sweep)
	st2, b2, _ := post(t, f.front.URL+"/v1/sweep", sweep)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("sweep: single %d, cluster %d", st1, st2)
	}
	c1, c2 := sweepCellLines(t, b1), sweepCellLines(t, b2)
	if len(c1) == 0 {
		t.Fatal("sweep produced no cell lines")
	}
	if fmt.Sprint(c1) != fmt.Sprint(c2) {
		t.Fatalf("sweep cell lines differ:\n%v\nvs\n%v", c2, c1)
	}

	// Diff: both topologies now hold the same content-addressed traces.
	var list serve.TraceList
	resp, err := http.Get(single.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if list.Count < 2 {
		t.Fatalf("single instance has %d traces, want >= 2", list.Count)
	}
	diff := serve.DiffRequest{A: list.Traces[0].ID, B: list.Traces[1].ID}
	st1, b1, _ = post(t, single.URL+"/v1/diff", diff)
	st2, b2, _ = post(t, f.front.URL+"/v1/diff", diff)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("diff: single %d, cluster %d", st1, st2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("diff: cluster response differs from single instance:\n%s\nvs\n%s", b2, b1)
	}

	// The merged cluster trace index matches the single instance's.
	st2, b2, _ = get(t, f.front.URL+"/v1/traces")
	if st2 != http.StatusOK {
		t.Fatalf("cluster trace list: %d", st2)
	}
	var merged serve.TraceList
	if err := json.Unmarshal(b2, &merged); err != nil {
		t.Fatal(err)
	}
	if merged.Count != list.Count {
		t.Fatalf("cluster trace index has %d entries, single has %d", merged.Count, list.Count)
	}
}

func newSingle(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	return newInstance(t, serve.Config{Traces: disptrace.NewCache(t.TempDir())})
}

func newInstance(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

// TestClusterPeerFill drives a run on the owning replica, then the
// same run directly on a non-owner: the non-owner must fill its cache
// from the peer rather than re-simulate, answer byte-identically, and
// the owner must count the serve.
func TestClusterPeerFill(t *testing.T) {
	f := newFleet(t, 3)
	req := serve.RunRequest{Workload: "gray", Variant: "plain",
		Machine: "celeron-800", ScaleDiv: testScaleDiv}
	owner := f.router.Ring().Owner(CellKey("gray", "plain", testScaleDiv))
	nonOwner := ""
	for _, u := range f.urls {
		if u != owner {
			nonOwner = u
			break
		}
	}

	st, want, _ := post(t, owner+"/v1/run", req)
	if st != http.StatusOK {
		t.Fatalf("owner run: %d", st)
	}
	if rec := metricValue(t, owner, "vmserved_trace_records_total"); rec != 1 {
		t.Fatalf("owner recorded %v traces, want 1", rec)
	}

	st, got, _ := post(t, nonOwner+"/v1/run", req)
	if st != http.StatusOK {
		t.Fatalf("non-owner run: %d", st)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("peer-filled response differs from owner's:\n%s\nvs\n%s", got, want)
	}
	if hits := metricValue(t, nonOwner, "vmserved_peer_fill_hits_total"); hits != 1 {
		t.Errorf("non-owner peer fill hits = %v, want 1", hits)
	}
	if rec := metricValue(t, nonOwner, "vmserved_trace_records_total"); rec != 0 {
		t.Errorf("non-owner recorded %v traces; peer fill should have avoided simulation-for-recording", rec)
	}
	if serves := metricValue(t, owner, "vmserved_peer_serves_total"); serves != 1 {
		t.Errorf("owner peer serves = %v, want 1", serves)
	}
}

// TestClusterFailover kills the owning replica and re-issues its cell
// through the router: the request must still succeed, served by
// another replica, with byte-identical content (the survivor
// re-simulates deterministically when its peer fill finds the owner
// gone).
func TestClusterFailover(t *testing.T) {
	f := newFleet(t, 3)
	req := serve.RunRequest{Workload: "gray", Variant: "plain",
		Machine: "celeron-800", ScaleDiv: testScaleDiv}
	owner := f.router.Ring().Owner(CellKey("gray", "plain", testScaleDiv))

	st, want, hdr := post(t, f.front.URL+"/v1/run", req)
	if st != http.StatusOK {
		t.Fatalf("first run: %d", st)
	}
	if hdr.Get("X-Served-By") != owner {
		t.Fatalf("first run served by %s, want owner %s", hdr.Get("X-Served-By"), owner)
	}

	for i, u := range f.urls {
		if u == owner {
			f.backend[i].Close()
		}
	}
	st, got, hdr := post(t, f.front.URL+"/v1/run", req)
	if st != http.StatusOK {
		t.Fatalf("failover run: %d (%s)", st, got)
	}
	if by := hdr.Get("X-Served-By"); by == owner || by == "" {
		t.Fatalf("failover run served by %q, want a surviving non-owner", by)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("failover response differs:\n%s\nvs\n%s", got, want)
	}
	if hop := hdr.Get("X-Cluster-Hop"); hop == "1" {
		t.Errorf("failover took hop %s, expected a retry", hop)
	}

	// The router noticed: retries counted, the dead instance marked
	// down, and /v1/stats is not served.
	if metricValue(t, f.front.URL, "vmrouter_retries_total") == 0 {
		t.Error("router reports no retries after a failover")
	}
	if metricValue(t, f.front.URL, `vmrouter_instance_up{instance="`+owner+`"}`) != 0 {
		t.Error("dead owner still marked up by the router")
	}
	if st, _, _ := get(t, f.front.URL+"/v1/stats"); st != http.StatusNotFound {
		t.Errorf("router GET /v1/stats: HTTP %d, want 404", st)
	}
}

// sweepParts splits a sweep NDJSON body into its sorted cell and
// error lines, its cursors in stream order and its done line.
func sweepParts(t *testing.T, body []byte) (cells, cursors []string, done string) {
	t.Helper()
	for _, raw := range bytes.Split(body, []byte{'\n'}) {
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var line serve.SweepLine
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("undecodable sweep line %q: %v", raw, err)
		}
		switch {
		case line.Done:
			done = string(raw)
		case line.Cursor != "":
			cursors = append(cursors, line.Cursor)
		default:
			cells = append(cells, string(raw))
		}
	}
	if done == "" {
		t.Fatalf("sweep has no done line:\n%s", body)
	}
	sort.Strings(cells)
	return cells, cursors, done
}

// TestClusterSweepResume replays the single-instance resume protocol
// through the router: a cursor from a completed cluster sweep resumes
// to an immediate, empty completion, and a cursor minted by a single
// instance for the same grid is honored too (shared grid fingerprint
// and token codec). Router and instance agree on the done line and the
// cell lines of a full and a partially resumed sweep, and on the status
// and body of every rejected one.
func TestClusterSweepResume(t *testing.T) {
	_, single := newSingle(t)
	f := newFleet(t, 3)
	sweep := serve.SweepRequest{Workloads: []string{"gray"},
		Variants: []string{"plain", "dynamic super"},
		Machines: []string{"celeron-800"}, ScaleDiv: testScaleDiv}

	// sweepBoth posts req to the single instance and to the router and
	// requires the same cell lines and the same done line from both.
	sweepBoth := func(name string, req serve.SweepRequest) (singleCursors []string, done serve.SweepLine) {
		t.Helper()
		st1, b1, _ := post(t, single.URL+"/v1/sweep", req)
		st2, b2, _ := post(t, f.front.URL+"/v1/sweep", req)
		if st1 != http.StatusOK || st2 != http.StatusOK {
			t.Fatalf("%s: single %d (%s), cluster %d (%s)", name, st1, b1, st2, b2)
		}
		c1, cur1, d1 := sweepParts(t, b1)
		c2, _, d2 := sweepParts(t, b2)
		if fmt.Sprint(c1) != fmt.Sprint(c2) {
			t.Fatalf("%s: cell lines differ:\ncluster %v\nsingle  %v", name, c2, c1)
		}
		if d1 != d2 {
			t.Fatalf("%s: done lines differ:\ncluster %s\nsingle  %s", name, d2, d1)
		}
		if err := json.Unmarshal([]byte(d1), &done); err != nil {
			t.Fatal(err)
		}
		return cur1, done
	}

	singleCursors, done := sweepBoth("full sweep", sweep)
	if done.Errors != 0 || done.Groups != 2 || done.Cells != 2 || done.Skipped != 0 {
		t.Fatalf("full sweep summary: %+v", done)
	}
	// A partial resume from the first cursor of the single instance's
	// stream: one group skipped, the other streamed by both tiers.
	partial := sweep
	partial.Resume = singleCursors[0]
	if _, done := sweepBoth("partial resume", partial); done.Skipped != 1 || done.Groups != 1 || done.Cells != 1 {
		t.Fatalf("partial resume summary: %+v", done)
	}

	st, body, _ := post(t, f.front.URL+"/v1/sweep", sweep)
	if st != http.StatusOK {
		t.Fatalf("sweep: %d", st)
	}
	_, cursors, _ := sweepParts(t, body)
	if len(cursors) == 0 {
		t.Fatal("cluster sweep emitted no cursor lines")
	}
	resume := sweep
	resume.Resume = cursors[len(cursors)-1]
	st, body, _ = post(t, f.front.URL+"/v1/sweep", resume)
	if st != http.StatusOK {
		t.Fatalf("resumed sweep: %d", st)
	}
	if cells := sweepCellLines(t, body); len(cells) != 0 {
		t.Fatalf("fully-resumed sweep re-streamed %d cell lines", len(cells))
	}

	// Interop: a single instance's last cursor resumes through the
	// router.
	resume.Resume = singleCursors[len(singleCursors)-1]
	st, body, _ = post(t, f.front.URL+"/v1/sweep", resume)
	if st != http.StatusOK {
		t.Fatalf("cross-topology resume: %d (%s)", st, body)
	}
	if cells := sweepCellLines(t, body); len(cells) != 0 {
		t.Fatalf("cross-topology resume re-streamed %d cell lines", len(cells))
	}

	// Rejections: an instance and a router with the same one-cell grid
	// bound answer each invalid sweep with the same status and body.
	_, limited := newInstance(t, serve.Config{MaxCells: 1})
	limitedRouter := httptest.NewServer(NewRouter(RouterConfig{Instances: f.urls, MaxCells: 1}).Handler())
	defer limitedRouter.Close()
	foreign := serve.SweepRequest{Workloads: []string{"gray"}, Variants: []string{"plain"},
		Machines: []string{"celeron-800"}, ScaleDiv: testScaleDiv, Resume: singleCursors[0]}
	for name, req := range map[string]serve.SweepRequest{
		"unknown workload": {Workloads: []string{"nope"}, ScaleDiv: testScaleDiv},
		"over MaxCells":    sweep,
		"foreign cursor":   foreign,
	} {
		st1, b1, _ := post(t, limited.URL+"/v1/sweep", req)
		st2, b2, _ := post(t, limitedRouter.URL+"/v1/sweep", req)
		if st1 < 400 || st1 != st2 || !bytes.Equal(b1, b2) {
			t.Errorf("%s: single %d %s, cluster %d %s", name, st1, b1, st2, b2)
		}
	}
}

// TestMalformedBodiesAgree: an instance and a router read request
// bodies through one function, so a malformed, truncated, trailing or
// oversized body gets the same status and error from either tier.
func TestMalformedBodiesAgree(t *testing.T) {
	_, single := newSingle(t)
	front := httptest.NewServer(NewRouter(RouterConfig{Instances: []string{single.URL}}).Handler())
	defer front.Close()
	bodies := map[string]string{
		"empty":     ``,
		"not json":  `nope`,
		"truncated": `{"workloads":["gray"`,
		"trailing":  `{"workloads":["gray"]} xyz`,
		"oversized": `{"workloads":["` + strings.Repeat("a", 1<<20) + `"]}`,
	}
	for _, path := range []string{"/v1/run", "/v1/sweep", "/v1/diff"} {
		for name, body := range bodies {
			st1, b1 := postRaw(t, single.URL+path, body)
			st2, b2 := postRaw(t, front.URL+path, body)
			if st1 != http.StatusBadRequest || st1 != st2 || !bytes.Equal(b1, b2) {
				t.Errorf("%s %s: single %d %s, cluster %d %s", path, name, st1, b1, st2, b2)
			}
		}
	}
}

func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestClusterDrainRouting flips one replica's readiness and lets the
// active prober move it to the back of the preference order: its cells
// route to another replica while it drains, without a failed request
// in between.
func TestClusterDrainRouting(t *testing.T) {
	f := newFleet(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.router.cfg.ProbeInterval = 20 * time.Millisecond
	f.router.StartProbes(ctx)

	req := serve.RunRequest{Workload: "gray", Variant: "plain",
		Machine: "celeron-800", ScaleDiv: testScaleDiv}
	owner := f.router.Ring().Owner(CellKey("gray", "plain", testScaleDiv))
	for i, u := range f.urls {
		if u == owner {
			f.servers[i].SetReady(false)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.router.healthy(owner) {
		if time.Now().After(deadline) {
			t.Fatal("prober never marked the draining owner down")
		}
		time.Sleep(10 * time.Millisecond)
	}

	st, _, hdr := post(t, f.front.URL+"/v1/run", req)
	if st != http.StatusOK {
		t.Fatalf("run during drain: %d", st)
	}
	if by := hdr.Get("X-Served-By"); by == owner {
		t.Errorf("request routed to the draining owner")
	}

	// Recovery: readiness back on, the prober restores the owner.
	for i, u := range f.urls {
		if u == owner {
			f.servers[i].SetReady(true)
		}
	}
	deadline = time.Now().Add(5 * time.Second)
	for !f.router.healthy(owner) {
		if time.Now().After(deadline) {
			t.Fatal("prober never restored the recovered owner")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterDiffPeerFill runs the two CI cells so their traces live
// on (potentially different) owners, then diffs the pair through the
// router: whichever instance serves the diff must fill the trace it
// does not hold by content address (Fill without a key) and answer identically to
// a single instance holding both.
func TestClusterDiffPeerFill(t *testing.T) {
	_, single := newSingle(t)
	f := newFleet(t, 3)
	var ids []string
	for _, variant := range []string{"plain", "dynamic super"} {
		req := serve.RunRequest{Workload: "gray", Variant: variant,
			Machine: "celeron-800", ScaleDiv: testScaleDiv}
		if st, _, _ := post(t, single.URL+"/v1/run", req); st != http.StatusOK {
			t.Fatalf("single run: %d", st)
		}
		if st, _, _ := post(t, f.front.URL+"/v1/run", req); st != http.StatusOK {
			t.Fatalf("cluster run: %d", st)
		}
	}
	var list serve.TraceList
	_, b, _ := get(t, single.URL+"/v1/traces")
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatal(err)
	}
	for _, e := range list.Traces {
		ids = append(ids, e.ID)
	}
	if len(ids) != 2 {
		t.Fatalf("expected 2 traces, got %d", len(ids))
	}
	diff := serve.DiffRequest{A: ids[0], B: ids[1]}
	st1, b1, _ := post(t, single.URL+"/v1/diff", diff)
	st2, b2, _ := post(t, f.front.URL+"/v1/diff", diff)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("diff: single %d, cluster %d", st1, st2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cluster diff differs from single instance:\n%s\nvs\n%s", b2, b1)
	}
}
