package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vmopt/internal/disptrace"
	"vmopt/internal/metrics"
	"vmopt/internal/obs"
	"vmopt/internal/serve"
)

// Router defaults.
const (
	// DefaultHopDeadline bounds one forwarded attempt. It must cover a
	// cold simulation of the slowest group, so it mirrors the serving
	// tier's default endpoint deadlines rather than a network RTT.
	DefaultHopDeadline = 2 * time.Minute
	// DefaultProbeInterval paces the background /readyz prober.
	DefaultProbeInterval = time.Second
	// passiveCooldown is how long a passive forward failure keeps an
	// instance out of the preference order before it is tried again
	// (the active prober clears or extends it sooner).
	passiveCooldown = time.Second
	// probeTimeout bounds one readiness probe.
	probeTimeout = 2 * time.Second
)

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// Instances are the replica base URLs ("http://host:port"). Their
	// exact strings are ring member names: every process naming the
	// same strings computes the same placement.
	Instances []string
	// VNodes and Seed parameterize the ring (0 means DefaultVNodes /
	// seed 0). They must match the replicas' own -vnodes/-ring-seed
	// for peer fill to ask the instances the router routes to.
	VNodes int
	Seed   uint64
	// HopDeadline bounds each forwarded attempt; <= 0 means
	// DefaultHopDeadline.
	HopDeadline time.Duration
	// ProbeInterval paces the background readiness prober started by
	// StartProbes; <= 0 means DefaultProbeInterval.
	ProbeInterval time.Duration
	// DefaultScaleDiv must match the replicas' -scalediv so the router
	// resolves a request's cell key to the same value the owning
	// replica will run it at.
	DefaultScaleDiv int
	// MaxCells bounds one sweep's grid like serve.Config.MaxCells;
	// <= 0 means serve.DefaultMaxCells.
	MaxCells int
}

// Router fronts a vmserved fleet: it owns the ring, forwards each
// request to the owner of its cell key with a per-hop deadline, and
// retries the next replica in ring order when the owner is
// unavailable. Responses are forwarded verbatim, so a cluster behind
// a router is byte-identical to a single instance for the same
// requests — the invariant CI gates on.
type Router struct {
	cfg  RouterConfig
	ring *Ring

	client *http.Client

	// downUntil[i] is the unix-nano time until which instance i is
	// skipped in the preference order (passive markdown on forward
	// failure, active markdown by the prober). Indexed in
	// ring.Nodes() order.
	downUntil []atomic.Int64
	nodeIdx   map[string]int

	notReady atomic.Bool

	reg      *metrics.Registry
	recorder *obs.Recorder

	reqs       *metrics.CounterVec
	lat        *metrics.HistogramVec
	forwards   *metrics.CounterVec
	retries    *metrics.Counter
	failures   *metrics.Counter
	sweepSplit *metrics.Counter
	up         *metrics.GaugeVec
}

// NewRouter builds a Router over the configured instances.
func NewRouter(cfg RouterConfig) *Router {
	ring := NewRing(cfg.Instances, cfg.VNodes, cfg.Seed)
	hop := cfg.HopDeadline
	if hop <= 0 {
		hop = DefaultHopDeadline
	}
	rt := &Router{
		cfg:  cfg,
		ring: ring,
		// No Client.Timeout: sweeps stream for as long as their grid
		// takes; per-attempt bounds come from the hop context.
		client:    &http.Client{},
		downUntil: make([]atomic.Int64, len(ring.Nodes())),
		nodeIdx:   make(map[string]int, len(ring.Nodes())),
		recorder:  obs.NewRecorder(0, 0),
	}
	rt.cfg.HopDeadline = hop
	for i, n := range ring.Nodes() {
		rt.nodeIdx[n] = i
	}

	r := metrics.NewRegistry()
	rt.reg = r
	rt.reqs = r.CounterVec("vmrouter_requests_total",
		"Requests received by the router, by endpoint.", "endpoint")
	rt.lat = r.HistogramVec("vmrouter_request_seconds",
		"End-to-end router latency, by endpoint.", "endpoint")
	rt.forwards = r.CounterVec("vmrouter_forwards_total",
		"Attempts forwarded to each instance.", "instance")
	rt.retries = r.Counter("vmrouter_retries_total",
		"Forward attempts beyond the first: an earlier candidate did not answer, or its answer was moved past.")
	rt.failures = r.Counter("vmrouter_routing_failures_total",
		"Requests every candidate replica failed to answer.")
	rt.sweepSplit = r.Counter("vmrouter_sweep_groups_total",
		"Sweep groups decomposed and forwarded to owners.")
	rt.up = r.GaugeVec("vmrouter_instance_up",
		"1 while an instance is in the preference order, 0 while marked down.", "instance")
	r.GaugeFunc("vmrouter_instances",
		"Configured cluster size.",
		func() float64 { return float64(len(ring.Nodes())) })
	for _, n := range ring.Nodes() {
		rt.up.With(n).Set(1)
		rt.forwards.With(n) // pre-register so 0 is visible
	}
	return rt
}

// Registry exposes the router's own metrics (GET /metrics).
func (rt *Router) Registry() *metrics.Registry { return rt.reg }

// Ring exposes the router's placement, mostly for tests.
func (rt *Router) Ring() *Ring { return rt.ring }

// SetReady flips the router's own /readyz (drain before shutdown,
// same protocol as the replicas).
func (rt *Router) SetReady(ready bool) { rt.notReady.Store(!ready) }

// markDown removes an instance from the preference order for d.
func (rt *Router) markDown(inst string, d time.Duration) {
	if i, ok := rt.nodeIdx[inst]; ok {
		rt.downUntil[i].Store(time.Now().Add(d).UnixNano())
		rt.up.With(inst).Set(0)
	}
}

// markUp restores an instance immediately.
func (rt *Router) markUp(inst string) {
	if i, ok := rt.nodeIdx[inst]; ok {
		rt.downUntil[i].Store(0)
		rt.up.With(inst).Set(1)
	}
}

// healthy reports whether an instance is currently in the preference
// order.
func (rt *Router) healthy(inst string) bool {
	i, ok := rt.nodeIdx[inst]
	return ok && time.Now().UnixNano() >= rt.downUntil[i].Load()
}

// StartProbes runs the active readiness prober until ctx is
// cancelled: every interval, each instance's /readyz is probed and
// the instance marked up or down accordingly. The passive path
// (markDown on forward failure) reacts within one request; the prober
// both recovers instances early and notices a draining replica
// before the next forward does.
func (rt *Router) StartProbes(ctx context.Context) {
	interval := rt.cfg.ProbeInterval
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	probe := &http.Client{Timeout: probeTimeout}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			for _, inst := range rt.ring.Nodes() {
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, inst+"/readyz", nil)
				if err != nil {
					continue
				}
				resp, err := probe.Do(req)
				if err == nil {
					io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
					resp.Body.Close()
				}
				if err != nil || resp.StatusCode != http.StatusOK {
					rt.markDown(inst, 2*interval)
				} else {
					rt.markUp(inst)
				}
			}
		}
	}()
}

// Handler returns the router's routing table. The /v1 surface mirrors
// a single instance's; /metrics, /debug/requests, /healthz and
// /readyz are the router's own (the probes are the instances'
// handlers over the router's readiness).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", rt.instrument("run", rt.handleRun))
	mux.HandleFunc("POST /v1/sweep", rt.instrument("sweep", rt.handleSweep))
	mux.HandleFunc("POST /v1/diff", rt.instrument("diff", rt.handleDiff))
	mux.HandleFunc("GET /v1/traces", rt.instrument("traces", rt.handleTraceList))
	mux.HandleFunc("GET /v1/traces/{id}", rt.instrument("traces", rt.handleTraceGet))
	mux.HandleFunc("GET /v1/traces/{id}/raw", rt.instrument("traces", rt.handleTraceGet))
	mux.Handle("GET /metrics", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", metrics.TextContentType)
		rt.reg.WritePrometheus(w)
	}))
	mux.Handle("GET /debug/requests", rt.recorder.Handler())
	mux.HandleFunc("GET /healthz", serve.Healthz)
	mux.HandleFunc("GET /readyz", serve.Readyz(func() bool { return !rt.notReady.Load() }))
	return mux
}

// instrument is the router's slim observability middleware: request
// counter, obs trace (its spans name each forwarded instance, which
// is how X-Served-By threads into the trace), latency histogram and
// the debug recorder.
func (rt *Router) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rt.reqs.With(endpoint).Inc()
		id := obs.RequestID(r.Header.Get("X-Request-ID"))
		ctx, tr := obs.NewTrace(r.Context(), endpoint, id)
		w.Header().Set("X-Request-ID", id)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(ctx))
		elapsed := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		if status >= 400 {
			tr.SetOutcome(obs.OutcomeError)
		}
		rt.lat.With(endpoint).Observe(elapsed)
		tr.Finish(status, elapsed)
		rt.recorder.Record(tr)
	}
}

// statusWriter captures the status code for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// upstream is one forwarded response, fully buffered.
type upstream struct {
	status   int
	header   http.Header
	body     []byte
	instance string
	hops     int
}

// candidates returns the preference order for a routing key: the
// ring's owner sequence with marked-down instances moved to the back
// — a down owner is still tried last rather than never, so a fleet
// that is entirely marked down degrades to "try everyone" instead of
// failing without a single attempt.
func (rt *Router) candidates(key string) []string {
	all := rt.ring.Owners(key, len(rt.ring.Nodes()))
	out := make([]string, 0, len(all))
	var down []string
	for _, n := range all {
		if rt.healthy(n) {
			out = append(out, n)
		} else {
			down = append(down, n)
		}
	}
	return append(out, down...)
}

// forward sends one buffered request along the preference order for
// key, one hop at a time, each under the hop deadline, until accept
// takes an answer. accept returns nil to take the answer, or an error
// to move on to the next candidate, keeping the answer as the last
// one. A transport error moves on too and marks the instance down; a
// refused answer marks nothing down, since a replica that answers,
// even with a 503, is alive. Once the request's context is done, a
// transport error ends the walk.
//
// forward returns the accepted answer and a nil error. Otherwise it
// returns the last answer accept refused (nil if no instance answered,
// the one case counted as a routing failure) and the last attempt's
// error.
func (rt *Router) forward(ctx context.Context, r *http.Request, key, method, path string, body []byte, accept func(*upstream) error) (*upstream, error) {
	var last *upstream
	err := errNoInstances
	for i, inst := range rt.candidates(key) {
		if i > 0 {
			rt.retries.Inc()
		}
		u, ferr := rt.forwardOne(ctx, r, inst, i+1, method, path, body)
		if ferr != nil {
			err = ferr
			rt.markDown(inst, passiveCooldown)
			if ctx.Err() != nil {
				break
			}
			continue
		}
		if err = accept(u); err == nil {
			return u, nil
		}
		last = u
	}
	if last == nil {
		rt.failures.Inc()
	}
	return last, err
}

var errNoInstances = errors.New("cluster has no instances")

// answered is the acceptance rule of run and diff: any answer but a
// 5xx, where the next candidate may do better. A 5xx is relayed only when
// no candidate does better, so backpressure keeps its Retry-After
// semantics end to end.
func answered(u *upstream) error {
	if u.status >= 500 {
		return refused(u)
	}
	return nil
}

// refused is the error of an answer forward moves past.
func refused(u *upstream) error {
	return fmt.Errorf("%s: status %d", u.instance, u.status)
}

// forwardOne performs one attempt against one instance under the hop
// deadline. The obs span is named for the instance, so the debug
// recorder shows exactly where each request's time went and who
// served it.
func (rt *Router) forwardOne(ctx context.Context, r *http.Request, inst string, hop int, method, path string, body []byte) (*upstream, error) {
	hopCtx, cancel := context.WithTimeout(ctx, rt.cfg.HopDeadline)
	defer cancel()
	req, err := http.NewRequestWithContext(hopCtx, method, inst+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	copyRequestHeaders(req, r)
	req.Header.Set("X-Cluster-Hop", strconv.Itoa(hop))
	sp := obs.Start(ctx, "forward:"+inst)
	rt.forwards.With(inst).Inc()
	resp, err := rt.client.Do(req)
	if err != nil {
		sp.End()
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	sp.End()
	if err != nil {
		return nil, err
	}
	return &upstream{status: resp.StatusCode, header: resp.Header,
		body: b, instance: inst, hops: hop}, nil
}

// copyRequestHeaders propagates the client headers a replica acts on.
func copyRequestHeaders(dst *http.Request, src *http.Request) {
	if src == nil {
		return
	}
	for _, h := range []string{"Content-Type", "X-Request-ID", "X-Retry-Attempt"} {
		if v := src.Header.Get(h); v != "" {
			dst.Header.Set(h, v)
		}
	}
}

// upstreamHeaders is what a forwarded response relays back to the
// client, beyond the body: the replica's identity, its timing, and
// retry/request bookkeeping.
var upstreamHeaders = []string{
	"Content-Type", "X-Served-By", "Server-Timing", "Retry-After", "X-Request-ID",
}

// writeUpstream relays a buffered upstream response verbatim, adding
// X-Cluster-Hop (how many attempts this request took).
func writeUpstream(w http.ResponseWriter, u *upstream) {
	for _, h := range upstreamHeaders {
		if v := u.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Cluster-Hop", strconv.Itoa(u.hops))
	w.WriteHeader(u.status)
	w.Write(u.body)
}

// unavailable answers for a request no replica could serve: 503 with
// Retry-After, the same shape as backpressure, because from the
// client's side that is what a briefly headless cluster is.
func unavailable(w http.ResponseWriter, err error) {
	serve.ErrorBody(w, http.StatusServiceUnavailable, "cluster unavailable: %v", err)
}

func (rt *Router) handleRun(w http.ResponseWriter, r *http.Request) {
	sp := obs.Start(r.Context(), "route")
	var req serve.RunRequest
	body, ok := serve.ReadRequest(w, r, &req)
	if !ok {
		sp.End()
		return
	}
	scaleDiv := req.ScaleDiv
	if scaleDiv <= 0 {
		scaleDiv = rt.defaultScaleDiv()
	}
	key := CellKey(req.Workload, req.Variant, scaleDiv)
	sp.End()
	rt.relay(w, r, key, "/v1/run", body)
}

func (rt *Router) handleDiff(w http.ResponseWriter, r *http.Request) {
	sp := obs.Start(r.Context(), "route")
	var req serve.DiffRequest
	body, ok := serve.ReadRequest(w, r, &req)
	if !ok {
		sp.End()
		return
	}
	// Diffs have no cell key — the pair names traces by content
	// address. Routing on the pair keeps repeated diffs of the same
	// pair on one instance (its diff flight and page cache stay hot);
	// that instance peer-fills whichever trace it does not own.
	sp.End()
	rt.relay(w, r, "diff|"+req.A+"|"+req.B, "/v1/diff", body)
}

// relay POSTs body to path on the first candidate for key that
// answers without a 5xx, and relays that answer, or the last 5xx.
func (rt *Router) relay(w http.ResponseWriter, r *http.Request, key, path string, body []byte) {
	u, err := rt.forward(r.Context(), r, key, http.MethodPost, path, body, answered)
	if u == nil {
		unavailable(w, fmt.Errorf("no instance answered: %v", err))
		return
	}
	writeUpstream(w, u)
}

// handleTraceGet forwards GET /v1/traces/{id}[ /raw]: any instance
// may hold the trace (ownership is by cell key, which an ID alone
// does not reveal), so instances are tried in ring order of the ID
// until one answers non-404.
func (rt *Router) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	u, _ := rt.forward(r.Context(), r, r.PathValue("id"), http.MethodGet, r.URL.Path, nil, func(u *upstream) error {
		if u.status == http.StatusNotFound {
			return refused(u)
		}
		return answered(u)
	})
	if u == nil {
		unavailable(w, fmt.Errorf("no instance answered"))
		return
	}
	writeUpstream(w, u)
}

// handleTraceList merges every instance's trace index: entries
// deduplicated by content address and sorted by ID — the same order a
// single instance's directory listing yields — so the merged view is
// what one big cache would report. Instances that fail to answer are
// skipped (the listing is advisory); only a fully headless fleet is
// an error.
func (rt *Router) handleTraceList(w http.ResponseWriter, r *http.Request) {
	type result struct {
		list serve.TraceList
		err  error
	}
	nodes := rt.ring.Nodes()
	results := make([]result, len(nodes))
	var wg sync.WaitGroup
	for i, inst := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			u, err := rt.forwardOne(r.Context(), r, inst, 1, http.MethodGet, "/v1/traces", nil)
			if err != nil {
				results[i].err = err
				return
			}
			if u.status != http.StatusOK {
				results[i].err = fmt.Errorf("%s: status %d", inst, u.status)
				return
			}
			results[i].err = json.Unmarshal(u.body, &results[i].list)
		}()
	}
	wg.Wait()

	seen := map[string]bool{}
	list := serve.TraceList{Traces: []disptrace.CacheEntry{}}
	anyOK := false
	for _, res := range results {
		if res.err != nil {
			continue
		}
		anyOK = true
		for _, e := range res.list.Traces {
			if !seen[e.ID] {
				seen[e.ID] = true
				list.Traces = append(list.Traces, e)
			}
		}
	}
	if !anyOK {
		rt.failures.Inc()
		unavailable(w, fmt.Errorf("no instance answered"))
		return
	}
	// Single-instance listings come out of ReadDir, i.e. sorted by
	// content address; the merged view preserves that order.
	sort.Slice(list.Traces, func(i, j int) bool { return list.Traces[i].ID < list.Traces[j].ID })
	list.Count = len(list.Traces)
	body, err := json.Marshal(list)
	if err != nil {
		serve.ErrorBody(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

func (rt *Router) defaultScaleDiv() int {
	if rt.cfg.DefaultScaleDiv > 0 {
		return rt.cfg.DefaultScaleDiv
	}
	return 1
}

// handleSweep serves a sweep through the instances' sweep driver
// (serve.Sweep), so grid bounds, resume cursors, per-group failures
// and the done line are exactly a single instance's. The router's
// part is the per-group callback: it forwards each group as a
// single-group sub-sweep to the owner of its cell key and relays the
// cell lines. All remaining groups run at once; the replicas' own
// admission control and compute semaphores bound the real work.
func (rt *Router) handleSweep(w http.ResponseWriter, r *http.Request) {
	sp := obs.Start(r.Context(), "route")
	var req serve.SweepRequest
	if _, ok := serve.ReadRequest(w, r, &req); !ok {
		sp.End()
		return
	}
	sw, status, err := serve.NewSweep(req, rt.cfg.DefaultScaleDiv, rt.cfg.MaxCells)
	sp.End()
	if err != nil {
		serve.ErrorBody(w, status, "%v", err)
		return
	}
	rt.sweepSplit.Add(uint64(sw.Remaining()))
	sw.Stream(r.Context(), w, sw.Remaining(), func(ctx context.Context, g serve.SweepGroup) ([][]byte, error) {
		sub, _ := json.Marshal(serve.SweepRequest{
			Workloads: []string{g.Workload},
			Variants:  []string{g.Variant},
			Machines:  req.Machines,
			ScaleDiv:  g.ScaleDiv,
		})
		// Route by the CELL key, not the full group key (which
		// includes the machine list): a sweep group and a /v1/run of
		// the same (workload, variant, scalediv) must land on the
		// same replica, so they share one dispatch trace and one
		// in-flight recording instead of racing to simulate it on
		// two instances.
		return rt.forwardSweepGroup(ctx, r, CellKey(g.Workload, g.Variant, g.ScaleDiv), sub)
	})
}

// forwardSweepGroup runs one group's sub-sweep against the owner
// (retrying along the ring on failure) and returns the relayable
// lines: cell and error lines verbatim, sub-stream cursor and done
// lines dropped. A sub-sweep whose own done line reports errors is
// retried on the next replica too — a replica that answered but could
// not compute (e.g. mid-drain cancellation) should not burn the
// group's only attempt.
func (rt *Router) forwardSweepGroup(ctx context.Context, r *http.Request, key string, body []byte) ([][]byte, error) {
	var lines [][]byte
	_, err := rt.forward(ctx, r, key, http.MethodPost, "/v1/sweep", body, func(u *upstream) error {
		if u.status != http.StatusOK {
			return refused(u)
		}
		ls, errCount, err := parseSweepBody(u.body)
		if err != nil {
			return fmt.Errorf("%s: %v", u.instance, err)
		}
		if errCount > 0 {
			return fmt.Errorf("%s: %d cells errored", u.instance, errCount)
		}
		lines = ls
		return nil
	})
	switch {
	case err == nil:
		return lines, nil
	case ctx.Err() != nil:
		return nil, context.Cause(ctx)
	}
	return nil, fmt.Errorf("no instance completed group: %v", err)
}

// parseSweepBody splits a buffered sub-sweep NDJSON body into
// relayable lines, dropping cursor and done lines and counting
// reported cell errors. The done line must be present — a missing
// summary means the sub-stream was cut off and the group must be
// retried, not relayed half-finished.
func parseSweepBody(body []byte) (lines [][]byte, errCount int, err error) {
	sawDone := false
	for _, raw := range bytes.Split(body, []byte{'\n'}) {
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var line serve.SweepLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return nil, 0, fmt.Errorf("undecodable sweep line: %v", err)
		}
		if line.Done {
			sawDone = true
			errCount = line.Errors
			continue
		}
		if line.Cursor != "" {
			continue
		}
		lines = append(lines, raw)
	}
	if !sawDone {
		return nil, 0, fmt.Errorf("sub-sweep stream truncated")
	}
	return lines, errCount, nil
}
