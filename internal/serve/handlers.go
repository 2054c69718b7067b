package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"time"

	"vmopt/internal/disptrace"
	"vmopt/internal/metrics"
	"vmopt/internal/obs"
	"vmopt/internal/runner"
)

// Handler returns the server's HTTP routing table. Every /v1 endpoint
// runs under the observability middleware (request counter, trace,
// X-Request-ID, Server-Timing, latency histogram, access log);
// /metrics and /debug/requests deliberately do not, so scraping never
// perturbs the request counters it reports.
func (s *Server) Handler() http.Handler {
	st := &s.stats
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.instrument("run", st.reqRun, st.latRun, false, s.handleRun))
	mux.HandleFunc("POST /v1/sweep", s.instrument("sweep", st.reqSweep, st.latSweep, true, s.handleSweep))
	mux.HandleFunc("POST /v1/diff", s.instrument("diff", st.reqDiff, st.latDiff, false, s.handleDiff))
	mux.HandleFunc("GET /v1/traces", s.instrument("traces", st.reqTraces, st.latTraces, false, s.handleTraceList))
	mux.HandleFunc("GET /v1/traces/{id}", s.instrument("traces", st.reqTraces, st.latTraces, false, s.handleTraceInfo))
	// The raw-bytes endpoint is the peer-serving side of the cluster's
	// cache-fill protocol. Like /metrics it is uninstrumented: peers
	// fetching fills must not perturb the request counters vmload
	// cross-checks against client-side op counts.
	mux.HandleFunc("GET /v1/traces/{id}/raw", s.handleTraceRaw)
	mux.Handle("GET /metrics", s.MetricsHandler())
	mux.Handle("GET /debug/requests", s.recorder.Handler())
	mux.HandleFunc("GET /healthz", Healthz)
	mux.HandleFunc("GET /readyz", Readyz(s.Ready))
	if s.cfg.InstanceID == "" {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Served-By", s.cfg.InstanceID)
		mux.ServeHTTP(w, r)
	})
}

// Healthz is liveness: 200 as long as the process can answer HTTP at
// all. Readiness (Readyz) is the probe that flips during drain;
// liveness never does — restarting a process because it is draining
// would defeat the drain. Instances and the cluster router both serve
// it.
func Healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"ok":true}`)
}

// Readyz returns the readiness probe: 200 while ready reports true,
// 503 with Retry-After once drain has begun (SetReady(false) at
// SIGTERM, before listeners close), so routers and load balancers
// steer traffic away instead of eating connection resets.
func Readyz(ready func() bool) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if !ready() {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"ready":false}`)
			return
		}
		fmt.Fprintln(w, `{"ready":true}`)
	}
}

// MetricsHandler serves the registry in Prometheus text exposition
// format 0.0.4 — GET /metrics.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", metrics.TextContentType)
		s.stats.reg.WritePrometheus(w)
	})
}

// DebugHandler returns the surface cmd/vmserved binds to its separate
// -debug-addr listener: pprof, the metric exposition and the recent/
// slowest request traces. Kept off the public handler so profiling
// endpoints are only reachable where the operator points them.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/requests", s.recorder.Handler())
	mux.Handle("/metrics", s.MetricsHandler())
	mux.HandleFunc("GET /healthz", Healthz)
	mux.HandleFunc("GET /readyz", Readyz(s.Ready))
	return mux
}

// maxRequestBytes bounds run/sweep/diff request bodies. The largest
// legitimate request is a sweep naming every workload, variant and
// machine — well under a kilobyte — so a megabyte leaves generous
// headroom while keeping admission control ahead of body buffering.
const maxRequestBytes = 1 << 20

// ReadRequest reads a JSON request body of at most maxRequestBytes
// into v and returns its raw bytes, which the cluster router forwards.
// Data after the JSON value is rejected. On failure it answers 400 and
// returns false. Instances and the router both read run, sweep and
// diff bodies through it, so a malformed body gets the same answer
// from either tier.
func ReadRequest(w http.ResponseWriter, r *http.Request, v any) ([]byte, bool) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		ErrorBody(w, http.StatusBadRequest, "reading request: %v", err)
		return nil, false
	}
	if err := json.Unmarshal(b, v); err != nil {
		ErrorBody(w, http.StatusBadRequest, "parsing request: %v", err)
		return nil, false
	}
	return b, true
}

// ErrorBody writes a JSON error document with the given status. Every
// 503 either tier emits carries Retry-After, so retrying clients never
// need to guess a backoff floor.
func ErrorBody(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// admit applies backpressure: it reserves an in-flight slot or
// rejects the request with 503. The returned release must be called
// exactly once when admission succeeded.
func (s *Server) admit(w http.ResponseWriter) (release func(), ok bool) {
	if n := s.stats.inFlight.Add(1); int(n) > s.cfg.maxInFlight() {
		s.stats.inFlight.Add(-1)
		s.stats.rejected.Add(1)
		ErrorBody(w, http.StatusServiceUnavailable, "server at capacity (%d requests in flight)", s.cfg.maxInFlight())
		return nil, false
	}
	return func() { s.stats.inFlight.Add(-1) }, true
}

// requestCtx ties a computation to both the client connection and the
// server lifecycle: whichever cancels first stops the grid.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// failStatus maps a computation error to an HTTP status.
func failStatus(err error) int {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away or the server is shutting down; 503
		// tells well-behaved retrying clients to come back.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// failRequest writes the failure document for a post-admission
// computation error. A request that exhausted its server-side
// deadline budget gets 504 with a machine-readable body (timeout flag
// plus the budget, so clients can distinguish "raise my deadline"
// from "server is sick"); cancellation and shutdown get 503 with
// Retry-After — every 503 this server emits carries the header, so
// retrying clients never need to guess a backoff floor.
func (s *Server) failRequest(w http.ResponseWriter, ctx context.Context, err error, deadline time.Duration) {
	s.stats.errors.Add(1)
	if isDeadline(ctx, err) {
		s.stats.deadlineTimeouts.Add(1)
		obs.FromContext(ctx).SetOutcome(obs.OutcomeTimeout)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGatewayTimeout)
		json.NewEncoder(w).Encode(map[string]any{
			"error":       ErrDeadline.Error(),
			"timeout":     true,
			"deadline_ms": deadline.Milliseconds(),
		})
		return
	}
	ErrorBody(w, failStatus(err), "%v", err)
}

// writeJSON marshals the response body before touching the writer —
// the "encode" stage — then writes it in one shot, so the
// Server-Timing header stamped at WriteHeader already accounts for
// encoding.
func writeJSON(w http.ResponseWriter, ctx context.Context, v any) {
	sp := obs.Start(ctx, "encode")
	body, err := json.Marshal(v)
	sp.End()
	if err != nil {
		ErrorBody(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	sp := obs.Start(r.Context(), "parse")
	var req RunRequest
	if _, ok := ReadRequest(w, r, &req); !ok {
		sp.End()
		s.stats.errors.Add(1)
		return
	}
	scaleDiv := req.ScaleDiv
	if scaleDiv <= 0 {
		scaleDiv = s.cfg.defaultScaleDiv()
	}
	g, err := resolveCell(req, scaleDiv)
	sp.End()
	if err != nil {
		s.stats.errors.Add(1)
		ErrorBody(w, http.StatusBadRequest, "%v", err)
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	ctx, cancelD := deadlineCtx(ctx, s.cfg.RunDeadline)
	defer cancelD()

	res, src, err := s.runGroup(ctx, g)
	if err != nil {
		s.failRequest(w, ctx, err, s.cfg.RunDeadline)
		return
	}
	if src == fromFlight {
		s.stats.coalescedRuns.Add(1)
	}
	rc := g.cells[0]
	run := runner.NewRun(rc.cell.workload, rc.cell.variant, rc.cell.machine, s.scaleOf(rc), res[rc.cell.machine])
	writeJSON(w, ctx, run)
}

// handleSweep serves POST /v1/sweep through the sweep driver (Sweep):
// the instance's part is admission, the deadline, its stats and the
// per-group callback, which computes the group with runGroup.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	sp := obs.Start(r.Context(), "parse")
	var req SweepRequest
	if _, ok := ReadRequest(w, r, &req); !ok {
		sp.End()
		s.stats.errors.Add(1)
		return
	}
	sw, status, err := NewSweep(req, s.cfg.DefaultScaleDiv, s.cfg.MaxCells)
	sp.End()
	if err != nil {
		s.stats.errors.Add(1)
		ErrorBody(w, status, "%v", err)
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	ctx, cancelD := deadlineCtx(ctx, s.cfg.SweepDeadline)
	defer cancelD()

	if req.Resume != "" {
		s.stats.sweepResumes.Add(1)
	}
	errCells := sw.Stream(ctx, w, s.cfg.Jobs, func(ctx context.Context, sg SweepGroup) ([][]byte, error) {
		res, src, err := s.runGroup(ctx, sg.g)
		if err != nil {
			return nil, err
		}
		switch src {
		case fromFlight:
			s.stats.coalescedGroups.Add(1)
		case fromCompute:
			s.stats.computedGroups.Add(1)
		}
		lines := make([][]byte, len(sg.g.cells))
		for i, rc := range sg.g.cells {
			run := runner.NewRun(rc.cell.workload, rc.cell.variant, rc.cell.machine,
				s.scaleOf(rc), res[rc.cell.machine])
			if lines[i], err = json.Marshal(SweepLine{Run: &run}); err != nil {
				return nil, err
			}
		}
		return lines, nil
	})
	if errCells > 0 {
		s.stats.errors.Add(1)
	}
	// A sweep that ran out of its budget mid-stream cannot 504 (the
	// header is long gone) — the skipped groups carry per-cell
	// deadline errors instead — but it still counts as a timeout and
	// reports as one in /debug/requests.
	if isDeadline(ctx, nil) {
		s.stats.deadlineTimeouts.Add(1)
		obs.FromContext(ctx).SetOutcome(obs.OutcomeTimeout)
	}
}

// handleDiff serves POST /v1/diff: an instruction-aligned comparison
// of two traces resident in the disk cache. Identical concurrent
// requests coalesce onto one computation and share its marshaled
// body, so duplicates are byte-identical.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Traces == nil {
		ErrorBody(w, http.StatusNotFound, "no trace cache configured")
		return
	}
	sp := obs.Start(r.Context(), "parse")
	var req DiffRequest
	if _, ok := ReadRequest(w, r, &req); !ok {
		sp.End()
		s.stats.errors.Add(1)
		return
	}
	sp.End()
	if !disptrace.ValidID(req.A) || !disptrace.ValidID(req.B) {
		s.stats.errors.Add(1)
		ErrorBody(w, http.StatusBadRequest, "a and b must be trace content addresses (see GET /v1/traces)")
		return
	}
	n := req.N
	if n <= 0 {
		n = DefaultDiffDetail
	}
	if n > MaxDiffDetail {
		n = MaxDiffDetail
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	ctx, cancelD := deadlineCtx(ctx, s.cfg.DiffDeadline)
	defer cancelD()

	body, joined, err := s.runDiff(ctx, diffKey{a: req.A, b: req.B, n: n})
	if joined && err == nil {
		s.stats.coalescedDiffs.Add(1)
	}
	if err != nil {
		switch {
		case errors.Is(err, disptrace.ErrNoTrace):
			s.stats.errors.Add(1)
			ErrorBody(w, http.StatusNotFound, "%v", err)
		case errors.Is(err, disptrace.ErrMismatched):
			s.stats.errors.Add(1)
			ErrorBody(w, http.StatusBadRequest, "%v", err)
		default:
			s.failRequest(w, ctx, err, s.cfg.DiffDeadline)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Traces == nil {
		ErrorBody(w, http.StatusNotFound, "no trace cache configured")
		return
	}
	sp := obs.Start(r.Context(), "trace_load")
	entries, err := s.cfg.Traces.List()
	sp.End()
	if err != nil {
		s.stats.errors.Add(1)
		ErrorBody(w, http.StatusInternalServerError, "reading trace cache: %v", err)
		return
	}
	list := TraceList{Count: len(entries), Traces: entries}
	if list.Traces == nil {
		list.Traces = []disptrace.CacheEntry{}
	}
	writeJSON(w, r.Context(), list)
}

func (s *Server) handleTraceInfo(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Traces == nil {
		ErrorBody(w, http.StatusNotFound, "no trace cache configured")
		return
	}
	id := r.PathValue("id")
	sp := obs.Start(r.Context(), "trace_load")
	m, size, err := s.cfg.Traces.MetaID(id)
	sp.End()
	if errors.Is(err, disptrace.ErrNoTrace) {
		ErrorBody(w, http.StatusNotFound, "no trace %s", id)
		return
	} else if err != nil {
		s.stats.errors.Add(1)
		ErrorBody(w, http.StatusInternalServerError, "%v", err)
		return
	}
	h := m.Header
	info := TraceInfo{
		ID: id, FileBytes: size,
		Workload: h.Workload, Lang: h.Lang, Variant: h.Variant, Technique: h.Technique,
		Scale: h.Scale, ScaleDiv: h.ScaleDiv, MaxSteps: h.MaxSteps,
		Dispatches: h.Dispatches, VMInsts: h.VMInstructions,
		DictSteps: m.DictSteps, StoredBytes: m.StreamStoredBytes, RawBytes: m.StreamRawBytes,
	}
	writeJSON(w, r.Context(), info)
}

// handleTraceRaw serves the stored bytes of one cached trace file —
// what a peer instance fetches to fill its own miss. It reads only
// what is locally resident (ReadRaw never recurses into the fill
// hook, so two instances missing the same key cannot chase each
// other) and the requesting peer verifies the payload against the
// content address.
func (s *Server) handleTraceRaw(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Traces == nil {
		ErrorBody(w, http.StatusNotFound, "no trace cache configured")
		return
	}
	id := r.PathValue("id")
	b, err := s.cfg.Traces.ReadRaw(id)
	if errors.Is(err, disptrace.ErrNoTrace) {
		ErrorBody(w, http.StatusNotFound, "no trace %s", id)
		return
	} else if err != nil {
		s.stats.errors.Add(1)
		ErrorBody(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(b)
}
