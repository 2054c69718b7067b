package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"
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
	mux.HandleFunc("GET /v1/stats", s.instrument("stats", st.reqStats, st.latStats, false, s.handleStats))
	mux.Handle("GET /metrics", s.MetricsHandler())
	mux.Handle("GET /debug/requests", s.recorder.Handler())
	mux.HandleFunc("GET /healthz", handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.cfg.InstanceID == "" {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Served-By", s.cfg.InstanceID)
		mux.ServeHTTP(w, r)
	})
}

// handleHealthz is liveness: 200 as long as the process can answer
// HTTP at all. Readiness (handleReadyz) is the probe that flips
// during drain; liveness never does — restarting an instance because
// it is draining would defeat the drain.
func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"ok":true}`)
}

// handleReadyz is readiness: 200 while the instance accepts work, 503
// once drain has begun (SetReady(false) at SIGTERM, before listeners
// close), so routers and load balancers steer traffic away instead of
// eating connection resets.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if !s.Ready() {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"ready":false}`)
		return
	}
	fmt.Fprintln(w, `{"ready":true}`)
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
	mux.HandleFunc("GET /healthz", handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// maxRequestBytes bounds run/sweep request bodies. The largest
// legitimate request is a sweep naming every workload, variant and
// machine — well under a kilobyte — so a megabyte leaves generous
// headroom while keeping admission control ahead of body buffering
// (an unbounded json.Decoder would buffer an arbitrarily large value
// before MaxCells or MaxInFlight were ever consulted).
const maxRequestBytes = 1 << 20

// errorBody writes a JSON error document with the given status.
func errorBody(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
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
		w.Header().Set("Retry-After", "1")
		errorBody(w, http.StatusServiceUnavailable, "server at capacity (%d requests in flight)", s.cfg.maxInFlight())
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
	status := failStatus(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	errorBody(w, status, "%v", err)
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
		errorBody(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	sp := obs.Start(r.Context(), "parse")
	var req RunRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		sp.End()
		s.stats.errors.Add(1)
		errorBody(w, http.StatusBadRequest, "parsing request: %v", err)
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
		errorBody(w, http.StatusBadRequest, "%v", err)
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

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	sp := obs.Start(r.Context(), "parse")
	var req SweepRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		sp.End()
		s.stats.errors.Add(1)
		errorBody(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	scaleDiv := req.ScaleDiv
	if scaleDiv <= 0 {
		scaleDiv = s.cfg.defaultScaleDiv()
	}
	groups, err := resolveSweep(req, scaleDiv)
	sp.End()
	if err != nil {
		s.stats.errors.Add(1)
		errorBody(w, http.StatusBadRequest, "%v", err)
		return
	}
	cells := 0
	for _, g := range groups {
		cells += len(g.cells)
	}
	if max := s.cfg.maxCells(); cells > max {
		s.stats.errors.Add(1)
		errorBody(w, http.StatusRequestEntityTooLarge, "sweep resolves to %d cells (limit %d)", cells, max)
		return
	}
	grid := gridHash(groups)
	var preDone []int
	if req.Resume != "" {
		preDone, err = DecodeSweepCursor(req.Resume, grid, len(groups))
		if err != nil {
			s.stats.errors.Add(1)
			errorBody(w, http.StatusBadRequest, "%v", err)
			return
		}
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

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	var wmu sync.Mutex
	enc := json.NewEncoder(w)
	writeLine := func(line SweepLine) {
		wmu.Lock()
		defer wmu.Unlock()
		enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}

	// A resume cursor marks groups a previous response already
	// delivered; they are skipped entirely. Only the remaining grid
	// is dispatched, and cursors stay cumulative over the whole grid
	// so the client can lose this stream too and resume again.
	doneIdx := make([]bool, len(groups))
	skippedCells := 0
	for _, i := range preDone {
		doneIdx[i] = true
		skippedCells += len(groups[i].cells)
	}
	if req.Resume != "" {
		s.stats.sweepResumes.Add(1)
	}
	todo := make([]int, 0, len(groups))
	for i := range groups {
		if !doneIdx[i] {
			todo = append(todo, i)
		}
	}

	// One pool job per group: groups stream out as they complete
	// while Suite.Compute shares each group's trace decode
	// internally. Failures are per-group — every cell of a failed
	// group reports the error, and failed groups stay out of the
	// cursor so a resume retries them — and never abort the remaining
	// groups. processed records which groups the closure actually
	// handled: runner.Map skips jobs it never dispatches after a
	// cancellation without invoking the closure, and those groups
	// still owe the client error lines and an honest errors count.
	errCells := 0
	var emu sync.Mutex
	failGroup := func(g group, err error) {
		emu.Lock()
		errCells += len(g.cells)
		emu.Unlock()
		for _, rc := range g.cells {
			writeLine(SweepLine{
				Workload: rc.cell.workload, Variant: rc.cell.variant,
				Machine: rc.cell.machine, Error: err.Error(),
			})
		}
	}
	// markDone admits a group into the cursor and renders the token
	// under the same lock, so every emitted cursor is a consistent
	// prefix of completion history (a token containing group G is
	// always written after G's cells).
	markDone := func(gi int) string {
		emu.Lock()
		defer emu.Unlock()
		doneIdx[gi] = true
		return EncodeSweepCursor(grid, doneIdx)
	}
	processed := make([]bool, len(todo))
	_, _ = runner.Map(ctx, len(todo), runner.Options{Jobs: s.cfg.Jobs},
		func(ctx context.Context, ti int) (struct{}, error) {
			processed[ti] = true
			g := groups[todo[ti]]
			res, src, err := s.runGroup(ctx, g)
			if err != nil {
				failGroup(g, err)
				return struct{}{}, nil
			}
			switch src {
			case fromFlight:
				s.stats.coalescedGroups.Add(1)
			case fromCompute:
				s.stats.computedGroups.Add(1)
			}
			for _, rc := range g.cells {
				run := runner.NewRun(rc.cell.workload, rc.cell.variant, rc.cell.machine,
					s.scaleOf(rc), res[rc.cell.machine])
				writeLine(SweepLine{Run: &run})
			}
			writeLine(SweepLine{Cursor: markDone(todo[ti])})
			return struct{}{}, nil
		})
	for ti, gi := range todo {
		if !processed[ti] {
			failGroup(groups[gi], fmt.Errorf("skipped: %w", context.Cause(ctx)))
		}
	}
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
	writeLine(SweepLine{Done: true, Cells: cells - skippedCells, Groups: len(todo),
		Errors: errCells, Skipped: len(preDone)})
}

// handleDiff serves POST /v1/diff: an instruction-aligned comparison
// of two traces resident in the disk cache. Identical concurrent
// requests coalesce onto one computation and share its marshaled
// body, so duplicates are byte-identical.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Traces == nil {
		errorBody(w, http.StatusNotFound, "no trace cache configured")
		return
	}
	sp := obs.Start(r.Context(), "parse")
	var req DiffRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		sp.End()
		s.stats.errors.Add(1)
		errorBody(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	sp.End()
	if !disptrace.ValidID(req.A) || !disptrace.ValidID(req.B) {
		s.stats.errors.Add(1)
		errorBody(w, http.StatusBadRequest, "a and b must be trace content addresses (see GET /v1/traces)")
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
			errorBody(w, http.StatusNotFound, "%v", err)
		case errors.Is(err, disptrace.ErrMismatched):
			s.stats.errors.Add(1)
			errorBody(w, http.StatusBadRequest, "%v", err)
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
		errorBody(w, http.StatusNotFound, "no trace cache configured")
		return
	}
	sp := obs.Start(r.Context(), "trace_load")
	entries, err := s.cfg.Traces.List()
	sp.End()
	if err != nil {
		s.stats.errors.Add(1)
		errorBody(w, http.StatusInternalServerError, "reading trace cache: %v", err)
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
		errorBody(w, http.StatusNotFound, "no trace cache configured")
		return
	}
	id := r.PathValue("id")
	sp := obs.Start(r.Context(), "trace_load")
	m, size, err := s.cfg.Traces.MetaID(id)
	sp.End()
	if errors.Is(err, disptrace.ErrNoTrace) {
		errorBody(w, http.StatusNotFound, "no trace %s", id)
		return
	} else if err != nil {
		s.stats.errors.Add(1)
		errorBody(w, http.StatusInternalServerError, "%v", err)
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
// hooks, so two instances missing the same key cannot chase each
// other) and the requesting peer verifies the payload against the
// content address.
func (s *Server) handleTraceRaw(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Traces == nil {
		errorBody(w, http.StatusNotFound, "no trace cache configured")
		return
	}
	id := r.PathValue("id")
	b, err := s.cfg.Traces.ReadRaw(id)
	if errors.Is(err, disptrace.ErrNoTrace) {
		errorBody(w, http.StatusNotFound, "no trace %s", id)
		return
	} else if err != nil {
		s.stats.errors.Add(1)
		errorBody(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(b)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	sp := obs.Start(r.Context(), "encode")
	body, err := json.MarshalIndent(s.stats.snapshot(s), "", "  ")
	sp.End()
	if err != nil {
		errorBody(w, http.StatusInternalServerError, "encoding stats: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}
