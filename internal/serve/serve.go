// Package serve exposes the whole experiment surface of the
// reproduction as a concurrent HTTP/JSON service: any (workload,
// variant, machine, scale) cell of the paper's evaluation — and any
// grid of cells — on demand, at production request rates.
//
// The endpoints (see cmd/vmserved):
//
//	POST /v1/run        one cell; returns a runner.Run JSON document
//	POST /v1/sweep      a grid of cells; streams NDJSON results
//	POST /v1/diff       instruction-aligned comparison of two cached traces
//	GET  /v1/traces     index of the on-disk dispatch-trace cache
//	GET  /v1/traces/{id}  metadata of one cached trace
//	GET  /metrics       every server counter, Prometheus text format
//	GET  /healthz       liveness
//
// A served cell has one memo and one coalescing point:
//
//  1. A bounded in-memory LRU (runner.LRU) of finished
//     metrics.Counters, keyed by cell. Hits cost a map lookup.
//  2. One group flight (runner.Flight) per (workload, variant,
//     scalediv, machine set). /v1/run is a group of one cell, so a run
//     and a one-machine sweep of the same cell share a flight, and a
//     thundering herd costs one computation with every caller
//     receiving byte-identical results (simulation is deterministic,
//     so coalesced and direct results cannot differ).
//
// A group that misses the LRU is computed by harness.Suite.Compute,
// which loads the (workload, variant, scale) dispatch trace down the
// ladder memory → disk (both in disptrace.Cache) → peer fill →
// simulate, and replays it into every machine of the group in one
// pass. Per-scalediv suites hold only what is expensive to rebuild
// and never a result: the trained static instruction sets.
//
// Admission control returns 503 once the configured number of
// requests is in flight, and each request's grid runs under that
// request's context, so a dropped client stops consuming the worker
// pool at the next cell boundary.
//
// The resumable sweep protocol has one driver, Sweep, which both tiers
// call: it resolves the grid, bounds it, validates the resume cursor
// and streams the cell, cursor, error and done lines. Each tier
// supplies one callback per group: an instance computes the group with
// runGroup; the cluster router (internal/cluster) forwards it to the
// group's owner. ReadRequest, ErrorBody, Healthz and Readyz are the
// other pieces the router shares, so a router answers malformed
// requests and probes exactly as an instance does.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/faults"
	"vmopt/internal/harness"
	"vmopt/internal/metrics"
	"vmopt/internal/obs"
	"vmopt/internal/runner"
)

// Config parameterizes a Server. The zero value serves with sensible
// defaults and no disk trace cache.
type Config struct {
	// Traces, when non-nil, is the shared on-disk dispatch-trace cache
	// every suite records into and replays from.
	Traces *disptrace.Cache
	// CacheSize bounds the in-memory result LRU (entries); <= 0 means
	// DefaultCacheSize.
	CacheSize int
	// Jobs is the per-suite worker-pool parallelism (<= 0 means
	// GOMAXPROCS).
	Jobs int
	// MaxInFlight bounds concurrently executing /v1/run and /v1/sweep
	// requests; further requests are rejected with 503 until capacity
	// frees. <= 0 means DefaultMaxInFlight.
	MaxInFlight int
	// MaxCells bounds the grid size of one sweep request; <= 0 means
	// DefaultMaxCells.
	MaxCells int
	// DefaultScaleDiv applies when a request omits scalediv; <= 0
	// means 1 (full scale).
	DefaultScaleDiv int
	// MaxSteps bounds each simulated run; 0 means the harness
	// default.
	MaxSteps uint64
	// RunDeadline, SweepDeadline and DiffDeadline bound how long one
	// admitted request of each kind may run server-side. A request
	// that exhausts its budget gets 504 with a machine-readable body
	// (or, mid-stream, per-cell deadline error lines) and its
	// computation is cancelled at the next cell boundary, releasing
	// the in-flight slot. 0 means no server-side deadline.
	RunDeadline   time.Duration
	SweepDeadline time.Duration
	DiffDeadline  time.Duration
	// Faults optionally injects failures at the serve.handler site
	// (stalls, forced 503s before any work) and the serve.compute
	// site (stalls and errors inside the compute path). nil injects
	// nothing. The trace cache's own injector is configured on
	// Traces.Faults.
	Faults *faults.Injector
	// AccessLog, when non-nil, receives one structured record per
	// instrumented request: request ID, endpoint, status, cache
	// outcome and latency.
	AccessLog *slog.Logger
	// InstanceID names this instance in a cluster: echoed on every
	// response as X-Served-By and exported as the
	// vmserved_instance_info gauge. Empty disables both.
	InstanceID string
}

// Defaults for Config fields left zero.
const (
	DefaultCacheSize   = 4096
	DefaultMaxInFlight = 64
	DefaultMaxCells    = 4096
	// maxSuites bounds the live per-scalediv suites: scalediv comes
	// from the request, so the pool must stay bounded.
	maxSuites = 4
)

func (c Config) cacheSize() int {
	if c.CacheSize > 0 {
		return c.CacheSize
	}
	return DefaultCacheSize
}

func (c Config) maxInFlight() int {
	if c.MaxInFlight > 0 {
		return c.MaxInFlight
	}
	return DefaultMaxInFlight
}

func (c Config) defaultScaleDiv() int {
	if c.DefaultScaleDiv > 0 {
		return c.DefaultScaleDiv
	}
	return 1
}

// Server is the simulation-as-a-service engine: tiered caches,
// request coalescing and the suite pool behind the HTTP handlers.
type Server struct {
	cfg Config

	// baseCtx parents every computation; Close cancels it so worker
	// pools stop dispatching during shutdown.
	baseCtx context.Context
	cancel  context.CancelFunc

	lru *runner.LRU[cell, metrics.Counters]

	// computeSem bounds concurrently computing cells/groups across
	// the whole server. Per-request grids each spawn their own suite
	// worker pool; without a server-wide bound, MaxInFlight distinct
	// requests would run MaxInFlight x Jobs simulation goroutines and
	// thrash the scheduler instead of queueing. Cached and coalesced
	// work never touches the semaphore.
	computeSem chan struct{}

	// groupFlight is the one coalescing point of run and sweep
	// computation, keyed by group.key.
	groupFlight runner.Flight[string, map[string]metrics.Counters]
	// diffFlight coalesces identical concurrent /v1/diff requests on
	// the marshaled response body, so duplicates are byte-identical by
	// construction.
	diffFlight runner.Flight[diffKey, []byte]

	// mu makes suiteFor's get-or-create atomic; the LRU itself is
	// already concurrency-safe and owns recency eviction.
	mu     sync.Mutex
	suites *runner.LRU[int, *harness.Suite]

	stats stats

	// recorder retains finished request traces for /debug/requests.
	recorder *obs.Recorder

	// notReady flips at the start of graceful shutdown (before
	// listeners close), turning GET /readyz into 503 so a router or LB
	// drains this instance instead of eating connection resets. The
	// zero value is ready — inverted so a fresh Server needs no
	// initialization to pass its first probe.
	notReady atomic.Bool
}

// SetReady flips the /readyz probe. cmd/vmserved calls SetReady(false)
// on SIGTERM, then waits the drain grace before closing listeners.
func (s *Server) SetReady(ready bool) { s.notReady.Store(!ready) }

// Ready reports the current /readyz state.
func (s *Server) Ready() bool { return !s.notReady.Load() }

// New builds a Server from the config.
func New(cfg Config) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:        cfg,
		baseCtx:    ctx,
		cancel:     cancel,
		lru:        runner.NewLRU[cell, metrics.Counters](cfg.cacheSize()),
		computeSem: make(chan struct{}, jobs),
		suites:     runner.NewLRU[int, *harness.Suite](maxSuites),
		recorder:   obs.NewRecorder(0, 0),
	}
	s.stats.init(s)
	return s
}

// Registry exposes the server's metric registry — what GET /metrics
// renders and what cmd/vmserved hands to its debug listener.
func (s *Server) Registry() *metrics.Registry { return s.stats.reg }

// ErrDeadline marks a request that exhausted its server-side deadline
// budget. It is installed as the cancellation cause by deadlineCtx,
// so the failure path can tell a server-imposed timeout (504) from a
// client disconnect or shutdown (503) — both surface as context
// errors from the compute path.
var ErrDeadline = errors.New("request deadline exceeded")

// deadlineCtx applies one endpoint's server-side budget to an
// admitted request's context. d <= 0 means no deadline.
func deadlineCtx(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeoutCause(ctx, d, ErrDeadline)
}

// isDeadline reports whether a computation failed because the
// request's server-side budget ran out (rather than a client
// cancel): the sentinel travels either in the error chain (paths that
// propagate context.Cause) or as the context's recorded cause.
func isDeadline(ctx context.Context, err error) bool {
	return errors.Is(err, ErrDeadline) || errors.Is(context.Cause(ctx), ErrDeadline)
}

// acquireCompute takes one computation slot, honoring cancellation
// while queued. The returned release must be called when compute is
// done.
func (s *Server) acquireCompute(ctx context.Context) (release func(), err error) {
	// An already-expired context must lose even when a semaphore slot
	// is free (select picks randomly among ready cases): a request
	// whose deadline lapsed during an injected stall or while queued
	// behind the flight must not start computing.
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	select {
	case s.computeSem <- struct{}{}:
		return func() { <-s.computeSem }, nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

// Close cancels every in-flight computation's base context. In-flight
// grids stop dispatching new cells; already-running simulations finish.
func (s *Server) Close() { s.cancel() }

// suiteFor returns the shared suite for a scale divisor, creating it
// on first use; the suite LRU evicts the least recently used suite
// beyond maxSuites (in-flight users keep their reference; the evicted
// suite's trained sets simply stop being shared).
func (s *Server) suiteFor(scaleDiv int) *harness.Suite {
	s.mu.Lock()
	defer s.mu.Unlock()
	if suite, ok := s.suites.Get(scaleDiv); ok {
		return suite
	}
	suite := harness.NewSuite()
	suite.ScaleDiv = scaleDiv
	suite.Jobs = s.cfg.Jobs
	suite.Ctx = s.baseCtx
	suite.Traces = s.cfg.Traces
	if s.cfg.MaxSteps > 0 {
		suite.MaxSteps = s.cfg.MaxSteps
	}
	s.suites.Add(scaleDiv, suite)
	return suite
}

// coalesce runs compute at most once per concurrently requested key.
// Joins are cancellable (a dropped duplicate client releases its
// handler immediately; the leader runs to completion for whoever is
// left). When a cancelled leader poisons the shared outcome while
// this caller's own context is still live, the call retries and
// becomes (or joins) a fresh leader, so one dropped client never
// fails the herd that coalesced behind it.
func coalesce[K comparable, V any](ctx context.Context, f *runner.Flight[K, V], st *stats, key K, compute func() (V, error)) (v V, joined bool, err error) {
	for {
		v, leader, err := f.DoCtx(ctx, key, compute)
		if err != nil && !leader && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			st.canceledRetries.Add(1)
			continue
		}
		return v, !leader, err
	}
}

// source is how runGroup obtained a group's cells; each handler turns
// it into its own endpoint's coalesced/computed counters.
type source int

const (
	fromLRU     source = iota // every cell was resident in the LRU
	fromFlight                // joined another request's computation
	fromCompute               // led the computation
)

// lookup collects the group's cells resident in the LRU, by machine.
func (s *Server) lookup(g group) map[string]metrics.Counters {
	out := make(map[string]metrics.Counters, len(g.cells))
	for _, rc := range g.cells {
		if c, ok := s.lru.Get(rc.cell); ok {
			out[rc.cell.machine] = c
		}
	}
	return out
}

// runGroup produces every cell of one group — a /v1/run is a group of
// one cell. Cells all resident in the LRU are served from it;
// otherwise the whole group is computed behind one coalesced flight,
// sharing a single trace load and replay pass across its machines via
// Suite.Compute.
func (s *Server) runGroup(ctx context.Context, g group) (map[string]metrics.Counters, source, error) {
	tr := obs.FromContext(ctx)
	out := s.lookup(g)
	hits := len(out)
	// Hit accounting is per lookup, not per group: a group with one
	// evicted cell still credits its resident cells, so
	// vmserved_cache_hits_total reflects how much of the traffic the
	// LRU actually absorbed.
	s.stats.lruHits.Add(uint64(hits))
	s.stats.lruMisses.Add(uint64(len(g.cells) - hits))
	if hits == len(g.cells) {
		tr.SetOutcome(obs.OutcomeHit)
		return out, fromLRU, nil
	}

	src := fromLRU // unless this caller leads a computation or joins one
	flightStart := time.Now()
	res, joined, err := coalesce(ctx, &s.groupFlight, &s.stats, g.key, func() (map[string]metrics.Counters, error) {
		// Re-check: a previous leader may have published every cell
		// between this caller's scan and its flight entry; don't
		// recompute what the LRU already holds. The lookups the scan
		// missed are credited as hits, so hits and coalesced joins
		// cover every duplicate however the race lands.
		if m := s.lookup(g); len(m) == len(g.cells) {
			s.stats.lruHits.Add(uint64(len(g.cells) - hits))
			tr.SetOutcome(obs.OutcomeHit)
			return m, nil
		}
		s.cfg.Faults.Delay(faults.SiteCompute)
		if err := s.cfg.Faults.Err(faults.SiteCompute); err != nil {
			return nil, err
		}
		sp := obs.Start(ctx, "queue")
		release, err := s.acquireCompute(ctx)
		sp.End()
		if err != nil {
			return nil, err
		}
		defer release()
		first := g.cells[0]
		machines := make([]cpu.Machine, len(g.cells))
		for i, rc := range g.cells {
			machines[i] = rc.m
		}
		cs, err := s.suiteFor(first.cell.scaleDiv).Compute(ctx, first.w, first.v, machines)
		if err != nil {
			return nil, err
		}
		m := make(map[string]metrics.Counters, len(g.cells))
		for i, rc := range g.cells {
			m[rc.cell.machine] = cs[i]
			s.lru.Add(rc.cell, cs[i])
		}
		s.stats.computedCells.Add(uint64(len(g.cells)))
		src = fromCompute
		tr.SetOutcome(obs.OutcomeComputed)
		return m, nil
	})
	if err != nil {
		return nil, 0, err
	}
	if joined {
		// The joiner's wait on the leader is only knowable after the
		// fact — attribute it now so its Server-Timing shows where the
		// time went.
		obs.Observe(ctx, "flight", time.Since(flightStart))
		tr.SetOutcome(obs.OutcomeCoalesced)
		src = fromFlight
	}
	return res, src, nil
}

// scaleOf reports the concrete scale a cell runs at, for result
// records. It is a pure computation — LRU-hit responses must not
// touch the suite pool (instantiating or evicting suites) just to
// label their scale.
func (s *Server) scaleOf(rc resolved) int {
	return harness.ScaleAt(rc.w, rc.cell.scaleDiv)
}

// diffKey identifies one /v1/diff computation for coalescing.
type diffKey struct {
	a, b string
	n    int
}

// DefaultDiffDetail is how many divergences a diff details when the
// request does not say; MaxDiffDetail caps what it may ask for.
const (
	DefaultDiffDetail = 5
	MaxDiffDetail     = 256
)

// runDiff produces the marshaled /v1/diff response for a pair of
// cached trace IDs: both traces are loaded from the disk cache,
// aligned by VM instruction index, and the report serialized once —
// identical concurrent requests coalesce onto that single computation
// and therefore receive byte-identical bodies. Decoding and walking
// two full traces is real work, so it runs under a compute slot like
// simulations do.
func (s *Server) runDiff(ctx context.Context, k diffKey) ([]byte, bool, error) {
	tr := obs.FromContext(ctx)
	flightStart := time.Now()
	body, joined, err := coalesce(ctx, &s.diffFlight, &s.stats, k, func() ([]byte, error) {
		sp := obs.Start(ctx, "queue")
		release, err := s.acquireCompute(ctx)
		sp.End()
		if err != nil {
			return nil, err
		}
		defer release()
		sp = obs.Start(ctx, "trace_load")
		a, _, err := s.cfg.Traces.LoadID(k.a)
		if err != nil {
			sp.End()
			return nil, err
		}
		b, _, err := s.cfg.Traces.LoadID(k.b)
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = obs.Start(ctx, "diff")
		report, err := disptrace.DiffTraces(a, b, k.n)
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = obs.Start(ctx, "encode")
		body, err := json.Marshal(DiffResponse{A: k.a, B: k.b, Report: report})
		sp.End()
		if err != nil {
			return nil, err
		}
		s.stats.computedDiffs.Add(1)
		tr.SetOutcome(obs.OutcomeComputed)
		return append(body, '\n'), nil
	})
	if joined && err == nil {
		obs.Observe(ctx, "flight", time.Since(flightStart))
		tr.SetOutcome(obs.OutcomeCoalesced)
	}
	return body, joined, err
}
