package serve

import (
	"sync/atomic"
	"time"

	"vmopt/internal/disptrace"
	"vmopt/internal/metrics"
	"vmopt/internal/runner"
)

// stats is the server's observability surface, backed by one
// metrics.Registry: the request paths bump registry-owned counters
// and histograms, GET /metrics renders the registry as Prometheus
// text format, and /v1/stats snapshots the same live values into its
// JSON document — two views over one source, so they can never
// disagree.
type stats struct {
	start time.Time
	reg   *metrics.Registry

	// inFlight is read by admission control on every request, so it
	// stays a plain atomic and is exported through a GaugeFunc.
	inFlight atomic.Int64

	reqRun, reqSweep, reqDiff, reqTraces, reqStats *metrics.Counter
	rejected, errors                               *metrics.Counter

	lruHits, lruMisses *metrics.Counter

	coalescedRuns, coalescedGroups, coalescedDiffs *metrics.Counter
	computedCells, computedGroups, computedDiffs   *metrics.Counter
	canceledRetries                                *metrics.Counter

	deadlineTimeouts  *metrics.Counter
	retriedRequests   *metrics.Counter
	sweepResumes      *metrics.Counter
	forwardedRequests *metrics.Counter

	latRun, latSweep, latDiff, latTraces, latStats *metrics.Histogram
}

// init builds the registry and registers every server metric. It runs
// once from New, after the server's caches exist (several gauges read
// them at collection time).
func (st *stats) init(s *Server) {
	st.start = time.Now()
	r := metrics.NewRegistry()
	st.reg = r
	metrics.RegisterRuntime(r)

	req := r.CounterVec("vmserved_requests_total",
		"HTTP requests received, by endpoint.", "endpoint")
	st.reqRun = req.With("run")
	st.reqSweep = req.With("sweep")
	st.reqDiff = req.With("diff")
	st.reqTraces = req.With("traces")
	st.reqStats = req.With("stats")

	st.rejected = r.Counter("vmserved_rejected_total",
		"Requests rejected by admission control (503).")
	st.errors = r.Counter("vmserved_errors_total",
		"Requests that failed: malformed/unresolvable (4xx) or execution errors.")

	st.lruHits = r.Counter("vmserved_cache_hits_total",
		"In-memory result LRU hits.")
	st.lruMisses = r.Counter("vmserved_cache_misses_total",
		"In-memory result LRU misses.")
	r.CounterFunc("vmserved_cache_evictions_total",
		"In-memory result LRU entries displaced by capacity pressure.",
		s.lru.Evictions)
	r.GaugeFunc("vmserved_cache_entries",
		"Resident entries in the in-memory result LRU.",
		func() float64 { return float64(s.lru.Len()) })

	coal := r.CounterVec("vmserved_coalesced_total",
		"Requests that joined an in-progress identical computation, by kind.", "kind")
	st.coalescedRuns = coal.With("runs")
	st.coalescedGroups = coal.With("groups")
	st.coalescedDiffs = coal.With("diffs")

	comp := r.CounterVec("vmserved_computed_total",
		"Simulations, replays and diffs actually performed, by kind.", "kind")
	st.computedCells = comp.With("cells")
	st.computedGroups = comp.With("groups")
	st.computedDiffs = comp.With("diffs")

	st.canceledRetries = r.Counter("vmserved_canceled_retries_total",
		"Computations re-led after a cancelled leader poisoned a shared flight result.")

	st.deadlineTimeouts = r.Counter("vmserved_deadline_timeouts_total",
		"Requests that exhausted their server-side deadline budget (504, or mid-stream sweep deadline errors).")
	st.retriedRequests = r.Counter("vmserved_retried_requests_total",
		"Requests arriving with X-Retry-Attempt > 0: client-side retries landing on this server.")
	st.sweepResumes = r.Counter("vmserved_sweep_resumes_total",
		"Sweep requests that resumed from a cursor instead of replaying the whole grid.")
	r.CounterFunc("vmserved_cache_quarantined_total",
		"Corrupt or mismatched trace-cache files moved to the quarantine sidecar dir.",
		func() uint64 {
			if s.cfg.Traces == nil {
				return 0
			}
			return s.cfg.Traces.Quarantined()
		})
	r.CounterFunc("vmserved_faults_injected_total",
		"Injected faults fired across every configured fault site.",
		func() uint64 { return s.cfg.Faults.Total() })

	st.forwardedRequests = r.Counter("vmserved_forwarded_requests_total",
		"Requests arriving via the cluster router (X-Cluster-Hop set).")
	traceStat := func(read func(disptrace.CacheStats) uint64) func() uint64 {
		return func() uint64 {
			if s.cfg.Traces == nil {
				return 0
			}
			return read(s.cfg.Traces.Stats())
		}
	}
	r.CounterFunc("vmserved_trace_records_total",
		"Dispatch traces recorded by simulation on this instance — the fleet-wide sum bounds duplicate work.",
		traceStat(func(cs disptrace.CacheStats) uint64 { return cs.Records }))
	r.CounterFunc("vmserved_trace_loads_total",
		"Dispatch traces loaded from the local trace cache, from memory or disk.",
		traceStat(func(cs disptrace.CacheStats) uint64 { return cs.Loads }))
	r.CounterFunc("vmserved_peer_fill_hits_total",
		"Local trace-cache misses satisfied by fetching from the owning peer instead of re-simulating.",
		traceStat(func(cs disptrace.CacheStats) uint64 { return cs.PeerFills }))
	r.CounterFunc("vmserved_peer_fill_misses_total",
		"Peer-fill attempts that came back empty and fell through to simulation.",
		traceStat(func(cs disptrace.CacheStats) uint64 { return cs.PeerFillMisses }))
	r.CounterFunc("vmserved_peer_fill_errors_total",
		"Peer-fill attempts that failed or returned a payload rejected by verification.",
		traceStat(func(cs disptrace.CacheStats) uint64 { return cs.PeerFillErrors }))
	r.CounterFunc("vmserved_peer_serves_total",
		"Raw trace files this instance served to filling peers.",
		traceStat(func(cs disptrace.CacheStats) uint64 { return cs.PeerServes }))
	r.CounterFunc("vmserved_trace_memory_hits_total",
		"Trace loads served from the trace cache's memory of decoded traces: no disk read, no decode.",
		traceStat(func(cs disptrace.CacheStats) uint64 { return cs.MemoryHits }))
	r.CounterFunc("vmserved_trace_memory_evictions_total",
		"Decoded traces displaced from the trace cache's memory by its byte budget.",
		traceStat(func(cs disptrace.CacheStats) uint64 { return cs.MemoryEvictions }))
	memBytes := traceStat(func(cs disptrace.CacheStats) uint64 { return uint64(cs.MemoryBytes) })
	r.GaugeFunc("vmserved_trace_memory_bytes",
		"Resident bytes of the decoded traces the trace cache holds in memory (step dictionaries and step-ID streams), bounded at 16 MiB.",
		func() float64 { return float64(memBytes()) })

	if s.cfg.InstanceID != "" {
		r.GaugeVec("vmserved_instance_info",
			"Instance identity; the label carries the -instance-id, the value is always 1.",
			"instance").With(s.cfg.InstanceID).Set(1)
	}
	r.GaugeFunc("vmserved_ready",
		"Readiness: 1 while /readyz answers 200, 0 once drain has begun.",
		func() float64 {
			if s.Ready() {
				return 1
			}
			return 0
		})

	r.GaugeFunc("vmserved_in_flight",
		"Admitted requests currently executing.",
		func() float64 { return float64(st.inFlight.Load()) })
	r.GaugeFunc("vmserved_suites_live",
		"Live per-scalediv suites in the pool.",
		func() float64 { return float64(s.suiteCount()) })
	r.GaugeFunc("vmserved_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(st.start).Seconds() })

	lat := r.HistogramVec("vmserved_request_seconds",
		"End-to-end handler latency, by endpoint.", "endpoint")
	st.latRun = lat.With("run")
	st.latSweep = lat.With("sweep")
	st.latDiff = lat.With("diff")
	st.latTraces = lat.With("traces")
	st.latStats = lat.With("stats")
}

// StatsResponse is the GET /v1/stats document.
type StatsResponse struct {
	UptimeS float64      `json:"uptime_s"`
	Host    *runner.Host `json:"host"`

	// InstanceID is this instance's identity in a cluster (the
	// -instance-id flag; absent when unset).
	InstanceID string `json:"instance_id,omitempty"`

	// Ready mirrors the /readyz probe: false once drain has begun.
	Ready bool `json:"ready"`

	// InFlight is the number of admitted /v1/run and /v1/sweep
	// requests currently executing.
	InFlight int64 `json:"in_flight"`

	Requests RequestStats `json:"requests"`
	Cache    CacheTier    `json:"cache"`

	// Coalesced counts requests that joined an in-progress identical
	// computation instead of starting their own: single runs and whole
	// sweep groups.
	Coalesced CoalesceStats `json:"coalesced"`
	// Computed counts actual simulations/replays performed.
	Computed ComputeStats `json:"computed"`

	// Traces is the on-disk dispatch-trace cache activity (absent when
	// the server runs without a trace cache).
	Traces *disptrace.CacheStats `json:"traces,omitempty"`

	// Suites reports the per-scalediv suite pool backing computation.
	Suites SuiteStats `json:"suites"`

	// Faults reports injected-fault activity when a fault spec is
	// armed: total fires plus a per-"site/mode" breakdown (absent on
	// a fault-free server).
	Faults *FaultStats `json:"faults,omitempty"`

	Latency map[string]metrics.HistogramSnapshot `json:"latency"`
}

// FaultStats is the injected-fault view of /v1/stats.
type FaultStats struct {
	Injected uint64            `json:"injected"`
	PerSite  map[string]uint64 `json:"per_site,omitempty"`
}

// RequestStats counts requests by endpoint plus terminal outcomes.
type RequestStats struct {
	Run    uint64 `json:"run"`
	Sweep  uint64 `json:"sweep"`
	Diff   uint64 `json:"diff"`
	Traces uint64 `json:"traces"`
	Stats  uint64 `json:"stats"`
	// Rejected counts requests turned away by backpressure (503),
	// including injected serve.handler unavailability.
	Rejected uint64 `json:"rejected"`
	// Errors counts requests that failed for any other reason:
	// malformed or unresolvable requests (4xx) and post-admission
	// execution failures alike.
	Errors uint64 `json:"errors"`
	// DeadlineTimeouts counts requests that exhausted their
	// server-side deadline budget (504s, plus sweeps whose deadline
	// fired mid-stream).
	DeadlineTimeouts uint64 `json:"deadline_timeouts"`
	// Retried counts requests that arrived announcing a client-side
	// retry (X-Retry-Attempt > 0).
	Retried uint64 `json:"retried"`
	// SweepResumes counts sweeps resumed from a cursor.
	SweepResumes uint64 `json:"sweep_resumes"`
	// Forwarded counts requests that arrived through the cluster
	// router (X-Cluster-Hop set) rather than directly from a client.
	Forwarded uint64 `json:"forwarded"`
}

// CacheTier describes the in-memory result LRU.
type CacheTier struct {
	Size   int    `json:"size"`
	Cap    int    `json:"cap"`
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts entries displaced by capacity pressure —
	// what separates a cold cache from a thrashing one.
	Evictions uint64  `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

// CoalesceStats counts thundering-herd suppression.
type CoalesceStats struct {
	Runs   uint64 `json:"runs"`
	Groups uint64 `json:"groups"`
	Diffs  uint64 `json:"diffs"`
	// CanceledRetries counts computations re-led after a cancelled
	// leader poisoned a shared flight result.
	CanceledRetries uint64 `json:"canceled_retries"`
}

// ComputeStats counts work actually performed.
type ComputeStats struct {
	Cells  uint64 `json:"cells"`
	Groups uint64 `json:"groups"`
	Diffs  uint64 `json:"diffs"`
}

// SuiteStats describes the suite pool.
type SuiteStats struct {
	Live int `json:"live"`
}

func (st *stats) snapshot(s *Server) StatsResponse {
	hits, misses := st.lruHits.Load(), st.lruMisses.Load()
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	resp := StatsResponse{
		UptimeS:    time.Since(st.start).Seconds(),
		Host:       runner.CurrentHost(),
		InstanceID: s.cfg.InstanceID,
		Ready:      s.Ready(),
		InFlight:   st.inFlight.Load(),
		Requests: RequestStats{
			Run:              st.reqRun.Load(),
			Sweep:            st.reqSweep.Load(),
			Diff:             st.reqDiff.Load(),
			Traces:           st.reqTraces.Load(),
			Stats:            st.reqStats.Load(),
			Rejected:         st.rejected.Load(),
			Errors:           st.errors.Load(),
			DeadlineTimeouts: st.deadlineTimeouts.Load(),
			Retried:          st.retriedRequests.Load(),
			SweepResumes:     st.sweepResumes.Load(),
			Forwarded:        st.forwardedRequests.Load(),
		},
		Cache: CacheTier{
			Size:      s.lru.Len(),
			Cap:       s.lru.Cap(),
			Hits:      hits,
			Misses:    misses,
			Evictions: s.lru.Evictions(),
			HitRate:   rate,
		},
		Coalesced: CoalesceStats{
			Runs:            st.coalescedRuns.Load(),
			Groups:          st.coalescedGroups.Load(),
			Diffs:           st.coalescedDiffs.Load(),
			CanceledRetries: st.canceledRetries.Load(),
		},
		Computed: ComputeStats{
			Cells:  st.computedCells.Load(),
			Groups: st.computedGroups.Load(),
			Diffs:  st.computedDiffs.Load(),
		},
		Suites: SuiteStats{Live: s.suiteCount()},
		Latency: map[string]metrics.HistogramSnapshot{
			"run":    st.latRun.Snapshot(),
			"sweep":  st.latSweep.Snapshot(),
			"diff":   st.latDiff.Snapshot(),
			"traces": st.latTraces.Snapshot(),
			"stats":  st.latStats.Snapshot(),
		},
	}
	if s.cfg.Traces != nil {
		ts := s.cfg.Traces.Stats()
		resp.Traces = &ts
	}
	if s.cfg.Faults != nil {
		resp.Faults = &FaultStats{
			Injected: s.cfg.Faults.Total(),
			PerSite:  s.cfg.Faults.Snapshot(),
		}
	}
	return resp
}
