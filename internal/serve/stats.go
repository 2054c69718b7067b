package serve

import (
	"sync/atomic"
	"time"

	"vmopt/internal/disptrace"
	"vmopt/internal/metrics"
)

// stats is the server's counter surface, backed by one
// metrics.Registry: the request paths bump registry-owned counters
// and histograms, and GET /metrics renders the registry as Prometheus
// text format.
type stats struct {
	start time.Time
	reg   *metrics.Registry

	// inFlight is read by admission control on every request, so it
	// stays a plain atomic and is exported through a GaugeFunc.
	inFlight atomic.Int64

	reqRun, reqSweep, reqDiff, reqTraces *metrics.Counter
	rejected, errors                     *metrics.Counter

	lruHits, lruMisses *metrics.Counter

	coalescedRuns, coalescedGroups, coalescedDiffs *metrics.Counter
	computedCells, computedGroups, computedDiffs   *metrics.Counter
	canceledRetries                                *metrics.Counter

	deadlineTimeouts  *metrics.Counter
	retriedRequests   *metrics.Counter
	sweepResumes      *metrics.Counter
	forwardedRequests *metrics.Counter

	latRun, latSweep, latDiff, latTraces *metrics.Histogram
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
	fired := r.CounterVec("vmserved_faults_injected_total",
		"Injected faults fired, by armed rule (site/mode).", "fault")
	for fault := range s.cfg.Faults.Fired() {
		fired.Func(fault, func() uint64 { return s.cfg.Faults.Fired()[fault] })
	}

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
	r.CounterFunc("vmserved_cache_quarantined_total",
		"Corrupt or mismatched trace-cache files moved to the quarantine sidecar dir.",
		traceStat(func(cs disptrace.CacheStats) uint64 { return cs.Quarantined }))
	r.CounterFunc("vmserved_trace_records_total",
		"Dispatch traces recorded by simulation on this instance — the fleet-wide sum bounds duplicate work.",
		traceStat(func(cs disptrace.CacheStats) uint64 { return cs.Records }))
	r.CounterFunc("vmserved_trace_loads_total",
		"Dispatch traces loaded from the local trace cache, from memory or disk.",
		traceStat(func(cs disptrace.CacheStats) uint64 { return cs.Loads }))
	r.CounterFunc("vmserved_trace_joined_total",
		"Trace lookups that joined an in-progress load or recording of the same trace.",
		traceStat(func(cs disptrace.CacheStats) uint64 { return cs.Joined }))
	r.CounterFunc("vmserved_trace_read_errors_total",
		"Trace-cache reads that failed at the I/O layer and fell back to simulation.",
		traceStat(func(cs disptrace.CacheStats) uint64 { return cs.ReadErrors }))
	r.CounterFunc("vmserved_trace_save_errors_total",
		"Recorded traces whose trace-cache store failed; the trace was still served.",
		traceStat(func(cs disptrace.CacheStats) uint64 { return cs.SaveErrors }))
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
		"Resident bytes of the decoded traces the trace cache holds in memory (step dictionaries and token streams), bounded at 16 MiB.",
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
		func() float64 { return float64(s.suites.Len()) })
	r.GaugeFunc("vmserved_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(st.start).Seconds() })

	lat := r.HistogramVec("vmserved_request_seconds",
		"End-to-end handler latency, by endpoint.", "endpoint")
	st.latRun = lat.With("run")
	st.latSweep = lat.With("sweep")
	st.latDiff = lat.With("diff")
	st.latTraces = lat.With("traces")
}
