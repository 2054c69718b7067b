// The compiled tier: hot traces stay resident in memory.
//
// Every decoded trace is already in its replay form (see Arena), so
// "compiling" a trace is memoizing it: CompiledTier counts per-ID
// disk loads, and on the Nth load of the same trace it keeps the
// decoded trace — from then on the cache serves it without touching
// the disk or decoding again. The tier is bounded by a byte budget
// with LRU eviction and is invalidated together with the underlying
// cache entry: quarantine and scrub drop resident traces too, so a
// healed entry re-earns its place from clean re-simulation.
package disptrace

import (
	"sync"
	"sync/atomic"

	"vmopt/internal/runner"
)

// Compiled returns the trace's resident form when the compiled tier
// holds the trace (Compile or Attach marked it), or nil.
func (t *Trace) Compiled() *Arena {
	if !t.compiled {
		return nil
	}
	return t.arena
}

// Attach hands the trace a resident form built from an identical
// trace (same content address) — sharing it instead of holding a
// second copy — and marks the trace compiled.
func (t *Trace) Attach(a *Arena) {
	t.arena = a
	t.compiled = true
}

// Compile marks the trace as held by the compiled tier and returns its
// resident form. Decoding already built that form, so this copies
// nothing; replays of a compiled trace report the "compiled" stage.
// The error is always nil.
func (t *Trace) Compile() (*Arena, error) {
	t.compiled = true
	return t.arena, nil
}

// DefaultCompileAfter is the load count on which the tier keeps a
// trace when its threshold is left zero: the third load of the same
// trace marks it hot.
const DefaultCompileAfter = 3

// maxTierEntries bounds the tier's entry count (compiled entries plus
// the per-ID hotness counters); beyond it the least recently used
// entry goes, whatever its state, so unbounded key churn cannot grow
// the counter map.
const maxTierEntries = 8192

// CompiledTier is the in-memory trace tier of the trace cache: per-ID
// hotness counting, memoize-on-Nth-load, and a byte-budget LRU over
// the resident traces, each weighed by its Arena.Bytes. All methods
// are safe for concurrent use.
type CompiledTier struct {
	budget int64
	after  int

	// mu guards arenas and serializes the Offer state machine over
	// lru, where an entry weighs its resident bytes (0 while it is
	// only a hotness counter).
	mu     sync.Mutex
	lru    *runner.LRU[string, *compiledEntry]
	arenas int

	builds, hits, buildErrors atomic.Uint64
}

// compiledEntry is one tier entry: a hotness counter until the
// threshold, the memoized compiled trace after it.
type compiledEntry struct {
	t     *Trace // non-nil once compiled
	bytes int64
	loads int
	// failed marks a trace larger than the whole budget, so the tier
	// never retries a trace it cannot hold.
	failed bool
}

// NewCompiledTier builds a tier with the given byte budget and
// compile-after threshold. budget <= 0 disables the tier (returns
// nil; every method on a nil tier is a no-op); after <= 0 means
// DefaultCompileAfter, and after == 1 compiles on first load.
func NewCompiledTier(budget int64, after int) *CompiledTier {
	if budget <= 0 {
		return nil
	}
	if after <= 0 {
		after = DefaultCompileAfter
	}
	ct := &CompiledTier{budget: budget, after: after}
	ct.lru = runner.NewWeightedLRU[string](maxTierEntries, budget,
		func(e *compiledEntry) int64 { return e.bytes })
	return ct
}

// add makes e id's most recent entry, re-weighing it, and uncounts
// the arenas the LRU evicts to fit it. Callers hold mu.
func (ct *CompiledTier) add(id string, e *compiledEntry) {
	for _, v := range ct.lru.Add(id, e) {
		if v.t != nil {
			ct.arenas--
		}
	}
}

// CompiledStats snapshots the tier's activity, reported under the
// cache's /v1/stats block and the vmserved_compiled_* metrics.
type CompiledStats struct {
	// Builds counts traces memoized; Hits counts loads served
	// straight from the tier (no disk read, no decode); Evictions
	// counts tier entries displaced by the byte budget or the entry
	// bound — resident traces and not-yet-hot hotness counters alike,
	// so it can exceed Builds (invalidations are not counted);
	// BuildErrors counts traces that alone exceed the budget (never
	// retried).
	Builds      uint64 `json:"builds"`
	Hits        uint64 `json:"hits"`
	Evictions   uint64 `json:"evictions"`
	BuildErrors uint64 `json:"build_errors,omitempty"`
	// Arenas is the resident trace count; Bytes their resident
	// footprint (Arena.Bytes) against Budget.
	Arenas int   `json:"arenas"`
	Bytes  int64 `json:"bytes"`
	Budget int64 `json:"budget"`
}

// Stats snapshots the tier's counters; a nil tier reports zeroes.
func (ct *CompiledTier) Stats() CompiledStats {
	if ct == nil {
		return CompiledStats{}
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return CompiledStats{
		Builds:      ct.builds.Load(),
		Hits:        ct.hits.Load(),
		Evictions:   ct.lru.Evictions(),
		BuildErrors: ct.buildErrors.Load(),
		Arenas:      ct.arenas,
		Bytes:       ct.lru.Weight(),
		Budget:      ct.budget,
	}
}

// Get returns the memoized compiled trace for id, or nil. A hit is the
// tier's whole point: the caller serves the returned trace without
// touching the disk or decoding it again.
// Only a hit refreshes the entry's recency; looking up a trace that is
// merely being counted does not.
func (ct *CompiledTier) Get(id string) *Trace {
	if ct == nil {
		return nil
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	e, _ := ct.lru.Peek(id)
	if e == nil || e.t == nil {
		return nil
	}
	ct.lru.Get(id)
	ct.hits.Add(1)
	return e.t
}

// Offer notes one disk load of id and, when the load crosses the
// compile-after threshold, memoizes t (marking it compiled). Offer
// never makes a load worse: a trace larger than the whole budget is
// counted, marked and never retried, and the offered trace is served
// either way.
func (ct *CompiledTier) Offer(id string, t *Trace) {
	if ct == nil {
		return
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	e, _ := ct.lru.Peek(id)
	if e == nil {
		e = &compiledEntry{}
	}
	ct.add(id, e)
	e.loads++
	if e.t != nil || e.failed || e.loads < ct.after {
		return
	}
	bytes := t.arena.Bytes()
	if bytes > ct.budget {
		e.failed = true
		ct.buildErrors.Add(1)
		return
	}
	t.Compile()
	e.t, e.bytes = t, bytes
	ct.arenas++
	ct.builds.Add(1)
	ct.add(id, e)
}

// Invalidate drops id's entry — memoized trace and hotness count
// alike. The cache calls it whenever the underlying entry stops being
// servable (quarantine, scrub), so a healed entry starts cold and
// re-earns its place from clean bytes.
func (ct *CompiledTier) Invalidate(id string) {
	if ct == nil {
		return
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if e, ok := ct.lru.Remove(id); ok && e.t != nil {
		ct.arenas--
	}
}
