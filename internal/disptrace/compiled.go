// Compiled replay: hot traces become pre-decoded op-batch arenas
// served zero-copy.
//
// The decode path pays inflate + varint expansion on every replay,
// even when the trace bytes are already cached on disk. Ertl & Gregg's
// thesis — interpreter speed comes from removing per-instruction
// overhead on hot paths — applies one level up: a trace the cache
// keeps loading is worth specializing once into its fully decoded
// form. An Arena is that form: one flat, contiguous, immutable
// []cpu.Op holding the whole stream, with the segment boundaries and a
// per-VM-instruction index mirroring the v3 step tables. Replay serves
// slices of it by reference — zero decode work, zero per-replay
// allocation, no refcounted batch pool — and the cursor's Next/Seek
// become array lookups (a step that spans segments is contiguous in
// the flat layout, so the decode path's stitch buffer vanishes).
//
// CompiledTier decides which traces earn an arena: the cache offers
// every disk load, the tier counts per-ID uses, and on the Nth load of
// the same trace it builds the arena and memoizes the decoded trace
// with it — from then on the cache serves the memoized trace without
// touching the disk at all. The tier is bounded by a byte budget with
// LRU eviction and is invalidated together with the underlying cache
// entry: quarantine and scrub drop arenas too, so a healed entry
// re-earns its arena from clean re-simulation.
package disptrace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"vmopt/internal/cpu"
	"vmopt/internal/runner"
)

// opBytes is the in-memory footprint of one decoded event.
const opBytes = int64(unsafe.Sizeof(cpu.Op{}))

// Arena is the compiled form of one trace: the entire decoded op
// stream in a single contiguous slice, immutable after build. Batches
// are handed out as subslices — by reference, never copied, never
// pooled — so a compiled replay allocates nothing and decodes nothing.
type Arena struct {
	// ops is the full stream, segments back to back, delta decoding
	// already resolved.
	ops []cpu.Op
	// segEnds[i] is the op offset after segment i — the batch
	// boundaries ReplayEach and NextBatch serve. Strictly increasing
	// (Compile refuses empty segments).
	segEnds []int
	// instEnds[k] is the op offset after VM instruction k, the flat
	// mirror of the v3 step tables: instruction k's events are
	// ops[instEnds[k-1]:instEnds[k]] (firstOp:instEnds[0] for k = 0).
	// A step that spans a segment seal is one contiguous range here.
	instEnds []int
	// firstOp is the op count preceding the first VM instruction (the
	// stream prelude; NextBatch delivers it, Next skips it).
	firstOp int
	// bytes is the arena's accounted memory footprint.
	bytes int64
}

// Ops reports the arena's total decoded event count.
func (a *Arena) Ops() int { return len(a.ops) }

// Insts reports the arena's indexed VM instruction count.
func (a *Arena) Insts() int { return len(a.instEnds) }

// Bytes reports the arena's accounted memory footprint.
func (a *Arena) Bytes() int64 { return a.bytes }

// instStart is the op offset where instruction k begins.
func (a *Arena) instStart(k int) int {
	if k == 0 {
		return a.firstOp
	}
	return a.instEnds[k-1]
}

// segStart is the op offset where segment i begins.
func (a *Arena) segStart(i int) int {
	if i == 0 {
		return 0
	}
	return a.segEnds[i-1]
}

// replay applies the whole arena to every sim: the single-sim serving
// path is one Apply call over the flat stream (no goroutines, no
// allocation); multi-sim replays run one applier goroutine per sim,
// each walking the same immutable slice independently — no batch
// hand-off, no refcounts, no cross-sim synchronization at all.
func (a *Arena) replay(sims []*cpu.Sim) {
	if len(sims) == 1 {
		sims[0].Apply(a.ops)
		return
	}
	var wg sync.WaitGroup
	for _, sim := range sims {
		wg.Add(1)
		go func(sim *cpu.Sim) {
			defer wg.Done()
			sim.Apply(a.ops)
		}(sim)
	}
	wg.Wait()
}

// Compiled returns the arena attached to the trace, or nil. Replay and
// cursors consult it and take the zero-decode path when present.
func (t *Trace) Compiled() *Arena { return t.arena }

// Attach hands a previously built arena to the trace; replays and
// cursors on t serve from it. The arena must have been compiled from
// an identical trace (same content address).
func (t *Trace) Attach(a *Arena) { t.arena = a }

// Compile builds the trace's arena — the one full decode the compiled
// tier ever pays for this trace — attaches it, and returns it. The
// builder cross-checks the per-instruction index it derives from the
// step tables against the header totals, so a trace that compiles
// replays exactly like it decodes. Compiling an already-compiled
// trace returns the existing arena.
func (t *Trace) Compile() (*Arena, error) {
	if t.arena != nil {
		return t.arena, nil
	}
	a := &Arena{
		segEnds:  make([]int, 0, len(t.Segs)),
		instEnds: make([]int, 0, t.Header.VMInstructions),
	}
	var scratch []byte
	var segOps []cpu.Op
	var ends []int
	for i := range t.Segs {
		s := &t.Segs[i]
		if s.Records == 0 {
			// The writer never seals an empty segment; refusing them
			// keeps segEnds strictly increasing (the cursor's
			// position mapping relies on it).
			return nil, fmt.Errorf("disptrace: cannot compile trace with empty segment %d", i)
		}
		base := len(a.ops)
		ends = ends[:0]
		var err error
		// Decode into a per-segment scratch batch and append that to
		// the arena: decodeOps reserves worst-case headroom in its
		// destination, and letting it grow the arena directly would
		// recopy everything decoded so far on every segment.
		segOps, scratch, err = s.decodeOps(segOps[:0], scratch, &ends)
		if err != nil {
			return nil, err
		}
		a.ops = append(a.ops, segOps...)
		endAt := func(rec int) int {
			if rec == 0 {
				return base
			}
			return base + ends[rec-1]
		}
		prefix, exc, err := parseStepTable(s.Steps, s.VMInsts, s.Records)
		if err != nil {
			return nil, err
		}
		if prefix > 0 {
			// Prefix records continue the previous segment's last
			// step (or the stream prelude): in the flat layout they
			// simply extend that instruction's range.
			if len(a.instEnds) > 0 {
				a.instEnds[len(a.instEnds)-1] = endAt(prefix)
			} else {
				a.firstOp = endAt(prefix)
			}
		}
		rec, ei := prefix, 0
		for k := 0; k < s.VMInsts; k++ {
			n := 1
			if ei < len(exc) && exc[ei].idx == k {
				n = exc[ei].recs
				ei++
			}
			rec += n
			a.instEnds = append(a.instEnds, endAt(rec))
		}
		a.segEnds = append(a.segEnds, len(a.ops))
	}
	if uint64(len(a.instEnds)) != t.Header.VMInstructions {
		return nil, fmt.Errorf("disptrace: compiled index has %d instructions, header declares %d",
			len(a.instEnds), t.Header.VMInstructions)
	}
	// The arena is long-lived; trim decodeOps' append headroom so the
	// accounted footprint is the real one.
	if cap(a.ops) > len(a.ops) {
		a.ops = append(make([]cpu.Op, 0, len(a.ops)), a.ops...)
	}
	const intBytes = int64(unsafe.Sizeof(int(0)))
	a.bytes = int64(len(a.ops))*opBytes +
		int64(len(a.instEnds)+len(a.segEnds))*intBytes
	t.arena = a
	return a, nil
}

// storedBytes approximates the encoded trace's resident footprint (the
// tier memoizes the decoded container alongside the arena, so compiled
// hits skip the disk entirely).
func (t *Trace) storedBytes() int64 {
	var n int64
	for i := range t.Segs {
		n += int64(len(t.Segs[i].Data) + len(t.Segs[i].Steps))
	}
	return n
}

// DefaultCompileAfter is the load count on which a trace compiles when
// the tier's threshold is left zero: the third load of the same trace
// marks it hot.
const DefaultCompileAfter = 3

// maxTierEntries bounds the tier's entry count (compiled entries plus
// the per-ID hotness counters); beyond it the least recently used
// entry goes, whatever its state, so unbounded key churn cannot grow
// the counter map.
const maxTierEntries = 8192

// CompiledTier is the in-memory arena tier of the trace cache: per-ID
// hotness counting, compile-on-Nth-load, and a byte-budget LRU over
// the built arenas. All methods are safe for concurrent use; arena
// builds run outside the lock (a `building` mark keeps racing loads
// from building the same arena twice — the loser serves the decode
// path once more).
type CompiledTier struct {
	budget int64
	after  int

	// mu guards arenas and serializes the Offer state machine over
	// lru, where an entry weighs its accounted bytes (0 while it is
	// only a hotness counter).
	mu     sync.Mutex
	lru    *runner.LRU[string, *compiledEntry]
	arenas int

	builds, hits, buildErrors atomic.Uint64
}

// compiledEntry is one tier entry: a hotness counter until the
// threshold, the memoized compiled trace after it.
type compiledEntry struct {
	t     *Trace // non-nil once compiled (arena attached)
	bytes int64
	loads int
	// building marks an in-flight arena build; failed marks a build
	// error or over-budget arena so the tier never retries a trace it
	// cannot hold.
	building, failed bool
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
	// Builds counts arenas built; Hits counts loads served straight
	// from a memoized arena (no disk read, no decode); Evictions
	// counts tier entries displaced by the byte budget or the entry
	// bound — built arenas and not-yet-hot hotness counters alike, so
	// it can exceed Builds (invalidations are not counted);
	// BuildErrors counts traces that failed to compile or whose arena
	// alone exceeds the budget (never retried).
	Builds      uint64 `json:"builds"`
	Hits        uint64 `json:"hits"`
	Evictions   uint64 `json:"evictions"`
	BuildErrors uint64 `json:"build_errors,omitempty"`
	// Arenas is the resident compiled-trace count; Bytes their
	// accounted footprint against Budget.
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
// touching the disk, and its attached arena replays with zero decode.
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
// compile-after threshold, builds t's arena and memoizes t. The build
// runs outside the tier lock; a concurrent load of the same id during
// the build simply serves the decode path once more. Offer never makes
// a load worse: build failures are counted, marked, and never retried,
// and the offered trace is served either way.
func (ct *CompiledTier) Offer(id string, t *Trace) {
	if ct == nil {
		return
	}
	ct.mu.Lock()
	e, _ := ct.lru.Peek(id)
	if e == nil {
		e = &compiledEntry{}
	}
	ct.add(id, e)
	e.loads++
	if e.t != nil || e.building || e.failed || e.loads < ct.after {
		ct.mu.Unlock()
		return
	}
	e.building = true
	ct.mu.Unlock()

	a, err := t.Compile()
	bytes := int64(0)
	if err == nil {
		bytes = a.Bytes() + t.storedBytes()
	}

	ct.mu.Lock()
	defer ct.mu.Unlock()
	e.building = false
	if cur, _ := ct.lru.Peek(id); cur != e {
		// Invalidated (or evicted and re-created) while building:
		// discard the result rather than resurrecting a dropped entry.
		return
	}
	if err != nil || bytes > ct.budget {
		e.failed = true
		ct.buildErrors.Add(1)
		return
	}
	e.t, e.bytes = t, bytes
	ct.arenas++
	ct.builds.Add(1)
	ct.add(id, e)
}

// Invalidate drops id's entry — arena, memoized trace and hotness
// count alike. The cache calls it whenever the underlying entry stops
// being servable (quarantine, scrub), so a healed entry starts cold
// and re-earns its arena from clean bytes.
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
