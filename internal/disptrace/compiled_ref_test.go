package disptrace

import (
	"fmt"
	"math/rand"
	"testing"
)

// refTier is the compiled tier as it was before it stored its entries
// in runner.LRU: the same Offer state machine over a hand-rolled
// linked-list LRU. It is kept only as a reference model — every
// decision CompiledTier makes (what it builds, serves, evicts and
// counts) must match it. Builds run inline, so it is for sequential
// use only.
type refTier struct {
	budget int64
	after  int

	entries map[string]*refEntry
	// LRU list: head is most recently used, tail the eviction victim.
	head, tail *refEntry
	bytes      int64

	builds, hits, evictions, buildErrors uint64
}

type refEntry struct {
	id         string
	t          *Trace
	bytes      int64
	loads      int
	failed     bool
	prev, next *refEntry
}

func newRefTier(budget int64, after int) *refTier {
	if after <= 0 {
		after = DefaultCompileAfter
	}
	return &refTier{budget: budget, after: after, entries: make(map[string]*refEntry)}
}

func (ct *refTier) Stats() CompiledStats {
	arenas := 0
	for _, e := range ct.entries {
		if e.t != nil {
			arenas++
		}
	}
	return CompiledStats{
		Builds: ct.builds, Hits: ct.hits, Evictions: ct.evictions, BuildErrors: ct.buildErrors,
		Arenas: arenas, Bytes: ct.bytes, Budget: ct.budget,
	}
}

func (ct *refTier) moveFront(e *refEntry) {
	if ct.head == e {
		return
	}
	ct.unlink(e)
	e.next = ct.head
	if ct.head != nil {
		ct.head.prev = e
	}
	ct.head = e
	if ct.tail == nil {
		ct.tail = e
	}
}

func (ct *refTier) unlink(e *refEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if ct.head == e {
		ct.head = e.next
	}
	if ct.tail == e {
		ct.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (ct *refTier) drop(e *refEntry) {
	ct.unlink(e)
	delete(ct.entries, e.id)
	ct.bytes -= e.bytes
}

// evictOver displaces least-recently-used entries until the tier fits
// its bounds again, sparing the entry just inserted or refreshed.
func (ct *refTier) evictOver(spare *refEntry) {
	for ct.tail != nil && (ct.bytes > ct.budget || len(ct.entries) > maxTierEntries) {
		victim := ct.tail
		if victim == spare {
			if victim.prev == nil {
				return
			}
			victim = victim.prev
		}
		ct.drop(victim)
		ct.evictions++
	}
}

func (ct *refTier) Get(id string) *Trace {
	e := ct.entries[id]
	if e == nil || e.t == nil {
		return nil
	}
	ct.moveFront(e)
	ct.hits++
	return e.t
}

func (ct *refTier) Offer(id string, t *Trace) {
	e := ct.entries[id]
	if e == nil {
		e = &refEntry{id: id}
		ct.entries[id] = e
	}
	ct.moveFront(e)
	e.loads++
	if e.t != nil || e.failed || e.loads < ct.after {
		ct.evictOver(e)
		return
	}
	bytes := t.arena.Bytes()
	if bytes > ct.budget {
		e.failed = true
		ct.buildErrors++
		return
	}
	t.Compile()
	e.t, e.bytes = t, bytes
	ct.bytes += bytes
	ct.builds++
	ct.moveFront(e)
	ct.evictOver(e)
}

func (ct *refTier) Invalidate(id string) {
	if e := ct.entries[id]; e != nil {
		ct.drop(e)
	}
}

// tierTestTraces writes a dozen traces of different sizes and
// returns them with their summed resident footprint.
func tierTestTraces(t *testing.T) ([]*Trace, int64) {
	t.Helper()
	var traces []*Trace
	var total int64
	for i := range 12 {
		w := NewWriter(Header{Workload: fmt.Sprintf("tier%d", i), Lang: "forth"})
		addr := uint64(0x1000)
		for k := range 40 + 90*i {
			w.RecordVMInst()
			w.RecordWork(k % 7)
			w.RecordFetch(addr, 16)
			if k%3 == 0 {
				w.RecordDispatch(addr+12, uint64(k%11), addr+64)
			}
			addr += 32
		}
		tr := w.Trace()
		traces = append(traces, tr)
		total += tr.Arena().Bytes()
	}
	return traces, total
}

// TestCompiledTierMatchesReference drives CompiledTier and the
// linked-list reference model with the same seeded Offer/Get/
// Invalidate sequences — budgets from 1/9 to 1/2 of the traces' total
// footprint (so traces that alone exceed the budget are refused), and
// every compile-after threshold from 1 to 3 — and requires the same
// Get result and identical Stats after every operation.
func TestCompiledTierMatchesReference(t *testing.T) {
	traces, total := tierTestTraces(t)
	seeds := 400
	if testing.Short() {
		seeds = 100
	}
	var seen CompiledStats
	for seed := range seeds {
		rng := rand.New(rand.NewSource(int64(seed)))
		budget := total/9 + rng.Int63n(total/2-total/9+1)
		after := 1 + seed%3
		got, want := NewCompiledTier(budget, after), newRefTier(budget, after)
		for op := range 300 {
			i := rng.Intn(len(traces))
			id := fmt.Sprintf("trace-%d", i)
			var desc string
			switch r := rng.Intn(10); {
			case r < 6:
				desc = "Offer " + id
				got.Offer(id, traces[i])
				want.Offer(id, traces[i])
			case r < 9:
				desc = "Get " + id
				if g, w := got.Get(id), want.Get(id); g != w {
					t.Fatalf("seed %d (budget %d, after %d) op %d %s: Get = %p, reference %p",
						seed, budget, after, op, desc, g, w)
				}
			default:
				desc = "Invalidate " + id
				got.Invalidate(id)
				want.Invalidate(id)
			}
			if g, w := got.Stats(), want.Stats(); g != w {
				t.Fatalf("seed %d (budget %d, after %d) op %d %s:\n  stats     %+v\n  reference %+v",
					seed, budget, after, op, desc, g, w)
			}
		}
		st := want.Stats()
		seen.Builds += st.Builds
		seen.Hits += st.Hits
		seen.Evictions += st.Evictions
		seen.BuildErrors += st.BuildErrors
	}
	// The sequences must reach every decision the tier makes.
	if seen.Builds == 0 || seen.Hits == 0 || seen.Evictions == 0 || seen.BuildErrors == 0 {
		t.Fatalf("sequences never exercised part of the tier: %+v", seen)
	}
	t.Logf("over %d seeds: %+v", seeds, seen)
}
