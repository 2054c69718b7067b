package disptrace_test

import (
	"context"
	"errors"
	"os"
	"testing"

	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/harness"
)

// memKeys returns n distinct keys whose recordings (healRecorder) have
// the same resident size.
func memKeys(n int) []disptrace.Key {
	ks := make([]disptrace.Key, n)
	for i := range ks {
		ks[i] = healKey()
		ks[i].Scale += uint64(i)
	}
	return ks
}

// recordAndLoad records k into c, then loads it once more: a memory
// hit when the recording fits the budget, a disk load when it does not.
func recordAndLoad(t *testing.T, c *disptrace.Cache, k disptrace.Key, calls *int) *disptrace.Trace {
	t.Helper()
	if _, recorded, err := c.GetOrRecord(k, healRecorder(k, calls)); err != nil || !recorded {
		t.Fatalf("record: err=%v recorded=%v", err, recorded)
	}
	tr, recorded, err := c.GetOrRecord(k, healRecorder(k, calls))
	if err != nil || recorded {
		t.Fatalf("load: err=%v recorded=%v", err, recorded)
	}
	return tr
}

// TestMemoryFirstLoad: a recording stays in memory, so the next load
// is a memory hit that returns the recorded trace itself. A fresh
// cache over the same directory keeps its first disk load, and every
// later load is a memory hit that returns the same decoded trace
// without touching the disk. A by-ID load climbs the same ladder as a
// keyed one, so both the disk and the memory load count in Loads.
func TestMemoryFirstLoad(t *testing.T) {
	c := disptrace.NewCache(t.TempDir())
	k := healKey()
	calls := 0
	rec, _, err := c.GetOrRecord(k, healRecorder(k, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.MemoryBytes != rec.Arena().Bytes() || !disptrace.InMemory(c, k.ID()) {
		t.Fatalf("recording not kept: %+v, want %d bytes", st, rec.Arena().Bytes())
	}
	if tr, err := c.LoadID(k.ID()); err != nil || tr != rec {
		t.Fatalf("load after recording: %p, %v; want the recording (%p)", tr, err, rec)
	}
	if st := c.Stats(); st.MemoryHits != 1 {
		t.Fatalf("load after recording was no memory hit: %+v", st)
	}

	c = disptrace.NewCache(c.Dir)
	tr, err := c.LoadID(k.ID())
	if err != nil || tr == nil {
		t.Fatalf("load: %v, %v", tr, err)
	}
	if st := c.Stats(); st.MemoryBytes != tr.Arena().Bytes() || st.MemoryHits != 0 {
		t.Fatalf("first load: %+v, want %d bytes and no hit", st, tr.Arena().Bytes())
	}
	again, err := c.LoadID(k.ID())
	if err != nil || again != tr {
		t.Fatalf("second load: %p, %v; want the trace memory holds (%p)", again, err, tr)
	}
	if st := c.Stats(); st.MemoryHits != 1 || st.Loads != 2 {
		t.Fatalf("second load: %+v; want one memory hit and 2 loads", st)
	}
}

// TestMemoryBudgetBound: the resident bytes never exceed the budget;
// the least recently used trace goes first.
func TestMemoryBudgetBound(t *testing.T) {
	ks := memKeys(5)
	calls := 0
	one := recordAndLoad(t, disptrace.NewCache(t.TempDir()), ks[0], &calls).Arena().Bytes()
	if one <= 0 {
		t.Fatalf("trace weighs %d bytes", one)
	}

	c := disptrace.NewCache(t.TempDir())
	budget := 2*one + one/2
	disptrace.SetMemoryBudget(c, budget)
	for i, k := range ks {
		recordAndLoad(t, c, k, &calls)
		st := c.Stats()
		if st.MemoryBytes > budget {
			t.Fatalf("after %d traces: %d resident bytes, budget %d", i+1, st.MemoryBytes, budget)
		}
		if !disptrace.InMemory(c, k.ID()) {
			t.Fatalf("trace %d not kept", i)
		}
	}
	st := c.Stats()
	if st.MemoryBytes != 2*one || st.MemoryEvictions != uint64(len(ks)-2) {
		t.Fatalf("stats %+v; want %d bytes and %d evictions", st, 2*one, len(ks)-2)
	}
	for i, k := range ks[:len(ks)-2] {
		if disptrace.InMemory(c, k.ID()) {
			t.Errorf("least recently used trace %d still resident", i)
		}
	}
}

// TestMemoryOverBudget: a trace heavier than the whole budget is
// served, byte-identical, on every load but never kept.
func TestMemoryOverBudget(t *testing.T) {
	c := disptrace.NewCache(t.TempDir())
	disptrace.SetMemoryBudget(c, 1)
	k := healKey()
	calls := 0
	want, err := disptrace.ReplayMachine(recordAndLoad(t, c, k, &calls), cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		tr, err := c.LoadID(k.ID())
		if err != nil || tr == nil {
			t.Fatalf("load: %v, %v", tr, err)
		}
		if got, err := disptrace.ReplayMachine(tr, cpu.Celeron800); err != nil || got != want {
			t.Fatalf("over-budget trace replays %+v, %v; want %+v", got, err, want)
		}
	}
	st := c.Stats()
	if st.MemoryBytes != 0 || st.MemoryHits != 0 || st.MemoryEvictions != 0 || disptrace.InMemory(c, k.ID()) {
		t.Fatalf("over-budget trace kept: %+v", st)
	}
	if st.Loads != 4 || calls != 1 {
		t.Fatalf("loads %d, recordings %d; want 4 and 1", st.Loads, calls)
	}
}

// TestMemoryQuarantine is the heal story: a corrupt file that scrub
// or a metadata read quarantines takes its decoded trace out of
// memory with it, and the next request re-records from clean
// simulation and decodes into memory again.
func TestMemoryQuarantine(t *testing.T) {
	for _, via := range []string{"scrub", "meta"} {
		t.Run(via, func(t *testing.T) {
			dir := t.TempDir()
			c := disptrace.NewCache(dir)
			k := healKey()
			calls := 0
			want, err := disptrace.ReplayMachine(recordAndLoad(t, c, k, &calls), cpu.Celeron800)
			if err != nil {
				t.Fatal(err)
			}

			// Memory would keep serving its verified copy; scrub and
			// the checksummed metadata read inspect the disk and must
			// drop that copy with the quarantined file.
			path := c.Path(k)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0x40
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if via == "scrub" {
				rep, err := c.Scrub()
				if err != nil || rep.Quarantined != 1 {
					t.Fatalf("scrub: %+v, %v", rep, err)
				}
			} else if _, _, err := c.MetaID(k.ID()); !errors.Is(err, disptrace.ErrNoTrace) {
				t.Fatalf("MetaID on a corrupt file: err=%v", err)
			}
			if got := quarantineFiles(t, dir); len(got) != 1 {
				t.Fatalf("quarantine sidecar holds %v, want one file", got)
			}
			if st := c.Stats(); st.MemoryBytes != 0 || disptrace.InMemory(c, k.ID()) {
				t.Fatalf("quarantine left the trace in memory: %+v", st)
			}

			tr := recordAndLoad(t, c, k, &calls)
			if calls != 2 {
				t.Fatalf("recorder ran %d times, want 2", calls)
			}
			if !disptrace.InMemory(c, k.ID()) {
				t.Fatal("healed trace not back in memory")
			}
			if got, err := disptrace.ReplayMachine(tr, cpu.Celeron800); err != nil || got != want {
				t.Fatalf("healed replay %+v, %v; want %+v", got, err, want)
			}
		})
	}
}

// TestMemoryLoadIDDeletedFile: a by-ID load is a memory hit only while
// the file exists, so a deleted trace reports ErrNoTrace even though
// memory still holds it.
func TestMemoryLoadIDDeletedFile(t *testing.T) {
	c := disptrace.NewCache(t.TempDir())
	k := healKey()
	calls := 0
	if _, _, err := c.GetOrRecord(k, healRecorder(k, &calls)); err != nil {
		t.Fatal(err)
	}
	c = disptrace.NewCache(c.Dir)
	tr, err := c.LoadID(k.ID())
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.LoadID(k.ID())
	if err != nil || again != tr {
		t.Fatalf("second LoadID: %p, %v; want %p", again, err, tr)
	}
	if st := c.Stats(); st.MemoryHits != 1 {
		t.Fatalf("second LoadID was no memory hit: %+v", st)
	}
	if err := os.Remove(c.Path(k)); err != nil {
		t.Fatal(err)
	}
	if !disptrace.InMemory(c, k.ID()) {
		t.Fatal("memory dropped the trace before the check")
	}
	if _, err := c.LoadID(k.ID()); !errors.Is(err, disptrace.ErrNoTrace) {
		t.Fatalf("LoadID of a deleted file: err=%v, want ErrNoTrace", err)
	}
}

// TestMemoryHitReplayAllocs: a trace served from memory is the decoded
// trace itself, and replaying it into a simulator performs zero
// allocations: the dictionary and ID stream are applied by reference,
// with no decode buffers and no sink bookkeeping.
func TestMemoryHitReplayAllocs(t *testing.T) {
	pair := tracePairs(t)[0]
	s := harness.NewTestSuite()
	s.ScaleDiv = 40
	rec, _, err := s.RecordTrace(pair.w, pair.v, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	h := rec.Header
	k := disptrace.Key{Workload: h.Workload, Lang: h.Lang, Variant: h.Variant,
		Technique: h.Technique, Scale: h.Scale, ScaleDiv: h.ScaleDiv,
		MaxSteps: h.MaxSteps, ISAHash: h.ISAHash}
	c := disptrace.NewCache(t.TempDir())
	if _, _, err := c.GetOrRecord(k, func() (*disptrace.Trace, error) { return rec, nil }); err != nil {
		t.Fatal(err)
	}
	c = disptrace.NewCache(c.Dir)
	decoded, err := c.LoadID(k.ID())
	if err != nil || decoded == nil {
		t.Fatalf("disk load: %v, %v", decoded, err)
	}
	hit, err := c.LoadID(k.ID())
	if err != nil || hit != decoded {
		t.Fatalf("memory hit returned %p, %v; want the decoded trace %p", hit, err, decoded)
	}
	if st := c.Stats(); st.MemoryHits != 1 || st.Loads != 2 {
		t.Fatalf("stats %+v; want one memory hit", st)
	}

	sims := []*cpu.Sim{cpu.NewSim(cpu.Celeron800)}
	if err := disptrace.ReplayEach(context.Background(), hit, sims); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := disptrace.ReplayEach(context.Background(), hit, sims); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("replay of a memory hit allocates %.1f times per run, want 0", allocs)
	}

	// Reusing one sim via Reset across replays of the memory hit
	// matches a fresh-sim replay of the writer's trace exactly: the
	// shape the serving tier relies on.
	want, err := disptrace.ReplayMachine(rec, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	sims[0].Reset()
	if err := disptrace.ReplayEach(context.Background(), hit, sims); err != nil {
		t.Fatal(err)
	}
	if sims[0].C != want {
		t.Fatalf("reset-reuse replay diverged: %+v vs %+v", sims[0].C, want)
	}
}

// TestMemoryMismatchedRecording: a recording whose header names another
// key is served to its caller but never kept, so memory holds only
// traces that hash back to their ID.
func TestMemoryMismatchedRecording(t *testing.T) {
	c := disptrace.NewCache(t.TempDir())
	k, other := healKey(), healKey()
	other.Scale++
	calls := 0
	tr, recorded, err := c.GetOrRecord(k, healRecorder(other, &calls))
	if err != nil || !recorded || tr == nil {
		t.Fatalf("record: %v, recorded=%v, err=%v", tr, recorded, err)
	}
	if st := c.Stats(); st.MemoryBytes != 0 || disptrace.InMemory(c, k.ID()) {
		t.Fatalf("mismatched recording kept in memory: %+v", st)
	}
}
