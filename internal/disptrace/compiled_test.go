package disptrace_test

import (
	"os"
	"slices"
	"testing"

	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/harness"
	"vmopt/internal/metrics"
)

// compiledPair round-trips a trace through the wire format (the exact
// form the cache serves) and returns two independent decodes: one
// plain and one compiled, as the compiled tier holds it.
func compiledPair(t *testing.T, w interface{ Encode() []byte }) (dec, comp *disptrace.Trace) {
	t.Helper()
	wire := w.Encode()
	var err error
	if dec, err = disptrace.Decode(wire); err != nil {
		t.Fatal(err)
	}
	if comp, err = disptrace.Decode(wire); err != nil {
		t.Fatal(err)
	}
	a, err := comp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if comp.Compiled() != a {
		t.Fatal("Compile did not attach the arena")
	}
	if a != comp.Arena() {
		t.Fatal("Compile copied the resident form instead of returning it")
	}
	if dec.Compiled() != nil {
		t.Fatal("a plain decode reports itself compiled")
	}
	if uint64(a.Insts()) != comp.Header.VMInstructions {
		t.Fatalf("arena indexes %d instructions, header declares %d", a.Insts(), comp.Header.VMInstructions)
	}
	if a.DictSteps() == 0 || a.Bytes() <= 0 {
		t.Fatalf("degenerate arena: %d steps, %d bytes", a.DictSteps(), a.Bytes())
	}
	return dec, comp
}

// TestCompiledReplayEquivalence: a trace the compiled tier holds
// replays byte-identically to direct simulation — float cycle order
// included — on every machine, for single-sim and broadcast replays
// alike.
func TestCompiledReplayEquivalence(t *testing.T) {
	machines := benchMachines()
	for _, pair := range tracePairs(t) {
		s := harness.NewTestSuite()
		s.ScaleDiv = 40
		tr, _, err := s.RecordTrace(pair.w, pair.v, machines[0])
		if err != nil {
			t.Fatalf("%s/%s: record: %v", pair.w.Name, pair.v.Name, err)
		}
		_, comp := compiledPair(t, tr)
		direct := make([]metrics.Counters, len(machines))
		for i, m := range machines {
			if direct[i], err = s.Run(pair.w, pair.v, m); err != nil {
				t.Fatalf("%s/%s on %s: direct: %v", pair.w.Name, pair.v.Name, m.Name, err)
			}
			got, err := disptrace.ReplayMachine(comp, m)
			if err != nil {
				t.Fatalf("%s/%s on %s: compiled replay: %v", pair.w.Name, pair.v.Name, m.Name, err)
			}
			if got != direct[i] {
				t.Errorf("%s/%s on %s: compiled replay diverged:\n  direct   %+v\n  compiled %+v",
					pair.w.Name, pair.v.Name, m.Name, direct[i], got)
			}
		}
		// Broadcast replay: one pass into N sims must match N direct
		// runs.
		sims := make([]*cpu.Sim, len(machines))
		for i, m := range machines {
			sims[i] = cpu.NewSim(m)
		}
		if err := disptrace.ReplayEach(comp, sims); err != nil {
			t.Fatalf("%s/%s: compiled ReplayEach: %v", pair.w.Name, pair.v.Name, err)
		}
		for i, m := range machines {
			if sims[i].C != direct[i] {
				t.Errorf("%s/%s on %s: compiled broadcast diverged:\n  direct   %+v\n  compiled %+v",
					pair.w.Name, pair.v.Name, m.Name, direct[i], sims[i].C)
			}
		}
	}
}

// TestCompiledCursorEquivalence drives cursors over a compiled and a
// plain decode of the same trace through every access pattern
// — full step walks, batch walks, seeks in both directions, and mixed
// step/batch iteration — and requires identical streams.
func TestCompiledCursorEquivalence(t *testing.T) {
	pair := tracePairs(t)[0]
	s := harness.NewTestSuite()
	s.ScaleDiv = 40
	tr, _, err := s.RecordTrace(pair.w, pair.v, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	dec, comp := compiledPair(t, tr)

	steps := func(c *disptrace.Cursor, n int) (idx []uint64, ops [][]cpu.Op) {
		for n != 0 {
			st, ok := c.Next()
			if !ok {
				break
			}
			idx = append(idx, st.Index)
			ops = append(ops, append([]cpu.Op(nil), st.Ops...))
			n--
		}
		if c.Err() != nil {
			t.Fatal(c.Err())
		}
		return idx, ops
	}
	compare := func(what string, wi, gi []uint64, wo, go_ [][]cpu.Op) {
		t.Helper()
		if !slices.Equal(wi, gi) {
			t.Fatalf("%s: instruction indexes diverged: decode %d steps, compiled %d steps", what, len(wi), len(gi))
		}
		for i := range wo {
			if !slices.Equal(wo[i], go_[i]) {
				t.Fatalf("%s: step %d ops diverged:\n  decode   %v\n  compiled %v", what, wi[i], wo[i], go_[i])
			}
		}
	}

	// Full step walk.
	wi, wo := steps(disptrace.NewCursor(dec), -1)
	gi, g := steps(disptrace.NewCursor(comp), -1)
	if uint64(len(wi)) != dec.Header.VMInstructions {
		t.Fatalf("decode walk saw %d steps, header declares %d", len(wi), dec.Header.VMInstructions)
	}
	compare("full walk", wi, gi, wo, g)

	// Full batch walk: same batches at the same boundaries.
	wc, gc := disptrace.NewCursor(dec), disptrace.NewCursor(comp)
	for batch := 0; ; batch++ {
		wb, wok := wc.NextBatch(nil)
		gb, gok := gc.NextBatch(nil)
		if wok != gok {
			t.Fatalf("batch %d: decode ok=%v, compiled ok=%v", batch, wok, gok)
		}
		if !wok {
			break
		}
		if !slices.Equal(wb, gb) {
			t.Fatalf("batch %d diverged: decode %d ops, compiled %d ops", batch, len(wb), len(gb))
		}
	}
	if wc.Err() != nil || gc.Err() != nil {
		t.Fatal(wc.Err(), gc.Err())
	}

	// Seeks: forward, backward, boundaries, and past-end, each followed
	// by a short step walk.
	n := dec.Header.VMInstructions
	for _, inst := range []uint64{0, 1, n / 3, n / 2, n - 1, n/3 + 1, 0, n - 1} {
		wc, gc := disptrace.NewCursor(dec), disptrace.NewCursor(comp)
		if err := wc.Seek(inst); err != nil {
			t.Fatal(err)
		}
		if err := gc.Seek(inst); err != nil {
			t.Fatal(err)
		}
		wi, wo := steps(wc, 8)
		gi, g := steps(gc, 8)
		compare("seek", wi, gi, wo, g)
	}
	wc, gc = disptrace.NewCursor(dec), disptrace.NewCursor(comp)
	if err := wc.Seek(n + 5); err != nil {
		t.Fatal(err)
	}
	if err := gc.Seek(n + 5); err != nil {
		t.Fatal(err)
	}
	if _, ok := wc.Next(); ok {
		t.Fatal("decode cursor stepped past the end")
	}
	if _, ok := gc.Next(); ok {
		t.Fatal("compiled cursor stepped past the end")
	}

	// Mixed pattern: steps, then a batch, repeated.
	wc, gc = disptrace.NewCursor(dec), disptrace.NewCursor(comp)
	for round := 0; ; round++ {
		wi, wo := steps(wc, 3)
		gi, g := steps(gc, 3)
		compare("mixed steps", wi, gi, wo, g)
		wb, wok := wc.NextBatch(nil)
		gb, gok := gc.NextBatch(nil)
		if wok != gok {
			t.Fatalf("mixed round %d: decode ok=%v, compiled ok=%v", round, wok, gok)
		}
		if !wok {
			break
		}
		if !slices.Equal(wb, gb) {
			t.Fatalf("mixed round %d batch diverged: decode %d ops, compiled %d ops", round, len(wb), len(gb))
		}
	}

	// A seek must also land correctly after batch iteration advanced
	// the cursor.
	wc, gc = disptrace.NewCursor(dec), disptrace.NewCursor(comp)
	wc.NextBatch(nil)
	gc.NextBatch(nil)
	if err := wc.Seek(n / 2); err != nil {
		t.Fatal(err)
	}
	if err := gc.Seek(n / 2); err != nil {
		t.Fatal(err)
	}
	wi, wo = steps(wc, 5)
	gi, g = steps(gc, 5)
	compare("seek after batch", wi, gi, wo, g)
}

// TestCompiledTierThreshold: the tier compiles on the Nth disk load —
// recording does not count — and serves every later load from memory,
// even after the backing file disappears.
func TestCompiledTierThreshold(t *testing.T) {
	dir := t.TempDir()
	c := disptrace.NewCache(dir)
	c.Compiled = disptrace.NewCompiledTier(64<<20, 2)
	k := healKey()
	calls := 0
	record := healRecorder(k, &calls)

	if _, recorded, err := c.GetOrRecord(k, record); err != nil || !recorded {
		t.Fatalf("record: err=%v recorded=%v", err, recorded)
	}
	if st := c.CompiledStats(); st.Builds != 0 || st.Arenas != 0 {
		t.Fatalf("recording alone must not compile: %+v", st)
	}
	if _, recorded, err := c.GetOrRecord(k, record); err != nil || recorded {
		t.Fatalf("load 1: err=%v recorded=%v", err, recorded)
	}
	if st := c.CompiledStats(); st.Builds != 0 {
		t.Fatalf("compiled below threshold: %+v", st)
	}
	tr, recorded, err := c.GetOrRecord(k, record)
	if err != nil || recorded {
		t.Fatalf("load 2: err=%v recorded=%v", err, recorded)
	}
	st := c.CompiledStats()
	if st.Builds != 1 || st.Arenas != 1 || st.Bytes <= 0 {
		t.Fatalf("load 2 should compile: %+v", st)
	}
	if tr.Compiled() == nil {
		t.Fatal("the threshold-crossing load itself should be the compiled trace")
	}

	// From here the tier serves without the disk: remove the file and
	// the trace still loads, byte-identical.
	want, err := disptrace.ReplayMachine(tr, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(c.Path(k)); err != nil {
		t.Fatal(err)
	}
	tr2, recorded, err := c.GetOrRecord(k, record)
	if err != nil || recorded {
		t.Fatalf("tier hit after file removal: err=%v recorded=%v", err, recorded)
	}
	if st := c.CompiledStats(); st.Hits == 0 {
		t.Fatalf("no tier hit recorded: %+v", st)
	}
	if calls != 1 {
		t.Fatalf("recorder ran %d times, want 1", calls)
	}
	got, err := disptrace.ReplayMachine(tr2, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("tier-served replay diverged: %+v vs %+v", got, want)
	}
}

// TestCompiledTierEviction: the byte budget is a hard bound — the
// least recently used arena is displaced when a new build would
// overflow it, and an arena that alone exceeds the budget is refused
// (once; the tier never retries a trace it cannot hold).
func TestCompiledTierEviction(t *testing.T) {
	k1 := healKey()
	k2 := healKey()
	k2.Scale = k1.Scale + 1
	calls := 0

	// First pass with an effectively unlimited budget to learn the two
	// entries' accounted sizes.
	probe := disptrace.NewCache(t.TempDir())
	probe.Compiled = disptrace.NewCompiledTier(1<<30, 1)
	for _, k := range []disptrace.Key{k1, k2} {
		if _, _, err := probe.GetOrRecord(k, healRecorder(k, &calls)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := probe.GetOrRecord(k, healRecorder(k, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	both := probe.CompiledStats()
	if both.Arenas != 2 || both.Bytes <= 0 {
		t.Fatalf("probe tier: %+v", both)
	}

	// A budget one byte short of both forces an eviction on the second
	// build.
	c := disptrace.NewCache(t.TempDir())
	c.Compiled = disptrace.NewCompiledTier(both.Bytes-1, 1)
	for _, k := range []disptrace.Key{k1, k2} {
		if _, _, err := c.GetOrRecord(k, healRecorder(k, &calls)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.GetOrRecord(k, healRecorder(k, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.CompiledStats()
	if st.Builds != 2 || st.Evictions != 1 || st.Arenas != 1 {
		t.Fatalf("eviction tier: %+v", st)
	}
	if c.Compiled.Get(k1.ID()) != nil {
		t.Fatal("LRU victim still resident")
	}
	if c.Compiled.Get(k2.ID()) == nil {
		t.Fatal("most recent arena evicted instead of the LRU one")
	}

	// An arena bigger than the whole budget is refused and marked so
	// later loads do not retry the build.
	tiny := disptrace.NewCache(t.TempDir())
	tiny.Compiled = disptrace.NewCompiledTier(1, 1)
	for i := 0; i < 3; i++ {
		if _, _, err := tiny.GetOrRecord(k1, healRecorder(k1, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	st = tiny.CompiledStats()
	if st.Builds != 0 || st.Arenas != 0 || st.BuildErrors != 1 {
		t.Fatalf("over-budget arena: %+v", st)
	}
}

// TestCompiledInvalidation is the heal story: corrupting a cached
// trace and scrubbing drops its arena with the quarantined file, and
// the next request rebuilds both from a clean re-simulation.
func TestCompiledInvalidation(t *testing.T) {
	dir := t.TempDir()
	c := disptrace.NewCache(dir)
	c.Compiled = disptrace.NewCompiledTier(64<<20, 1)
	k := healKey()
	calls := 0
	record := healRecorder(k, &calls)

	if _, recorded, err := c.GetOrRecord(k, record); err != nil || !recorded {
		t.Fatalf("record: err=%v recorded=%v", err, recorded)
	}
	tr, _, err := c.GetOrRecord(k, record)
	if err != nil {
		t.Fatal(err)
	}
	if c.CompiledStats().Arenas != 1 {
		t.Fatal("first load with after=1 should compile")
	}
	want, err := disptrace.ReplayMachine(tr, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the cached file. The arena would happily keep
	// serving the verified in-memory copy; scrub inspects the disk,
	// quarantines the corruption, and must take the arena down with it.
	path := c.Path(k)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 {
		t.Fatalf("scrub quarantined %d files, want 1", rep.Quarantined)
	}
	if got := quarantineFiles(t, dir); len(got) != 1 {
		t.Fatalf("quarantine sidecar holds %v, want one file", got)
	}
	if st := c.CompiledStats(); st.Arenas != 0 {
		t.Fatalf("scrub left the arena resident: %+v", st)
	}
	if c.Compiled.Get(k.ID()) != nil {
		t.Fatal("invalidated arena still served")
	}

	// The next request starts cold: re-records cleanly, then re-earns
	// its arena, and the healed replay is byte-identical.
	tr2, recorded, err := c.GetOrRecord(k, record)
	if err != nil || !recorded {
		t.Fatalf("heal: err=%v recorded=%v", err, recorded)
	}
	if calls != 2 {
		t.Fatalf("recorder ran %d times, want 2", calls)
	}
	tr3, recorded, err := c.GetOrRecord(k, record)
	if err != nil || recorded {
		t.Fatalf("post-heal load: err=%v recorded=%v", err, recorded)
	}
	if st := c.CompiledStats(); st.Arenas != 1 || st.Builds != 2 {
		t.Fatalf("healed entry did not re-earn its arena: %+v", st)
	}
	for _, tr := range []*disptrace.Trace{tr2, tr3} {
		got, err := disptrace.ReplayMachine(tr, cpu.Celeron800)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("healed replay diverged: %+v vs %+v", got, want)
		}
	}
}

// TestCompiledReplayAllocs: serving a compiled single-sim replay
// performs zero allocations — the dictionary and ID stream are
// applied by reference, with no decode buffers and no sink
// bookkeeping.
func TestCompiledReplayAllocs(t *testing.T) {
	pair := tracePairs(t)[0]
	s := harness.NewTestSuite()
	s.ScaleDiv = 40
	tr, _, err := s.RecordTrace(pair.w, pair.v, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	_, comp := compiledPair(t, tr)
	sims := []*cpu.Sim{cpu.NewSim(cpu.Celeron800)}
	if err := disptrace.ReplayEach(comp, sims); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := disptrace.ReplayEach(comp, sims); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("compiled replay allocates %.1f times per run, want 0", allocs)
	}

	// Reusing one sim via Reset across compiled replays matches a
	// fresh-sim replay of the writer's trace exactly — the shape the
	// benchmark and the serving tier rely on.
	want, err := disptrace.ReplayMachine(tr, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	sims[0].Reset()
	if err := disptrace.ReplayEach(comp, sims); err != nil {
		t.Fatal(err)
	}
	if sims[0].C != want {
		t.Fatalf("reset-reuse replay diverged: %+v vs %+v", sims[0].C, want)
	}
}
