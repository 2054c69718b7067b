package cpu

import (
	"math"
	"math/rand"
	"testing"

	"vmopt/internal/steptok"
)

// applyStepsRef is the per-op replay loop lowering replaced: each
// step's dictionary entry through Apply, event by event. ApplySteps
// must leave every counter and all predictor and I-cache state exactly
// as it does.
func (s *Sim) applyStepsRef(dict [][]Op, ids []uint32) {
	for _, id := range ids {
		s.Apply(dict[id])
	}
}

// tinyICache has 4 sets of 2 ways with 32-byte lines, so a fetch of
// 128 bytes or more spans every set and set conflicts inside one
// entry are frequent.
var tinyICache = Machine{
	Name:      "tiny-icache",
	Predictor: PredictBTB, BTBEntries: 64, BTBWays: 2,
	ICacheBytes: 256, ICacheLine: 32, ICacheWays: 2,
	MispredictPenalty: 10, ICacheMissPenalty: 10,
	CPI: 0.7, ClockMHz: 800,
}

// lowerMachines covers every predictor kind, a small BTB and the tiny
// I-cache.
func lowerMachines() []Machine {
	return []Machine{
		Celeron800,
		Pentium4Northwood,
		PentiumM,
		Celeron800.WithPredictor(PredictBTB2bc),
		Celeron800.WithPredictor(PredictCaseBlock),
		Celeron800.WithBTBEntries(64),
		tinyICache,
	}
}

// randomDict builds a seeded step dictionary for machine m's I-cache
// geometry. Besides the shapes core.Run emits, with dispatch fetches
// inside and outside the step's fetched lines, its entries hold
// re-fetches: multi-line fetches and their sub-ranges, two different
// lines of one set, fetches wider than the set count, size-0,
// negative-size and wrapping fetches, and random op soups.
func randomDict(r *rand.Rand, m Machine, entries int) [][]Op {
	line := uint64(m.ICacheLine)
	stride := uint64(m.ICacheBytes / m.ICacheWays) // one set's period
	// Addresses stay within a few set periods, so sets fill and evict.
	addr := func() uint64 { return 0x10000 + uint64(r.Intn(int(4*stride))) }
	work := func() Op { return Op{Kind: OpWork, A: uint64(r.Intn(40))} }
	fetch := func(a uint64, size int) Op { return Op{Kind: OpFetch, A: a, B: uint64(size)} }
	dispatch := func(br uint64) Op {
		return Op{Kind: OpDispatch, A: br, B: uint64(r.Intn(8)), C: addr() &^ 3}
	}
	dict := make([][]Op, entries)
	for k := range dict {
		a := addr()
		size := 1 + r.Intn(int(3*line))
		// A dispatch branch inside the fetched range: its fetch hits
		// unless it runs past the range.
		br := a + uint64(r.Intn(size))
		var e []Op
		switch r.Intn(14) {
		case 0: // the empty step
		case 1, 2: // a dispatching step
			e = []Op{work(), fetch(a, size), work(), fetch(br, 4+r.Intn(8)), dispatch(br)}
		case 3: // a fall-through inside a superinstruction
			e = []Op{work(), fetch(a, size), work()}
		case 4: // the dispatch fetch elsewhere
			b := addr()
			e = []Op{work(), fetch(a, size), work(), fetch(b, 4), dispatch(b)}
		case 5: // two lines of one set, then the first again
			e = []Op{work(), fetch(a, 8), fetch(a+stride, 8), work(), fetch(a, 8), dispatch(a)}
		case 6: // the same, with the conflicting line fetched in between
			e = []Op{fetch(a, 8), work(), fetch(a+stride*uint64(1+r.Intn(3)), size), fetch(a+4, 4), dispatch(a)}
		case 7: // a fetch wider than the set count, then parts of it
			wide := int(stride) + r.Intn(int(2*stride))
			e = []Op{work(), fetch(a, wide), fetch(a, 8), fetch(a+uint64(wide)-8, 8), work(), dispatch(a)}
		case 8: // fetches Touch ignores, around real ones
			e = []Op{work(), fetch(a, 0), fetch(a, size), fetch(math.MaxUint64-8, 64),
				Op{Kind: OpFetch, A: a, B: 1 << 63}, work(), fetch(br, 4), dispatch(br)}
		case 9: // a quickening step: extra work first
			e = []Op{work(), work(), fetch(a, size), work(), fetch(br, 4), dispatch(br)}
		case 10: // a halt step: no dispatch
			e = []Op{work(), fetch(a, size)}
		case 11: // a dispatching step whose first fetch is wider than the set count
			wide := int(stride) + r.Intn(int(2*stride))
			e = []Op{work(), fetch(a, wide), work(), fetch(a+uint64(r.Intn(wide)), 4), dispatch(a)}
		case 12: // a re-fetch of the step's line after its dispatch
			e = []Op{work(), fetch(a, size), work(), fetch(br, 4), dispatch(br), fetch(a, 1)}
		default: // a random soup
			for range 1 + r.Intn(12) {
				switch r.Intn(4) {
				case 0:
					e = append(e, work())
				case 1:
					e = append(e, fetch(a, 1+r.Intn(int(2*line))))
				case 2:
					a = addr()
					e = append(e, fetch(a, r.Intn(int(3*line))))
				default:
					e = append(e, dispatch(a))
				}
			}
		}
		dict[k] = e
	}
	return dict
}

// randomIDs draws n step IDs, mostly repeating short runs as an
// interpreter loop does.
func randomIDs(r *rand.Rand, entries, n int) []uint32 {
	ids := make([]uint32, 0, n)
	for len(ids) < n {
		run := make([]uint32, 1+r.Intn(6))
		for i := range run {
			run[i] = uint32(r.Intn(entries))
		}
		for range 1 + r.Intn(5) {
			ids = append(ids, run...)
		}
	}
	return ids[:n]
}

// TestApplyStepsMatchesReference: lowered replay must leave counters,
// I-cache and predictor state bit-identical to the per-op loop, on
// every predictor kind and I-cache geometry, across repeated calls on
// one sim (whose buffers lowering reuses).
func TestApplyStepsMatchesReference(t *testing.T) {
	for _, m := range lowerMachines() {
		for seed := int64(1); seed <= 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			got, want := NewSim(m), NewSim(m)
			for call := range 3 {
				dict := randomDict(r, m, 1+r.Intn(40))
				ids := randomIDs(r, len(dict), 2000)
				got.ApplySteps(dict, steptok.Encode(ids))
				want.applyStepsRef(dict, ids)
				if !got.SameState(want) {
					t.Fatalf("%s seed %d call %d: lowered replay diverged:\n  got  %+v (I-cache %d/%d)\n  want %+v (I-cache %d/%d)",
						m.Name, seed, call, got.C, got.ic.Accesses, got.ic.Misses, want.C, want.ic.Accesses, want.ic.Misses)
				}
			}
		}
	}
}

// fitICache has 8 sets of 4 ways with 32-byte lines. randomDict keeps
// its addresses within four set periods, one line per way, so a small
// dictionary often fits it and a larger one, or one with a fetch
// wider than a set period, often does not. Its BTB has 32 sets of 2
// ways, which randomDict's dispatches, spread over 4 KiB, overflow now
// and then.
var fitICache = Machine{
	Name:      "fit-icache",
	Predictor: PredictBTB, BTBEntries: 64, BTBWays: 2,
	ICacheBytes: 1024, ICacheLine: 32, ICacheWays: 4,
	MispredictPenalty: 10, ICacheMissPenalty: 10,
	CPI: 0.7, ClockMHz: 800,
}

// TestApplyStepsResidentPath checks ApplySteps' resident mode against
// the per-op loop, LRU order and BTB state included, over runs of
// calls on one sim so that lines and branches stay resident from one
// call to the next. Each run ends with three dictionaries that cannot
// stay resident: one naming more lines of an I-cache set than it has
// ways, one with a fetch wider than the I-cache, and one dispatching
// through more branches of a BTB set than it has ways. Calls that keep
// both halves of the mode to the end and calls that stop each half
// must all be taken many times.
func TestApplyStepsResidentPath(t *testing.T) {
	m := fitICache
	line := uint64(m.ICacheLine)
	stride := uint64(m.ICacheBytes / m.ICacheWays)
	w := Op{Kind: OpWork, A: 3}
	f := func(a, size uint64) Op { return Op{Kind: OpFetch, A: a, B: size} }
	d := func(br uint64) Op { return Op{Kind: OpDispatch, A: br, B: 1, C: 0x2000} }
	overflow := [][]Op{{w, f(0x10000, 4), w, f(0x10000+stride, 4), d(0x10000 + stride)}}
	for k := uint64(2); k <= uint64(m.ICacheWays); k++ {
		overflow = append(overflow, []Op{w, f(0x10000+k*stride, 8), w, f(0x10000, 4), d(0x10000)})
	}
	wide := [][]Op{
		{w, f(0x10000, 8), w, f(0x10000, 4), d(0x10000)},
		{w, f(0x10000, uint64(m.ICacheBytes)+line), w, f(0x10000, 4), d(0x10000)},
	}
	// Branches 128 bytes apart share a set of the 32-set BTB.
	btbSet := uint64(4 * m.BTBEntries / m.BTBWays)
	var branches [][]Op
	for k := range uint64(m.BTBWays) + 1 {
		br := 0x10000 + k*btbSet
		branches = append(branches, []Op{w, f(0x10000, 4), w, f(br, 4), d(br)})
	}
	var kept, icacheExits, btbExits int
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		got, want := NewSim(m), NewSim(m)
		for call := range 7 {
			dict := randomDict(r, m, 1+r.Intn(12))
			switch call {
			case 4:
				dict = overflow
			case 5:
				dict = wide
			case 6:
				dict = branches
			}
			ids := randomIDs(r, len(dict), 1000)
			before := got.ResidentExits()
			got.ApplySteps(dict, steptok.Encode(ids))
			want.applyStepsRef(dict, ids)
			exits := got.ResidentExits()
			leftICache, leftBTB := exits.ICache > before.ICache, exits.BTB > before.BTB
			if (call == 4 || call == 5) && !leftICache || call == 6 && !leftBTB {
				t.Fatalf("seed %d call %d: a dictionary that cannot stay resident did (exits %+v, before %+v)", seed, call, exits, before)
			}
			if leftICache {
				icacheExits++
			}
			if leftBTB {
				btbExits++
			}
			if !leftICache && !leftBTB {
				kept++
			}
			if !got.SameState(want) {
				t.Fatalf("seed %d call %d (exits %+v, before %+v): replay diverged:\n  got  %+v (I-cache %d/%d)\n  want %+v (I-cache %d/%d)",
					seed, call, exits, before, got.C, got.ic.Accesses, got.ic.Misses, want.C, want.ic.Accesses, want.ic.Misses)
			}
		}
	}
	if kept < 40 || icacheExits < 120 || btbExits < 60 {
		t.Errorf("%d calls stayed resident, %d left the I-cache half and %d the BTB half; want at least 40, 120 and 60",
			kept, icacheExits, btbExits)
	}
}

// TestResidentExitAtSecondFetch stops the I-cache half at a step's
// second fetch, after its first has hit a line whose set the span's
// warm steps have reordered: restoring the span's order must leave
// that line most recent, so the second fetch evicts the line the full
// model evicts. Set 0 of the tiny I-cache holds lines 0 and 4 (2
// ways); line 8 is a third.
func TestResidentExitAtSecondFetch(t *testing.T) {
	w := Op{Kind: OpWork, A: 2}
	f := func(a uint64) Op { return Op{Kind: OpFetch, A: a, B: 4} }
	dict := [][]Op{
		{w, f(0x000), w},
		{w, f(0x080), w},
		{w, f(0x000), w, f(0x100), {Kind: OpDispatch, A: 0x100, B: 1, C: 0x40}},
	}
	ids := []uint32{0, 1, 0, 1, 2, 0, 1}
	got, want := NewSim(tinyICache), NewSim(tinyICache)
	got.ApplySteps(dict, steptok.Encode(ids))
	want.applyStepsRef(dict, ids)
	if got.ResidentExits().ICache != 1 {
		t.Fatalf("resident exits %+v, want one of the I-cache half", got.ResidentExits())
	}
	if !got.SameState(want) {
		t.Fatalf("replay diverged:\n  got  %+v (I-cache %d/%d)\n  want %+v (I-cache %d/%d)",
			got.C, got.ic.Accesses, got.ic.Misses, want.C, want.ic.Accesses, want.ic.Misses)
	}
}

// tinyBTB has a 4-set, 2-way BTB and the tiny I-cache: randomDict's
// dispatches overflow both, so the resident mode stops mid-call.
var tinyBTB = Machine{
	Name:      "tiny-btb",
	Predictor: PredictBTB, BTBEntries: 8, BTBWays: 2,
	ICacheBytes: 256, ICacheLine: 32, ICacheWays: 2,
	MispredictPenalty: 10, ICacheMissPenalty: 10,
	CPI: 0.7, ClockMHz: 800,
}

// TestRunStepMatchesReference drives the sim's table of steps as
// core.Run does: steps lowered with their dispatch's hint and target
// blank, each run through Warm and Predict or else RunStep, taking a
// fresh destination on each run, an entry of no fixed shape or now and
// then any entry through Apply after a Sync (core.Run's per-event
// steps), and now and then the table begun anew (a quickening).
// Counters, I-cache and predictor state must match Apply over the
// entries with the destinations filled in, on every machine, and the
// resident mode must stop both halves on the tiny ones. The same must
// hold with both halves of the mode turned off before the first step,
// where RunStep runs every step through the I-cache model and the
// predictor.
func TestRunStepMatchesReference(t *testing.T) {
	for _, off := range []bool{false, true} {
		name := "resident"
		if off {
			name = "halves off"
		}
		t.Run(name, func(t *testing.T) { testRunStep(t, off) })
	}
}

func testRunStep(t *testing.T, off bool) {
	var exits Exits
	for _, m := range append(lowerMachines(), fitICache, tinyBTB) {
		for seed := int64(1); seed <= 10; seed++ {
			r := rand.New(rand.NewSource(seed))
			dict := randomDict(r, m, 1+r.Intn(40))
			got, want := NewSim(m), NewSim(m)
			ks := make([]uint32, len(dict))
			begin := func() {
				got.BeginSteps(len(dict))
				if off {
					got.leave(true, true)
				}
				for k, e := range dict {
					blank := append([]Op(nil), e...)
					for i := range blank {
						if blank[i].Kind == OpDispatch {
							blank[i].B, blank[i].C = 0, 0
						}
					}
					ks[k] = got.AddStep(blank)
				}
			}
			begin()
			for n, id := range randomIDs(r, len(dict), 3000) {
				e := append([]Op(nil), dict[id]...)
				hint, target := uint64(r.Intn(8)), uint64(r.Intn(1<<8))&^3
				for i := range e {
					if e[i].Kind == OpDispatch {
						e[i].B, e[i].C = hint, target
					}
				}
				switch {
				case n%500 == 499:
					got.Sync()
					begin()
					fallthrough
				case r.Intn(100) == 0:
					got.Sync()
					got.Apply(e)
				default:
					if st := got.Warm(ks[id]); st != nil {
						if off {
							t.Fatalf("%s seed %d: step %d warm with both halves off", m.Name, seed, id)
						}
						got.Predict(st, target)
					} else if !got.RunStep(ks[id], hint, target) {
						got.Sync()
						got.Apply(e)
					}
				}
				want.Apply(e)
			}
			got.Sync()
			if !got.SameState(want) {
				t.Fatalf("%s seed %d: steps diverged:\n  got  %+v\n  want %+v", m.Name, seed, got.C, want.C)
			}
			if m == tinyBTB {
				exits.ICache += got.ResidentExits().ICache
				exits.BTB += got.ResidentExits().BTB
			}
		}
	}
	if !off && (exits.ICache == 0 || exits.BTB == 0) {
		t.Errorf("on %s the resident mode left the I-cache half %d times and the BTB half %d times, want both above 0",
			tinyBTB.Name, exits.ICache, exits.BTB)
	}
}

// TestLowerStepShapes pins the lowering of the shapes core.Run emits
// on a Celeron (32-byte lines, 128 sets): each step's shape and the
// I-cache accesses a warm run charges. A dispatch fetch inside the
// step's fetched lines is fetched again, so a step charges as many
// accesses as it fetches lines; any other entry, or one whose counts
// overflow a Step's fields, lowers to the generic zero Step.
func TestLowerStepShapes(t *testing.T) {
	w := Op{Kind: OpWork, A: 3}
	f := func(a, size uint64) Op { return Op{Kind: OpFetch, A: a, B: size} }
	d := Op{Kind: OpDispatch, A: 0x1010, C: 0x2000}
	const stride = 128 * 32
	for _, c := range []struct {
		name  string
		entry []Op
		shape shape
		lines uint16
	}{
		{"inside", []Op{w, f(0x1000, 40), w, f(0x1010, 4), d}, shapeWFWFD, 3},
		{"second line", []Op{w, f(0x1000, 40), w, f(0x1020, 4), d}, shapeWFWFD, 3},
		{"outside", []Op{w, f(0x1000, 40), w, f(0x1040, 4), d}, shapeWFWFD, 3},
		{"two-line dispatch fetch", []Op{w, f(0x1000, 8), w, f(0x101e, 4), d}, shapeWFWFD, 3},
		{"fall-through", []Op{w, f(0x1000, 40), w}, shapeWFW, 2},
		{"256 lines", []Op{w, f(0x1000, 256*32), w}, shapeWFW, 256},
		{"max work", []Op{{Kind: OpWork, A: math.MaxUint32 - 3}, f(0x1000, 40), w}, shapeWFW, 2},
		{"empty", nil, shapeGeneric, 0},
		{"zero size", []Op{w, f(0x1000, 8), w, f(0x1000, 0), d}, shapeGeneric, 0},
		{"negative size", []Op{w, f(0x1000, 1<<63), w}, shapeGeneric, 0},
		{"wrapping", []Op{w, f(math.MaxUint64-8, 64), w, f(0x1000, 4), d}, shapeGeneric, 0},
		{"too much work", []Op{{Kind: OpWork, A: 1 << 33}, f(0x1000, 40), w, f(0x1040, 4), d}, shapeGeneric, 0},
		{"work sum too large", []Op{{Kind: OpWork, A: math.MaxUint32}, f(0x1000, 40), w}, shapeGeneric, 0},
		{"too wide", []Op{w, f(0x1000, 256*32+1), w, f(0x1000, 4), d}, shapeGeneric, 0},
		{"dispatch fetch too wide", []Op{w, f(0x1000, 8), w, f(0x1000, 256*32+1), d}, shapeGeneric, 0},
		{"extra re-fetch", []Op{w, f(0x1000, 40), w, f(0x1010, 4), d, f(0x1000, 1)}, shapeGeneric, 0},
		{"same set", []Op{w, f(0x1000, 8), f(0x1000+stride, 8), w, f(0x1000, 4), d}, shapeGeneric, 0},
		{"dispatch without fetch", []Op{w, f(0x1000, 8), w, d}, shapeGeneric, 0},
		{"work first missing", []Op{f(0x1000, 8), w, w, f(0x1000, 4), d}, shapeGeneric, 0},
	} {
		s := NewSim(Celeron800)
		st, ok := s.lowerStep(c.entry)
		if st.shape != c.shape || st.lines != c.lines || ok != (c.shape != shapeGeneric) {
			t.Errorf("%s: shape %d with %d lines (ok %v), want %d with %d", c.name, st.shape, st.lines, ok, c.shape, c.lines)
		}
		if c.shape == shapeGeneric && st != (Step{}) {
			t.Errorf("%s: generic step %+v, want the zero Step", c.name, st)
		}
	}
}

// TestApplyStepsReusesBuffers: lowering and the resident mode write
// into the sim's own buffers, the BTB half's table of last targets and
// branch index included, so only the first call on a sim allocates,
// whichever halves of the mode stay on, and a Reset keeps the buffers.
func TestApplyStepsReusesBuffers(t *testing.T) {
	for _, c := range []struct {
		m                   Machine
		leftICache, leftBTB bool
	}{
		{Celeron800, true, false},
		{PentiumM, false, false},
		{Pentium4Northwood, false, false},
		{tinyBTB, true, true},
	} {
		r := rand.New(rand.NewSource(7))
		dict := randomDict(r, c.m, 64)
		toks := steptok.Encode(randomIDs(r, len(dict), 500))
		s := NewSim(c.m)
		s.ApplySteps(dict, toks)
		if e := s.ResidentExits(); e.ICache > 0 != c.leftICache || e.BTB > 0 != c.leftBTB {
			t.Fatalf("%s: resident exits %+v, want the I-cache half left %v and the BTB half %v", c.m.Name, e, c.leftICache, c.leftBTB)
		}
		if n := testing.AllocsPerRun(10, func() { s.ApplySteps(dict, toks) }); n != 0 {
			t.Errorf("%s: ApplySteps allocates %v times per call on a warm sim, want 0", c.m.Name, n)
		}
		if n := testing.AllocsPerRun(10, func() { s.Reset(); s.ApplySteps(dict, toks) }); n != 0 {
			t.Errorf("%s: ApplySteps allocates %v times per call on a reset sim, want 0", c.m.Name, n)
		}
	}
}

// gap is what the resident mode does between two steps in
// applyGapped: nothing, a Sync, or a BeginSteps that lowers the
// dictionary anew.
type gap int

const (
	gapNone gap = iota
	gapSync
	gapBegin
	gapKinds
)

// applyGapped runs ids through the resident mode one step at a time,
// as ApplySteps does, taking gaps[i] between steps i and i+1. None of
// the gaps changes what the per-event loop computes.
func (s *Sim) applyGapped(dict [][]Op, ids []uint32, gaps []gap) {
	begin := func() {
		s.BeginSteps(len(dict))
		for _, e := range dict {
			s.AddStep(e)
		}
	}
	begin()
	for i, id := range ids {
		if i > 0 {
			switch gaps[i-1] {
			case gapSync:
				s.Sync()
			case gapBegin:
				begin()
			}
		}
		e := dict[id]
		var hint, target uint64
		if n := len(e); n > 0 {
			hint, target = e[n-1].B, e[n-1].C
		}
		if st := s.Warm(id); st != nil {
			s.Predict(st, target)
		} else if !s.RunStep(id, hint, target) {
			s.Sync()
			s.Apply(e)
		}
	}
	s.Sync()
}

// TestApplyStepsExhaustive replays every step-ID sequence of length 0
// to 8 over a three-step dictionary (9,841 sequences) from its
// successor-run tokens, and checks each against the per-event loop,
// full state included. Every sequence of length up to 6 is also run
// with each of nothing, a Sync or a BeginSteps in each gap between two
// steps (199,291 runs). The steps collide everywhere they can: on a
// 2-set, 2-way I-cache, five lines share one set, and the two
// dispatch branches share one entry of a 4-entry direct-mapped BTB
// (and one set of a 2-set, 2-way one). One step has each lowered shape
// and one no fixed shape, so the sequences reach every path of the
// resident mode and its exits in every order a short run allows.
func TestApplyStepsExhaustive(t *testing.T) {
	w := func(n uint64) Op { return Op{Kind: OpWork, A: n} }
	f := func(a, size uint64) Op { return Op{Kind: OpFetch, A: a, B: size} }
	dict := [][]Op{
		{w(3), f(0x000, 40), w(1), f(0x080, 4), {Kind: OpDispatch, A: 0x080, C: 0x100}},
		{w(2), f(0x100, 8), w(2)},
		{w(5), f(0x200, 8), f(0x240, 4), w(0), {Kind: OpDispatch, A: 0x240, B: 1, C: 0x000}},
	}
	tiny := Machine{
		Name:      "exhaust",
		Predictor: PredictBTB, BTBEntries: 4, BTBWays: 1,
		ICacheBytes: 128, ICacheLine: 32, ICacheWays: 2,
		MispredictPenalty: 10, ICacheMissPenalty: 10,
		CPI: 0.7, ClockMHz: 800,
	}
	twoWay := tiny
	twoWay.Name, twoWay.BTBWays = "exhaust-2way", 2
	for k, want := range []shape{shapeWFWFD, shapeWFW, shapeGeneric} {
		if st, _ := NewSim(tiny).lowerStep(dict[k]); st.shape != want {
			t.Fatalf("step %d lowers to shape %d, want %d", k, st.shape, want)
		}
	}

	const maxGapped = 6
	var exits Exits
	seqs, gapped := 0, 0
	var walk func(ids []uint32)
	walk = func(ids []uint32) {
		seqs++
		toks := steptok.Encode(ids)
		uses := make([]uint64, len(dict))
		if n, err := steptok.Check(toks, len(dict), uint64(len(ids)), uses); err != nil || n != uint64(len(ids)) {
			t.Fatalf("%v: tokens %#x check as %d steps, %v", ids, toks, n, err)
		}
		r := steptok.NewReader(toks, len(dict))
		for i, id := range ids {
			if got, ok := r.Step(); !ok || got != id {
				t.Fatalf("%v: tokens %#x decode to %d at step %d", ids, toks, got, i)
			}
		}
		if _, ok := r.Step(); ok {
			t.Fatalf("%v: tokens %#x decode to more steps", ids, toks)
		}
		for _, m := range []Machine{tiny, twoWay} {
			got, want := NewSim(m), NewSim(m)
			got.ApplySteps(dict, toks)
			want.applyStepsRef(dict, ids)
			if !got.SameState(want) {
				t.Fatalf("%v on %s: replay from tokens %#x diverged:\n  got  %+v\n  want %+v", ids, m.Name, toks, got.C, want.C)
			}
			exits.ICache += got.ResidentExits().ICache
			exits.BTB += got.ResidentExits().BTB
		}
		if len(ids) <= maxGapped {
			gapped += checkGaps(t, dict, ids, []Machine{tiny, twoWay})
		}
		if len(ids) < 8 {
			for id := range uint32(len(dict)) {
				walk(append(ids, id))
			}
		}
	}
	walk(make([]uint32, 0, 8))
	if seqs != 9841 || gapped != 199291 {
		t.Errorf("walked %d sequences and %d gapped runs, want 9841 and 199291", seqs, gapped)
	}
	if exits.ICache == 0 || exits.BTB == 0 {
		t.Errorf("the resident mode left the I-cache half %d times and the BTB half %d times, want both above 0", exits.ICache, exits.BTB)
	}
}

// checkGaps runs ids with every choice of gap between each two steps
// (see applyGapped) on each machine, checks each run against the
// per-event loop, full state included, and returns how many gap
// choices it walked.
func checkGaps(t *testing.T, dict [][]Op, ids []uint32, ms []Machine) int {
	t.Helper()
	gaps := make([]gap, max(len(ids)-1, 0))
	runs := 0
	for {
		runs++
		for _, m := range ms {
			got, want := NewSim(m), NewSim(m)
			got.applyGapped(dict, ids, gaps)
			want.applyStepsRef(dict, ids)
			if !got.SameState(want) {
				t.Fatalf("%v with gaps %v on %s diverged:\n  got  %+v\n  want %+v", ids, gaps, m.Name, got.C, want.C)
			}
		}
		// Next choice of gaps, counting in base gapKinds.
		i := 0
		for ; i < len(gaps) && gaps[i] == gapKinds-1; i++ {
			gaps[i] = gapNone
		}
		if i == len(gaps) {
			return runs
		}
		gaps[i]++
	}
}
