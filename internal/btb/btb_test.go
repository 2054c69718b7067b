package btb

import (
	"slices"
	"testing"
	"testing/quick"
)

// Addresses for a synthetic threaded-code loop "A B A GOTO" (Table I):
// each VM instruction has its own dispatch branch; the targets are the
// code addresses of the following instruction's implementation.
const (
	brA    = 0x1000 // dispatch branch at end of code for A
	brB    = 0x1100
	brGoto = 0x1200
	codeA  = 0x2000
	codeB  = 0x2100
	codeG  = 0x2200
	brSw   = 0x3000 // the single switch-dispatch branch
)

// runThreadedLoop drives p through n iterations of the Table I loop
// under threaded dispatch and returns the misprediction count after a
// warm-up iteration.
func runThreadedLoop(p Predictor, n int) (misp int) {
	// VM program: A B A GOTO -> back to first A.
	type step struct{ branch, target uint64 }
	trace := []step{
		{brA, codeB},    // after first A, dispatch to B
		{brB, codeA},    // after B, dispatch to second A
		{brA, codeG},    // after second A, dispatch to GOTO
		{brGoto, codeA}, // GOTO loops back to first A
	}
	for i := 0; i < n+1; i++ {
		for _, s := range trace {
			ok := p.Access(s.branch, 0, s.target)
			if i > 0 && !ok { // skip warm-up iteration
				misp++
			}
		}
	}
	return misp
}

// TestTableIThreaded reproduces the threaded-dispatch column of Table
// I: per loop iteration, the two dispatches of A mispredict (its BTB
// entry alternates between B and GOTO), while B and GOTO predict
// correctly — 2 mispredictions per iteration.
func TestTableIThreaded(t *testing.T) {
	for _, p := range []Predictor{NewIdeal(), NewSetAssoc(512, 4)} {
		misp := runThreadedLoop(p, 10)
		if misp != 20 {
			t.Errorf("%s: threaded loop mispredictions = %d, want 20 (2/iter)", p.Name(), misp)
		}
	}
}

// TestTableISwitch reproduces the switch-dispatch column of Table I:
// with a single shared indirect branch the BTB predicts the current
// instruction repeats, which is wrong on every step of the A B A GOTO
// loop — 4 mispredictions per iteration.
func TestTableISwitch(t *testing.T) {
	p := NewIdeal()
	targets := []uint64{codeB, codeA, codeG, codeA} // B, A, GOTO, A
	misp := 0
	for i := 0; i < 11; i++ {
		for _, tgt := range targets {
			if !p.Access(brSw, 0, tgt) && i > 0 {
				misp++
			}
		}
	}
	if misp != 40 {
		t.Errorf("switch loop mispredictions = %d, want 40 (4/iter)", misp)
	}
}

// TestTableIIReplication reproduces Table II: with two replicas of A
// (separate branch addresses), all dispatches predict correctly after
// warm-up.
func TestTableIIReplication(t *testing.T) {
	p := NewIdeal()
	const brA1, brA2 = 0x1000, 0x1080
	type step struct{ branch, target uint64 }
	trace := []step{
		{brA1, codeB},
		{brB, 0x2080}, // code for A2 replica
		{brA2, codeG},
		{brGoto, codeA},
	}
	misp := 0
	for i := 0; i < 11; i++ {
		for _, s := range trace {
			if !p.Access(s.branch, 0, s.target) && i > 0 {
				misp++
			}
		}
	}
	if misp != 0 {
		t.Errorf("replicated loop mispredictions = %d, want 0", misp)
	}
}

// TestIdealFirstAccessMisses verifies a first-seen branch counts as a
// misprediction.
func TestIdealFirstAccessMisses(t *testing.T) {
	p := NewIdeal()
	if p.Access(0x10, 0, 0x20) {
		t.Error("first access should mispredict")
	}
	if !p.Access(0x10, 0, 0x20) {
		t.Error("second access with same target should predict")
	}
	if p.Access(0x10, 0, 0x30) {
		t.Error("target change should mispredict")
	}
	if t2, ok := p.Lookup(0x10); !ok || t2 != 0x30 {
		t.Errorf("Lookup = %#x,%v; want 0x30,true", t2, ok)
	}
}

func TestIdealReset(t *testing.T) {
	p := NewIdeal()
	p.Access(0x10, 0, 0x20)
	p.Reset()
	if _, ok := p.Lookup(0x10); ok {
		t.Error("Reset should clear entries")
	}
}

// TestSetAssocConflict verifies two branches mapping to the same set of
// a direct-mapped BTB evict each other (conflict misses).
func TestSetAssocConflict(t *testing.T) {
	b := NewSetAssoc(4, 1) // 4 sets, direct mapped
	// Branches 0x10 and 0x50 share set ((addr>>2)&3): 0x10>>2=4 -> set 0; 0x50>>2=20 -> set 0.
	b.Access(0x10, 0, 0xA)
	b.Access(0x50, 0, 0xB) // evicts 0x10
	if b.Access(0x10, 0, 0xA) {
		t.Error("evicted branch should mispredict")
	}
}

// TestSetAssocLRU verifies LRU keeps the two hottest branches in a
// 2-way set.
func TestSetAssocLRU(t *testing.T) {
	b := NewSetAssoc(2, 2) // 1 set, 2 ways
	b.Access(0x10, 0, 0xA)
	b.Access(0x20, 0, 0xB)
	b.Access(0x10, 0, 0xA) // touch 0x10 -> MRU
	b.Access(0x30, 0, 0xC) // evicts LRU = 0x20
	if !b.Access(0x10, 0, 0xA) {
		t.Error("MRU branch should still hit")
	}
	if b.Access(0x20, 0, 0xB) {
		t.Error("LRU-evicted branch should miss")
	}
}

// TestSetAssocFitsAndPromote: Fits is true while an access evicts
// nothing, and Promote reorders a set and sets a target exactly as a
// hitting access does, without installing a branch it lacks. Branches
// that differ in their low two bits share one entry and one Key.
func TestSetAssocFitsAndPromote(t *testing.T) {
	b, ref := NewSetAssoc(2, 2), NewSetAssoc(2, 2) // 1 set, 2 ways
	for _, p := range []*SetAssoc{b, ref} {
		p.Access(0x10, 0, 0xA)
	}
	if !b.Fits(0x20) || !b.Fits(0x10) {
		t.Fatal("a set with a free way does not fit")
	}
	for _, p := range []*SetAssoc{b, ref} {
		p.Access(0x20, 0, 0xB)
	}
	if b.Fits(0x30) || !b.Fits(0x10) || !b.Fits(0x13) {
		t.Fatal("a full set fits a new branch, or not one it holds")
	}
	if b.Key(0x10) != b.Key(0x13) || b.Key(0x10) == b.Key(0x14) {
		t.Fatal("Key does not name the entry a branch maps to")
	}
	b.Promote(0x10, 0xC)
	b.Promote(0x30, 0xD)
	ref.Access(0x10, 0, 0xC)
	if !slices.Equal(b.slots, ref.slots) {
		t.Errorf("Promote left slots %v, an access leaves %v", b.slots, ref.slots)
	}
}

func TestSetAssocGeometryPanics(t *testing.T) {
	for _, g := range []struct{ e, w int }{{0, 1}, {5, 2}, {12, 2}, {-4, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSetAssoc(%d,%d) should panic", g.e, g.w)
				}
			}()
			NewSetAssoc(g.e, g.w)
		}()
	}
}

// TestSetAssocMatchesIdealWhenLarge checks a big finite BTB behaves
// like the ideal BTB on a small working set.
func TestSetAssocMatchesIdealWhenLarge(t *testing.T) {
	f := func(seq []uint16) bool {
		big := NewSetAssoc(1<<16, 4)
		id := NewIdeal()
		for i, v := range seq {
			branch := uint64(v%64) * 4 // 64 distinct branches, word aligned
			target := uint64(seq[(i+1)%len(seq)])
			if big.Access(branch, 0, target) != id.Access(branch, 0, target) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestTwoBitHysteresis verifies the counter keeps a target through a
// single deviation: pattern T1 T1 T2 T1 should mispredict on T2 and
// predict T1 again right after (a plain BTB would mispredict twice).
func TestTwoBitHysteresis(t *testing.T) {
	b := NewTwoBit(512, 4)
	b.Access(0x10, 0, 1) // install, counter=1
	b.Access(0x10, 0, 1) // correct, counter=2
	if b.Access(0x10, 0, 2) {
		t.Error("deviation should mispredict")
	}
	if !b.Access(0x10, 0, 1) {
		t.Error("two-bit counter should have kept target 1")
	}
}

// TestTwoBitEventuallySwitches verifies repeated mispredictions do
// replace the target.
func TestTwoBitEventuallySwitches(t *testing.T) {
	b := NewTwoBit(512, 4)
	b.Access(0x10, 0, 1)
	b.Access(0x10, 0, 1)
	b.Access(0x10, 0, 1) // counter saturates at 3
	n := 0
	for i := 0; i < 10; i++ {
		if b.Access(0x10, 0, 2) {
			break
		}
		n++
	}
	if n == 10 {
		t.Fatal("two-bit BTB never switched to the new target")
	}
	if !b.Access(0x10, 0, 2) {
		t.Error("after switching, target 2 should predict")
	}
}

// TestTwoBitBeatsPlainOnAlternatingA mirrors the paper's observation
// that 2-bit counters give slightly fewer mispredictions for threaded
// code in some patterns: with pattern 1 1 2 repeated, hysteresis keeps
// the majority target.
func TestTwoBitBeatsPlainOnSkewedPattern(t *testing.T) {
	pattern := []uint64{1, 1, 2}
	countMisp := func(p Predictor) int {
		misp := 0
		for i := 0; i < 300; i++ {
			if !p.Access(0x40, 0, pattern[i%3]) && i >= 3 {
				misp++
			}
		}
		return misp
	}
	plain := countMisp(NewSetAssoc(512, 4))
	twobit := countMisp(NewTwoBit(512, 4))
	if twobit >= plain {
		t.Errorf("two-bit (%d) should beat plain BTB (%d) on skewed pattern", twobit, plain)
	}
}

// TestTwoLevelPredictsAlternation: the Table I loop that defeats a BTB
// (A's branch alternates B, GOTO) is predictable from path history.
func TestTwoLevelPredictsAlternation(t *testing.T) {
	p := NewTwoLevel(12, 4)
	misp := runThreadedLoop(p, 50)
	if misp > 2 { // allow a couple of training mispredictions after warm-up
		t.Errorf("two-level mispredictions = %d, want <= 2", misp)
	}
}

// TestTwoLevelBeatsBTB compares on the alternating loop.
func TestTwoLevelBeatsBTB(t *testing.T) {
	btbMisp := runThreadedLoop(NewSetAssoc(512, 4), 50)
	tlMisp := runThreadedLoop(NewTwoLevel(12, 4), 50)
	if tlMisp >= btbMisp {
		t.Errorf("two-level (%d) should beat BTB (%d)", tlMisp, btbMisp)
	}
}

// TestCaseBlockPerfectOnSwitch: keyed by opcode, the case block table
// predicts switch dispatch almost perfectly (paper Section 8).
func TestCaseBlockPerfectOnSwitch(t *testing.T) {
	p := NewCaseBlock(1 << 12)
	opcodes := []uint64{7, 3, 7, 9} // A B A GOTO as opcodes
	targets := []uint64{codeA, codeB, codeA, codeG}
	misp := 0
	for i := 0; i < 11; i++ {
		for j := range opcodes {
			if !p.Access(brSw, opcodes[j], targets[j]) && i > 0 {
				misp++
			}
		}
	}
	if misp != 0 {
		t.Errorf("case block mispredictions = %d, want 0", misp)
	}
}

// TestCaseBlockIgnoredHintDegrades: with a constant hint it degenerates
// to BTB-like behaviour on the switch branch.
func TestCaseBlockConstantHint(t *testing.T) {
	p := NewCaseBlock(1 << 12)
	targets := []uint64{codeA, codeB}
	misp := 0
	for i := 0; i < 10; i++ {
		for _, tgt := range targets {
			if !p.Access(brSw, 0, tgt) && i > 0 {
				misp++
			}
		}
	}
	if misp == 0 {
		t.Error("alternating targets with constant hint should mispredict")
	}
}

// Property: for every predictor, repeating the same (branch, hint,
// target) access eventually predicts correctly and then stays correct.
func TestPredictorsConverge(t *testing.T) {
	preds := []func() Predictor{
		func() Predictor { return NewIdeal() },
		func() Predictor { return NewSetAssoc(512, 4) },
		func() Predictor { return NewTwoBit(512, 4) },
		func() Predictor { return NewTwoLevel(10, 4) },
		func() Predictor { return NewCaseBlock(1 << 10) },
	}
	for _, mk := range preds {
		p := mk()
		f := func(branch, hint, target uint16) bool {
			p.Reset()
			b, h, tg := uint64(branch)*4, uint64(hint), uint64(target)
			ok := false
			for i := 0; i < 8; i++ {
				ok = p.Access(b, h, tg)
			}
			return ok
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s does not converge: %v", p.Name(), err)
		}
	}
}

func TestTwoLevelGeometryPanics(t *testing.T) {
	for _, g := range []struct{ b, h int }{{0, 1}, {30, 1}, {8, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTwoLevel(%d,%d) should panic", g.b, g.h)
				}
			}()
			NewTwoLevel(g.b, g.h)
		}()
	}
}

func TestCaseBlockGeometryPanics(t *testing.T) {
	for _, n := range []int{0, 3, -8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCaseBlock(%d) should panic", n)
				}
			}()
			NewCaseBlock(n)
		}()
	}
}
