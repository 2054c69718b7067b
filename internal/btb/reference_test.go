package btb_test

import (
	"math/rand"
	"testing"

	"vmopt/internal/btb"
	"vmopt/internal/cpu"
)

// The reference models below are the straightforward table layout the
// flat predictors replaced: one slice per set, ordered most recently
// used first, with every hit moved to the front. The flat tables must
// make exactly the same decisions.

type refEntry struct {
	tag     uint64
	target  uint64
	counter uint8
	valid   bool
}

type refBTB struct {
	sets    int
	data    [][]refEntry
	twoBits bool
}

func newRefBTB(entries, ways int, twoBits bool) *refBTB {
	b := &refBTB{sets: entries / ways, twoBits: twoBits}
	b.data = make([][]refEntry, b.sets)
	for i := range b.data {
		b.data[i] = make([]refEntry, ways)
	}
	return b
}

func (b *refBTB) Access(branch, _, target uint64) bool {
	set := b.data[int((branch>>2)&uint64(b.sets-1))]
	tag := branch >> 2
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			correct := set[i].target == target
			switch {
			case !b.twoBits:
				set[i].target = target
			case correct:
				if set[i].counter < 3 {
					set[i].counter++
				}
			case set[i].counter > 0:
				set[i].counter--
			default:
				set[i].target = target
				set[i].counter = 1
			}
			e := set[i]
			copy(set[1:i+1], set[:i])
			set[0] = e
			return correct
		}
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = refEntry{tag: tag, target: target, counter: 1, valid: true}
	return false
}

func (b *refBTB) Reset() {
	for i := range b.data {
		clear(b.data[i])
	}
}

// refTwoLevel is the two-level predictor with its index mask and
// history shift derived on every access.
type refTwoLevel struct {
	tableBits, histLen int
	history            uint64
	table              []uint64
	tagged             []bool
}

func newRefTwoLevel(tableBits, histLen int) *refTwoLevel {
	return &refTwoLevel{tableBits: tableBits, histLen: histLen,
		table: make([]uint64, 1<<tableBits), tagged: make([]bool, 1<<tableBits)}
}

func (b *refTwoLevel) Access(branch, _, target uint64) bool {
	mask := uint64(1)<<b.tableBits - 1
	idx := (b.history ^ (branch >> 2)) & mask
	correct := b.tagged[idx] && b.table[idx] == target
	b.table[idx] = target
	b.tagged[idx] = true
	shift := uint(b.tableBits / b.histLen)
	if shift == 0 {
		shift = 1
	}
	b.history = (b.history<<shift ^ (target >> 2)) & mask
	return correct
}

func (b *refTwoLevel) Reset() {
	clear(b.table)
	clear(b.tagged)
	b.history = 0
}

// referenceMachines are the machine models whose predictors the
// simulator builds: the paper's machines, the predictor comparison's
// two-bit BTB, the capacity-miss regime and harness.BTBSizeSweep's
// entry counts.
func referenceMachines() []cpu.Machine {
	ms := append(cpu.Machines(),
		cpu.Celeron800.WithPredictor(cpu.PredictBTB2bc),
		cpu.Celeron800.WithBTBEntries(16))
	for _, n := range []int{32, 64, 128, 256, 512, 1024, 4096} {
		ms = append(ms, cpu.Celeron800.WithBTBEntries(n))
	}
	return ms
}

type branchAccess struct{ branch, target uint64 }

// branchStream returns a seeded stream that exercises every path of a
// BTB with the given set count and associativity: a hot set of
// branches that keep hitting their set's MRU way, branches that
// conflict in one set, a capacity thrash over twice the table, and
// random accesses. Targets come from a small pool so predictions are
// both right and wrong.
func branchStream(seed int64, sets, ways int) []branchAccess {
	rng := rand.New(rand.NewSource(seed))
	target := func() uint64 { return 0x8000 + uint64(rng.Intn(4))*0x40 }
	var s []branchAccess
	for round := 0; round < 3; round++ {
		hot := []uint64{0x1000, 0x1004, 0x2040}
		for i := 0; i < 400; i++ {
			s = append(s, branchAccess{hot[rng.Intn(len(hot))], target()})
		}
		set := uint64(rng.Intn(sets))
		for i := 0; i < 400; i++ {
			k := uint64(rng.Intn(ways + 2))
			s = append(s, branchAccess{(set + k*uint64(sets)) << 2, target()})
		}
		for i := 0; i < 4*sets*ways; i++ {
			s = append(s, branchAccess{uint64(i%(2*sets*ways)) << 2, target()})
		}
		for i := 0; i < 400; i++ {
			s = append(s, branchAccess{uint64(rng.Intn(8*sets*ways)) << 2, target()})
		}
	}
	return s
}

// TestFlatMatchesReference drives each flat predictor and its
// reference model with the same streams, with a Reset halfway, and
// requires the same result on every access.
func TestFlatMatchesReference(t *testing.T) {
	type model interface {
		Access(branch, hint, target uint64) bool
		Reset()
	}
	type pair struct {
		name      string
		flat, ref model
	}
	for _, m := range referenceMachines() {
		var pairs []pair
		if m.BTBEntries > 0 {
			pairs = append(pairs,
				pair{"setassoc", btb.NewSetAssoc(m.BTBEntries, m.BTBWays), newRefBTB(m.BTBEntries, m.BTBWays, false)},
				pair{"twobit", btb.NewTwoBit(m.BTBEntries, m.BTBWays), newRefBTB(m.BTBEntries, m.BTBWays, true)})
		}
		if m.Predictor == cpu.PredictTwoLevel {
			pairs = append(pairs, pair{"twolevel", m.NewPredictor(), newRefTwoLevel(m.TableBits, m.HistoryLen)})
		}
		// The two-level predictor has no sets; give it the stream of a
		// 4096-entry, 4-way BTB.
		sets, ways := 1<<10, 4
		if m.BTBEntries > 0 {
			sets, ways = m.BTBEntries/m.BTBWays, m.BTBWays
		}
		for seed := int64(1); seed <= 3; seed++ {
			stream := branchStream(seed, sets, ways)
			for _, p := range pairs {
				p.flat.Reset()
				p.ref.Reset()
				for i, a := range stream {
					if i == len(stream)/2 {
						p.flat.Reset()
						p.ref.Reset()
					}
					got, want := p.flat.Access(a.branch, 0, a.target), p.ref.Access(a.branch, 0, a.target)
					if got != want {
						t.Fatalf("%s %s seed %d: access %d (branch %#x target %#x) = %v, reference %v",
							m.Name, p.name, seed, i, a.branch, a.target, got, want)
					}
				}
			}
		}
	}
}
