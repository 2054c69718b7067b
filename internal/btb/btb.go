package btb

import "fmt"

// Ideal is an unbounded BTB: one entry per branch, no capacity or
// conflict misses (paper Section 2.2, "an idealised BTB contains one
// entry for each branch and predicts that the branch jumps to the same
// target as the last time it was executed").
type Ideal struct {
	entries map[uint64]uint64
}

// NewIdeal returns an idealized, unbounded BTB.
func NewIdeal() *Ideal {
	return &Ideal{entries: make(map[uint64]uint64)}
}

// Name implements Predictor.
func (b *Ideal) Name() string { return "btb-ideal" }

// Access implements Predictor. A branch seen for the first time counts
// as mispredicted (there is no prediction to be correct).
func (b *Ideal) Access(branch, _, target uint64) bool {
	prev, seen := b.entries[branch]
	b.entries[branch] = target
	return seen && prev == target
}

// Reset implements Predictor. It reuses the table's storage so a
// pooled or arena-replayed simulator resets without allocating.
func (b *Ideal) Reset() {
	if b.entries == nil {
		b.entries = make(map[uint64]uint64)
		return
	}
	clear(b.entries)
}

// Lookup returns the current prediction for a branch, if any. It does
// not modify predictor state; tests and the trace tool use it.
func (b *Ideal) Lookup(branch uint64) (uint64, bool) {
	t, ok := b.entries[branch]
	return t, ok
}

// slot is one way of a set-associative table. key is the branch's
// tag plus one, so the zero slot is empty and a probe compares one
// word; tags are branch>>2, so the key never wraps.
type slot struct {
	key    uint64
	target uint64
}

// SetAssoc is a finite set-associative BTB with LRU replacement,
// modeling the capacity and conflict misses of real hardware (e.g.
// 512 entries on the Celeron/P3, 4096 on the Pentium 4).
type SetAssoc struct {
	ways int
	mask uint64 // sets-1
	// slots holds set i in [i*ways, (i+1)*ways), most recently used
	// first.
	slots []slot
	name  string
}

// NewSetAssoc returns a BTB with the given total entry count and
// associativity. entries must be a multiple of ways and the set count
// a power of two.
func NewSetAssoc(entries, ways int) *SetAssoc {
	sets := checkGeometry(entries, ways)
	return &SetAssoc{
		ways:  ways,
		mask:  uint64(sets - 1),
		slots: make([]slot, entries),
		name:  fmt.Sprintf("btb-%dx%d", sets, ways),
	}
}

// checkGeometry validates a BTB geometry and returns its set count.
func checkGeometry(entries, ways int) int {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("btb: bad geometry entries=%d ways=%d", entries, ways))
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("btb: set count %d not a power of two", sets))
	}
	return sets
}

// Name implements Predictor.
func (b *SetAssoc) Name() string { return b.name }

// tagOf splits a branch address into its table key and the index of
// its set's first slot. Branch addresses are byte addresses; dropping
// the low 2 bits spreads adjacent branches across sets like real BTBs.
func tagOf(branch, mask uint64, ways int) (key uint64, base int) {
	tag := branch >> 2
	return tag + 1, int(tag&mask) * ways
}

// Access implements Predictor. A miss in the table (capacity/conflict)
// counts as a misprediction, as on real hardware where an unknown
// branch falls back to a static (wrong) prediction.
func (b *SetAssoc) Access(branch, _, target uint64) bool {
	key, base := tagOf(branch, b.mask, b.ways)
	// A hit on the most recently used way leaves the LRU order as is.
	if e := &b.slots[base]; e.key == key {
		correct := e.target == target
		e.target = target
		return correct
	}
	return b.accessSlow(base, key, target)
}

// accessSlow handles an access that missed the set's MRU way: a hit
// further down moves to the front, a miss installs there and evicts
// the LRU way.
func (b *SetAssoc) accessSlow(base int, key, target uint64) bool {
	set := b.slots[base : base+b.ways]
	for i := 1; i < len(set); i++ {
		if set[i].key == key {
			correct := set[i].target == target
			copy(set[1:i+1], set[:i])
			set[0] = slot{key: key, target: target}
			return correct
		}
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = slot{key: key, target: target}
	return false
}

// Key names the table entry branch maps to: two branches share an
// entry, and so a prediction, exactly when their keys are equal.
func (b *SetAssoc) Key(branch uint64) uint64 {
	key, _ := tagOf(branch, b.mask, b.ways)
	return key
}

// Fits reports whether accessing branch evicts no entry: the table
// holds it, or its set has an empty way. Slots fill from the front of
// a set, so a set has an empty way while its last one is empty.
func (b *SetAssoc) Fits(branch uint64) bool {
	key, base := tagOf(branch, b.mask, b.ways)
	set := b.slots[base : base+b.ways]
	if set[len(set)-1].key == 0 {
		return true
	}
	for _, e := range set {
		if e.key == key {
			return true
		}
	}
	return false
}

// Promote makes branch's entry, if the table holds it, the most
// recently used of its set and target its prediction, as an access of
// branch jumping to target does.
func (b *SetAssoc) Promote(branch, target uint64) {
	key, base := tagOf(branch, b.mask, b.ways)
	set := b.slots[base : base+b.ways]
	for i := range set {
		if set[i].key == key {
			copy(set[1:i+1], set[:i])
			set[0] = slot{key: key, target: target}
			return
		}
	}
}

// Reset implements Predictor. It reuses the table's storage so a
// pooled or arena-replayed simulator resets without allocating.
func (b *SetAssoc) Reset() { clear(b.slots) }

// Lookup returns the current prediction without updating state.
func (b *SetAssoc) Lookup(branch uint64) (uint64, bool) {
	key, base := tagOf(branch, b.mask, b.ways)
	for _, e := range b.slots[base : base+b.ways] {
		if e.key == key {
			return e.target, true
		}
	}
	return 0, false
}
