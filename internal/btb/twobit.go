package btb

import "fmt"

// TwoBit is a BTB whose entries carry a two-bit saturating hysteresis
// counter: the stored target is only replaced after two consecutive
// mispredictions. The paper (Section 3) reports this variant gives
// slightly better results for threaded code (50%-61% mispredictions
// versus 57%-63% for a plain BTB).
type TwoBit struct {
	ways int
	mask uint64 // sets-1
	// slots holds set i in [i*ways, (i+1)*ways), most recently used
	// first; keys are encoded as in SetAssoc.
	slots []twoBitSlot
	name  string
}

type twoBitSlot struct {
	key     uint64
	target  uint64
	counter uint8 // 0..3; >=2 means "strongly" keep the target
}

// NewTwoBit returns a two-bit-counter BTB with the given geometry.
func NewTwoBit(entries, ways int) *TwoBit {
	sets := checkGeometry(entries, ways)
	return &TwoBit{
		ways:  ways,
		mask:  uint64(sets - 1),
		slots: make([]twoBitSlot, entries),
		name:  fmt.Sprintf("btb2bc-%dx%d", sets, ways),
	}
}

// Name implements Predictor.
func (b *TwoBit) Name() string { return b.name }

// Access implements Predictor.
func (b *TwoBit) Access(branch, _, target uint64) bool {
	key, base := tagOf(branch, b.mask, b.ways)
	// A hit on the most recently used way leaves the LRU order as is.
	if e := &b.slots[base]; e.key == key {
		return e.update(target)
	}
	return b.accessSlow(base, key, target)
}

// accessSlow handles an access that missed the set's MRU way: a hit
// further down moves to the front, a miss installs there and evicts
// the LRU way.
func (b *TwoBit) accessSlow(base int, key, target uint64) bool {
	set := b.slots[base : base+b.ways]
	for i := 1; i < len(set); i++ {
		if set[i].key == key {
			correct := set[i].update(target)
			e := set[i]
			copy(set[1:i+1], set[:i])
			set[0] = e
			return correct
		}
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = twoBitSlot{key: key, target: target, counter: 1}
	return false
}

// update applies the hysteresis rule to a hit and reports whether the
// stored target was correct.
func (e *twoBitSlot) update(target uint64) bool {
	if e.target == target {
		if e.counter < 3 {
			e.counter++
		}
		return true
	}
	if e.counter > 0 {
		e.counter--
	} else {
		e.target = target
		e.counter = 1
	}
	return false
}

// Reset implements Predictor. It reuses the table's storage so a
// pooled or arena-replayed simulator resets without allocating.
func (b *TwoBit) Reset() { clear(b.slots) }
