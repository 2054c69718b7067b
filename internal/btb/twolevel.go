package btb

import "fmt"

// TwoLevel is a history-based two-level indirect branch predictor in
// the style of Driesen and Hölzle, the mechanism behind the Pentium M
// indirect predictor the paper discusses in Section 8. It combines the
// targets of the most recently executed indirect branches with the
// branch address to index a target table. With sufficient history it
// correctly predicts most dispatch branches of a threaded-code
// interpreter, which is why the paper notes such hardware would make
// the software techniques less necessary.
type TwoLevel struct {
	mask    uint64 // table size - 1
	shift   uint   // history bits per folded target
	history uint64
	table   []uint64
	tagged  []bool
	name    string
}

// NewTwoLevel returns a two-level predictor with 2^tableBits entries
// and a path history of histLen previous targets.
func NewTwoLevel(tableBits, histLen int) *TwoLevel {
	if tableBits <= 0 || tableBits > 24 || histLen <= 0 {
		panic(fmt.Sprintf("btb: bad two-level geometry bits=%d hist=%d", tableBits, histLen))
	}
	// Fold each target into the path history by a few bits so
	// histLen targets fit in the index.
	shift := uint(tableBits / histLen)
	if shift == 0 {
		shift = 1
	}
	return &TwoLevel{
		mask:   uint64(1)<<tableBits - 1,
		shift:  shift,
		table:  make([]uint64, 1<<tableBits),
		tagged: make([]bool, 1<<tableBits),
		name:   fmt.Sprintf("twolevel-%db-h%d", tableBits, histLen),
	}
}

// Name implements Predictor.
func (b *TwoLevel) Name() string { return b.name }

// Access implements Predictor.
func (b *TwoLevel) Access(branch, _, target uint64) bool {
	idx := (b.history ^ (branch >> 2)) & b.mask
	correct := b.tagged[idx] && b.table[idx] == target
	b.table[idx] = target
	b.tagged[idx] = true
	b.history = (b.history<<b.shift ^ (target >> 2)) & b.mask
	return correct
}

// Reset implements Predictor. It reuses the table's storage so a
// pooled or arena-replayed simulator resets without allocating.
func (b *TwoLevel) Reset() {
	clear(b.table)
	clear(b.tagged)
	b.history = 0
}
