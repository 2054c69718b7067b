package core

// Leaders computes basic-block leaders of the VM code: position 0,
// every branch/call target, every position following a control
// transfer, and every extra entry point (word/method entries that may
// be reached through computed control flow such as EXECUTE or
// invokevirtual).
func Leaders(code []Inst, isa ISA, extra []int) []bool {
	leaders := make([]bool, len(code))
	if len(code) == 0 {
		return leaders
	}
	leaders[0] = true
	mark := func(pos int) {
		if pos >= 0 && pos < len(code) {
			leaders[pos] = true
		}
	}
	for _, e := range extra {
		mark(e)
	}
	for p, in := range code {
		m := isa.Meta(in.Op)
		if (m.Branch || m.Call) && m.HasArg {
			mark(int(in.Arg))
		}
		if m.Control() && p+1 < len(code) {
			leaders[p+1] = true
		}
	}
	return leaders
}

// Block is a half-open range [Start, End) of VM code positions with a
// single entry at Start and control leaving only at End-1.
type Block struct {
	Start, End int
}

// Blocks partitions the VM code into basic blocks.
func Blocks(code []Inst, isa ISA, extra []int) []Block {
	leaders := Leaders(code, isa, extra)
	var out []Block
	start := 0
	for p := 1; p < len(code); p++ {
		if leaders[p] {
			out = append(out, Block{Start: start, End: p})
			start = p
		}
	}
	if len(code) > 0 {
		out = append(out, Block{Start: start, End: len(code)})
	}
	return out
}

// Runs returns the maximal stretches of superinstruction-eligible
// instructions within each basic block: contiguous instructions that
// are not control transfers and not quickable. These are the units
// superinstruction parsing operates on; a block's terminating branch
// is never part of a superinstruction in this implementation.
func Runs(code []Inst, isa ISA, extra []int) []Block {
	var out []Block
	for _, b := range Blocks(code, isa, extra) {
		out = superRuns(out, code, isa, b)
	}
	return out
}

// superRuns appends the superinstruction-eligible stretches of block
// b of code.
func superRuns(out []Block, code []Inst, isa ISA, b Block) []Block {
	return stretches(out, b, func(p int) bool { return isa.Meta(code[p].Op).SuperComponent() })
}

// stretches appends to out the maximal stretches of positions in b
// where ok holds, in position order.
func stretches(out []Block, b Block, ok func(pos int) bool) []Block {
	start := -1
	for p := b.Start; p <= b.End; p++ {
		in := p < b.End && ok(p)
		if in && start < 0 {
			start = p
		} else if !in && start >= 0 {
			out = append(out, Block{Start: start, End: p})
			start = -1
		}
	}
	return out
}

// BlockOf returns, for every position, the index of its containing
// block in blocks.
func BlockOf(n int, blocks []Block) []int {
	owner := make([]int, n)
	for bi, b := range blocks {
		for p := b.Start; p < b.End; p++ {
			owner[p] = bi
		}
	}
	return owner
}

// Ops extracts the opcode sequence of a code range.
func Ops(code []Inst, b Block) []uint32 {
	out := make([]uint32, 0, b.End-b.Start)
	for p := b.Start; p < b.End; p++ {
		out = append(out, code[p].Op)
	}
	return out
}
