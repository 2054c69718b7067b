package core

import (
	"fmt"

	"vmopt/internal/codegen"
)

// Plan is the code layout a dispatch technique produces for one VM
// program: for every VM code position, where its native code lives,
// how much work it performs, and which indirect branch (if any)
// dispatches after it. The engine drives the micro-architecture
// simulation from these tables.
type Plan struct {
	technique Technique
	isa       ISA

	// addr[p] is the address of the native code executed for
	// position p; it is also the dispatch target used when control
	// transfers to p.
	addr []uint64
	// workInstrs/workBytes give the work part cost of position p
	// under this plan (superinstruction junction savings applied).
	workInstrs []int32
	workBytes  []int32
	// branchAddr[p] is the address of the indirect dispatch branch
	// used for control transfers out of position p (taken branches,
	// calls, returns).
	branchAddr []uint64
	// seqBranch[p] is the branch used when the sequential boundary
	// p -> p+1 dispatches; usually equal to branchAddr[p], but a
	// fall-through into a quickable gap dispatches through the gap
	// stub instead (Section 5.4).
	seqBranch []uint64
	// seqDispatch[p] reports whether the sequential boundary
	// p -> p+1 performs a dispatch (false inside superinstructions
	// and on across-bb fall-through).
	seqDispatch []bool
	// mustSeq[p] marks sequential dispatches that are structural
	// (block ends, transitions into shared code) and are never
	// removed by quickening.
	mustSeq []bool
	// seqWork[p] is the native work on a sequential boundary
	// without dispatch (the kept ip increment; 0 inside static
	// superinstructions).
	seqWork []int8

	dispatchWork  int
	dispatchBytes int

	// dynBytes is the run-time generated code volume.
	dynBytes uint64

	// Shadow-mode tables for TWithStaticSuperAcross: a dispatch
	// arriving at a side entry (a non-first component of a static
	// superinstruction) executes non-replicated code until the
	// superinstruction ends (paper Figure 6).
	sideEntry   []bool
	shadowUntil []int32
	sharedAddr  []uint64
	sharedBr    []uint64

	// Quickening support (JVM).
	onQuicken func(p *Plan, pos int, newOp uint32)
	// gapAddr[p] is the reserved gap for a quickable instance in
	// dynamically generated code (0 if none).
	gapAddr []uint64
	// quickWork[p] is the one-time quickening cost charged when the
	// instruction at p rewrites itself.
	quickWork []int32
}

// Technique returns the plan's technique.
func (p *Plan) Technique() Technique { return p.technique }

// DynamicCodeBytes returns the run-time generated code volume.
func (p *Plan) DynamicCodeBytes() uint64 { return p.dynBytes }

// DispatchCost returns the per-dispatch native instruction count and
// code bytes.
func (p *Plan) DispatchCost() (work, bytes int) {
	return p.dispatchWork, p.dispatchBytes
}

// Addr returns the native code address for position pos.
func (p *Plan) Addr(pos int) uint64 { return p.addr[pos] }

// BranchAddr returns the dispatch branch address after position pos.
func (p *Plan) BranchAddr(pos int) uint64 { return p.branchAddr[pos] }

// SeqDispatch reports whether the boundary pos -> pos+1 dispatches.
func (p *Plan) SeqDispatch(pos int) bool { return p.seqDispatch[pos] }

// SideEntry reports whether position pos is a side entry into a
// static superinstruction crossing a basic-block boundary
// (TWithStaticSuperAcross only): control arriving here executes
// non-replicated code until the superinstruction ends (Figure 6).
func (p *Plan) SideEntry(pos int) bool {
	return p.sideEntry != nil && p.sideEntry[pos]
}

// Work returns the work cost (native instructions) of position pos.
func (p *Plan) Work(pos int) int { return int(p.workInstrs[pos]) }

// Quicken informs the plan that the instruction at pos rewrote itself
// to newOp; the plan repoints the instance at its patched quick code
// (dynamic techniques) or a replica of the quick instruction (static
// replication), and re-parses superinstructions where applicable.
func (p *Plan) Quicken(pos int, newOp uint32) {
	if p.onQuicken != nil {
		p.onQuicken(p, pos, newOp)
	}
}

// newPlan initializes per-position tables with plain per-opcode
// defaults: every position costs its opcode's meta work, and every
// boundary dispatches.
func newPlan(t Technique, code []Inst, isa ISA) *Plan {
	n := len(code)
	p := &Plan{
		technique:   t,
		isa:         isa,
		addr:        make([]uint64, n),
		workInstrs:  make([]int32, n),
		workBytes:   make([]int32, n),
		branchAddr:  make([]uint64, n),
		seqBranch:   make([]uint64, n),
		seqDispatch: make([]bool, n),
		mustSeq:     make([]bool, n),
		seqWork:     make([]int8, n),
	}
	for pos, in := range code {
		m := isa.Meta(in.Op)
		p.workInstrs[pos] = int32(m.Work)
		p.workBytes[pos] = int32(m.Bytes)
		p.seqDispatch[pos] = true
		if m.Quickable {
			if p.quickWork == nil {
				p.quickWork = make([]int32, n)
			}
			p.quickWork[pos] = int32(m.QuickWork)
		}
	}
	return p
}

// QuickWorkAt returns the one-time quickening cost for position pos.
func (p *Plan) QuickWorkAt(pos int) int {
	if p.quickWork == nil {
		return 0
	}
	return int(p.quickWork[pos])
}

// VerifyRelocatability runs the paper's portable relocatability check
// (Section 5.2) over an ISA: place every routine at two different
// addresses — as if two interpreter images with gratuitous padding
// had been compiled — and compare the bytes. It returns an error if
// the detection disagrees with the ISA's declared relocatability
// (which would mean dynamic code copying could corrupt a routine).
//
// Dynamic plan builders call this once per ISA; it is exported so
// embedders adding their own ISAs can validate them directly.
func VerifyRelocatability(isa ISA) error {
	n := isa.NumOps()
	sizes := make([]int, n)
	reloc := make([]bool, n)
	for op := 0; op < n; op++ {
		m := isa.Meta(uint32(op))
		sizes[op] = m.Bytes
		reloc[op] = m.Relocatable
	}
	detected := codegen.DetectRelocatable(sizes, reloc)
	for op := 0; op < n; op++ {
		// Routines shorter than a displacement are trivially
		// position-independent in the image model; the declared
		// flag wins there.
		if sizes[op] >= 4 && detected[op] != reloc[op] {
			return fmt.Errorf("core: opcode %s detected relocatable=%v but declared %v",
				isa.Meta(uint32(op)).Name, detected[op], reloc[op])
		}
	}
	return nil
}

// staticLayout is the interpreter's built-in code: one routine per
// opcode, each ending in its own dispatch branch, plus the shared
// switch dispatcher.
type staticLayout struct {
	workAddr   []uint64
	branchAddr []uint64
	switchAddr uint64
	caseAddr   []uint64
}

// buildStaticLayout lays out the base interpreter for an ISA.
func buildStaticLayout(isa ISA) *staticLayout {
	alloc := codegen.NewAllocator(codegen.StaticBase, 16)
	n := isa.NumOps()
	l := &staticLayout{
		workAddr:   make([]uint64, n),
		branchAddr: make([]uint64, n),
		caseAddr:   make([]uint64, n),
	}
	// Threaded-code routines: work part followed by the dispatch
	// sequence.
	for op := 0; op < n; op++ {
		m := isa.Meta(uint32(op))
		a := alloc.Alloc(m.Bytes + threadedDispatchBytes)
		l.workAddr[op] = a
		l.branchAddr[op] = a + uint64(m.Bytes)
	}
	// Switch dispatcher and case bodies.
	l.switchAddr = alloc.Alloc(switchDispatchBytes)
	for op := 0; op < n; op++ {
		m := isa.Meta(uint32(op))
		// Case body: work plus the break jump back to the
		// dispatcher.
		l.caseAddr[op] = alloc.Alloc(m.Bytes + 5)
	}
	return l
}
