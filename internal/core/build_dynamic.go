package core

import "vmopt/internal/codegen"

// compClass classifies how a VM instruction instance executes under a
// dynamic (code copying) technique.
type compClass uint8

const (
	// clsDyn: relocatable, gets its own run-time copy.
	clsDyn compClass = iota
	// clsShared: non-relocatable, executes from the base
	// interpreter's single copy.
	clsShared
	// clsQuick: quickable, executes from the base interpreter until
	// quickened, then from the gap reserved in the generated code.
	clsQuick
)

func classify(isa ISA, op uint32) compClass {
	m := isa.Meta(op)
	switch {
	case m.Quickable:
		return clsQuick
	case !m.Relocatable:
		return clsShared
	default:
		return clsDyn
	}
}

// dynQuicken is the quicken handler shared by all code-copying
// techniques: patch the reserved gap with the quick code, then seal
// the fall-through junctions around the instance where the neighbors
// also execute from generated code (paper Section 5.4: "The
// quickening process replaces this dispatch code with the quick
// version of the executable code, entirely filling the gap").
func dynQuicken(isa ISA) func(pl *Plan, pos int, newOp uint32) {
	return func(pl *Plan, pos int, newOp uint32) {
		m2 := isa.Meta(newOp)
		gap := pl.gapAddr[pos]
		pl.addr[pos] = gap
		pl.workInstrs[pos] = int32(m2.Work)
		pl.workBytes[pos] = int32(m2.Bytes)

		next := pos + 1
		switch {
		case pl.mustSeq[pos] || next >= len(pl.addr) ||
			(pl.addr[next] < codegen.DynamicBase && pl.gapAddr[next] == 0):
			// Structural dispatch, or the next instance executes
			// permanently from shared code: keep dispatching from
			// the branch at the end of the patched gap.
			pl.seqDispatch[pos] = true
			pl.branchAddr[pos] = gap + uint64(m2.Bytes)
			pl.seqBranch[pos] = pl.branchAddr[pos]
		case pl.gapAddr[next] != 0 && pl.addr[next] < codegen.DynamicBase:
			// Next is a not-yet-quickened quickable: fall into its
			// gap stub, which dispatches to the shared routine.
			pl.seqDispatch[pos] = true
			pl.branchAddr[pos] = gap + uint64(m2.Bytes)
			pl.seqBranch[pos] = pl.gapAddr[next]
		default:
			// Next executes from generated code: seal the junction.
			pl.seqDispatch[pos] = false
			pl.seqWork[pos] = ipIncWork
		}

		// Seal the incoming junction if the previous instance also
		// executes from generated code and its dispatch existed only
		// because this position used to run from shared code.
		prev := pos - 1
		if prev >= 0 && !pl.mustSeq[prev] && pl.seqDispatch[prev] &&
			pl.addr[prev] >= codegen.DynamicBase {
			pl.seqDispatch[prev] = false
			pl.seqWork[prev] = ipIncWork
		}
	}
}

// buildDynamicRepl creates one run-time copy per relocatable VM
// instruction instance (Section 5.2, dynamic replication).
func buildDynamicRepl(code []Inst, isa ISA, cfg Config) *Plan {
	p := newPlan(TDynamicRepl, code, isa)
	p.dispatchWork = threadedDispatchWork
	p.dispatchBytes = threadedDispatchBytes
	lay := buildStaticLayout(isa)
	alloc := codegen.NewAllocator(codegen.DynamicBase, 1)
	p.gapAddr = make([]uint64, len(code))
	for pos, in := range code {
		m := isa.Meta(in.Op)
		switch classify(isa, in.Op) {
		case clsQuick:
			p.gapAddr[pos] = alloc.Alloc(m.QuickBytesMax + threadedDispatchBytes)
			fallthrough
		case clsShared:
			setShared(p, lay, pos, in.Op)
		default:
			a := alloc.Alloc(m.Bytes + threadedDispatchBytes)
			p.addr[pos] = a
			p.branchAddr[pos] = a + uint64(m.Bytes)
			p.seqBranch[pos] = p.branchAddr[pos]
		}
		// Under pure replication every instance keeps its own
		// dispatch, quickened or not.
		p.mustSeq[pos] = true
	}
	p.dynBytes = alloc.Used()
	p.onQuicken = dynQuicken(isa)
	return p
}

// blockLayout is the generated-code layout for one basic block's
// superinstruction: per component, the addresses assigned.
type blockLayout struct {
	addr   []uint64 // component code (0 => shared)
	brAddr []uint64 // dispatch branch used from this component (0 => none allocated)
	gap    []uint64 // quickable gap (0 => none)
	cls    []compClass
}

// layoutSuperBlock allocates the dynamic superinstruction for a
// sequence of opcodes: relocatable components are copied with ip
// increments between them, quickables get gaps, non-relocatables
// split the superinstruction with dispatches to shared code, and the
// block ends in a dispatch.
func layoutSuperBlock(ops []uint32, isa ISA, lay *staticLayout, alloc *codegen.Allocator) *blockLayout {
	k := len(ops)
	bl := &blockLayout{
		addr:   make([]uint64, k),
		brAddr: make([]uint64, k),
		gap:    make([]uint64, k),
		cls:    make([]compClass, k),
	}
	for idx, op := range ops {
		bl.cls[idx] = classify(isa, op)
	}
	for idx, op := range ops {
		m := isa.Meta(op)
		last := idx == k-1
		switch bl.cls[idx] {
		case clsQuick:
			bl.gap[idx] = alloc.Alloc(m.QuickBytesMax + threadedDispatchBytes)
			bl.addr[idx] = lay.workAddr[op]
			bl.brAddr[idx] = lay.branchAddr[op]
		case clsShared:
			bl.addr[idx] = lay.workAddr[op]
			bl.brAddr[idx] = lay.branchAddr[op]
		default:
			bl.addr[idx] = alloc.Alloc(m.Bytes)
			needSlot := last || bl.cls[idx+1] == clsShared
			if needSlot {
				bl.brAddr[idx] = alloc.Alloc(threadedDispatchBytes)
			} else if bl.cls[idx+1] == clsDyn {
				alloc.Alloc(ipIncBytes) // kept ip increment
			}
			// Fall-through into a quickable gap needs no bytes
			// here: the gap starts with its own dispatch stub.
		}
	}
	return bl
}

// applyBlock writes a block layout into the plan for the block
// starting at position start.
func applyBlock(p *Plan, bl *blockLayout, start int) {
	k := len(bl.addr)
	for idx := 0; idx < k; idx++ {
		pos := start + idx
		last := idx == k-1
		p.gapAddr[pos] = bl.gap[idx]
		switch bl.cls[idx] {
		case clsQuick, clsShared:
			p.addr[pos] = bl.addr[idx]
			p.branchAddr[pos] = bl.brAddr[idx]
			p.seqBranch[pos] = bl.brAddr[idx]
			p.seqDispatch[pos] = true
			// A shared component always dispatches; a quickable's
			// dispatch is structural only at block end.
			p.mustSeq[pos] = bl.cls[idx] == clsShared || last
		default:
			p.addr[pos] = bl.addr[idx]
			switch {
			case last || bl.cls[idx+1] == clsShared:
				p.branchAddr[pos] = bl.brAddr[idx]
				p.seqBranch[pos] = bl.brAddr[idx]
				p.seqDispatch[pos] = true
				p.mustSeq[pos] = true
			case bl.cls[idx+1] == clsQuick:
				// Fall into the quickable's gap stub until it is
				// quickened; sealed by dynQuicken afterwards.
				p.branchAddr[pos] = bl.gap[idx+1]
				p.seqBranch[pos] = bl.gap[idx+1]
				p.seqDispatch[pos] = true
			default:
				p.seqDispatch[pos] = false
				p.seqWork[pos] = ipIncWork
			}
		}
	}
}

// buildDynamicSuper creates one dynamic superinstruction per basic
// block. With dedup, identical blocks share one superinstruction
// (Piumarta & Riccardi; TDynamicSuper); without, every block instance
// gets its own copy (TDynamicBoth, dynamic superinstructions with
// replication).
func buildDynamicSuper(code []Inst, isa ISA, cfg Config, dedup bool) *Plan {
	t := TDynamicBoth
	if dedup {
		t = TDynamicSuper
	}
	p := newPlan(t, code, isa)
	p.dispatchWork = threadedDispatchWork
	p.dispatchBytes = threadedDispatchBytes
	p.gapAddr = make([]uint64, len(code))
	lay := buildStaticLayout(isa)
	alloc := codegen.NewAllocator(codegen.DynamicBase, 1)

	seen := make(map[string]*blockLayout)
	for _, b := range Blocks(code, isa, cfg.ExtraLeaders) {
		ops := Ops(code, b)
		var bl *blockLayout
		if dedup {
			key := sigKey(ops)
			bl = seen[key]
			if bl == nil {
				bl = layoutSuperBlock(ops, isa, lay, alloc)
				seen[key] = bl
			}
		} else {
			bl = layoutSuperBlock(ops, isa, lay, alloc)
		}
		applyBlock(p, bl, b.Start)
	}
	p.dynBytes = alloc.Used()
	p.onQuicken = dynQuicken(isa)
	return p
}

func sigKey(ops []uint32) string {
	b := make([]byte, 0, len(ops)*4)
	for _, op := range ops {
		b = append(b, byte(op), byte(op>>8), byte(op>>16), byte(op>>24))
	}
	return string(b)
}

// buildAcrossBB builds dynamic superinstructions with replication
// across basic blocks (Section 5.2): the whole program is copied as
// one run of code per fall-through chain, ip increments are kept so
// VM jumps can enter anywhere, and dispatches remain only for taken
// VM branches, calls, returns and transitions through shared code.
// TWithStaticSuper additionally folds static superinstructions into
// the copied code; TWithStaticSuperAcross lets them cross block
// boundaries at the price of side-entry fallback to shared code
// (Figure 6).
func buildAcrossBB(code []Inst, isa ISA, cfg Config) *Plan {
	p := newPlan(cfg.Technique, code, isa)
	p.dispatchWork = threadedDispatchWork
	p.dispatchBytes = threadedDispatchBytes
	p.gapAddr = make([]uint64, len(code))
	lay := buildStaticLayout(isa)
	alloc := codegen.NewAllocator(codegen.DynamicBase, 1)
	n := len(code)

	// Static superinstruction coverage: pieceIdx[pos] = index of pos
	// within its covering piece (-1 when uncovered); pieceEnd[pos] =
	// end position (exclusive) of the covering piece.
	pieceIdx := make([]int, n)
	pieceEnd := make([]int, n)
	for i := range pieceIdx {
		pieceIdx[i] = -1
	}
	withSupers := cfg.Technique == TWithStaticSuper || cfg.Technique == TWithStaticSuperAcross
	acrossSupers := cfg.Technique == TWithStaticSuperAcross
	if withSupers {
		// Parse units: the stretches of relocatable superinstruction
		// components (dynamic code copying cannot fold non-relocatable
		// ones), within each basic block or, across blocks, in the
		// whole program.
		units := []Block{{Start: 0, End: n}}
		if !acrossSupers {
			units = Blocks(code, isa, cfg.ExtraLeaders)
		}
		var runs []Block
		for _, b := range units {
			runs = stretches(runs, b, func(pos int) bool {
				m := isa.Meta(code[pos].Op)
				return m.Relocatable && m.SuperComponent()
			})
		}
		for _, r := range runs {
			for _, piece := range cfg.parse(Ops(code, r)) {
				if piece.Super < 0 {
					continue
				}
				for k := 0; k < piece.Len; k++ {
					pos := r.Start + piece.Start + k
					pieceIdx[pos] = k
					pieceEnd[pos] = r.Start + piece.Start + piece.Len
				}
			}
		}
	}

	cls := make([]compClass, n)
	for pos, in := range code {
		cls[pos] = classify(isa, in.Op)
	}

	for pos, in := range code {
		m := isa.Meta(in.Op)
		last := pos == n-1
		switch cls[pos] {
		case clsQuick:
			p.gapAddr[pos] = alloc.Alloc(m.QuickBytesMax + threadedDispatchBytes)
			setShared(p, lay, pos, in.Op)
		case clsShared:
			setShared(p, lay, pos, in.Op)
			p.mustSeq[pos] = true
		default:
			w, b := m.Work, m.Bytes
			if pieceIdx[pos] > 0 {
				// Non-first superinstruction component: junction
				// savings, no ip increment before it.
				w, b = junction(m)
			}
			p.workInstrs[pos] = int32(w)
			p.workBytes[pos] = int32(b)
			p.addr[pos] = alloc.Alloc(b)

			// A control instruction needs an embedded dispatch for
			// its taken path (and calls/returns always dispatch).
			if m.Control() && !m.Stop {
				p.branchAddr[pos] = alloc.Alloc(threadedDispatchBytes)
			}

			// Fall-through boundary.
			switch {
			case last || cls[pos+1] == clsShared:
				if p.branchAddr[pos] == 0 {
					p.branchAddr[pos] = alloc.Alloc(threadedDispatchBytes)
				}
				p.seqBranch[pos] = p.branchAddr[pos]
				p.seqDispatch[pos] = true
				p.mustSeq[pos] = true
			case cls[pos+1] == clsQuick:
				// Fall into the quickable's gap stub (allocated when
				// we reach pos+1; gaps are assigned in this same
				// left-to-right pass, so fix it up afterwards).
				p.seqDispatch[pos] = true
				p.mustSeq[pos] = false
			default:
				p.seqDispatch[pos] = false
				if pieceIdx[pos] >= 0 && pos+1 < n && pieceIdx[pos+1] > 0 {
					// Interior junction of a static super: no ip inc.
					p.seqWork[pos] = 0
				} else {
					p.seqWork[pos] = ipIncWork
					alloc.Alloc(ipIncBytes)
				}
			}
		}
	}

	// Second pass: point fall-through-into-gap junctions at the gap
	// stubs (the gap addresses now all exist).
	for pos := 0; pos < n-1; pos++ {
		if cls[pos] == clsDyn && cls[pos+1] == clsQuick && p.seqDispatch[pos] && !p.mustSeq[pos] {
			p.seqBranch[pos] = p.gapAddr[pos+1]
			if p.branchAddr[pos] == 0 {
				p.branchAddr[pos] = p.gapAddr[pos+1]
			}
		}
	}

	// Side entries for static superinstructions across basic blocks:
	// jumping into the middle of a covered piece executes shared,
	// non-replicated code until the piece ends (paper Figure 6).
	if acrossSupers {
		leaders := Leaders(code, isa, cfg.ExtraLeaders)
		p.sideEntry = make([]bool, n)
		p.shadowUntil = make([]int32, n)
		p.sharedAddr = make([]uint64, n)
		p.sharedBr = make([]uint64, n)
		for pos, in := range code {
			p.sharedAddr[pos] = lay.workAddr[in.Op]
			p.sharedBr[pos] = lay.branchAddr[in.Op]
			if pieceIdx[pos] > 0 && leaders[pos] {
				p.sideEntry[pos] = true
				p.shadowUntil[pos] = int32(pieceEnd[pos])
			}
		}
	}

	p.dynBytes = alloc.Used()
	p.onQuicken = dynQuicken(isa)
	return p
}
