package core

import (
	"fmt"

	"vmopt/internal/codegen"
	"vmopt/internal/superinst"
)

// BuildPlan constructs the code-layout plan for running code under
// cfg.Technique. code must be the live VM code slice of the process
// that will execute (quickening mutates it and plans re-read it).
func BuildPlan(code []Inst, isa ISA, cfg Config) (*Plan, error) {
	if err := validate(code, isa, cfg); err != nil {
		return nil, err
	}
	switch cfg.Technique {
	case TSwitch:
		return buildSwitch(code, isa), nil
	case TPlain:
		return buildPlain(code, isa), nil
	case TStaticRepl:
		return buildStatic(code, isa, cfg, false), nil
	case TStaticSuper, TStaticBoth:
		return buildStatic(code, isa, cfg, true), nil
	case TDynamicRepl:
		return buildDynamicRepl(code, isa, cfg), nil
	case TDynamicSuper:
		return buildDynamicSuper(code, isa, cfg, true), nil
	case TDynamicBoth:
		return buildDynamicSuper(code, isa, cfg, false), nil
	case TAcrossBB, TWithStaticSuper, TWithStaticSuperAcross:
		return buildAcrossBB(code, isa, cfg), nil
	default:
		return nil, fmt.Errorf("core: unknown technique %v", cfg.Technique)
	}
}

// MustBuildPlan is BuildPlan that panics on error.
func MustBuildPlan(code []Inst, isa ISA, cfg Config) *Plan {
	p, err := BuildPlan(code, isa, cfg)
	if err != nil {
		panic(err)
	}
	return p
}

func validate(code []Inst, isa ISA, cfg Config) error {
	n := isa.NumOps()
	for pos, in := range code {
		if int(in.Op) >= n {
			return fmt.Errorf("core: position %d has opcode %d outside ISA (%d ops)", pos, in.Op, n)
		}
	}
	if cfg.Technique.IsDynamic() {
		// Dynamic code copying requires the relocatability flags to
		// be trustworthy: run the paper's padding-comparison check.
		if err := VerifyRelocatability(isa); err != nil {
			return err
		}
	}
	if cfg.ReplicaExtra != nil && len(cfg.ReplicaExtra) != n {
		return fmt.Errorf("core: ReplicaExtra has %d entries, ISA has %d ops", len(cfg.ReplicaExtra), n)
	}
	switch cfg.Technique {
	case TStaticSuper, TStaticBoth, TWithStaticSuper, TWithStaticSuperAcross:
		if cfg.Supers == nil {
			return fmt.Errorf("core: technique %v requires a superinstruction table", cfg.Technique)
		}
	}
	if cfg.Supers != nil {
		for id := 0; id < cfg.Supers.NumSupers(); id++ {
			for _, op := range cfg.Supers.Seq(id) {
				if m := isa.Meta(op); !m.SuperComponent() {
					return fmt.Errorf("core: superinstruction %d contains control/quickable op %s", id, m.Name)
				}
			}
		}
	}
	if cfg.SuperReplicaExtra != nil {
		if cfg.Supers == nil {
			return fmt.Errorf("core: SuperReplicaExtra without a superinstruction table")
		}
		if len(cfg.SuperReplicaExtra) != cfg.Supers.NumSupers() {
			return fmt.Errorf("core: SuperReplicaExtra has %d entries, table has %d supers",
				len(cfg.SuperReplicaExtra), cfg.Supers.NumSupers())
		}
	}
	return nil
}

// buildSwitch models switch dispatch: every position executes its
// opcode's case body, and every dispatch goes through the single
// shared switch branch.
func buildSwitch(code []Inst, isa ISA) *Plan {
	p := newPlan(TSwitch, code, isa)
	lay := buildStaticLayout(isa)
	for pos, in := range code {
		p.addr[pos] = lay.caseAddr[in.Op]
		p.branchAddr[pos] = lay.switchAddr
		p.seqBranch[pos] = lay.switchAddr
	}
	p.dispatchWork = switchDispatchWork
	p.dispatchBytes = switchDispatchBytes
	p.onQuicken = func(pl *Plan, pos int, newOp uint32) {
		m := isa.Meta(newOp)
		pl.workInstrs[pos] = int32(m.Work)
		pl.workBytes[pos] = int32(m.Bytes)
		pl.addr[pos] = lay.caseAddr[newOp]
	}
	return p
}

// buildPlain models threaded code: per-opcode routines, each with its
// own dispatch branch.
func buildPlain(code []Inst, isa ISA) *Plan {
	p := newPlan(TPlain, code, isa)
	lay := buildStaticLayout(isa)
	for pos, in := range code {
		setShared(p, lay, pos, in.Op)
	}
	p.dispatchWork = threadedDispatchWork
	p.dispatchBytes = threadedDispatchBytes
	p.onQuicken = func(pl *Plan, pos int, newOp uint32) {
		m := isa.Meta(newOp)
		pl.workInstrs[pos] = int32(m.Work)
		pl.workBytes[pos] = int32(m.Bytes)
		setShared(pl, lay, pos, newOp)
	}
	return p
}

// setShared points position pos at the base interpreter's routine for
// op, which ends in its own dispatch branch.
func setShared(p *Plan, lay *staticLayout, pos int, op uint32) {
	p.addr[pos] = lay.workAddr[op]
	p.branchAddr[pos] = lay.branchAddr[op]
	p.seqBranch[pos] = lay.branchAddr[op]
	p.seqDispatch[pos] = true
}

// junction returns the work and code bytes of a non-first
// superinstruction component: the static junction savings applied.
func junction(m OpMeta) (work, bytes int) {
	return max(m.Work-staticSuperJunctionSavedWork, 0), max(m.Bytes-staticSuperJunctionSavedBytes, 1)
}

// staticCopies lays out extra copies of opcode routines (and, with a
// table, superinstruction routines) in the interpreter's code
// segment. Copy 0 is the original routine.
type staticCopies struct {
	lay *staticLayout
	// opAddr[op][c] / opBranch[op][c]: copy c of opcode op.
	opAddr   [][]uint64
	opBranch [][]uint64
	opAsg    *superinst.Assigner
	// superAddr[s][c]: copy c of superinstruction s; superSize[s]
	// is its fragment size including final dispatch; superOff[s][k]
	// is component k's offset.
	superAddr [][]uint64
	superSize []int
	superOff  [][]int
	superAsg  *superinst.Assigner
	// copyBytes is the code volume of the extra copies (Gforth's
	// startup-time static replication, Section 6.1).
	copyBytes uint64
}

func buildStaticCopies(isa ISA, cfg Config) *staticCopies {
	lay := buildStaticLayout(isa)
	alloc := codegen.NewAllocator(codegen.StaticBase+0x400000, 16)
	n := isa.NumOps()
	sc := &staticCopies{lay: lay, opAddr: make([][]uint64, n), opBranch: make([][]uint64, n)}

	extra := cfg.ReplicaExtra
	if extra == nil {
		extra = make([]int, n)
	}
	for op := 0; op < n; op++ {
		m := isa.Meta(uint32(op))
		copies := extra[op] + 1
		sc.opAddr[op] = make([]uint64, copies)
		sc.opBranch[op] = make([]uint64, copies)
		sc.opAddr[op][0] = lay.workAddr[op]
		sc.opBranch[op][0] = lay.branchAddr[op]
		for c := 1; c < copies; c++ {
			size := m.Bytes + threadedDispatchBytes
			a := alloc.Alloc(size)
			sc.opAddr[op][c] = a
			sc.opBranch[op][c] = a + uint64(m.Bytes)
			sc.copyBytes += uint64(size)
		}
	}
	sc.opAsg = superinst.NewAssigner(extra, cfg.ReplicaMode, cfg.Seed)

	if cfg.Supers != nil {
		ns := cfg.Supers.NumSupers()
		sextra := cfg.SuperReplicaExtra
		if sextra == nil {
			sextra = make([]int, ns)
		}
		sc.superAddr = make([][]uint64, ns)
		sc.superSize = make([]int, ns)
		sc.superOff = make([][]int, ns)
		for s := 0; s < ns; s++ {
			seq := cfg.Supers.Seq(s)
			offs := make([]int, len(seq))
			size := 0
			for k, op := range seq {
				m := isa.Meta(op)
				b := m.Bytes
				if k > 0 {
					_, b = junction(m)
				}
				offs[k] = size
				size += b
			}
			size += threadedDispatchBytes
			sc.superOff[s] = offs
			sc.superSize[s] = size
			copies := sextra[s] + 1
			sc.superAddr[s] = make([]uint64, copies)
			for c := 0; c < copies; c++ {
				sc.superAddr[s][c] = alloc.Alloc(size)
				if c > 0 {
					sc.copyBytes += uint64(size)
				}
			}
		}
		sc.superAsg = superinst.NewAssigner(sextra, cfg.ReplicaMode, cfg.Seed+1)
	}
	return sc
}

// applyPlain assigns position pos a (possibly replicated) copy of the
// routine for op.
func (sc *staticCopies) applyPlain(p *Plan, pos int, op uint32, m OpMeta) {
	c := sc.opAsg.Next(op)
	p.addr[pos] = sc.opAddr[op][c]
	p.branchAddr[pos] = sc.opBranch[op][c]
	p.seqBranch[pos] = sc.opBranch[op][c]
	p.workInstrs[pos] = int32(m.Work)
	p.workBytes[pos] = int32(m.Bytes)
	p.seqDispatch[pos] = true
	p.seqWork[pos] = 0
}

// applySuper assigns the piece positions [start, start+len) a copy of
// superinstruction s.
func (sc *staticCopies) applySuper(p *Plan, isa ISA, table *superinst.Table, start int, s int) {
	seq := table.Seq(s)
	c := sc.superAsg.Next(uint32(s))
	base := sc.superAddr[s][c]
	for k, op := range seq {
		pos := start + k
		m := isa.Meta(op)
		w, b := m.Work, m.Bytes
		if k > 0 {
			w, b = junction(m)
		}
		p.addr[pos] = base + uint64(sc.superOff[s][k])
		p.workInstrs[pos] = int32(w)
		p.workBytes[pos] = int32(b)
		if k < len(seq)-1 {
			p.seqDispatch[pos] = false
			p.seqWork[pos] = 0
			p.branchAddr[pos] = 0
			p.seqBranch[pos] = 0
		} else {
			p.seqDispatch[pos] = true
			br := base + uint64(sc.superSize[s]-threadedDispatchBytes)
			p.branchAddr[pos] = br
			p.seqBranch[pos] = br
		}
	}
}

// buildStatic covers static replication, static superinstructions and
// their combination; withSupers distinguishes TStaticRepl from the
// super-using variants.
func buildStatic(code []Inst, isa ISA, cfg Config, withSupers bool) *Plan {
	p := newPlan(cfg.Technique, code, isa)
	p.dispatchWork = threadedDispatchWork
	p.dispatchBytes = threadedDispatchBytes
	sc := buildStaticCopies(isa, cfg)
	if cfg.CountStaticCopies {
		p.dynBytes = sc.copyBytes
	}

	// Default everything to (replicated) plain routines, honoring
	// VM-code order for round-robin assignment.
	for pos, in := range code {
		m := isa.Meta(in.Op)
		if m.Quickable {
			// Quickable instructions are not replicated; they run
			// from the single original and pick a replica of their
			// quick version at quicken time (Section 5.4).
			setShared(p, sc.lay, pos, in.Op)
			continue
		}
		sc.applyPlain(p, pos, in.Op, m)
	}

	if withSupers && cfg.Supers != nil {
		cover := func(pl *Plan, runs []Block) {
			for _, r := range runs {
				for _, piece := range cfg.parse(Ops(code, r)) {
					if piece.Super >= 0 {
						sc.applySuper(pl, isa, cfg.Supers, r.Start+piece.Start, piece.Super)
					}
				}
			}
		}
		cover(p, Runs(code, isa, cfg.ExtraLeaders))
		blocks := Blocks(code, isa, cfg.ExtraLeaders)
		owner := BlockOf(len(code), blocks)
		// Re-parse on quickening: recompute the eligible runs of the
		// block containing the quickened position against the live
		// code, reset those positions to plain copies, then re-cover.
		p.onQuicken = func(pl *Plan, pos int, newOp uint32) {
			sc.applyPlain(pl, pos, newOp, isa.Meta(newOp))
			runs := superRuns(nil, code, isa, blocks[owner[pos]])
			// Reset run positions to plain before re-covering so
			// stale superinstruction assignments cannot linger.
			for _, r := range runs {
				for q := r.Start; q < r.End; q++ {
					sc.applyPlain(pl, q, code[q].Op, isa.Meta(code[q].Op))
				}
			}
			cover(pl, runs)
		}
	} else {
		// Static replication only: a quickened instruction picks a
		// replica of its quick version.
		p.onQuicken = func(pl *Plan, pos int, newOp uint32) {
			sc.applyPlain(pl, pos, newOp, isa.Meta(newOp))
		}
	}
	return p
}
