package core_test

import (
	"errors"
	"testing"

	"vmopt/internal/core"
	"vmopt/internal/cpu"
	"vmopt/internal/metrics"
	"vmopt/internal/superinst"
)

// A minimal quickable ISA for exercising the Section 5.4 machinery
// without pulling in the full JVM: qGet rewrites itself to qGetQ on
// first execution.
const (
	qLit uint32 = iota
	qAdd
	qGet  // quickable
	qGetQ // its quick version
	qZBr  // conditional branch (arg: target), pops counter
	qHalt
	qNoRel // non-relocatable
	qNumOps
)

type quickISA struct{}

func (quickISA) Name() string { return "quicktest" }
func (quickISA) NumOps() int  { return int(qNumOps) }
func (quickISA) Meta(op uint32) core.OpMeta {
	switch op {
	case qLit:
		return core.OpMeta{Name: "qlit", HasArg: true, Work: 2, Bytes: 7, Relocatable: true}
	case qAdd:
		return core.OpMeta{Name: "qadd", Work: 2, Bytes: 5, Relocatable: true}
	case qGet:
		return core.OpMeta{Name: "qget", Work: 30, Bytes: 40, Quickable: true,
			QuickWork: 200, QuickBytesMax: 12}
	case qGetQ:
		return core.OpMeta{Name: "qgetq", Work: 3, Bytes: 9, Relocatable: true}
	case qZBr:
		return core.OpMeta{Name: "qzbr", HasArg: true, Work: 4, Bytes: 12, Relocatable: true, Branch: true}
	case qHalt:
		return core.OpMeta{Name: "qhalt", Work: 1, Bytes: 4, Relocatable: true, Stop: true}
	case qNoRel:
		return core.OpMeta{Name: "qnorel", Work: 8, Bytes: 20}
	default:
		panic("bad op")
	}
}

// quickVM is a stack machine over the quick ISA.
type quickVM struct {
	code   []core.Inst
	stack  []int64
	pc     int
	halted bool
}

func (v *quickVM) ISA() core.ISA     { return quickISA{} }
func (v *quickVM) Code() []core.Inst { return v.code }
func (v *quickVM) PC() int           { return v.pc }
func (v *quickVM) Done() bool        { return v.halted }

func (v *quickVM) Step() (core.Event, error) {
	if v.halted {
		return core.Event{}, errors.New("halted")
	}
	in := v.code[v.pc]
	ev := core.Event{To: v.pc + 1, Kind: core.EvFall}
	switch in.Op {
	case qLit:
		v.stack = append(v.stack, in.Arg)
	case qAdd, qNoRel:
		n := len(v.stack)
		v.stack = append(v.stack[:n-2], v.stack[n-2]+v.stack[n-1])
	case qGet:
		// Quicken: rewrite to the quick version, then execute it.
		v.code[v.pc].Op = qGetQ
		ev.Quickened = true
		ev.NewOp = qGetQ
		v.stack = append(v.stack, 7)
	case qGetQ:
		v.stack = append(v.stack, 7)
	case qZBr:
		// Peeks rather than pops, so the loop counter survives the
		// back edge (test convenience, not Forth semantics).
		if v.stack[len(v.stack)-1] != 0 {
			ev.Kind = core.EvTaken
			ev.To = int(in.Arg)
		}
	case qHalt:
		v.halted = true
		ev.Kind = core.EvHalt
		ev.To = v.pc
	}
	v.pc = ev.To
	return ev, nil
}

func runQuick(t *testing.T, code []core.Inst, cfg core.Config) (metrics.Counters, *quickVM) {
	t.Helper()
	vm := &quickVM{code: append([]core.Inst(nil), code...)}
	plan, err := core.BuildPlan(vm.Code(), quickISA{}, cfg)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	sim := cpu.NewSim(bigBTB)
	c, err := core.Run(vm, plan, sim, 1_000_000)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return c, vm
}

// quickLoop is a countdown loop executing a quickable each iteration:
//
//	0: qlit iters        counter
//	1: qget              ; quickens on first execution, pushes 7
//	2: qadd              ; counter += 7
//	3: qlit -8
//	4: qadd              ; counter -= 8 (net -1 per iteration)
//	5: qlit 0
//	6: qadd              ; no-op keeping the block longer
//	7: qzbr 1            ; loop while counter != 0
//	8: qhalt
var quickLoop = []core.Inst{
	{Op: qLit, Arg: 20},
	{Op: qGet},
	{Op: qAdd},
	{Op: qLit, Arg: -8},
	{Op: qAdd},
	{Op: qLit, Arg: 0},
	{Op: qAdd},
	{Op: qZBr, Arg: 1},
	{Op: qHalt},
}

func TestQuickenHappensOnce(t *testing.T) {
	c, vm := runQuick(t, quickLoop, core.Config{Technique: core.TPlain})
	if vm.code[1].Op != qGetQ {
		t.Error("position 1 should have quickened to qGetQ")
	}
	// QuickWork (200) charged exactly once: compare against a run
	// where the code starts pre-quickened.
	pre := append([]core.Inst(nil), quickLoop...)
	pre[1].Op = qGetQ
	c2, _ := runQuick(t, pre, core.Config{Technique: core.TPlain})
	// First run also executes qGet's own work (30) instead of
	// qGetQ's (3) on the first iteration.
	wantDelta := uint64(200 + 30 - 3)
	if c.Instructions-c2.Instructions != wantDelta {
		t.Errorf("quicken overhead = %d instructions, want %d",
			c.Instructions-c2.Instructions, wantDelta)
	}
}

func TestQuickenPatchesDynamicGap(t *testing.T) {
	vm := &quickVM{code: append([]core.Inst(nil), quickLoop...)}
	plan := core.MustBuildPlan(vm.Code(), quickISA{}, core.Config{Technique: core.TDynamicRepl})
	before := plan.Addr(1)
	sim := cpu.NewSim(bigBTB)
	if _, err := core.Run(vm, plan, sim, 1_000_000); err != nil {
		t.Fatal(err)
	}
	after := plan.Addr(1)
	if before == after {
		t.Error("quickening should repoint the instance at its gap")
	}
	if after < 0x40000000 {
		t.Errorf("patched address %#x not in the dynamic region", after)
	}
}

func TestQuickenSealsAcrossBBJunctions(t *testing.T) {
	// Under across-bb, once everything is quickened the loop body
	// should dispatch only on the taken branch: 1 dispatch per
	// iteration (plus startup effects).
	c, _ := runQuick(t, quickLoop, core.Config{Technique: core.TAcrossBB})
	iters := uint64(20)
	// Pre-quicken iteration costs a few extra dispatches; afterwards
	// only the qzbr taken dispatch remains (the final fall-through
	// into qhalt costs none: fall-through junction).
	if c.Dispatches > iters+6 {
		t.Errorf("across bb dispatches = %d, want about %d (one per taken branch)",
			c.Dispatches, iters)
	}
	if c.Dispatches < iters-1 {
		t.Errorf("across bb dispatches = %d, below taken-branch count %d", c.Dispatches, iters)
	}
}

func TestQuickenSealsDynamicSuperJunctions(t *testing.T) {
	// Dynamic super (per block): after quickening, each iteration is
	// one block ending at qzbr -> exactly one dispatch per iteration,
	// plus pre-quicken extras in the first.
	c, _ := runQuick(t, quickLoop, core.Config{Technique: core.TDynamicSuper})
	iters := uint64(20)
	if c.Dispatches > iters+8 || c.Dispatches < iters {
		t.Errorf("dynamic super dispatches = %d, want about %d", c.Dispatches, iters)
	}
}

func TestNonRelocatableExecutesShared(t *testing.T) {
	code := []core.Inst{
		{Op: qLit, Arg: 1},
		{Op: qLit, Arg: 2},
		{Op: qNoRel},
		{Op: qHalt},
	}
	vm := &quickVM{code: code}
	plan := core.MustBuildPlan(vm.Code(), quickISA{}, core.Config{Technique: core.TDynamicRepl})
	if plan.Addr(2) >= 0x40000000 {
		t.Error("non-relocatable instance must execute from the static region")
	}
	if plan.Addr(0) < 0x40000000 || plan.Addr(1) < 0x40000000 {
		t.Error("relocatable instances must execute from the dynamic region")
	}
	// Two qLit instances must have distinct copies.
	if plan.Addr(0) == plan.Addr(1) {
		t.Error("dynamic replication must give each instance its own copy")
	}
}

func TestStaticSuperReparsesAfterQuicken(t *testing.T) {
	// Table contains [qGetQ qAdd]: only applicable after quickening.
	table := superinst.MustNewTable([][]uint32{{qGetQ, qAdd}})
	cfg := core.Config{Technique: core.TStaticSuper, Supers: table}
	c, vm := runQuick(t, quickLoop, cfg)
	if vm.code[1].Op != qGetQ {
		t.Fatal("did not quicken")
	}
	// Compare with plain: the super must have removed the dispatch
	// between positions 1 and 2 for all post-quicken iterations.
	cPlain, _ := runQuick(t, quickLoop, core.Config{Technique: core.TPlain})
	saved := cPlain.Dispatches - c.Dispatches
	if saved < 15 {
		t.Errorf("re-parsed superinstruction saved %d dispatches, want >= 15", saved)
	}
}

func TestDynamicReplGeneratesGapBytes(t *testing.T) {
	vm := &quickVM{code: append([]core.Inst(nil), quickLoop...)}
	plan := core.MustBuildPlan(vm.Code(), quickISA{}, core.Config{Technique: core.TDynamicRepl})
	if plan.DynamicCodeBytes() == 0 {
		t.Error("dynamic replication should report generated code")
	}
}
