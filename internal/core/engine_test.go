package core_test

import (
	"errors"
	"testing"

	"vmopt/internal/core"
	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/forth"
	"vmopt/internal/forthvm"
	"vmopt/internal/metrics"
	"vmopt/internal/superinst"
)

// bigBTB is a machine with an effectively unbounded BTB and I-cache,
// isolating the inherent prediction behaviour from capacity effects.
var bigBTB = cpu.Machine{
	Name:      "test-bigbtb",
	Predictor: cpu.PredictBTB, BTBEntries: 1 << 18, BTBWays: 4,
	ICacheBytes: 1 << 24, ICacheLine: 64, ICacheWays: 8,
	MispredictPenalty: 10, ICacheMissPenalty: 10,
	CPI: 1, ClockMHz: 1000,
}

const benchSrc = `
	variable sum
	: add-to sum +! ;
	: triangle 0 sum ! 1+ 1 do i add-to loop sum @ ;
	: odd? 1 and 0<> ;
	variable odds
	: count-odds 0 odds ! 100 0 do i odd? if 1 odds +! then loop ;
	count-odds
	20 triangle .
	odds @ .
`

// runTech compiles src, runs it under the technique, and returns the
// counters plus the program output.
func runTech(t *testing.T, src string, cfg core.Config, m cpu.Machine) (metrics.Counters, string) {
	t.Helper()
	return runSink(t, src, cfg, m, nil)
}

// runSink is runTech with sink, when not nil, recording the run.
func runSink(t *testing.T, src string, cfg core.Config, m cpu.Machine, sink cpu.Sink) (metrics.Counters, string) {
	t.Helper()
	sim := cpu.NewSim(m)
	sim.Sink = sink
	out := runOn(t, src, cfg, sim)
	return sim.C, out
}

// runOn compiles src, runs it under the technique on sim, and returns
// the program output.
func runOn(t *testing.T, src string, cfg core.Config, sim *cpu.Sim) string {
	t.Helper()
	p, err := forth.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	vm := p.NewVM(1024)
	var extras []int
	for _, xt := range p.Words {
		extras = append(extras, xt)
	}
	cfg.ExtraLeaders = extras
	plan, err := core.BuildPlan(vm.Code(), forthvm.ISA(), cfg)
	if err != nil {
		t.Fatalf("BuildPlan(%v): %v", cfg.Technique, err)
	}
	if _, err := core.Run(vm, plan, sim, 50_000_000); err != nil {
		t.Fatalf("Run(%v): %v", cfg.Technique, err)
	}
	return string(vm.Out)
}

// forthTable returns a small superinstruction table of sequences that
// occur in compiled Forth code.
func forthTable(t *testing.T, src string, n int) *superinst.Table {
	t.Helper()
	p := forth.MustCompile(src)
	isa := forthvm.ISA()
	runs := core.Runs(p.Code, isa, nil)
	var blocks [][]uint32
	for _, r := range runs {
		blocks = append(blocks, core.Ops(p.Code, r))
	}
	counts := superinst.CollectSequences(blocks, 4, nil)
	seqs := superinst.SelectTop(counts, n, 1)
	if len(seqs) == 0 {
		t.Fatal("no superinstruction candidates found")
	}
	return superinst.MustNewTable(seqs)
}

// allConfigs builds a config per technique with sensible parameters.
func allConfigs(t *testing.T, src string) []core.Config {
	t.Helper()
	isa := forthvm.ISA()
	table := forthTable(t, src, 20)
	extra := make([]int, isa.NumOps())
	for op := range extra {
		extra[op] = 2 // a few replicas of everything
	}
	superExtra := make([]int, table.NumSupers())
	for s := range superExtra {
		superExtra[s] = 1
	}
	return []core.Config{
		{Technique: core.TSwitch},
		{Technique: core.TPlain},
		{Technique: core.TStaticRepl, ReplicaExtra: extra},
		{Technique: core.TStaticSuper, Supers: table},
		{Technique: core.TStaticBoth, Supers: table, ReplicaExtra: extra, SuperReplicaExtra: superExtra},
		{Technique: core.TDynamicRepl},
		{Technique: core.TDynamicSuper},
		{Technique: core.TDynamicBoth},
		{Technique: core.TAcrossBB},
		{Technique: core.TWithStaticSuper, Supers: table},
		{Technique: core.TWithStaticSuperAcross, Supers: table},
	}
}

// TestSemanticsIdenticalAcrossTechniques: the dispatch technique must
// never change program results.
func TestSemanticsIdenticalAcrossTechniques(t *testing.T) {
	var wantOut string
	for k, cfg := range allConfigs(t, benchSrc) {
		_, out := runTech(t, benchSrc, cfg, bigBTB)
		if k == 0 {
			wantOut = out
			if wantOut == "" {
				t.Fatal("benchmark produced no output")
			}
			continue
		}
		if out != wantOut {
			t.Errorf("%v: output %q differs from %q", cfg.Technique, out, wantOut)
		}
	}
}

// TestVMInstructionCountInvariant: every technique executes exactly
// the same VM instructions.
func TestVMInstructionCountInvariant(t *testing.T) {
	var want uint64
	for k, cfg := range allConfigs(t, benchSrc) {
		c, _ := runTech(t, benchSrc, cfg, bigBTB)
		if k == 0 {
			want = c.VMInstructions
			if want == 0 {
				t.Fatal("no VM instructions executed")
			}
			continue
		}
		if c.VMInstructions != want {
			t.Errorf("%v: VM instructions = %d, want %d", cfg.Technique, c.VMInstructions, want)
		}
	}
}

// TestReplicationPreservesInstructionCounts encodes the paper's §7.3
// observation: plain, static repl and dynamic repl execute exactly
// the same native instruction and indirect branch counts — only the
// prediction accuracy differs.
func TestReplicationPreservesInstructionCounts(t *testing.T) {
	cfgs := allConfigs(t, benchSrc)
	plain, _ := runTech(t, benchSrc, cfgs[1], bigBTB)
	srepl, _ := runTech(t, benchSrc, cfgs[2], bigBTB)
	drepl, _ := runTech(t, benchSrc, cfgs[5], bigBTB)
	if plain.Instructions != srepl.Instructions || plain.Instructions != drepl.Instructions {
		t.Errorf("instructions differ: plain=%d static repl=%d dynamic repl=%d",
			plain.Instructions, srepl.Instructions, drepl.Instructions)
	}
	if plain.IndirectBranches != srepl.IndirectBranches || plain.IndirectBranches != drepl.IndirectBranches {
		t.Errorf("indirect branches differ: plain=%d static repl=%d dynamic repl=%d",
			plain.IndirectBranches, srepl.IndirectBranches, drepl.IndirectBranches)
	}
}

// TestDynamicSuperVariantsShareCounts: dynamic super and dynamic both
// execute the same instruction stream (paper §7.3), differing only in
// code sharing.
func TestDynamicSuperVariantsShareCounts(t *testing.T) {
	cfgs := allConfigs(t, benchSrc)
	dsuper, _ := runTech(t, benchSrc, cfgs[6], bigBTB)
	dboth, _ := runTech(t, benchSrc, cfgs[7], bigBTB)
	if dsuper.Instructions != dboth.Instructions {
		t.Errorf("instructions: dynamic super=%d dynamic both=%d", dsuper.Instructions, dboth.Instructions)
	}
	if dsuper.IndirectBranches != dboth.IndirectBranches {
		t.Errorf("branches: dynamic super=%d dynamic both=%d", dsuper.IndirectBranches, dboth.IndirectBranches)
	}
	if dboth.Mispredicted > dsuper.Mispredicted {
		t.Errorf("dynamic both mispredicts more than dynamic super (%d > %d)",
			dboth.Mispredicted, dsuper.Mispredicted)
	}
	if dboth.CodeBytes < dsuper.CodeBytes {
		t.Errorf("dynamic both should generate at least as much code (%d < %d)",
			dboth.CodeBytes, dsuper.CodeBytes)
	}
}

// predSrc is loop-dominated with monomorphic calls and returns, so
// dispatch mispredictions come from VM instruction reuse rather than
// data-dependent VM branches (the paper's replication-resistant
// residue).
const predSrc = `
	variable sum
	: step1 dup * sum +! ;
	: step2 dup dup * * sum +! ;
	: step3 1+ dup * sum +! ;
	: step4 dup 1+ * sum +! ;
	: inner 20 0 do i step1 i step2 i step3 i step4 loop ;
	: run 40 0 do inner loop ;
	run sum @ .
`

// TestMispredictionOrdering encodes the paper's central claims:
// switch dispatch mispredicts more than threaded code; replication
// eliminates nearly all dispatch mispredictions.
func TestMispredictionOrdering(t *testing.T) {
	cfgs := allConfigs(t, predSrc)
	sw, _ := runTech(t, predSrc, cfgs[0], bigBTB)
	plain, _ := runTech(t, predSrc, cfgs[1], bigBTB)
	drepl, _ := runTech(t, predSrc, cfgs[5], bigBTB)

	if sw.MispredictRate() <= plain.MispredictRate() {
		t.Errorf("switch rate %.2f should exceed threaded rate %.2f",
			sw.MispredictRate(), plain.MispredictRate())
	}
	if plain.MispredictRate() < 0.2 {
		t.Errorf("plain threaded mispredict rate %.2f suspiciously low", plain.MispredictRate())
	}
	if drepl.Mispredicted*4 > plain.Mispredicted {
		t.Errorf("dynamic replication should eliminate most mispredictions: %d vs plain %d",
			drepl.Mispredicted, plain.Mispredicted)
	}
}

// TestSuperinstructionsReduceDispatches: dynamic superinstructions
// reduce dispatches far below plain threaded code, and across-bb
// leaves only taken branches, calls and returns.
func TestSuperinstructionsReduceDispatches(t *testing.T) {
	cfgs := allConfigs(t, benchSrc)
	plain, _ := runTech(t, benchSrc, cfgs[1], bigBTB)
	dsuper, _ := runTech(t, benchSrc, cfgs[6], bigBTB)
	across, _ := runTech(t, benchSrc, cfgs[8], bigBTB)
	if dsuper.Dispatches >= plain.Dispatches {
		t.Errorf("dynamic super dispatches %d not below plain %d", dsuper.Dispatches, plain.Dispatches)
	}
	if across.Dispatches >= dsuper.Dispatches {
		t.Errorf("across bb dispatches %d not below dynamic super %d", across.Dispatches, dsuper.Dispatches)
	}
}

// TestAcrossBBDispatchLowerBound: across-bb must still dispatch every
// taken branch/call/return; count those directly for a simple loop.
func TestAcrossBBDispatchCount(t *testing.T) {
	// Loop body: 10 iterations; the (loop) branch is taken 9 times,
	// falls through once. Top-level code has a branch to main.
	src := `variable sum 10 0 do i sum +! loop sum @ .`
	c, _ := runTech(t, src, core.Config{Technique: core.TAcrossBB}, bigBTB)
	p := forth.MustCompile(src)
	vm := p.NewVM(64)
	taken := uint64(0)
	for !vm.Done() {
		ev, err := vm.Step()
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Kind {
		case core.EvTaken, core.EvCall, core.EvReturn, core.EvIndirect:
			taken++
		}
	}
	// Every non-relocatable instruction boundary also dispatches;
	// the "." at the end is non-relocatable, costing 2 dispatches.
	if c.Dispatches < taken || c.Dispatches > taken+8 {
		t.Errorf("across bb dispatches = %d, want about %d (taken transfers)", c.Dispatches, taken)
	}
}

// TestStaticSuperReducesInstructions: static superinstructions save
// native work at junctions (paper: optimization across components).
func TestStaticSuperReducesInstructions(t *testing.T) {
	cfgs := allConfigs(t, benchSrc)
	plain, _ := runTech(t, benchSrc, cfgs[1], bigBTB)
	ssuper, _ := runTech(t, benchSrc, cfgs[3], bigBTB)
	if ssuper.Instructions >= plain.Instructions {
		t.Errorf("static super instructions %d not below plain %d",
			ssuper.Instructions, plain.Instructions)
	}
	if ssuper.Dispatches >= plain.Dispatches {
		t.Errorf("static super dispatches %d not below plain %d",
			ssuper.Dispatches, plain.Dispatches)
	}
}

// TestCodeBytesRelations: dynamic replication generates the most
// code; deduplicated dynamic superinstructions generate much less;
// static techniques generate none (without the Gforth startup-copy
// model).
func TestCodeBytesRelations(t *testing.T) {
	cfgs := allConfigs(t, benchSrc)
	plain, _ := runTech(t, benchSrc, cfgs[1], bigBTB)
	drepl, _ := runTech(t, benchSrc, cfgs[5], bigBTB)
	dsuper, _ := runTech(t, benchSrc, cfgs[6], bigBTB)
	dboth, _ := runTech(t, benchSrc, cfgs[7], bigBTB)
	if plain.CodeBytes != 0 {
		t.Errorf("plain generated %d code bytes, want 0", plain.CodeBytes)
	}
	if drepl.CodeBytes == 0 || dsuper.CodeBytes == 0 {
		t.Error("dynamic techniques must generate code")
	}
	if dsuper.CodeBytes >= dboth.CodeBytes {
		t.Errorf("dedup (%d bytes) should be below per-block copies (%d bytes)",
			dsuper.CodeBytes, dboth.CodeBytes)
	}
	if drepl.CodeBytes <= dsuper.CodeBytes {
		t.Errorf("dynamic repl (%d bytes) should exceed dedup super (%d bytes)",
			drepl.CodeBytes, dsuper.CodeBytes)
	}
}

// TestCountStaticCopies: the Gforth-style startup-copy model reports
// a small amount of generated code for static replication.
func TestCountStaticCopies(t *testing.T) {
	isa := forthvm.ISA()
	extra := make([]int, isa.NumOps())
	extra[forthvm.OpLit] = 3
	c, _ := runTech(t, benchSrc, core.Config{
		Technique: core.TStaticRepl, ReplicaExtra: extra, CountStaticCopies: true,
	}, bigBTB)
	if c.CodeBytes == 0 {
		t.Error("CountStaticCopies should report copied code bytes")
	}
	c2, _ := runTech(t, benchSrc, core.Config{
		Technique: core.TStaticRepl, ReplicaExtra: extra,
	}, bigBTB)
	if c2.CodeBytes != 0 {
		t.Error("without CountStaticCopies static repl reports no code bytes")
	}
}

// TestSpeedupOrdering: on a big-BTB machine, the overall cycle
// ordering of the main paper result must hold: across bb (and with
// static super) beat dynamic super, which beats plain; switch is
// slowest.
func TestSpeedupOrdering(t *testing.T) {
	cfgs := allConfigs(t, benchSrc)
	results := make(map[core.Technique]metrics.Counters)
	for _, cfg := range cfgs {
		c, _ := runTech(t, benchSrc, cfg, bigBTB)
		results[cfg.Technique] = c
	}
	le := func(a, b core.Technique) {
		t.Helper()
		if results[a].Cycles > results[b].Cycles {
			t.Errorf("%v (%.0f cycles) should not be slower than %v (%.0f cycles)",
				a, results[a].Cycles, b, results[b].Cycles)
		}
	}
	le(core.TPlain, core.TSwitch)
	le(core.TDynamicRepl, core.TPlain)
	le(core.TDynamicSuper, core.TPlain)
	le(core.TAcrossBB, core.TDynamicSuper)
	le(core.TWithStaticSuper, core.TAcrossBB)
	le(core.TStaticRepl, core.TPlain)
	le(core.TStaticSuper, core.TPlain)
}

// TestMaxStepsGuard: a runaway program errors out instead of hanging,
// and a recording of it holds every instruction run up to the limit.
func TestMaxStepsGuard(t *testing.T) {
	p := forth.MustCompile("begin 1 drop again")
	vm := p.NewVM(16)
	plan := core.MustBuildPlan(vm.Code(), forthvm.ISA(), core.Config{Technique: core.TPlain})
	sim := cpu.NewSim(bigBTB)
	w := disptrace.NewWriter(disptrace.Header{})
	sim.Sink = w
	if _, err := core.Run(vm, plan, sim, 1000); !errors.Is(err, core.ErrStepLimit) {
		t.Errorf("Run past maxSteps = %v, want ErrStepLimit", err)
	}
	if n := w.Trace().Header.VMInstructions; n != 1000 {
		t.Errorf("recording of a run stopped at 1000 steps holds %d", n)
	}
}

// TestRunPropagatesVMErrors: a crashing program surfaces its error.
func TestRunPropagatesVMErrors(t *testing.T) {
	code := []core.Inst{{Op: forthvm.OpAdd}, {Op: forthvm.OpHalt}}
	vm := forthvm.New(code, 16)
	plan := core.MustBuildPlan(vm.Code(), forthvm.ISA(), core.Config{Technique: core.TPlain})
	if _, err := core.Run(vm, plan, cpu.NewSim(bigBTB), 100); err == nil {
		t.Error("Run should propagate stack underflow")
	}
}

// TestBuildPlanValidation covers config validation errors.
func TestBuildPlanValidation(t *testing.T) {
	isa := forthvm.ISA()
	code := []core.Inst{{Op: forthvm.OpHalt}}
	tests := []struct {
		name string
		cfg  core.Config
	}{
		{"super table required", core.Config{Technique: core.TStaticSuper}},
		{"bad replica len", core.Config{Technique: core.TStaticRepl, ReplicaExtra: []int{1, 2}}},
		{"super replicas without table", core.Config{Technique: core.TStaticRepl, SuperReplicaExtra: []int{1}}},
		{"control op in super", core.Config{Technique: core.TStaticSuper,
			Supers: superinst.MustNewTable([][]uint32{{forthvm.OpBranch, forthvm.OpAdd}})}},
		{"super replica len mismatch", core.Config{Technique: core.TStaticBoth,
			Supers:            superinst.MustNewTable([][]uint32{{forthvm.OpDup, forthvm.OpAdd}}),
			SuperReplicaExtra: []int{1, 2}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := core.BuildPlan(code, isa, tt.cfg); err == nil {
				t.Error("expected validation error")
			}
		})
	}
	// Bad opcode in code.
	if _, err := core.BuildPlan([]core.Inst{{Op: 1 << 20}}, isa, core.Config{Technique: core.TPlain}); err == nil {
		t.Error("bad opcode should fail validation")
	}
}

func TestMustBuildPlanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuildPlan should panic on error")
		}
	}()
	core.MustBuildPlan(nil, forthvm.ISA(), core.Config{Technique: core.TStaticSuper})
}

// TestExecuteResidualMispredictions: VM-level computed control
// transfers (EXECUTE with alternating targets) mispredict even under
// full dynamic replication — the paper's residual dispatch
// mispredictions "due to indirect VM branches" (Section 7.3).
func TestExecuteResidualMispredictions(t *testing.T) {
	src := `
		: w1 1 + ;
		: w2 2 + ;
		variable k
		0
		200 0 do
			k @ 1 xor k !
			k @ if ' w1 else ' w2 then execute
		loop
		.
	`
	straight := `
		: w1 1 + ;
		variable k
		0
		200 0 do
			k @ 1 xor k !
			' w1 execute
		loop
		.
	`
	alt, _ := runTech(t, src, core.Config{Technique: core.TDynamicRepl}, bigBTB)
	mono, _ := runTech(t, straight, core.Config{Technique: core.TDynamicRepl}, bigBTB)
	// The alternating EXECUTE must mispredict on a large share of its
	// 200 computed transfers; the monomorphic one must not.
	if alt.Mispredicted < 150 {
		t.Errorf("alternating execute mispredicted only %d times, want ~200+", alt.Mispredicted)
	}
	if mono.Mispredicted > 60 {
		t.Errorf("monomorphic execute mispredicted %d times, want few", mono.Mispredicted)
	}
}

// TestReturnsPolymorphicUnderSharing: a word called from two sites has
// a polymorphic return under plain threaded code; with dynamic
// replication each RET instance still alternates targets (returns are
// inherently data-dependent), so replication does NOT fix returns —
// the paper's "mostly VM returns" residue.
func TestReturnResidual(t *testing.T) {
	src := `
		: callee 1 + ;
		: a callee ;
		: b callee ;
		variable acc
		0
		100 0 do a b loop
		acc @ + .
	`
	c, _ := runTech(t, src, core.Config{Technique: core.TDynamicRepl}, bigBTB)
	// callee's single RET instance returns alternately into a and b:
	// ~200 returns, nearly all mispredicted.
	if c.Mispredicted < 150 {
		t.Errorf("alternating returns mispredicted only %d times", c.Mispredicted)
	}
}
