package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vmopt/internal/core"
	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/superinst"
)

// genWord emits a random unary word body ( n -- m ): a chain of
// stack-safe transformations.
func genWord(r *rand.Rand, name string) string {
	steps := []string{
		"dup *", "1+", "1-", "2*", "negate", "abs",
		"dup +", "dup xor 17 +", "%d +", "%d xor", "%d and 1+", "dup max",
	}
	var b strings.Builder
	fmt.Fprintf(&b, ": %s ", name)
	n := 3 + r.Intn(8)
	for k := 0; k < n; k++ {
		s := steps[r.Intn(len(steps))]
		if strings.Contains(s, "%d") {
			s = fmt.Sprintf(s, r.Intn(1000)+1)
		}
		b.WriteString(s)
		b.WriteString(" ")
	}
	b.WriteString("16777215 and ;")
	return b.String()
}

// genProgram builds a random but always-valid Forth program: several
// random words applied to loop indices, accumulating a checksum.
func genProgram(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	nWords := 2 + r.Intn(4)
	var b strings.Builder
	b.WriteString("variable acc\n")
	for k := 0; k < nWords; k++ {
		b.WriteString(genWord(r, fmt.Sprintf("w%d", k)))
		b.WriteString("\n")
	}
	iters := 10 + r.Intn(30)
	fmt.Fprintf(&b, "%d 0 do\n", iters)
	for k := 0; k < nWords; k++ {
		if r.Intn(2) == 0 {
			fmt.Fprintf(&b, "  i w%d acc +!\n", k)
		} else {
			fmt.Fprintf(&b, "  i dup 0< if negate then w%d acc +!\n", k)
		}
	}
	b.WriteString("loop\nacc @ .\n")
	return b.String()
}

// TestDifferentialTechniques: for a spread of random programs, every
// dispatch technique must produce the same output, the same VM
// instruction count, and plausible counters.
func TestDifferentialTechniques(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := genProgram(seed)
			cfgs := allConfigs(t, src)
			var wantOut string
			var wantVM uint64
			for k, cfg := range cfgs {
				c, out := runTech(t, src, cfg, bigBTB)
				if out == "" {
					t.Fatalf("%v produced no output for program:\n%s", cfg.Technique, src)
				}
				if k == 0 {
					wantOut, wantVM = out, c.VMInstructions
					continue
				}
				if out != wantOut {
					t.Errorf("%v: output %q != %q\nprogram:\n%s", cfg.Technique, out, wantOut, src)
				}
				if c.VMInstructions != wantVM {
					t.Errorf("%v: VM instructions %d != %d", cfg.Technique, c.VMInstructions, wantVM)
				}
				if c.Instructions == 0 || c.Cycles == 0 {
					t.Errorf("%v: empty counters %+v", cfg.Technique, c)
				}
				if c.Mispredicted > c.IndirectBranches {
					t.Errorf("%v: more mispredictions than branches", cfg.Technique)
				}
				if c.Dispatches > c.IndirectBranches {
					t.Errorf("%v: more dispatches than indirect branches", cfg.Technique)
				}
			}
		})
	}
}

// genQuickProgram builds a random program of the quick ISA: one to
// three countdown loops whose bodies hold qget instances, each of which
// quickens on the loop's first iteration. Each loop counts down from
// its qlit; its body starts with qlit/qadd, so a superinstruction over
// the counter's qlit and the body's first pair enters the loop through
// a side entry.
func genQuickProgram(seed int64) []core.Inst {
	r := rand.New(rand.NewSource(seed))
	var code []core.Inst
	for range 1 + r.Intn(3) {
		code = append(code, core.Inst{Op: qLit, Arg: int64(5 + r.Intn(30))})
		start := len(code)
		code = append(code, core.Inst{Op: qLit, Arg: 1}, core.Inst{Op: qAdd})
		inc := int64(1)
		for range 2 + r.Intn(8) {
			k := int64(r.Intn(9))
			switch r.Intn(3) {
			case 0:
				code = append(code, core.Inst{Op: qGet}, core.Inst{Op: qAdd})
				inc += 7
			case 1:
				code = append(code, core.Inst{Op: qLit, Arg: k}, core.Inst{Op: qAdd})
				inc += k
			default:
				code = append(code, core.Inst{Op: qLit, Arg: k}, core.Inst{Op: qNoRel})
				inc += k
			}
		}
		code = append(code, core.Inst{Op: qLit, Arg: -inc - 1}, core.Inst{Op: qAdd},
			core.Inst{Op: qZBr, Arg: int64(start)})
	}
	return append(code, core.Inst{Op: qHalt})
}

// quickConfigs builds a config per technique for quick-ISA programs.
func quickConfigs() []core.Config {
	table := superinst.MustNewTable([][]uint32{{qLit, qLit, qAdd}, {qGetQ, qAdd}, {qLit, qAdd}})
	extra := make([]int, qNumOps)
	for op := range extra {
		extra[op] = 2
	}
	return []core.Config{
		{Technique: core.TSwitch},
		{Technique: core.TPlain},
		{Technique: core.TStaticRepl, ReplicaExtra: extra},
		{Technique: core.TStaticSuper, Supers: table},
		{Technique: core.TDynamicRepl},
		{Technique: core.TDynamicSuper},
		{Technique: core.TDynamicBoth},
		{Technique: core.TAcrossBB},
		{Technique: core.TWithStaticSuperAcross, Supers: table},
	}
}

// tinyMachines have an I-cache and a BTB small enough that generated
// programs overflow both mid-run, so the resident mode (see
// cpu.Sim.RunStep) stops each half after some steps have run warm.
var tinyMachines = []cpu.Machine{
	{
		Name:      "test-tiny",
		Predictor: cpu.PredictBTB, BTBEntries: 8, BTBWays: 2,
		ICacheBytes: 512, ICacheLine: 32, ICacheWays: 2,
		MispredictPenalty: 10, ICacheMissPenalty: 10,
		CPI: 1, ClockMHz: 1000,
	},
	{
		Name:      "test-small",
		Predictor: cpu.PredictBTB, BTBEntries: 32, BTBWays: 2,
		ICacheBytes: 2048, ICacheLine: 64, ICacheWays: 2,
		MispredictPenalty: 20, ICacheMissPenalty: 12,
		CPI: 0.7, ClockMHz: 1000,
	},
}

// program runs one fresh instance of a generated program on sim.
type program func(t *testing.T, sim *cpu.Sim)

// reach tallies what the runs of TestDifferentialRecording reached:
// resident-mode exits of each half, quickenings, and the steps core.Run
// did not lower other than halts and quickenings, which in these
// programs are the steps run in shadow mode.
type reach struct {
	icache, btb, quickened, shadow uint64
}

// perEventSteps is a Writer that counts the VM instructions core.Run
// records whole (RecordStep), not by ID.
type perEventSteps struct {
	*disptrace.Writer
	n uint64
}

func (p *perEventSteps) RecordStep(ops []cpu.Op) {
	p.n++
	p.Writer.RecordStep(ops)
}

// recordingHeader is the header of checkRecording's traces. A trace
// holds at most its header's step bound, and runOn's bound, the larger
// of the two its runs use, covers every run.
var recordingHeader = disptrace.Header{MaxSteps: 50_000_000}

// checkRecording checks one generated program under one technique.
// Recording it lowered (a disptrace.Writer as the sink, so core.Run
// records one step ID per instruction) must encode to the same bytes as
// recording every step whole (the same Writer behind a plain cpu.Sink).
// Decoding the recording must give back those bytes, and replaying it
// on every machine the counters of direct simulation. On the tiny
// machines, lowered direct simulation, with and without a recording,
// must leave the counters, the I-cache (LRU order included) and the
// predictor exactly as the per-event path does. quickenings is how
// many quickenings one run performs.
func checkRecording(t *testing.T, name string, run program, quickenings uint64, tally *reach) {
	t.Helper()
	record := func(m cpu.Machine, sink cpu.Sink) *cpu.Sim {
		sim := cpu.NewSim(m)
		sim.Sink = sink
		run(t, sim)
		return sim
	}
	lowered, ref := disptrace.NewWriter(recordingHeader), disptrace.NewWriter(recordingHeader)
	record(bigBTB, lowered)
	record(bigBTB, struct{ cpu.Sink }{ref})
	enc := lowered.Trace().Encode()
	if !bytes.Equal(enc, ref.Trace().Encode()) {
		t.Errorf("%s: lowered recording encodes differently from the per-event one", name)
	}
	tr, err := disptrace.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tr.Encode(), enc) {
		t.Errorf("%s: re-encoding the decoded recording changed its bytes", name)
	}
	for _, m := range append(cpu.Machines(), tinyMachines...) {
		want := record(m, nil).C
		got, err := disptrace.ReplayMachine(tr, m)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s on %s: replay differs from direct simulation:\n  got  %+v\n  want %+v", name, m.Name, got, want)
		}
	}
	for _, m := range tinyMachines {
		want := record(m, struct{ cpu.Sink }{disptrace.NewWriter(recordingHeader)})
		steps := &perEventSteps{Writer: disptrace.NewWriter(recordingHeader)}
		for _, got := range []*cpu.Sim{record(m, nil), record(m, steps)} {
			if !got.SameState(want) {
				t.Errorf("%s on %s (recording %v): lowered direct simulation leaves another state than the per-event path:\n  got  %+v\n  want %+v",
					name, m.Name, got.Sink != nil, got.C, want.C)
			}
			e := got.ResidentExits()
			tally.icache += e.ICache
			tally.btb += e.BTB
		}
		// One halt per run, and one step per quickening.
		if steps.n < 1+quickenings {
			t.Fatalf("%s on %s: %d steps recorded whole, fewer than the halt and %d quickenings", name, m.Name, steps.n, quickenings)
		}
		tally.quickened += quickenings
		tally.shadow += steps.n - 1 - quickenings
	}
}

// TestDifferentialRecording checks, with checkRecording, the random
// Forth programs under every technique and random quick-ISA programs,
// which quicken, under every technique that runs them. Across all of
// them the runs on the tiny machines must stop each half of the
// resident mode mid-run, quicken, and run steps in shadow mode.
func TestDifferentialRecording(t *testing.T) {
	var tally reach
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := genProgram(seed)
			for _, cfg := range allConfigs(t, src) {
				run := func(t *testing.T, sim *cpu.Sim) { runOn(t, src, cfg, sim) }
				checkRecording(t, fmt.Sprintf("%v\nprogram:\n%s", cfg.Technique, src), run, 0, &tally)
			}
			code := genQuickProgram(seed)
			var quickenings uint64
			for _, in := range code {
				if in.Op == qGet {
					quickenings++
				}
			}
			for _, cfg := range quickConfigs() {
				run := func(t *testing.T, sim *cpu.Sim) {
					vm := &quickVM{code: slices.Clone(code)}
					plan, err := core.BuildPlan(vm.Code(), quickISA{}, cfg)
					if err != nil {
						t.Fatalf("BuildPlan(%v): %v", cfg.Technique, err)
					}
					if _, err := core.Run(vm, plan, sim, 1_000_000); err != nil {
						t.Fatalf("Run(%v): %v", cfg.Technique, err)
					}
				}
				checkRecording(t, fmt.Sprintf("%v on quick program %v", cfg.Technique, code), run, quickenings, &tally)
			}
		})
	}
	t.Logf("runs on the tiny machines reached %+v", tally)
	if tally.icache == 0 || tally.btb == 0 || tally.quickened == 0 || tally.shadow == 0 {
		t.Errorf("runs on the tiny machines reached %+v; want I-cache and BTB exits, quickenings and shadow-mode steps", tally)
	}
}

// TestDifferentialMachines: the machine model must never change
// program semantics, only the counters.
func TestDifferentialMachines(t *testing.T) {
	src := genProgram(99)
	cfg := core.Config{Technique: core.TAcrossBB}
	var wantOut string
	for k, m := range cpu.Machines() {
		_, out := runTech(t, src, cfg, m)
		if k == 0 {
			wantOut = out
			continue
		}
		if out != wantOut {
			t.Errorf("%s: output %q != %q", m.Name, out, wantOut)
		}
	}
}

// TestDifferentialPlanIsolation: running the same program twice under
// the same plan configuration gives identical counters (no hidden
// state leaks between plan builds).
func TestDifferentialPlanIsolation(t *testing.T) {
	src := genProgram(7)
	cfg := core.Config{Technique: core.TDynamicSuper}
	c1, _ := runTech(t, src, cfg, bigBTB)
	c2, _ := runTech(t, src, cfg, bigBTB)
	if c1 != c2 {
		t.Errorf("counters differ across identical runs:\n%+v\n%+v", c1, c2)
	}
}
