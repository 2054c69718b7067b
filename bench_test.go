// Benchmarks: one per paper table/figure (regeneration cost at
// reduced workload scale) plus micro-benchmarks of the substrate.
// Run with: go test -bench=. -benchmem
package vmopt

import (
	"errors"
	"sync"
	"testing"

	"vmopt/internal/btb"
	"vmopt/internal/core"
	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/forth"
	"vmopt/internal/forthvm"
	"vmopt/internal/harness"
	"vmopt/internal/icache"
	"vmopt/internal/jvm"
	"vmopt/internal/superinst"
	"vmopt/internal/workload"
)

// benchSuite returns a reduced-scale suite (fresh per iteration so
// each regeneration is measured end to end, including training).
func benchSuite() *harness.Suite {
	s := harness.NewSuite()
	s.ScaleDiv = 20
	return s
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, sm, tm := harness.TableI()
		if sm != 4 || tm != 2 {
			b.Fatal("trace mismatch")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, m := harness.TableII(); m != 0 {
			b.Fatal("trace mismatch")
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, om, mm := harness.TableIII(); om != 2 || mm != 3 {
			b.Fatal("trace mismatch")
		}
	}
}

func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, m := harness.TableIV(); m != 0 {
			b.Fatal("trace mismatch")
		}
	}
}

func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite().TableV(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableVI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := harness.TableVI(); len(t.Rows) != 7 {
			b.Fatal("bad inventory")
		}
	}
}

func BenchmarkTableVII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := harness.TableVII(); len(t.Rows) != 7 {
			b.Fatal("bad inventory")
		}
	}
}

func BenchmarkTableVIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite().TableVIII(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := benchSuite().TableIX(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := benchSuite().TableX(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := benchSuite().Figure7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := benchSuite().Figure8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := benchSuite().Figure9(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := benchSuite().Figure10(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := benchSuite().Figure11(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := benchSuite().Figure12(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := benchSuite().Figure13(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := benchSuite().Figure14(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := benchSuite().Figure15(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := benchSuite().Figure16(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMispredictRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, err := benchSuite().MispredictRates(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBranchFractions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, err := benchSuite().BranchFractions(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkBTBAccess measures the BTB's thrash path: 997 branches
// cycle through 512 entries, so every access misses and installs.
// BenchmarkSimApply measures the mix a real dispatch stream hits.
func BenchmarkBTBAccess(b *testing.B) {
	p := btb.NewSetAssoc(512, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(uint64(i%997)*4, 0, uint64(i%31)*64)
	}
}

// BenchmarkTwoLevelAccess measures the two-level predictor on the same
// synthetic branch stream as BenchmarkBTBAccess.
func BenchmarkTwoLevelAccess(b *testing.B) {
	p := btb.NewTwoLevel(14, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(uint64(i%997)*4, 0, uint64(i%31)*64)
	}
}

// BenchmarkICacheTouch measures the I-cache's thrash path: a 64 KB
// footprint streams through 16 KB, so each line misses on its first
// fetch of a pass and hits once, on the fetch right after.
// BenchmarkSimApply measures the mix a real dispatch stream hits.
func BenchmarkICacheTouch(b *testing.B) {
	c := icache.New(16*1024, 32, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Touch(uint64(i%4096)*16, 12)
	}
}

func BenchmarkForthCompile(b *testing.B) {
	src := workload.Gray().Source(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := forth.Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJasmAssemble(b *testing.B) {
	src := workload.Compress().Source(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jvm.Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMStep measures raw Forth VM semantics (no simulation).
func BenchmarkVMStep(b *testing.B) {
	prog := forth.MustCompile("variable s begin 1 s +! s @ 1000000000 = until")
	vm := prog.NewVM(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineStep measures one simulated VM instruction under the
// across-bb plan (semantics + BTB + icache + cycle model).
func BenchmarkEngineStep(b *testing.B) {
	prog := forth.MustCompile("variable s : f 1 s +! ; begin f s @ 1000000000 = until")
	vm := prog.NewVM(64)
	plan := core.MustBuildPlan(vm.Code(), forthvm.ISA(), core.Config{Technique: core.TAcrossBB})
	sim := cpu.NewSim(cpu.Pentium4Northwood)
	b.ResetTimer()
	// The loop outlasts any b.N, so Run always stops at its step
	// budget of exactly b.N steps; any other error is a real failure.
	if _, err := core.Run(vm, plan, sim, uint64(b.N)); err != nil && !errors.Is(err, core.ErrStepLimit) {
		b.Fatal(err)
	}
}

// simStream is the recorded gray/plain event stream at scalediv 10,
// expanded once for the simulator benchmarks.
var simStream struct {
	once sync.Once
	ops  []cpu.Op
	err  error
}

func simOps(b *testing.B) []cpu.Op {
	simStream.once.Do(func() {
		w, err := workload.ByName("gray")
		if err != nil {
			simStream.err = err
			return
		}
		v, err := harness.VariantByName(w, "plain")
		if err != nil {
			simStream.err = err
			return
		}
		tr, _, err := harness.NewTestSuite().RecordTrace(w, v, cpu.Celeron800)
		if err != nil {
			simStream.err = err
			return
		}
		c := disptrace.NewCursor(tr)
		for ok := true; ok; {
			simStream.ops, ok = c.NextBatch(simStream.ops)
		}
	})
	if simStream.err != nil {
		b.Fatal(simStream.err)
	}
	return simStream.ops
}

// benchSimStream runs drive over the recorded stream on a fresh
// simulator per machine and reports the cost per event.
func benchSimStream(b *testing.B, drive func(*cpu.Sim, []cpu.Op)) {
	ops := simOps(b)
	for _, m := range cpu.Machines() {
		b.Run(m.Name, func(b *testing.B) {
			sim := cpu.NewSim(m)
			b.ReportAllocs()
			for b.Loop() {
				sim.Reset()
				drive(sim, ops)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ops)), "ns/event")
		})
	}
}

// BenchmarkSimApply measures the simulator's batched entry point, the
// whole of a hot trace replay: predictor, I-cache and cycle model.
func BenchmarkSimApply(b *testing.B) {
	benchSimStream(b, (*cpu.Sim).Apply)
}

// BenchmarkSimEvents measures the per-event entry points the engine
// drives during direct simulation, on the same stream.
func BenchmarkSimEvents(b *testing.B) {
	benchSimStream(b, func(sim *cpu.Sim, ops []cpu.Op) {
		for i := range ops {
			op := &ops[i]
			switch op.Kind {
			case cpu.OpWork:
				sim.Work(int(op.A))
			case cpu.OpFetch:
				sim.Fetch(op.A, int(op.B))
			case cpu.OpDispatch:
				sim.Dispatch(op.A, op.B, op.C)
			}
		}
	})
}

func BenchmarkBuildPlanAcrossBB(b *testing.B) {
	prog := forth.MustCompile(workload.Gray().Source(10))
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildPlan(prog.Code, forthvm.ISA(), core.Config{Technique: core.TAcrossBB}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyParse(b *testing.B) {
	tbl := superinst.MustNewTable([][]uint32{{1, 2}, {2, 3}, {1, 2, 3}, {3, 3}})
	ops := make([]uint32, 256)
	for i := range ops {
		ops[i] = uint32(i % 4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.GreedyParse(ops)
	}
}

func BenchmarkOptimalParse(b *testing.B) {
	tbl := superinst.MustNewTable([][]uint32{{1, 2}, {2, 3}, {1, 2, 3}, {3, 3}})
	ops := make([]uint32, 256)
	for i := range ops {
		ops[i] = uint32(i % 4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.OptimalParse(ops)
	}
}
