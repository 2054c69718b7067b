package disptrace_test

import (
	"sync"
	"testing"

	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/harness"
	"vmopt/internal/workload"
)

// The replay-pipeline benchmarks measure every layer of the trace
// data path on one real dispatch stream (gray/plain at reduced
// scale): codec encode/decode, single-sim apply, and the multi-sim
// parallel-apply schedule, plus the direct simulation the replay has
// to beat. Results are captured in BENCH_replay.json at the repo
// root.
//
//	go test -run '^$' -bench . -benchmem ./internal/disptrace/

var benchState struct {
	once     sync.Once
	tr       *disptrace.Trace // writer-produced (raw segments)
	wire     *disptrace.Trace // decoded from enc (flate segments)
	compiled *disptrace.Trace // decoded then compiled (arena attached)
	enc      []byte           // the default (flate) encoding
	raw      []byte           // the raw-codec encoding
	ops      []cpu.Op         // fully decoded stream, one batch
	err      error
}

func benchSetup(b *testing.B) {
	benchState.once.Do(func() {
		w, err := workload.ByName("gray")
		if err != nil {
			benchState.err = err
			return
		}
		v, err := harness.VariantByName(w, "plain")
		if err != nil {
			benchState.err = err
			return
		}
		s := harness.NewTestSuite()
		s.ScaleDiv = 10
		tr, _, err := s.RecordTrace(w, v, cpu.Celeron800)
		if err != nil {
			benchState.err = err
			return
		}
		benchState.tr = tr
		benchState.enc = tr.Encode()
		benchState.raw = tr.EncodeCodec(disptrace.CodecRaw)
		if benchState.wire, err = disptrace.Decode(benchState.enc); err != nil {
			benchState.err = err
			return
		}
		if benchState.compiled, err = disptrace.Decode(benchState.enc); err != nil {
			benchState.err = err
			return
		}
		if _, err = benchState.compiled.Compile(); err != nil {
			benchState.err = err
			return
		}
		for _, seg := range tr.Segs {
			if benchState.ops, err = seg.DecodeOps(benchState.ops); err != nil {
				benchState.err = err
				return
			}
		}
	})
	if benchState.err != nil {
		b.Fatal(benchState.err)
	}
}

func BenchmarkEncodeFlate(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	b.SetBytes(int64(len(benchState.raw))) // raw payload throughput
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchState.tr.Encode()
	}
	b.ReportMetric(float64(len(benchState.raw))/float64(len(benchState.enc)), "ratio")
}

func BenchmarkEncodeRaw(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	b.SetBytes(int64(len(benchState.raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchState.tr.EncodeCodec(disptrace.CodecRaw)
	}
}

// decodeAll parses the container and expands every segment to ops —
// the full wire-to-events cost a replay pays.
func decodeAll(b *testing.B, wire []byte) {
	b.Helper()
	b.ResetTimer()
	b.SetBytes(int64(len(benchState.raw)))
	b.ReportAllocs()
	var ops []cpu.Op
	for i := 0; i < b.N; i++ {
		tr, err := disptrace.Decode(wire)
		if err != nil {
			b.Fatal(err)
		}
		for _, seg := range tr.Segs {
			if ops, err = seg.DecodeOps(ops[:0]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkDecode(b *testing.B) { benchSetup(b); decodeAll(b, benchState.enc) }

// BenchmarkApply is the pure apply side: one pre-decoded batch driven
// through a single simulator (predictor + I-cache state machines).
func BenchmarkApply(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cpu.NewSim(cpu.Celeron800).Apply(benchState.ops)
	}
	b.ReportMetric(float64(len(benchState.ops)), "events/op")
}

// BenchmarkReplay is the end-to-end single-sim path from compressed
// wire segments (the warm trace-cache hit): inflate + decode + apply.
func BenchmarkReplay(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := disptrace.ReplayMachine(benchState.wire, cpu.Celeron800, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile is the compiled tier's one-time cost per trace:
// wire bytes to attached arena (container parse, inflate, full decode,
// instruction-index build). The tier pays it on the Nth load and
// amortizes it over every replay after.
func BenchmarkCompile(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	b.SetBytes(int64(len(benchState.raw)))
	b.ReportAllocs()
	var bytes int64
	for i := 0; i < b.N; i++ {
		tr, err := disptrace.Decode(benchState.enc)
		if err != nil {
			b.Fatal(err)
		}
		a, err := tr.Compile()
		if err != nil {
			b.Fatal(err)
		}
		bytes = a.Bytes()
	}
	b.ReportMetric(float64(bytes), "arena-bytes")
}

// BenchmarkReplayCompiled is the compiled-tier serving path: the
// arena applied by reference into one reused simulator — zero decode,
// zero allocation. Its counterpart on the decode path is
// BenchmarkReplay (inflate + decode + apply per replay).
func BenchmarkReplayCompiled(b *testing.B) {
	benchSetup(b)
	sims := []*cpu.Sim{cpu.NewSim(cpu.Celeron800)}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sims[0].Reset()
		if err := disptrace.ReplayEach(benchState.compiled, sims); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMachines is a 5-machine grid group, the ReplayEach shape the
// suite's machine sweeps produce.
func benchMachines() []cpu.Machine {
	return []cpu.Machine{
		cpu.Celeron800,
		cpu.Pentium4Northwood,
		cpu.PentiumM,
		cpu.Celeron800.WithPredictor(cpu.PredictBTB2bc),
		cpu.Celeron800.WithBTBEntries(64),
	}
}

// BenchmarkReplayEach5 replays one decode pass into 5 machines with
// the parallel-apply pipeline.
func BenchmarkReplayEach5(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sims := make([]*cpu.Sim, 0, 5)
		for _, m := range benchMachines() {
			sims = append(sims, cpu.NewSim(m))
		}
		if err := disptrace.ReplayEach(benchState.wire, sims); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayCompiledEach5 is the grid-group shape on the
// compiled tier: no decode pipeline at all, each sim's applier walks
// the same immutable arena independently.
func BenchmarkReplayCompiledEach5(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sims := make([]*cpu.Sim, 0, 5)
		for _, m := range benchMachines() {
			sims = append(sims, cpu.NewSim(m))
		}
		if err := disptrace.ReplayEach(benchState.compiled, sims); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplaySequential5 is the same 5-machine group replayed one
// sim at a time — the pre-sharding schedule ReplayEach5 is measured
// against.
func BenchmarkReplaySequential5(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, m := range benchMachines() {
			if _, err := disptrace.ReplayMachine(benchState.wire, m, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDirectSimulate is the interpreter run a replay replaces —
// the bar every decode+apply number above has to clear.
func BenchmarkDirectSimulate(b *testing.B) {
	w, err := workload.ByName("gray")
	if err != nil {
		b.Fatal(err)
	}
	v, err := harness.VariantByName(w, "plain")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := harness.NewTestSuite()
		s.ScaleDiv = 10
		if _, err := s.Run(w, v, cpu.Celeron800); err != nil {
			b.Fatal(err)
		}
	}
}
