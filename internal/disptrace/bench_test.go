package disptrace_test

import (
	"context"
	"sync"
	"testing"

	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/harness"
	"vmopt/internal/workload"
)

// The replay benchmarks measure every layer of the trace data path on
// one real dispatch stream (gray/plain at scalediv 10): encode,
// decode (wire bytes to resident form), single-sim apply and replay,
// the multi-sim broadcast, the diff, plus the direct simulation a
// replay replaces. Results are captured in BENCH_replay.json at the
// repo root.
//
//	go test -run '^$' -bench . -benchmem ./internal/disptrace/

var benchState struct {
	once  sync.Once
	tr    *disptrace.Trace // writer-produced
	wire  *disptrace.Trace // decoded from enc
	other *disptrace.Trace // gray/switch, the diff partner
	enc   []byte
	ops   []cpu.Op // the expanded stream, one batch
	err   error
}

func benchSetup(b *testing.B) {
	benchState.once.Do(func() {
		w, err := workload.ByName("gray")
		if err != nil {
			benchState.err = err
			return
		}
		s := harness.NewTestSuite()
		s.ScaleDiv = 10
		record := func(variant string) *disptrace.Trace {
			v, err := harness.VariantByName(w, variant)
			if err == nil {
				var tr *disptrace.Trace
				if tr, _, err = s.RecordTrace(w, v, cpu.Celeron800); err == nil {
					return tr
				}
			}
			benchState.err = err
			return nil
		}
		if benchState.tr = record("plain"); benchState.tr == nil {
			return
		}
		if benchState.other = record("switch"); benchState.other == nil {
			return
		}
		benchState.enc = benchState.tr.Encode()
		if benchState.wire, err = disptrace.Decode(benchState.enc); err != nil {
			benchState.err = err
			return
		}
		benchState.ops = streamOps(benchState.tr)
	})
	if benchState.err != nil {
		b.Fatal(benchState.err)
	}
}

// BenchmarkEncode serializes the resident form to wire bytes and
// reports the stored size and the dictionary size.
func BenchmarkEncode(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for b.Loop() {
		benchState.tr.Encode()
	}
	m, err := disptrace.DecodeMeta(benchState.enc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(benchState.enc)), "stored-bytes")
	b.ReportMetric(float64(m.DictSteps), "dict-steps")
	b.ReportMetric(float64(m.StreamRawBytes), "id-raw-bytes")
}

// BenchmarkDecode is the whole wire-to-replayable cost a cache load
// pays: checksum, dictionary, inflate and step-ID validation.
func BenchmarkDecode(b *testing.B) {
	benchSetup(b)
	b.SetBytes(int64(len(benchState.enc)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := disptrace.Decode(benchState.enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeWide is BenchmarkDecode on a trace whose dictionary
// is wider than 128 steps (mtrt/dynamic repl at scalediv 10, 321
// steps), so many of its step IDs take two bytes. Most paper-grid
// traces are of this kind; gray/plain's IDs take one byte each.
func BenchmarkDecodeWide(b *testing.B) {
	wideOnce.Do(func() {
		var w *workload.Workload
		var v harness.Variant
		var tr *disptrace.Trace
		if w, wideErr = workload.ByName("mtrt"); wideErr != nil {
			return
		}
		if v, wideErr = harness.VariantByName(w, "dynamic repl"); wideErr != nil {
			return
		}
		s := harness.NewTestSuite()
		s.ScaleDiv = 10
		if tr, _, wideErr = s.RecordTrace(w, v, cpu.Celeron800); wideErr == nil {
			wideEnc = tr.Encode()
		}
	})
	if wideErr != nil {
		b.Fatal(wideErr)
	}
	b.SetBytes(int64(len(wideEnc)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := disptrace.Decode(wideEnc); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	wideOnce sync.Once
	wideEnc  []byte
	wideErr  error
)

// BenchmarkApply is the pure apply side: the expanded stream, as one
// batch, driven through one reused simulator (predictor + I-cache
// state machines).
func BenchmarkApply(b *testing.B) {
	benchSetup(b)
	sim := cpu.NewSim(cpu.Celeron800)
	b.ReportAllocs()
	for b.Loop() {
		sim.Reset()
		sim.Apply(benchState.ops)
	}
	b.ReportMetric(float64(len(benchState.ops)), "events/op")
}

// BenchmarkReplay is the serving path: the decoded trace replayed
// into one reused simulator, one dictionary entry per step. It must
// not allocate, and its cost above BenchmarkApply is the price of the
// dictionary indirection.
func BenchmarkReplay(b *testing.B) {
	benchSetup(b)
	sims := []*cpu.Sim{cpu.NewSim(cpu.Celeron800)}
	b.ReportAllocs()
	for b.Loop() {
		sims[0].Reset()
		if err := disptrace.ReplayEach(context.Background(), benchState.wire, sims); err != nil {
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

// BenchmarkReplayEach5 replays the trace into 5 fresh machines, one
// applier goroutine each.
func BenchmarkReplayEach5(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for b.Loop() {
		sims := make([]*cpu.Sim, 0, 5)
		for _, m := range benchMachines() {
			sims = append(sims, cpu.NewSim(m))
		}
		if err := disptrace.ReplayEach(context.Background(), benchState.wire, sims); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiff aligns gray/plain with gray/switch: each dictionary is
// summarized once, then the step-ID streams are compared.
func BenchmarkDiff(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := disptrace.DiffTraces(benchState.other, benchState.tr, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirectSimulate is the interpreter run a replay replaces —
// the bar every decode and replay number above has to clear.
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
	for b.Loop() {
		s := harness.NewTestSuite()
		s.ScaleDiv = 10
		if _, err := s.Run(w, v, cpu.Celeron800); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecord is the direct simulation with the trace writer
// attached: its cost above BenchmarkDirectSimulate is the writer's.
func BenchmarkRecord(b *testing.B) {
	w, err := workload.ByName("gray")
	if err != nil {
		b.Fatal(err)
	}
	v, err := harness.VariantByName(w, "plain")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		s := harness.NewTestSuite()
		s.ScaleDiv = 10
		if _, _, err := s.RecordTrace(w, v, cpu.Celeron800); err != nil {
			b.Fatal(err)
		}
	}
}
