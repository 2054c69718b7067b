package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vmopt/internal/core"
	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/metrics"
	"vmopt/internal/runner"
	"vmopt/internal/workload"
)

// goldenPath is the exact counter reference the benchmark checks every
// run against: every metrics.Counters field of every cell it simulates
// at scalediv 10, floats stored in the shortest form that parses back
// to the same bits. The test reads it in place and never writes it.
const goldenPath = "../../perfbench/reference/counters-sd10.json"

// goldenScaleDiv is the scale the reference was simulated at.
const goldenScaleDiv = 10

// readGolden returns the reference counters by run key, checking that
// they are for goldenScaleDiv.
func readGolden(t *testing.T) map[string]metrics.Counters {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading the reference: %v", err)
	}
	var ref struct {
		ScaleDiv int `json:"scalediv"`
		Cells    []struct {
			Key      string           `json:"key"`
			Counters metrics.Counters `json:"counters"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(b, &ref); err != nil {
		t.Fatalf("parsing the reference: %v", err)
	}
	if ref.ScaleDiv != goldenScaleDiv {
		t.Fatalf("reference is for scalediv %d, want %d", ref.ScaleDiv, goldenScaleDiv)
	}
	want := make(map[string]metrics.Counters, len(ref.Cells))
	for _, c := range ref.Cells {
		want[c.Key] = c.Counters
	}
	return want
}

// matchGolden runs specs on s and checks the cells s produced against
// the reference in both directions: s produced exactly the cells of
// specs, and each one is in the reference with every counter field
// equal bit for bit.
func matchGolden(t *testing.T, want map[string]metrics.Counters, s *Suite, specs []RunSpec) {
	t.Helper()
	if _, err := s.RunSpecs(specs); err != nil {
		t.Fatal(err)
	}
	runs := s.Snapshot()
	if len(runs) != len(specs) {
		t.Fatalf("produced %d distinct cells, want %d", len(runs), len(specs))
	}
	got := make(map[string]bool, len(runs))
	for _, r := range runs {
		got[r.Key()] = true
		w, ok := want[r.Key()]
		if !ok {
			t.Errorf("%s: cell not in the reference", r.Key())
			continue
		}
		if d := counterDiff(w, r.Counters); len(d) > 0 {
			t.Errorf("%s: counters differ from the reference: %v", r.Key(), d)
		}
	}
	for _, sp := range specs {
		if k := runner.NewRun(sp.W.Name, sp.V.Name, sp.M.Name, s.scale(sp.W), metrics.Counters{}).Key(); !got[k] {
			t.Errorf("%s: grid cell not produced", k)
		}
	}
}

// gridSpecs returns every cell of ws × vs × ms.
func gridSpecs(ws []*workload.Workload, vs []Variant, ms []cpu.Machine) []RunSpec {
	var specs []RunSpec
	for _, w := range ws {
		for _, v := range vs {
			for _, m := range ms {
				specs = append(specs, RunSpec{W: w, V: v, M: m})
			}
		}
	}
	return specs
}

// TestDirectSimulationMatchesGolden simulates directly every paper-grid
// pair on two machines that differ in line size (32 and 64 bytes) and
// CPI (1.0 and 0.7), and gray on every machine, and compares every
// counter field bit for bit with the reference. Any change to the
// guest VMs, the engine, the plans or the simulator that moves a single
// counter of a single cell fails it.
func TestDirectSimulationMatchesGolden(t *testing.T) {
	want := readGolden(t)
	two := []cpu.Machine{cpu.Celeron800, cpu.Pentium4Northwood}
	specs := gridSpecs(workload.Forth(), ForthVariants(), two)
	specs = append(specs, gridSpecs(workload.Java(), JavaVariants(), two)...)
	gray, err := workload.ByName("gray")
	if err != nil {
		t.Fatal(err)
	}
	var rest []cpu.Machine
	for _, m := range cpu.Machines() {
		if m != cpu.Celeron800 && m != cpu.Pentium4Northwood {
			rest = append(rest, m)
		}
	}
	specs = append(specs, gridSpecs([]*workload.Workload{gray}, ForthVariants(), rest)...)

	s := NewSuite()
	s.ScaleDiv = goldenScaleDiv
	s.Jobs = 2
	matchGolden(t, want, s, specs)
}

// TestReplayMatchesGolden is the golden check of record and replay: the
// whole paper grid, every ForthVariants and JavaVariants pair on every
// machine, runs through a trace cache and every counter field of every
// cell must equal the reference bit for bit. The first pass records
// each pair's trace on a cold cache, on the pair's first machine, and
// replays it into the others. The second pass is a fresh suite and
// cache over the warm directory, so every cell is replayed from a
// decoded file; it must read each trace once and write none.
func TestReplayMatchesGolden(t *testing.T) {
	want := readGolden(t)
	specs := gridSpecs(workload.Forth(), ForthVariants(), cpu.Machines())
	specs = append(specs, gridSpecs(workload.Java(), JavaVariants(), cpu.Machines())...)
	pairs := uint64(len(specs) / len(cpu.Machines()))
	dir := t.TempDir()

	for _, pass := range []struct {
		name    string
		records uint64
	}{{"cold", pairs}, {"warm", 0}} {
		t.Run(pass.name, func(t *testing.T) {
			s := NewSuite()
			s.ScaleDiv = goldenScaleDiv
			s.Jobs = 2
			s.Traces = disptrace.NewCache(dir)
			matchGolden(t, want, s, specs)
			st := s.Traces.Stats()
			if st.Records != pass.records || st.Loads != pairs-pass.records {
				t.Errorf("%d recordings and %d loads, want %d and %d",
					st.Records, st.Loads, pass.records, pairs-pass.records)
			}
			files, err := filepath.Glob(filepath.Join(dir, "*.vmdt"))
			if err != nil || len(files) != int(pairs) {
				t.Errorf("%d trace files (%v), want %d", len(files), err, pairs)
			}
		})
	}
}

// oneSet is a machine whose I-cache has a single set of 4 ways: every
// line competes with every other, so a fetch the engine's lowering
// drops as a guaranteed hit must be the very last line touched.
var oneSet = cpu.Machine{
	Name:      "one-set-icache",
	Predictor: cpu.PredictBTB, BTBEntries: 256, BTBWays: 4,
	ICacheBytes: 4 * 64, ICacheLine: 64, ICacheWays: 4,
	MispredictPenalty: 20, ICacheMissPenalty: 12,
	CPI: 0.7, ClockMHz: 1000,
}

// tinyBoth has a 1 KiB I-cache and a 16-entry BTB: the workloads'
// steps overflow both mid-run, after many have run warm, so core.Run's
// resident mode stops each half.
var tinyBoth = cpu.Machine{
	Name:      "tiny-icache-btb",
	Predictor: cpu.PredictBTB, BTBEntries: 16, BTBWays: 2,
	ICacheBytes: 1024, ICacheLine: 32, ICacheWays: 2,
	MispredictPenalty: 10, ICacheMissPenalty: 10,
	CPI: 1, ClockMHz: 800,
}

// TestLoweredRunMatchesEventStream is the oracle of core.Run's lowered
// path: with no sink, Run applies one machine-lowered step per VM
// instruction in the resident mode; with a plain cpu.Sink (a Writer
// behind perEvent), it lowers nothing and applies and records every
// step's events whole. Driving that recorded stream, expanded by a
// Cursor, through Sim.Apply must give bit-identical counters on every
// machine, and the lowered run must leave the counters, the I-cache
// (LRU order included) and the predictor exactly as the per-event run
// does. The pairs cover every
// technique, the switch baseline included: shadow mode (w/static super
// across), JVM quickening, which re-parses the plan around the
// quickened position mid-run, and the halt every program ends in; the
// tiny machine stops each half of the resident mode mid-run.
func TestLoweredRunMatchesEventStream(t *testing.T) {
	s := NewSuite()
	s.ScaleDiv = 200
	machines := append(cpu.Machines(), oneSet, tinyBoth)
	var exits cpu.Exits
	var quickened, shadow int
	for _, name := range []string{"gray", "brainless", "javac", "jess"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		variants := JavaVariants()
		if w.Lang == "forth" {
			variants = ForthVariants()
		}
		sw, err := VariantByName(w, "switch")
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range append(variants, sw) {
			tw := disptrace.NewWriter(s.TraceKey(w, v).Header())
			if _, err := s.simulate(w, v, machines[0], perEvent{tw}); err != nil {
				t.Fatal(err)
			}
			tr := tw.Trace()
			for k, m := range machines {
				lowered, ref := cpu.NewSim(m), cpu.NewSim(m)
				var paths *stepPaths
				if k == 0 {
					// A lowered recording counts the steps Run does
					// not lower.
					paths = &stepPaths{Writer: disptrace.NewWriter(s.TraceKey(w, v).Header())}
					lowered.Sink = paths
				}
				ref.Sink = perEvent{disptrace.NewWriter(s.TraceKey(w, v).Header())}
				got, err := s.Simulate(w, v, lowered)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Simulate(w, v, ref); err != nil {
					t.Fatal(err)
				}
				want := applyEvents(tr, m)
				if d := counterDiff(want, got); len(d) > 0 {
					t.Errorf("%s/%s on %s: lowered run differs from the event stream in %v:\n  got  %+v\n  want %+v",
						w.Name, v.Name, m.Name, d, got, want)
				}
				if !lowered.SameState(ref) {
					t.Errorf("%s/%s on %s: lowered run leaves another I-cache or predictor state than the per-event run",
						w.Name, v.Name, m.Name)
				}
				if m == tinyBoth {
					exits.ICache += lowered.ResidentExits().ICache
					exits.BTB += lowered.ResidentExits().BTB
				}
				if paths != nil {
					quickened += paths.quickened
					shadow += paths.shadow
				}
			}
		}
	}
	if exits.ICache == 0 || exits.BTB == 0 || quickened == 0 || shadow == 0 {
		t.Errorf("resident exits on %s %+v, %d quickened and %d shadow-mode steps; want each above 0",
			tinyBoth.Name, exits, quickened, shadow)
	}
}

// perEvent hides a Writer's cpu.StepSink methods, so core.Run lowers
// nothing and records every step whole: the reference the lowered run
// and the lowered recording are checked against.
type perEvent struct{ cpu.Sink }

// stepPaths forwards a recording to its Writer and counts the steps
// core.Run does not lower, by their events: a quickened step starts
// with two work events (the one-time quickening work first), a halt is
// work and fetch alone, and any other is a step in shadow mode.
type stepPaths struct {
	*disptrace.Writer
	quickened, halts, shadow int
}

func (p *stepPaths) RecordStep(ops []cpu.Op) {
	switch {
	case len(ops) >= 2 && ops[0].Kind == cpu.OpWork && ops[1].Kind == cpu.OpWork:
		p.quickened++
	case len(ops) == 2:
		p.halts++
	default:
		p.shadow++
	}
	p.Writer.RecordStep(ops)
}

// TestLoweredRecordingMatchesPerEvent records every paper-grid pair at
// the reference scale both ways, lowered (core.Run interns each step
// once and records its ID) and per event (the same Writer behind
// perEvent, which gets every step whole), and requires the same Encode
// bytes and the same resident weight. The grid reaches every step the
// lowered recording records whole: JVM quickening, shadow mode and the
// halt that ends every run.
func TestLoweredRecordingMatchesPerEvent(t *testing.T) {
	specs := gridSpecs(workload.Forth(), ForthVariants(), cpu.Machines()[:1])
	specs = append(specs, gridSpecs(workload.Java(), JavaVariants(), cpu.Machines()[:1])...)
	s := NewSuite()
	s.ScaleDiv = goldenScaleDiv
	s.Jobs = 2
	paths, err := runner.Map(context.Background(), len(specs), runner.Options{Jobs: s.Jobs},
		func(_ context.Context, i int) (*stepPaths, error) {
			sp := specs[i]
			h := s.TraceKey(sp.W, sp.V).Header()
			lowered, ref := &stepPaths{Writer: disptrace.NewWriter(h)}, disptrace.NewWriter(h)
			if _, err := s.simulate(sp.W, sp.V, sp.M, lowered); err != nil {
				return nil, err
			}
			if _, err := s.simulate(sp.W, sp.V, sp.M, perEvent{ref}); err != nil {
				return nil, err
			}
			got, want := lowered.Trace(), ref.Trace()
			if !bytes.Equal(got.Encode(), want.Encode()) {
				t.Errorf("%s/%s: lowered recording encodes differently from the per-event one (%d vs %d steps, %d vs %d dictionary entries)",
					sp.W.Name, sp.V.Name, got.Arena().Insts(), want.Arena().Insts(), got.Arena().DictSteps(), want.Arena().DictSteps())
			}
			if g, w := got.Arena().Bytes(), want.Arena().Bytes(); g != w {
				t.Errorf("%s/%s: lowered recording weighs %d bytes, the per-event one %d", sp.W.Name, sp.V.Name, g, w)
			}
			return lowered, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	var quickened, halts, shadow int
	for i, p := range paths {
		quickened += p.quickened
		halts += p.halts
		if specs[i].V.Technique == core.TWithStaticSuperAcross {
			shadow += p.shadow
		}
	}
	if quickened == 0 || shadow == 0 || halts != len(specs) {
		t.Errorf("steps recorded whole: %d quickened, %d in shadow mode, %d halts; want some of the first two and one halt per pair (%d)",
			quickened, shadow, halts, len(specs))
	}
}

// applyEvents drives tr's expanded event stream through Sim.Apply on a
// fresh simulator for m, crediting the code bytes and VM instructions
// the engine counts outside the stream.
func applyEvents(tr *disptrace.Trace, m cpu.Machine) metrics.Counters {
	sim := cpu.NewSim(m)
	cur := disptrace.NewCursor(tr)
	var ops []cpu.Op
	for {
		var ok bool
		if ops, ok = cur.NextBatch(ops[:0]); !ok {
			break
		}
		sim.Apply(ops)
	}
	sim.C.CodeBytes += tr.Header.CodeBytes
	sim.C.VMInstructions += tr.Header.VMInstructions
	return sim.C
}

// counterDiff names every field on which got differs from want, float
// fields compared by their bits.
func counterDiff(want, got metrics.Counters) []string {
	var diff []string
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := range wv.NumField() {
		w, g := wv.Field(i), gv.Field(i)
		var same bool
		switch w.Kind() {
		case reflect.Float64:
			same = math.Float64bits(w.Float()) == math.Float64bits(g.Float())
		case reflect.Uint64:
			same = w.Uint() == g.Uint()
		default:
			panic("harness: unhandled counter field kind " + w.Kind().String())
		}
		if !same {
			diff = append(diff, wv.Type().Field(i).Name)
		}
	}
	return diff
}
