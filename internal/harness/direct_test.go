package harness

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

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

// TestLoweredRunMatchesEventStream is the oracle of core.Run's lowered
// path: with no sink, Run applies one machine-lowered step per VM
// instruction; with a sink, it drives every event one call at a time.
// Driving the recorded per-event stream, expanded by a Cursor, through
// Sim.Apply must give bit-identical counters on every machine. The
// pairs cover every technique, the switch baseline included: shadow
// mode (w/static super across), JVM quickening, which re-parses the
// plan around the quickened position mid-run, and the halt every
// program ends in.
func TestLoweredRunMatchesEventStream(t *testing.T) {
	s := NewSuite()
	s.ScaleDiv = 200
	machines := append(cpu.Machines(), oneSet)
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
			tr, _, err := s.RecordTrace(w, v, machines[0])
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range machines {
				got, err := s.simulate(w, v, m, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := applyEvents(tr, m)
				if d := counterDiff(want, got); len(d) > 0 {
					t.Errorf("%s/%s on %s: lowered run differs from the event stream in %v:\n  got  %+v\n  want %+v",
						w.Name, v.Name, m.Name, d, got, want)
				}
			}
		}
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
