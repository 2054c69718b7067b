package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"

	"vmopt/internal/disptrace"
	"vmopt/internal/harness"
	"vmopt/internal/metrics"
	"vmopt/internal/runner"
)

// referencePath is where -update-reference writes the reference,
// relative to the repository root; the binary embeds the checked-in
// copy.
const referencePath = "perfbench/reference/counters-sd10.json"

//go:embed reference/counters-sd10.json
var referenceJSON []byte

// refFile is the on-disk reference: every metrics.Counters field of
// every cell the workloads ask for, produced by direct simulation, and
// the report of every diff serve-replay asks for, computed from fresh
// recordings. encoding/json writes float64 in the shortest form that
// parses back to the same bits, so the file round-trips cycles
// exactly.
type refFile struct {
	ScaleDiv int `json:"scalediv"`
	// GridCells is how many distinct cells one grid-direct pass
	// simulates.
	GridCells int       `json:"grid_cells"`
	Cells     []refCell `json:"cells"`
	Diffs     []refDiff `json:"diffs"`
}

type refCell struct {
	Key      string           `json:"key"`
	Counters metrics.Counters `json:"counters"`
}

// refDiff is the expected report of diffing two variants' traces of
// one workload, at diffDetail. It is keyed by workload and variants,
// not trace IDs, so it does not depend on how IDs are derived.
type refDiff struct {
	Key    string                `json:"key"`
	Report *disptrace.DiffReport `json:"report"`
}

// reference maps runner.Run keys (workload/variant/machine/scale) to
// their exact counters, and diffKey keys to their diff reports.
type reference struct {
	cells     map[string]metrics.Counters
	diffs     map[string]*disptrace.DiffReport
	gridCells int
}

// diffKey names the diff of workload's variants a and b.
func diffKey(workload, a, b string) string { return workload + "/" + a + " vs " + b }

func parseReference(b []byte) (reference, error) {
	var f refFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return reference{}, fmt.Errorf("parsing reference: %w", err)
	}
	if f.ScaleDiv != scaleDiv {
		return reference{}, fmt.Errorf("reference is for scalediv %d, benchmark runs %d", f.ScaleDiv, scaleDiv)
	}
	ref := reference{cells: make(map[string]metrics.Counters, len(f.Cells)),
		diffs: map[string]*disptrace.DiffReport{}, gridCells: f.GridCells}
	for _, c := range f.Cells {
		if _, dup := ref.cells[c.Key]; dup {
			return reference{}, fmt.Errorf("reference lists %s twice", c.Key)
		}
		ref.cells[c.Key] = c.Counters
	}
	for _, d := range f.Diffs {
		if _, dup := ref.diffs[d.Key]; dup || d.Report == nil {
			return reference{}, fmt.Errorf("reference lists diff %s twice or without a report", d.Key)
		}
		ref.diffs[d.Key] = d.Report
	}
	return ref, nil
}

// counterDiff names every field on which got differs from want. Float
// fields are compared bit for bit, so even a change in the order of
// floating-point additions shows.
func counterDiff(want, got metrics.Counters) []string {
	var diff []string
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	t := wv.Type()
	for i := 0; i < t.NumField(); i++ {
		w, g := wv.Field(i), gv.Field(i)
		var same bool
		switch w.Kind() {
		case reflect.Float64:
			same = math.Float64bits(w.Float()) == math.Float64bits(g.Float())
		case reflect.Uint64:
			same = w.Uint() == g.Uint()
		default:
			panic("perfbench: unhandled counter field kind " + w.Kind().String())
		}
		if !same {
			diff = append(diff, fmt.Sprintf("%s: want %v, got %v", t.Field(i).Name, w.Interface(), g.Interface()))
		}
	}
	return diff
}

// check compares one run record against the reference.
func (ref reference) check(r runner.Run) error {
	want, ok := ref.cells[r.Key()]
	if !ok {
		return fmt.Errorf("%s: cell not in the reference", r.Key())
	}
	if d := counterDiff(want, r.Counters); len(d) > 0 {
		return fmt.Errorf("%s: counters differ from the reference (%s)", r.Key(), strings.Join(d, "; "))
	}
	return nil
}

// writeReference regenerates the reference by direct simulation: every
// experiment of the grid-direct workload, every cell of the paper grid
// serve-replay requests, and the diff of every pair of the diff hot
// set, recorded afresh.
func writeReference(path string) error {
	s := newGridSuite()
	for _, e := range gridExperiments() {
		if err := e.run(s); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
	}
	f := refFile{ScaleDiv: scaleDiv, GridCells: s.ResultCount()}
	_, err := s.RunSpecs(paperGridSpecs(paperMachines()))
	if err != nil {
		return err
	}
	runs := s.Snapshot()
	for _, r := range runs {
		f.Cells = append(f.Cells, refCell{Key: r.Key(), Counters: r.Counters})
	}
	sort.Slice(f.Cells, func(i, j int) bool { return f.Cells[i].Key < f.Cells[j].Key })
	if f.Diffs, err = referenceDiffs(s); err != nil {
		return err
	}
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// referenceDiffs records the diff hot set's traces and diffs every
// pair of them, as serve-replay's /v1/diff requests do.
func referenceDiffs(s *harness.Suite) ([]refDiff, error) {
	gray := mustWorkload("gray")
	var traces []*disptrace.Trace
	for _, name := range diffHotVariants {
		v, err := harness.VariantByName(gray, name)
		if err != nil {
			return nil, err
		}
		t, _, err := s.RecordTrace(gray, v, paperMachines()[0])
		if err != nil {
			return nil, err
		}
		traces = append(traces, t)
	}
	var diffs []refDiff
	for i := range traces {
		for j := i + 1; j < len(traces); j++ {
			rep, err := disptrace.DiffTraces(traces[i], traces[j], diffDetail)
			if err != nil {
				return nil, err
			}
			diffs = append(diffs, refDiff{Key: diffKey(gray.Name, diffHotVariants[i], diffHotVariants[j]), Report: rep})
		}
	}
	return diffs, nil
}

// newGridSuite is a suite at the benchmark's scale doing direct
// simulation (no trace cache) on nproc workers.
func newGridSuite() *harness.Suite {
	s := harness.NewSuite()
	s.ScaleDiv = scaleDiv
	s.Jobs = nproc()
	return s
}
