package disptrace_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/harness"
	"vmopt/internal/runner"
	"vmopt/internal/workload"
)

// TestPaperGridResident pins how much of the real traffic replays on
// ApplySteps' resident path. Of the 630 paper-grid cells at scalediv
// 10 (every ForthVariants and JavaVariants pair on every machine), all
// but jack/static repl on celeron-800, which fetches 5 lines of one
// 4-way set, replay from their prelude's I-cache state with no line
// that any step could evict. So the fast path serves nearly every
// replay, and the golden replay test covers both of ApplySteps' loops.
func TestPaperGridResident(t *testing.T) {
	type pair struct {
		w *workload.Workload
		v harness.Variant
	}
	var pairs []pair
	for _, w := range workload.Forth() {
		for _, v := range harness.ForthVariants() {
			pairs = append(pairs, pair{w, v})
		}
	}
	for _, w := range workload.Java() {
		for _, v := range harness.JavaVariants() {
			pairs = append(pairs, pair{w, v})
		}
	}
	machines := cpu.Machines()
	if cells := len(pairs) * len(machines); cells != 630 {
		t.Fatalf("%d paper-grid cells, want 630", cells)
	}
	s := harness.NewTestSuite()
	full, err := runner.Map(context.Background(), len(pairs), runner.Options{Jobs: 2},
		func(_ context.Context, i int) ([]string, error) {
			p := pairs[i]
			tr, _, err := s.RecordTrace(p.w, p.v, machines[0])
			if err != nil {
				return nil, err
			}
			var full []string
			for _, m := range machines {
				if !disptrace.ResidentOn(tr, cpu.NewSim(m)) {
					full = append(full, fmt.Sprintf("%s/%s on %s", p.w.Name, p.v.Name, m.Name))
				}
			}
			return full, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	got := slices.Concat(full...)
	if want := []string{"jack/static repl on celeron-800"}; !slices.Equal(got, want) {
		t.Errorf("cells off the resident path: %q, want %q", got, want)
	}
}
