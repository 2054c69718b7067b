// Command vmbench regenerates the tables and figures of the paper's
// evaluation section from the simulation substrate.
//
// Usage:
//
//	vmbench                            # regenerate everything (text)
//	vmbench -exp fig8                  # one experiment
//	vmbench -list                      # enumerate valid -exp names
//	vmbench -scalediv 10               # reduced workload scale (faster)
//	vmbench -jobs 16                   # worker-pool parallelism
//	vmbench -format json -out results  # machine-readable results
//	vmbench -trace-cache .vmtraces     # record-once-replay-many runs
//
// Experiments: table1 table2 table3 table4 table5 table6 table7
// table8 table9 table10 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14
// fig15 fig16 rates fractions predictors, the ablations parse
// selection btbsize penalty caseblock lengths hardware history, the
// composite sweep, and all. -list prints each with a one-line
// description.
//
// -trace-cache stores each (benchmark, variant, scale) dispatch
// stream in the named directory (internal/disptrace) and replays it
// for every further machine model instead of re-executing the guest
// VM; replayed counters are byte-identical to direct simulation, so
// results never change — machine-sweep experiments just get faster,
// especially on a warm cache.
//
// vmbench takes flags only: a positional argument exits with status 2
// before anything is simulated. Counter regressions are caught by the
// exact golden tests of internal/harness, which compare every counter
// of the paper grid, simulated directly and replayed, bit for bit with
// perfbench/reference/counters-sd10.json.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"vmopt/internal/disptrace"
	"vmopt/internal/harness"
	"vmopt/internal/runner"
	"vmopt/internal/workload"
)

func main() { os.Exit(vmbench(os.Args[1:], os.Stdout, os.Stderr)) }

// vmbench parses args and runs the selected experiments. It returns
// the exit status: 0 on success, 1 when an experiment fails, and 2 on
// a usage error, which is reported before anything is simulated.
func vmbench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to regenerate (e.g. fig8, table9, all; see -list)")
	list := fs.Bool("list", false, "list valid -exp names with descriptions and exit")
	scaleDiv := fs.Int("scalediv", 1, "divide workload scales by this factor")
	jobs := fs.Int("jobs", 0, "parallel simulation jobs (0 = GOMAXPROCS)")
	format := fs.String("format", "text", "output format: text, json or csv")
	out := fs.String("out", "", "directory for output (results.txt/.json/.csv; default stdout)")
	progress := fs.Bool("progress", false, "report run progress on stderr")
	traceCache := fs.String("trace-cache", "", "directory for the dispatch-trace cache (record once, replay per machine)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		// Without this a stray word ("diff", "table5") would silently
		// start the full multi-hour experiment run.
		fmt.Fprintf(stderr, "vmbench: unexpected argument %q (vmbench takes no arguments, only flags; see -h)\n", fs.Arg(0))
		return 2
	}
	if *list {
		listExps(stdout)
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// In-flight simulations run to completion after the first signal
	// (only dispatch stops); unregister the handler so a second ^C
	// terminates immediately instead of being swallowed.
	context.AfterFunc(ctx, stop)
	s := newSuite(ctx, *scaleDiv, *jobs, *progress)
	if *traceCache != "" {
		s.Traces = disptrace.NewCache(*traceCache)
	}

	if err := run(stdout, s, strings.ToLower(*exp), *format, *out); err != nil {
		fmt.Fprintln(stderr, "vmbench:", err)
		return 1
	}
	return 0
}

func newSuite(ctx context.Context, scaleDiv, jobs int, progress bool) *harness.Suite {
	s := harness.NewSuite()
	s.ScaleDiv = scaleDiv
	s.Jobs = jobs
	s.Ctx = ctx
	if progress {
		s.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rvmbench: %d/%d runs", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	return s
}

// expOutput is one experiment's rendered result.
type expOutput struct {
	tables []*harness.Table
	notes  []string
}

type experiment struct {
	name string
	desc string
	// composite experiments re-group other experiments' grids; "all"
	// skips them so their tables are not rendered twice.
	composite bool
	fn        func(s *harness.Suite) (expOutput, error)
}

// experiments is the dispatcher registry in paper order.
func experiments() []experiment {
	one := func(t *harness.Table, err error) (expOutput, error) {
		return expOutput{tables: []*harness.Table{t}}, err
	}
	return []experiment{
		{name: "table1", desc: "Table I: BTB predictions for loop A B A GOTO, switch vs threaded", fn: func(*harness.Suite) (expOutput, error) {
			st, tt, sm, tm := harness.TableI()
			return expOutput{
				tables: []*harness.Table{st, tt},
				notes: []string{fmt.Sprintf(
					"switch mispredictions/iteration: %d; threaded: %d", sm, tm)},
			}, nil
		}},
		{name: "table2", desc: "Table II: replication removes the loop's mispredictions", fn: func(*harness.Suite) (expOutput, error) {
			t, m := harness.TableII()
			return expOutput{tables: []*harness.Table{t},
				notes: []string{fmt.Sprintf("mispredictions/iteration: %d", m)}}, nil
		}},
		{name: "table3", desc: "Table III: bad static replication increases mispredictions", fn: func(*harness.Suite) (expOutput, error) {
			ot, mt, om, mm := harness.TableIII()
			return expOutput{tables: []*harness.Table{ot, mt},
				notes: []string{fmt.Sprintf(
					"original: %d mispredictions/iteration; bad replication: %d", om, mm)}}, nil
		}},
		{name: "table4", desc: "Table IV: a superinstruction removes the loop's mispredictions", fn: func(*harness.Suite) (expOutput, error) {
			t, m := harness.TableIV()
			return expOutput{tables: []*harness.Table{t},
				notes: []string{fmt.Sprintf("mispredictions/iteration: %d", m)}}, nil
		}},
		{name: "table5", desc: "Table V: dispatch and work costs per technique", fn: func(s *harness.Suite) (expOutput, error) { return one(s.TableV()) }},
		{name: "table6", desc: "Table VI: the Gforth benchmark programs", fn: func(*harness.Suite) (expOutput, error) { return one(harness.TableVI(), nil) }},
		{name: "table7", desc: "Table VII: the SPECjvm98 benchmark programs", fn: func(*harness.Suite) (expOutput, error) { return one(harness.TableVII(), nil) }},
		{name: "table8", desc: "Table VIII: static code growth by technique", fn: func(s *harness.Suite) (expOutput, error) { return one(s.TableVIII()) }},
		{name: "table9", desc: "Table IX: dynamic code growth (Gforth)", fn: func(s *harness.Suite) (expOutput, error) { t, _, err := s.TableIX(); return one(t, err) }},
		{name: "table10", desc: "Table X: dynamic code growth (JVM)", fn: func(s *harness.Suite) (expOutput, error) { t, _, err := s.TableX(); return one(t, err) }},
		{name: "fig7", desc: "Figure 7: Gforth speedups over plain, Celeron-800", fn: func(s *harness.Suite) (expOutput, error) { _, t, err := s.Figure7(); return one(t, err) }},
		{name: "fig8", desc: "Figure 8: Gforth speedups over plain, Pentium 4", fn: func(s *harness.Suite) (expOutput, error) { _, t, err := s.Figure8(); return one(t, err) }},
		{name: "fig9", desc: "Figure 9: Java interpreter speedups over plain, Pentium 4", fn: func(s *harness.Suite) (expOutput, error) { _, t, err := s.Figure9(); return one(t, err) }},
		{name: "fig10", desc: "Figure 10: performance counters for bench-gc (Gforth)", fn: func(s *harness.Suite) (expOutput, error) { _, t, err := s.Figure10(); return one(t, err) }},
		{name: "fig11", desc: "Figure 11: performance counters for brew (Gforth)", fn: func(s *harness.Suite) (expOutput, error) { _, t, err := s.Figure11(); return one(t, err) }},
		{name: "fig12", desc: "Figure 12: performance counters for mpegaudio (Java)", fn: func(s *harness.Suite) (expOutput, error) { _, t, err := s.Figure12(); return one(t, err) }},
		{name: "fig13", desc: "Figure 13: performance counters for compress (Java)", fn: func(s *harness.Suite) (expOutput, error) { _, t, err := s.Figure13(); return one(t, err) }},
		{name: "fig14", desc: "Figure 14: static replication/superinstruction mix, bench-gc", fn: func(s *harness.Suite) (expOutput, error) { _, t, err := s.Figure14(); return one(t, err) }},
		{name: "fig15", desc: "Figure 15: static mix timing, mpegaudio", fn: func(s *harness.Suite) (expOutput, error) { _, t, err := s.Figure15(); return one(t, err) }},
		{name: "fig16", desc: "Figure 16: static mix mispredictions, mpegaudio", fn: func(s *harness.Suite) (expOutput, error) { _, t, err := s.Figure16(); return one(t, err) }},
		{name: "rates", desc: "Section 3: misprediction rates, switch vs threaded dispatch", fn: func(s *harness.Suite) (expOutput, error) { _, _, t, err := s.MispredictRates(); return one(t, err) }},
		{name: "fractions", desc: "Section 7.2.2: indirect branches as % of retired instructions", fn: func(s *harness.Suite) (expOutput, error) { _, _, t, err := s.BranchFractions(); return one(t, err) }},
		{name: "predictors", desc: "Section 8: BTB vs 2-bit vs two-level predictor rates", fn: func(s *harness.Suite) (expOutput, error) { t, _, err := s.PredictorComparison(); return one(t, err) }},
		{name: "parse", desc: "Ablation: greedy vs optimal superinstruction parse", fn: func(s *harness.Suite) (expOutput, error) { t, _, err := s.GreedyVsOptimal(); return one(t, err) }},
		{name: "selection", desc: "Ablation: round-robin vs random replica selection", fn: func(s *harness.Suite) (expOutput, error) { t, _, err := s.RoundRobinVsRandom(); return one(t, err) }},
		{name: "btbsize", desc: "Ablation: misprediction rate vs BTB capacity (gray)", fn: func(s *harness.Suite) (expOutput, error) {
			w, err := workload.ByName("gray")
			if err != nil {
				return expOutput{}, err
			}
			t, _, err := s.BTBSizeSweep(w)
			return one(t, err)
		}},
		{name: "penalty", desc: "Ablation: across-bb speedup, 20- vs 30-cycle penalty", fn: func(s *harness.Suite) (expOutput, error) { t, _, err := s.PenaltySweep(); return one(t, err) }},
		{name: "caseblock", desc: "Ablation: switch dispatch under a case block table", fn: func(s *harness.Suite) (expOutput, error) { t, _, err := s.CaseBlockExperiment(); return one(t, err) }},
		{name: "lengths", desc: "Ablation: executed superinstruction lengths", fn: func(s *harness.Suite) (expOutput, error) { t, _, err := s.SuperLengths(); return one(t, err) }},
		{name: "hardware", desc: "Ablation: software techniques on BTB vs two-level hardware", fn: func(s *harness.Suite) (expOutput, error) { t, _, err := s.HardwareVsSoftware(); return one(t, err) }},
		{name: "history", desc: "Ablation: two-level predictor rate vs history length (gray)", fn: func(s *harness.Suite) (expOutput, error) {
			w, err := workload.ByName("gray")
			if err != nil {
				return expOutput{}, err
			}
			t, _, err := s.TwoLevelHistorySweep(w)
			return one(t, err)
		}},
		{name: "sweep", desc: "all machine-sensitivity sweeps (btbsize, penalty, predictors, hardware, history); pairs well with -trace-cache", composite: true, fn: machineSweep},
	}
}

// machineSweep bundles every experiment that varies only the machine
// model over fixed (workload, variant) pairs — the grids where the
// dispatch-trace cache collapses each pair to one recording plus
// cheap replays.
func machineSweep(s *harness.Suite) (expOutput, error) {
	gray, err := workload.ByName("gray")
	if err != nil {
		return expOutput{}, err
	}
	var out expOutput
	add := func(t *harness.Table, err error) error {
		if err != nil {
			return err
		}
		out.tables = append(out.tables, t)
		return nil
	}
	if t, _, err := s.BTBSizeSweep(gray); add(t, err) != nil {
		return expOutput{}, err
	}
	if t, _, err := s.PenaltySweep(); add(t, err) != nil {
		return expOutput{}, err
	}
	if t, _, err := s.PredictorComparison(); add(t, err) != nil {
		return expOutput{}, err
	}
	if t, _, err := s.HardwareVsSoftware(); add(t, err) != nil {
		return expOutput{}, err
	}
	if t, _, err := s.TwoLevelHistorySweep(gray); add(t, err) != nil {
		return expOutput{}, err
	}
	return out, nil
}

// selectExps resolves an -exp argument against the registry.
func selectExps(exp string) ([]experiment, error) {
	exps := experiments()
	if exp == "all" {
		// Composites re-group grids other entries already render.
		all := make([]experiment, 0, len(exps))
		for _, e := range exps {
			if !e.composite {
				all = append(all, e)
			}
		}
		return all, nil
	}
	for _, e := range exps {
		if e.name == exp {
			return []experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (run vmbench -list)", exp)
}

// listExps prints every valid -exp name with its description.
func listExps(w io.Writer) {
	fmt.Fprintln(w, "experiments (-exp NAME):")
	for _, e := range experiments() {
		fmt.Fprintf(w, "  %-11s %s\n", e.name, e.desc)
	}
	fmt.Fprintln(w, "  all         every experiment above (composites excluded)")
}

// collect resolves an -exp argument and assembles the structured
// report for it.
func collect(s *harness.Suite, exp string) (*runner.Report, error) {
	selected, err := selectExps(exp)
	if err != nil {
		return nil, err
	}
	return collectExps(s, exp, selected)
}

// collectExps runs the selected experiments and assembles the
// structured report: every rendered table plus every underlying
// simulated run.
func collectExps(s *harness.Suite, exp string, selected []experiment) (*runner.Report, error) {
	// Host metadata documents the capture environment (notably the
	// core count behind any parallel-replay wall-clock claims); the
	// simulated runs themselves are host-independent.
	r := &runner.Report{Schema: runner.SchemaVersion, Exp: exp, ScaleDiv: s.ScaleDiv, Host: runner.CurrentHost()}
	for _, e := range selected {
		out, err := e.fn(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		re := runner.Experiment{Name: e.name, Notes: out.notes}
		for _, t := range out.tables {
			re.Tables = append(re.Tables, runner.Table{
				ID: t.ID, Title: t.Title, Header: t.Header, Rows: t.Rows,
			})
		}
		r.Experiments = append(r.Experiments, re)
	}
	r.Runs = s.Snapshot()
	return r, nil
}

// outSink resolves the output destination: stdout, or a results file
// in outDir. The returned close function reports flush-to-disk
// failures and must be checked.
func outSink(stdout io.Writer, outDir, format string) (io.Writer, func() error, error) {
	if outDir == "" {
		return stdout, func() error { return nil }, nil
	}
	ext := format
	if format == "text" {
		ext = "txt"
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	f, err := os.Create(filepath.Join(outDir, "results."+ext))
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// run is the dispatcher: it executes the selected experiments and
// writes them in the requested format.
func run(stdout io.Writer, s *harness.Suite, exp, format, outDir string) error {
	selected, err := selectExps(exp)
	if err != nil {
		return err
	}
	switch format {
	case "text", "json", "csv":
	default:
		return fmt.Errorf("unknown format %q (want text, json or csv)", format)
	}
	w, closeSink, err := outSink(stdout, outDir, format)
	if err != nil {
		return err
	}
	werr := writeOutput(w, s, exp, format, selected)
	cerr := closeSink()
	if werr != nil {
		return werr
	}
	return cerr
}

func writeOutput(w io.Writer, s *harness.Suite, exp, format string, selected []experiment) error {
	if format == "text" {
		// Stream tables as each experiment finishes.
		for _, e := range selected {
			out, err := e.fn(s)
			if err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			for _, t := range out.tables {
				fmt.Fprintln(w, t)
			}
			for _, n := range out.notes {
				fmt.Fprintf(w, "%s\n\n", n)
			}
		}
		return nil
	}
	report, err := collectExps(s, exp, selected)
	if err != nil {
		return err
	}
	if format == "json" {
		return report.WriteJSON(w)
	}
	return report.WriteCSV(w)
}
