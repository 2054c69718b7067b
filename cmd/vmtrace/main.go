// Command vmtrace records, inspects and replays dispatch traces
// (internal/disptrace): the machine-independent event stream of one
// simulated interpreter run, replayable against any machine model
// with counters byte-identical to direct simulation.
//
// Usage:
//
//	vmtrace record -bench gray -variant plain -o gray.vmdt
//	vmtrace record -bench compress -variant "across bb" -scalediv 10 -o c.vmdt
//	vmtrace replay -machine pentium4-northwood gray.vmdt
//	vmtrace replay -verify -machine pentium-m gray.vmdt
//	vmtrace info gray.vmdt
//	vmtrace diff switch.vmdt threaded.vmdt
//	vmtrace diff -bench gray -a switch -b plain -scalediv 20 -trace-cache .vmtraces
//
// record runs one (benchmark, variant) pair by direct simulation and
// writes its dispatch trace. replay drives a machine model over a
// trace and prints the counters; -verify additionally re-runs the
// direct simulation from the trace's recorded configuration and fails
// unless every counter matches byte for byte (the CI equivalence
// smoke). info prints a trace's metadata, stream statistics, the size
// of its step dictionary, the tokens of its successor-run step stream
// with their stored and raw bytes and the share of steps in runs, and
// what the trace costs resident in memory.
// diff aligns two traces of the same workload by VM instruction index
// — the paper's Tables I-IV comparison as a tool — and reports where
// their dispatch streams diverge: either between two trace files, or
// between two variants recorded on the fly (-bench with -a/-b,
// sharing the on-disk cache when -trace-cache is set).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/harness"
	"vmopt/internal/metrics"
	"vmopt/internal/workload"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vmtrace:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: vmtrace <record|replay|info|diff> [flags]\n" +
		"  record -bench NAME -variant NAME [-scalediv N] [-maxsteps N] [-machine NAME] -o FILE\n" +
		"  replay [-machine NAME] [-verify] FILE\n" +
		"  info FILE\n" +
		"  diff [-n N] FILE_A FILE_B\n" +
		"  diff [-n N] -bench NAME -a VARIANT -b VARIANT [-scalediv N] [-maxsteps N] [-trace-cache DIR]")
}

func run(stdout io.Writer, args []string) error {
	if len(args) == 0 {
		return usage()
	}
	switch args[0] {
	case "record":
		return recordMain(stdout, args[1:])
	case "replay":
		return replayMain(stdout, args[1:])
	case "info":
		return infoMain(stdout, args[1:])
	case "diff":
		return diffMain(stdout, args[1:])
	default:
		return usage()
	}
}

func recordMain(stdout io.Writer, args []string) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	bench := fs.String("bench", "", "benchmark name (see cmd/vmbench tables VI/VII)")
	variant := fs.String("variant", "plain", "interpreter variant label (Section 7.1 lists, or \"switch\")")
	scaleDiv := fs.Int("scalediv", 1, "divide the workload's default scale by this factor")
	maxSteps := fs.Uint64("maxsteps", 200_000_000, "VM step bound")
	machine := fs.String("machine", cpu.Celeron800.Name, "machine model of the recording run")
	out := fs.String("o", "", "output trace file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bench == "" || *out == "" {
		return fmt.Errorf("record: -bench and -o are required")
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("record: unexpected argument %q", fs.Arg(0))
	}
	w, err := workload.ByName(*bench)
	if err != nil {
		return err
	}
	v, err := harness.VariantByName(w, *variant)
	if err != nil {
		return err
	}
	m, err := cpu.MachineByName(*machine)
	if err != nil {
		return err
	}
	s := harness.NewSuite()
	s.ScaleDiv = *scaleDiv
	s.MaxSteps = *maxSteps

	tr, counters, err := s.RecordTrace(w, v, m)
	if err != nil {
		return err
	}
	if err := tr.Save(*out); err != nil {
		return err
	}
	// Report what landed on disk, compressed sizes included.
	meta, err := disptrace.ReadMeta(*out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %s/%s (scale %d) to %s\n", w.Name, v.Name, tr.Header.Scale, *out)
	printStreamStats(stdout, meta, tr)
	fmt.Fprintf(stdout, "recording run on %s: %v\n", m.Name, counters)
	return nil
}

func replayMain(stdout io.Writer, args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	machine := fs.String("machine", cpu.Celeron800.Name, "machine model to replay on")
	verify := fs.Bool("verify", false, "re-run the direct simulation and require byte-identical counters")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("replay: exactly one trace file expected")
	}
	m, err := cpu.MachineByName(*machine)
	if err != nil {
		return err
	}
	tr, err := disptrace.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	replayed, err := disptrace.ReplayMachine(tr, m)
	if err != nil {
		return err
	}
	h := tr.Header
	fmt.Fprintf(stdout, "replayed %s/%s (scale %d) on %s\n", h.Workload, h.Variant, h.Scale, m.Name)
	fmt.Fprintf(stdout, "counters: %v\n", replayed)
	if !*verify {
		return nil
	}
	direct, err := directRun(tr, m)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if direct != replayed {
		return fmt.Errorf("verify FAILED: replay diverged from direct simulation\n  direct   %+v\n  replayed %+v", direct, replayed)
	}
	fmt.Fprintf(stdout, "verify OK: replay byte-identical to direct simulation on %s\n", m.Name)
	return nil
}

// directRun re-creates the recorded configuration from the trace
// header and runs it by direct simulation on m (the suite carries no
// trace cache, so nothing recorded is reused).
func directRun(tr *disptrace.Trace, m cpu.Machine) (metrics.Counters, error) {
	h := tr.Header
	w, err := workload.ByName(h.Workload)
	if err != nil {
		return metrics.Counters{}, err
	}
	v, err := harness.VariantByName(w, h.Variant)
	if err != nil {
		return metrics.Counters{}, err
	}
	s := harness.NewSuite()
	s.ScaleDiv = int(h.ScaleDiv)
	s.MaxSteps = h.MaxSteps
	want := disptrace.Key{
		Workload: h.Workload, Lang: h.Lang,
		Variant: h.Variant, Technique: h.Technique,
		Scale: h.Scale, ScaleDiv: h.ScaleDiv,
		MaxSteps: h.MaxSteps, ISAHash: h.ISAHash,
	}
	if got := s.TraceKey(w, v); got != want {
		return metrics.Counters{}, fmt.Errorf("trace no longer matches the current build (workload scale or ISA changed):\n  trace   %+v\n  current %+v", want, got)
	}
	return s.Run(w, v, m)
}

// diffMain aligns two traces by VM instruction index and reports
// their divergences: two trace files, or two variants of one
// benchmark recorded on the fly.
func diffMain(stdout io.Writer, args []string) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	n := fs.Int("n", 5, "detail the first N divergences")
	bench := fs.String("bench", "", "benchmark name (record mode: diff two variants of it)")
	va := fs.String("a", "", "variant label of side A (record mode)")
	vb := fs.String("b", "", "variant label of side B (record mode)")
	scaleDiv := fs.Int("scalediv", 1, "divide the workload's default scale by this factor (record mode)")
	maxSteps := fs.Uint64("maxsteps", 200_000_000, "VM step bound (record mode)")
	machine := fs.String("machine", cpu.Celeron800.Name, "machine model of the recording runs (record mode)")
	cacheDir := fs.String("trace-cache", "", "record through this on-disk trace cache instead of re-simulating (record mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var a, b *disptrace.Trace
	switch {
	case *bench != "":
		if *va == "" || *vb == "" {
			return fmt.Errorf("diff: -bench needs both -a and -b variants")
		}
		if fs.NArg() > 0 {
			return fmt.Errorf("diff: unexpected argument %q alongside -bench", fs.Arg(0))
		}
		w, err := workload.ByName(*bench)
		if err != nil {
			return err
		}
		varA, err := harness.VariantByName(w, *va)
		if err != nil {
			return err
		}
		varB, err := harness.VariantByName(w, *vb)
		if err != nil {
			return err
		}
		m, err := cpu.MachineByName(*machine)
		if err != nil {
			return err
		}
		s := harness.NewSuite()
		s.ScaleDiv = *scaleDiv
		s.MaxSteps = *maxSteps
		if *cacheDir != "" {
			s.Traces = disptrace.NewCache(*cacheDir)
		}
		if a, err = s.Trace(w, varA, m); err != nil {
			return err
		}
		if b, err = s.Trace(w, varB, m); err != nil {
			return err
		}
	case fs.NArg() == 2:
		var err error
		if a, err = disptrace.Load(fs.Arg(0)); err != nil {
			return err
		}
		if b, err = disptrace.Load(fs.Arg(1)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("diff: want two trace files, or -bench with -a and -b")
	}

	r, err := disptrace.DiffTraces(a, b, *n)
	if err != nil {
		return err
	}
	printDiff(stdout, r)
	return nil
}

// printDiff renders a diff report in the style of the paper's trace
// tables: configuration, aligned totals, per-field divergence counts
// and the first divergences side by side.
func printDiff(w io.Writer, r *disptrace.DiffReport) {
	fmt.Fprintf(w, "diff A:     %s/%s (technique %s)\n", r.Workload, r.AVariant, r.ATechnique)
	fmt.Fprintf(w, "     B:     %s/%s (technique %s)\n", r.Workload, r.BVariant, r.BTechnique)
	fmt.Fprintf(w, "workload:   %s (%s), scale %d, isa %#016x\n", r.Workload, r.Lang, r.Scale, r.ISAHash)
	fmt.Fprintf(w, "insts:      A %d, B %d (%d compared)\n", r.AInsts, r.BInsts, r.Compared)
	if r.Identical {
		fmt.Fprintf(w, "identical:  %d VM instructions, 0 divergences\n", r.Compared)
		return
	}
	fmt.Fprintf(w, "divergent:  %d of %d compared steps (work %d, fetch %d, dispatch %d)\n",
		r.Divergences, r.Compared, r.WorkDiffs, r.FetchDiffs, r.DispatchDiffs)
	if r.FirstDivergence >= 0 {
		fmt.Fprintf(w, "first divergence at inst %d\n", r.FirstDivergence)
	}
	for _, d := range r.First {
		fmt.Fprintf(w, "  inst %d [%s]:\n", d.Inst, strings.Join(d.Fields, " "))
		fmt.Fprintf(w, "    A: %s\n", formatStep(d.A))
		fmt.Fprintf(w, "    B: %s\n", formatStep(d.B))
	}
}

func formatStep(d disptrace.StepDiff) string {
	s := fmt.Sprintf("work %d, fetch %#x", d.Work, d.Fetch)
	if d.Dispatched {
		return s + fmt.Sprintf(", dispatch %#x -> %#x", d.Branch, d.Target)
	}
	return s + ", no dispatch"
}

func infoMain(stdout io.Writer, args []string) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("info: exactly one trace file expected")
	}
	tr, err := disptrace.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	meta, err := disptrace.ReadMeta(fs.Arg(0))
	if err != nil {
		return err
	}
	h := tr.Header
	fmt.Fprintf(stdout, "workload:   %s (%s)\n", h.Workload, h.Lang)
	fmt.Fprintf(stdout, "variant:    %s (technique %s)\n", h.Variant, h.Technique)
	fmt.Fprintf(stdout, "scale:      %d (scalediv %d, maxsteps %d)\n", h.Scale, h.ScaleDiv, h.MaxSteps)
	printStreamStats(stdout, meta, tr)
	return tr.Verify()
}

// printStreamStats reports the stream totals (ISA fingerprint
// included, so any summary identifies which instruction set the
// stream is valid against), the step dictionary, the token stream's
// length, stored (flate) and raw bytes and the share of its steps that
// runs of follows hold, and what the trace costs resident.
func printStreamStats(w io.Writer, meta disptrace.Meta, tr *disptrace.Trace) {
	h := meta.Header
	fmt.Fprintf(w, "stream:     %d dispatches, %d fetches, %d work instrs\n",
		h.Dispatches, h.Fetches, h.WorkInstrs)
	fmt.Fprintf(w, "totals:     %d VM instructions, %d generated code bytes, isa %#016x\n",
		h.VMInstructions, h.CodeBytes, h.ISAHash)
	fmt.Fprintf(w, "dictionary: %d distinct steps\n", meta.DictSteps)
	a := tr.Arena()
	inRuns := 0.0
	if a.Insts() > 0 {
		inRuns = 100 * float64(a.RunSteps()) / float64(a.Insts())
	}
	fmt.Fprintf(w, "tokens:     %d for %d steps, %.1f%% of steps in runs\n", a.Tokens(), a.Insts(), inRuns)
	ratio := 1.0
	if meta.StreamStoredBytes > 0 {
		ratio = float64(meta.StreamRawBytes) / float64(meta.StreamStoredBytes)
	}
	fmt.Fprintf(w, "token file: %d bytes stored, %d raw, %.2fx compression\n",
		meta.StreamStoredBytes, meta.StreamRawBytes, ratio)
	fmt.Fprintf(w, "resident:   %d bytes\n", a.Bytes())
}
