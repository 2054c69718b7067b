// Command vmload is the serving tier's load framework (see
// internal/loadgen): it drives vmserved with a declarative workload
// spec — an operation mix over /v1/run, /v1/sweep, /v1/diff and
// /v1/traces drawn from a seeded zipfian corpus — through distinct
// warm-up and measurement phases, in closed-loop (N workers) or
// open-loop (fixed-rate or Poisson arrivals) mode, and emits a
// vmload/v1 machine-readable report with per-operation latency
// percentiles, error counts and 503-backpressure counts.
//
// Open-loop latency is coordinated-omission-aware: every request is
// timed from its intended start on the arrival schedule, so a server
// stall is charged for the requests that queued behind it.
//
// Usage:
//
//	vmload -spec loadspecs/ci.json -out load-report.json
//	vmload -n 200 -c 16 -zipf-theta 0.9            # flag-built closed-loop spec
//	vmload -mode sweep -workloads gray,tscp
//	vmload diff -current load-report.json BENCH_serve.json
//	vmload checkmetrics -addr http://127.0.0.1:8321
//
// The diff subcommand is the CI regression gate: it compares a report
// against a checked-in baseline with loose thresholds (per-op p99,
// error rate, total throughput) sized for shared runners. The
// checkmetrics subcommand scrapes GET /metrics, requires it to parse
// as Prometheus text format 0.0.4 and requires the core vmserved
// series to be present.
//
// During a run vmload also scrapes the server's request counters from
// /metrics before and after the measurement window and records their
// delta as the report's server block, the server-side count of what
// the client sent.
//
// Exit status is non-zero on any transport error, non-2xx response
// (503 backpressure excluded — the server shedding load under an
// open-loop overload is a measurement, not a failure), response
// divergence between identical requests, or failed sweep cell.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"vmopt/internal/loadgen"
	"vmopt/internal/metrics"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		if err := diffMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "vmload diff:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "checkmetrics" {
		if err := checkMetricsMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "vmload checkmetrics:", err)
			os.Exit(1)
		}
		return
	}
	if err := runMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vmload:", err)
		os.Exit(1)
	}
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("vmload", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8321", "vmserved base URL")
	specPath := fs.String("spec", "", "workload spec file (JSON); overrides the grid/mix flags below")
	out := fs.String("out", "", "write the vmload/v1 JSON report to this file")
	responses := fs.String("responses", "", "write a response dump (sorted key<TAB>sha256 lines) to this file")
	checkResponses := fs.String("check-responses", "", "compare this run's responses against a reference dump; any shared key whose hash differs fails the run")
	instances := fs.String("instances", "", "comma-separated replica base URLs behind -addr (a router); the server request-counter delta is scraped from each one's /metrics and summed")

	// Flag-built spec (ignored when -spec is given): the quick
	// closed-loop form for interactive use.
	mode := fs.String("mode", "mixed", "request mix: run, sweep or mixed")
	n := fs.Int("n", 100, "measured requests to issue")
	c := fs.Int("c", 8, "concurrent workers (closed loop)")
	warmup := fs.Int("warmup", 0, "unrecorded warm-up requests before measurement")
	theta := fs.Float64("zipf-theta", 0.99, "zipfian skew of the request mix over the corpus (0 = uniform, must be < 1)")
	workloads := fs.String("workloads", "gray", "comma-separated workload names")
	variants := fs.String("variants", "plain,dynamic super", "comma-separated variant labels")
	machines := fs.String("machines", "", "comma-separated machine names (empty = defaults)")
	scaleDiv := fs.Int("scalediv", 50, "scale divisor sent with every request")
	seed := fs.Int64("seed", 1, "request-mix random seed")
	timeout := fs.Duration("timeout", 5*time.Minute, "per-request timeout")
	fs.Parse(args)
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (subcommands: diff, checkmetrics)", fs.Arg(0))
	}

	var spec *loadgen.Spec
	if *specPath != "" {
		s, err := loadgen.ReadSpecFile(*specPath)
		if err != nil {
			return err
		}
		spec = s
	} else {
		s, err := specFromFlags(*mode, *n, *c, *warmup, *theta,
			split(*workloads), split(*variants), split(*machines),
			*scaleDiv, *seed, *timeout)
		if err != nil {
			return err
		}
		spec = s
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := &loadgen.Runner{
		Addr: *addr, Spec: spec, Log: os.Stderr,
		Instances:     split(*instances),
		KeepResponses: *responses != "" || *checkResponses != "",
	}
	report, err := r.Run(ctx)
	if err != nil {
		return err
	}
	printSummary(report)

	if *responses != "" {
		f, err := os.Create(*responses)
		if err != nil {
			return err
		}
		werr := loadgen.WriteResponses(f, report.Responses)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing response dump: %w", werr)
		}
		fmt.Printf("vmload: %d response hash(es) written to %s\n", len(report.Responses), *responses)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		werr := report.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing report: %w", werr)
		}
		fmt.Printf("vmload: report written to %s\n", *out)
	}
	t := report.Total
	if failures := t.Errors + t.Non2xx + t.Diverged + t.CellErrors; failures > 0 {
		return fmt.Errorf("%d request failure(s) (backpressure excluded: %d)", failures, t.Backpressure)
	}
	if *checkResponses != "" {
		// The chaos-CI byte-identity gate: every logical request this
		// run and the reference run both served must have hashed
		// identically. Zero overlap would pass vacuously, so it fails.
		ref, err := loadgen.ReadResponsesFile(*checkResponses)
		if err != nil {
			return err
		}
		compared, mismatched := loadgen.CompareResponses(ref, report.Responses)
		if len(mismatched) > 0 {
			return fmt.Errorf("%d of %d shared response(s) differ from %s: %s",
				len(mismatched), compared, *checkResponses, strings.Join(mismatched, ", "))
		}
		if compared == 0 {
			return fmt.Errorf("no responses in common with %s: nothing was actually compared", *checkResponses)
		}
		fmt.Printf("vmload: %d response(s) byte-identical to %s\n", compared, *checkResponses)
	}
	return nil
}

// specFromFlags builds the closed-loop spec the pre-framework flag
// interface described, so existing invocations keep working.
func specFromFlags(mode string, n, c, warmup int, theta float64, workloads, variants, machines []string, scaleDiv int, seed int64, timeout time.Duration) (*loadgen.Spec, error) {
	var ops map[string]float64
	switch mode {
	case "run":
		ops = map[string]float64{loadgen.OpRun: 1}
	case "sweep":
		ops = map[string]float64{loadgen.OpSweep: 1}
	case "mixed":
		ops = map[string]float64{loadgen.OpRun: 0.75, loadgen.OpSweep: 0.25}
	default:
		return nil, fmt.Errorf("unknown -mode %q (want run, sweep or mixed)", mode)
	}
	s := &loadgen.Spec{
		Ops:             ops,
		Workloads:       workloads,
		Variants:        variants,
		Machines:        machines,
		ScaleDiv:        scaleDiv,
		ZipfTheta:       theta,
		Seed:            seed,
		Arrival:         loadgen.Arrival{Mode: loadgen.ModeClosed, Workers: c},
		WarmupRequests:  warmup,
		MeasureRequests: n,
		Timeout:         loadgen.Duration(timeout),
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// printSummary renders the human-readable run digest.
func printSummary(r *loadgen.Report) {
	mode := "closed loop"
	if r.Spec.Arrival.Mode == loadgen.ModeOpen {
		mode = fmt.Sprintf("open loop, %s @ %g rps", r.Spec.Arrival.Schedule, r.Spec.Arrival.RateRPS)
	}
	t := r.Total
	fmt.Printf("vmload: %d requests in %.2fs (%.1f req/s, %s): %d errors, %d non-2xx, %d backpressure, %d divergences, %d failed cells, %d retries\n",
		t.Count, r.ElapsedS, r.ThroughputRPS, mode,
		t.Errors, t.Non2xx, t.Backpressure, t.Diverged, t.CellErrors, t.Retries)
	for _, op := range loadgen.Ops {
		s, ok := r.Ops[op]
		if !ok || s.Count == 0 {
			continue
		}
		fmt.Printf("vmload: %-6s %6d reqs  mean %8.1fms  p50 %8.1fms  p90 %8.1fms  p99 %8.1fms  max %8.1fms\n",
			op, s.Count, s.Latency.MeanMS, s.Latency.P50MS, s.Latency.P90MS, s.Latency.P99MS, s.Latency.MaxMS)
		if len(s.ServerStages) > 0 {
			names := make([]string, 0, len(s.ServerStages))
			for name := range s.ServerStages {
				names = append(names, name)
			}
			sort.Strings(names)
			var b strings.Builder
			for _, name := range names {
				fmt.Fprintf(&b, "  %s %.1fms", name, s.ServerStages[name])
			}
			fmt.Printf("vmload: %-6s server stages (total):%s\n", op, b.String())
		}
	}
	if r.Server != nil {
		fmt.Printf("vmload: server saw run %d, sweep %d, diff %d, traces %d, rejected %d, errors %d over the measurement window\n",
			r.Server.Run, r.Server.Sweep, r.Server.Diff, r.Server.Traces, r.Server.Rejected, r.Server.Errors)
	}
}

func diffMain(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	current := fs.String("current", "", "load report to gate (required)")
	p99Factor := fs.Float64("p99-factor", loadgen.DefaultThresholds.P99Factor, "per-op p99 limit: baseline p99 times this factor, plus -p99-slack-ms")
	p99Slack := fs.Float64("p99-slack-ms", loadgen.DefaultThresholds.P99SlackMS, "absolute p99 slack in milliseconds")
	errDelta := fs.Float64("max-error-rate-delta", loadgen.DefaultThresholds.MaxErrorRateDelta, "per-op error-rate headroom over baseline")
	tputFactor := fs.Float64("throughput-factor", loadgen.DefaultThresholds.ThroughputFactor, "total throughput may drop to baseline divided by this factor (0 disables)")
	fs.Parse(args)
	if fs.NArg() != 1 || *current == "" {
		return fmt.Errorf("usage: vmload diff -current report.json [threshold flags] <baseline.json>")
	}
	base, err := loadgen.ReadReportFile(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := loadgen.ReadReportFile(*current)
	if err != nil {
		return err
	}
	t := loadgen.Thresholds{
		P99Factor:         *p99Factor,
		P99SlackMS:        *p99Slack,
		MaxErrorRateDelta: *errDelta,
		ThroughputFactor:  *tputFactor,
	}
	return loadgen.WriteGate(os.Stdout, loadgen.Diff(base, cur, t), base, t)
}

// checkMetricsMain is the CI validity gate for the exposition surface:
// scrape GET /metrics, require it to parse as Prometheus text format
// 0.0.4 in full, and require the core vmserved series to be present.
// A server whose /metrics would not scrape fails the job even when the
// load numbers look fine.
func checkMetricsMain(args []string) error {
	fs := flag.NewFlagSet("checkmetrics", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8321", "vmserved base URL")
	timeout := fs.Duration("timeout", 10*time.Second, "scrape timeout")
	fs.Parse(args)
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	series, err := metrics.ScrapeMetrics(&http.Client{Timeout: *timeout}, *addr)
	if err != nil {
		return err
	}
	required := []string{
		`vmserved_requests_total{endpoint="run"}`,
		`vmserved_requests_total{endpoint="sweep"}`,
		`vmserved_requests_total{endpoint="diff"}`,
		`vmserved_rejected_total`,
		`vmserved_errors_total`,
		`vmserved_cache_hits_total`,
		`vmserved_cache_misses_total`,
		`vmserved_cache_evictions_total`,
		`vmserved_trace_memory_hits_total`,
		`vmserved_trace_memory_evictions_total`,
		`vmserved_trace_memory_bytes`,
		`vmserved_trace_joined_total`,
		`vmserved_trace_read_errors_total`,
		`vmserved_trace_save_errors_total`,
		`vmserved_in_flight`,
		`vmserved_request_seconds_count{endpoint="run"}`,
		`go_goroutines`,
	}
	var missing []string
	for _, s := range required {
		if _, ok := series[s]; !ok {
			missing = append(missing, s)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("missing required series: %s", strings.Join(missing, ", "))
	}
	fmt.Printf("vmload: /metrics OK: %d series parsed, all %d required series present\n", len(series), len(required))
	return nil
}

func split(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
