// Command perfbench is the repository benchmark: one program that
// drives the reproduction through its public packages and its real
// HTTP handler, checks every output exactly against a checked-in
// reference, and prints every metric by name with its unit.
//
// Run it from the repository root through the wrapper, which builds it
// from source first:
//
//	bash perfbench/run.sh --workload grid-direct --seed 1 --seconds 10 --trace 0
//
// Workloads (see NOTES.md for why each exists and what it measures):
//
//	grid-direct   every experiment of `vmbench -exp all` at scalediv 10,
//	              by direct simulation on nproc workers
//	serve-replay  a restarted server answering each of the 630 paper-grid
//	              cells once from a persistent trace cache, plus /v1/diff
//	              and trace-index reads
//
// With --trace 0 the last line of standard output is a JSON object
// holding the end-to-end metrics; with --trace 1 it holds the
// per-layer metrics of a separate traced run. -update-reference
// regenerates reference/counters-sd10.json by direct simulation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// scaleDiv is the workload scale divisor every workload runs at.
const scaleDiv = 10

// runLimit bounds one run of the benchmark, set-up included.
const runLimit = 170 * time.Second

// setupReps is how many times serve-replay sets up; setup_s is the
// median.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics of an untraced run, with units. Every
// workload reports every one of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"heap_mb", "MB"},
}

// env is one run's configuration and accumulated outcome.
type env struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	tmp      string
	ref      reference

	phase     atomic.Pointer[string]
	attempted atomic.Int64
	failed    atomic.Int64

	mu      sync.Mutex
	metrics map[string]float64
	errs    int
}

func (e *env) setPhase(p string) { e.phase.Store(&p) }

func (e *env) currentPhase() string {
	if p := e.phase.Load(); p != nil {
		return *p
	}
	return "start"
}

// maxReported bounds how many failed operations are described on
// standard error; all of them are counted.
const maxReported = 10

// op records one checked operation; a non-nil err marks it failed.
func (e *env) op(err error) {
	e.attempted.Add(1)
	if err == nil {
		return
	}
	e.failed.Add(1)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.errs < maxReported {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s: failed operation: %v\n", e.workload, e.currentPhase(), err)
	}
	e.errs++
}

func (e *env) set(name string, v float64) {
	e.mu.Lock()
	e.metrics[name] = v
	e.mu.Unlock()
}

func (e *env) get(name string) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.metrics[name]
}

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(*env) error{
	"grid-direct":  runGrid,
	"serve-replay": runReplay,
}

func main() {
	name := flag.String("workload", "", "workload to run: grid-direct or serve-replay")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	update := flag.Bool("update-reference", false, "regenerate "+referencePath+" by direct simulation and exit")
	flag.Parse()

	if *update {
		if err := writeReference(referencePath); err != nil {
			fail("update-reference", "simulate", err)
		}
		return
	}
	fn, ok := workloads[*name]
	if !ok {
		fail(*name, "arguments", fmt.Errorf("unknown workload %q (want %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(*name, "arguments", fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1"))
	}
	e := &env{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, metrics: map[string]float64{}}

	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fail(*name, "start", err)
	}
	e.tmp = tmp
	abort := func(phase string, err error) {
		os.RemoveAll(tmp)
		fail(*name, phase, err)
	}
	// Each run is bounded: a hung phase ends the process with an error
	// naming it instead of stalling whoever runs the benchmark.
	time.AfterFunc(runLimit, func() {
		abort(e.currentPhase(), fmt.Errorf("run did not finish within %s", runLimit))
	})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		abort(e.currentPhase(), fmt.Errorf("interrupted by %v", s))
	}()

	e.setPhase("reference")
	if e.ref, err = parseReference(referenceJSON); err != nil {
		abort("reference", err)
	}
	if err := fn(e); err != nil {
		abort(e.currentPhase(), err)
	}
	os.RemoveAll(tmp)

	res, err := e.report()
	if err != nil {
		fail(*name, "report", err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fail(*name, "report", err)
	}
	fmt.Println(string(b))
}

// report builds the run's result. An untraced run must have measured
// every end-to-end metric; a traced run every per-layer metric its
// workload exercises, and none of the others, which read 0.
func (e *env) report() (result, error) {
	res := result{Attempted: e.attempted.Load(), Failed: e.failed.Load(), Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if !e.trace {
		for _, m := range endToEnd {
			v, ok := e.metrics[m.name]
			if !ok {
				return res, fmt.Errorf("workload did not measure %s", m.name)
			}
			res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
		return res, nil
	}
	for _, m := range perLayer {
		v, ok := e.metrics[m.name]
		switch want := slices.Contains(m.in, e.workload); {
		case want && !ok:
			return res, fmt.Errorf("traced run did not measure %s", m.name)
		case !want && ok:
			return res, fmt.Errorf("traced run measured %s, which is not listed for this workload", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}

// note prints a diagnostic line about the run on standard error.
func note(e *env, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %s: "+format+"\n", append([]any{e.workload}, args...)...)
}

// fail prints one error naming the workload and phase, and exits 1
// without printing a result.
func fail(workload, phase string, err error) {
	fmt.Fprintf(os.Stderr, "perfbench: workload %s, phase %s: %v\n", workload, phase, err)
	os.Exit(1)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// nproc is the client and worker parallelism every workload uses.
func nproc() int { return runtime.GOMAXPROCS(0) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler samples the live heap — as the last completed collection
// measured it — every heapEvery during measured phases, and once after
// a forced collection at the end of each. Its figure is the median
// sample, in MB (10^6 bytes). Callers keep the caches they measure
// reachable until stop returns.
type heapSampler struct {
	samples []float64
	quit    chan struct{}
	done    chan struct{}
}

const heapEvery = 100 * time.Millisecond

func liveHeapMB() float64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// start forces a collection, so the first samples describe the state
// the phase starts from, and begins sampling.
func (h *heapSampler) start() {
	runtime.GC()
	h.quit, h.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-t.C:
				h.samples = append(h.samples, liveHeapMB())
			}
		}
	}()
}

// stop ends sampling and adds a reading after a forced collection.
func (h *heapSampler) stop() {
	close(h.quit)
	<-h.done
	runtime.GC()
	h.samples = append(h.samples, liveHeapMB())
}

func (h *heapSampler) mb() float64 { return median(h.samples) }

// timeSetup runs setup reps times and records the median as setup_s;
// teardown releases every repetition but the last, whose state the
// measured phase uses.
func timeSetup(e *env, reps int, setup func(rep int) error, teardown func(rep int)) error {
	var ds []float64
	for rep := 0; rep < reps; rep++ {
		if rep > 0 {
			teardown(rep - 1)
		}
		start := time.Now()
		if err := setup(rep); err != nil {
			return err
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	e.set("setup_s", median(ds))
	return nil
}

// gcStats is a runtime.MemStats delta over a measured phase.
type gcStats struct{ cycles, pauseNs, alloc uint64 }

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{uint64(ms.NumGC), ms.PauseTotalNs, ms.TotalAlloc}
}

// setGC records the Go runtime's per-layer metrics for the phase since
// before.
func (e *env) setGC(before gcStats) {
	after := readGC()
	e.set("go.gc_cycles", float64(after.cycles-before.cycles))
	e.set("go.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6)
	e.set("go.alloc_mb", float64(after.alloc-before.alloc)/1e6)
}
