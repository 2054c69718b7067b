package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"vmopt/internal/metrics"
	"vmopt/internal/runner"
)

// SchemaVersion identifies the load-report JSON schema, the serving
// tier's sibling of vmbench/v1. Diff refuses to compare reports
// across schema versions.
const SchemaVersion = "vmload/v1"

// OpStats is the measured outcome of one operation class.
type OpStats struct {
	// Count is requests issued during the measurement phase.
	Count uint64 `json:"count"`
	// Errors counts transport failures (dial, timeout, broken body).
	Errors uint64 `json:"errors"`
	// Retries counts extra attempts spent recovering requests under
	// the spec's retry policy. A request that ultimately succeeded
	// after retries is a success everywhere else in the report; its
	// recovery cost shows up here and in its latency.
	Retries uint64 `json:"retries"`
	// Non2xx counts non-2xx responses other than 503.
	Non2xx uint64 `json:"non_2xx"`
	// Backpressure counts 503 responses: the server shedding load as
	// designed, reported separately so an open-loop run can drive the
	// server into overload — the point of measuring it — without the
	// rejections masquerading as failures.
	Backpressure uint64 `json:"backpressure"`
	// Diverged counts duplicate logical requests whose responses were
	// not byte-identical (after NDJSON order normalization for
	// sweeps) — a serving-correctness failure, not a perf number.
	Diverged uint64 `json:"diverged"`
	// CellErrors counts failed cells reported inside 200 sweep
	// streams plus unparseable/truncated sweep lines.
	CellErrors uint64 `json:"cell_errors"`
	// ErrorRate is (Errors + Non2xx + Diverged + CellErrors) / Count;
	// backpressure is excluded (see BackpressureRate).
	ErrorRate float64 `json:"error_rate"`
	// BackpressureRate is Backpressure / Count.
	BackpressureRate float64 `json:"backpressure_rate"`
	// Latency summarizes the op's recorded latencies. In open-loop
	// mode these are measured from each request's intended start on
	// the arrival schedule (coordinated-omission-aware); closed-loop
	// latencies are measured from actual send.
	Latency metrics.HistogramSnapshot `json:"latency"`
	// ServerStages aggregates the server's own Server-Timing stage
	// attribution (milliseconds summed across the op's responses), so
	// a latency regression can be split into server-side stages —
	// cache lookup vs queueing vs simulation vs encode — without
	// server access. Absent when the target sends no Server-Timing.
	ServerStages map[string]float64 `json:"server_stages_ms,omitempty"`
}

// ServerDelta is the movement of the server's own request counters
// (vmserved_requests_total, vmserved_rejected_total and
// vmserved_errors_total on /metrics) across the measurement window —
// the server-side view to cross-check the client-side counts against
// (client run count and server run count must agree; client 503s must
// equal server rejections).
type ServerDelta struct {
	Run      uint64 `json:"run"`
	Sweep    uint64 `json:"sweep"`
	Diff     uint64 `json:"diff"`
	Traces   uint64 `json:"traces"`
	Rejected uint64 `json:"rejected"`
	Errors   uint64 `json:"errors"`
}

// Report is the machine-readable result of one load run — what CI
// uploads as an artifact and diffs against BENCH_serve.json.
type Report struct {
	Schema string `json:"schema"`
	// Spec echoes the executed spec, so a report is self-describing
	// and a baseline pins the exact workload it gates.
	Spec Spec `json:"spec"`
	// Host describes the capture environment. Latency numbers are
	// host-dependent (unlike vmbench's simulated counters), which is
	// why Diff applies loose multiplicative thresholds instead of
	// exact comparison.
	Host *runner.Host `json:"host,omitempty"`

	// ElapsedS is the measurement-phase wall clock;
	// ThroughputRPS = completed measured requests / ElapsedS.
	ElapsedS      float64 `json:"elapsed_s"`
	ThroughputRPS float64 `json:"throughput_rps"`

	// Ops holds per-operation stats for every op in the spec's mix;
	// Total aggregates them (histograms merged bucket-exactly).
	Ops   map[string]OpStats `json:"ops"`
	Total OpStats            `json:"total"`

	// Server is the /metrics request-counter delta over the
	// measurement window, absent when the target exposes no
	// vmserved_requests_total series (a router without -instances).
	Server *ServerDelta `json:"server,omitempty"`

	// Responses maps each logical request key to the sha256 of its
	// normalized response body (volatile ops excluded), present when
	// the runner was asked to keep them. Two runs of the same spec —
	// one fault-free, one under fault injection — must agree on every
	// key they share; CompareResponses is the chaos-CI gate.
	Responses map[string]string `json:"responses,omitempty"`
}

// WriteResponses renders a response dump as sorted "key<TAB>hash"
// lines — a stable text artifact two CI runs can be joined on.
func WriteResponses(w io.Writer, m map[string]string) error {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s\t%s\n", k, m[k]); err != nil {
			return err
		}
	}
	return nil
}

// ReadResponsesFile parses a dump written by WriteResponses.
func ReadResponsesFile(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
		if line == "" {
			continue
		}
		k, h, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("%s: malformed response-dump line %q", path, line)
		}
		m[k] = h
	}
	return m, nil
}

// CompareResponses checks a response dump against a reference one:
// every key present in both must hash identically. It reports how
// many keys were compared (a gate should require > 0 — disjoint dumps
// vacuously match) and which diverged.
func CompareResponses(ref, got map[string]string) (compared int, mismatched []string) {
	for k, h := range got {
		rh, ok := ref[k]
		if !ok {
			continue
		}
		compared++
		if rh != h {
			mismatched = append(mismatched, k)
		}
	}
	sort.Strings(mismatched)
	return compared, mismatched
}

// WriteJSON serializes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses a JSON load report and checks its schema version.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("parsing load report: %w", err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("load report schema %q, want %q", r.Schema, SchemaVersion)
	}
	return &r, nil
}

// ReadReportFile reads a JSON load report from a file.
func ReadReportFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := ReadReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// opRecorder accumulates one operation's outcomes during the
// measurement phase. Counters are atomic so closed-loop workers and
// open-loop request goroutines record without locks.
type opRecorder struct {
	count, errors, non2xx, backpressure, diverged, cellErrors, retries atomic.Uint64

	hist metrics.Histogram

	// stageMS accumulates Server-Timing attribution; the mutex is fine
	// here because the header only arrives once per completed response.
	stageMu sync.Mutex
	stageMS map[string]float64
}

// addStages folds one response's Server-Timing breakdown in.
func (r *opRecorder) addStages(stages map[string]float64) {
	if len(stages) == 0 {
		return
	}
	r.stageMu.Lock()
	defer r.stageMu.Unlock()
	if r.stageMS == nil {
		r.stageMS = map[string]float64{}
	}
	for name, ms := range stages {
		r.stageMS[name] += ms
	}
}

// stats freezes the recorder into its report form.
func (r *opRecorder) stats() OpStats {
	s := OpStats{
		Count:        r.count.Load(),
		Errors:       r.errors.Load(),
		Retries:      r.retries.Load(),
		Non2xx:       r.non2xx.Load(),
		Backpressure: r.backpressure.Load(),
		Diverged:     r.diverged.Load(),
		CellErrors:   r.cellErrors.Load(),
		Latency:      r.hist.Snapshot(),
	}
	if s.Count > 0 {
		s.ErrorRate = float64(s.Errors+s.Non2xx+s.Diverged+s.CellErrors) / float64(s.Count)
		s.BackpressureRate = float64(s.Backpressure) / float64(s.Count)
	}
	r.stageMu.Lock()
	if len(r.stageMS) > 0 {
		s.ServerStages = make(map[string]float64, len(r.stageMS))
		for name, ms := range r.stageMS {
			s.ServerStages[name] = ms
		}
	}
	r.stageMu.Unlock()
	return s
}

// merge folds o into r for the report's Total aggregation.
func (r *opRecorder) merge(o *opRecorder) {
	r.count.Add(o.count.Load())
	r.errors.Add(o.errors.Load())
	r.retries.Add(o.retries.Load())
	r.non2xx.Add(o.non2xx.Load())
	r.backpressure.Add(o.backpressure.Load())
	r.diverged.Add(o.diverged.Load())
	r.cellErrors.Add(o.cellErrors.Load())
	r.hist.Merge(&o.hist)
	o.stageMu.Lock()
	stages := make(map[string]float64, len(o.stageMS))
	for name, ms := range o.stageMS {
		stages[name] = ms
	}
	o.stageMu.Unlock()
	r.addStages(stages)
}
