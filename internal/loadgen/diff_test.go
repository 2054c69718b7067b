package loadgen

import (
	"bytes"
	"strings"
	"testing"

	"vmopt/internal/metrics"
)

// report builds a minimal gateable report.
func report(p99RunMS, p99SweepMS, errRate, rps float64) *Report {
	op := func(p99 float64) OpStats {
		return OpStats{
			Count:     100,
			ErrorRate: errRate,
			Latency:   metrics.HistogramSnapshot{Count: 100, P99MS: p99},
		}
	}
	return &Report{
		Schema:        SchemaVersion,
		ThroughputRPS: rps,
		Ops:           map[string]OpStats{OpRun: op(p99RunMS), OpSweep: op(p99SweepMS)},
	}
}

var testThresholds = Thresholds{P99Factor: 2, P99SlackMS: 10, MaxErrorRateDelta: 0.01, ThroughputFactor: 2}

func TestDiffPassesWithinThresholds(t *testing.T) {
	base := report(10, 50, 0, 100)
	// p99 below base*2+10, error rate below +0.01, throughput above /2.
	cur := report(25, 100, 0.005, 60)
	if regs := Diff(base, cur, testThresholds); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
	var buf bytes.Buffer
	if err := WriteGate(&buf, nil, base, testThresholds); err != nil {
		t.Errorf("WriteGate on clean gate: %v", err)
	}
	if !strings.Contains(buf.String(), "no regressions") {
		t.Errorf("clean gate output = %q", buf.String())
	}
}

func TestDiffCatchesP99Regression(t *testing.T) {
	base := report(10, 50, 0, 100)
	cur := report(10, 50*2+10+1, 0, 100) // sweep p99 just over the limit
	regs := Diff(base, cur, testThresholds)
	if len(regs) != 1 || regs[0].Op != OpSweep || regs[0].Metric != "p99_ms" {
		t.Fatalf("regressions = %v, want one sweep p99_ms", regs)
	}
	var buf bytes.Buffer
	if err := WriteGate(&buf, regs, base, testThresholds); err == nil {
		t.Error("WriteGate with regressions returned nil error")
	}
	if !strings.Contains(buf.String(), "REGRESSION: sweep: p99_ms") {
		t.Errorf("gate output = %q", buf.String())
	}
}

func TestDiffCatchesErrorRateRegression(t *testing.T) {
	base := report(10, 50, 0.005, 100)
	cur := report(10, 50, 0.02, 100)
	regs := Diff(base, cur, testThresholds)
	if len(regs) != 2 {
		t.Fatalf("regressions = %v, want error_rate on both ops", regs)
	}
	for _, r := range regs {
		if r.Metric != "error_rate" {
			t.Errorf("metric = %q, want error_rate", r.Metric)
		}
	}
}

func TestDiffCatchesThroughputCollapse(t *testing.T) {
	base := report(10, 50, 0, 100)
	cur := report(10, 50, 0, 40)
	regs := Diff(base, cur, testThresholds)
	if len(regs) != 1 || regs[0].Metric != "throughput_rps" {
		t.Fatalf("regressions = %v, want one throughput_rps", regs)
	}
	// Factor 0 disables the throughput gate.
	loose := testThresholds
	loose.ThroughputFactor = 0
	if regs := Diff(base, cur, loose); len(regs) != 0 {
		t.Errorf("disabled throughput gate still fired: %v", regs)
	}
}

func TestDiffCatchesMissingOp(t *testing.T) {
	base := report(10, 50, 0, 100)
	cur := report(10, 50, 0, 100)
	delete(cur.Ops, OpSweep)
	regs := Diff(base, cur, testThresholds)
	if len(regs) != 1 || regs[0].Metric != "missing" || regs[0].Op != OpSweep {
		t.Fatalf("regressions = %v, want sweep missing", regs)
	}
	// An op with zero baseline count gates nothing; an op only in
	// current is new coverage, not a regression.
	base.Ops[OpTraces] = OpStats{}
	cur2 := report(10, 50, 0, 100)
	cur2.Ops[OpDiff] = OpStats{Count: 5, Latency: metrics.HistogramSnapshot{Count: 5, P99MS: 1e9}}
	if regs := Diff(base, cur2, testThresholds); len(regs) != 0 {
		t.Errorf("zero-count baseline op or new op gated: %v", regs)
	}
}

// TestReportRoundTrip: reports survive WriteJSON/ReadReport, and the
// schema check rejects foreign documents.
func TestReportRoundTrip(t *testing.T) {
	r := report(10, 50, 0.001, 123)
	r.Spec = Spec{Ops: map[string]float64{OpRun: 1}, Workloads: []string{"gray"}, MeasureRequests: 10}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.ThroughputRPS != r.ThroughputRPS || got.Ops[OpRun].Latency.P99MS != 10 {
		t.Errorf("round trip lost data: %+v", got)
	}
	if _, err := ReadReport(strings.NewReader(`{"schema":"vmbench/v1"}`)); err == nil {
		t.Error("foreign schema accepted")
	}
}
