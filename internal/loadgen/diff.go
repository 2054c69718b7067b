package loadgen

import (
	"fmt"
	"io"
	"sort"
)

// Thresholds parameterize the load-report regression gate. Serving
// latency, unlike the simulator's deterministic counters, varies with
// the host — CI runs on shared runners — so the gate is built from
// loose multiplicative factors plus absolute slack, not exact
// comparison: it exists to catch a serving-tier regression measured
// in multiples, not a noisy millisecond.
type Thresholds struct {
	// P99Factor and P99SlackMS bound each op's p99:
	// cur_p99 <= base_p99*P99Factor + P99SlackMS.
	P99Factor  float64
	P99SlackMS float64
	// MaxErrorRateDelta bounds each op's error rate:
	// cur_rate <= base_rate + MaxErrorRateDelta.
	MaxErrorRateDelta float64
	// ThroughputFactor bounds the total throughput drop:
	// cur_rps >= base_rps / ThroughputFactor. Zero disables the
	// throughput gate.
	ThroughputFactor float64
}

// DefaultThresholds is tuned for shared CI runners: a p99 regression
// has to be ~4x (plus scheduling slack) before the gate trips, which
// still catches the regressions worth stopping a merge for (a lost
// cache tier, a serialized handler, an accidental O(n^2) path).
var DefaultThresholds = Thresholds{
	P99Factor:         4,
	P99SlackMS:        250,
	MaxErrorRateDelta: 0.01,
	ThroughputFactor:  4,
}

// Regression is one gate failure.
type Regression struct {
	// Op names the operation ("run", "sweep", ...) or "total" for the
	// throughput gate.
	Op string
	// Metric is "p99_ms", "error_rate", "throughput_rps" or
	// "missing" (an op the baseline measured is absent or unissued in
	// the current report).
	Metric string
	// Base and Cur are the baseline and current values; Limit is the
	// threshold the current value violated.
	Base, Cur, Limit float64
}

func (r Regression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s: measured in baseline but absent from this report", r.Op)
	}
	if r.Metric == "throughput_rps" {
		return fmt.Sprintf("%s: %s regressed %.6g -> %.6g (limit >= %.6g)",
			r.Op, r.Metric, r.Base, r.Cur, r.Limit)
	}
	return fmt.Sprintf("%s: %s regressed %.6g -> %.6g (limit <= %.6g)",
		r.Op, r.Metric, r.Base, r.Cur, r.Limit)
}

// Diff gates current against baseline per operation. Ops present only
// in current are new coverage, not regressions. Reports must share
// the schema (checked at read time) and should come from the same
// spec; a spec mismatch in op mix surfaces naturally as missing ops.
func Diff(baseline, current *Report, t Thresholds) []Regression {
	var regs []Regression
	ops := make([]string, 0, len(baseline.Ops))
	for op := range baseline.Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		base := baseline.Ops[op]
		if base.Count == 0 {
			continue // baseline never exercised it; nothing to gate
		}
		cur, ok := current.Ops[op]
		if !ok || cur.Count == 0 {
			regs = append(regs, Regression{Op: op, Metric: "missing"})
			continue
		}
		if limit := base.Latency.P99MS*t.P99Factor + t.P99SlackMS; cur.Latency.P99MS > limit {
			regs = append(regs, Regression{
				Op: op, Metric: "p99_ms",
				Base: base.Latency.P99MS, Cur: cur.Latency.P99MS, Limit: limit,
			})
		}
		if limit := base.ErrorRate + t.MaxErrorRateDelta; cur.ErrorRate > limit {
			regs = append(regs, Regression{
				Op: op, Metric: "error_rate",
				Base: base.ErrorRate, Cur: cur.ErrorRate, Limit: limit,
			})
		}
	}
	if t.ThroughputFactor > 0 && baseline.ThroughputRPS > 0 {
		if limit := baseline.ThroughputRPS / t.ThroughputFactor; current.ThroughputRPS < limit {
			regs = append(regs, Regression{
				Op: "total", Metric: "throughput_rps",
				Base: baseline.ThroughputRPS, Cur: current.ThroughputRPS, Limit: limit,
			})
		}
	}
	return regs
}

// WriteGate renders a gate outcome for humans and returns an error
// when regressions were found (the vmload diff exit status).
func WriteGate(w io.Writer, regs []Regression, baseline *Report, t Thresholds) error {
	if len(regs) == 0 {
		fmt.Fprintf(w, "vmload diff: %d ops compared, no regressions (p99 limit %gx+%gms, error-rate delta %g, throughput factor %g)\n",
			len(baseline.Ops), t.P99Factor, t.P99SlackMS, t.MaxErrorRateDelta, t.ThroughputFactor)
		return nil
	}
	for _, r := range regs {
		fmt.Fprintln(w, "REGRESSION:", r)
	}
	return fmt.Errorf("%d regression(s) against baseline", len(regs))
}
