// Package loadgen is a YCSB-grade load framework for the serving
// tier: declarative workload specs (an operation mix over the
// /v1/run, /v1/sweep, /v1/diff and /v1/traces endpoints with a seeded
// zipfian key distribution), open-loop arrival schedules (fixed-rate
// and Poisson) alongside the classic closed-loop worker model,
// distinct warm-up and measurement phases, and
// coordinated-omission-aware latency recording: in open-loop mode
// every request's latency is measured from its *intended* start time
// on the arrival schedule, so a stalled server is charged for the
// requests that queued behind the stall instead of being quietly
// forgiven (the measurement bug Gil Tene named coordinated omission).
//
// A run emits a machine-readable vmload/v1 report — throughput,
// per-operation latency percentiles, error and 503-backpressure
// counts, host metadata, and the delta of the server's own request
// counters on /metrics over the measurement window for cross-checking
// the client-side view.
// Diff compares such a report against a checked-in baseline
// (BENCH_serve.json) with tolerance thresholds, giving the serving
// tier the same CI regression gate the replay path has.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// Operation names — the keys of a spec's mix and of a report's per-op
// sections. Each maps to one serving endpoint.
const (
	OpRun    = "run"    // POST /v1/run
	OpSweep  = "sweep"  // POST /v1/sweep
	OpDiff   = "diff"   // POST /v1/diff
	OpTraces = "traces" // GET /v1/traces
)

// Ops lists every valid operation in report order.
var Ops = []string{OpRun, OpSweep, OpDiff, OpTraces}

// Arrival modes and open-loop schedules.
const (
	ModeClosed = "closed" // N workers, each issuing the next request when its last completes
	ModeOpen   = "open"   // requests start on a schedule regardless of completions

	ScheduleFixed   = "fixed"   // constant inter-arrival gap (rate_rps)
	SchedulePoisson = "poisson" // exponential inter-arrival gaps with mean 1/rate_rps
)

// Duration is a time.Duration that marshals as a Go duration string
// ("10s", "1m30s") so specs stay human-editable.
type Duration time.Duration

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"10s\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// Arrival declares how measured requests enter the system.
type Arrival struct {
	// Mode is "closed" or "open". Empty means closed.
	Mode string `json:"mode,omitempty"`
	// Workers is the closed-loop concurrency (and the warm-up phase
	// concurrency in every mode); <= 0 means DefaultWorkers.
	Workers int `json:"workers,omitempty"`
	// Schedule picks the open-loop arrival process: "fixed" or
	// "poisson". Required when Mode is "open".
	Schedule string `json:"schedule,omitempty"`
	// RateRPS is the open-loop arrival rate in requests per second.
	// Must be positive when Mode is "open".
	RateRPS float64 `json:"rate_rps,omitempty"`
	// MaxInFlight caps concurrently executing open-loop requests on
	// the client side; arrivals beyond it queue, and their queueing
	// time is charged to their latency (intended-start timing). <= 0
	// means DefaultMaxInFlight.
	MaxInFlight int `json:"max_inflight,omitempty"`
}

// Retry configures client-side recovery of failed requests: transport
// errors and 5xx responses (including 503 backpressure) are retried
// with capped exponential backoff. Jitter is deterministic — drawn
// from the request key and attempt number, not a global rand — so a
// seeded run stays reproducible. A server Retry-After header floors
// the backoff (capped at max_backoff, so a conservative server cannot
// stall the run). Retried attempts announce themselves with an
// X-Retry-Attempt header and are counted separately in the report;
// classification is by the final attempt alone.
type Retry struct {
	// MaxAttempts is the total number of tries for one logical
	// request, including the first; <= 1 disables retries.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// BaseBackoff is the first retry's backoff, doubling per attempt;
	// zero means DefaultBaseBackoff.
	BaseBackoff Duration `json:"base_backoff,omitempty"`
	// MaxBackoff caps the backoff and any Retry-After; zero means
	// DefaultMaxBackoff.
	MaxBackoff Duration `json:"max_backoff,omitempty"`
}

// Defaults for spec fields left zero.
const (
	DefaultWorkers     = 8
	DefaultMaxInFlight = 512
	DefaultDiffDetail  = 3

	DefaultBaseBackoff = 50 * time.Millisecond
	DefaultMaxBackoff  = 2 * time.Second
)

// DefaultTimeout bounds one request when the spec does not.
const DefaultTimeout = Duration(2 * time.Minute)

// Spec is the declarative description of one load run — the unit CI
// checks in (see loadspecs/) and vmload -spec executes.
type Spec struct {
	// Ops is the operation mix: op name -> probability. Weights must
	// be non-negative and sum to 1 (within 1e-6).
	Ops map[string]float64 `json:"ops"`

	// Corpus shape: the request population each op draws from.
	// Workloads is required; empty Variants defaults to the paper's
	// plain + dynamic superinstruction pair, empty Machines to the
	// server's defaults (all machines for sweeps, the three primary
	// models for runs).
	Workloads []string `json:"workloads"`
	Variants  []string `json:"variants,omitempty"`
	Machines  []string `json:"machines,omitempty"`
	// ScaleDiv is sent with every run/sweep request; <= 0 omits it
	// (server default applies).
	ScaleDiv int `json:"scalediv,omitempty"`

	// ZipfTheta skews the per-op corpus rank distribution (0 =
	// uniform, YCSB's default 0.99 ~= real cache workloads). Must be
	// in [0, 1).
	ZipfTheta float64 `json:"zipf_theta,omitempty"`
	// Seed makes the whole request mix reproducible.
	Seed int64 `json:"seed,omitempty"`

	Arrival Arrival `json:"arrival"`

	// WarmupRequests are issued closed-loop before measurement starts
	// and are not recorded: they warm the server's caches and record
	// the dispatch traces the diff op pairs up.
	WarmupRequests int `json:"warmup_requests,omitempty"`
	// MeasureRequests bounds the measurement phase by count;
	// MeasureDuration by wall clock. At least one must be set; with
	// both, whichever trips first ends the phase.
	MeasureRequests int      `json:"measure_requests,omitempty"`
	MeasureDuration Duration `json:"measure_duration,omitempty"`

	// Retry, when present, retries failed requests with deterministic
	// backoff (see Retry). Absent means one attempt per request.
	Retry *Retry `json:"retry,omitempty"`

	// Timeout bounds each request; zero means DefaultTimeout.
	Timeout Duration `json:"timeout,omitempty"`
	// DiffDetail is the divergence detail count sent with diff
	// requests; <= 0 means DefaultDiffDetail.
	DiffDetail int `json:"diff_detail,omitempty"`
}

// mixEpsilon is the tolerance on the op-mix sum: weights are written
// by hand in decimal, so demand "sums to 1" only up to rounding.
const mixEpsilon = 1e-6

// Validate checks the spec and reports the first problem. It does not
// mutate the spec; defaults are applied by accessors at run time so a
// validated spec serializes exactly as written.
func (s *Spec) Validate() error {
	if len(s.Ops) == 0 {
		return fmt.Errorf("ops: mix must name at least one operation")
	}
	valid := map[string]bool{}
	for _, op := range Ops {
		valid[op] = true
	}
	sum := 0.0
	for op, w := range s.Ops {
		if !valid[op] {
			return fmt.Errorf("ops: unknown operation %q (valid: run, sweep, diff, traces)", op)
		}
		if w < 0 || math.IsNaN(w) {
			return fmt.Errorf("ops: %s weight %v must be non-negative", op, w)
		}
		sum += w
	}
	if math.Abs(sum-1) > mixEpsilon {
		return fmt.Errorf("ops: weights sum to %g, must sum to 1", sum)
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("workloads must be non-empty")
	}
	if s.ZipfTheta < 0 || s.ZipfTheta >= 1 {
		return fmt.Errorf("zipf_theta %g out of range [0, 1)", s.ZipfTheta)
	}
	switch s.Arrival.Mode {
	case "", ModeClosed:
		if s.Arrival.Workers < 0 {
			return fmt.Errorf("arrival: workers %d must be >= 0", s.Arrival.Workers)
		}
	case ModeOpen:
		switch s.Arrival.Schedule {
		case ScheduleFixed, SchedulePoisson:
		default:
			return fmt.Errorf("arrival: open mode needs schedule %q or %q, got %q",
				ScheduleFixed, SchedulePoisson, s.Arrival.Schedule)
		}
		if s.Arrival.RateRPS <= 0 || math.IsNaN(s.Arrival.RateRPS) || math.IsInf(s.Arrival.RateRPS, 0) {
			return fmt.Errorf("arrival: rate_rps %g must be positive", s.Arrival.RateRPS)
		}
	default:
		return fmt.Errorf("arrival: unknown mode %q (want %q or %q)", s.Arrival.Mode, ModeClosed, ModeOpen)
	}
	if s.WarmupRequests < 0 {
		return fmt.Errorf("warmup_requests %d must be >= 0", s.WarmupRequests)
	}
	if s.MeasureRequests < 0 {
		return fmt.Errorf("measure_requests %d must be >= 0", s.MeasureRequests)
	}
	if s.MeasureDuration < 0 {
		return fmt.Errorf("measure_duration must be >= 0")
	}
	if s.MeasureRequests == 0 && s.MeasureDuration == 0 {
		return fmt.Errorf("measurement phase is unbounded: set measure_requests and/or measure_duration")
	}
	if s.Timeout < 0 {
		return fmt.Errorf("timeout must be >= 0")
	}
	if r := s.Retry; r != nil {
		if r.MaxAttempts < 0 {
			return fmt.Errorf("retry: max_attempts %d must be >= 0", r.MaxAttempts)
		}
		if r.BaseBackoff < 0 || r.MaxBackoff < 0 {
			return fmt.Errorf("retry: backoffs must be >= 0")
		}
		if r.MaxBackoff > 0 && r.MaxBackoff < r.BaseBackoff {
			return fmt.Errorf("retry: max_backoff %s below base_backoff %s",
				time.Duration(r.MaxBackoff), time.Duration(r.BaseBackoff))
		}
	}
	return nil
}

// Accessors resolving defaulted fields.

func (s *Spec) workers() int {
	if s.Arrival.Workers > 0 {
		return s.Arrival.Workers
	}
	return DefaultWorkers
}

func (s *Spec) maxInFlight() int {
	if s.Arrival.MaxInFlight > 0 {
		return s.Arrival.MaxInFlight
	}
	return DefaultMaxInFlight
}

func (s *Spec) timeout() time.Duration {
	if s.Timeout > 0 {
		return time.Duration(s.Timeout)
	}
	return time.Duration(DefaultTimeout)
}

func (s *Spec) diffDetail() int {
	if s.DiffDetail > 0 {
		return s.DiffDetail
	}
	return DefaultDiffDetail
}

func (s *Spec) maxAttempts() int {
	if s.Retry != nil && s.Retry.MaxAttempts > 1 {
		return s.Retry.MaxAttempts
	}
	return 1
}

func (s *Spec) baseBackoff() time.Duration {
	if s.Retry != nil && s.Retry.BaseBackoff > 0 {
		return time.Duration(s.Retry.BaseBackoff)
	}
	return DefaultBaseBackoff
}

func (s *Spec) maxBackoff() time.Duration {
	if s.Retry != nil && s.Retry.MaxBackoff > 0 {
		return time.Duration(s.Retry.MaxBackoff)
	}
	return DefaultMaxBackoff
}

func (s *Spec) open() bool { return s.Arrival.Mode == ModeOpen }

// ParseSpec decodes and validates a spec document. Unknown fields are
// rejected: a typoed field silently ignored would measure something
// other than what the spec author asked for.
func ParseSpec(b []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("invalid spec: %w", err)
	}
	return &s, nil
}

// ReadSpecFile loads a spec from disk.
func ReadSpecFile(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := ParseSpec(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
