// Package faults is a seeded, deterministic fault-injection layer for
// the serving tier: named sites in the serving path (cache reads and
// writes, the request handler, the compute path) ask a shared
// Injector whether a configured fault fires at this call, and the
// spec — a small JSON document checked into the repo for chaos CI and
// passed to `vmserved -faults` — decides with what probability or
// cadence it does.
//
// Determinism is the design center: every rate-triggered rule draws
// from its own rand.Rand seeded from the spec seed and the rule's
// position, and every nth-call rule keeps its own atomic counter, so
// one spec produces one fault pattern per site regardless of what the
// rest of the process is doing. That is what lets a chaos CI job
// assert exact properties ("zero non-backpressure 5xx, responses
// byte-identical to a fault-free run") instead of eyeballing flaky
// noise, in the same spirit as verifying the error-handling paths of
// control programs rather than hoping they are rarely taken.
//
// A nil *Injector is valid everywhere and injects nothing, so
// production builds carry the sites at the cost of a nil check.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical site names. Sites are free strings — a subsystem may
// define its own — but the serving stack instruments these.
const (
	// SiteCacheRead covers trace-cache file reads (disptrace.Cache
	// Load/LoadID): error mode fails the read, corrupt/truncate modes
	// damage the bytes read, latency mode delays the read.
	SiteCacheRead = "cache.read"
	// SiteCacheWrite covers trace-cache file writes (recording a
	// trace): error mode fails the write, corrupt/truncate modes
	// damage the bytes before they hit the disk (a later read then
	// fails its CRC and exercises quarantine), latency mode delays it.
	SiteCacheWrite = "cache.write"
	// SiteHandler covers every instrumented HTTP endpoint: latency
	// mode stalls the handler, unavailable mode rejects the request
	// with a 503 before any work happens.
	SiteHandler = "serve.handler"
	// SiteCompute covers the post-admission compute path of /v1/run
	// and /v1/sweep groups: latency mode stalls inside the request's
	// deadline budget, error mode fails the computation.
	SiteCompute = "serve.compute"
)

// Fault modes.
const (
	// ModeError makes the site return an injected error.
	ModeError = "error"
	// ModeCorrupt flips one payload bit (position drawn
	// deterministically from the rule's RNG).
	ModeCorrupt = "corrupt"
	// ModeTruncate cuts the payload to a deterministic fraction of
	// its length.
	ModeTruncate = "truncate"
	// ModeLatency sleeps the rule's Latency duration.
	ModeLatency = "latency"
	// ModeUnavailable rejects the call (the serving layer answers
	// 503 + Retry-After).
	ModeUnavailable = "unavailable"
)

var validModes = map[string]bool{
	ModeError:       true,
	ModeCorrupt:     true,
	ModeTruncate:    true,
	ModeLatency:     true,
	ModeUnavailable: true,
}

// Rule arms one fault at one site. Exactly one trigger must be set:
// Rate (each call fires independently with that probability, drawn
// from the rule's seeded RNG) or Nth (every nth call fires: n, 2n,
// ...). Limit, when positive, caps the total number of fires.
type Rule struct {
	Site string `json:"site"`
	Mode string `json:"mode"`
	// Rate is the per-call fire probability in (0, 1].
	Rate float64 `json:"rate,omitempty"`
	// Nth fires on every nth call to the site (1 = every call).
	Nth int `json:"nth,omitempty"`
	// Limit caps total fires; 0 means unlimited.
	Limit int `json:"limit,omitempty"`
	// Latency is the injected delay for ModeLatency rules, as a Go
	// duration string ("5ms").
	Latency Duration `json:"latency,omitempty"`
}

// Duration is a time.Duration that marshals as a duration string so
// fault specs stay human-editable (mirrors loadgen's spec convention).
type Duration time.Duration

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("latency must be a string like \"5ms\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// Spec is a fault-injection configuration: a seed and a rule list.
type Spec struct {
	// Seed derives every rate rule's RNG; the same spec always
	// produces the same fault pattern per site.
	Seed int64 `json:"seed,omitempty"`
	// Faults is the rule list, applied in order at each site.
	Faults []Rule `json:"faults"`
}

// Validate checks the spec and reports the first problem.
func (s *Spec) Validate() error {
	if len(s.Faults) == 0 {
		return fmt.Errorf("faults: rule list must be non-empty")
	}
	for i, r := range s.Faults {
		if r.Site == "" {
			return fmt.Errorf("faults[%d]: site must be non-empty", i)
		}
		if !validModes[r.Mode] {
			return fmt.Errorf("faults[%d]: unknown mode %q (valid: error, corrupt, truncate, latency, unavailable)", i, r.Mode)
		}
		hasRate := r.Rate != 0
		hasNth := r.Nth != 0
		if hasRate == hasNth {
			return fmt.Errorf("faults[%d]: exactly one of rate or nth must be set", i)
		}
		if hasRate && !(r.Rate > 0 && r.Rate <= 1) {
			return fmt.Errorf("faults[%d]: rate %v out of range (0, 1]", i, r.Rate)
		}
		if hasNth && r.Nth < 1 {
			return fmt.Errorf("faults[%d]: nth %d must be >= 1", i, r.Nth)
		}
		if r.Limit < 0 {
			return fmt.Errorf("faults[%d]: limit %d must be >= 0", i, r.Limit)
		}
		if r.Mode == ModeLatency && r.Latency <= 0 {
			return fmt.Errorf("faults[%d]: latency mode needs a positive latency", i)
		}
		if r.Mode != ModeLatency && r.Latency != 0 {
			return fmt.Errorf("faults[%d]: latency is only valid with mode %q", i, ModeLatency)
		}
	}
	return nil
}

// ParseSpec decodes and validates a fault spec. Unknown fields are
// rejected — a typoed trigger field silently ignored would run a
// different chaos experiment than the one checked in.
func ParseSpec(b []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("parsing fault spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("invalid fault spec: %w", err)
	}
	return &s, nil
}

// ReadSpecFile loads a fault spec from disk.
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

// Error is the injected failure a ModeError rule returns; callers
// unwrap it to distinguish injected faults from real ones in logs
// (the serving layer treats both identically — that is the point).
type Error struct{ Site string }

func (e *Error) Error() string {
	return fmt.Sprintf("faults: injected %s error", e.Site)
}

// rule is one armed Rule with its trigger state.
type rule struct {
	Rule

	mu    sync.Mutex
	rng   *rand.Rand // rate trigger; nil for nth rules
	calls atomic.Uint64
	fired atomic.Uint64
}

// fire decides whether the rule triggers on this call.
func (r *rule) fire() bool {
	if r.Limit > 0 && r.fired.Load() >= uint64(r.Limit) {
		return false
	}
	hit := false
	if r.Nth > 0 {
		hit = r.calls.Add(1)%uint64(r.Nth) == 0
	} else {
		r.mu.Lock()
		hit = r.rng.Float64() < r.Rate
		r.mu.Unlock()
	}
	if !hit {
		return false
	}
	if r.Limit <= 0 {
		r.fired.Add(1)
		return true
	}
	// Claim a fire only while under the limit, so concurrent callers
	// never push the reported count past it.
	for {
		n := r.fired.Load()
		if n >= uint64(r.Limit) {
			return false
		}
		if r.fired.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Injector evaluates an armed spec at named sites. All methods are
// safe for concurrent use and valid on a nil receiver (no-ops).
type Injector struct {
	bySite map[string][]*rule
	rules  []*rule
}

// New arms a validated spec. Each rate rule gets its own RNG seeded
// from the spec seed and the rule index, so rules fire independently
// and deterministically.
func New(s *Spec) *Injector {
	inj := &Injector{bySite: map[string][]*rule{}}
	for i, r := range s.Faults {
		ar := &rule{Rule: r}
		if r.Rate > 0 {
			ar.rng = rand.New(rand.NewSource(s.Seed*7919 + int64(i)))
		}
		inj.bySite[r.Site] = append(inj.bySite[r.Site], ar)
		inj.rules = append(inj.rules, ar)
	}
	return inj
}

// Err reports an injected error when a ModeError rule fires at the
// site; nil otherwise.
func (inj *Injector) Err(site string) error {
	if inj == nil {
		return nil
	}
	for _, r := range inj.bySite[site] {
		if r.Mode == ModeError && r.fire() {
			return &Error{Site: site}
		}
	}
	return nil
}

// Corrupt runs the site's corrupt/truncate rules over a payload,
// returning a damaged copy when one fires and b itself otherwise.
// The damage is deterministic given the rule's trigger state: corrupt
// flips one bit at a position drawn from the fire count, truncate
// halves the payload.
func (inj *Injector) Corrupt(site string, b []byte) []byte {
	if inj == nil || len(b) == 0 {
		return b
	}
	for _, r := range inj.bySite[site] {
		switch r.Mode {
		case ModeCorrupt:
			if r.fire() {
				out := append([]byte(nil), b...)
				pos := (r.fired.Load() * 16777619) % uint64(len(out))
				out[pos] ^= 1 << (r.fired.Load() % 8)
				return out
			}
		case ModeTruncate:
			if r.fire() {
				return append([]byte(nil), b[:len(b)/2]...)
			}
		}
	}
	return b
}

// Delay sleeps for every ModeLatency rule firing at the site.
func (inj *Injector) Delay(site string) {
	if inj == nil {
		return
	}
	for _, r := range inj.bySite[site] {
		if r.Mode == ModeLatency && r.fire() {
			time.Sleep(time.Duration(r.Latency))
		}
	}
}

// Reject reports whether a ModeUnavailable rule fires at the site —
// the serving layer turns it into a 503 with Retry-After.
func (inj *Injector) Reject(site string) bool {
	if inj == nil {
		return false
	}
	for _, r := range inj.bySite[site] {
		if r.Mode == ModeUnavailable && r.fire() {
			return true
		}
	}
	return false
}

// Fired reports fires per "site/mode", summed over the rules that
// share one — the fault label of vmserved_faults_injected_total. The
// keys are fixed when the injector is armed; a nil injector has none.
func (inj *Injector) Fired() map[string]uint64 {
	if inj == nil {
		return nil
	}
	out := make(map[string]uint64, len(inj.rules))
	for _, r := range inj.rules {
		out[r.Site+"/"+r.Mode] += r.fired.Load()
	}
	return out
}
