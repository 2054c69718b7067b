// Package obs is the serving tier's zero-dependency observability
// subsystem: context-propagated request tracing with named stage
// spans, a recorder keeping the recent and slowest traces per
// endpoint for GET /debug/requests, and request-ID plumbing.
//
// The design follows x/net/trace more than OpenTelemetry: a Trace is
// a flat bag of (stage, offset, duration) records owned by one
// request, cheap enough to run on every request in a benchmark-gated
// serving path. Stages are attributed wall time measured by the code
// that did the work — obs.Start(ctx, "decode") … span.End() — and the
// same records render as a Server-Timing response header, so clients
// can see where a slow request's time went without server access.
//
// Everything degrades to (near) zero cost when no trace rides the
// context: Start returns a nil-backed span whose End is a no-op, and
// Observe returns before reading the clock.
package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// outcome ranks how much work a request did. Higher ranks win:
// a request that computed anything is "computed" even if other
// stages hit caches.
const (
	outcomeNone = iota
	outcomeHit
	outcomeCoalesced
	outcomeComputed
	outcomeError
	outcomeTimeout
)

var outcomeNames = [...]string{"", "hit", "coalesced", "computed", "error", "timeout"}

// Outcome labels for Trace.SetOutcome.
const (
	OutcomeHit       = "hit"
	OutcomeCoalesced = "coalesced"
	OutcomeComputed  = "computed"
	OutcomeError     = "error"
	// OutcomeTimeout marks a request that ran out of its server-side
	// deadline budget (504). It outranks error: a timed-out request
	// that also tripped a stage error is reported as the timeout the
	// operator needs to tune for.
	OutcomeTimeout = "timeout"
)

func outcomeRank(name string) int {
	for i, n := range outcomeNames {
		if n == name {
			return i
		}
	}
	return outcomeNone
}

// SpanRec is one finished stage of a trace: what the stage was named,
// when it started relative to the trace start, and how long it ran.
// Concurrent stages (a sweep's parallel groups) overlap; sequential
// request paths tile the request.
type SpanRec struct {
	Name   string        `json:"name"`
	Offset time.Duration `json:"offset_ns"`
	Dur    time.Duration `json:"dur_ns"`
}

// Trace accumulates one request's stages. It is safe for concurrent
// use: parallel sweep groups append spans from pool goroutines.
type Trace struct {
	ID       string
	Endpoint string
	Start    time.Time

	mu      sync.Mutex
	spans   []SpanRec
	outcome int
	status  int
	total   time.Duration
}

// maxSpans bounds a single trace's span count so a pathological
// request (a sweep with thousands of groups) cannot grow one trace
// without limit; further spans fold into the aggregate of their name.
const maxSpans = 256

// ctxKey carries a *Trace through a request's context.
type ctxKey struct{}

// NewTrace starts a trace for one request and attaches it to the
// context every downstream stage will see.
func NewTrace(ctx context.Context, endpoint, id string) (context.Context, *Trace) {
	tr := &Trace{ID: id, Endpoint: endpoint, Start: time.Now()}
	return context.WithValue(ctx, ctxKey{}, tr), tr
}

// FromContext returns the request trace riding the context, or nil.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}

// Span is one in-flight stage measurement. The zero/nil span is a
// valid no-op, which is what Start hands back when the context
// carries no trace — untraced paths pay one context lookup and
// nothing else.
type Span struct {
	tr    *Trace
	name  string
	start time.Time
}

// Start begins measuring a named stage of the request trace in ctx.
// It returns a no-op span when the context carries no trace.
func Start(ctx context.Context, name string) *Span {
	tr := FromContext(ctx)
	if tr == nil {
		return nil
	}
	return &Span{tr: tr, name: name, start: time.Now()}
}

// End finishes the span, attributing its wall time to its stage.
func (s *Span) End() {
	if s == nil || s.tr == nil {
		return
	}
	s.tr.add(s.name, s.start, time.Since(s.start))
}

// EndAs finishes the span under a different stage name — for code
// that only learns what a stage was after running it (a cache
// get-or-record call is "trace_load" on a hit and "record" on a
// miss).
func (s *Span) EndAs(name string) {
	if s == nil || s.tr == nil {
		return
	}
	s.tr.add(name, s.start, time.Since(s.start))
}

// Observe attributes an already-measured duration to a stage of the
// request trace in ctx. Tight loops use it to time many small steps
// with two clock reads per step and a single span at the end.
func Observe(ctx context.Context, name string, d time.Duration) {
	tr := FromContext(ctx)
	if tr == nil {
		return
	}
	tr.add(name, time.Now().Add(-d), d)
}

func (tr *Trace) add(name string, start time.Time, d time.Duration) {
	off := start.Sub(tr.Start)
	if off < 0 {
		off = 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) >= maxSpans {
		// Fold into the existing aggregate for the name, or drop.
		for i := range tr.spans {
			if tr.spans[i].Name == name {
				tr.spans[i].Dur += d
				return
			}
		}
		return
	}
	tr.spans = append(tr.spans, SpanRec{Name: name, Offset: off, Dur: d})
}

// SetOutcome records how the request was served: OutcomeHit,
// OutcomeCoalesced, OutcomeComputed or OutcomeError. Outcomes only
// escalate (computed beats coalesced beats hit), so a request that
// computed one group and hit the cache for another reports
// "computed"; error outranks everything.
func (tr *Trace) SetOutcome(name string) {
	if tr == nil {
		return
	}
	r := outcomeRank(name)
	tr.mu.Lock()
	if r > tr.outcome {
		tr.outcome = r
	}
	tr.mu.Unlock()
}

// Outcome reports the recorded cache outcome ("" when none was set).
func (tr *Trace) Outcome() string {
	if tr == nil {
		return ""
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return outcomeNames[tr.outcome]
}

// Finish seals the trace with the response status and total handler
// latency. It is called once, after the handler returns.
func (tr *Trace) Finish(status int, total time.Duration) {
	tr.mu.Lock()
	tr.status = status
	tr.total = total
	tr.mu.Unlock()
}

// Stage is one aggregated stage of a trace: total attributed duration
// across every span of that name, in first-seen order.
type Stage struct {
	Name string
	Dur  time.Duration
}

// Stages aggregates the trace's spans by name in first-seen order.
// When elapsed exceeds the attributed sum, the gap is appended as an
// "other" stage so the stages tile the elapsed window — which is what
// makes the Server-Timing breakdown sum to the handler latency
// instead of silently under-reporting. Overlapping (concurrent) spans
// can push the attributed sum past elapsed; then no "other" is added.
func (tr *Trace) Stages(elapsed time.Duration) []Stage {
	tr.mu.Lock()
	spans := make([]SpanRec, len(tr.spans))
	copy(spans, tr.spans)
	tr.mu.Unlock()
	return aggregate(spans, elapsed)
}

// ServerTiming renders the trace's aggregated stages as a
// Server-Timing header value (RFC draft syntax: name;dur=millis,
// comma-separated). Durations are milliseconds with microsecond
// precision. An empty trace renders "other" alone.
func (tr *Trace) ServerTiming(elapsed time.Duration) string {
	stages := tr.Stages(elapsed)
	if len(stages) == 0 {
		return ""
	}
	var b strings.Builder
	for i, st := range stages {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s;dur=%.3f", st.Name, float64(st.Dur)/float64(time.Millisecond))
	}
	return b.String()
}

// TraceSnapshot is the JSON form of a finished trace, served by
// GET /debug/requests.
type TraceSnapshot struct {
	ID       string    `json:"id"`
	Endpoint string    `json:"endpoint"`
	Start    time.Time `json:"start"`
	// DurMS is the total handler latency.
	DurMS float64 `json:"dur_ms"`
	// Status is the HTTP status the handler answered with.
	Status int `json:"status"`
	// Outcome is the cache outcome: hit, coalesced, computed, error
	// or timeout.
	Outcome string `json:"outcome,omitempty"`
	// Stages aggregates the stage spans by name in first-seen order,
	// including the unattributed "other" remainder.
	Stages []StageSnapshot `json:"stages"`
	// Spans is the raw span list (offset-ordered as recorded); stages
	// that ran concurrently overlap.
	Spans []SpanSnapshot `json:"spans,omitempty"`
}

// StageSnapshot is one aggregated stage in a TraceSnapshot.
type StageSnapshot struct {
	Name  string  `json:"name"`
	DurMS float64 `json:"dur_ms"`
}

// SpanSnapshot is one raw span in a TraceSnapshot.
type SpanSnapshot struct {
	Name     string  `json:"name"`
	OffsetMS float64 `json:"offset_ms"`
	DurMS    float64 `json:"dur_ms"`
}

// snapshot freezes a finished trace for the debug surface.
func (tr *Trace) snapshot() TraceSnapshot {
	tr.mu.Lock()
	total, status, outcome := tr.total, tr.status, outcomeNames[tr.outcome]
	spans := make([]SpanRec, len(tr.spans))
	copy(spans, tr.spans)
	tr.mu.Unlock()

	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	snap := TraceSnapshot{
		ID:       tr.ID,
		Endpoint: tr.Endpoint,
		Start:    tr.Start,
		DurMS:    ms(total),
		Status:   status,
		Outcome:  outcome,
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Offset < spans[j].Offset })
	for _, sp := range spans {
		snap.Spans = append(snap.Spans, SpanSnapshot{Name: sp.Name, OffsetMS: ms(sp.Offset), DurMS: ms(sp.Dur)})
	}
	for _, st := range aggregate(spans, total) {
		snap.Stages = append(snap.Stages, StageSnapshot{Name: st.Name, DurMS: ms(st.Dur)})
	}
	return snap
}

// aggregate is Stages over an already-copied span list.
func aggregate(spans []SpanRec, elapsed time.Duration) []Stage {
	var stages []Stage
	idx := make(map[string]int, 8)
	var sum time.Duration
	for _, sp := range spans {
		if i, ok := idx[sp.Name]; ok {
			stages[i].Dur += sp.Dur
		} else {
			idx[sp.Name] = len(stages)
			stages = append(stages, Stage{Name: sp.Name, Dur: sp.Dur})
		}
		sum += sp.Dur
	}
	if elapsed > sum {
		stages = append(stages, Stage{Name: "other", Dur: elapsed - sum})
	}
	return stages
}
