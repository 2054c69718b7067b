package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStartWithoutTraceIsNoop(t *testing.T) {
	sp := Start(context.Background(), "decode")
	sp.End() // must not panic
	var nilSpan *Span
	nilSpan.End()
	nilSpan.EndAs("x")
	Observe(context.Background(), "decode", time.Millisecond)
	if tr := FromContext(context.Background()); tr != nil {
		t.Fatalf("FromContext on bare context = %v, want nil", tr)
	}
}

func TestTraceStagesAggregateAndOther(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "run", "req-1")
	Observe(ctx, "decode", 10*time.Millisecond)
	Observe(ctx, "apply", 5*time.Millisecond)
	Observe(ctx, "decode", 10*time.Millisecond)

	stages := tr.Stages(30 * time.Millisecond)
	if len(stages) != 3 {
		t.Fatalf("stages = %v, want decode, apply, other", stages)
	}
	if stages[0].Name != "decode" || stages[0].Dur != 20*time.Millisecond {
		t.Errorf("stage 0 = %+v, want decode 20ms (same-name spans aggregate)", stages[0])
	}
	if stages[1].Name != "apply" || stages[1].Dur != 5*time.Millisecond {
		t.Errorf("stage 1 = %+v, want apply 5ms", stages[1])
	}
	if stages[2].Name != "other" || stages[2].Dur != 5*time.Millisecond {
		t.Errorf("stage 2 = %+v, want other 5ms (elapsed - attributed)", stages[2])
	}

	// Stage sum equals elapsed exactly once "other" tiles the gap.
	var sum time.Duration
	for _, st := range stages {
		sum += st.Dur
	}
	if sum != 30*time.Millisecond {
		t.Errorf("stage sum = %v, want the full elapsed 30ms", sum)
	}

	// When attributed time exceeds elapsed (overlapping spans), no
	// "other" appears.
	over := tr.Stages(time.Millisecond)
	for _, st := range over {
		if st.Name == "other" {
			t.Errorf("got other stage with elapsed < attributed: %v", over)
		}
	}
}

func TestServerTimingFormat(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "run", "req-2")
	Observe(ctx, "sim", 12*time.Millisecond)
	Observe(ctx, "encode", 500*time.Microsecond)
	got := tr.ServerTiming(13 * time.Millisecond)
	want := "sim;dur=12.000, encode;dur=0.500, other;dur=0.500"
	if got != want {
		t.Errorf("ServerTiming = %q, want %q", got, want)
	}
}

func TestParseServerTiming(t *testing.T) {
	got := ParseServerTiming("parse;dur=0.011, record;dur=1.879, record;dur=0.5, encode;dur=0.008, junk, alsojunk;desc=x")
	if len(got) != 3 {
		t.Fatalf("parsed %d stages, want 3: %v", len(got), got)
	}
	if got["record"] != 1.879+0.5 {
		t.Errorf("record = %v, want summed 2.379", got["record"])
	}
	if got["parse"] != 0.011 || got["encode"] != 0.008 {
		t.Errorf("stages = %v", got)
	}
}

// TestServerTimingRoundTrip: the header ServerTiming writes parses back
// to its stages, each to the header's microsecond precision.
func TestServerTimingRoundTrip(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "run", "req-rt")
	Observe(ctx, "queue", 250*time.Microsecond)
	Observe(ctx, "trace_load", 1234567*time.Nanosecond)
	Observe(ctx, "apply", 7*time.Millisecond)
	Observe(ctx, "queue", 50*time.Microsecond)
	elapsed := 10 * time.Millisecond
	stages := tr.Stages(elapsed)
	got := ParseServerTiming(tr.ServerTiming(elapsed))
	if len(got) != len(stages) {
		t.Fatalf("parsed %v, want the %d stages %v", got, len(stages), stages)
	}
	for _, st := range stages {
		want := float64(st.Dur) / float64(time.Millisecond)
		if ms, ok := got[st.Name]; !ok || math.Abs(ms-want) > 0.0005 {
			t.Errorf("stage %s = %v (present %v), want %.6f ms", st.Name, ms, ok, want)
		}
	}
}

func TestSpanEndAs(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "run", "req-3")
	sp := Start(ctx, "trace_load")
	sp.EndAs("record")
	stages := tr.Stages(0)
	if len(stages) != 1 || stages[0].Name != "record" {
		t.Fatalf("stages = %v, want a single record stage", stages)
	}
}

func TestOutcomeEscalation(t *testing.T) {
	_, tr := NewTrace(context.Background(), "run", "r")
	if tr.Outcome() != "" {
		t.Errorf("fresh trace outcome = %q, want empty", tr.Outcome())
	}
	tr.SetOutcome(OutcomeHit)
	tr.SetOutcome(OutcomeComputed)
	tr.SetOutcome(OutcomeHit) // must not downgrade
	if tr.Outcome() != OutcomeComputed {
		t.Errorf("outcome = %q, want computed (hit never downgrades)", tr.Outcome())
	}
	var nilTrace *Trace
	nilTrace.SetOutcome(OutcomeHit) // nil-safe
	if nilTrace.Outcome() != "" {
		t.Errorf("nil trace outcome = %q, want empty", nilTrace.Outcome())
	}
}

func TestSpanCapFoldsIntoAggregate(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "sweep", "r")
	for i := 0; i < maxSpans+10; i++ {
		Observe(ctx, "decode", time.Millisecond)
	}
	stages := tr.Stages(0)
	if len(stages) != 1 {
		t.Fatalf("stages = %d entries, want 1", len(stages))
	}
	want := time.Duration(maxSpans+10) * time.Millisecond
	if stages[0].Dur != want {
		t.Errorf("decode total = %v, want %v (overflow folds, never drops a known name)", stages[0].Dur, want)
	}
}

func TestRecorderRecentAndSlowest(t *testing.T) {
	r := NewRecorder(4, 2)
	mk := func(id string, d time.Duration) *Trace {
		_, tr := NewTrace(context.Background(), "run", id)
		tr.Finish(200, d)
		return tr
	}
	for i := 0; i < 6; i++ {
		r.Record(mk(fmt.Sprintf("t%d", i), time.Duration(i)*time.Millisecond))
	}
	snap := r.Snapshot()
	if len(snap.Recent) != 4 {
		t.Fatalf("recent has %d entries, want ring capacity 4", len(snap.Recent))
	}
	if snap.Recent[0].ID != "t5" || snap.Recent[3].ID != "t2" {
		t.Errorf("recent order = %s..%s, want newest-first t5..t2", snap.Recent[0].ID, snap.Recent[3].ID)
	}
	slow := snap.Slowest["run"]
	if len(slow) != 2 || slow[0].ID != "t5" || slow[1].ID != "t4" {
		t.Errorf("slowest = %+v, want [t5 t4] (two slowest, slowest first)", slow)
	}
}

func TestRecorderHandlerServesJSON(t *testing.T) {
	r := NewRecorder(8, 2)
	ctx, tr := NewTrace(context.Background(), "run", "abc")
	Observe(ctx, "sim", 3*time.Millisecond)
	tr.SetOutcome(OutcomeComputed)
	tr.Finish(200, 4*time.Millisecond)
	r.Record(tr)

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var doc DebugRequests
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, rec.Body.String())
	}
	if len(doc.Recent) != 1 || doc.Recent[0].ID != "abc" || doc.Recent[0].Outcome != "computed" {
		t.Fatalf("recent = %+v, want the one recorded trace", doc.Recent)
	}
	if len(doc.Recent[0].Stages) == 0 || doc.Recent[0].Stages[0].Name != "sim" {
		t.Errorf("stages = %+v, want sim first", doc.Recent[0].Stages)
	}
}

func TestRecorderConcurrentRecord(t *testing.T) {
	r := NewRecorder(16, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_, tr := NewTrace(context.Background(), "run", fmt.Sprintf("g%d-%d", g, i))
				tr.Finish(200, time.Duration(i)*time.Microsecond)
				r.Record(tr)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got := len(r.Snapshot().Recent); got != 16 {
		t.Errorf("recent = %d entries, want full ring 16", got)
	}
}

func TestRequestID(t *testing.T) {
	if id := RequestID("client-id-42"); id != "client-id-42" {
		t.Errorf("valid client ID replaced: %q", id)
	}
	for _, bad := range []string{"", "has space", "q\"uote", "semi;colon", "comma,", strings.Repeat("x", 65), "ctrl\x01"} {
		id := RequestID(bad)
		if id == bad {
			t.Errorf("invalid ID %q accepted", bad)
		}
		if len(id) != 16 {
			t.Errorf("generated ID %q, want 16 hex chars", id)
		}
	}
	a, b := newRequestID(), newRequestID()
	if a == b {
		t.Errorf("two generated IDs collide: %q", a)
	}
}
