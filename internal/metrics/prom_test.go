package metrics

import (
	"strings"
	"testing"
	"time"
)

// TestWritePrometheusGolden pins the exact exposition output for a
// registry exercising every metric kind: unlabeled and labeled
// counters, a gauge, a function counter, and a histogram with known
// observations — including the +Inf bucket and HELP/label escaping.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Total requests.")
	c.Add(41)
	c.Inc()
	vec := r.CounterVec("test_by_endpoint_total", `Help with back\slash and "quotes"`+"\nand a newline.", "endpoint")
	vec.With("run").Add(7)
	vec.With(`we"ird\val`).Inc()
	g := r.Gauge("test_inflight", "Current in-flight requests.")
	g.Set(3.5)
	r.CounterFunc("test_evictions_total", "Evictions.", func() uint64 { return 9 })
	h := r.Histogram("test_latency_seconds", "Request latency.")
	h.Observe(500 * time.Nanosecond)  // below the first rendered bound
	h.Observe(100 * time.Microsecond) // 1e5 ns: between 2^16 and 2^18
	h.Observe(50 * time.Millisecond)  // 5e7 ns: between 2^24 and 2^26
	h.Observe(2 * time.Minute)        // beyond the last rendered bound

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_by_endpoint_total Help with back\\slash and "quotes"\nand a newline.
# TYPE test_by_endpoint_total counter
test_by_endpoint_total{endpoint="run"} 7
test_by_endpoint_total{endpoint="we\"ird\\val"} 1
# HELP test_evictions_total Evictions.
# TYPE test_evictions_total counter
test_evictions_total 9
# HELP test_inflight Current in-flight requests.
# TYPE test_inflight gauge
test_inflight 3.5
# HELP test_latency_seconds Request latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="1.024e-06"} 1
test_latency_seconds_bucket{le="4.096e-06"} 1
test_latency_seconds_bucket{le="1.6384e-05"} 1
test_latency_seconds_bucket{le="6.5536e-05"} 1
test_latency_seconds_bucket{le="0.000262144"} 2
test_latency_seconds_bucket{le="0.001048576"} 2
test_latency_seconds_bucket{le="0.004194304"} 2
test_latency_seconds_bucket{le="0.016777216"} 2
test_latency_seconds_bucket{le="0.067108864"} 3
test_latency_seconds_bucket{le="0.268435456"} 3
test_latency_seconds_bucket{le="1.073741824"} 3
test_latency_seconds_bucket{le="4.294967296"} 3
test_latency_seconds_bucket{le="17.179869184"} 3
test_latency_seconds_bucket{le="68.719476736"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 120.0501005
test_latency_seconds_count 4
# HELP test_requests_total Total requests.
# TYPE test_requests_total counter
test_requests_total 42
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestRegistryPanicsOnConflicts(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("dup_total", "")
	mustPanic("duplicate name", func() { r.Counter("dup_total", "") })
	mustPanic("duplicate across kinds", func() { r.Gauge("dup_total", "") })
	mustPanic("bad metric name", func() { r.Counter("0bad", "") })
	mustPanic("bad metric name chars", func() { r.Counter("has space", "") })
	mustPanic("bad label name", func() { r.CounterVec("ok_total", "", "bad-label") })
}

func TestHistogramBucketExport(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Microsecond) // 3000ns -> bucket 11 (2048..4095)
	counts := h.BucketCounts()
	if counts[11] != 1 {
		t.Errorf("bucket 11 = %d, want 1 (3µs lands in [2^11, 2^12))", counts[11])
	}
	if got := BucketUpperNS(11); got != 4096 {
		t.Errorf("BucketUpperNS(11) = %d, want 4096", got)
	}
	if got := BucketUpperNS(NumBuckets - 1); got != 1<<63 {
		t.Errorf("top bucket bound = %d, want 2^63 sentinel", got)
	}
	if h.Sum() != 3000 {
		t.Errorf("Sum = %d, want 3000", h.Sum())
	}
}

// TestRuntimeMetricsRender checks the runtime sampler registers and
// renders parseable series.
func TestRuntimeMetricsRender(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{"go_goroutines", "go_gomaxprocs", "go_heap_alloc_bytes", "go_gc_pause_ns_total"} {
		if !strings.Contains(out, "\n"+name+" ") && !strings.HasPrefix(out, name+" ") {
			t.Errorf("runtime metric %s missing from exposition:\n%s", name, out)
		}
	}
}

func TestParseExposition(t *testing.T) {
	const text = `# HELP vmserved_requests_total HTTP requests received, by endpoint.
# TYPE vmserved_requests_total counter
vmserved_requests_total{endpoint="run"} 12
vmserved_requests_total{endpoint="sweep"} 3
# HELP vmserved_in_flight Admitted requests currently executing.
# TYPE vmserved_in_flight gauge
vmserved_in_flight 0
go_heap_alloc_bytes 1.048576e+06
`
	series, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := series[`vmserved_requests_total{endpoint="run"}`]; got != 12 {
		t.Errorf("run series = %v, want 12", got)
	}
	if got := series[`go_heap_alloc_bytes`]; got != 1048576 {
		t.Errorf("heap series = %v, want 1048576 (scientific notation)", got)
	}
	if len(series) != 4 {
		t.Errorf("parsed %d series, want 4", len(series))
	}
}

// TestParseExpositionRejects is what gives `vmload checkmetrics` its
// teeth: output that a real Prometheus scraper would choke on must be
// an error, not a silently skipped line.
func TestParseExpositionRejects(t *testing.T) {
	for name, text := range map[string]string{
		"bare comment":          "# just a note\n",
		"missing value":         "vmserved_rejected_total\n",
		"non-numeric value":     "vmserved_rejected_total zero\n",
		"unterminated labels":   `vmserved_requests_total{endpoint="run" 12` + "\n",
		"duplicate series":      "a_total 1\na_total 2\n",
		"value-less label line": `vmserved_requests_total{endpoint="run"}` + "\n",
		"bad metric name":       "2fast 1\n",
	} {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parsed without error: %q", name, text)
		}
	}
}

// TestExpositionRoundTrip: what WritePrometheus renders, ParseExposition
// reads back — every kind of series with its value, and a histogram's
// +Inf bucket equal to its _count.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_plain_total", "A counter.").Add(5)
	vec := r.CounterVec("rt_by_kind_total", "A labelled vec.", "kind")
	vec.With("a").Add(2)
	vec.With(`b "quoted"`).Add(3)
	vec.Func("c/read", func() uint64 { return 11 })
	r.GaugeFunc("rt_level", "A func gauge.", func() float64 { return 0.25 })
	h := r.Histogram("rt_latency_seconds", "A histogram.")
	h.Observe(time.Millisecond)
	h.Observe(time.Second)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	series, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("rendered exposition does not parse: %v\n%s", err, sb.String())
	}
	for key, want := range map[string]float64{
		`rt_plain_total`:                              5,
		`rt_by_kind_total{kind="a"}`:                  2,
		`rt_by_kind_total{kind="b \"quoted\""}`:       3,
		`rt_by_kind_total{kind="c/read"}`:             11,
		`rt_level`:                                    0.25,
		`rt_latency_seconds_count`:                    2,
		`rt_latency_seconds_bucket{le="+Inf"}`:        2,
		`rt_latency_seconds_bucket{le="0.004194304"}`: 1,
	} {
		if got, ok := series[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	if sum := series[`rt_latency_seconds_sum`]; sum < 1.001 || sum > 1.0011 {
		t.Errorf("rt_latency_seconds_sum = %v, want 1.001", sum)
	}
}
