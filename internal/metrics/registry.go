package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use; all methods are lock-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value. The zero value reads 0.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// metric kinds, in Prometheus TYPE vocabulary.
const (
	kindCounter = "counter"
	kindGauge   = "gauge"
	kindHist    = "histogram"
)

// series is one exposed time series of a family: either a live
// value (counter, gauge, histogram) or a read-on-collect function.
type series struct {
	labelVal string

	counter   *Counter
	counterFn func() uint64
	gauge     *Gauge
	gaugeFn   func() float64
	hist      *Histogram
}

// family is one named metric with its help string and — when the
// family is a vec — its labeled children.
type family struct {
	name, help, kind string
	// label is the vec label key; empty means one unlabeled series.
	label string

	mu     sync.Mutex
	series map[string]*series
}

// child returns the series for a label value, creating it with mk on
// first use.
func (f *family) child(labelVal string, mk func() *series) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[labelVal]; ok {
		return s
	}
	s := mk()
	s.labelVal = labelVal
	f.series[labelVal] = s
	return s
}

// sorted returns the family's series ordered by label value, so
// exposition output is deterministic.
func (f *family) sorted() []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].labelVal < out[j].labelVal })
	return out
}

// Registry is a named collection of counters, gauges and histograms
// with help strings, which GET /metrics serializes as Prometheus text
// format (WritePrometheus) and ParseExposition reads back.
//
// Registration is meant for startup (it panics on conflicts, like
// expvar); observation methods on the returned metrics are what run
// on request paths.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register creates a family, enforcing unique, well-formed names.
func (r *Registry) register(name, help, kind, label string) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	if label != "" && !validLabelName(label) {
		panic(fmt.Sprintf("metrics: invalid label name %q", label))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[name]; ok {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	f := &family{name: name, help: help, kind: kind, label: label, series: make(map[string]*series)}
	r.families[name] = f
	return f
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, "")
	c := &Counter{}
	f.child("", func() *series { return &series{counter: c} })
	return c
}

// CounterFunc registers a counter whose value is read by fn at
// collection time — the bridge for subsystems that already keep their
// own counters (the trace cache, the LRU).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	f := r.register(name, help, kindCounter, "")
	f.child("", func() *series { return &series{counterFn: fn} })
}

// Gauge registers and returns an unlabeled settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, "")
	g := &Gauge{}
	f.child("", func() *series { return &series{gauge: g} })
	return g
}

// GaugeFunc registers a gauge read by fn at collection time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, "")
	f.child("", func() *series { return &series{gaugeFn: fn} })
}

// Histogram registers and returns an unlabeled histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	f := r.register(name, help, kindHist, "")
	h := &Histogram{}
	f.child("", func() *series { return &series{hist: h} })
	return h
}

// CounterVec is a counter family partitioned by one label.
type CounterVec struct{ fam *family }

// CounterVec registers a labeled counter family; With materializes
// children on first use.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, kindCounter, label)}
}

// With returns the child counter for a label value, creating it on
// first use. Children persist; a label value observed once is
// exported forever (Prometheus counters must not disappear between
// scrapes).
func (v *CounterVec) With(labelVal string) *Counter {
	s := v.fam.child(labelVal, func() *series { return &series{counter: &Counter{}} })
	return s.counter
}

// Func adds a child whose value fn reads at collection time — the
// labelled form of CounterFunc.
func (v *CounterVec) Func(labelVal string, fn func() uint64) {
	v.fam.child(labelVal, func() *series { return &series{counterFn: fn} })
}

// GaugeVec is a gauge family partitioned by one label — what info
// metrics (vmserved_instance_info{instance="..."} 1) are built from.
type GaugeVec struct{ fam *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, kindGauge, label)}
}

// With returns the child gauge for a label value, creating it on
// first use.
func (v *GaugeVec) With(labelVal string) *Gauge {
	s := v.fam.child(labelVal, func() *series { return &series{gauge: &Gauge{}} })
	return s.gauge
}

// HistogramVec is a histogram family partitioned by one label.
type HistogramVec struct{ fam *family }

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help, label string) *HistogramVec {
	return &HistogramVec{fam: r.register(name, help, kindHist, label)}
}

// With returns the child histogram for a label value, creating it on
// first use.
func (v *HistogramVec) With(labelVal string) *Histogram {
	s := v.fam.child(labelVal, func() *series { return &series{hist: &Histogram{}} })
	return s.hist
}

// sortedFamilies returns the registry's families in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alpha := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alpha := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}
