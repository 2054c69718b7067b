package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// tailLadder is the set of percentiles a tail metric may report. The
// tail of a sample set is the highest of these that still leaves at
// least minBeyond samples above it, so a tail figure always rests on
// enough observations to mean something.
var tailLadder = []float64{50, 75, 90, 95, 97.5, 99, 99.5, 99.9, 99.95, 99.99}

// minBeyond is how many samples must lie above a reported tail
// percentile.
const minBeyond = 10

// rank is the nearest-rank index of percentile p in n sorted samples:
// the smallest index whose cumulative share reaches p. The tolerance
// keeps decimal percentiles such as 99.9 from rounding up a rank.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples above it, or 0 when n is too small for any.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-1-rank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// quantile returns the nearest-rank percentile p of the samples. It
// sorts a copy, so callers may keep appending to theirs.
func quantile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

// median is the nearest-rank 50th percentile.
func median(samples []float64) float64 { return quantile(samples, 50) }

// latencies collects raw per-operation samples (milliseconds) by
// operation kind and measurement window (a pass). Quantiles are
// computed exactly from the raw samples; nothing is bucketed.
type latencies struct {
	mu sync.Mutex
	ms map[string]map[int][]float64
}

func newLatencies() *latencies { return &latencies{ms: map[string]map[int][]float64{}} }

func (l *latencies) add(kind string, window int, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	w := l.ms[kind]
	if w == nil {
		w = map[int][]float64{}
		l.ms[kind] = w
	}
	w[window] = append(w[window], float64(d)/float64(time.Millisecond))
}

// windows returns one kind's samples per window, in window order.
func (l *latencies) windows(kind string) [][]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var idx []int
	for i := range l.ms[kind] {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var out [][]float64
	for _, i := range idx {
		out = append(out, append([]float64(nil), l.ms[kind][i]...))
	}
	return out
}

// summary is a sample set's median and tail, with the tail's
// percentile and the count it rests on.
type summary struct {
	P50, Tail, TailPct float64
	N                  int
}

// summarize reports the median over windows of each window's median
// and of each window's tail at percentile pct. pct is chosen once per
// workload from its fixed per-window count, so every run of the
// workload reports the same percentile; taking the median across
// windows keeps one disturbed window from setting the figure.
func summarize(windows [][]float64, pct float64) summary {
	var p50s, tails []float64
	n := 0
	for _, w := range windows {
		p50s = append(p50s, median(w))
		tails = append(tails, quantile(w, pct))
		n += len(w)
	}
	return summary{P50: median(p50s), Tail: median(tails), TailPct: pct, N: n}
}
