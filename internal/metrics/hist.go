package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two latency buckets a
// Histogram tracks. Bucket i counts observations with
// 2^i <= nanoseconds < 2^(i+1); 63 buckets cover every positive
// time.Duration.
const histBuckets = 63

// Histogram is a concurrency-safe latency histogram with fixed
// power-of-two buckets. Observe is lock-free (one atomic add per
// bucket plus the sum/count/max updates), so request paths can record
// into a shared histogram without contention; quantiles are derived
// from the bucket counts on demand. Resolution is a factor of two,
// which is plenty for serving dashboards ("p99 is about 4ms") while
// keeping the whole structure a few hundred bytes with no allocation
// after creation.
//
// The zero value is ready to use.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // total nanoseconds
	max    atomic.Uint64 // largest single observation, nanoseconds
}

// Observe records one duration. Non-positive durations count into the
// lowest bucket (a sub-nanosecond measurement is still a completed
// operation).
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	b := 0
	if ns > 0 {
		b = bits.Len64(ns) - 1
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.counts[b].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observations in nanoseconds.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// NumBuckets is the number of fixed power-of-two buckets a Histogram
// exposes; see BucketUpperNS for the boundary of each.
const NumBuckets = histBuckets

// BucketUpperNS returns the exclusive upper bound of bucket i in
// nanoseconds: bucket i counts observations with
// BucketUpperNS(i-1) <= ns < BucketUpperNS(i). The last bucket is
// effectively unbounded (its nominal bound exceeds any observable
// duration). Exposition formats (the Prometheus renderer) use these
// as their le boundaries.
func BucketUpperNS(i int) uint64 {
	if i >= histBuckets-1 {
		// 2^64 doesn't fit; the last bucket's nominal bound. Callers
		// render this bucket as +Inf.
		return 1 << 63
	}
	return 1 << (i + 1)
}

// BucketCounts returns a point-in-time copy of the per-bucket
// observation counts (not cumulative). Concurrent observes can skew
// individual buckets by the in-flight observations, same as Snapshot.
func (h *Histogram) BucketCounts() [NumBuckets]uint64 {
	var out [NumBuckets]uint64
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Merge folds o's observations into h bucket by bucket, so per-shard
// histograms (one per operation, one per worker) aggregate into a
// total without losing quantile fidelity: bucket boundaries are fixed,
// so merged quantiles are exactly what one shared histogram would have
// reported. o is read with the same atomic loads Snapshot uses;
// concurrent Observe calls on either side can skew the merge by at
// most the in-flight observations.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.counts {
		if n := o.counts[i].Load(); n > 0 {
			h.counts[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	om := o.max.Load()
	for {
		cur := h.max.Load()
		if om <= cur || h.max.CompareAndSwap(cur, om) {
			return
		}
	}
}

// Quantile returns an upper bound for the q-quantile (q in [0, 1]):
// the top of the bucket holding the q-th observation. It returns 0
// when nothing was observed.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based.
	rank := uint64(q*float64(total-1)) + 1
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		seen += h.counts[i].Load()
		if seen >= rank {
			if i == histBuckets-1 {
				// The open-ended top bucket has no meaningful upper
				// bound; report the observed maximum instead.
				return time.Duration(h.max.Load())
			}
			// The bucket's upper bound, clamped to the observed
			// maximum so a quantile never exceeds max.
			bound := uint64(1) << (i + 1)
			if m := h.max.Load(); m < bound {
				bound = m
			}
			return time.Duration(bound)
		}
	}
	return time.Duration(h.max.Load())
}

// HistogramSnapshot is a point-in-time JSON-friendly summary of a
// Histogram: the per-operation latency of the load generator's report.
type HistogramSnapshot struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// Snapshot summarizes the histogram. Concurrent Observe calls during
// the snapshot can skew individual fields by at most the in-flight
// observations; fields stay internally plausible (no locking).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load()}
	if s.Count == 0 {
		return s
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	s.MeanMS = float64(h.sum.Load()) / float64(s.Count) / float64(time.Millisecond)
	s.P50MS = ms(h.Quantile(0.50))
	s.P90MS = ms(h.Quantile(0.90))
	s.P99MS = ms(h.Quantile(0.99))
	s.MaxMS = ms(time.Duration(h.max.Load()))
	return s
}
