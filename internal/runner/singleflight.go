package runner

import (
	"context"
	"sync"
)

// call is one in-progress single-flight computation.
type call[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Flight deduplicates concurrent computations by key without
// memoizing results: while a computation for a key is in progress,
// callers for the same key wait and share its outcome; once it
// finishes, the next caller computes afresh. This is the dedup layer
// for caches whose authoritative store lives elsewhere (on disk, in a
// separate map), where keeping a second in-memory copy of every value
// would be wasteful.
//
// The zero value is ready to use.
type Flight[K comparable, V any] struct {
	mu       sync.Mutex
	inflight map[K]*call[V]
}

// Do returns the result of compute for key, running it at most once
// concurrently per key. The leader return value reports whether this
// call executed compute itself (true) or joined an in-progress
// computation and shared its outcome (false).
func (f *Flight[K, V]) Do(key K, compute func() (V, error)) (v V, leader bool, err error) {
	return f.DoCtx(context.Background(), key, compute)
}

// DoCtx is Do with a cancellable join: a caller that coalesces onto
// an in-progress computation stops waiting when ctx is done and
// returns ctx's cause, while the leader — whose computation other
// callers may still be waiting on — always runs compute to
// completion (cancel the leader through whatever context compute
// itself observes). Servers need this so a dropped duplicate client
// releases its resources immediately instead of staying parked for
// the leader's whole computation.
func (f *Flight[K, V]) DoCtx(ctx context.Context, key K, compute func() (V, error)) (v V, leader bool, err error) {
	f.mu.Lock()
	if f.inflight == nil {
		f.inflight = make(map[K]*call[V])
	}
	if c, ok := f.inflight[key]; ok {
		f.mu.Unlock()
		select {
		case <-c.done:
			return c.v, false, c.err
		case <-ctx.Done():
			var zero V
			return zero, false, context.Cause(ctx)
		}
	}
	c := &call[V]{done: make(chan struct{})}
	f.inflight[key] = c
	f.mu.Unlock()

	c.v, c.err = compute()
	f.mu.Lock()
	delete(f.inflight, key)
	f.mu.Unlock()
	close(c.done)
	return c.v, true, c.err
}

// Group is Flight plus a success cache: each key is computed exactly
// once overall; with a parallel grid many jobs need the same training
// profile or the same cached run at once, so the first caller
// computes, concurrent callers wait and share the outcome, and
// successful results are memoized for every later caller. Failed
// computations are not cached and will be retried by the next caller.
//
// The zero value is ready to use.
type Group[K comparable, V any] struct {
	flight Flight[K, V]
	mu     sync.Mutex
	cache  map[K]V
}

// Do returns the cached value for key, computing and caching it on
// first use. Concurrent callers for an uncached key share one
// computation.
func (g *Group[K, V]) Do(key K, compute func() (V, error)) (V, error) {
	if v, ok := g.get(key); ok {
		return v, nil
	}
	// The flight closes the race between the cache check above and
	// two callers computing: both land on one in-progress call. The
	// re-check inside covers a caller that missed the cache while a
	// previous flight was publishing its result.
	v, _, err := g.flight.Do(key, func() (V, error) {
		if v, ok := g.get(key); ok {
			return v, nil
		}
		v, err := compute()
		if err == nil {
			g.set(key, v)
		}
		return v, err
	})
	return v, err
}

func (g *Group[K, V]) get(key K) (V, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	v, ok := g.cache[key]
	return v, ok
}

func (g *Group[K, V]) set(key K, v V) {
	g.mu.Lock()
	if g.cache == nil {
		g.cache = make(map[K]V)
	}
	g.cache[key] = v
	g.mu.Unlock()
}

// Get returns the memoized value for key, if any, without computing.
func (g *Group[K, V]) Get(key K) (V, bool) {
	return g.get(key)
}

// Cached returns a snapshot copy of every memoized result.
func (g *Group[K, V]) Cached() map[K]V {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[K]V, len(g.cache))
	for k, v := range g.cache {
		out[k] = v
	}
	return out
}

// Len reports how many results are memoized.
func (g *Group[K, V]) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.cache)
}
