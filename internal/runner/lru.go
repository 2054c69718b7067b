package runner

import (
	"sync"
	"sync/atomic"
)

// lruEntry is one resident key/value pair on the recency list.
type lruEntry[K comparable, V any] struct {
	key        K
	value      V
	weight     int64
	prev, next *lruEntry[K, V]
}

// LRU is a bounded concurrency-safe least-recently-used cache. It is
// the serving subsystem's memo of finished results, and (weighted by
// bytes, see NewWeightedLRU) the trace cache's memory of decoded
// traces: strictly bounded and recency-evicting, where Group — the
// other in-memory cache in this package — deliberately never evicts.
//
// A capacity <= 0 disables caching: Get always misses and Add is a
// no-op, so callers can wire an LRU unconditionally and size it at
// configuration time.
type LRU[K comparable, V any] struct {
	mu         sync.Mutex
	cap        int
	m          map[K]*lruEntry[K, V]
	head, tail *lruEntry[K, V] // head is most recent

	// budget bounds total, the summed weight of the resident entries
	// (all 0 when weigh is nil).
	budget int64
	total  int64
	weigh  func(V) int64

	// evictions counts entries displaced by the bounds — hit-rate
	// alone cannot distinguish a cold cache (misses, no evictions)
	// from a thrashing one (misses with evictions).
	evictions atomic.Uint64
}

// NewLRU returns an LRU bounded to capacity entries.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	return &LRU[K, V]{cap: capacity, m: make(map[K]*lruEntry[K, V])}
}

// NewWeightedLRU returns an LRU bounded to capacity entries and to a
// total weight of budget, where weigh(v) is v's weight at the time it
// is added.
func NewWeightedLRU[K comparable, V any](capacity int, budget int64, weigh func(V) int64) *LRU[K, V] {
	c := NewLRU[K, V](capacity)
	c.budget, c.weigh = budget, weigh
	return c
}

// unlink removes e from the recency list.
func (c *LRU[K, V]) unlink(e *lruEntry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry.
func (c *LRU[K, V]) pushFront(e *lruEntry[K, V]) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// Get returns the cached value for key and marks it most recently
// used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
	return e.value, true
}

// Peek returns the cached value for key without changing its recency.
func (c *LRU[K, V]) Peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		return e.value, true
	}
	var zero V
	return zero, false
}

// Add inserts or refreshes key as the most recently used entry,
// (re)weighing its value, then evicts least recently used entries
// until the cache is back within its bounds and returns their values.
// The entry just added is never evicted, even when it alone exceeds
// the budget.
func (c *LRU[K, V]) Add(key K, value V) (evicted []V) {
	if c.cap <= 0 {
		return nil
	}
	var w int64
	if c.weigh != nil {
		w = c.weigh(value)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		e = &lruEntry[K, V]{key: key}
		c.m[key] = e
		c.pushFront(e)
	} else if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
	c.total += w - e.weight
	e.value, e.weight = value, w
	for c.tail != e && (len(c.m) > c.cap || c.total > c.budget) {
		victim := c.tail
		c.unlink(victim)
		delete(c.m, victim.key)
		c.total -= victim.weight
		c.evictions.Add(1)
		evicted = append(evicted, victim.value)
	}
	return evicted
}

// Remove deletes key, returning its value and whether it was
// resident. A removal is not an eviction.
func (c *LRU[K, V]) Remove(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(e)
	delete(c.m, key)
	c.total -= e.weight
	return e.value, true
}

// Len returns the number of resident entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Weight returns the summed weight of the resident entries (always 0
// for an unweighted LRU).
func (c *LRU[K, V]) Weight() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Budget returns the configured weight budget (0 for an unweighted
// LRU).
func (c *LRU[K, V]) Budget() int64 { return c.budget }

// Evictions returns how many entries the capacity or budget has
// displaced since creation.
func (c *LRU[K, V]) Evictions() uint64 { return c.evictions.Load() }
