// Package icache implements a set-associative instruction cache
// simulator with LRU replacement.
//
// The paper's code-growth analysis (Section 7.4) hinges on I-cache
// behaviour: replication-based techniques generate up to megabytes of
// code, which thrashes the 16KB I-cache of the Celeron but mostly fits
// the Pentium 4 trace cache. The simulator models a conventional
// cache; the Pentium 4 trace cache is approximated as a cache with a
// 27-cycle miss penalty (the estimate of Zhou and Ross the paper
// adopts).
package icache

import "fmt"

// Cache is a set-associative instruction cache with LRU replacement.
type Cache struct {
	lineSize  int
	lineShift uint
	ways      int
	mask      uint64 // sets-1
	// keys holds set i in [i*ways, (i+1)*ways), most recently used
	// first. A key is the cached line's number plus one, so 0 marks an
	// empty way and a probe compares one word; lines are at least two
	// bytes, so the key never wraps.
	keys []uint64

	// Accesses counts line fetches; Misses counts those that missed.
	Accesses uint64
	Misses   uint64
}

// New returns a cache of totalBytes capacity with the given line size
// and associativity. The line size must be a power of two of at least
// two bytes, and totalBytes/lineSize/ways a power-of-two set count.
func New(totalBytes, lineSize, ways int) *Cache {
	if totalBytes <= 0 || lineSize <= 1 || ways <= 0 {
		panic(fmt.Sprintf("icache: bad geometry %d/%d/%d", totalBytes, lineSize, ways))
	}
	if lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("icache: line size %d not a power of two", lineSize))
	}
	lines := totalBytes / lineSize
	if lines == 0 || lines%ways != 0 {
		panic(fmt.Sprintf("icache: %d lines not divisible by %d ways", lines, ways))
	}
	sets := lines / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("icache: set count %d not a power of two", sets))
	}
	shift := uint(0)
	for 1<<shift < lineSize {
		shift++
	}
	return &Cache{
		lineSize:  lineSize,
		lineShift: shift,
		ways:      ways,
		mask:      uint64(sets - 1),
		keys:      make([]uint64, lines),
	}
}

// LineSize returns the cache line size in bytes.
func (c *Cache) LineSize() int { return c.lineSize }

// SizeBytes returns the total capacity in bytes.
func (c *Cache) SizeBytes() int { return len(c.keys) * c.lineSize }

// Lines returns the line numbers first..last that Touch(addr, size)
// fetches. ok is false when Touch is a no-op: size <= 0, or a range
// that wraps past the top of the address space.
func (c *Cache) Lines(addr uint64, size int) (first, last uint64, ok bool) {
	if size <= 0 {
		return 0, 0, false
	}
	first = addr >> c.lineShift
	last = (addr + uint64(size) - 1) >> c.lineShift
	return first, last, first <= last
}

// Touch fetches the byte range [addr, addr+size) through the cache and
// returns the number of line misses it caused.
func (c *Cache) Touch(addr uint64, size int) int {
	if size <= 0 {
		return 0
	}
	// Lines' arithmetic, spelled out so Touch stays inlinable.
	return c.TouchLines(addr>>c.lineShift, (addr+uint64(size)-1)>>c.lineShift)
}

// TouchLines fetches the lines first..last in order, exactly as Touch
// does for the byte range Lines mapped to them, and returns the number
// that missed. An empty range (first > last) fetches nothing.
func (c *Cache) TouchLines(first, last uint64) int {
	if first == last && c.HitMRU(first) {
		return 0
	}
	return c.touchRange(first, last)
}

// HitMRU fetches line if it is its set's most recently used, and
// reports whether it was: such a fetch hits and changes nothing but the
// access count. It is TouchLines' fast path, small enough to inline
// into a caller's loop.
func (c *Cache) HitMRU(line uint64) bool {
	if c.keys[int(line&c.mask)*c.ways] == line+1 {
		c.Accesses++
		return true
	}
	return false
}

// touchRange fetches the lines first..last in order, with the full
// LRU update, and returns the number that missed.
func (c *Cache) touchRange(first, last uint64) int {
	misses := 0
	for l := first; l <= last; l++ {
		if !c.touchLine(l) {
			misses++
		}
	}
	return misses
}

// touchLine fetches one line (by line number) and reports a hit. A
// hit moves the line to the front of its set; a miss installs it there
// and evicts the set's LRU way.
func (c *Cache) touchLine(lineNum uint64) bool {
	c.Accesses++
	base := int(lineNum&c.mask) * c.ways
	set := c.keys[base : base+c.ways]
	key := lineNum + 1
	for i := range set {
		if set[i] == key {
			copy(set[1:i+1], set[:i])
			set[0] = key
			return true
		}
	}
	c.Misses++
	copy(set[1:], set[:len(set)-1])
	set[0] = key
	return false
}

// Promote moves the lines first..last the cache holds, in order, to
// the front of their sets, as fetching them would, but counts no
// access; a line the cache does not hold is left out.
func (c *Cache) Promote(first, last uint64) {
	for l := first; l <= last; l++ {
		base := int(l&c.mask) * c.ways
		set := c.keys[base : base+c.ways]
		key := l + 1
		for i := range set {
			if set[i] == key {
				copy(set[1:i+1], set[:i])
				set[0] = key
				break
			}
		}
	}
}

// TouchNoEvict fetches the lines first..last in order, as TouchLines
// does, until one would evict another: a line its set does not hold
// while every way is full. It returns the misses and the line it
// stopped before, last+1 when it fetched them all. Ways fill from the
// front of a set, so a set has a free way while its last one is empty.
func (c *Cache) TouchNoEvict(first, last uint64) (misses int, next uint64) {
	for l := first; l <= last; l++ {
		base := int(l&c.mask) * c.ways
		if c.keys[base+c.ways-1] != 0 && !c.holds(base, l) {
			return misses, l
		}
		if !c.touchLine(l) {
			misses++
		}
	}
	return misses, last + 1
}

// holds reports whether the set starting at keys[base] holds line.
func (c *Cache) holds(base int, line uint64) bool {
	for _, k := range c.keys[base : base+c.ways] {
		if k == line+1 {
			return true
		}
	}
	return false
}

// Contains reports whether the line holding addr is currently cached,
// without updating LRU state.
func (c *Cache) Contains(addr uint64) bool {
	lineNum := addr >> c.lineShift
	return c.holds(int(lineNum&c.mask)*c.ways, lineNum)
}

// MissRate returns Misses/Accesses in [0,1].
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Reset clears cache contents and counters. It reuses the line storage
// so a pooled or arena-replayed simulator resets without allocating.
func (c *Cache) Reset() {
	clear(c.keys)
	c.Accesses = 0
	c.Misses = 0
}
