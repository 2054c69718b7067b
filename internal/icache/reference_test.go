package icache_test

import (
	"math/rand"
	"testing"

	"vmopt/internal/cpu"
)

// refCache is the straightforward table layout the flat cache
// replaced: one slice per set, ordered most recently used first, with
// every hit moved to the front. The flat cache must make exactly the
// same decisions.
type refCache struct {
	lineShift uint
	sets      int
	data      [][]refLine

	accesses, misses uint64
}

type refLine struct {
	tag   uint64
	valid bool
}

func newRefCache(totalBytes, lineSize, ways int) *refCache {
	c := &refCache{sets: totalBytes / lineSize / ways}
	for 1<<c.lineShift < lineSize {
		c.lineShift++
	}
	c.data = make([][]refLine, c.sets)
	for i := range c.data {
		c.data[i] = make([]refLine, ways)
	}
	return c
}

func (c *refCache) Touch(addr uint64, size int) int {
	if size <= 0 {
		return 0
	}
	misses := 0
	for l := addr >> c.lineShift; l <= (addr+uint64(size)-1)>>c.lineShift; l++ {
		if !c.touchLine(l) {
			misses++
		}
	}
	return misses
}

func (c *refCache) touchLine(lineNum uint64) bool {
	c.accesses++
	set := c.data[lineNum&uint64(c.sets-1)]
	for i := range set {
		if set[i].valid && set[i].tag == lineNum {
			e := set[i]
			copy(set[1:i+1], set[:i])
			set[0] = e
			return true
		}
	}
	c.misses++
	copy(set[1:], set[:len(set)-1])
	set[0] = refLine{tag: lineNum, valid: true}
	return false
}

func (c *refCache) Contains(addr uint64) bool {
	lineNum := addr >> c.lineShift
	for _, e := range c.data[lineNum&uint64(c.sets-1)] {
		if e.valid && e.tag == lineNum {
			return true
		}
	}
	return false
}

func (c *refCache) Reset() {
	for i := range c.data {
		clear(c.data[i])
	}
	c.accesses, c.misses = 0, 0
}

type fetch struct {
	addr uint64
	size int
}

// fetchStream returns a seeded stream that exercises every path of a
// cache with the given geometry: a hot loop whose fetches keep hitting
// their set's MRU line, lines that conflict in one set, a capacity
// thrash over twice the cache, and random fetches of up to three lines
// at any byte alignment.
func fetchStream(seed int64, lineSize, sets, ways int) []fetch {
	rng := rand.New(rand.NewSource(seed))
	line, span := uint64(lineSize), uint64(sets*lineSize)
	var s []fetch
	for round := 0; round < 3; round++ {
		base := uint64(rng.Intn(1 << 20))
		for i := 0; i < 400; i++ {
			s = append(s, fetch{base + uint64(rng.Intn(3*lineSize)), 1 + rng.Intn(lineSize/2)})
		}
		set := uint64(rng.Intn(sets)) * line
		for i := 0; i < 400; i++ {
			s = append(s, fetch{set + uint64(rng.Intn(ways+2))*span, 1 + rng.Intn(lineSize)})
		}
		for i := 0; i < 4*sets*ways; i++ {
			s = append(s, fetch{uint64(i%(2*sets*ways)) * line, lineSize})
		}
		for i := 0; i < 400; i++ {
			s = append(s, fetch{uint64(rng.Intn(4 * sets * ways * lineSize)), 1 + rng.Intn(3*lineSize)})
		}
	}
	return s
}

// TestFlatMatchesReference drives each machine's cache and the
// reference model with the same streams, with a Reset halfway, and
// requires the same misses on every fetch, the same contents and the
// same counters.
func TestFlatMatchesReference(t *testing.T) {
	machines := append(cpu.Machines(),
		cpu.Celeron800.WithPredictor(cpu.PredictBTB2bc),
		cpu.Celeron800.WithBTBEntries(16))
	for _, m := range machines {
		sets := m.ICacheBytes / m.ICacheLine / m.ICacheWays
		for seed := int64(1); seed <= 3; seed++ {
			flat := m.NewICache()
			ref := newRefCache(m.ICacheBytes, m.ICacheLine, m.ICacheWays)
			stream := fetchStream(seed, m.ICacheLine, sets, m.ICacheWays)
			for i, f := range stream {
				if i == len(stream)/2 {
					flat.Reset()
					ref.Reset()
				}
				got, want := flat.Touch(f.addr, f.size), ref.Touch(f.addr, f.size)
				if got != want {
					t.Fatalf("%s seed %d: fetch %d (%#x+%d) missed %d lines, reference %d",
						m.Name, seed, i, f.addr, f.size, got, want)
				}
				if probe := f.addr ^ uint64(m.ICacheLine); flat.Contains(probe) != ref.Contains(probe) {
					t.Fatalf("%s seed %d: after fetch %d, Contains(%#x) = %v, reference %v",
						m.Name, seed, i, probe, flat.Contains(probe), ref.Contains(probe))
				}
			}
			if flat.Accesses != ref.accesses || flat.Misses != ref.misses {
				t.Errorf("%s seed %d: Accesses/Misses = %d/%d, reference %d/%d",
					m.Name, seed, flat.Accesses, flat.Misses, ref.accesses, ref.misses)
			}
		}
	}
}
