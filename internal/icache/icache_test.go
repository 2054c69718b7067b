package icache

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestColdMissThenHit(t *testing.T) {
	c := New(1024, 32, 2)
	if m := c.Touch(0x100, 4); m != 1 {
		t.Errorf("cold touch misses = %d, want 1", m)
	}
	if m := c.Touch(0x100, 4); m != 0 {
		t.Errorf("warm touch misses = %d, want 0", m)
	}
	if m := c.Touch(0x104, 4); m != 0 {
		t.Errorf("same-line touch misses = %d, want 0", m)
	}
}

func TestTouchSpanningLines(t *testing.T) {
	c := New(1024, 32, 2)
	// 100 bytes starting at 0x10 covers lines 0..3 (0x10..0x74).
	if m := c.Touch(0x10, 100); m != 4 {
		t.Errorf("spanning touch misses = %d, want 4", m)
	}
	if m := c.Touch(0x10, 100); m != 0 {
		t.Errorf("warm spanning touch misses = %d, want 0", m)
	}
}

func TestCapacityEviction(t *testing.T) {
	c := New(256, 32, 1) // 8 lines, direct mapped
	// Touch 16 distinct lines: second half evicts first half.
	for i := 0; i < 16; i++ {
		c.Touch(uint64(i)*32, 1)
	}
	if m := c.Touch(0, 1); m != 1 {
		t.Errorf("evicted line should miss, got %d misses", m)
	}
}

func TestLRUWithinSet(t *testing.T) {
	c := New(64, 32, 2) // 1 set, 2 ways
	c.Touch(0, 1)       // line 0
	c.Touch(32, 1)      // line 1
	c.Touch(0, 1)       // line 0 -> MRU
	c.Touch(64, 1)      // line 2 evicts line 1 (LRU)
	if !c.Contains(0) {
		t.Error("line 0 should still be cached")
	}
	if c.Contains(32) {
		t.Error("line 1 should have been evicted")
	}
}

func TestWorkingSetFits(t *testing.T) {
	c := New(16*1024, 32, 4)
	// A 8KB working set fits a 16KB cache: after one pass, no misses.
	for addr := uint64(0); addr < 8*1024; addr += 32 {
		c.Touch(addr, 32)
	}
	before := c.Misses
	for pass := 0; pass < 3; pass++ {
		for addr := uint64(0); addr < 8*1024; addr += 32 {
			c.Touch(addr, 32)
		}
	}
	if c.Misses != before {
		t.Errorf("fitting working set caused %d extra misses", c.Misses-before)
	}
}

func TestThrashingWorkingSet(t *testing.T) {
	c := New(16*1024, 32, 4)
	// A 1MB working set streamed repeatedly misses on every line
	// (models replication code growth on the Celeron, paper §7.4).
	var missesLastPass uint64
	for pass := 0; pass < 2; pass++ {
		start := c.Misses
		for addr := uint64(0); addr < 1<<20; addr += 32 {
			c.Touch(addr, 32)
		}
		missesLastPass = c.Misses - start
	}
	if want := uint64((1 << 20) / 32); missesLastPass != want {
		t.Errorf("thrashing pass misses = %d, want %d", missesLastPass, want)
	}
}

func TestMissRateAndReset(t *testing.T) {
	c := New(1024, 32, 2)
	c.Touch(0, 1)
	c.Touch(0, 1)
	if got := c.MissRate(); got != 0.5 {
		t.Errorf("MissRate = %v, want 0.5", got)
	}
	c.Reset()
	if c.Accesses != 0 || c.Misses != 0 || c.Contains(0) {
		t.Error("Reset should clear contents and counters")
	}
	if c.MissRate() != 0 {
		t.Error("MissRate on empty cache should be 0")
	}
}

func TestGeometry(t *testing.T) {
	c := New(16*1024, 32, 4)
	if c.SizeBytes() != 16*1024 {
		t.Errorf("SizeBytes = %d, want 16384", c.SizeBytes())
	}
	if c.LineSize() != 32 {
		t.Errorf("LineSize = %d, want 32", c.LineSize())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []struct{ total, line, ways int }{
		{0, 32, 1}, {1024, 0, 1}, {1024, 1, 1}, {1024, 32, 0}, {1024, 33, 1}, {96, 32, 2},
	}
	for _, g := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d,%d) should panic", g.total, g.line, g.ways)
				}
			}()
			New(g.total, g.line, g.ways)
		}()
	}
}

func TestZeroSizeTouch(t *testing.T) {
	c := New(1024, 32, 2)
	if m := c.Touch(0x100, 0); m != 0 {
		t.Errorf("zero-size touch misses = %d, want 0", m)
	}
	if c.Accesses != 0 {
		t.Error("zero-size touch should not count accesses")
	}
}

// Property: touching the same range twice in a row never misses the
// second time (when the range fits in the cache).
func TestTouchIdempotentWhenFits(t *testing.T) {
	f := func(addr uint16, size uint8) bool {
		c := New(64*1024, 32, 4)
		sz := int(size)%512 + 1
		c.Touch(uint64(addr), sz)
		return c.Touch(uint64(addr), sz) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: misses never exceed accesses.
func TestMissesBounded(t *testing.T) {
	f := func(touches []uint16) bool {
		c := New(1024, 32, 2)
		for _, a := range touches {
			c.Touch(uint64(a), 8)
		}
		return c.Misses <= c.Accesses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTouchNoEvict: fetching stops before the first line that would
// evict another, and every line before it is fetched exactly as
// TouchLines fetches it.
func TestTouchNoEvict(t *testing.T) {
	c, ref := New(256, 32, 2), New(256, 32, 2) // 4 sets of 2 ways
	for _, l := range []uint64{0, 4, 1} {      // set 0 full, set 1 half
		c.TouchLines(l, l)
		ref.TouchLines(l, l)
	}
	// Lines 0, 1 and 4 are cached; 2, 3 and 5 take free ways.
	misses, next := c.TouchNoEvict(0, 5)
	ref.TouchLines(0, 5)
	if misses != 3 || next != 6 || !slices.Equal(c.keys, ref.keys) || c.Accesses != ref.Accesses {
		t.Fatalf("TouchNoEvict(0, 5) = %d, %d with keys %v; want 3, 6 and TouchLines' keys %v", misses, next, c.keys, ref.keys)
	}
	// Lines 6 and 7 take the last free ways of sets 2 and 3; line 8,
	// a third line of set 0, would evict.
	misses, next = c.TouchNoEvict(6, 9)
	ref.TouchLines(6, 7)
	if misses != 2 || next != 8 || !slices.Equal(c.keys, ref.keys) || c.Accesses != ref.Accesses || c.Misses != ref.Misses {
		t.Fatalf("TouchNoEvict(6, 9) = %d, %d with keys %v; want 2, 8 and keys %v", misses, next, c.keys, ref.keys)
	}
}

// TestPromote: promoting lines reorders their sets exactly as fetching
// them does, counts nothing and installs no line.
func TestPromote(t *testing.T) {
	c, ref := New(128, 32, 4), New(128, 32, 4) // one set of 4 ways
	for _, l := range []uint64{0, 1, 2, 3} {
		c.TouchLines(l, l)
		ref.TouchLines(l, l)
	}
	c.Promote(1, 2)
	c.Promote(7, 7)
	ref.TouchLines(1, 2)
	if c.Accesses != 4 || c.Misses != 4 {
		t.Errorf("Promote counted: %d accesses, %d misses, want 4 and 4", c.Accesses, c.Misses)
	}
	if !slices.Equal(c.keys, ref.keys) {
		t.Errorf("Promote left keys %v, fetching leaves %v", c.keys, ref.keys)
	}
}
