package runner

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

func TestLRUEviction(t *testing.T) {
	c := NewLRU[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before capacity reached")
	}
	// a was just used, so adding c must evict b.
	c.Add("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; want LRU (b) evicted")
	}
	for k, want := range map[string]int{"a": 1, "c": 3} {
		if v, ok := c.Get(k); !ok || v != want {
			t.Errorf("Get(%q) = %d, %v; want %d, true", k, v, ok, want)
		}
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	if n := c.Evictions(); n != 1 {
		t.Errorf("Evictions = %d, want 1 (only b was displaced)", n)
	}
}

func TestLRUEvictionCounter(t *testing.T) {
	c := NewLRU[int, int](2)
	for i := range 5 {
		c.Add(i, i)
	}
	if n := c.Evictions(); n != 3 {
		t.Errorf("Evictions = %d, want 3 (5 inserts into capacity 2)", n)
	}
	// Refreshing a resident key is not an eviction.
	c.Add(4, 40)
	if n := c.Evictions(); n != 3 {
		t.Errorf("Evictions after refresh = %d, want still 3", n)
	}
}

func TestLRUUpdateRefreshes(t *testing.T) {
	c := NewLRU[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("a", 10) // refresh both value and recency
	c.Add("c", 3)  // must evict b, not a
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Errorf("Get(a) = %d, %v; want 10, true", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived; want evicted after a's refresh")
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	c := NewLRU[string, int](0)
	c.Add("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Error("zero-capacity LRU cached a value")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d, want 0", c.Len())
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := NewLRU[int, int](64)
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 1000 {
				k := (w*31 + i) % 100
				c.Add(k, k)
				if v, ok := c.Get(k); ok && v != k {
					panic(fmt.Sprintf("Get(%d) returned %d", k, v))
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("Len = %d exceeds capacity 64", c.Len())
	}
}

// wItem is a weighted test value: its key and its weight.
type wItem struct {
	key string
	w   int64
}

// weightedLRU records the keys its adds evict, in order.
type weightedLRU struct {
	*LRU[string, wItem]
	evicted []string
}

func weighted(capacity int, budget int64) *weightedLRU {
	return &weightedLRU{LRU: NewWeightedLRU[string](capacity, budget, func(v wItem) int64 { return v.w })}
}

func (c *weightedLRU) add(key string, w int64) {
	for _, v := range c.Add(key, wItem{key, w}) {
		c.evicted = append(c.evicted, v.key)
	}
}

func TestWeightedLRUBudgetEvictsLRUFirst(t *testing.T) {
	c := weighted(10, 100)
	c.add("a", 30)
	c.add("b", 30)
	c.add("c", 30)
	c.Get("a") // recency now b, c, a (oldest first)
	c.add("d", 50)
	// 140 > 100: b then c go; a (refreshed) and d stay.
	if want := []string{"b", "c"}; !slices.Equal(c.evicted, want) {
		t.Fatalf("evicted %v, want %v", c.evicted, want)
	}
	if c.Weight() != 80 || c.Len() != 2 || c.Evictions() != 2 {
		t.Errorf("Weight %d, Len %d, Evictions %d; want 80, 2, 2", c.Weight(), c.Len(), c.Evictions())
	}
	for _, k := range []string{"a", "d"} {
		if _, ok := c.Peek(k); !ok {
			t.Errorf("%s evicted; want resident", k)
		}
	}
}

func TestWeightedLRUReAddReweighs(t *testing.T) {
	c := weighted(10, 100)
	c.add("a", 10)
	c.add("b", 10)
	c.add("c", 10)
	// Re-adding the oldest key at a weight the budget only fits alone
	// evicts everything else, never the key itself.
	c.add("a", 100)
	if want := []string{"b", "c"}; !slices.Equal(c.evicted, want) {
		t.Fatalf("evicted %v, want %v", c.evicted, want)
	}
	if v, ok := c.Peek("a"); !ok || v.w != 100 || c.Weight() != 100 {
		t.Fatalf("Peek(a) = %+v, %v with Weight %d; want weight 100, true, 100", v, ok, c.Weight())
	}
	// Over the budget on its own: still kept, as the only entry.
	c.add("a", 150)
	if _, ok := c.Peek("a"); !ok || c.Len() != 1 || c.Weight() != 150 {
		t.Fatalf("over-budget re-add: resident %v, Len %d, Weight %d", ok, c.Len(), c.Weight())
	}
	// Shrinking it again frees the budget for others.
	c.add("a", 20)
	c.add("b", 80)
	if c.Weight() != 100 || c.Len() != 2 || len(c.evicted) != 2 {
		t.Errorf("after shrink: Weight %d, Len %d, evicted %v", c.Weight(), c.Len(), c.evicted)
	}
}

func TestWeightedLRURemoveIsNotEviction(t *testing.T) {
	c := weighted(10, 100)
	c.add("a", 40)
	c.add("b", 40)
	if v, ok := c.Remove("a"); !ok || v.w != 40 {
		t.Fatalf("Remove(a) = %+v, %v; want weight 40, true", v, ok)
	}
	if _, ok := c.Remove("a"); ok {
		t.Error("second Remove(a) reported a resident entry")
	}
	if len(c.evicted) != 0 || c.Evictions() != 0 {
		t.Errorf("Remove counted as eviction: evicted %v, Evictions %d", c.evicted, c.Evictions())
	}
	if c.Weight() != 40 || c.Len() != 1 {
		t.Errorf("Weight %d, Len %d; want 40, 1", c.Weight(), c.Len())
	}
	// The freed weight is usable again without evicting b.
	c.add("c", 60)
	if len(c.evicted) != 0 || c.Weight() != 100 {
		t.Errorf("evicted %v with Weight %d; want none, 100", c.evicted, c.Weight())
	}
}

func TestWeightedLRUWeightTracksEveryChange(t *testing.T) {
	c := weighted(3, 1000)
	steps := []struct {
		op   string
		key  string
		w    int64
		want int64
	}{
		{"add", "a", 100, 100},
		{"add", "b", 200, 300},
		{"add", "a", 50, 250},    // re-add re-weighs
		{"add", "c", 400, 650},   //
		{"add", "d", 10, 460},    // entry bound: LRU b (200) evicted
		{"remove", "c", 0, 60},   //
		{"add", "e", 995, 995},   // budget: a (50) and d (10) evicted
		{"remove", "zz", 0, 995}, // absent key: no change
	}
	for i, s := range steps {
		if s.op == "add" {
			c.add(s.key, s.w)
		} else {
			c.Remove(s.key)
		}
		if got := c.Weight(); got != s.want {
			t.Fatalf("step %d (%s %s): Weight = %d, want %d", i, s.op, s.key, got, s.want)
		}
	}
	if want := []string{"b", "a", "d"}; !slices.Equal(c.evicted, want) || c.Evictions() != 3 || c.Len() != 1 {
		t.Errorf("evicted %v (Evictions %d), Len %d; want %v, 1", c.evicted, c.Evictions(), c.Len(), want)
	}
}

func TestLRUPeekKeepsRecency(t *testing.T) {
	c := NewLRU[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d, %v; want 1, true", v, ok)
	}
	c.Add("c", 3) // a is still the LRU entry despite the Peek
	if _, ok := c.Peek("a"); ok {
		t.Error("Peek refreshed a; want it evicted")
	}
}
