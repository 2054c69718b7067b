package disptrace

// SetMemoryBudget replaces c's memory of decoded traces with an empty
// one bounded at budget bytes.
func SetMemoryBudget(c *Cache, budget int64) { c.mem = newMemory(budget) }

// InMemory reports whether c's memory holds the decoded trace id,
// without refreshing its recency.
func InMemory(c *Cache, id string) bool {
	_, ok := c.mem.Peek(id)
	return ok
}

// ParseIDs is parseIDs, the decoder of a trace's raw step-ID stream.
var ParseIDs = parseIDs
