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

// MemoryBudget is the byte budget of a Cache's memory of decoded
// traces.
const MemoryBudget = memoryBudget
