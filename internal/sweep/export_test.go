package sweep

// NewCacheWithBudget returns an empty cache that holds at most budget
// bytes of pipelines, so tests can drive eviction without building
// 64 MiB of them.
func NewCacheWithBudget(budget int64) *BuildCache {
	c := NewBuildCache()
	c.budget = budget
	return c
}
