package suite

import (
	"context"

	"plim/internal/diskcache"
	"plim/internal/memo"
	"plim/internal/mig"
)

// Cache memoizes benchmark generator output per (name, shrink) in a
// memo.Cache. Every generator is deterministic, so a cached graph is
// structurally identical to a fresh build; the expensive word-level
// construction (and the follow-up Cleanup/Validate) runs once. Errors
// (unknown benchmark, validation failure) are not cached, builds are
// charged their estimated size (mig.MemSize) against the byte budget, and
// each probe records a "cache benchmark-probe" span. Embedding promotes
// Len and Counters.
//
// Cached MIGs are shared between callers and must be treated as read-only.
// The compilation flow only reads its input, so internal/tables hands the
// shared instance straight to the staged runner; plim.Engine.Benchmark
// clones before returning a cached graph to user code.
type Cache struct {
	*memo.Cache[buildKey, *mig.MIG]
}

type buildKey struct {
	name   string
	shrink int
}

// NewCache returns a cache charging each build its estimated bytes against
// b, which evicts least-recently-used entries of every cache it bounds; a
// nil b is unbounded. A non-nil disk is the persistent second tier: generators are deterministic
// and their output serializes fingerprint-faithfully, so a disk-served
// graph is structurally identical to a fresh build.
func NewCache(b *memo.Budget, disk *diskcache.Cache) *Cache {
	var tier memo.Tier[buildKey, *mig.MIG]
	if disk != nil {
		tier = buildTier{disk}
	}
	return &Cache{memo.New(b, (*mig.MIG).MemSize, "benchmark-probe",
		func(k buildKey) (string, string) { return "benchmark", k.name }, tier)}
}

// buildTier adapts the disk cache's benchmark entries to memo.Tier.
type buildTier struct{ d *diskcache.Cache }

func (t buildTier) Load(k buildKey) (*mig.MIG, diskcache.ProbeOutcome) {
	return t.d.ProbeBenchmark(k.name, k.shrink)
}

func (t buildTier) Store(k buildKey, m *mig.MIG) error {
	return t.d.StoreBenchmark(k.name, k.shrink, m)
}

// BuildScaled is suite.BuildScaled memoized through the cache. The
// returned MIG is shared: callers must not mutate it. ctx's trace (if any)
// receives a cache-probe span annotated with the outcome — memory-hit /
// disk-hit / verify-miss / compute — as a child of the enclosing generate
// task span. A cancelled ctx fails with ctx.Err() and releases a caller
// waiting on another caller's build; a build itself always runs to
// completion once started (generators are fast and take no context).
func (c *Cache) BuildScaled(ctx context.Context, name string, shrink int) (*mig.MIG, error) {
	return c.Do(ctx, buildKey{name: name, shrink: shrink}, func() (*mig.MIG, error) {
		return BuildScaled(name, shrink)
	})
}
