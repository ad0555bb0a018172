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
// each probe records a "cache benchmark-probe" span.
//
// Cached MIGs are shared between callers and must be treated as read-only.
// The compilation flow only reads its input, so internal/tables hands the
// shared instance straight to the staged runner; plim.Engine.Benchmark
// clones before returning a cached graph to user code.
type Cache struct {
	m *memo.Cache[buildKey, *mig.MIG]
}

type buildKey struct {
	name   string
	shrink int
}

// NewCache returns a cache evicting least-recently-used builds once their
// summed estimated bytes exceed budget; budget ≤ 0 means unbounded.
func NewCache(budget int) *Cache {
	return &Cache{memo.New(budget, (*mig.MIG).MemSize, "benchmark-probe",
		func(k buildKey) (string, string) { return "benchmark", k.name })}
}

// buildTier adapts the disk cache's benchmark entries to memo.Tier.
type buildTier struct{ d *diskcache.Cache }

func (t buildTier) Load(k buildKey) (*mig.MIG, diskcache.ProbeOutcome) {
	return t.d.ProbeBenchmark(k.name, k.shrink)
}

func (t buildTier) Store(k buildKey, m *mig.MIG) error {
	return t.d.StoreBenchmark(k.name, k.shrink, m)
}

// SetDisk installs (or, with nil, removes) the persistent second tier.
// It must be called before the cache is shared across goroutines.
// Generators are deterministic and their output serializes
// fingerprint-faithfully, so a disk-served graph is structurally identical
// to a fresh build.
func (c *Cache) SetDisk(d *diskcache.Cache) {
	if d == nil {
		c.m.SetTier(nil)
		return
	}
	c.m.SetTier(buildTier{d})
}

// Len reports the number of cached benchmark builds (including in-flight
// ones).
func (c *Cache) Len() int { return c.m.Len() }

// Probes reports the memory-tier probe counters.
func (c *Cache) Probes() (hits, misses uint64) { return c.m.Probes() }

// BuildScaled is suite.BuildScaled memoized through the cache. The
// returned MIG is shared: callers must not mutate it. ctx's trace (if any)
// receives a cache-probe span annotated with the outcome — memory-hit /
// disk-hit / verify-miss / compute — as a child of the enclosing generate
// task span. A cancelled ctx fails with ctx.Err() and releases a caller
// waiting on another caller's build; a build itself always runs to
// completion once started (generators are fast and take no context).
func (c *Cache) BuildScaled(ctx context.Context, name string, shrink int) (*mig.MIG, error) {
	return c.m.Do(ctx, buildKey{name: name, shrink: shrink}, func() (*mig.MIG, error) {
		return BuildScaled(name, shrink)
	})
}
