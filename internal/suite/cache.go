package suite

import (
	"context"

	"plim/internal/diskcache"
	"plim/internal/memo"
	"plim/internal/mig"
)

// Cache memoizes benchmark generator output per diskcache.BenchmarkKey
// (name, shrink) in a memo.Cache. Every generator is deterministic, so a
// cached graph is structurally identical to a fresh build; the expensive
// word-level construction (and the follow-up Cleanup/Validate) runs once.
// A value is a mig.Ref: a computed build is hashed once, when it is built,
// and a disk hit carries the fingerprint its entry records and decodes its
// graph only when a caller asks for it (a rewrite that misses,
// Engine.Benchmark), so a fully warm run never decodes a benchmark. A disk
// payload that fails to decode then is rebuilt, and the rebuilt graph is
// stored again. Errors (unknown benchmark, validation failure) are not
// cached, every entry is charged its graph's MemSize, decoded or not,
// against the byte budget, and each probe records a "cache
// benchmark-probe" span. Embedding promotes Len and Counters.
//
// Cached graphs are shared between callers and must be treated as
// read-only. The compilation flow only reads its input, so the sweep
// (core.RunSweep) and plim.Engine.RunBenchmark hand the shared handle
// straight to the staged runner, which neither copies nor hashes it;
// only plim.Engine.Benchmark, which returns the graph to user code,
// clones it.
type Cache struct {
	*memo.Cache[diskcache.BenchmarkKey, *mig.Ref]
}

// NewCache returns a cache charging each build its estimated bytes against
// b, which evicts least-recently-used entries of every cache it bounds; a
// nil b is unbounded. A non-nil disk is the persistent second tier:
// generators are deterministic and their output serializes
// fingerprint-faithfully, so a disk-served graph is structurally identical
// to a fresh build.
func NewCache(b *memo.Budget, disk *diskcache.Cache) *Cache {
	var tier memo.Tier[diskcache.BenchmarkKey, *mig.Ref]
	if disk != nil {
		tier.Load, tier.Store = disk.ProbeBenchmark, disk.SaveBenchmark
	}
	return &Cache{memo.New(b, (*mig.Ref).MemSize, "benchmark-probe",
		func(k diskcache.BenchmarkKey) (string, string) { return "benchmark", k.Name }, tier)}
}

// BuildScaled is suite.BuildScaled memoized through the cache. The
// returned handle is shared: callers must not mutate its graph. ctx's
// trace (if any) receives a cache-probe span annotated with the outcome —
// memory-hit / disk-hit / verify-miss / compute — as a child of the
// enclosing generate task span. A cancelled ctx fails with ctx.Err() and
// releases a caller waiting on another caller's build; a build itself
// always runs to completion once started (generators are fast and take no
// context). A handle whose graph is still encoded gets the build as its
// fallback, should the graph fail to decode, unless the first call on the
// handle gave it one; the fallback stores the graph it rebuilds, so the
// entry is rewritten.
func (c *Cache) BuildScaled(ctx context.Context, name string, shrink int) (*mig.Ref, error) {
	key := diskcache.BenchmarkKey{Name: name, Shrink: shrink}
	r, err := c.Do(ctx, key, func() (*mig.Ref, error) {
		m, err := BuildScaled(name, shrink)
		if err != nil {
			return nil, err
		}
		return mig.NewRef(m), nil
	})
	if err == nil && r.NeedsRecompute() {
		r.Recompute(func(context.Context) (*mig.MIG, error) {
			m, err := BuildScaled(name, shrink)
			if err == nil {
				c.Store(key, mig.NewRef(m))
			}
			return m, err
		})
	}
	return r, err
}
