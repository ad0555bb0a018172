package core

import (
	"context"
	"fmt"

	"plim/internal/diskcache"
	"plim/internal/memo"
	"plim/internal/mig"
	"plim/internal/rewrite"
)

// RewriteCache memoizes rewriting runs across configurations, benchmarks
// and engine calls. It is a memo.Cache keyed by (function fingerprint,
// rewrite kind, effort), so any structurally identical MIG — e.g. the same
// benchmark rebuilt by a later table — reuses the stored result instead of
// rewriting again. Entries are charged their graph's estimated size
// (mig.MemSize) against the byte budget, and each probe records a "cache
// rewrite-probe" span. Only the caller that computes emits progress
// events.
//
// Cached MIGs are shared across callers and must be treated as read-only.
// The compilation stages only read their input, so the staged runners can
// share entries freely; the public facade clones before handing a cached
// graph to user code.
type RewriteCache struct {
	m *memo.Cache[rewriteKey, rewriteResult]
}

type rewriteKey struct {
	fp     uint64
	kind   RewriteKind
	effort int
}

type rewriteResult struct {
	m  *mig.MIG
	st rewrite.Stats
}

// NewRewriteCache returns an unbounded cache (every distinct key is kept
// until the cache is dropped). Long-lived callers should prefer
// NewRewriteCacheWithBudget.
func NewRewriteCache() *RewriteCache {
	return NewRewriteCacheWithBudget(0)
}

// NewRewriteCacheWithBudget returns a cache evicting least-recently-used
// entries once their summed estimated bytes exceed budget; budget ≤ 0
// means unbounded.
func NewRewriteCacheWithBudget(budget int) *RewriteCache {
	return &RewriteCache{memo.New(budget,
		func(r rewriteResult) int { return r.m.MemSize() },
		"rewrite-probe",
		func(k rewriteKey) (string, string) { return "fp", fmt.Sprintf("%016x", k.fp) })}
}

// rewriteTier adapts the disk cache's rewrite entries to memo.Tier.
type rewriteTier struct{ d *diskcache.Cache }

func (t rewriteTier) Load(k rewriteKey) (rewriteResult, diskcache.ProbeOutcome) {
	m, st, out := t.d.ProbeRewrite(k.fp, uint8(k.kind), k.effort)
	return rewriteResult{m, st}, out
}

func (t rewriteTier) Store(k rewriteKey, r rewriteResult) error {
	return t.d.StoreRewrite(k.fp, uint8(k.kind), k.effort, r.m, r.st)
}

// SetDisk installs (or, with nil, removes) the persistent second tier.
// It must be called before the cache is shared across goroutines.
// Disk-served results are byte-identical to computed ones and, like
// memory hits, emit no progress events.
func (c *RewriteCache) SetDisk(d *diskcache.Cache) {
	if d == nil {
		c.m.SetTier(nil)
		return
	}
	c.m.SetTier(rewriteTier{d})
}

// Len reports the number of cached rewrites (including in-flight ones).
func (c *RewriteCache) Len() int { return c.m.Len() }

// Budget reports the cache's byte budget (≤ 0 = unbounded).
func (c *RewriteCache) Budget() int { return c.m.Budget() }

// Probes reports the memory-tier probe counters: hits (including probes
// that attached to an in-flight computation) and misses (probes that had
// to compute or go to disk). Nil-safe.
func (c *RewriteCache) Probes() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.m.Probes()
}

// Rewrite is core.Rewrite memoized through the cache. A nil *RewriteCache
// computes directly (the uncached path). On a hit no progress events are
// emitted — the rewrite simply did not run again.
func (c *RewriteCache) Rewrite(ctx context.Context, m *mig.MIG, kind RewriteKind, effort int, label string) (*mig.MIG, rewrite.Stats, error) {
	if c == nil {
		if err := ctx.Err(); err != nil {
			return nil, rewrite.Stats{}, err
		}
		return Rewrite(ctx, m, kind, effort, label)
	}
	r, err := c.m.Do(ctx, rewriteKey{fp: m.Fingerprint(), kind: kind, effort: effort}, func() (rewriteResult, error) {
		out, st, err := Rewrite(ctx, m, kind, effort, label)
		if err == nil && out == m {
			// Effort 0 (or RewriteNone on an already-clean graph) can hand
			// the caller's own MIG back; the cache must never retain a
			// graph the caller may keep mutating.
			out = m.Clone()
		}
		return rewriteResult{out, st}, err
	})
	return r.m, r.st, err
}
