package core

import (
	"context"
	"fmt"

	"plim/internal/alloc"
	"plim/internal/compile"
	"plim/internal/diskcache"
	"plim/internal/isa"
	"plim/internal/memo"
	"plim/internal/mig"
	"plim/internal/rewrite"
)

// RewriteCache memoizes rewriting runs across configurations, benchmarks
// and engine calls. It is a memo.Cache keyed by (function fingerprint,
// rewrite kind, effort), so any structurally identical MIG — e.g. the same
// benchmark rebuilt by a later table — reuses the stored result instead of
// rewriting again. The key is the input handle's fingerprint, so no
// rewrite hashes its input. Entries are charged their graph's MemSize,
// decoded or not, against the byte budget, and each probe records a "cache
// rewrite-probe" span. Only the caller that computes emits progress
// events. Embedding promotes Len and Counters.
//
// A disk hit's graph stays encoded until a caller needs it: a compile that
// misses, or Rewrite. Should it then fail to decode, the rewrite runs
// again from the input, under the context of the caller that needs it,
// and its result is stored through the disk tier again.
//
// Cached MIGs are shared across callers and must be treated as read-only.
// The compilation stages only read their input, so the staged runners can
// share entries freely; the public facade clones before handing a cached
// graph to user code.
type RewriteCache struct {
	*memo.Cache[rewriteKey, rewriteResult]
}

type rewriteKey struct {
	fp     uint64
	kind   RewriteKind
	effort int
}

// rewriteResult is a cached rewrite: the rewritten graph's handle, whose
// fingerprint keys the compile cache, and its statistics. A computed
// rewrite hashes its output once; a disk hit carries the fingerprint its
// entry records.
type rewriteResult struct {
	ref *mig.Ref
	st  rewrite.Stats
}

// NewRewriteCache returns a cache charging each rewritten graph its
// estimated bytes against b, which evicts least-recently-used entries of
// every cache it bounds; a nil b is unbounded. A non-nil disk is the
// persistent second tier: disk-served results are byte-identical to
// computed ones and, like memory hits, emit no progress events.
func NewRewriteCache(b *memo.Budget, disk *diskcache.Cache) *RewriteCache {
	var tier memo.Tier[rewriteKey, rewriteResult]
	if disk != nil {
		tier = rewriteTier{disk}
	}
	return &RewriteCache{memo.New(b,
		func(r rewriteResult) int { return r.ref.MemSize() },
		"rewrite-probe",
		func(k rewriteKey) (string, string) { return "fp", fmt.Sprintf("%016x", k.fp) },
		tier)}
}

// rewriteTier adapts the disk cache's rewrite entries to memo.Tier.
type rewriteTier struct{ d *diskcache.Cache }

func (t rewriteTier) Load(k rewriteKey) (rewriteResult, diskcache.ProbeOutcome) {
	e, out := t.d.LoadRewrite(k.fp, uint8(k.kind), k.effort)
	return rewriteResult{e.Graph, e.Stats}, out
}

func (t rewriteTier) Store(k rewriteKey, r rewriteResult) error {
	return t.d.SaveRewrite(k.fp, uint8(k.kind), k.effort, diskcache.RewriteEntry{Graph: r.ref, Stats: r.st})
}

// Rewrite is core.Rewrite memoized through the cache. On a hit no progress
// events are emitted — the rewrite simply did not run again.
func (c *RewriteCache) Rewrite(ctx context.Context, m *mig.MIG, kind RewriteKind, effort int, label string) (*mig.MIG, rewrite.Stats, error) {
	r, err := c.rewrite(ctx, mig.NewRef(m), kind, effort, label)
	if err != nil {
		return nil, rewrite.Stats{}, err
	}
	out, err := r.ref.Graph(ctx)
	if err != nil {
		return nil, rewrite.Stats{}, err
	}
	return out, r.st, nil
}

// rewrite is Rewrite of a graph handle, returning the whole cached result.
// A result whose graph is still encoded gets the rewrite of in as its
// fallback, should the graph fail to decode; the fallback stores the
// result it recomputes, so the entry is rewritten.
func (c *RewriteCache) rewrite(ctx context.Context, in *mig.Ref, kind RewriteKind, effort int, label string) (rewriteResult, error) {
	key := rewriteKey{fp: in.Fingerprint(), kind: kind, effort: effort}
	r, err := c.Do(ctx, key, func() (rewriteResult, error) {
		out, st, err := rewriteGraph(ctx, in, kind, effort, label)
		if err != nil {
			return rewriteResult{}, err
		}
		return rewriteResult{mig.NewRef(out), st}, nil
	})
	if err == nil && !r.ref.Decoded() {
		r.ref.Recompute(func(ctx context.Context) (*mig.MIG, error) {
			out, st, err := rewriteGraph(ctx, in, kind, effort, label)
			if err == nil {
				c.Store(key, rewriteResult{mig.NewRef(out), st})
			}
			return out, err
		})
	}
	return r, err
}

// rewriteGraph is Rewrite of in's graph into a graph the cache may keep.
func rewriteGraph(ctx context.Context, in *mig.Ref, kind RewriteKind, effort int, label string) (*mig.MIG, rewrite.Stats, error) {
	m, err := in.Graph(ctx)
	if err != nil {
		return nil, rewrite.Stats{}, err
	}
	out, st, err := Rewrite(ctx, m, kind, effort, label)
	if err != nil {
		return nil, rewrite.Stats{}, err
	}
	if out == m {
		// Effort 0 (or RewriteNone on an already-clean graph) can hand
		// the caller's own MIG back; the cache must never retain a
		// graph the caller may keep mutating.
		out = m.Clone()
	}
	return out, st, nil
}

// CompileCache memoizes the compile kernel of CompileConfig by (rewritten
// graph fingerprint, selection policy, allocator, write cap): the
// compile.Options fields a configuration sets. An entry is the compiled
// isa.Program itself — its binary encoding, the same bytes the disk tier
// stores, and the counts it keeps — charged the bytes it retains
// (Program.MemSize) against the byte budget; each probe records a "cache
// compile-probe" span. Embedding promotes Len and Counters. The key is the
// rewritten graph's handle's fingerprint, so a hit never decodes that
// graph.
//
// Programs are immutable, so every hit shares the entry's program and
// decodes no instruction: compile.ResultOf rebuilds the rest of the
// compile.Result from the counts the program keeps. No cost model enters
// the cache: CompileConfig prices whatever program it gets back from the
// counts that program keeps. The caller that computes keeps its freshly
// compiled Result, whose write counts are the allocator's.
type CompileCache struct {
	*memo.Cache[compileKey, *isa.Program]
}

type compileKey struct {
	fp        uint64
	selection compile.Selection
	alloc     alloc.Kind
	maxWrites uint64
}

// NewCompileCache returns a cache charging each program the bytes it
// retains against b, which evicts least-recently-used entries of every
// cache it bounds; a nil b is unbounded. A non-nil disk is the persistent
// second tier, storing the program's encoding.
func NewCompileCache(b *memo.Budget, disk *diskcache.Cache) *CompileCache {
	var tier memo.Tier[compileKey, *isa.Program]
	if disk != nil {
		tier = compileTier{disk}
	}
	return &CompileCache{memo.New(b, (*isa.Program).MemSize, "compile-probe",
		func(k compileKey) (string, string) { return "fp", fmt.Sprintf("%016x", k.fp) },
		tier)}
}

// compileTier adapts the disk cache's program entries to memo.Tier.
type compileTier struct{ d *diskcache.Cache }

func (t compileTier) Load(k compileKey) (*isa.Program, diskcache.ProbeOutcome) {
	return t.d.ProbeProgram(k.disk())
}

func (t compileTier) Store(k compileKey, p *isa.Program) error {
	return t.d.StoreProgram(k.disk(), p)
}

func (k compileKey) disk() diskcache.ProgramKey {
	return diskcache.ProgramKey{Graph: k.fp, Selection: uint8(k.selection), Alloc: uint8(k.alloc), MaxWrites: k.maxWrites}
}

// Compile is compile.Compile memoized through the cache: the key is g's
// fingerprint with opts, and only a miss reads g's graph.
func (c *CompileCache) Compile(ctx context.Context, g *mig.Ref, opts compile.Options) (*compile.Result, error) {
	var fresh *compile.Result
	p, err := c.Do(ctx, compileKey{g.Fingerprint(), opts.Selection, opts.Alloc, opts.MaxWrites}, func() (*isa.Program, error) {
		m, err := g.Graph(ctx)
		if err != nil {
			return nil, err
		}
		res, err := compile.Compile(m, opts)
		if err != nil {
			return nil, err
		}
		fresh = res
		return res.Program, nil
	})
	switch {
	case err != nil:
		return nil, err
	case fresh != nil:
		return fresh, nil
	}
	return compile.ResultOf(p), nil
}
