package core

import (
	"context"
	"fmt"

	"plim/internal/compile"
	"plim/internal/diskcache"
	"plim/internal/isa"
	"plim/internal/memo"
	"plim/internal/mig"
	"plim/internal/rewrite"
)

// RewriteCache memoizes rewriting runs across configurations, benchmarks
// and engine calls. It is a memo.Cache keyed by diskcache.RewriteKey
// (function fingerprint, rewrite kind, effort), with the kind and effort
// of what does not decide the result folded away (rewriteKey), so any
// structurally identical MIG — e.g. the same benchmark rebuilt by a later
// table — reuses the stored result instead of rewriting again. The key is the
// input handle's fingerprint, so no rewrite hashes its input. Entries are
// charged their graph's MemSize, decoded or not, against the byte budget,
// and each probe records a "cache rewrite-probe" span. Only the caller
// that computes emits progress events. Embedding promotes Len and
// Counters.
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
	*memo.Cache[diskcache.RewriteKey, diskcache.RewriteEntry]
}

// NewRewriteCache returns a cache charging each rewritten graph its
// estimated bytes against b, which evicts least-recently-used entries of
// every cache it bounds; a nil b is unbounded. A non-nil disk is the
// persistent second tier: disk-served results are byte-identical to
// computed ones and, like memory hits, emit no progress events.
func NewRewriteCache(b *memo.Budget, disk *diskcache.Cache) *RewriteCache {
	var tier memo.Tier[diskcache.RewriteKey, diskcache.RewriteEntry]
	if disk != nil {
		tier.Load, tier.Store = disk.LoadRewrite, disk.SaveRewrite
	}
	return &RewriteCache{memo.New(b,
		func(e diskcache.RewriteEntry) int { return e.Graph.MemSize() },
		"rewrite-probe",
		func(k diskcache.RewriteKey) (string, string) { return "fp", fmt.Sprintf("%016x", k.Graph) },
		tier)}
}

// Rewrite is core.Rewrite memoized through the cache. On a hit no progress
// events are emitted — the rewrite simply did not run again.
func (c *RewriteCache) Rewrite(ctx context.Context, m *mig.MIG, kind RewriteKind, effort int, label string) (*mig.MIG, rewrite.Stats, error) {
	r, _, err := c.rewrite(ctx, mig.NewRef(m), kind, effort, label, stageRun{})
	if err != nil {
		return nil, rewrite.Stats{}, err
	}
	out, err := r.Graph.Graph(ctx)
	if err != nil {
		return nil, rewrite.Stats{}, err
	}
	return out, r.Stats, nil
}

// A stageRun is a rewrite as a sweep hands it from one effort to the
// next larger one of the same stage (see RunSweep): the entry and how its
// run ended. End is zero unless the caller computed the run; a memory or
// disk hit cannot tell, because Stats does not record it, and a failure
// has no entry.
type stageRun struct {
	diskcache.RewriteEntry
	End rewrite.End
}

// rewriteKey keys a rewrite by what decides its result. RewriteNone
// ignores effort, so it keys effort 0. Effort 0 runs no cycle, so it
// ignores the pipeline and both algorithms key RewriteAlgorithm1. The kind
// is validated first, so an unknown kind errors at effort 0 too.
func rewriteKey(fp uint64, kind RewriteKind, effort int) (diskcache.RewriteKey, error) {
	if _, err := PipelineFor(kind); err != nil {
		return diskcache.RewriteKey{}, err
	}
	switch {
	case kind == RewriteNone:
		effort = 0
	case effort == 0:
		kind = RewriteAlgorithm1
	}
	return diskcache.RewriteKey{Graph: fp, Kind: uint8(kind), Effort: effort}, nil
}

// rewrite is Rewrite of a graph handle, returning the whole cached entry,
// whose graph's handle carries the fingerprint that keys the compile
// cache: a computed rewrite hashes its output once, and a disk hit
// carries the fingerprint its entry records. An entry whose graph is
// still encoded gets the rewrite of in as its fallback, should the graph
// fail to decode, unless the first call on the entry gave it one; the
// fallback stores the entry it recomputes, so the file is rewritten.
//
// prev is the same rewrite of in at a smaller effort, and a miss starts
// from it: a run that ended at its fixpoint is the run at every larger
// effort, so the entry shares its graph handle (and is charged under
// both keys), and a run that ended on its bound is continued. With a
// zero prev the miss rewrites in. The returned End is how the run ended
// when this call computed it, and zero on a hit.
func (c *RewriteCache) rewrite(ctx context.Context, in *mig.Ref, kind RewriteKind, effort int, label string, prev stageRun) (diskcache.RewriteEntry, rewrite.End, error) {
	key, err := rewriteKey(in.Fingerprint(), kind, effort)
	if err != nil {
		return diskcache.RewriteEntry{}, 0, err
	}
	var end rewrite.End
	r, err := c.Do(ctx, key, func() (diskcache.RewriteEntry, error) {
		if prev.End == rewrite.Fixpoint {
			end = rewrite.Fixpoint
			return prev.RewriteEntry, nil
		}
		out, st, e, err := rewriteGraph(ctx, in, prev, kind, effort, label)
		if err != nil {
			return diskcache.RewriteEntry{}, err
		}
		end = e
		return diskcache.RewriteEntry{Graph: mig.NewRef(out), Stats: st}, nil
	})
	if err == nil && r.Graph.NeedsRecompute() {
		r.Graph.Recompute(func(ctx context.Context) (*mig.MIG, error) {
			out, st, _, err := rewriteGraph(ctx, in, stageRun{}, kind, effort, label)
			if err == nil {
				c.Store(key, diskcache.RewriteEntry{Graph: mig.NewRef(out), Stats: st})
			}
			return out, err
		})
	}
	return r, end, err
}

// rewriteGraph is Rewrite of in's graph into a graph the cache may keep,
// continuing prev's run instead when it ended on its bound.
func rewriteGraph(ctx context.Context, in *mig.Ref, prev stageRun, kind RewriteKind, effort int, label string) (*mig.MIG, rewrite.Stats, rewrite.End, error) {
	src, from := in, (*rewrite.Stats)(nil)
	if prev.End == rewrite.Bound {
		src, from = prev.Graph, &prev.Stats
	}
	m, err := src.Graph(ctx)
	if err != nil {
		return nil, rewrite.Stats{}, 0, err
	}
	out, st, end, err := rewriteRun(ctx, m, from, kind, effort, label)
	if err != nil {
		return nil, rewrite.Stats{}, 0, err
	}
	if out == m {
		// Effort 0 (or RewriteNone on an already-clean graph) can hand
		// the caller's own MIG back; the cache must never retain a
		// graph the caller may keep mutating.
		out = m.Clone()
	}
	return out, st, end, nil
}

// CompileCache memoizes the compile kernel of CompileConfig by
// diskcache.ProgramKey (rewritten graph fingerprint, selection policy,
// allocator, write cap): the compile.Options fields a configuration sets.
// An entry is the compiled isa.Program itself — its binary encoding, the
// same bytes the disk tier stores, and the counts it keeps — charged the
// bytes it retains (Program.MemSize) against the byte budget; each probe
// records a "cache compile-probe" span. Embedding promotes Len and
// Counters. The key is the rewritten graph's handle's fingerprint, so a
// hit never decodes that graph.
//
// Programs are immutable, so every hit shares the entry's program and
// decodes no instruction: compile.ResultOf rebuilds the rest of the
// compile.Result from the counts the program keeps. No cost model enters
// the cache: CompileConfig prices whatever program it gets back from the
// counts that program keeps. The caller that computes keeps its freshly
// compiled Result, whose write counts are the allocator's.
type CompileCache struct {
	*memo.Cache[diskcache.ProgramKey, *isa.Program]
}

// NewCompileCache returns a cache charging each program the bytes it
// retains against b, which evicts least-recently-used entries of every
// cache it bounds; a nil b is unbounded. A non-nil disk is the persistent
// second tier, storing the program's encoding.
func NewCompileCache(b *memo.Budget, disk *diskcache.Cache) *CompileCache {
	var tier memo.Tier[diskcache.ProgramKey, *isa.Program]
	if disk != nil {
		tier.Load, tier.Store = disk.ProbeProgram, disk.StoreProgram
	}
	return &CompileCache{memo.New(b, (*isa.Program).MemSize, "compile-probe",
		func(k diskcache.ProgramKey) (string, string) { return "fp", fmt.Sprintf("%016x", k.Graph) },
		tier)}
}

// Compile is compile.Compile memoized through the cache: the key is g's
// fingerprint with opts, and only a miss reads g's graph.
func (c *CompileCache) Compile(ctx context.Context, g *mig.Ref, opts compile.Options) (*compile.Result, error) {
	var fresh *compile.Result
	key := diskcache.ProgramKey{Graph: g.Fingerprint(),
		Selection: uint8(opts.Selection), Alloc: uint8(opts.Alloc), MaxWrites: opts.MaxWrites}
	p, err := c.Do(ctx, key, func() (*isa.Program, error) {
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
