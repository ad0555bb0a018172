package exec

import (
	"context"
	"sync/atomic"

	"plim/internal/progress"
	"plim/internal/sched"
)

// RunSharded executes the batch like RunContext, but splits its 64-lane
// chunks into contiguous ranges and runs them as parallel leaves of a task
// graph on pool — one exec-chunk task per worker at most. The result is
// byte-identical to the sequential run: disjoint ranges write disjoint
// output words, per-range switch partials are summed at the join in range
// order (integer sums are associative, so the total equals one sequential
// pass), write counts are data-independent, and an endurance fault is
// detected identically by every range. ctx's deadline orders the graph's
// tasks in the scheduler's injector, and its progress observer, if any,
// receives the graph's task start/done events and one
// progress.ExecuteChunk per chunk. Chunk events come from worker
// goroutines — concurrently, with monotone done counts delivered exactly
// once each, but in no particular order.
//
// Small batches (or single-worker pools) fall back to RunContext.
func (pl *Plan) RunSharded(ctx context.Context, b *Batch, opts Options, pool *sched.Pool) (*Result, error) {
	chunks := b.Chunks()
	shards := pool.Workers()
	if shards > chunks {
		shards = chunks
	}
	if shards <= 1 {
		return pl.RunContext(ctx, b, opts)
	}
	run, faultAt, err := pl.prepare(b, opts.Endurance)
	if err != nil {
		return nil, err
	}
	outputs := NewBatch(pl.NumOutputs(), b.Len())
	partials := make([][]uint64, shards)
	var done atomic.Int64
	var onChunk func(int)
	if obs := progress.FromContext(ctx); obs != nil {
		onChunk = func(int) {
			obs(progress.ExecuteChunk{Program: pl.src.Name(), Done: int(done.Add(1)), Total: chunks, Vectors: b.Len()})
		}
	}
	g := pool.NewGraph(ctx)
	per := (chunks + shards - 1) / shards
	for s := 0; s < shards; s++ {
		lo, hi := s*per, min((s+1)*per, chunks)
		if lo >= hi {
			break
		}
		part := make([]uint64, pl.numCells)
		partials[s] = part
		g.Task(sched.KindExecChunk, pl.src.Name(), func(tctx context.Context) {
			// Cancellation errors are surfaced by Wait; nothing else can fail.
			_ = pl.runRange(tctx, b, run, faultAt < 0, part, outputs, lo, hi, onChunk)
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	switches := make([]uint64, pl.numCells)
	for _, part := range partials {
		for i, v := range part {
			switches[i] += v
		}
	}
	return pl.finalize(b, run, faultAt, switches, outputs, opts)
}
