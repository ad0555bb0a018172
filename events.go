package plim

import (
	"context"
	"fmt"

	"plim/internal/progress"
)

// Event is a typed progress notification delivered to WithProgress
// callbacks. The concrete types are EventRewriteCycle, EventCompileStart,
// EventCompileDone, EventBenchmarkStart, EventBenchmarkDone,
// EventExecuteChunk, EventTaskStart and EventTaskDone; switch on
// them for structured consumption or use FormatEvent for a ready-made
// one-line rendering.
type Event = progress.Event

// EventRewriteCycle reports one completed MIG-rewriting cycle of a Run,
// RunAll, RunSuite, Explore or Rewrite call. In a staged run several configurations
// share one rewrite; the Config field then names the shared pipeline
// ("algorithm1"/"algorithm2") instead of a single configuration. Events
// report the cycles a call ran: a cache hit emits none, and an Explore
// effort that continues a smaller effort's run emits only the cycles it
// adds, numbered from the input and tagged with its own Effort.
type EventRewriteCycle = progress.RewriteCycle

// EventCompileStart reports that the compile/alloc stage of one
// configuration began.
type EventCompileStart = progress.CompileStart

// EventCompileDone reports that the compile/alloc stage of one
// configuration finished, carrying the paper's #I and #R on success.
type EventCompileDone = progress.CompileDone

// EventBenchmarkStart reports that one benchmark of a RunSuite call, or
// one (benchmark, shrink) pair of an Explore sweep, began.
type EventBenchmarkStart = progress.BenchmarkStart

// EventBenchmarkDone reports that one benchmark of a RunSuite call, or one
// (benchmark, shrink) pair of an Explore sweep, finished.
type EventBenchmarkDone = progress.BenchmarkDone

// EventExecuteChunk reports that an Execute/ExecuteBatch call finished one
// 64-lane chunk of a batched execution.
type EventExecuteChunk = progress.ExecuteChunk

// EventTaskStart reports that a scheduler worker picked up one task of the
// engine's dependency graph (kinds: generate, rewrite, compile,
// exec_chunk, join).
type EventTaskStart = progress.TaskStart

// EventTaskDone reports that a scheduler task finished executing.
type EventTaskDone = progress.TaskDone

// ContextWithProgress returns a context that carries fn as a per-call
// progress observer: an Engine method invoked with the returned context
// delivers that call's events to fn, in addition to the engine-wide
// WithProgress callback. This is how many concurrent users of one shared
// engine each get their own progress stream — e.g. one SSE subscriber per
// HTTP request in cmd/plimserve — without re-configuring the engine.
//
// Delivery stays serialized under the engine's lock: neither fn nor the
// WithProgress callback is ever invoked concurrently with any other
// observer of the same engine, so fn must not block for long. Like the
// engine-wide callback, fn only sees events of work that actually runs in
// this call: results served from the engine's caches (or computed by a
// concurrent call that arrived first) emit no events.
func ContextWithProgress(ctx context.Context, fn func(Event)) context.Context {
	return progress.NewContext(ctx, progress.Func(fn))
}

// FormatEvent renders an event as a stable one-line human-readable string,
// as printed by the CLIs under -v.
func FormatEvent(ev Event) string {
	switch ev := ev.(type) {
	case EventRewriteCycle:
		who := ev.Function
		if ev.Config != "" {
			who += "/" + ev.Config
		}
		return fmt.Sprintf("rewrite %s: cycle %d/%d, %d nodes", who, ev.Cycle, ev.Effort, ev.Nodes)
	case EventCompileStart:
		return fmt.Sprintf("compile %s/%s: start", ev.Function, ev.Config)
	case EventCompileDone:
		if ev.Err != nil {
			return fmt.Sprintf("compile %s/%s: FAILED: %s", ev.Function, ev.Config, ev.Err)
		}
		return fmt.Sprintf("compile %s/%s: #I=%d #R=%d in %v",
			ev.Function, ev.Config, ev.Instructions, ev.RRAMs, ev.Elapsed.Round(1e6))
	case EventBenchmarkStart:
		return fmt.Sprintf("bench %s (%d/%d): start", ev.Benchmark, ev.Index+1, ev.Total)
	case EventBenchmarkDone:
		status := "done"
		if ev.Err != nil {
			status = "FAILED: " + ev.Err.Error()
		}
		return fmt.Sprintf("bench %s (%d/%d): %s in %v", ev.Benchmark, ev.Index+1, ev.Total, status, ev.Elapsed.Round(1e6))
	case EventExecuteChunk:
		return fmt.Sprintf("execute %s: chunk %d/%d (%d vectors)", ev.Program, ev.Done, ev.Total, ev.Vectors)
	case EventTaskStart:
		return fmt.Sprintf("task %s %s: start", ev.Kind, ev.Label)
	case EventTaskDone:
		return fmt.Sprintf("task %s %s: done in %v", ev.Kind, ev.Label, ev.Elapsed.Round(1e6))
	}
	return fmt.Sprintf("unknown event %T", ev)
}
