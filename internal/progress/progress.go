// Package progress defines the typed progress events emitted by the
// long-running parts of the flow — scheduler tasks, MIG rewriting,
// compilation, benchmark-suite runs and batched execution — and the
// callback type that receives them. The public facade re-exports the event
// types (plim.Event*, plim.WithProgress). The observer rides the context:
// the caller installs it with NewContext, and every emitter below reads it
// with FromContext where it emits.
package progress

import (
	"context"
	"time"
)

// Event is a progress notification. The concrete types are TaskStart,
// TaskDone, RewriteCycle, CompileStart, CompileDone, BenchmarkStart,
// BenchmarkDone and ExecuteChunk. Name is the event type's wire name: the
// server's SSE event line and /metrics type label.
type Event interface{ Name() string }

// Func receives progress events. A nil Func discards them. Unless the
// caller says otherwise (plim.Engine serializes), a Func may be invoked
// concurrently from worker goroutines.
type Func func(Event)

// Emit delivers ev unless f is nil.
func (f Func) Emit(ev Event) {
	if f != nil {
		f(ev)
	}
}

// ctxKey keys the per-call observer carried by a context.
type ctxKey struct{}

// NewContext returns a context carrying f as a per-call progress observer.
// Engine methods deliver the events of a call to the observer of the
// context the call was made with, in addition to any construction-time
// callback — the mechanism behind per-request progress streams in servers
// that share one long-lived engine. A nil f returns ctx unchanged; an
// observer already present is replaced for the derived context.
func NewContext(ctx context.Context, f Func) context.Context {
	if f == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, f)
}

// FromContext extracts the per-call observer from ctx (nil when absent).
func FromContext(ctx context.Context) Func {
	f, _ := ctx.Value(ctxKey{}).(Func)
	return f
}

// RewriteCycle reports one completed MIG-rewriting cycle.
type RewriteCycle struct {
	Function string // name of the MIG being rewritten
	Config   string // configuration name, "" outside a configuration run
	Cycle    int    // 1-based index of the completed cycle
	Effort   int    // total cycle budget
	Nodes    int    // majority nodes after the cycle
}

// CompileStart reports that the compile/alloc stage of one configuration
// began. In a staged run several configurations share one rewrite, so
// compile events are the per-configuration signal.
type CompileStart struct {
	Function string // name of the MIG being compiled
	Config   string // configuration name
}

// CompileDone reports that the compile/alloc stage of one configuration
// finished (Err != nil on failure). Instructions and RRAMs carry the
// paper's #I and #R on success.
type CompileDone struct {
	Function     string
	Config       string
	Elapsed      time.Duration
	Instructions int
	RRAMs        int
	Err          error
}

// BenchmarkStart reports that a suite job began building and compiling.
type BenchmarkStart struct {
	Benchmark string
	Index     int // position in the suite's benchmark list
	Total     int // number of benchmarks in the run
}

// BenchmarkDone reports that a suite job finished (Err != nil on failure).
type BenchmarkDone struct {
	Benchmark string
	Index     int
	Total     int
	Elapsed   time.Duration
	Err       error
}

// ExecuteChunk reports that a batched execution finished one 64-lane chunk
// (done in 1..Total). Vectors is the whole batch size; a chunk evaluates up
// to 64 of them.
type ExecuteChunk struct {
	Program string // name of the program being executed
	Done    int    // chunks completed
	Total   int    // chunks in the batch
	Vectors int    // vectors in the batch
}

// TaskStart reports that a scheduler worker picked up one DAG task.
// Kind is the task kind (generate, rewrite, compile, exec_chunk, join)
// and Label names the work unit (benchmark, stage or configuration).
type TaskStart struct {
	Kind  string
	Label string
}

// TaskDone reports that a scheduler task finished executing.
type TaskDone struct {
	Kind    string
	Label   string
	Elapsed time.Duration
}

func (RewriteCycle) Name() string   { return "rewrite_cycle" }
func (CompileStart) Name() string   { return "compile_start" }
func (CompileDone) Name() string    { return "compile_done" }
func (BenchmarkStart) Name() string { return "benchmark_start" }
func (BenchmarkDone) Name() string  { return "benchmark_done" }
func (ExecuteChunk) Name() string   { return "execute_chunk" }
func (TaskStart) Name() string      { return "task_start" }
func (TaskDone) Name() string       { return "task_done" }
