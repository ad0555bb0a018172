// Package trace is a lightweight, allocation-conscious span recorder for
// attributing one engine call's wall time to its pipeline stages: scheduler
// tasks (rewrite/compile/generate/exec-chunk/join), cache probes and the
// server's per-request root span.
//
// A *Trace is carried through context.Context. Code instruments itself with
//
//	ctx, sp := trace.Start(ctx, "compile", "adder/full")
//	defer sp.End()
//	sp.Attr("outcome", "memory-hit")
//
// and the calls are no-ops when no trace is attached: Start returns the
// context unchanged and a zero Handle whose methods do nothing, costing one
// context value lookup and no allocations. That contract is what lets the
// compile hot path keep its pinned allocs/op with tracing disabled (see the
// plimbench trace/ family).
//
// Span timestamps are offsets from the trace's creation read from Go's
// monotonic clock, so spans order correctly even across wall-clock
// adjustments. Recording is mutex-guarded: spans live in one arena slice and
// a Handle indexes into it, so concurrent scheduler workers append safely.
package trace

import (
	"context"
	"sync"
	"time"
)

// An Attr is one key/value annotation on a span (cache outcome, fingerprint,
// steal origin, lane occupancy, ...).
type Attr struct {
	Key   string
	Value string
}

// A Span is one timed region. Start and Dur are monotonic offsets from the
// owning trace's creation; Parent is the span id of the enclosing span or
// -1 for a root. Worker is the scheduler worker that ran the span (-1 when
// not run by the pool) and QueueWait is how long the span's task sat
// runnable before a worker picked it up (zero for non-task spans).
type Span struct {
	ID        int32
	Parent    int32
	Kind      string
	Name      string
	Start     time.Duration
	Dur       time.Duration
	Worker    int
	QueueWait time.Duration
	Attrs     []Attr
}

// A Trace accumulates spans for one engine call or one server request.
type Trace struct {
	begin time.Time // monotonic anchor (span offsets)

	mu    sync.Mutex
	spans []Span
}

// New returns an empty trace anchored at the current time.
func New() *Trace {
	return &Trace{begin: time.Now()}
}

// Spans returns a snapshot copy of the recorded spans in creation order.
// Spans still open (End not yet called) have Dur < 0.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Len returns the number of spans recorded so far.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// scope is the context payload: which trace to record into and which span
// new children should parent under.
type scope struct {
	t      *Trace
	parent int32
}

type scopeKey struct{}

// NewContext returns a context carrying t; spans started from it parent at
// the root (-1). A nil t returns ctx unchanged.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, scopeKey{}, &scope{t: t, parent: -1})
}

// FromContext returns the trace carried by ctx, or nil. The lookup does not
// allocate, so callers may use it to gate trace-only work.
func FromContext(ctx context.Context) *Trace {
	if sc, ok := ctx.Value(scopeKey{}).(*scope); ok {
		return sc.t
	}
	return nil
}

// A Handle names one started span. The zero Handle is valid and inert: every
// method is a no-op, so untraced code paths pay only for the nil check.
type Handle struct {
	t  *Trace
	id int32
}

// Traced reports whether the handle records into a real trace.
func (h Handle) Traced() bool { return h.t != nil }

// ID returns the span id, or -1 for the zero Handle.
func (h Handle) ID() int32 {
	if h.t == nil {
		return -1
	}
	return h.id
}

// Start begins a span under ctx's current scope and returns a derived
// context in which h's span is the parent, so nested instrumentation builds
// a tree. When ctx carries no trace it returns ctx unchanged and a zero
// Handle without allocating.
func Start(ctx context.Context, kind, name string) (context.Context, Handle) {
	sc, ok := ctx.Value(scopeKey{}).(*scope)
	if !ok {
		return ctx, Handle{}
	}
	h := sc.t.startSpan(kind, name, sc.parent)
	return context.WithValue(ctx, scopeKey{}, &scope{t: sc.t, parent: h.id}), h
}

// StartNoCtx begins a span under ctx's current scope without deriving a new
// context — for leaf spans (cache probes, chunk timings) whose body starts
// no children. Zero Handle when ctx carries no trace.
func StartNoCtx(ctx context.Context, kind, name string) Handle {
	sc, ok := ctx.Value(scopeKey{}).(*scope)
	if !ok {
		return Handle{}
	}
	return sc.t.startSpan(kind, name, sc.parent)
}

func (t *Trace) startSpan(kind, name string, parent int32) Handle {
	off := time.Since(t.begin)
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{
		ID:     id,
		Parent: parent,
		Kind:   kind,
		Name:   name,
		Start:  off,
		Dur:    -1,
		Worker: -1,
	})
	t.mu.Unlock()
	return Handle{t: t, id: id}
}

// End closes the span at the current monotonic time. No-op on the zero
// Handle or if already ended.
func (h Handle) End() {
	if h.t == nil {
		return
	}
	off := time.Since(h.t.begin)
	h.t.mu.Lock()
	sp := &h.t.spans[h.id]
	if sp.Dur < 0 {
		sp.Dur = off - sp.Start
	}
	h.t.mu.Unlock()
}

// Attr annotates the span. No-op on the zero Handle.
func (h Handle) Attr(key, value string) {
	if h.t == nil {
		return
	}
	h.t.mu.Lock()
	sp := &h.t.spans[h.id]
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Value: value})
	h.t.mu.Unlock()
}

// SetWorker records which scheduler worker ran the span.
func (h Handle) SetWorker(id int) {
	if h.t == nil {
		return
	}
	h.t.mu.Lock()
	h.t.spans[h.id].Worker = id
	h.t.mu.Unlock()
}

// SetQueueWait records how long the span's task waited runnable before
// execution began.
func (h Handle) SetQueueWait(d time.Duration) {
	if h.t == nil {
		return
	}
	h.t.mu.Lock()
	h.t.spans[h.id].QueueWait = d
	h.t.mu.Unlock()
}
