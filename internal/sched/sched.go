// Package sched is the engine-wide work-stealing DAG scheduler. Callers
// build dependency graphs of typed tasks (benchmark generation, rewriting,
// compilation, execution chunks, aggregation joins) and a fixed pool of
// workers executes them: every worker owns a LIFO deque of runnable tasks,
// external submissions land in a global injector queue ordered by deadline,
// and a worker that runs dry steals half of a random victim's deque. The
// result is one process-wide schedule: a suite's compile fan-out overlaps
// the next benchmark's rewrite, and server requests interleave at task
// granularity instead of queueing whole.
//
// Determinism contract: with a single worker, tasks run in depth-first
// creation order — no task of a graph runs before Wait, which hands the
// graph's dependency-free tasks to the injector in creation order, and a
// completed task's newly-ready dependents are pushed onto the worker's
// deque in reverse creation order, so the LIFO pop walks them oldest-first
// before returning to the injector. The order therefore does not depend on
// how fast the builder adds tasks. This reproduces the sequential
// execution order of the pre-scheduler staged runner exactly, which is
// what keeps single-worker progress-event streams stable across runs (and
// is pinned by engine tests).
//
// Priority: every graph carries an optional deadline (servers map a
// request's timeout to it). The injector is a min-heap on (effective
// deadline, submission order), and a worker prefers the injector's head
// over its own deque when the head's graph deadline is strictly earlier
// than that of its local work — so near-deadline flights are picked up
// first and a long suite cannot starve a small compile request.
//
// Fairness: a task's effective deadline is min(graph deadline, enqueue
// time + AgingHorizon), fixed when it enters the injector. Deadline-free
// tasks therefore age into priority instead of waiting behind an unbounded
// stream of deadline flights: after the horizon they outrank any newly
// arriving deadline further out, which bounds injector starvation. Among
// deadline-free tasks the aged ordering is still FIFO (enqueue times are
// monotone under the pool lock), so the single-worker determinism contract
// is unchanged. Stats reports the worst observed injector wait.
//
// Cancellation: a graph's context cancels the whole graph. Workers never
// start a task whose graph is cancelled — the task is skipped, still counts
// toward graph completion (so Wait drains), and its dependents cascade the
// same way. Tasks that already started run to completion; task bodies see
// the graph context and honour it at their own cancellation points.
package sched

import (
	"context"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"plim/internal/progress"
	"plim/internal/stats"
	"plim/internal/trace"
)

// Kind classifies a task for latency accounting and progress events.
type Kind uint8

// Task kinds.
const (
	KindGenerate  Kind = iota // benchmark MIG generation
	KindRewrite               // a shared rewrite stage
	KindCompile               // one configuration's compile/alloc stage
	KindExecChunk             // a range of 64-lane execution chunks
	KindJoin                  // aggregation / bookkeeping barrier
	numKinds
)

// String names the kind (used in metrics labels and progress events).
func (k Kind) String() string {
	switch k {
	case KindGenerate:
		return "generate"
	case KindRewrite:
		return "rewrite"
	case KindCompile:
		return "compile"
	case KindExecChunk:
		return "exec_chunk"
	case KindJoin:
		return "join"
	}
	return "?"
}

// Kinds lists every task kind in label order (for metrics rendering).
func Kinds() []Kind {
	return []Kind{KindGenerate, KindRewrite, KindCompile, KindExecChunk, KindJoin}
}

// noDeadline orders deadline-free graphs after every real deadline.
const noDeadline = int64(math.MaxInt64)

// AgingHorizon bounds injector starvation: a task queued that long is
// treated as if its deadline were due, outranking every graph whose
// deadline is further out (see the fairness note in the package comment).
const AgingHorizon = 5 * time.Minute

// Task is one node of a dependency graph. Tasks are created with
// Graph.Task and scheduled automatically once the graph's Wait was called
// and every dependency completed.
type Task struct {
	g     *Graph
	kind  Kind
	label string
	fn    func(context.Context)

	// Scheduling state, guarded by the pool mutex.
	waits    int     // unfinished dependencies
	children []*Task // tasks waiting on this one
	nextRoot *Task   // the graph's next dependency-free task (Graph.roots)
	seq      uint64  // global submission order, tie-breaks equal deadlines

	// Injector state, set by injectLocked: enqueue time and the aged
	// priority key min(graph deadline, enqNs + AgingHorizon). Tasks that
	// become ready on a worker's deque never enter the injector and leave
	// both zero.
	enqNs       int64
	effDeadline int64

	// Tracing state: readyNs is when the task became runnable (injector
	// enqueue or local push — queue wait = start − readyNs), and stolen is
	// 1 + the victim worker's id when the task changed deques via a steal
	// (0 = ran where it was pushed). Both feed per-task trace spans only.
	readyNs int64
	stolen  int32
}

// Graph is a set of tasks with dependency edges, executed by a Pool.
type Graph struct {
	p        *Pool
	ctx      context.Context
	deadline int64 // unix nanos; noDeadline when absent
	obs      progress.Func

	pending int // unfinished tasks + 1 builder hold, guarded by pool mutex
	// roots lists the tasks created without a dependency, linked in
	// creation order through Task.nextRoot (a list, so that building a
	// graph allocates nothing beyond its tasks), until Wait injects them;
	// guarded by pool mutex.
	roots, lastRoot *Task
	doneCh          chan struct{}
}

// worker is one scheduler worker's state.
type worker struct {
	id     int     // index into Pool.workers, recorded on task trace spans
	deque  []*Task // LIFO: push/pop at the tail
	steals atomic.Uint64
	rng    uint64 // xorshift state for victim selection
}

// Pool is a fixed-size work-stealing worker pool. The zero value is not
// usable; construct with New. Workers start lazily on the first graph and
// run until Stop.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	workers []*worker
	inj     injector // min-heap on (deadline, seq)
	idle    int      // workers parked on cond
	stopped bool
	seq     uint64 // task submission counter

	startOnce sync.Once

	// runnableByKind counts the tasks queued across injector and deques,
	// per task kind — the input of scheduler-aware Retry-After estimates
	// (queued work × mean latency).
	runnableByKind [numKinds]atomic.Int64

	// maxWaitNs is the worst observed injector wait (enqueue → pop), the
	// starvation metric the aging horizon bounds.
	maxWaitNs atomic.Int64

	// lat[kind] accumulates task-latency histograms.
	lat [numKinds]*stats.Latency
}

// New returns a pool of n workers (n < 1 is treated as 1). Worker
// goroutines are not started until the first graph is created.
func New(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{workers: make([]*worker, n)}
	p.cond = sync.NewCond(&p.mu)
	for i := range p.workers {
		p.workers[i] = &worker{id: i, rng: uint64(i)*0x9e3779b97f4a7c15 + 1}
	}
	for k := range p.lat {
		p.lat[k] = stats.NewLatency(latBuckets)
	}
	return p
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return len(p.workers) }

// start launches the worker goroutines (idempotent).
func (p *Pool) start() {
	p.startOnce.Do(func() {
		for i := range p.workers {
			go p.run(p.workers[i])
		}
	})
}

// Stop shuts the pool down: workers finish the tasks already queued, then
// exit. Graphs must not be created on a stopped pool.
func (p *Pool) Stop() {
	p.mu.Lock()
	p.stopped = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// NewGraph starts an empty task graph on the pool. The context governs
// cancellation of every task in the graph; Wait returns its error once the
// graph has drained. The context's deadline, if any, also orders the
// graph's tasks in the injector: earlier deadlines are picked up first,
// and graphs without one have the lowest priority (FIFO among
// themselves). The progress observer carried by the context, if any,
// receives a TaskStart/TaskDone event pair around every executed task
// (skipped tasks emit nothing); it may be invoked concurrently from
// workers.
func (p *Pool) NewGraph(ctx context.Context) *Graph {
	p.start()
	g := &Graph{
		p:        p,
		ctx:      ctx,
		deadline: noDeadline,
		obs:      progress.FromContext(ctx),
		pending:  1, // builder hold, released by Wait
		doneCh:   make(chan struct{}),
	}
	if d, ok := ctx.Deadline(); ok {
		g.deadline = d.UnixNano()
	}
	return g
}

// Task adds a task to the graph. fn runs once Wait was called and every
// dep has completed; it receives the graph context. fn must handle its own
// errors (write them to captured slots) — the scheduler only tracks
// completion. No task runs before Wait, so Task must not be called after
// Wait, nor from a task body. Nil dependencies are ignored.
func (g *Graph) Task(kind Kind, label string, fn func(context.Context), deps ...*Task) *Task {
	t := &Task{g: g, kind: kind, label: label, fn: fn}
	p := g.p
	p.mu.Lock()
	g.pending++
	p.seq++
	t.seq = p.seq
	for _, d := range deps {
		if d == nil {
			continue
		}
		d.children = append(d.children, t)
		t.waits++
	}
	if t.waits == 0 {
		if g.lastRoot == nil {
			g.roots = t
		} else {
			g.lastRoot.nextRoot = t
		}
		g.lastRoot = t
	}
	p.mu.Unlock()
	return t
}

// Wait hands the graph's dependency-free tasks to the injector in creation
// order, releases the builder hold and blocks until every task of the
// graph has run or been skipped, then returns the graph context's error
// (nil when the graph completed uncancelled). Wait must not be called from
// a task body — a worker waiting on its own pool deadlocks the schedule.
func (g *Graph) Wait() error {
	p := g.p
	p.mu.Lock()
	for t := g.roots; t != nil; t = t.nextRoot {
		// External submission: no worker context, go through the injector.
		p.injectLocked(t)
	}
	g.roots, g.lastRoot = nil, nil
	g.pending--
	done := g.pending == 0
	p.mu.Unlock()
	if done {
		close(g.doneCh)
	}
	<-g.doneCh
	return g.ctx.Err()
}

// injectLocked queues t on the global injector with its aged priority key.
// Enqueue times are taken under the pool mutex, so they are monotone with
// seq and deadline-free tasks stay FIFO among themselves. Pool mutex held.
func (p *Pool) injectLocked(t *Task) {
	t.enqNs = time.Now().UnixNano()
	t.readyNs = t.enqNs
	t.effDeadline = t.g.deadline
	if aged := t.enqNs + int64(AgingHorizon); aged < t.effDeadline {
		t.effDeadline = aged
	}
	p.inj.push(t)
	p.runnableByKind[t.kind].Add(1)
	if p.idle > 0 {
		p.cond.Signal()
	}
}

// popInjectorLocked pops the injector head, recording its queue wait in
// the starvation metric. Pool mutex held.
func (p *Pool) popInjectorLocked() *Task {
	t := p.inj.pop()
	if wait := time.Now().UnixNano() - t.enqNs; wait > p.maxWaitNs.Load() {
		p.maxWaitNs.Store(wait)
	}
	p.noteDequeuedLocked(t)
	return t
}

// noteDequeuedLocked maintains the runnable gauges for one dequeued task.
// Pool mutex held.
func (p *Pool) noteDequeuedLocked(t *Task) {
	p.runnableByKind[t.kind].Add(-1)
}

// pushLocalLocked appends newly-ready tasks to w's deque (callers pass
// them in reverse creation order so the LIFO pop yields creation order)
// and wakes one parked worker per task beyond the one w will pop itself.
// Pool mutex held.
func (p *Pool) pushLocalLocked(w *worker, ts []*Task) {
	if len(ts) > 0 {
		now := time.Now().UnixNano()
		for _, t := range ts {
			t.readyNs = now
		}
	}
	w.deque = append(w.deque, ts...)
	for _, t := range ts {
		p.runnableByKind[t.kind].Add(1)
	}
	for i := 1; i < len(ts) && p.idle > 0; i++ {
		p.cond.Signal()
	}
}

// next returns the next task for w, parking when the pool is empty. A nil
// return means the pool is stopped and drained.
func (p *Pool) next(w *worker) *Task {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		// Prefer local LIFO work unless the injector's head belongs to a
		// graph with a strictly earlier deadline — deadline pressure wins
		// over locality. The raw graph deadline decides here, not the aged
		// key: aging reorders waiting injector entries among themselves, it
		// never lets an aged root preempt a graph mid-execution (which would
		// break the single-worker FIFO contract).
		if n := len(w.deque); n > 0 {
			if h := p.inj.peek(); h != nil && h.g.deadline < w.deque[n-1].g.deadline {
				return p.popInjectorLocked()
			}
			t := w.deque[n-1]
			w.deque[n-1] = nil
			w.deque = w.deque[:n-1]
			p.noteDequeuedLocked(t)
			return t
		}
		if p.inj.peek() != nil {
			return p.popInjectorLocked()
		}
		// Steal half of a random victim's deque (the oldest half — the
		// victim keeps the hot tail it is about to pop).
		if t := p.stealLocked(w); t != nil {
			p.noteDequeuedLocked(t)
			return t
		}
		if p.stopped {
			return nil
		}
		p.idle++
		p.cond.Wait()
		p.idle--
	}
}

// stealLocked scans victims from a random start, moves the older half of
// the first non-empty deque onto w's, and returns the first stolen task.
// Pool mutex held.
func (p *Pool) stealLocked(w *worker) *Task {
	n := len(p.workers)
	if n < 2 {
		return nil
	}
	// xorshift64 — cheap, per-worker, no global rand contention.
	w.rng ^= w.rng << 13
	w.rng ^= w.rng >> 7
	w.rng ^= w.rng << 17
	start := int(w.rng % uint64(n))
	for i := 0; i < n; i++ {
		v := p.workers[(start+i)%n]
		if v == w || len(v.deque) == 0 {
			continue
		}
		half := (len(v.deque) + 1) / 2
		stolen := v.deque[:half]
		w.steals.Add(1)
		for _, s := range stolen {
			s.stolen = int32(v.id) + 1
		}
		t := stolen[0]
		// stolen is oldest-first; keep that age order on our LIFO deque by
		// pushing the rest newest-first (t, the oldest, runs right now).
		for j := len(stolen) - 1; j >= 1; j-- {
			w.deque = append(w.deque, stolen[j])
		}
		// The victim keeps its newer half, moved to the front of its own
		// backing array: a steal allocates nothing.
		kept := copy(v.deque, v.deque[half:])
		clear(v.deque[kept:])
		v.deque = v.deque[:kept]
		return t
	}
	return nil
}

// run is a worker's main loop.
func (p *Pool) run(w *worker) {
	for {
		t := p.next(w)
		if t == nil {
			return
		}
		p.exec(w, t)
	}
}

// exec runs (or skips) one task and completes it: dependents whose last
// dependency this was become runnable on w's deque, and the graph's
// pending count drops (releasing Wait at zero). Tasks of a cancelled graph
// skip the body but still complete, so cancelled graphs drain without
// running unstarted work.
func (p *Pool) exec(w *worker, t *Task) {
	g := t.g
	if g.ctx.Err() == nil {
		g.obs.Emit(progress.TaskStart{Kind: t.kind.String(), Label: t.label})
		// One span per executed task. When the graph context carries no
		// trace this is a zero Handle and tctx == g.ctx — no allocation.
		tctx, sp := trace.Start(g.ctx, t.kind.String(), t.label)
		start := time.Now()
		if sp.Traced() {
			sp.SetWorker(w.id)
			if t.readyNs > 0 {
				sp.SetQueueWait(time.Duration(start.UnixNano() - t.readyNs))
			}
			if t.stolen > 0 {
				sp.Attr("stolen_from", "w"+strconv.Itoa(int(t.stolen-1)))
			}
		}
		t.fn(tctx)
		elapsed := time.Since(start)
		sp.End()
		p.lat[t.kind].Observe(elapsed)
		g.obs.Emit(progress.TaskDone{Kind: t.kind.String(), Label: t.label, Elapsed: elapsed})
	}
	p.mu.Lock()
	var ready []*Task
	for _, c := range t.children {
		c.waits--
		if c.waits == 0 {
			ready = append(ready, c)
		}
	}
	t.children = nil
	// Reverse creation order: the LIFO pop then walks dependents
	// oldest-first (the determinism contract).
	for i, j := 0, len(ready)-1; i < j; i, j = i+1, j-1 {
		ready[i], ready[j] = ready[j], ready[i]
	}
	p.pushLocalLocked(w, ready)
	g.pending--
	done := g.pending == 0
	p.mu.Unlock()
	if done {
		close(g.doneCh)
	}
}

// injector is a min-heap of tasks on (effective deadline, submission seq).
// The effective deadline is the aged key set by injectLocked, so entries
// that waited past AgingHorizon rise above later-deadline arrivals.
type injector struct{ h []*Task }

func (q *injector) less(a, b *Task) bool {
	if a.effDeadline != b.effDeadline {
		return a.effDeadline < b.effDeadline
	}
	return a.seq < b.seq
}

func (q *injector) peek() *Task {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

func (q *injector) push(t *Task) {
	q.h = append(q.h, t)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(q.h[i], q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *injector) pop() *Task {
	t := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h[last] = nil
	q.h = q.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(q.h) && q.less(q.h[l], q.h[small]) {
			small = l
		}
		if r < len(q.h) && q.less(q.h[r], q.h[small]) {
			small = r
		}
		if small == i {
			break
		}
		q.h[i], q.h[small] = q.h[small], q.h[i]
		i = small
	}
	return t
}

// latBuckets are the task-latency histogram upper bounds, in seconds.
var latBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30}

// Stats is a point-in-time snapshot of scheduler state.
type Stats struct {
	Workers  int
	Runnable int      // tasks queued (injector + all deques), excluding running
	Steals   []uint64 // per-worker successful steal counts
	Latency  map[Kind]stats.LatencySnapshot
	// RunnableByKind splits Runnable per task kind. Combined with each
	// kind's mean latency it estimates the backlog drain time — the
	// scheduler-aware Retry-After input (kinds with zero queued tasks are
	// absent).
	RunnableByKind map[Kind]int
	// MaxInjectorWaitSeconds is the worst enqueue-to-pop wait any task
	// spent in the global injector since the pool started — the starvation
	// metric bounded by AgingHorizon plus one task's execution time.
	MaxInjectorWaitSeconds float64
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() Stats {
	st := Stats{
		Workers:                len(p.workers),
		Steals:                 make([]uint64, len(p.workers)),
		Latency:                make(map[Kind]stats.LatencySnapshot, int(numKinds)),
		RunnableByKind:         make(map[Kind]int, int(numKinds)),
		MaxInjectorWaitSeconds: float64(p.maxWaitNs.Load()) / 1e9,
	}
	for k := Kind(0); k < numKinds; k++ {
		if n := p.runnableByKind[k].Load(); n > 0 {
			st.RunnableByKind[k] = int(n)
			st.Runnable += int(n)
		}
		if h := p.lat[k].Snapshot(); h.Count > 0 {
			st.Latency[k] = h
		}
	}
	for i, w := range p.workers {
		st.Steals[i] = w.steals.Load()
	}
	return st
}
