package sched

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plim/internal/progress"
)

// TestSingleWorkerDepthFirstOrder pins the determinism contract: one worker
// executes a graph in depth-first creation order, because newly-ready
// dependents are pushed in reverse creation order onto a LIFO deque.
func TestSingleWorkerDepthFirstOrder(t *testing.T) {
	p := New(1)
	defer p.Stop()
	g := p.NewGraph(context.Background(), GraphOptions{})
	var order []string
	rec := func(name string) func(context.Context) {
		return func(context.Context) { order = append(order, name) }
	}
	a := g.Task(KindGenerate, "a", rec("a"))
	b1 := g.Task(KindRewrite, "b1", rec("b1"), a)
	b2 := g.Task(KindRewrite, "b2", rec("b2"), a)
	g.Task(KindCompile, "c1", rec("c1"), b1)
	g.Task(KindCompile, "c2", rec("c2"), b2)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b1", "c1", "b2", "c2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("execution order %v, want depth-first %v", order, want)
	}
}

// TestSingleWorkerGraphFIFO: deadline-free graphs drain from the injector
// in submission order on one worker.
func TestSingleWorkerGraphFIFO(t *testing.T) {
	p := New(1)
	defer p.Stop()
	var mu sync.Mutex
	var order []string
	graphs := make([]*Graph, 3)
	for i := range graphs {
		g := p.NewGraph(context.Background(), GraphOptions{})
		name := fmt.Sprintf("g%d", i)
		root := g.Task(KindGenerate, name, func(context.Context) {
			mu.Lock()
			order = append(order, name+"/root")
			mu.Unlock()
		})
		g.Task(KindJoin, name, func(context.Context) {
			mu.Lock()
			order = append(order, name+"/join")
			mu.Unlock()
		}, root)
		graphs[i] = g
	}
	for _, g := range graphs {
		if err := g.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"g0/root", "g0/join", "g1/root", "g1/join", "g2/root", "g2/join"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestDeadlinePriority: a near-deadline graph submitted while a long
// deadline-free graph floods the pool must be picked up ahead of the
// remaining flood — the fairness property that keeps a small compile
// request from starving behind a long suite.
func TestDeadlinePriority(t *testing.T) {
	p := New(2)
	defer p.Stop()
	long := p.NewGraph(context.Background(), GraphOptions{})
	var longDone atomic.Int64
	for i := 0; i < 40; i++ {
		long.Task(KindCompile, "slow", func(context.Context) {
			time.Sleep(2 * time.Millisecond)
			longDone.Add(1)
		})
	}
	// Give the flood a head start so workers are mid-flight.
	time.Sleep(5 * time.Millisecond)
	urgent := p.NewGraph(context.Background(), GraphOptions{Deadline: time.Now().Add(50 * time.Millisecond)})
	var doneAfter int64
	urgent.Task(KindCompile, "urgent", func(context.Context) {
		doneAfter = longDone.Load()
	})
	if err := urgent.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := long.Wait(); err != nil {
		t.Fatal(err)
	}
	if doneAfter >= 39 {
		t.Fatalf("urgent task ran after %d/40 long tasks — starved behind the deadline-free flood", doneAfter)
	}
}

// TestCancellationSkipsUnstartedDependents: cancelling a graph mid-root
// must prevent unstarted dependents from ever running, while Wait still
// drains and returns the context error itself.
func TestCancellationSkipsUnstartedDependents(t *testing.T) {
	p := New(2)
	defer p.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	g := p.NewGraph(ctx, GraphOptions{})
	started := make(chan struct{})
	var ran atomic.Bool
	root := g.Task(KindRewrite, "root", func(c context.Context) {
		close(started)
		<-c.Done()
	})
	g.Task(KindCompile, "dep", func(context.Context) { ran.Store(true) }, root)
	g.Task(KindJoin, "join", func(context.Context) { ran.Store(true) }, root)
	<-started
	cancel()
	if err := g.Wait(); err != context.Canceled {
		t.Fatalf("Wait returned %v, want context.Canceled", err)
	}
	if ran.Load() {
		t.Fatal("dependent of a cancelled root ran")
	}
}

// TestPreCancelledGraphDrains: a graph built on an already-cancelled
// context never runs any task body.
func TestPreCancelledGraphDrains(t *testing.T) {
	p := New(2)
	defer p.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := p.NewGraph(ctx, GraphOptions{})
	var ran atomic.Bool
	r := g.Task(KindGenerate, "r", func(context.Context) { ran.Store(true) })
	g.Task(KindJoin, "j", func(context.Context) { ran.Store(true) }, r)
	if err := g.Wait(); err != context.Canceled {
		t.Fatalf("Wait returned %v", err)
	}
	if ran.Load() {
		t.Fatal("task body ran on a pre-cancelled graph")
	}
}

// TestStealsOccur: a wide fan-out landing on one worker's deque must be
// stolen by its peers.
func TestStealsOccur(t *testing.T) {
	p := New(4)
	defer p.Stop()
	g := p.NewGraph(context.Background(), GraphOptions{})
	// The root waits until the whole fan-out hangs off it: a root that
	// finished earlier would send the remaining tasks through the injector,
	// where idle workers take them without stealing.
	attached := make(chan struct{})
	root := g.Task(KindGenerate, "root", func(context.Context) { <-attached })
	var n atomic.Int64
	for i := 0; i < 64; i++ {
		g.Task(KindCompile, "fan", func(context.Context) {
			time.Sleep(time.Millisecond)
			n.Add(1)
		}, root)
	}
	close(attached)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 64 {
		t.Fatalf("ran %d/64 fan-out tasks", n.Load())
	}
	st := p.Stats()
	var steals uint64
	for _, s := range st.Steals {
		steals += s
	}
	if steals == 0 {
		t.Fatal("no steals recorded for a 64-wide fan-out on 4 workers")
	}
}

// TestStats: runnable drains to zero, and latency histograms account every
// executed task under its kind.
func TestStats(t *testing.T) {
	p := New(2)
	defer p.Stop()
	g := p.NewGraph(context.Background(), GraphOptions{})
	root := g.Task(KindGenerate, "g", func(context.Context) {})
	for i := 0; i < 5; i++ {
		g.Task(KindCompile, "c", func(context.Context) {}, root)
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Runnable != 0 {
		t.Fatalf("runnable = %d after drain", st.Runnable)
	}
	if st.Workers != 2 || len(st.Steals) != 2 {
		t.Fatalf("workers = %d, steals len %d", st.Workers, len(st.Steals))
	}
	if st.Latency[KindGenerate].Count != 1 {
		t.Fatalf("generate count = %d, want 1", st.Latency[KindGenerate].Count)
	}
	if st.Latency[KindCompile].Count != 5 {
		t.Fatalf("compile count = %d, want 5", st.Latency[KindCompile].Count)
	}
	var b uint64
	for _, c := range st.Latency[KindCompile].Buckets {
		b += c
	}
	if b != 5 {
		t.Fatalf("compile bucket sum = %d, want 5", b)
	}
}

// TestTaskEvents: every executed task emits a TaskStart/TaskDone pair to
// the graph observer; skipped tasks emit nothing.
func TestTaskEvents(t *testing.T) {
	p := New(1)
	defer p.Stop()
	var mu sync.Mutex
	var evs []string
	obs := func(ev progress.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch e := ev.(type) {
		case progress.TaskStart:
			evs = append(evs, "start:"+e.Kind+":"+e.Label)
		case progress.TaskDone:
			if e.Elapsed < 0 {
				t.Errorf("negative elapsed on %s", e.Label)
			}
			evs = append(evs, "done:"+e.Kind+":"+e.Label)
		}
	}
	g := p.NewGraph(progress.NewContext(context.Background(), obs), GraphOptions{})
	r := g.Task(KindRewrite, "alg1", func(context.Context) {})
	g.Task(KindCompile, "full", func(context.Context) {}, r)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	want := []string{"start:rewrite:alg1", "done:rewrite:alg1", "start:compile:full", "done:compile:full"}
	if fmt.Sprint(evs) != fmt.Sprint(want) {
		t.Fatalf("events %v, want %v", evs, want)
	}
}

// TestDependencyOnCompletedTask: adding a task whose dependency already
// completed must schedule it immediately rather than wait forever.
func TestDependencyOnCompletedTask(t *testing.T) {
	p := New(2)
	defer p.Stop()
	g := p.NewGraph(context.Background(), GraphOptions{})
	done := make(chan struct{})
	root := g.Task(KindGenerate, "root", func(context.Context) { close(done) })
	<-done
	time.Sleep(2 * time.Millisecond) // let the completion bookkeeping land
	var ran atomic.Bool
	g.Task(KindJoin, "late", func(context.Context) { ran.Store(true) }, root, nil)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("late task never ran")
	}
}

// TestStealStorm hammers one pool from 16 goroutines submitting mixed
// diamond DAGs — run under -race in CI. Every task must execute exactly
// once.
func TestStealStorm(t *testing.T) {
	p := New(8)
	defer p.Stop()
	const goroutines = 16
	const rounds = 30
	var total atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var opts GraphOptions
				if id%3 == 0 {
					opts.Deadline = time.Now().Add(time.Duration(50+id) * time.Millisecond)
				}
				g := p.NewGraph(context.Background(), opts)
				count := func(context.Context) { total.Add(1) }
				root := g.Task(KindGenerate, "root", count)
				width := 1 + (id+r)%5
				deps := make([]*Task, width)
				for w := 0; w < width; w++ {
					mid := g.Task(KindRewrite, "mid", count, root)
					deps[w] = g.Task(KindCompile, "leaf", count, mid)
				}
				g.Task(KindJoin, "join", count, deps...)
				if err := g.Wait(); err != nil {
					t.Errorf("goroutine %d round %d: %v", id, r, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	want := int64(0)
	for i := 0; i < goroutines; i++ {
		for r := 0; r < rounds; r++ {
			want += int64(2 + 2*(1+(i+r)%5))
		}
	}
	if total.Load() != want {
		t.Fatalf("ran %d tasks, want %d", total.Load(), want)
	}
}

// TestInjectorAging pins the aged priority key: a deadline-free task that
// has waited past AgingHorizon is due now, outranking every task whose
// (effective) deadline still lies ahead — including a near-deadline
// arrival, and a fortiori a far-deadline one. The heap is exercised
// directly with keys computed the way injectLocked fixes them at enqueue
// time.
func TestInjectorAging(t *testing.T) {
	p := New(1)
	defer p.Stop()
	now := time.Now().UnixNano()
	free := p.NewGraph(context.Background(), GraphOptions{})
	far := p.NewGraph(context.Background(), GraphOptions{Deadline: time.Now().Add(AgingHorizon + time.Hour)})
	near := p.NewGraph(context.Background(), GraphOptions{Deadline: time.Now().Add(time.Millisecond)})

	// One deadline-free task enqueued AgingHorizon+1min ago, then a
	// far-deadline and a near-deadline task enqueued now — submission order
	// aged, fresh, urgent.
	mk := func(g *Graph, name string, seq uint64, enqNs int64) *Task {
		tk := &Task{g: g, kind: KindCompile, label: name, seq: seq, enqNs: enqNs}
		tk.effDeadline = g.deadline
		if aged := enqNs + int64(AgingHorizon); aged < tk.effDeadline {
			tk.effDeadline = aged
		}
		return tk
	}
	aged := mk(free, "aged", 1, now-int64(AgingHorizon)-int64(time.Minute))
	fresh := mk(far, "far-deadline", 2, now)
	urgent := mk(near, "near-deadline", 3, now)

	var q injector
	q.push(aged)
	q.push(fresh)
	q.push(urgent)
	var order []string
	for q.peek() != nil {
		order = append(order, q.pop().label)
	}
	want := []string{"aged", "near-deadline", "far-deadline"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("injector pop order %v, want %v", order, want)
	}
}

// TestInjectLockedSetsAgedKey: injectLocked must fix the aged key at
// enqueue time — graph deadline when it is nearer than the horizon, the
// aged bound otherwise (deadline-free graphs in particular).
func TestInjectLockedSetsAgedKey(t *testing.T) {
	p := New(1)
	defer p.Stop()
	free := p.NewGraph(context.Background(), GraphOptions{})
	near := p.NewGraph(context.Background(), GraphOptions{Deadline: time.Now().Add(time.Second)})

	freeTask := &Task{g: free, kind: KindJoin}
	nearTask := &Task{g: near, kind: KindJoin}
	p.mu.Lock()
	p.injectLocked(freeTask)
	p.injectLocked(nearTask)
	// Drain so the pool's worker never sees these synthetic tasks.
	for p.inj.peek() != nil {
		p.popInjectorLocked()
	}
	p.mu.Unlock()

	if want := freeTask.enqNs + int64(AgingHorizon); freeTask.effDeadline != want {
		t.Fatalf("deadline-free task effDeadline = %d, want enq+horizon %d", freeTask.effDeadline, want)
	}
	if nearTask.effDeadline != near.deadline {
		t.Fatalf("near-deadline task effDeadline = %d, want graph deadline %d", nearTask.effDeadline, near.deadline)
	}
}

// TestStatsMaxInjectorWait: the starvation metric reports the worst
// enqueue-to-pop wait and the per-kind runnable split drains to empty.
func TestStatsMaxInjectorWait(t *testing.T) {
	p := New(1)
	defer p.Stop()
	g := p.NewGraph(context.Background(), GraphOptions{})
	block := make(chan struct{})
	g.Task(KindGenerate, "blocker", func(context.Context) { <-block })
	// While the worker is blocked, queued tasks accumulate injector wait
	// and show up in the per-kind runnable split.
	g.Task(KindCompile, "queued", func(context.Context) {})
	deadlineByKind := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadlineByKind) {
		if p.Stats().RunnableByKind[KindCompile] == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := p.Stats().RunnableByKind[KindCompile]; got != 1 {
		t.Fatalf("RunnableByKind[compile] = %d while queued, want 1", got)
	}
	time.Sleep(5 * time.Millisecond) // let the queued task accumulate wait
	close(block)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if len(st.RunnableByKind) != 0 {
		t.Fatalf("RunnableByKind = %v after drain, want empty", st.RunnableByKind)
	}
	if st.MaxInjectorWaitSeconds < 0.005 {
		t.Fatalf("MaxInjectorWaitSeconds = %g, want ≥ 5ms (the queued task waited behind the blocker)", st.MaxInjectorWaitSeconds)
	}
}
