package plim

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEngineSchedulerSurvivesConcurrentGC: an engine its caller discards
// mid-call, as in NewEngine(...).Explore(...), is unreachable while its
// graph still runs. The pool's GC cleanup must not stop the pool under
// that graph, or the call waits forever on tasks no worker will run. The
// sweep loops fresh engines beside a goroutine forcing collections, under
// a watchdog that fails the test once an iteration stalls. Without the
// fix the loop hangs within a few hundred to about 1500 iterations; the
// time cap keeps race-detector runs short.
func TestEngineSchedulerSurvivesConcurrentGC(t *testing.T) {
	iters, budget := 3000, 8*time.Second
	if testing.Short() {
		iters = 300
	}
	opts := ExploreOptions{
		Benchmarks: []string{"ctrl", "dec", "int2float", "router"},
		Shrinks:    []int{4},
		Efforts:    []int{1},
	}
	stop, gcDone := make(chan struct{}), make(chan struct{})
	defer func() { close(stop); <-gcDone }()
	go func() {
		defer close(gcDone)
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()

	var done atomic.Int64
	finished := make(chan error, 1)
	go func() {
		begin := time.Now()
		for i := 0; i < iters && time.Since(begin) < budget; i++ {
			if _, err := NewEngine(WithWorkers(2)).Explore(context.Background(), opts); err != nil {
				finished <- err
				return
			}
			done.Add(1)
		}
		finished <- nil
	}()

	const stall = 20 * time.Second
	tick := time.NewTicker(stall)
	defer tick.Stop()
	last := int64(-1)
	for {
		select {
		case err := <-finished:
			if err != nil {
				t.Fatal(err)
			}
			return
		case <-tick.C:
			n := done.Load()
			if n == last {
				t.Fatalf("Explore on a fresh engine hung at iteration %d (no progress for %v)", n, stall)
			}
			last = n
		}
	}
}

// TestEngineExecuteBatchConcurrentCallersAgree: concurrent executions of
// one program on one engine return identical results.
func TestEngineExecuteBatchConcurrentCallersAgree(t *testing.T) {
	// sin's program is large enough that its lowering overlaps all the
	// callers; a tiny program can finish before the others start.
	eng := NewEngine(WithShrink(2), WithEffort(0), WithWorkers(2))
	m, err := eng.Benchmark(context.Background(), "sin", 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), m, Full)
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Result.Program
	b := RandomBatch(len(p.PICells), 130, 3)

	const callers = 16
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		outs  [callers]*ExecResult
	)
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := eng.ExecuteBatch(context.Background(), p, b, ExecOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = res
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(outs[i], outs[0]) {
			t.Fatalf("caller %d's execution differs from caller 0's", i)
		}
	}
}

// TestEngineExecutionDependsOnlyOnItsProgram: an engine execution reads
// only the program it is given. Mutating a program after executing it must
// not change a later execution of an equal program, which holds its own
// instructions and PI/PO maps.
func TestEngineExecutionDependsOnlyOnItsProgram(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine(WithShrink(4), WithWorkers(1))
	m, err := eng.Benchmark(ctx, "ctrl", 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(ctx, m, Full)
	if err != nil {
		t.Fatal(err)
	}
	first := rep.Result.Program
	var buf bytes.Buffer
	if err := first.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	second, err := ReadProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExhaustiveBatch(len(first.PICells))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ExecuteBatch(ctx, first, b, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := range first.POs {
		first.POs[i].Neg = !first.POs[i].Neg
	}
	got, err := eng.ExecuteBatch(ctx, second, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExecuteBatch(second, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Fatal("a mutation of an earlier executed program changed a later execution")
	}
}
