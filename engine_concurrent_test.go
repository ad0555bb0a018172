package plim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestEngineConcurrentMixedUse hammers one shared Engine from many
// goroutines mixing Run, RunAll, Rewrite, RunSuite and Benchmark, each call
// carrying its own per-call progress observer. It pins the safety
// assumption the serving layer (internal/server) is built on: one engine,
// arbitrary concurrent callers, per-request observers — no races (run
// under -race in CI), no cross-talk between observers, and results
// identical to a sequential reference.
func TestEngineConcurrentMixedUse(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency hammer")
	}
	var engineEvents atomic.Int64
	eng := NewEngine(
		WithEffort(2),
		WithShrink(8),
		WithWorkers(4),
		WithProgress(func(Event) { engineEvents.Add(1) }),
	)

	// Sequential reference results, computed on a private engine.
	ref := NewEngine(WithEffort(2), WithShrink(8), WithWorkers(1))
	refMIG, err := ref.Benchmark(context.Background(), "ctrl", 8)
	if err != nil {
		t.Fatal(err)
	}
	refRep, err := ref.Run(context.Background(), refMIG, Full)
	if err != nil {
		t.Fatal(err)
	}
	refRewrite, _, err := ref.Rewrite(context.Background(), refMIG, RewriteAlgorithm2)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 12
	const iters = 6
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = func() error {
				for i := 0; i < iters; i++ {
					// Each call gets its own observer; events must never be
					// delivered concurrently to it and must belong to work
					// this goroutine submitted.
					var inFlight atomic.Int32
					var myEvents atomic.Int64
					ctx := ContextWithProgress(context.Background(), func(ev Event) {
						if inFlight.Add(1) != 1 {
							panic("per-call observer invoked concurrently")
						}
						defer inFlight.Add(-1)
						myEvents.Add(1)
					})
					m, err := eng.Benchmark(ctx, "ctrl", 8)
					if err != nil {
						return err
					}
					switch (g + i) % 4 {
					case 0:
						rep, err := eng.Run(ctx, m, Full)
						if err != nil {
							return err
						}
						if rep.NumInstructions() != refRep.NumInstructions() || rep.NumRRAMs() != refRep.NumRRAMs() {
							return fmt.Errorf("Run diverged: #I %d vs %d", rep.NumInstructions(), refRep.NumInstructions())
						}
					case 1:
						out, _, err := eng.Rewrite(ctx, m, RewriteAlgorithm2)
						if err != nil {
							return err
						}
						if out.Fingerprint() != refRewrite.Fingerprint() {
							return fmt.Errorf("Rewrite diverged")
						}
					case 2:
						reps, err := eng.RunAll(ctx, m, TableIConfigs())
						if err != nil {
							return err
						}
						for ci, rep := range reps {
							if rep.Config.Name != TableIConfigs()[ci].Name {
								return fmt.Errorf("RunAll reports out of order")
							}
						}
						if reps[4].NumInstructions() != refRep.NumInstructions() {
							return fmt.Errorf("RunAll full column diverged")
						}
					case 3:
						sr, err := eng.RunSuite(ctx, []Config{Naive, Full}, "ctrl", "router")
						if err != nil {
							return err
						}
						if len(sr.Reports) != 2 || sr.Reports[0][1].NumInstructions() != refRep.NumInstructions() {
							return fmt.Errorf("RunSuite diverged")
						}
					}
				}
				return nil
			}()
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestContextObserverIsolation runs two concurrent Rewrite calls of
// *different* functions on one engine and asserts each per-call observer
// only ever sees its own function's events — the fan-out contract the
// server's per-request SSE streams rely on.
func TestContextObserverIsolation(t *testing.T) {
	eng := NewEngine(WithEffort(2), WithShrink(8), WithWorkers(2))
	names := []string{"ctrl", "router"}
	var wg sync.WaitGroup
	errs := make([]error, len(names))
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			errs[i] = func() error {
				m, err := eng.Benchmark(context.Background(), name, 8)
				if err != nil {
					return err
				}
				sawOwn := false
				var wrong error
				ctx := ContextWithProgress(context.Background(), func(ev Event) {
					rc, ok := ev.(EventRewriteCycle)
					if !ok {
						return
					}
					if rc.Function != name {
						wrong = fmt.Errorf("observer for %s saw event of %s", name, rc.Function)
					} else {
						sawOwn = true
					}
				})
				if _, _, err := eng.Rewrite(ctx, m, RewriteAlgorithm2); err != nil {
					return err
				}
				if wrong != nil {
					return wrong
				}
				if !sawOwn {
					return fmt.Errorf("observer for %s saw no events (uncached rewrite must emit)", name)
				}
				return nil
			}()
		}(i, name)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatal(err, i)
		}
	}
}

// TestContextObserverAndEngineObserverBothFire pins the fan-out: one call,
// both the construction-time callback and the per-call observer receive
// the same events.
func TestContextObserverAndEngineObserverBothFire(t *testing.T) {
	var engineSaw, callSaw []Event
	eng := NewEngine(WithEffort(1), WithShrink(8), WithWorkers(1),
		WithProgress(func(ev Event) { engineSaw = append(engineSaw, ev) }))
	m, err := eng.Benchmark(context.Background(), "ctrl", 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx := ContextWithProgress(context.Background(), func(ev Event) { callSaw = append(callSaw, ev) })
	if _, err := eng.Run(ctx, m, Full); err != nil {
		t.Fatal(err)
	}
	if len(callSaw) == 0 || len(callSaw) != len(engineSaw) {
		t.Fatalf("observer mismatch: engine saw %d events, call saw %d", len(engineSaw), len(callSaw))
	}
	for i := range callSaw {
		if callSaw[i] != engineSaw[i] {
			t.Fatalf("event %d differs between observers", i)
		}
	}
}
