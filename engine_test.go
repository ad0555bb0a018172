package plim

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"plim/internal/core"
)

// engineTestMIG builds a small function with enough structure for every
// rewriting pass to have something to do.
func engineTestMIG(t *testing.T) *MIG {
	t.Helper()
	b := NewNetlistBuilder("etest")
	x := b.Input("x", 6)
	y := b.Input("y", 6)
	sum, carry := b.Add(x, y, Const0)
	b.Output("s", sum)
	b.OutputBit("c", carry)
	return b.M
}

// engineRandomMIG builds structurally distinct small functions (the width
// varies with the seed, so fingerprints differ).
func engineRandomMIG(seed int64) *MIG {
	b := NewNetlistBuilder("etest-rnd")
	w := 3 + int(seed)
	x := b.Input("x", w)
	y := b.Input("y", w)
	sum, carry := b.Add(x, y, Const0)
	b.Output("s", sum)
	b.OutputBit("c", carry)
	return b.M
}

func TestEngineOptionAccessors(t *testing.T) {
	eng := NewEngine(WithEffort(3), WithWorkers(2), WithShrink(4))
	if eng.Effort() != 3 || eng.Workers() != 2 || eng.Shrink() != 4 {
		t.Fatalf("options not applied: effort=%d workers=%d shrink=%d",
			eng.Effort(), eng.Workers(), eng.Shrink())
	}
	def := NewEngine()
	if def.Effort() != DefaultEffort || def.Workers() < 1 || def.Shrink() != 1 {
		t.Fatalf("defaults wrong: effort=%d workers=%d shrink=%d",
			def.Effort(), def.Workers(), def.Shrink())
	}
	if def.CacheBudget() != DefaultCacheBudget {
		t.Fatalf("default cache budget = %d, want %d", def.CacheBudget(), DefaultCacheBudget)
	}
	if b := NewEngine(WithCacheBudget(7)).CacheBudget(); b != 7 {
		t.Fatalf("WithCacheBudget not applied: %d", b)
	}
}

// TestEngineCacheBudgetBoundsRewriteCache runs more distinct functions
// through a budget-1 engine than its caches may retain; results must stay
// correct and the rewrite cache must not grow past the budget.
func TestEngineCacheBudgetBoundsRewriteCache(t *testing.T) {
	eng := NewEngine(WithCacheBudget(1), WithEffort(2))
	ctx := context.Background()
	for seed := int64(1); seed <= 4; seed++ {
		m := engineRandomMIG(seed)
		rep, err := eng.Run(ctx, m, Full)
		if err != nil {
			t.Fatal(err)
		}
		if rep.NumInstructions() == 0 {
			t.Fatal("empty program")
		}
	}
	if n := eng.rwCache.Len(); n > 1 {
		t.Fatalf("rewrite cache holds %d entries over a budget of 1", n)
	}
}

func TestEngineInvalidOptionsSurface(t *testing.T) {
	ctx := context.Background()
	m := engineTestMIG(t)
	for name, eng := range map[string]*Engine{
		"effort":       NewEngine(WithEffort(-1)),
		"workers":      NewEngine(WithWorkers(0)),
		"shrink":       NewEngine(WithShrink(0)),
		"cache-budget": NewEngine(WithCacheBudget(0)),
	} {
		if _, err := eng.Run(ctx, m, Full); err == nil {
			t.Errorf("%s: invalid option not surfaced by Run", name)
		}
		if _, err := eng.RunSuite(ctx, TableIConfigs(), "ctrl"); err == nil {
			t.Errorf("%s: invalid option not surfaced by RunSuite", name)
		}
		if _, err := eng.Benchmark("ctrl"); err == nil {
			t.Errorf("%s: invalid option not surfaced by Benchmark", name)
		}
	}
}

// TestWithEffortZero checks the sentinel removal: effort 0 is a legitimate
// value that runs zero rewriting cycles (the legacy RunSuite silently
// rewrote it to DefaultEffort).
func TestWithEffortZero(t *testing.T) {
	m := engineTestMIG(t)
	sawCycle := false
	eng := NewEngine(WithEffort(0), WithProgress(func(ev Event) {
		if _, ok := ev.(EventRewriteCycle); ok {
			sawCycle = true
		}
	}))
	rep, err := eng.Run(context.Background(), m, Full)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rewrite.Cycles != 0 {
		t.Fatalf("WithEffort(0) ran %d rewrite cycles", rep.Rewrite.Cycles)
	}
	if sawCycle {
		t.Fatal("WithEffort(0) emitted a rewrite-cycle event")
	}
	// And through a whole suite: every report must show zero cycles.
	sr, err := eng.RunSuite(context.Background(), TableIConfigs(), "ctrl")
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range sr.Reports[0] {
		if rep.Rewrite.Cycles != 0 {
			t.Fatalf("suite config %s ran %d cycles at effort 0", rep.Config.Name, rep.Rewrite.Cycles)
		}
	}
}

// TestEngineRunCancelBetweenRewriteCycles cancels from inside a rewrite-
// cycle progress event and expects Run to stop with context.Canceled
// instead of finishing the remaining cycles and the compilation.
func TestEngineRunCancelBetweenRewriteCycles(t *testing.T) {
	m := engineTestMIG(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cycles := 0
	eng := NewEngine(WithEffort(50), WithProgress(func(ev Event) {
		if _, ok := ev.(EventRewriteCycle); ok {
			cycles++
			cancel()
		}
	}))
	_, err := eng.Run(ctx, m, Full)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if cycles != 1 {
		t.Fatalf("rewriting continued for %d cycles after cancellation", cycles)
	}
}

// TestEngineRunSuiteCancellation cancels after the first benchmark of a
// ≥3-benchmark suite completes; the suite must stop promptly (without
// running the remaining benchmarks) and return ctx.Err().
func TestEngineRunSuiteCancellation(t *testing.T) {
	benches := []string{"ctrl", "int2float", "dec", "router"}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done []string
	eng := NewEngine(WithEffort(1), WithShrink(4), WithWorkers(1),
		WithProgress(func(ev Event) {
			if d, ok := ev.(EventBenchmarkDone); ok {
				done = append(done, d.Benchmark)
				cancel()
			}
		}))
	sr, err := eng.RunSuite(ctx, TableIConfigs(), benches...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (sr=%v)", err, sr)
	}
	if len(done) >= len(benches) {
		t.Fatalf("all %d benchmarks ran despite cancellation", len(done))
	}
}

// TestEngineProgressOrderSingleWorker pins the deterministic event order of
// a one-worker suite: for each benchmark, in list order, one start event,
// the rewrite cycles of its configurations, then one done event — and the
// same sequence again on a second run.
func TestEngineProgressOrderSingleWorker(t *testing.T) {
	benches := []string{"ctrl", "int2float"}

	type step struct {
		kind  string
		bench string
		index int
	}
	capture := func() []step {
		var steps []step
		eng := NewEngine(WithEffort(1), WithShrink(4), WithWorkers(1),
			WithProgress(func(ev Event) {
				switch ev := ev.(type) {
				case EventBenchmarkStart:
					steps = append(steps, step{"start", ev.Benchmark, ev.Index})
				case EventRewriteCycle:
					steps = append(steps, step{"cycle", ev.Function, -1})
				case EventBenchmarkDone:
					if ev.Err != nil {
						t.Errorf("benchmark %s failed: %v", ev.Benchmark, ev.Err)
					}
					steps = append(steps, step{"done", ev.Benchmark, ev.Index})
				}
			}))
		if _, err := eng.RunSuite(context.Background(), TableIConfigs(), benches...); err != nil {
			t.Fatal(err)
		}
		return steps
	}

	steps := capture()
	cur := -1 // index of the benchmark currently between start and done
	for _, s := range steps {
		switch s.kind {
		case "start":
			if cur != -1 {
				t.Fatalf("start of %q while %q still open", s.bench, benches[cur])
			}
			cur = s.index
			if benches[cur] != s.bench {
				t.Fatalf("start index %d does not match %q", s.index, s.bench)
			}
		case "cycle":
			if cur == -1 || s.bench != benches[cur] {
				t.Fatalf("rewrite cycle for %q outside its benchmark window", s.bench)
			}
		case "done":
			if cur == -1 || s.index != cur {
				t.Fatalf("done for %q without matching start", s.bench)
			}
			cur = -1
		}
	}
	if cur != -1 {
		t.Fatal("benchmark window left open")
	}
	starts := 0
	for _, s := range steps {
		if s.kind == "start" {
			starts++
		}
	}
	if starts != len(benches) {
		t.Fatalf("%d start events for %d benchmarks", starts, len(benches))
	}

	again := capture()
	if len(again) != len(steps) {
		t.Fatalf("nondeterministic event count: %d vs %d", len(steps), len(again))
	}
	for i := range steps {
		if steps[i] != again[i] {
			t.Fatalf("event %d differs across runs: %+v vs %+v", i, steps[i], again[i])
		}
	}
}

// TestEngineRunMatchesSequential requires Engine.Run to produce
// byte-identical programs and identical statistics to core.Run, the
// sequential uncached reference.
func TestEngineRunMatchesSequential(t *testing.T) {
	for _, effort := range []int{0, 2, DefaultEffort} {
		mOld := engineTestMIG(t)
		mNew := engineTestMIG(t)
		old, err := core.Run(context.Background(), mOld, Full, effort)
		if err != nil {
			t.Fatal(err)
		}
		now, err := NewEngine(WithEffort(effort)).Run(context.Background(), mNew, Full)
		if err != nil {
			t.Fatal(err)
		}
		if old.Rewrite != now.Rewrite || old.Writes != now.Writes {
			t.Fatalf("effort %d: stats diverge: %+v vs %+v", effort, old.Rewrite, now.Rewrite)
		}
		var a, b bytes.Buffer
		if err := old.Result.Program.WriteAsm(&a); err != nil {
			t.Fatal(err)
		}
		if err := now.Result.Program.WriteAsm(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("effort %d: core.Run and Engine.Run compiled different programs", effort)
		}
	}
}

// TestEngineRewrite drives the standalone rewriting entry point used by
// cmd/migstat: it must match rewrite statistics of a configuration run and
// preserve the function.
func TestEngineRewrite(t *testing.T) {
	m := engineTestMIG(t)
	eng := NewEngine(WithEffort(2))
	out, st, err := eng.Rewrite(context.Background(), m, RewriteAlgorithm2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles < 1 || out == nil {
		t.Fatalf("rewrite did not run: %+v", st)
	}
	res, err := Equivalent(m, out, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("rewriting changed the function at PO %d", res.PO)
	}
	// RewriteNone is the cleanup identity; its stats still carry the node
	// counts so callers can report N → M uniformly.
	same, st0, err := eng.Rewrite(context.Background(), m, RewriteNone)
	if err != nil || st0.Cycles != 0 || same == nil {
		t.Fatalf("RewriteNone: %v %+v", err, st0)
	}
	if st0.NodesBefore == 0 || st0.NodesAfter == 0 {
		t.Fatalf("RewriteNone stats not populated: %+v", st0)
	}
	if _, _, err := eng.Rewrite(context.Background(), m, RewriteKind(99)); err == nil {
		t.Fatal("unknown rewrite kind accepted")
	}
	// A cancelled context yields no result, matching every other path.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if out, _, err := eng.Rewrite(cancelled, m, RewriteNone); err == nil || out != nil {
		t.Fatalf("cancelled RewriteNone returned (%v, %v)", out, err)
	}
}

// TestEngineRunAll mirrors the core-level ordering guarantee through the
// facade.
func TestEngineRunAll(t *testing.T) {
	m := engineTestMIG(t)
	eng := NewEngine(WithEffort(1))
	reps, err := eng.RunAll(context.Background(), m, TableIConfigs())
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 5 {
		t.Fatalf("got %d reports", len(reps))
	}
	for i, cfg := range TableIConfigs() {
		if reps[i].Config.Name != cfg.Name {
			t.Fatalf("report %d is %q", i, reps[i].Config.Name)
		}
	}
}

// TestEngineBenchmarkDoneCarriesElapsed sanity-checks the timing payload on
// done events.
func TestEngineBenchmarkDoneCarriesElapsed(t *testing.T) {
	var elapsed time.Duration
	eng := NewEngine(WithEffort(1), WithShrink(8), WithWorkers(1),
		WithProgress(func(ev Event) {
			if d, ok := ev.(EventBenchmarkDone); ok {
				elapsed = d.Elapsed
			}
		}))
	if _, err := eng.RunSuite(context.Background(), []Config{Naive}, "ctrl"); err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Fatalf("done event carries no elapsed time: %v", elapsed)
	}
}

// TestWithCacheBenchmarkIsPrivate checks that cached benchmark builds hand
// out independent clones: mutating one must not leak into the next.
func TestWithCacheBenchmarkIsPrivate(t *testing.T) {
	eng := NewEngine(WithShrink(8))
	if !eng.Cached() {
		t.Fatal("caching must default to on")
	}
	a, err := eng.Benchmark("ctrl")
	if err != nil {
		t.Fatal(err)
	}
	fp := a.Fingerprint()
	b, err := eng.Benchmark("ctrl")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("cached Benchmark returned a shared instance")
	}
	if b.Fingerprint() != fp {
		t.Fatal("cached Benchmark differs from the first build")
	}
	a.AddPO(Const1, "junk") // mutate the first copy
	c, err := eng.Benchmark("ctrl")
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() != fp {
		t.Fatal("mutation of a returned benchmark leaked into the cache")
	}
	// The uncached engine still builds identical graphs.
	off := NewEngine(WithShrink(8), WithCache(false))
	if off.Cached() {
		t.Fatal("WithCache(false) ignored")
	}
	d, err := off.Benchmark("ctrl")
	if err != nil {
		t.Fatal(err)
	}
	if d.Fingerprint() != fp {
		t.Fatal("uncached Benchmark differs from cached build")
	}
}

// TestEngineCachedRunMatchesUncached runs the same function through a
// cached and an uncached engine; reports must be byte-identical, and the
// cached engine's second run must skip the rewrite (no cycle events) while
// still producing the same program.
func TestEngineCachedRunMatchesUncached(t *testing.T) {
	ctx := context.Background()
	cycleEvents := 0
	cached := NewEngine(WithEffort(2), WithProgress(func(ev Event) {
		if _, ok := ev.(EventRewriteCycle); ok {
			cycleEvents++
		}
	}))
	uncached := NewEngine(WithEffort(2), WithCache(false))

	first, err := cached.Run(ctx, engineTestMIG(t), Full)
	if err != nil {
		t.Fatal(err)
	}
	firstCycles := cycleEvents
	if firstCycles == 0 {
		t.Fatal("first cached run emitted no rewrite cycles")
	}
	second, err := cached.Run(ctx, engineTestMIG(t), Full)
	if err != nil {
		t.Fatal(err)
	}
	if cycleEvents != firstCycles {
		t.Fatal("second cached run re-ran the rewrite")
	}
	plain, err := uncached.Run(ctx, engineTestMIG(t), Full)
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]*Report{"cached-hit": second, "uncached": plain} {
		if rep.Rewrite != first.Rewrite || rep.Writes != first.Writes {
			t.Fatalf("%s: stats diverge", name)
		}
		var a, b bytes.Buffer
		if err := first.Result.Program.WriteBinary(&a); err != nil {
			t.Fatal(err)
		}
		if err := rep.Result.Program.WriteBinary(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: program differs", name)
		}
	}
}

// TestEngineCompileEvents checks that Run surrounds the compile stage with
// a start/done pair carrying the configuration and the #I/#R payload.
func TestEngineCompileEvents(t *testing.T) {
	var starts, dones []EventCompileDone
	eng := NewEngine(WithEffort(1), WithProgress(func(ev Event) {
		switch ev := ev.(type) {
		case EventCompileStart:
			starts = append(starts, EventCompileDone{Function: ev.Function, Config: ev.Config})
		case EventCompileDone:
			dones = append(dones, ev)
		}
	}))
	rep, err := eng.Run(context.Background(), engineTestMIG(t), Full)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 1 || len(dones) != 1 {
		t.Fatalf("got %d starts, %d dones, want 1 each", len(starts), len(dones))
	}
	if starts[0].Function != "etest" || starts[0].Config != "full" {
		t.Fatalf("start event misattributed: %+v", starts[0])
	}
	d := dones[0]
	if d.Function != "etest" || d.Config != "full" || d.Err != nil {
		t.Fatalf("done event misattributed: %+v", d)
	}
	if d.Instructions != rep.NumInstructions() || d.RRAMs != rep.NumRRAMs() {
		t.Fatalf("done event payload %d/%d does not match report %d/%d",
			d.Instructions, d.RRAMs, rep.NumInstructions(), rep.NumRRAMs())
	}
	for _, s := range []string{
		FormatEvent(EventCompileStart{Function: "f", Config: "full"}),
		FormatEvent(d),
	} {
		if s == "" || !strings.Contains(s, "compile") {
			t.Fatalf("FormatEvent rendering broken: %q", s)
		}
	}
}

// TestEngineRewriteCacheHitIsPrivate ensures a cached Engine.Rewrite hit
// returns a private clone, not the shared cache entry.
func TestEngineRewriteCacheHitIsPrivate(t *testing.T) {
	eng := NewEngine(WithEffort(2))
	first, st1, err := eng.Rewrite(context.Background(), engineTestMIG(t), RewriteAlgorithm2)
	if err != nil {
		t.Fatal(err)
	}
	second, st2, err := eng.Rewrite(context.Background(), engineTestMIG(t), RewriteAlgorithm2)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatalf("cached rewrite stats diverge: %+v vs %+v", st1, st2)
	}
	if first == second {
		t.Fatal("Engine.Rewrite handed the shared cache entry to two callers")
	}
	fp := second.Fingerprint()
	first.AddPO(Const1, "junk")
	third, _, err := eng.Rewrite(context.Background(), engineTestMIG(t), RewriteAlgorithm2)
	if err != nil {
		t.Fatal(err)
	}
	if third.Fingerprint() != fp {
		t.Fatal("mutating a returned rewrite leaked into the cache")
	}
}

// TestEngineRewriteUncachedEffortZeroIsPrivate: even with caching off and
// effort 0 (where the rewriter hands the input back), Engine.Rewrite must
// honour its "returned MIG is always private" guarantee.
func TestEngineRewriteUncachedEffortZeroIsPrivate(t *testing.T) {
	eng := NewEngine(WithCache(false), WithEffort(0))
	m := engineTestMIG(t)
	out, st, err := eng.Rewrite(context.Background(), m, RewriteAlgorithm1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != 0 {
		t.Fatalf("effort 0 ran %d cycles", st.Cycles)
	}
	if out == m {
		t.Fatal("Rewrite returned the caller's own MIG")
	}
}
