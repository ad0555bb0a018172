package plim

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"plim/internal/isa"
)

// persistSubset keeps the persistent-cache tests fast while covering a
// functional and a synthetic benchmark.
var persistSubset = []string{"ctrl", "router"}

const persistShrink = 4

func suiteCSV(t *testing.T, eng *Engine) string {
	t.Helper()
	sr, err := eng.RunSuite(context.Background(), TableIConfigs(), persistSubset...)
	if err != nil {
		t.Fatal(err)
	}
	d, err := TableI(sr)
	if err != nil {
		t.Fatal(err)
	}
	return d.Grid().CSV()
}

// TestPersistentCacheWarmSecondEngine is the PR's acceptance criterion at
// the library level: a second engine (standing in for a second CLI
// invocation) over a warm cache directory performs zero rewrite cycles —
// asserted via progress events — and produces byte-identical tables.
func TestPersistentCacheWarmSecondEngine(t *testing.T) {
	dir := t.TempDir()

	var mu sync.Mutex
	cycles := 0
	countCycles := WithProgress(func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		if _, ok := ev.(EventRewriteCycle); ok {
			cycles++
		}
	})

	cold := NewEngine(WithShrink(persistShrink), WithPersistentCache(dir), countCycles)
	baseline := NewEngine(WithShrink(persistShrink)) // no persistence at all
	csvCold := suiteCSV(t, cold)
	if csvCold != suiteCSV(t, baseline) {
		t.Fatal("persistent-cache run differs from a plain run")
	}
	if cycles == 0 {
		t.Fatal("cold run emitted no rewrite cycles")
	}
	st, ok := cold.PersistentCacheStats()
	if !ok || st.Stores == 0 {
		t.Fatalf("cold run persisted nothing: %+v ok=%v", st, ok)
	}

	cycles = 0
	warm := NewEngine(WithShrink(persistShrink), WithPersistentCache(dir), countCycles)
	csvWarm := suiteCSV(t, warm)
	if cycles != 0 {
		t.Fatalf("warm engine performed %d rewrite cycles, want 0", cycles)
	}
	if csvWarm != csvCold {
		t.Fatalf("warm table differs from cold table:\n--- cold ---\n%s\n--- warm ---\n%s", csvCold, csvWarm)
	}
	st, _ = warm.PersistentCacheStats()
	if st.RewriteHits == 0 || st.BenchmarkHits == 0 {
		t.Fatalf("warm engine reports no disk hits: %+v", st)
	}
	if st.RewriteMisses != 0 || st.BenchmarkMisses != 0 {
		t.Fatalf("warm engine missed on disk: %+v", st)
	}
}

// TestPersistentCacheProgramParity pins disk-served rewrites byte-identical
// to freshly computed ones at the program level, across every Table I
// configuration.
func TestPersistentCacheProgramParity(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	prime := NewEngine(WithShrink(persistShrink), WithPersistentCache(dir))
	m, err := prime.Benchmark(ctx, "ctrl", persistShrink)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewEngine(WithShrink(persistShrink)) // computes everything
	warm := NewEngine(WithShrink(persistShrink), WithPersistentCache(dir))
	for _, cfg := range TableIConfigs() {
		if _, err := prime.Run(ctx, m, cfg); err != nil { // populate the disk
			t.Fatal(err)
		}
		rf, err := fresh.Run(ctx, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rw, err := warm.Run(ctx, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var pf, pw bytes.Buffer
		if err := rf.Result.Program.WriteBinary(&pf); err != nil {
			t.Fatal(err)
		}
		if err := rw.Result.Program.WriteBinary(&pw); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pf.Bytes(), pw.Bytes()) {
			t.Fatalf("%s: disk-served program differs from freshly computed", cfg.Name)
		}
		if rf.Rewrite != rw.Rewrite {
			t.Fatalf("%s: rewrite stats differ: %+v vs %+v", cfg.Name, rf.Rewrite, rw.Rewrite)
		}
	}
	if st, _ := warm.PersistentCacheStats(); st.RewriteHits == 0 {
		t.Fatalf("warm engine never hit the disk: %+v", st)
	}
}

// TestPersistentCacheConcurrentEngines runs two engines over one cache
// directory at the same time (two processes sharing a directory, modulo
// the process boundary); run under -race in CI. Both must succeed and
// agree byte-for-byte.
func TestPersistentCacheConcurrentEngines(t *testing.T) {
	dir := t.TempDir()
	results := make([]string, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng := NewEngine(WithShrink(persistShrink), WithPersistentCache(dir), WithWorkers(2))
			sr, err := eng.RunSuite(context.Background(), TableIConfigs(), persistSubset...)
			if err != nil {
				errs[i] = err
				return
			}
			d, err := TableI(sr)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = d.Grid().CSV()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
	}
	if results[0] != results[1] {
		t.Fatal("concurrent engines produced different tables")
	}
	if results[0] != suiteCSV(t, NewEngine(WithShrink(persistShrink))) {
		t.Fatal("concurrent engines diverged from the uncached reference")
	}
}

// TestPersistentCacheBadDirSurfaces: an unusable directory is reported by
// the first engine method, like any other invalid option.
func TestPersistentCacheBadDirSurfaces(t *testing.T) {
	eng := NewEngine(WithPersistentCache("/dev/null/not-a-dir"))
	if _, err := eng.Benchmark(context.Background(), "ctrl", 1); err == nil {
		t.Fatal("unusable cache directory not surfaced")
	}
}

// TestDiskWarmSuiteAllocatesLessThanAnInstruction: a warm Table I run over
// a primed disk cache, at shrink 2 and without WithVerify, allocates fewer
// bytes per compiled instruction than one decoded isa.Instruction takes:
// every compile hit reads the counts its program kept and decodes no
// instruction.
func TestDiskWarmSuiteAllocatesLessThanAnInstruction(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table I at shrink 2")
	}
	ctx := context.Background()
	dir := t.TempDir()
	if _, err := NewEngine(WithShrink(2), WithPersistentCache(dir)).RunSuite(ctx, TableIConfigs()); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(WithShrink(2), WithPersistentCache(dir))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sr, err := eng.RunSuite(ctx, TableIConfigs())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := eng.PersistentCacheStats(); st.CompileMisses != 0 || st.CompileHits == 0 {
		t.Fatalf("%+v: want every compile a disk hit", st)
	}
	insts := 0
	for _, row := range sr.Reports {
		for _, rep := range row {
			insts += rep.NumInstructions()
		}
	}
	perInst := float64(after.TotalAlloc-before.TotalAlloc) / float64(insts)
	if size := float64(unsafe.Sizeof(isa.Instruction{})); perInst >= size {
		t.Fatalf("%.1f bytes per compiled instruction over %d instructions, want fewer than %.0f", perInst, insts, size)
	}
	t.Logf("%.1f bytes per compiled instruction over %d instructions", perInst, insts)
}

// TestDiskWarmRunBenchmarkAllocsPinned pins the allocations of a warm
// RunBenchmark on a disk-primed engine, where every compile hits and the
// benchmark and rewritten graphs stay encoded. Each graph handle gets its
// recompute fallback on the first call; a later call that built one again
// would allocate two more per handle.
func TestDiskWarmRunBenchmarkAllocsPinned(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	if _, err := NewEngine(WithPersistentCache(dir)).RunBenchmark(ctx, "ctrl", persistShrink, Full); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(WithWorkers(1), WithPersistentCache(dir))
	run := func() {
		if _, err := eng.RunBenchmark(ctx, "ctrl", persistShrink, Full); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if st, _ := eng.PersistentCacheStats(); st.BenchmarkHits != 1 || st.RewriteHits != 1 || st.CompileHits != 1 {
		t.Fatalf("%+v: want the warm-up to hit the disk once per stage", st)
	}
	if n := testing.AllocsPerRun(100, run); n > 28 {
		t.Errorf("warm RunBenchmark: %v allocs/op, want at most 28", n)
	}
}
