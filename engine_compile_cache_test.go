package plim

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestEngineCompileVerifyMissRecomputes: under WithVerify, a program
// entry whose payload carries a valid CRC but decodes to a different
// program is a verify-miss; the compile recomputes, re-stores the entry,
// and the next engine is served the honest program from disk.
func TestEngineCompileVerifyMissRecomputes(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	eng := func() *Engine { return NewEngine(WithShrink(4), WithVerify(true), WithPersistentCache(dir)) }
	bin := func(rep *Report) []byte { return rep.Result.Program.AppendBinary(nil) }

	first := eng()
	m, err := first.Benchmark(ctx, "ctrl", 4)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := first.RunAll(ctx, m, []Config{Full, Naive})
	if err != nil {
		t.Fatal(err)
	}
	want, imposter := bin(reps[0]), bin(reps[1])

	// Swap the naive program into the full entry under a fresh checksum.
	entries, err := filepath.Glob(filepath.Join(dir, "prog-*-s2-*.plimcache"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("full program entries %v (%v), want one", entries, err)
	}
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	head, _, _ := strings.Cut(string(data), "payload ")
	forged := fmt.Sprintf("%spayload %d %08x\n%s", head, len(imposter), crc32.ChecksumIEEE(imposter), imposter)
	if err := os.WriteFile(entries[0], []byte(forged), 0o644); err != nil {
		t.Fatal(err)
	}

	second := eng()
	rep, err := second.Run(ctx, m, Full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bin(rep), want) {
		t.Fatal("a forged program entry was served")
	}
	if st, _ := second.PersistentCacheStats(); st.VerifyMisses != 1 || st.CompileMisses != 1 || st.CompileHits != 0 || st.Stores != 1 {
		t.Fatalf("second engine %+v, want one compile verify-miss, recomputed and stored", st)
	}

	third := eng()
	rep, err = third.Run(ctx, m, Full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bin(rep), want) {
		t.Fatal("the re-stored entry differs from a fresh compile")
	}
	if st, _ := third.PersistentCacheStats(); st.CompileHits != 1 || st.CompileMisses != 0 || st.VerifyMisses != 0 {
		t.Fatalf("third engine %+v, want one compile disk hit", st)
	}
}

// TestEngineCompileHitsUnderOtherModels: compiled programs are cached
// without their cost model, so hits served to a sweep whose first model
// differs from the engine's, and disk hits served to an engine priced
// differently from the one that stored them, are priced under the
// caller's model. WithVerify proves cost parity on every hit.
func TestEngineCompileHitsUnderOtherModels(t *testing.T) {
	ctx := context.Background()
	alt := DefaultCostModel()
	alt.Name = "alt"
	alt.RM3.EnergyPJ *= 2
	alt.Reset.Wear = 3
	opts := func() ExploreOptions {
		return ExploreOptions{Benchmarks: []string{"ctrl", "router"}, Shrinks: []int{4}, Models: []*CostModel{alt, DefaultCostModel()}}
	}
	csv := func(r *ExploreResult) string {
		var b bytes.Buffer
		if err := r.WriteCSV(&b, false); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	fresh, err := NewEngine(WithShrink(4), WithVerify(true)).Explore(ctx, opts())
	if err != nil {
		t.Fatal(err)
	}

	// A suite under the default model fills the compile cache; the sweep
	// then compiles nothing.
	eng := NewEngine(WithShrink(4), WithVerify(true))
	if _, err := eng.RunSuite(ctx, TableIConfigs(), "ctrl", "router"); err != nil {
		t.Fatal(err)
	}
	before := eng.compileCache.Counters()
	warm, err := eng.Explore(ctx, opts())
	if err != nil {
		t.Fatal(err)
	}
	if after := eng.compileCache.Counters(); after.Misses != before.Misses || after.Hits != before.Hits+10 {
		t.Fatalf("sweep compile probes %+v after %+v, want 10 hits and no miss", after, before)
	}
	if csv(warm) != csv(fresh) {
		t.Fatal("a sweep served from the compile cache differs from a fresh sweep")
	}

	// Disk hits, then memory hits, priced under a model the storing engine
	// did not use.
	dir := t.TempDir()
	m, err := eng.Benchmark(ctx, "router", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(WithShrink(4), WithPersistentCache(dir)).Run(ctx, m, Full); err != nil {
		t.Fatal(err)
	}
	want, err := NewEngine(WithShrink(4), WithCostModel(alt)).Run(ctx, m, Full)
	if err != nil {
		t.Fatal(err)
	}
	other := NewEngine(WithShrink(4), WithVerify(true), WithCostModel(alt), WithPersistentCache(dir))
	for _, tier := range []string{"disk", "memory"} {
		got, err := other.Run(ctx, m, Full)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Cost, want.Cost) || !reflect.DeepEqual(got.Result, want.Result) {
			t.Fatalf("%s hit priced %+v, a fresh compile %+v", tier, got.Cost, want.Cost)
		}
	}
	if st, _ := other.PersistentCacheStats(); st.CompileHits != 1 {
		t.Fatalf("%+v, want one compile disk hit", st)
	}
}

// TestEngineBudgetOneStaysCorrect: an engine whose budget holds no entry
// computes everything afresh with identical results, and every one of its
// three caches is empty afterwards.
func TestEngineBudgetOneStaysCorrect(t *testing.T) {
	ctx := context.Background()
	tiny := NewEngine(WithShrink(4), WithCacheBudget(1), WithVerify(true))
	full := NewEngine(WithShrink(4), WithVerify(true))
	for i := 0; i < 2; i++ {
		if got, want := suiteCSV(t, tiny), suiteCSV(t, full); got != want {
			t.Fatalf("pass %d: budget-1 table differs:\n%s\nwant\n%s", i, got, want)
		}
		m, err := tiny.Benchmark(ctx, "ctrl", 4)
		if err != nil {
			t.Fatal(err)
		}
		var outs [2]*ExecResult
		for j, e := range []*Engine{tiny, full} {
			rep, err := e.Run(ctx, m, Full)
			if err != nil {
				t.Fatal(err)
			}
			if outs[j], err = e.ExecuteBatch(ctx, rep.Result.Program, RandomBatch(m.NumPIs(), 100, 1), ExecOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(outs[0], outs[1]) {
			t.Fatalf("pass %d: budget-1 execution differs", i)
		}
	}
	lens := map[string]int{
		"benchmark": tiny.benchCache.Len(), "rewrite": tiny.rwCache.Len(),
		"compile": tiny.compileCache.Len(),
	}
	for name, n := range lens {
		if n != 0 {
			t.Errorf("budget-1 engine's %s cache holds %d entries", name, n)
		}
	}
	if n := full.compileCache.Len(); n == 0 {
		t.Error("the default engine cached no compile")
	}
}
