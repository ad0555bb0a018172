package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"plim/internal/diskcache"
	"plim/internal/memo"
	"plim/internal/mig"
	"plim/internal/progress"
	"plim/internal/sched"
	"plim/internal/suite"
)

// testEnv returns an environment with unbounded caches on a scheduler of
// the given number of workers, stopped when the test ends.
func testEnv(t *testing.T, workers int) Env {
	pool := sched.New(workers)
	t.Cleanup(pool.Stop)
	return Env{Sched: pool, BenchCache: suite.NewCache(nil, nil), RewriteCache: NewRewriteCache(nil, nil), CompileCache: NewCompileCache(nil, nil)}
}

func randomMIG(name string, pis, nodes, pos int, seed int64) *mig.MIG {
	m := mig.New(name)
	rng := rand.New(rand.NewSource(seed))
	sigs := make([]mig.Signal, 0, pis+nodes)
	for i := 0; i < pis; i++ {
		sigs = append(sigs, m.AddPI(""))
	}
	for len(sigs) < pis+nodes {
		pick := func() mig.Signal {
			s := sigs[rng.Intn(len(sigs))]
			if rng.Intn(3) == 0 {
				s = s.Not()
			}
			return s
		}
		sigs = append(sigs, m.Maj(pick(), pick(), pick()))
	}
	for i := 0; i < pos; i++ {
		s := sigs[len(sigs)-1-rng.Intn(nodes/2)]
		if rng.Intn(4) == 0 {
			s = s.Not()
		}
		m.AddPO(s, "")
	}
	return m.Cleanup()
}

func TestNamedConfigs(t *testing.T) {
	cfgs := TableIConfigs()
	if len(cfgs) != 5 {
		t.Fatalf("Table I has 5 configurations, got %d", len(cfgs))
	}
	names := []string{"naive", "compiler21", "minwrite", "rewriting", "full"}
	for i, c := range cfgs {
		if c.Name != names[i] {
			t.Fatalf("config %d = %q, want %q", i, c.Name, names[i])
		}
	}
	cap := FullCap(20)
	if cap.MaxWrites != 20 || !strings.Contains(cap.Name, "20") {
		t.Fatalf("FullCap broken: %+v", cap)
	}
	if Full.MaxWrites != 0 {
		t.Fatalf("FullCap must not mutate Full")
	}
}

func TestRewriteKindString(t *testing.T) {
	if RewriteNone.String() != "none" || RewriteAlgorithm1.String() != "algorithm1" ||
		RewriteAlgorithm2.String() != "algorithm2" || RewriteKind(9).String() != "?" {
		t.Fatal("RewriteKind.String broken")
	}
}

func TestRunPreservesFunctionAcrossConfigs(t *testing.T) {
	m := randomMIG("f", 8, 120, 8, 11)
	cfgs := append(TableIConfigs(), FullCap(10), FullCap(50))
	for _, cfg := range cfgs {
		rep, err := Run(context.Background(), m, cfg, DefaultEffort)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if rep.Result == nil || rep.Result.Program == nil {
			t.Fatalf("%s: missing result", cfg.Name)
		}
		if rep.Writes.N != rep.NumRRAMs() {
			t.Fatalf("%s: summary over %d devices, #R=%d", cfg.Name, rep.Writes.N, rep.NumRRAMs())
		}
		if rep.NumInstructions() != rep.Result.NumInstructions {
			t.Fatalf("%s: #I accessor mismatch", cfg.Name)
		}
	}
}

func TestRunAllOrdersReports(t *testing.T) {
	m := randomMIG("f", 6, 60, 4, 5)
	reps, err := RunStaged(context.Background(), testEnv(t, 1), mig.NewRef(m), TableIConfigs(), 2)
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

// TestPaperTrendOnRandomControl checks the headline ordering of Table I on
// deterministic random control logic: the full scheme must beat the naive
// scheme on write-count deviation, and rewriting must cut instructions.
func TestPaperTrendOnRandomControl(t *testing.T) {
	var naiveSD, fullSD, naiveI, fullI float64
	for seed := int64(1); seed <= 5; seed++ {
		m := randomMIG("ctrl-like", 10, 300, 12, seed)
		naive, err := Run(context.Background(), m, Naive, DefaultEffort)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Run(context.Background(), m, Full, DefaultEffort)
		if err != nil {
			t.Fatal(err)
		}
		naiveSD += naive.Writes.StdDev
		fullSD += full.Writes.StdDev
		naiveI += float64(naive.NumInstructions())
		fullI += float64(full.NumInstructions())
	}
	if fullSD >= naiveSD {
		t.Fatalf("full scheme must reduce aggregate STDEV: naive %.2f vs full %.2f", naiveSD, fullSD)
	}
	if fullI >= naiveI {
		t.Fatalf("rewriting must reduce aggregate #I: naive %.0f vs full %.0f", naiveI, fullI)
	}
}

func TestCapImprovesBalanceAtCost(t *testing.T) {
	m := randomMIG("f", 10, 300, 10, 9)
	uncapped, err := Run(context.Background(), m, Full, DefaultEffort)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := Run(context.Background(), m, FullCap(10), DefaultEffort)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Writes.Max > 10 {
		t.Fatalf("cap violated: max = %d", capped.Writes.Max)
	}
	if capped.NumRRAMs() < uncapped.NumRRAMs() {
		t.Fatalf("capping cannot reduce #R: %d vs %d", capped.NumRRAMs(), uncapped.NumRRAMs())
	}
	if capped.Writes.StdDev > uncapped.Writes.StdDev {
		t.Fatalf("cap 10 should tighten the distribution: %.2f vs %.2f",
			capped.Writes.StdDev, uncapped.Writes.StdDev)
	}
}

func TestLifetimeAccessor(t *testing.T) {
	m := randomMIG("f", 6, 40, 4, 2)
	rep, err := Run(context.Background(), m, Full, 2)
	if err != nil {
		t.Fatal(err)
	}
	lt := rep.Lifetime(1000)
	if lt == 0 {
		t.Fatalf("lifetime must be positive for small programs")
	}
	if lt != 1000/rep.Writes.Max {
		t.Fatalf("lifetime = %d, want endurance/max = %d", lt, 1000/rep.Writes.Max)
	}
}

// TestPlanGroupsByKind pins the stage grouping of the Table I plan: three
// stages in first-appearance order, covering every configuration index
// exactly once.
func TestPlanGroupsByKind(t *testing.T) {
	stages := Plan(append(TableIConfigs(), FullCap(10), FullCap(20)))
	if len(stages) != 3 {
		t.Fatalf("Table I (+caps) plans into %d stages, want 3", len(stages))
	}
	wantKinds := []RewriteKind{RewriteNone, RewriteAlgorithm1, RewriteAlgorithm2}
	wantConfigs := [][]int{{0}, {1, 2}, {3, 4, 5, 6}}
	for i, st := range stages {
		if st.Kind != wantKinds[i] {
			t.Fatalf("stage %d kind = %v, want %v", i, st.Kind, wantKinds[i])
		}
		if len(st.Configs) != len(wantConfigs[i]) {
			t.Fatalf("stage %d has configs %v, want %v", i, st.Configs, wantConfigs[i])
		}
		for j, ci := range st.Configs {
			if ci != wantConfigs[i][j] {
				t.Fatalf("stage %d has configs %v, want %v", i, st.Configs, wantConfigs[i])
			}
		}
	}
	if len(Plan(nil)) != 0 {
		t.Fatal("empty plan must have no stages")
	}
}

// TestRunStagedMatchesSequential requires the staged runner — inline and
// fanned out, over an unbounded and a bounded cache — to produce
// byte-identical programs and identical per-device write counts to
// sequential Run calls.
func TestRunStagedMatchesSequential(t *testing.T) {
	m := randomMIG("f", 8, 150, 8, 7)
	cfgs := append(TableIConfigs(), FullCap(10), FullCap(50))
	want := make([]*Report, len(cfgs))
	for i, cfg := range cfgs {
		rep, err := Run(context.Background(), m, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}
	one, four := testEnv(t, 1).Sched, testEnv(t, 4).Sched
	for name, env := range map[string]Env{
		"inline":          {Sched: one, RewriteCache: NewRewriteCache(nil, nil), CompileCache: NewCompileCache(nil, nil)},
		"workers":         {Sched: four, RewriteCache: NewRewriteCache(nil, nil), CompileCache: NewCompileCache(nil, nil)},
		"inline+bounded":  {Sched: one, RewriteCache: NewRewriteCache(memo.NewBudget(1), nil), CompileCache: NewCompileCache(nil, nil)},
		"workers+bounded": {Sched: four, RewriteCache: NewRewriteCache(memo.NewBudget(2), nil), CompileCache: NewCompileCache(nil, nil)},
	} {
		got, err := RunStaged(context.Background(), env, mig.NewRef(m), cfgs, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range cfgs {
			if got[i].Config.Name != want[i].Config.Name {
				t.Fatalf("%s: report %d is %q", name, i, got[i].Config.Name)
			}
			if got[i].Rewrite != want[i].Rewrite || got[i].Writes != want[i].Writes {
				t.Fatalf("%s/%s: stats diverge", name, cfgs[i].Name)
			}
			var a, b bytes.Buffer
			if err := want[i].Result.Program.WriteBinary(&a); err != nil {
				t.Fatal(err)
			}
			if err := got[i].Result.Program.WriteBinary(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("%s/%s: staged program differs from sequential", name, cfgs[i].Name)
			}
			if !slices.Equal(want[i].Result.WriteCounts, got[i].Result.WriteCounts) {
				t.Fatalf("%s/%s: per-device write counts differ", name, cfgs[i].Name)
			}
		}
	}
}

// TestRunStagedRewritesOncePerStage counts first-cycle rewrite events: a
// staged run of the five Table I configurations must start exactly two
// rewrites (algorithm 1 and algorithm 2), not four.
func TestRunStagedRewritesOncePerStage(t *testing.T) {
	m := randomMIG("f", 8, 150, 8, 3)
	starts := map[string]int{}
	ctx := progress.NewContext(context.Background(), func(ev progress.Event) {
		if c, ok := ev.(progress.RewriteCycle); ok && c.Cycle == 1 {
			starts[c.Config]++
		}
	})
	_, err := RunStaged(ctx, testEnv(t, 1), mig.NewRef(m), TableIConfigs(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 2 || starts["algorithm1"] != 1 || starts["algorithm2"] != 1 {
		t.Fatalf("rewrite starts = %v, want one per shared pipeline", starts)
	}
}

// TestRewriteCacheHitSharesResult checks memoization: the second call with
// an equal-fingerprint function returns the same MIG instance without
// emitting rewrite events, and Len reports the entry.
func TestRewriteCacheHitSharesResult(t *testing.T) {
	cache := NewRewriteCache(nil, nil)
	m := randomMIG("f", 8, 120, 8, 21)
	events := 0
	obs := progress.Func(func(progress.Event) { events++ })
	ctx := progress.NewContext(context.Background(), obs)
	first, st1, err := cache.Rewrite(ctx, m, RewriteAlgorithm2, 2, "x")
	if err != nil {
		t.Fatal(err)
	}
	firstEvents := events
	if firstEvents == 0 {
		t.Fatal("computing call emitted no rewrite events")
	}
	// A structurally identical rebuild must hit.
	second, st2, err := cache.Rewrite(ctx, randomMIG("f", 8, 120, 8, 21), RewriteAlgorithm2, 2, "x")
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatal("cache hit returned a different instance")
	}
	if st1 != st2 {
		t.Fatalf("cache hit returned different stats: %+v vs %+v", st1, st2)
	}
	if events != firstEvents {
		t.Fatal("cache hit re-emitted rewrite events")
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", cache.Len())
	}
	// Different effort is a different key.
	if _, _, err := cache.Rewrite(context.Background(), m, RewriteAlgorithm2, 3, "x"); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d entries after a new effort, want 2", cache.Len())
	}
}

// TestRewriteCacheDoesNotCacheCancellation: a cancelled computation must
// not poison the cache; the next caller recomputes successfully.
func TestRewriteCacheDoesNotCacheCancellation(t *testing.T) {
	cache := NewRewriteCache(nil, nil)
	m := randomMIG("f", 8, 120, 8, 4)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := cache.Rewrite(cancelled, m, RewriteAlgorithm1, 2, "x"); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if cache.Len() != 0 {
		t.Fatalf("cancelled computation cached (%d entries)", cache.Len())
	}
	out, st, err := cache.Rewrite(context.Background(), m, RewriteAlgorithm1, 2, "x")
	if err != nil || out == nil || st.Cycles == 0 {
		t.Fatalf("retry after cancellation failed: %v %+v", err, st)
	}
}

// TestRewriteCacheSingleflight hammers one key from many goroutines; the
// underlying rewrite must run exactly once.
func TestRewriteCacheSingleflight(t *testing.T) {
	cache := NewRewriteCache(nil, nil)
	m := randomMIG("f", 8, 200, 8, 17)
	var computes atomic.Int32
	obs := progress.Func(func(ev progress.Event) {
		if c, ok := ev.(progress.RewriteCycle); ok && c.Cycle == 1 {
			computes.Add(1)
		}
	})
	var wg sync.WaitGroup
	outs := make([]*mig.MIG, 16)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, _, err := cache.Rewrite(progress.NewContext(context.Background(), obs), m, RewriteAlgorithm2, 3, "x")
			if err != nil {
				t.Error(err)
			}
			outs[i] = out
		}(i)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("rewrite computed %d times under contention, want 1", n)
	}
	for i := 1; i < len(outs); i++ {
		if outs[i] != outs[0] {
			t.Fatal("concurrent callers saw different instances")
		}
	}
}

// TestRewriteCacheNeverRetainsCallerMIG: with effort 0 the rewriter can
// return the caller's own graph; the cache must store a private copy so
// later caller mutations cannot corrupt hits.
func TestRewriteCacheNeverRetainsCallerMIG(t *testing.T) {
	cache := NewRewriteCache(nil, nil)
	m := randomMIG("f", 6, 50, 4, 8)
	nodesBefore := m.NumMaj()
	out, st, err := cache.Rewrite(context.Background(), m, RewriteAlgorithm2, 0, "x")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != 0 {
		t.Fatalf("effort 0 ran %d cycles", st.Cycles)
	}
	if out == m {
		t.Fatal("cache handed back the caller's own MIG as the entry")
	}
	// The caller keeps building on its graph; the cached entry must not see it.
	m.AddPO(m.Maj(m.PO(0), m.PO(1), mig.Const1), "junk")
	hit, _, err := cache.Rewrite(context.Background(), randomMIG("f", 6, 50, 4, 8), RewriteAlgorithm2, 0, "x")
	if err != nil {
		t.Fatal(err)
	}
	if hit.NumMaj() != nodesBefore || hit.NumPOs() != 4 {
		t.Fatalf("cache entry was mutated through the caller's MIG: maj=%d po=%d", hit.NumMaj(), hit.NumPOs())
	}
}

// TestRewriteCacheBudgetEvictsLRU checks the rewrite cache's size bound:
// over-budget completions evict the least-recently-used entry, an evicted
// key recomputes (new instance), and a recently-touched key survives. The
// byte budget is derived from the actual result sizes so it holds m1 plus
// either other result, but not all three.
func TestRewriteCacheBudgetEvictsLRU(t *testing.T) {
	m1 := randomMIG("f1", 6, 60, 4, 1)
	m2 := randomMIG("f2", 6, 60, 4, 2)
	m3 := randomMIG("f3", 6, 60, 4, 3)
	resultSize := func(m *mig.MIG) int {
		out, _, err := Rewrite(context.Background(), m, RewriteAlgorithm2, 2, "x")
		if err != nil {
			t.Fatal(err)
		}
		return out.MemSize()
	}
	s1, s2, s3 := resultSize(m1), resultSize(m2), resultSize(m3)
	budget := s1 + max(s2, s3)
	cache := NewRewriteCache(memo.NewBudget(budget), nil)
	r1, _, err := cache.Rewrite(context.Background(), m1, RewriteAlgorithm2, 2, "x")
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := cache.Rewrite(context.Background(), m2, RewriteAlgorithm2, 2, "x")
	if err != nil {
		t.Fatal(err)
	}
	// Touch m1 so m2 is the LRU entry, then overflow with m3.
	if hit, _, err := cache.Rewrite(context.Background(), m1, RewriteAlgorithm2, 2, "x"); err != nil || hit != r1 {
		t.Fatalf("expected m1 hit before overflow (err %v)", err)
	}
	if _, _, err := cache.Rewrite(context.Background(), m3, RewriteAlgorithm2, 2, "x"); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2 (budget %d bytes)", cache.Len(), budget)
	}
	// m1 was refreshed after m2, so m2 is the victim: recompute (fresh
	// instance) while m1 still hits.
	if hit, _, err := cache.Rewrite(context.Background(), m1, RewriteAlgorithm2, 2, "x"); err != nil || hit != r1 {
		t.Fatalf("recently-used entry was evicted (err %v)", err)
	}
	again, _, err := cache.Rewrite(context.Background(), m2, RewriteAlgorithm2, 2, "x")
	if err != nil {
		t.Fatal(err)
	}
	if again == r2 {
		t.Fatal("evicted entry still served the old instance")
	}
}

// TestRewriteCachePanicDoesNotWedgeKey: a panicking computation (here a
// malformed MIG whose PO references a nonexistent node) must propagate to
// the computing caller but still unindex the entry and close its done
// channel — otherwise every future caller of the key would block forever.
func TestRewriteCachePanicDoesNotWedgeKey(t *testing.T) {
	cache := NewRewriteCache(memo.NewBudget(4), nil)
	bad := mig.New("bad")
	bad.AddPI("x")
	bad.AddPO(mig.MakeSignal(mig.NodeID(99), false), "f") // dangling reference
	panicked := false
	func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		cache.Rewrite(context.Background(), bad, RewriteAlgorithm2, 1, "x")
	}()
	if !panicked {
		t.Fatal("malformed MIG did not panic; test premise broken")
	}
	if cache.Len() != 0 {
		t.Fatalf("panicked computation left %d entries behind", cache.Len())
	}
	// The cache still works for sane keys afterwards.
	good := randomMIG("f", 6, 50, 4, 1)
	if _, _, err := cache.Rewrite(context.Background(), good, RewriteAlgorithm2, 1, "x"); err != nil {
		t.Fatal(err)
	}
}

// TestRunStagedCancellationIsCtxErr pins the documented contract: a run
// cancelled during the compile fan-out returns ctx.Err() itself, not a
// joined wrapper around it.
func TestRunStagedCancellationIsCtxErr(t *testing.T) {
	m := randomMIG("f", 8, 150, 8, 7)
	ctx, cancel := context.WithCancel(context.Background())
	ctx = progress.NewContext(ctx, func(ev progress.Event) {
		// Cancel once the first rewrite completes, so the compile
		// fan-out observes a cancelled context.
		if _, ok := ev.(progress.CompileStart); ok {
			cancel()
		}
	})
	_, err := RunStaged(ctx, testEnv(t, 1), mig.NewRef(m), TableIConfigs(), 1)
	cancel()
	if err == nil {
		t.Fatal("cancelled staged run returned nil error")
	}
	if err != context.Canceled {
		t.Fatalf("staged cancellation returned %#v, want context.Canceled itself", err)
	}
}

// TestRewriteCacheDiskTier: an in-memory miss probes the disk tier; a
// fresh computation is written back, and a second cold cache over the same
// directory serves it without emitting rewrite-cycle events, byte-identical
// to the computed result.
func TestRewriteCacheDiskTier(t *testing.T) {
	disk, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := randomMIG("disk", 8, 160, 6, 31)
	ctx := context.Background()

	cycles := 0
	ctx = progress.NewContext(ctx, func(ev progress.Event) {
		if _, ok := ev.(progress.RewriteCycle); ok {
			cycles++
		}
	})

	warmC := NewRewriteCache(nil, disk)
	want, wantSt, err := warmC.Rewrite(ctx, m, RewriteAlgorithm2, DefaultEffort, "")
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 {
		t.Fatal("cold computation emitted no rewrite cycles")
	}
	if c := warmC.Counters(); c.Stores == 0 || c.TierHits != 0 {
		t.Fatalf("cold run counters: %+v", c)
	}

	// A brand-new in-memory cache (a new process) over the same directory.
	cycles = 0
	coldC := NewRewriteCache(nil, disk)
	got, gotSt, err := coldC.Rewrite(ctx, m, RewriteAlgorithm2, DefaultEffort, "")
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 0 {
		t.Fatalf("disk-served rewrite emitted %d rewrite cycles, want 0", cycles)
	}
	if gotSt != wantSt {
		t.Fatalf("disk-served stats differ: %+v vs %+v", gotSt, wantSt)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("disk-served MIG fingerprint differs from computed")
	}
	var a, b bytes.Buffer
	if err := want.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("disk-served MIG serialization differs from computed")
	}
	if c := coldC.Counters(); c.TierHits != 1 {
		t.Fatalf("warm run counters: %+v", c)
	}

	// And the compiled programs must match exactly.
	for _, cfg := range TableIConfigs() {
		r1, err := CompileConfig(ctx, Env{Verify: true, CompileCache: NewCompileCache(nil, nil)}, mig.NewRef(want), cfg, wantSt)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := CompileConfig(ctx, Env{Verify: true, CompileCache: NewCompileCache(nil, nil)}, mig.NewRef(got), cfg, gotSt)
		if err != nil {
			t.Fatal(err)
		}
		var p1, p2 bytes.Buffer
		if err := r1.Result.Program.WriteBinary(&p1); err != nil {
			t.Fatal(err)
		}
		if err := r2.Result.Program.WriteBinary(&p2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p1.Bytes(), p2.Bytes()) {
			t.Fatalf("%s: disk-served compile differs from computed", cfg.Name)
		}
	}
}

// TestRewriteCacheDiskTierFailedComputeNotStored: cancelled computations
// must not be persisted.
func TestRewriteCacheDiskTierFailedComputeNotStored(t *testing.T) {
	disk, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewRewriteCache(nil, disk)
	m := randomMIG("cancel", 8, 160, 6, 32)
	ctx, cancel := context.WithCancel(context.Background())
	ctx = progress.NewContext(ctx, func(ev progress.Event) {
		if _, ok := ev.(progress.RewriteCycle); ok {
			cancel() // cancel mid-run, after the first cycle
		}
	})
	if _, _, err := c.Rewrite(ctx, m, RewriteAlgorithm2, DefaultEffort, ""); err == nil {
		t.Fatal("cancelled rewrite succeeded")
	}
	if cnt := c.Counters(); cnt.Stores != 0 {
		t.Fatalf("cancelled computation was persisted: %+v", cnt)
	}
}

// TestParseConfig pins the configuration-name grammar shared by plimserve
// and the CLIs: the five Table I names ("" meaning full), a "+capN"
// suffix, a cap override that must agree with the suffix, and errors (not
// panics or silent defaults) for every malformed name.
func TestParseConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		cap  uint64
		want Config
	}{
		{"naive", 0, Naive},
		{"compiler21", 0, Compiler21},
		{"minwrite", 0, MinWrite},
		{"rewriting", 0, Rewriting},
		{"full", 0, Full},
		{"", 0, Full},
		{"full+cap20", 0, FullCap(20)},
		{"full+cap20", 20, FullCap(20)},
		{"full", 20, FullCap(20)},
		{"", 50, FullCap(50)},
		{"minwrite+cap10", 0, Config{Name: "minwrite+cap10", Rewrite: MinWrite.Rewrite, Selection: MinWrite.Selection, Alloc: MinWrite.Alloc, MaxWrites: 10}},
	} {
		got, err := ParseConfig(tc.name, tc.cap)
		if err != nil || got != tc.want {
			t.Errorf("ParseConfig(%q, %d) = %+v, %v; want %+v", tc.name, tc.cap, got, err, tc.want)
		}
	}
	for _, tc := range []struct {
		name string
		cap  uint64
	}{
		{"full+cap20", 10},
		{"full+cap", 0},
		{"full+cap0", 0},
		{"full+cap-1", 0},
		{"full+cap18446744073709551616", 0},
		{"+cap5", 0},
		{"FULL", 0},
		{"turbo", 0},
	} {
		if got, err := ParseConfig(tc.name, tc.cap); err == nil {
			t.Errorf("ParseConfig(%q, %d) = %+v, want an error", tc.name, tc.cap, got)
		}
	}
}
