package tables

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"plim/internal/core"
	"plim/internal/cost"
	"plim/internal/progress"
	"plim/internal/sched"
	"plim/internal/suite"
)

// quickOpts runs a few small benchmarks at reduced scale so the full
// pipeline stays fast in unit tests.
func quickOpts() Options {
	return Options{
		Benchmarks: []string{"ctrl", "int2float", "dec", "router"},
		Effort:     2,
		Shrink:     4,
	}
}

// testEnv returns an environment with unbounded caches on a scheduler of
// the given number of workers, stopped when the test ends.
func testEnv(t *testing.T, workers int) core.Env {
	pool := sched.New(workers)
	t.Cleanup(pool.Stop)
	return core.Env{Sched: pool, BenchCache: suite.NewCache(nil, nil), RewriteCache: core.NewRewriteCache(nil, nil), CompileCache: core.NewCompileCache(nil, nil)}
}

func TestRunSuiteShape(t *testing.T) {
	sr, err := RunSuite(context.Background(), testEnv(t, 2), core.TableIConfigs(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Benchmarks) != 4 || len(sr.Configs) != 5 {
		t.Fatalf("shape %dx%d", len(sr.Benchmarks), len(sr.Configs))
	}
	for b := range sr.Benchmarks {
		if len(sr.Reports[b]) != 5 {
			t.Fatalf("benchmark %d has %d reports", b, len(sr.Reports[b]))
		}
		for c, rep := range sr.Reports[b] {
			if rep == nil || rep.Result == nil {
				t.Fatalf("missing report [%d][%d]", b, c)
			}
		}
	}
	if sr.ConfigIndex("full") != 4 || sr.ConfigIndex("zzz") != -1 {
		t.Fatal("ConfigIndex broken")
	}
}

func TestRunSuiteRejectsUnknownBenchmark(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"nope"}
	if _, err := RunSuite(context.Background(), testEnv(t, 2), core.TableIConfigs(), opts); err == nil {
		t.Fatal("want error for unknown benchmark")
	}
}

func TestRunSuiteIsDeterministicAcrossWorkers(t *testing.T) {
	a, err := RunSuite(context.Background(), testEnv(t, 1), core.TableIConfigs(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSuite(context.Background(), testEnv(t, 4), core.TableIConfigs(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Benchmarks {
		for c := range a.Configs {
			ra, rb := a.Reports[i][c], b.Reports[i][c]
			if ra.NumInstructions() != rb.NumInstructions() ||
				ra.NumRRAMs() != rb.NumRRAMs() ||
				ra.Writes.StdDev != rb.Writes.StdDev {
				t.Fatalf("nondeterministic result at [%d][%d]", i, c)
			}
		}
	}
}

func TestTableI(t *testing.T) {
	sr, err := RunSuite(context.Background(), testEnv(t, 2), core.TableIConfigs(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	d, err := TableI(sr)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Benchmarks) != 4 || len(d.Cells) != 4 || len(d.Cells[0]) != 5 {
		t.Fatalf("Table I shape wrong")
	}
	if !math.IsNaN(d.Avg[0].Impr) {
		t.Fatal("baseline column must have NaN improvement")
	}
	for b := range d.Cells {
		if !math.IsNaN(d.Cells[b][0].Impr) {
			t.Fatalf("row %d baseline cell has improvement", b)
		}
		if math.IsNaN(d.Cells[b][4].Impr) {
			t.Fatalf("row %d full cell lacks improvement", b)
		}
	}
	g := d.Grid()
	txt := g.Text()
	for _, want := range []string{"ctrl", "AVG", "naive STDEV", "full impr."} {
		if !strings.Contains(txt, want) {
			t.Fatalf("Table I text missing %q:\n%s", want, txt)
		}
	}
	md := g.Markdown()
	if !strings.HasPrefix(md, "**Table I") || !strings.Contains(md, "| ctrl |") {
		t.Fatalf("markdown malformed:\n%s", md)
	}
	csv := g.CSV()
	if strings.Count(csv, "\n") != len(g.Rows)+1 {
		t.Fatalf("csv row count wrong")
	}
}

func TestTableIRequiresNaive(t *testing.T) {
	sr, err := RunSuite(context.Background(), testEnv(t, 2), []core.Config{core.Full}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TableI(sr); err == nil {
		t.Fatal("Table I must demand a naive baseline")
	}
}

func TestTableII(t *testing.T) {
	sr, err := RunSuite(context.Background(), testEnv(t, 2), core.TableIConfigs(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	d, err := TableII(sr)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.ConfigNames) != 3 {
		t.Fatalf("Table II defaults to 3 configurations")
	}
	for b := range d.I {
		for i := range d.I[b] {
			if d.I[b][i] <= 0 || d.R[b][i] <= 0 {
				t.Fatalf("non-positive cost at [%d][%d]", b, i)
			}
		}
	}
	if _, err := TableII(sr, "missing"); err == nil {
		t.Fatal("unknown config must error")
	}
	txt := d.Grid().Text()
	if !strings.Contains(txt, "naive #I") || !strings.Contains(txt, "AVG") {
		t.Fatalf("Table II text malformed:\n%s", txt)
	}
}

func TestTableIII(t *testing.T) {
	cfgs := []core.Config{core.FullCap(10), core.FullCap(20), core.FullCap(50), core.FullCap(100)}
	sr, err := RunSuite(context.Background(), testEnv(t, 2), cfgs, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	d, err := TableIII(sr)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Caps) != 4 || d.Caps[0] != 10 || d.Caps[3] != 100 {
		t.Fatalf("caps = %v", d.Caps)
	}
	// Trend: average #R must not increase as the cap loosens, and average
	// STDEV must not decrease.
	for c := 1; c < 4; c++ {
		if d.AvgR[c] > d.AvgR[c-1] {
			t.Fatalf("avg #R grew from cap %d to %d: %.1f → %.1f", d.Caps[c-1], d.Caps[c], d.AvgR[c-1], d.AvgR[c])
		}
		if d.AvgSD[c] < d.AvgSD[c-1]-1e-9 {
			t.Fatalf("avg STDEV shrank as the cap loosened")
		}
	}
	// Small benchmarks saturate quickly: at least one dash must appear.
	foundDash := false
	for b := range d.Cells {
		for c := 1; c < 4; c++ {
			if d.Cells[b][c].Unchanged {
				foundDash = true
			}
		}
	}
	if !foundDash {
		t.Log("no unchanged cells on this subset (acceptable but unusual)")
	}
	txt := d.Grid().Text()
	if !strings.Contains(txt, "cap10 #I") {
		t.Fatalf("Table III text malformed:\n%s", txt)
	}

	// Uncapped configurations are rejected.
	srBad, err := RunSuite(context.Background(), testEnv(t, 2), []core.Config{core.Full}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TableIII(srBad); err == nil {
		t.Fatal("Table III must reject uncapped configs")
	}
}

func TestAblationConfigs(t *testing.T) {
	cfgs := AblationConfigs()
	if len(cfgs) < 5 {
		t.Fatalf("ablation should isolate every technique, got %d configs", len(cfgs))
	}
	names := map[string]bool{}
	for _, c := range cfgs {
		if names[c.Name] {
			t.Fatalf("duplicate config name %q", c.Name)
		}
		names[c.Name] = true
	}
	sr, err := RunSuite(context.Background(), testEnv(t, 2), cfgs, Options{Benchmarks: []string{"ctrl"}, Effort: 1, Shrink: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Reports[0]) != len(cfgs) {
		t.Fatal("missing ablation reports")
	}
}

func TestGridRendersEmptyTitle(t *testing.T) {
	g := &Grid{Columns: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	if strings.HasPrefix(g.Text(), "\n") {
		t.Fatal("empty title must not emit a blank line")
	}
	if !strings.Contains(g.CSV(), "a,b") {
		t.Fatal("CSV header missing")
	}
}

func TestRunSuiteValidatesOptions(t *testing.T) {
	cases := map[string]Options{
		"zero shrink":     {Benchmarks: []string{"ctrl"}, Effort: 1},
		"negative effort": {Benchmarks: []string{"ctrl"}, Effort: -1, Shrink: 4},
	}
	for name, opts := range cases {
		if _, err := RunSuite(context.Background(), testEnv(t, 2), core.TableIConfigs(), opts); err == nil {
			t.Errorf("%s: options accepted", name)
		}
	}
}

// TestRunSuiteJoinsAllErrors checks the aggregation fix: when several
// benchmarks fail independently, every failure must surface, not just the
// first one the old code happened to scan.
func TestRunSuiteJoinsAllErrors(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"bogus1", "ctrl", "bogus2"}
	_, err := RunSuite(context.Background(), testEnv(t, 2), core.TableIConfigs(), opts)
	if err == nil {
		t.Fatal("want error")
	}
	for _, want := range []string{"bogus1", "bogus2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error missing %q: %v", want, err)
		}
	}
}

// TestRunSuiteCancelledContext checks that a pre-cancelled context returns
// ctx.Err() without running anything.
func TestRunSuiteCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSuite(ctx, testEnv(t, 2), core.TableIConfigs(), quickOpts())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// referenceSuite is the pre-staged sequential path: every configuration
// rewrites from scratch, every benchmark rebuilds its MIG, nothing is
// cached. The staged scheduler must be byte-identical to it.
func referenceSuite(t *testing.T, cfgs []core.Config, opts Options) *SuiteResult {
	t.Helper()
	sr := &SuiteResult{
		Benchmarks: make([]suite.Info, len(opts.Benchmarks)),
		Configs:    cfgs,
		Reports:    make([][]*core.Report, len(opts.Benchmarks)),
	}
	for i, name := range opts.Benchmarks {
		info, ok := suite.Get(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		m, err := suite.BuildScaled(name, opts.Shrink)
		if err != nil {
			t.Fatal(err)
		}
		if opts.Shrink != 1 {
			info.PI = m.NumPIs()
			info.PO = m.NumPOs()
		}
		sr.Benchmarks[i] = info
		reps := make([]*core.Report, len(cfgs))
		for c, cfg := range cfgs {
			if reps[c], err = core.Run(context.Background(), m, cfg, opts.Effort); err != nil {
				t.Fatalf("%s/%s: %v", name, cfg.Name, err)
			}
		}
		sr.Reports[i] = reps
	}
	return sr
}

// TestStagedSuiteParity requires the cached parallel scheduler to render
// byte-identical tables — and identical per-device write counts — to the
// sequential uncached path, for the Table I and Table III configurations.
func TestStagedSuiteParity(t *testing.T) {
	cases := map[string][]core.Config{
		"tableI":   core.TableIConfigs(),
		"tableIII": {core.FullCap(10), core.FullCap(20), core.FullCap(50), core.FullCap(100)},
	}
	for name, cfgs := range cases {
		opts := quickOpts()
		want := referenceSuite(t, cfgs, opts)
		env := testEnv(t, 4)
		got, err := RunSuite(context.Background(), env, cfgs, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Run the staged path twice: the second pass is served from warm
		// caches and must still match.
		again, err := RunSuite(context.Background(), env, cfgs, opts)
		if err != nil {
			t.Fatalf("%s (warm): %v", name, err)
		}
		for _, staged := range []*SuiteResult{got, again} {
			for b := range want.Benchmarks {
				if want.Benchmarks[b] != staged.Benchmarks[b] {
					t.Fatalf("%s: benchmark info %d differs", name, b)
				}
				for c := range cfgs {
					ra, rb := want.Reports[b][c], staged.Reports[b][c]
					if ra.Rewrite != rb.Rewrite || ra.Writes != rb.Writes {
						t.Fatalf("%s: stats diverge at [%d][%d]", name, b, c)
					}
					if !slices.Equal(ra.Result.WriteCounts, rb.Result.WriteCounts) {
						t.Fatalf("%s: write counts diverge at [%d][%d]", name, b, c)
					}
				}
			}
			var ga, gb *Grid
			if name == "tableIII" {
				da, err := TableIII(want)
				if err != nil {
					t.Fatal(err)
				}
				db, err := TableIII(staged)
				if err != nil {
					t.Fatal(err)
				}
				ga, gb = da.Grid(), db.Grid()
			} else {
				da, err := TableI(want)
				if err != nil {
					t.Fatal(err)
				}
				db, err := TableI(staged)
				if err != nil {
					t.Fatal(err)
				}
				ga, gb = da.Grid(), db.Grid()
			}
			if ga.CSV() != gb.CSV() || ga.Text() != gb.Text() {
				t.Fatalf("%s: staged run rendered a different table", name)
			}
		}
	}
}

// TestRunSuitePipelineOncePerBenchmark asserts, by counting first-cycle
// rewrite events, that a Table I suite run starts each distinct rewriting
// pipeline exactly once per benchmark — two rewrites, not four.
func TestRunSuitePipelineOncePerBenchmark(t *testing.T) {
	opts := quickOpts()
	var mu sync.Mutex
	starts := map[string]map[string]int{} // function -> pipeline -> count
	ctx := progress.NewContext(context.Background(), func(ev progress.Event) {
		c, ok := ev.(progress.RewriteCycle)
		if !ok || c.Cycle != 1 {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if starts[c.Function] == nil {
			starts[c.Function] = map[string]int{}
		}
		starts[c.Function][c.Config]++
	})
	if _, err := RunSuite(ctx, testEnv(t, 1), core.TableIConfigs(), opts); err != nil {
		t.Fatal(err)
	}
	for _, bench := range opts.Benchmarks {
		got := starts[bench]
		if len(got) != 2 || got["algorithm1"] != 1 || got["algorithm2"] != 1 {
			t.Fatalf("%s: rewrite starts = %v, want exactly one per distinct pipeline", bench, got)
		}
	}
}

// TestRunSuiteEmitsCompileEvents checks the per-configuration compile
// events: one start/done pair per benchmark × configuration, with #I
// populated on success.
func TestRunSuiteEmitsCompileEvents(t *testing.T) {
	opts := quickOpts()
	var mu sync.Mutex
	startN, doneN := 0, 0
	ctx := progress.NewContext(context.Background(), func(ev progress.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev := ev.(type) {
		case progress.CompileStart:
			startN++
		case progress.CompileDone:
			doneN++
			if ev.Err != nil || ev.Instructions == 0 || ev.RRAMs == 0 {
				t.Errorf("compile done for %s/%s incomplete: %+v", ev.Function, ev.Config, ev)
			}
		}
	})
	if _, err := RunSuite(ctx, testEnv(t, 1), core.TableIConfigs(), opts); err != nil {
		t.Fatal(err)
	}
	want := len(opts.Benchmarks) * 5
	if startN != want || doneN != want {
		t.Fatalf("compile events: %d starts, %d dones, want %d each", startN, doneN, want)
	}
}

// TestTableCost pins the suite's cost columns: a priced run renders
// energy/latency/lifetime per configuration, the CSV is byte-identical
// across a cold and a cache-warm repeat, and an unpriced run is rejected
// with a pointer at Env.CostModel.
func TestTableCost(t *testing.T) {
	opts := quickOpts()
	env := testEnv(t, 2)
	env.CostModel = cost.Default()
	sr, err := RunSuite(context.Background(), env, core.TableIConfigs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	d, err := TableCost(sr)
	if err != nil {
		t.Fatal(err)
	}
	if d.Model != "default" {
		t.Fatalf("model = %q", d.Model)
	}
	g := d.Grid()
	for _, want := range []string{"naive energy(pJ)", "full latency", "full lifetime"} {
		if !slices.Contains(g.Columns, want) {
			t.Fatalf("cost table missing column %q: %v", want, g.Columns)
		}
	}
	csv := g.CSV()
	if !strings.Contains(csv, "AVG") {
		t.Fatalf("cost CSV missing AVG row:\n%s", csv)
	}
	for b := range d.Benchmarks {
		for c := range d.ConfigNames {
			cell := d.Cells[b][c]
			if cell.EnergyPJ <= 0 || cell.LatencyCycles == 0 || cell.LifetimeRuns == 0 {
				t.Fatalf("degenerate cost cell [%d][%d]: %+v", b, c, cell)
			}
		}
	}

	// Warm repeat through both in-memory caches: byte-identical CSV.
	again, err := RunSuite(context.Background(), env, core.TableIConfigs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := TableCost(again)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Grid().CSV(); got != csv {
		t.Fatalf("cache-warm cost CSV diverged:\n%s\nvs\n%s", got, csv)
	}

	// Unpriced runs cannot render a cost table.
	srBad, err := RunSuite(context.Background(), testEnv(t, 2), core.TableIConfigs(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TableCost(srBad); err == nil || !strings.Contains(err.Error(), "CostModel") {
		t.Fatalf("unpriced suite must be rejected with a CostModel hint, got %v", err)
	}
}
