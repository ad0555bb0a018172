package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"plim/internal/cost"
	"plim/internal/progress"
)

func quickExplore() ExploreOptions {
	fast := cost.Default()
	fast.Name = "fast"
	fast.RM3.LatencyCycles = 1
	return ExploreOptions{
		Benchmarks: []string{"ctrl", "dec"},
		Efforts:    []int{0, 2},
		Shrinks:    []int{4},
		Models:     []*cost.Model{cost.Default(), fast},
	}
}

// verifyEnv is testEnv with static verification on, so every swept
// compile also checks write and cost parity.
func verifyEnv(t *testing.T, workers int) Env {
	env := testEnv(t, workers)
	env.Verify = true
	return env
}

// TestExploreDeterministic pins the sweep's reproducibility contract: the
// same axes render byte-identical CSV and JSON, cold, warm through the
// caches, and at any worker count.
func TestExploreDeterministic(t *testing.T) {
	ctx := context.Background()
	render := func(r *ExploreResult) (string, string) {
		var csv, js bytes.Buffer
		if err := r.WriteCSV(&csv, false); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteJSON(&js, false); err != nil {
			t.Fatal(err)
		}
		return csv.String(), js.String()
	}

	cold, err := Explore(ctx, verifyEnv(t, 2), quickExplore())
	if err != nil {
		t.Fatal(err)
	}
	csvCold, jsonCold := render(cold)

	warm := verifyEnv(t, 4)
	for i := 0; i < 2; i++ {
		r, err := Explore(ctx, warm, quickExplore())
		if err != nil {
			t.Fatal(err)
		}
		if csv, js := render(r); csv != csvCold || js != jsonCold {
			t.Fatalf("run %d diverged from the cold sweep:\n%s\nvs\n%s", i, csv, csvCold)
		}
	}
	wantPoints := 2 * 2 * 1 * len(TableIConfigs()) * 2 // benchmarks × efforts × shrinks × configs × models
	if len(cold.Points) != wantPoints {
		t.Fatalf("swept %d points, want %d", len(cold.Points), wantPoints)
	}
	if !strings.HasPrefix(csvCold, "benchmark,config,") {
		t.Fatalf("CSV header malformed:\n%s", csvCold)
	}
}

// TestExplorePareto checks the front semantics: every (benchmark, shrink,
// model) group keeps at least one non-dominated point, a dominated point
// is excluded from the front, and WriteCSV(frontOnly) emits exactly the
// front rows.
func TestExplorePareto(t *testing.T) {
	res, err := Explore(context.Background(), verifyEnv(t, 2), quickExplore())
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		bench, model string
	}
	fronts := map[key]int{}
	for _, p := range res.Points {
		if p.Pareto {
			fronts[key{p.Benchmark, p.Model}]++
		}
	}
	for _, b := range []string{"ctrl", "dec"} {
		for _, m := range []string{"default", "fast"} {
			if fronts[key{b, m}] == 0 {
				t.Fatalf("group %s/%s has an empty Pareto front", b, m)
			}
		}
	}
	for _, p := range res.Points {
		if p.Pareto {
			continue
		}
		dominated := false
		for j := range res.Points {
			q := &res.Points[j]
			if q.Benchmark == p.Benchmark && q.Shrink == p.Shrink && q.Model == p.Model && dominates(q, &p) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Fatalf("point off the front but dominated by nothing: %+v", p)
		}
	}

	var all, front bytes.Buffer
	if err := res.WriteCSV(&all, false); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&front, true); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(front.String(), "\n"); n != len(res.Front())+1 {
		t.Fatalf("front CSV has %d lines, want %d rows + header", n, len(res.Front()))
	}
	if strings.Contains(front.String(), ",0\n") {
		t.Fatal("front-only CSV contains a dominated row")
	}
	// Every front row also appears, verbatim, in the full rendering.
	for _, line := range strings.Split(strings.TrimSuffix(front.String(), "\n"), "\n") {
		if !strings.Contains(all.String(), line+"\n") {
			t.Fatalf("front row missing from the full CSV: %s", line)
		}
	}
}

// TestExploreValidation rejects malformed sweeps up front.
func TestExploreValidation(t *testing.T) {
	ctx := context.Background()
	env := verifyEnv(t, 2)
	base := func() ExploreOptions { return quickExplore() }

	bad := base()
	bad.Shrinks = []int{0}
	if _, err := Explore(ctx, env, bad); err == nil {
		t.Fatal("shrink 0 accepted")
	}
	bad = base()
	bad.Efforts = []int{-1}
	if _, err := Explore(ctx, env, bad); err == nil {
		t.Fatal("negative effort accepted")
	}
	bad = base()
	bad.Models = []*cost.Model{cost.Default(), cost.Default()}
	if _, err := Explore(ctx, env, bad); err == nil {
		t.Fatal("duplicate model names accepted")
	}
	bad = base()
	bad.Benchmarks = []string{"nope"}
	if _, err := Explore(ctx, env, bad); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestExploreBenchmarkEvents checks the sweep's per-pair progress: one
// BenchmarkStart and one BenchmarkDone per (benchmark, shrink), Index and
// Total counted over pairs, and a /sN label suffix only when the sweep
// has several shrinks.
func TestExploreBenchmarkEvents(t *testing.T) {
	cases := []struct {
		shrinks []int
		labels  []string // in pair order
	}{
		{[]int{4}, []string{"ctrl", "dec"}},
		{[]int{8, 4}, []string{"ctrl/s8", "ctrl/s4", "dec/s8", "dec/s4"}},
	}
	for _, c := range cases {
		var mu sync.Mutex
		events := 0
		starts := map[string]progress.BenchmarkStart{}
		dones := map[string]progress.BenchmarkDone{}
		ctx := progress.NewContext(context.Background(), func(ev progress.Event) {
			mu.Lock()
			defer mu.Unlock()
			switch ev := ev.(type) {
			case progress.BenchmarkStart:
				starts[ev.Benchmark] = ev
				events++
			case progress.BenchmarkDone:
				dones[ev.Benchmark] = ev
				events++
			}
		})
		opts := ExploreOptions{Benchmarks: []string{"ctrl", "dec"}, Shrinks: c.shrinks, Efforts: []int{0, 1}}
		if _, err := Explore(ctx, testEnv(t, 2), opts); err != nil {
			t.Fatal(err)
		}
		if events != 2*len(c.labels) {
			t.Fatalf("shrinks %v: %d benchmark events, want a start and a done for each of %v", c.shrinks, events, c.labels)
		}
		for i, label := range c.labels {
			s, d := starts[label], dones[label]
			if s.Index != i || s.Total != len(c.labels) || d.Index != i || d.Total != len(c.labels) || d.Err != nil {
				t.Fatalf("shrinks %v: %s events %+v and %+v, want pair %d of %d", c.shrinks, label, s, d, i, len(c.labels))
			}
		}
	}
}

// TestExploreReportsEveryFailedPair checks that a failing (benchmark,
// shrink) pair stops no other pair, and that every failure names its
// benchmark and shrink, in the returned error and in its done event.
func TestExploreReportsEveryFailedPair(t *testing.T) {
	var mu sync.Mutex
	dones := map[string]error{}
	compiles := map[string]int{}
	ctx := progress.NewContext(context.Background(), func(ev progress.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev := ev.(type) {
		case progress.BenchmarkDone:
			dones[ev.Benchmark] = ev.Err
		case progress.CompileDone:
			compiles[ev.Function]++
		}
	})
	opts := ExploreOptions{Benchmarks: []string{"ctrl", "nope", "dec"}, Shrinks: []int{8, 4}, Efforts: []int{1}}
	_, err := Explore(ctx, testEnv(t, 2), opts)
	if err == nil {
		t.Fatal("a sweep over an unknown benchmark succeeded")
	}
	for _, shrink := range []int{8, 4} {
		want := fmt.Sprintf("nope (shrink %d)", shrink)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not name %q: %v", want, err)
		}
		if e := dones[fmt.Sprintf("nope/s%d", shrink)]; e == nil || !strings.Contains(e.Error(), want) {
			t.Errorf("done event of nope/s%d carries %v, want an error naming %q", shrink, e, want)
		}
		for _, ok := range []string{"ctrl", "dec"} {
			label := fmt.Sprintf("%s/s%d", ok, shrink)
			if e, done := dones[label]; !done || e != nil {
				t.Errorf("%s: done %v with error %v, want a clean done", label, done, e)
			}
		}
	}
	for _, ok := range []string{"ctrl", "dec"} {
		if want := 2 * len(TableIConfigs()); compiles[ok] != want {
			t.Errorf("%s: %d compiles, want %d", ok, compiles[ok], want)
		}
	}
}

// TestChained pins which efforts chain: each to the one listed just
// before it, when that one is nonzero and smaller.
func TestChained(t *testing.T) {
	for _, c := range []struct {
		efforts []int
		want    []bool
	}{
		{[]int{5}, []bool{false}},
		{[]int{0, 5}, []bool{false, false}},
		{[]int{5, 2, 1}, []bool{false, false, false}},
		{[]int{2, 2}, []bool{false, false}},
		{[]int{0, 1, 2, 5}, []bool{false, false, true, true}},
	} {
		for i, want := range c.want {
			if got := chained(c.efforts, i); got != want {
				t.Errorf("chained(%v, %d) = %v, want %v", c.efforts, i, got, want)
			}
		}
		if chained(c.efforts, len(c.efforts)) {
			t.Errorf("chained(%v, %d) = true past the last effort", c.efforts, len(c.efforts))
		}
	}
}

// TestExploreChainsEfforts: a sweep over several efforts is, point for
// point, the single-effort sweeps of each of its efforts on fresh
// engines, whatever the order or repetition of the efforts (the pareto
// column aside: it ranks a point against the rest of its own sweep). With
// ascending efforts every stage runs each rewriting cycle once, so its
// cycle events are exactly those of its largest effort alone: mem_ctrl's
// Algorithm 1 run continues from effort 1 to 2 to 3, where it reaches
// its fixpoint, and bar's and priority's Algorithm 2 runs reach theirs
// at cycle 1. Four workers, which run the chain concurrently with the
// rest of the sweep, give the same points.
func TestExploreChainsEfforts(t *testing.T) {
	benchmarks := []string{"mem_ctrl", "bar", "priority", "sin"}
	type stage struct{ function, label string }
	sweepOn := func(workers int, efforts ...int) ([]ExplorePoint, map[stage][]progress.RewriteCycle) {
		t.Helper()
		var mu sync.Mutex
		cycles := map[stage][]progress.RewriteCycle{}
		ctx := progress.NewContext(context.Background(), func(ev progress.Event) {
			if c, ok := ev.(progress.RewriteCycle); ok {
				mu.Lock()
				defer mu.Unlock()
				k := stage{c.Function, c.Config}
				c.Effort = 0 // the effort of the call that ran the cycle
				cycles[k] = append(cycles[k], c)
			}
		})
		res, err := Explore(ctx, testEnv(t, workers), ExploreOptions{Benchmarks: benchmarks, Shrinks: []int{2}, Efforts: efforts})
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Points {
			res.Points[i].Pareto = false
		}
		return res.Points, cycles
	}
	sweep := func(efforts ...int) ([]ExplorePoint, map[stage][]progress.RewriteCycle) {
		t.Helper()
		return sweepOn(1, efforts...)
	}
	single := map[int][]ExplorePoint{}
	singleCycles := map[int]map[stage][]progress.RewriteCycle{}
	for _, e := range []int{0, 1, 2, 3, 5} {
		single[e], singleCycles[e] = sweep(e)
	}
	if n := len(singleCycles[5][stage{"mem_ctrl", "algorithm1"}]); n != 3 {
		t.Fatalf("mem_ctrl's Algorithm 1 run took %d cycles, want 3 to continue a continuation", n)
	}
	ascending, _ := sweep(0, 1, 2, 3, 5)
	if parallel, _ := sweepOn(4, 0, 1, 2, 3, 5); !slices.Equal(parallel, ascending) {
		t.Fatal("the chained sweep on four workers differs from the one-worker sweep")
	}
	for _, efforts := range [][]int{{0, 1, 2, 3, 5}, {5, 2, 1}, {2, 2}} {
		points, cycles := sweep(efforts...)
		per := len(TableIConfigs())
		for pi, p := range points {
			b, ei, ci := pi/(len(efforts)*per), pi/per%len(efforts), pi%per
			if want := single[efforts[ei]][b*per+ci]; p != want {
				t.Fatalf("efforts %v: point %d is %+v, the single-effort sweep's %+v", efforts, pi, p, want)
			}
		}
		if !slices.IsSorted(efforts) {
			continue // descending efforts do not chain
		}
		largest := singleCycles[efforts[len(efforts)-1]]
		if len(cycles) != len(largest) {
			t.Fatalf("efforts %v: %d stages ran cycles, the largest effort alone %d", efforts, len(cycles), len(largest))
		}
		for k, want := range largest {
			if got := cycles[k]; !slices.Equal(got, want) {
				t.Fatalf("efforts %v: stage %v ran cycles %+v, the largest effort alone %+v", efforts, k, got, want)
			}
		}
	}
}

// TestSweepRewritesEachKeyOnce: rewrites are keyed by what decides them.
// After a Table I run at the default effort, a sweep at efforts 0 and 5
// on the same engine computes one rewrite per graph, effort 0's, which
// both algorithms share: the Table I cleanup serves RewriteNone at both
// efforts, and its effort-5 runs serve the sweep's.
func TestSweepRewritesEachKeyOnce(t *testing.T) {
	ctx := context.Background()
	benchmarks := []string{"mem_ctrl", "bar", "priority", "sin"}
	env := testEnv(t, 1)
	if _, err := RunSweep(ctx, env, benchmarks, []int{2}, []int{DefaultEffort}, TableIConfigs()); err != nil {
		t.Fatal(err)
	}
	before := env.RewriteCache.Counters()
	if _, err := Explore(ctx, env, ExploreOptions{Benchmarks: benchmarks, Shrinks: []int{2}, Efforts: []int{0, DefaultEffort}}); err != nil {
		t.Fatal(err)
	}
	after := env.RewriteCache.Counters()
	if misses := after.Misses - before.Misses; misses != uint64(len(benchmarks)) {
		t.Fatalf("the sweep computed %d rewrites, want %d: one effort-0 rewrite per graph", misses, len(benchmarks))
	}
	if n := env.RewriteCache.Len(); n != 4*len(benchmarks) {
		t.Fatalf("the cache holds %d rewrites, want 4 per graph: the cleanup, effort 0 and each algorithm at effort %d", n, DefaultEffort)
	}
}
