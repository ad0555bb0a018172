package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"plim/internal/cost"
	"plim/internal/suite"
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
		Verify:     true,
	}
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

	cold, err := Explore(ctx, testEnv(t, 2), quickExplore())
	if err != nil {
		t.Fatal(err)
	}
	csvCold, jsonCold := render(cold)

	warm := testEnv(t, 4)
	warm.BenchCache = suite.NewCache()
	warm.RewriteCache = NewRewriteCache()
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
	res, err := Explore(context.Background(), testEnv(t, 2), quickExplore())
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
	env := testEnv(t, 2)
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
