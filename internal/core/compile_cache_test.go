package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"plim/internal/compile"
	"plim/internal/cost"
	"plim/internal/diskcache"
	"plim/internal/suite"
)

// TestCompileCacheHitsEqualFreshCompile: for every Table I configuration
// and two Table III caps, a memory hit and a disk hit rebuild the compile
// result a fresh compile reports, field for field and byte for byte, and
// a caller mutating its hit cannot reach the cached entry.
func TestCompileCacheHitsEqualFreshCompile(t *testing.T) {
	ctx := context.Background()
	disk, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	model := cost.Default()
	warm, cold := NewCompileCache(nil, disk), NewCompileCache(nil, disk)
	for _, name := range []string{"ctrl", "int2float", "sin"} {
		m, err := suite.BuildScaled(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range append(TableIConfigs(), FullCap(10), FullCap(50)) {
			rw, _, err := Rewrite(ctx, m, cfg.Rewrite, DefaultEffort, "")
			if err != nil {
				t.Fatal(err)
			}
			opts := compile.Options{Selection: cfg.Selection, Alloc: cfg.Alloc, MaxWrites: cfg.MaxWrites, CostModel: model}
			fresh, err := compile.Compile(rw, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := fresh.Program.AppendBinary(nil)
			fp := rw.Fingerprint()
			for _, step := range []struct {
				what  string
				cache *CompileCache
			}{{"computed", warm}, {"memory hit", warm}, {"disk hit", cold}, {"memory hit after a mutated hit", cold}} {
				got, err := step.cache.Compile(ctx, rw, fp, opts)
				if err != nil {
					t.Fatalf("%s/%s %s: %v", name, cfg.Name, step.what, err)
				}
				if !reflect.DeepEqual(got, fresh) || !bytes.Equal(got.Program.AppendBinary(nil), want) {
					t.Fatalf("%s/%s %s differs from a fresh compile", name, cfg.Name, step.what)
				}
				got.Program.Insts[0].Z++
				got.WriteCounts[0]++
			}
		}
	}
	n := warm.Counters()
	if want := uint64(3 * 7); n.Misses != want || n.Hits != want || n.TierMisses != want || n.Stores != want {
		t.Fatalf("warm cache counters %+v, want %d misses, hits, tier misses and stores", n, want)
	}
	if n := cold.Counters(); n.TierHits != 21 || n.Hits != 21 || n.TierMisses != 0 {
		t.Fatalf("cold cache counters %+v, want 21 disk hits then 21 memory hits", n)
	}
}

// TestCompileCacheHitPricedByCallerModel: the cost model is not part of
// the key, so an entry computed under one model and hit under another is
// priced under the caller's model, exactly as its emission would have
// been; with Verify the cost-parity check holds on the hit.
func TestCompileCacheHitPricedByCallerModel(t *testing.T) {
	ctx := context.Background()
	m, err := suite.BuildScaled("router", 4)
	if err != nil {
		t.Fatal(err)
	}
	rw, st, err := Rewrite(ctx, m, Full.Rewrite, DefaultEffort, "")
	if err != nil {
		t.Fatal(err)
	}
	alt := cost.Default()
	alt.Name = "alt"
	alt.RM3.EnergyPJ *= 3
	alt.Set.Wear = 2
	cache := NewCompileCache(nil, nil)
	fp := rw.Fingerprint()
	for _, model := range []*cost.Model{cost.Default(), alt, nil} {
		want, err := CompileConfig(ctx, Env{Verify: true, CostModel: model, CompileCache: NewCompileCache(nil, nil)}, rw, fp, Full, st)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CompileConfig(ctx, Env{Verify: true, CostModel: model, CompileCache: cache}, rw, fp, Full, st)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Cost, want.Cost) || !reflect.DeepEqual(got.Result.Cost, want.Result.Cost) {
			t.Fatalf("model %v: hit priced %+v, emission %+v", model, got.Cost, want.Cost)
		}
	}
	if n := cache.Counters(); n.Misses != 1 || n.Hits != 2 {
		t.Fatalf("counters %+v, want one miss and two hits", n)
	}
}
