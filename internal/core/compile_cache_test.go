package core

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"plim/internal/alloc"
	"plim/internal/compile"
	"plim/internal/cost"
	"plim/internal/diskcache"
	"plim/internal/isa"
	"plim/internal/memo"
	"plim/internal/mig"
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
			opts := compile.Options{Selection: cfg.Selection, Alloc: cfg.Alloc, MaxWrites: cfg.MaxWrites}
			fresh, err := compile.Compile(rw, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := fresh.Program.AppendBinary(nil)
			g := mig.NewRef(rw)
			for _, step := range []struct {
				what  string
				cache *CompileCache
			}{{"computed", warm}, {"memory hit", warm}, {"disk hit", cold}, {"memory hit after a mutated hit", cold}} {
				got, err := step.cache.Compile(ctx, g, opts)
				if err != nil {
					t.Fatalf("%s/%s %s: %v", name, cfg.Name, step.what, err)
				}
				if !sameResult(got, fresh) || !bytes.Equal(got.Program.AppendBinary(nil), want) {
					t.Fatalf("%s/%s %s differs from a fresh compile", name, cfg.Name, step.what)
				}
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
// priced under the caller's model, exactly as a fresh compile is; with
// Verify the cost-parity check holds on the hit.
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
	g := mig.NewRef(rw)
	for _, model := range []*cost.Model{cost.Default(), alt, nil} {
		want, err := CompileConfig(ctx, Env{Verify: true, CostModel: model, CompileCache: NewCompileCache(nil, nil)}, g, Full, st)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CompileConfig(ctx, Env{Verify: true, CostModel: model, CompileCache: cache}, g, Full, st)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Cost, want.Cost) {
			t.Fatalf("model %v: hit priced %+v, fresh compile %+v", model, got.Cost, want.Cost)
		}
	}
	if n := cache.Counters(); n.Misses != 1 || n.Hits != 2 {
		t.Fatalf("counters %+v, want one miss and two hits", n)
	}
}

// sameResult reports whether two compile results are equal field for
// field, their programs by encoding.
func sameResult(a, b *compile.Result) bool {
	x, y := *a, *b
	x.Program, y.Program = nil, nil
	return reflect.DeepEqual(x, y) && bytes.Equal(a.Program.Binary(), b.Program.Binary())
}

// TestCompileCacheHitsShareOneProgram: every hit of an entry, computed or
// loaded from disk, from any number of concurrent callers, gets the
// entry's one program, with equal facts; each caller gets write counts of
// its own.
func TestCompileCacheHitsShareOneProgram(t *testing.T) {
	ctx := context.Background()
	disk, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := suite.BuildScaled("int2float", 4)
	if err != nil {
		t.Fatal(err)
	}
	g := mig.NewRef(m)
	opts := compile.Options{Selection: compile.Endurance, Alloc: alloc.MinWrite}
	if _, err := NewCompileCache(nil, disk).Compile(ctx, g, opts); err != nil {
		t.Fatal(err)
	}
	for _, what := range []string{"memory", "disk"} {
		cache := NewCompileCache(nil, disk)
		if what == "memory" {
			cache = NewCompileCache(nil, nil)
		}
		first, err := cache.Compile(ctx, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		const callers = 8
		results := make([]*compile.Result, callers)
		fps := make([]uint64, callers)
		var wg sync.WaitGroup
		for i := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := cache.Compile(ctx, g, opts)
				if err != nil {
					t.Error(err)
					return
				}
				results[i], fps[i] = res, res.Program.Fingerprint()
			}()
		}
		wg.Wait()
		for i, res := range results {
			if res == nil {
				t.FailNow()
			}
			if res.Program != first.Program {
				t.Fatalf("%s hit %d got a program of its own", what, i)
			}
			if fps[i] != first.Program.Fingerprint() ||
				!reflect.DeepEqual(res.WriteCounts, first.WriteCounts) || &res.WriteCounts[0] == &first.WriteCounts[0] {
				t.Fatalf("%s hit %d: facts or write counts differ or are shared", what, i)
			}
		}
	}
}

// TestCompileCacheChargesRetainedBytes pins an entry's charge to the bytes
// its program retains — the Program, its exactly sized encoding, its name
// and its per-cell counts — for a computed entry and a disk hit: a budget
// of exactly that many bytes keeps the entry, one byte less evicts it.
func TestCompileCacheChargesRetainedBytes(t *testing.T) {
	ctx := context.Background()
	disk, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := suite.BuildScaled("ctrl", 4)
	if err != nil {
		t.Fatal(err)
	}
	g := mig.NewRef(m)
	opts := compile.Options{Selection: compile.Standard, Alloc: alloc.LIFO}
	res, err := NewCompileCache(nil, disk).Compile(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := NewCompileCache(nil, disk).Compile(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*isa.Program{res.Program, hit.Program} {
		enc := p.Binary()
		if cap(enc) != len(enc) {
			t.Fatalf("encoding of %d bytes retains %d", len(enc), cap(enc))
		}
		retained := int(unsafe.Sizeof(*p)) + len(enc) + len(p.Name()) + int(p.NumCells())*int(unsafe.Sizeof(isa.ClassCounts{}))
		if p.MemSize() != retained {
			t.Fatalf("MemSize %d, program retains %d bytes", p.MemSize(), retained)
		}
	}
	charge := res.Program.MemSize()
	for _, tc := range []struct {
		limit int
		kept  int
	}{{charge, 1}, {charge - 1, 0}} {
		for _, d := range []*diskcache.Cache{nil, disk} {
			cache := NewCompileCache(memo.NewBudget(tc.limit), d)
			if _, err := cache.Compile(ctx, g, opts); err != nil {
				t.Fatal(err)
			}
			if n := cache.Len(); n != tc.kept {
				t.Fatalf("budget of %d bytes for a %d-byte program (disk %t) keeps %d entries, want %d", tc.limit, charge, d != nil, n, tc.kept)
			}
		}
	}
}
