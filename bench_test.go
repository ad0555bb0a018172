package plim

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"plim/internal/core"
	"plim/internal/imply"
	"plim/internal/isa"
	"plim/internal/rewrite"
	"plim/internal/sched"
	"plim/internal/suite"
	"plim/internal/tables"
)

// The table benchmarks regenerate the paper's experiments. They run at
// shrink 2 (datapaths halved) so `go test -bench .` stays in seconds;
// cmd/plimtab reproduces the tables at full paper scale.
const benchShrink = 2

// benchSubset is a representative slice of the suite: large arithmetic
// (div), mid-size control (i2c), wide-and-shallow (bar) and small control
// (ctrl), covering the structural extremes of Table I.
var benchSubset = []string{"div", "i2c", "bar", "ctrl"}

// benchEnv returns the environments of the table benchmarks' iterations:
// one GOMAXPROCS-sized pool for all of them and fresh caches for each, so
// every iteration runs cold.
func benchEnv(b *testing.B) func() core.Env {
	pool := sched.New(runtime.GOMAXPROCS(0))
	b.Cleanup(pool.Stop)
	return func() core.Env {
		return core.Env{Sched: pool, BenchCache: suite.NewCache(nil, nil), RewriteCache: core.NewRewriteCache(nil, nil), CompileCache: core.NewCompileCache(nil, nil)}
	}
}

// BenchmarkTable1 regenerates the paper's Table I (write distribution under
// the five incremental endurance configurations).
func BenchmarkTable1(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		sr, err := tables.RunSuite(context.Background(), env(), core.TableIConfigs(), tables.Options{
			Benchmarks: benchSubset, Shrink: benchShrink,
			Effort: core.DefaultEffort,
		})
		if err != nil {
			b.Fatal(err)
		}
		d, err := tables.TableI(sr)
		if err != nil {
			b.Fatal(err)
		}
		if len(d.Cells) != len(benchSubset) {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkTable2 regenerates the paper's Table II (#I and #R for naive,
// endurance-aware rewriting, and rewriting+compilation).
func BenchmarkTable2(b *testing.B) {
	cfgs := []core.Config{core.Naive, core.Rewriting, core.Full}
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		sr, err := tables.RunSuite(context.Background(), env(), cfgs, tables.Options{
			Benchmarks: benchSubset, Shrink: benchShrink,
			Effort: core.DefaultEffort,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tables.TableII(sr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates the paper's Table III (the maximum-write-count
// trade-off at caps 10/20/50/100).
func BenchmarkTable3(b *testing.B) {
	cfgs := []core.Config{core.FullCap(10), core.FullCap(20), core.FullCap(50), core.FullCap(100)}
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		sr, err := tables.RunSuite(context.Background(), env(), cfgs, tables.Options{
			Benchmarks: benchSubset, Shrink: benchShrink,
			Effort: core.DefaultEffort,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tables.TableIII(sr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation runs the per-technique isolation table (extension).
func BenchmarkAblation(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		sr, err := tables.RunSuite(context.Background(), env(), tables.AblationConfigs(), tables.Options{
			Benchmarks: []string{"ctrl", "i2c"}, Shrink: benchShrink,
			Effort: core.DefaultEffort,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tables.TableI(sr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteStagedWarm measures repeated suite regeneration on one
// engine: benchmark builds and rewrite stages come from the caches, so
// only the compile stages run.
func BenchmarkSuiteStagedWarm(b *testing.B) {
	eng := NewEngine(WithShrink(benchShrink))
	if _, err := eng.RunSuite(context.Background(), TableIConfigs(), benchSubset...); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunSuite(context.Background(), TableIConfigs(), benchSubset...); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks of the individual subsystems.

func benchmarkMIG(b *testing.B, name string) *MIG {
	b.Helper()
	m, err := suite.BuildScaled(name, benchShrink)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkRewriteAlgorithm1 measures the DAC'16 rewriting pipeline.
func BenchmarkRewriteAlgorithm1(b *testing.B) {
	m := benchmarkMIG(b, "sin")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rewrite.Run(m, rewrite.Algorithm1, core.DefaultEffort)
	}
}

// BenchmarkRewriteAlgorithm2 measures the endurance-aware rewriting.
func BenchmarkRewriteAlgorithm2(b *testing.B) {
	m := benchmarkMIG(b, "sin")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rewrite.Run(m, rewrite.Algorithm2, core.DefaultEffort)
	}
}

// BenchmarkCompileFull measures endurance-aware compilation throughput
// (nodes → RM3 instructions) on a rewritten multiplier. ReportAllocs guards
// the compile scratch pool: the steady state is O(1) allocations per
// compilation, not O(graph).
func BenchmarkCompileFull(b *testing.B) {
	m := benchmarkMIG(b, "multiplier")
	mr, _ := rewrite.Run(m, rewrite.Algorithm2, core.DefaultEffort)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(mr, CompileOptions{Selection: 2, Alloc: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompilePolicies measures each selection policy separately on the
// same rewritten multiplier, isolating the cost of the candidate-heap
// orderings from rewriting.
func BenchmarkCompilePolicies(b *testing.B) {
	m := benchmarkMIG(b, "multiplier")
	mr, _ := rewrite.Run(m, rewrite.Algorithm2, core.DefaultEffort)
	for _, tc := range []struct {
		name string
		opts CompileOptions
	}{
		{"node-order", CompileOptions{Selection: 0, Alloc: 0}},
		{"standard", CompileOptions{Selection: 1, Alloc: 1}},
		{"endurance", CompileOptions{Selection: 2, Alloc: 1}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compile(mr, tc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInterpreter measures RM3 execution speed on the crossbar model.
func BenchmarkInterpreter(b *testing.B) {
	m := benchmarkMIG(b, "bar")
	rep, err := core.Run(context.Background(), m, Full, core.DefaultEffort)
	if err != nil {
		b.Fatal(err)
	}
	prog := rep.Result.Program
	rng := rand.New(rand.NewSource(1))
	inputs := make([]bool, len(prog.PICells))
	for i := range inputs {
		inputs[i] = rng.Intn(2) == 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := isa.Execute(prog, inputs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(prog.NumInstructions()), "insts/op")
}

// BenchmarkEval measures word-parallel MIG simulation (64 patterns/op).
func BenchmarkEval(b *testing.B) {
	m := benchmarkMIG(b, "sqrt")
	rng := rand.New(rand.NewSource(2))
	in := make([]uint64, m.NumPIs())
	for i := range in {
		in[i] = rng.Uint64()
	}
	vals := make([]uint64, m.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EvalInto(in, vals)
	}
}

// BenchmarkSuiteGeneration measures benchmark circuit construction.
func BenchmarkSuiteGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := suite.BuildScaled("voter", benchShrink); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImplyBaseline compiles and executes the §II material-implication
// baseline on a control benchmark, for comparison with BenchmarkCompileFull.
func BenchmarkImplyBaseline(b *testing.B) {
	m := benchmarkMIG(b, "cavlc")
	in := make([]bool, m.NumPIs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := imply.Compile(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := prog.Execute(in); err != nil {
			b.Fatal(err)
		}
	}
}
