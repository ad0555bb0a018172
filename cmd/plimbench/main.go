// plimbench measures the performance of the compilation flow's hot paths
// and writes the results to a JSON file (BENCH_plim.json by default), so
// the performance trajectory of the repository is tracked run over run:
//
//	plimbench                        # representative set, shrink 2
//	plimbench -shrink 1 -out -       # paper scale, JSON to stdout
//	plimbench -baseline BENCH_plim.json   # trend gate against the committed report
//
// With -baseline the run additionally diffs each benchmark against the
// named (typically committed) report and exits non-zero on a regression —
// the CI trend gate. The two metrics gate independently, because they have
// very different noise profiles:
//
//   - allocs/op is deterministic and gates strictly: growth beyond
//     -maxregress percent (and beyond a small absolute floor) always fails.
//   - ns/op swings by ±15% between runs even on an idle shared runner, so
//     it gates at the looser -maxregress-time percent; -maxregress-time 0
//     skips the ns/op leg entirely, which is what CI does on shared
//     runners (allocs/op still catches churn there).
//
// The escape hatch for intentional regressions is the
// PLIM_BENCH_ALLOW_REGRESSION environment variable (any non-empty value
// downgrades the failure to a warning); CI sets it from the
// allow-bench-regression pull-request label.
//
// Alongside the micro-benchmarks (rewriting pipelines, compilation, the
// scalar-vs-64-wide execution engines) it times the Table I benchmark ×
// configuration sweep four ways: the staged engine cold (shared rewrite
// stages, benchmark, rewrite and compile caches, compile fan-out), the
// same engine warm, the same sweep with warm benchmark and rewrite caches
// but a fresh compile cache per iteration (so the compile kernel stays
// visible end to end), and the disk-warm path: a fresh engine per
// iteration (cold in-memory caches, like a new CLI process) served from a
// primed persistent cache directory (-cache-dir, default $PLIM_CACHE_DIR,
// else a throwaway temp dir), i.e. the plimtab-then-plimc cost after this
// repository's persistent tier. Staged tables are pinned against the
// sequential core.Run reference by the tables package's parity test.
//
// The sched/ family times the engine's work-stealing DAG scheduler on the
// same cold suite at 1, 2 and 4 workers, forced to GOMAXPROCS=4 so the
// numbers are comparable across hosts, and prints the resulting
// worker-scaling curve; on a single-core runner every point time-slices on
// one CPU and the honest curve is flat.
//
// The trace/ family pins the span recorder's contract: with tracing
// disabled a Start/End pair is one context lookup and zero allocations
// (asserted outright — the gate's absolute floor would forgive strays),
// and the enabled cost is recorded for the trend at both span and
// warm-engine-run granularity.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"plim"
	"plim/internal/cli"
	"plim/internal/core"
	"plim/internal/rewrite"
	"plim/internal/sched"
	"plim/internal/suite"
	"plim/internal/tables"
	"plim/internal/trace"
)

// Entry is one benchmark measurement in the emitted JSON.
type Entry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MsPerOp     float64 `json:"ms_per_op"`
}

// Report is the emitted JSON document.
type Report struct {
	Go          string  `json:"go"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Date        string  `json:"date"`
	Shrink      int     `json:"shrink"`
	Benchmarks  []Entry `json:"benchmarks"`
	ExecSpeedup float64 `json:"exec_speedup"`
}

func main() {
	var (
		shrink     = flag.Int("shrink", 2, "divide benchmark datapath widths (1 = paper scale)")
		benches    = flag.String("benchmarks", "div,i2c,bar,ctrl", "suite-sweep benchmark subset")
		outFile    = flag.String("out", "BENCH_plim.json", "output file ('-' = stdout)")
		baseline   = flag.String("baseline", "", "baseline report to diff against (empty = no gate)")
		maxRegress = flag.Float64("maxregress", 10, "with -baseline: fail when allocs/op regresses by more than this percent")
		maxTime    = flag.Float64("maxregress-time", 25, "with -baseline: fail when ns/op regresses by more than this percent (0 = skip the noisy ns/op leg)")
		cacheDir   = flag.String("cache-dir", os.Getenv("PLIM_CACHE_DIR"),
			"persistent cache directory for the disk-warm measurement (default $PLIM_CACHE_DIR; empty = a throwaway temp dir)")
	)
	flag.Parse()
	names := strings.Split(*benches, ",")

	rep := Report{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Shrink:     *shrink,
	}
	add := func(name string, fn func(b *testing.B)) testing.BenchmarkResult {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		rep.Benchmarks = append(rep.Benchmarks, Entry{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			MsPerOp:     float64(r.NsPerOp()) / 1e6,
		})
		fmt.Fprintf(os.Stderr, "%-28s %10d ns/op %8d allocs/op\n", name, r.NsPerOp(), r.AllocsPerOp())
		return r
	}

	sin := mustBuild("sin", *shrink)
	mult := mustBuild("multiplier", *shrink)
	add("rewrite/algorithm1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rewrite.Run(sin, rewrite.Algorithm1, core.DefaultEffort)
		}
	})
	add("rewrite/algorithm2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rewrite.Run(sin, rewrite.Algorithm2, core.DefaultEffort)
		}
	})
	rewritten, _ := rewrite.Run(mult, rewrite.Algorithm2, core.DefaultEffort)
	add("compile/full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plim.Compile(rewritten, plim.CompileOptions{
				Selection: plim.Full.Selection, Alloc: plim.Full.Alloc,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("compile/node-order", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plim.Compile(rewritten, plim.CompileOptions{
				Selection: plim.Naive.Selection, Alloc: plim.Naive.Alloc,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("compile/standard", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plim.Compile(rewritten, plim.CompileOptions{
				Selection: plim.MinWrite.Selection, Alloc: plim.MinWrite.Alloc,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Batched execution: one scalar interpreter pass per vector vs one
	// 64-wide bit-sliced pass over the whole batch, on the Full-compiled
	// Table I multiplier. Fixed vector count so ns/vector is comparable
	// run over run.
	const execVectors = 256
	compiled, err := plim.Compile(rewritten, plim.CompileOptions{
		Selection: plim.Full.Selection, Alloc: plim.Full.Alloc,
	})
	if err != nil {
		cli.Fatal(err)
	}
	execProg := compiled.Program
	execBatch := plim.RandomBatch(len(execProg.PICells), execVectors, 1)
	execVecs := execBatch.Unpack()
	scalar := add("exec/scalar-256v", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, in := range execVecs {
				if _, _, err := plim.Execute(execProg, in); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	wide := add("exec/batch64-256v", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plim.ExecuteBatch(execProg, execBatch, plim.ExecOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	rep.ExecSpeedup = round2(float64(scalar.NsPerOp()) / float64(wide.NsPerOp()))
	fmt.Fprintf(os.Stderr, "exec speedup: %.2fx (%d vectors: %.0f ns/vector scalar, %.0f ns/vector batched)\n",
		rep.ExecSpeedup, execVectors,
		float64(scalar.NsPerOp())/execVectors, float64(wide.NsPerOp())/execVectors)

	// The trace family: what span recording costs, off and on. Disabled
	// tracing must be free on the hot paths — the Start/End pair degrades
	// to one context lookup and no allocations — and that is asserted
	// outright here rather than left to the baseline gate, whose absolute
	// allocs floor would forgive a handful of strays. The -on entries
	// record the enabled cost for the trend.
	untracedCtx := context.Background()
	spanOff := add("trace/span-off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, sp := trace.Start(untracedCtx, "compile", "bench")
			sp.End()
		}
	})
	if spanOff.AllocsPerOp() != 0 {
		cli.Fatal(fmt.Errorf("plimbench: trace/span-off costs %d allocs/op — disabled tracing must be allocation-free", spanOff.AllocsPerOp()))
	}
	add("trace/span-on", func(b *testing.B) {
		tr := trace.New()
		tracedCtx := trace.NewContext(context.Background(), tr)
		for i := 0; i < b.N; i++ {
			if i&(1<<14-1) == 0 { // fresh trace every 16k spans: bounded arena
				tr = trace.New()
				tracedCtx = trace.NewContext(context.Background(), tr)
			}
			sp := trace.StartNoCtx(tracedCtx, "compile", "bench")
			sp.End()
		}
	})
	// The same contract at engine scale: a warm Run (cache-served rewrite,
	// instrumented compile) through an untraced engine, against one that
	// records and surrenders a trace per iteration — the traced-flight
	// shape plimserve produces for "trace": true.
	traceMIG := mustBuild("ctrl", *shrink)
	traceEngOff := plim.NewEngine(plim.WithShrink(*shrink))
	if _, err := traceEngOff.Run(context.Background(), traceMIG, plim.Full); err != nil {
		cli.Fatal(err)
	}
	add("trace/run-warm-off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := traceEngOff.Run(context.Background(), traceMIG, plim.Full); err != nil {
				b.Fatal(err)
			}
		}
	})
	traceEngOn := plim.NewEngine(plim.WithShrink(*shrink), plim.WithTrace(true))
	if _, err := traceEngOn.Run(context.Background(), traceMIG, plim.Full); err != nil {
		cli.Fatal(err)
	}
	traceEngOn.TakeTrace()
	add("trace/run-warm-on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := traceEngOn.Run(context.Background(), traceMIG, plim.Full); err != nil {
				b.Fatal(err)
			}
			if traceEngOn.TakeTrace() == nil {
				b.Fatal("traced engine recorded no spans")
			}
		}
	})

	// The suite sweep, cold and warm.
	cfgs := core.TableIConfigs()
	add("suite/tableI/staged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// A fresh engine per iteration: cold caches, so the time is
			// staging alone, not cross-run memoization.
			cold := plim.NewEngine(plim.WithShrink(*shrink))
			if _, err := cold.RunSuite(context.Background(), cfgs, names...); err != nil {
				b.Fatal(err)
			}
		}
	})
	eng := plim.NewEngine(plim.WithShrink(*shrink))
	if _, err := eng.RunSuite(context.Background(), cfgs, names...); err != nil {
		cli.Fatal(err)
	}
	add("suite/tableI/staged-warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.RunSuite(context.Background(), cfgs, names...); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Compile-cold: staged-warm's benchmark and rewrite caches stay warm,
	// and every iteration gets a fresh compile cache, so each compile runs
	// the kernel and the compile cache's miss path. It is the engine's
	// plumbing (the default cost model, no verification) assembled by
	// hand, since no engine option empties one cache alone. It runs on one
	// worker at GOMAXPROCS=1 whatever the process setting: with more Ps,
	// compile tasks that move between them miss the compile package's
	// per-P scratch pool, and the entry's allocation count would depend on
	// the host's scheduling rather than on the code.
	procs := runtime.GOMAXPROCS(1)
	pool := sched.New(1)
	warmEnv := core.Env{Sched: pool, BenchCache: suite.NewCache(nil, nil), RewriteCache: core.NewRewriteCache(nil, nil), CompileCache: core.NewCompileCache(nil, nil), CostModel: plim.DefaultCostModel()}
	suiteOpts := tables.Options{Benchmarks: names, Effort: core.DefaultEffort, Shrink: *shrink}
	if _, err := tables.RunSuite(context.Background(), warmEnv, cfgs, suiteOpts); err != nil {
		cli.Fatal(err)
	}
	add("suite/tableI/compile-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env := warmEnv
			env.CompileCache = core.NewCompileCache(nil, nil)
			if _, err := tables.RunSuite(context.Background(), env, cfgs, suiteOpts); err != nil {
				b.Fatal(err)
			}
		}
	})
	pool.Stop()
	runtime.GOMAXPROCS(procs)

	// Disk-warm: a fresh engine per iteration (cold in-memory caches, like
	// a new CLI process) over a primed persistent cache directory — the
	// plimtab-then-plimc path this repository's persistent tier exists for.
	diskDir, diskTmp := *cacheDir, false
	if diskDir == "" {
		tmp, err := os.MkdirTemp("", "plimbench-cache-*")
		if err != nil {
			cli.Fatal(err)
		}
		diskDir, diskTmp = tmp, true
	}
	primer := plim.NewEngine(plim.WithShrink(*shrink), plim.WithPersistentCache(diskDir))
	if _, err := primer.RunSuite(context.Background(), cfgs, names...); err != nil {
		cli.Fatal(err)
	}
	add("suite/tableI/disk-warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cold := plim.NewEngine(plim.WithShrink(*shrink), plim.WithPersistentCache(diskDir))
			if _, err := cold.RunSuite(context.Background(), cfgs, names...); err != nil {
				b.Fatal(err)
			}
		}
	})
	if diskTmp {
		os.RemoveAll(diskDir)
	}

	// The explore family: the design-space sweep behind plimexplore — two
	// rewriting efforts under two cost models — cold and cache-warm. The
	// model axis is pure post-hoc pricing, so its marginal cost over the
	// equivalent suite runs is what this family keeps honest. New names are
	// gate-safe: a baseline that predates them skips, it does not fail.
	exploreOpts := func() plim.ExploreOptions {
		alt := plim.DefaultCostModel()
		alt.Name = "alt"
		alt.RM3.EnergyPJ *= 2
		return plim.ExploreOptions{
			Benchmarks: names,
			Efforts:    []int{0, core.DefaultEffort},
			Models:     []*plim.CostModel{plim.DefaultCostModel(), alt},
		}
	}
	add("explore/sweep-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cold := plim.NewEngine(plim.WithShrink(*shrink))
			if _, err := cold.Explore(context.Background(), exploreOpts()); err != nil {
				b.Fatal(err)
			}
		}
	})
	expEng := plim.NewEngine(plim.WithShrink(*shrink))
	if _, err := expEng.Explore(context.Background(), exploreOpts()); err != nil {
		cli.Fatal(err)
	}
	add("explore/sweep-warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := expEng.Explore(context.Background(), exploreOpts()); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The scheduler family: the same cold suite DAG at 1, 2 and 4 workers,
	// at a forced GOMAXPROCS of 4 so the curve means the same thing on
	// every host. Every point does identical work (one rewrite per stage,
	// one compile per configuration, cold caches); only the worker count
	// differs, so the curve is the scheduler's scaling. The 4-worker point
	// keeps the name the committed baseline gates.
	const schedProcs = 4
	prevProcs := runtime.GOMAXPROCS(schedProcs)
	var curve []string
	var oneWorker int64
	for _, workers := range []int{1, 2, schedProcs} {
		name := fmt.Sprintf("sched/suite-cold-4p-%dw", workers)
		if workers == schedProcs {
			name = "sched/suite-cold-4p"
		}
		r := add(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cold := plim.NewEngine(plim.WithShrink(*shrink), plim.WithWorkers(workers))
				if _, err := cold.RunSuite(context.Background(), cfgs, names...); err != nil {
					b.Fatal(err)
				}
			}
		})
		if workers == 1 {
			oneWorker = r.NsPerOp()
		}
		curve = append(curve, fmt.Sprintf("%dw %.1f ms (%.2fx)", workers,
			float64(r.NsPerOp())/1e6, float64(oneWorker)/float64(r.NsPerOp())))
	}
	schedEng := plim.NewEngine(plim.WithShrink(*shrink), plim.WithWorkers(schedProcs))
	if _, err := schedEng.RunSuite(context.Background(), cfgs, names...); err != nil {
		cli.Fatal(err)
	}
	add("sched/suite-warm-4p", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := schedEng.RunSuite(context.Background(), cfgs, names...); err != nil {
				b.Fatal(err)
			}
		}
	})
	// A mixed workload on one shared pool: a suite sweep's rewrite/compile
	// tasks interleaving with a batched execution's chunk tasks — the
	// server's steady state, where flights of different kinds share workers.
	mixedBatch := plim.RandomBatch(len(execProg.PICells), 4096, 7)
	add("sched/mixed-4p", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			errs := make([]error, 2)
			wg.Add(2)
			go func() {
				defer wg.Done()
				_, errs[0] = schedEng.RunSuite(context.Background(), cfgs, names[0])
			}()
			go func() {
				defer wg.Done()
				_, errs[1] = schedEng.ExecuteBatch(context.Background(), execProg, mixedBatch, plim.ExecOptions{})
			}()
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				b.Fatal(err)
			}
		}
	})
	runtime.GOMAXPROCS(prevProcs)
	fmt.Fprintf(os.Stderr, "sched scaling at GOMAXPROCS=%d: %s (flat on a single-core host)\n",
		schedProcs, strings.Join(curve, ", "))

	out, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		cli.Fatal(err)
	}
	out = append(out, '\n')
	if *outFile == "-" {
		os.Stdout.Write(out)
	} else if err := os.WriteFile(*outFile, out, 0o644); err != nil {
		cli.Fatal(err)
	}

	// Trend gate: the new numbers are written out above regardless, so a
	// failing run still leaves the fresh report for inspection.
	if *baseline != "" {
		if err := checkRegressions(*baseline, &rep, *maxTime, *maxRegress); err != nil {
			if os.Getenv("PLIM_BENCH_ALLOW_REGRESSION") != "" {
				fmt.Fprintf(os.Stderr, "plimbench: WARNING (allowed by PLIM_BENCH_ALLOW_REGRESSION): %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "plimbench: %v\n", err)
			fmt.Fprintln(os.Stderr, "plimbench: set PLIM_BENCH_ALLOW_REGRESSION=1 (CI: the allow-bench-regression label) to accept")
			os.Exit(1)
		}
		if *maxTime > 0 {
			fmt.Fprintf(os.Stderr, "plimbench: no regression beyond %.0f%% ns/op / %.0f%% allocs/op vs %s\n", *maxTime, *maxRegress, *baseline)
		} else {
			fmt.Fprintf(os.Stderr, "plimbench: no allocs/op regression beyond %.0f%% vs %s (ns/op leg skipped)\n", *maxRegress, *baseline)
		}
	}
}

// allocsFloor is the absolute allocs/op growth below which the gate stays
// quiet: a handful of extra allocations on an already-lean path (say
// 12 -> 20) is a huge percentage but no regression worth failing CI over.
const allocsFloor = 16

// checkRegressions compares each measured benchmark against the baseline
// report and returns an error naming every benchmark that regressed: ns/op
// (wall clock — the headline number, but noisy on shared runners, so it
// has its own looser tolerance and maxTime ≤ 0 skips it) beyond maxTime
// percent, and allocs/op (deterministic, so it catches allocation churn
// even when a faster runner masks the time) beyond maxAllocs percent.
// Benchmarks absent from the baseline (new hot paths) are skipped; the
// comparison only ever tightens once they are committed.
func checkRegressions(path string, rep *Report, maxTime, maxAllocs float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if base.Shrink != rep.Shrink {
		return fmt.Errorf("baseline %s measured shrink %d, this run shrink %d — not comparable", path, base.Shrink, rep.Shrink)
	}
	baseBy := make(map[string]Entry, len(base.Benchmarks))
	for _, e := range base.Benchmarks {
		baseBy[e.Name] = e
	}
	var failures []string
	for _, e := range rep.Benchmarks {
		old, ok := baseBy[e.Name]
		if !ok {
			continue
		}
		if maxTime > 0 && old.NsPerOp > 0 {
			pct := 100 * (float64(e.NsPerOp) - float64(old.NsPerOp)) / float64(old.NsPerOp)
			if pct > maxTime {
				failures = append(failures, fmt.Sprintf("%s: %d -> %d ns/op (+%.1f%%, limit %.0f%%)", e.Name, old.NsPerOp, e.NsPerOp, pct, maxTime))
			}
		}
		if old.AllocsPerOp > 0 && e.AllocsPerOp-old.AllocsPerOp > allocsFloor {
			pct := 100 * (float64(e.AllocsPerOp) - float64(old.AllocsPerOp)) / float64(old.AllocsPerOp)
			if pct > maxAllocs {
				failures = append(failures, fmt.Sprintf("%s: %d -> %d allocs/op (+%.1f%%, limit %.0f%%)", e.Name, old.AllocsPerOp, e.AllocsPerOp, pct, maxAllocs))
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("regressed beyond baseline %s:\n  %s", path, strings.Join(failures, "\n  "))
	}
	return nil
}

func mustBuild(name string, shrink int) *plim.MIG {
	m, err := suite.BuildScaled(name, shrink)
	if err != nil {
		cli.Fatal(err)
	}
	return m
}

func round2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }
