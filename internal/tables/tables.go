// Package tables regenerates the evaluation tables of Shirinzadeh et al.,
// DATE 2017: Table I (write distribution of the incremental endurance
// techniques), Table II (instruction and device costs) and Table III (the
// maximum-write-count trade-off), plus an ablation table that isolates each
// technique (not in the paper).
//
// A SuiteResult holds the full benchmark × configuration matrix of reports;
// the Table* functions project it into the paper's layouts and the Render*
// functions produce aligned text, Markdown and CSV.
package tables

import (
	"context"
	"errors"
	"fmt"
	"time"

	"plim/internal/alloc"
	"plim/internal/compile"
	"plim/internal/core"
	"plim/internal/mig"
	"plim/internal/progress"
	"plim/internal/sched"
	"plim/internal/suite"
)

// SuiteResult is the benchmark × configuration report matrix.
type SuiteResult struct {
	Benchmarks []suite.Info
	Configs    []core.Config
	// Reports[b][c] is the report of Configs[c] on Benchmarks[b].
	Reports [][]*core.Report
}

// Options configures a suite run. All fields are explicit: Effort 0 really
// runs zero rewriting cycles and Shrink must be ≥ 1.
type Options struct {
	// Benchmarks to run; nil or empty means the full 18-benchmark suite.
	Benchmarks []string
	// Effort is the rewriting cycle budget; 0 disables rewriting cycles.
	Effort int
	// Shrink divides datapath widths for quick runs (1 = paper scale).
	Shrink int
}

func (o *Options) validate() error {
	if o.Effort < 0 {
		return fmt.Errorf("tables: Effort must be ≥ 0, got %d", o.Effort)
	}
	if o.Shrink < 1 {
		return fmt.Errorf("tables: Shrink must be ≥ 1, got %d", o.Shrink)
	}
	return nil
}

// RunSuite evaluates every configuration on every requested benchmark as
// one task graph on env.Sched. Each benchmark contributes a generate task
// (build the MIG through env.BenchCache), one rewrite task per distinct
// pipeline of the configuration plan (memoized through env.RewriteCache),
// one compile task per configuration
// depending on its stage's rewrite, and a join task depending on all of
// them that aggregates errors and emits the benchmark-done event. Nothing
// serializes distinct benchmarks against each other, so one benchmark's
// compile fan-out overlaps the next one's rewrite and the whole run keeps
// every worker of the pool busy (sharing it with every other caller of the
// same pool). Progress events go to the observer carried by ctx, if any;
// it may be invoked concurrently from worker goroutines.
//
// Results are deterministic and ordered; with one worker, tasks run in
// depth-first creation order, which reproduces the sequential
// per-benchmark event order exactly. Once ctx is cancelled unstarted tasks
// never run and RunSuite returns ctx.Err(). When several benchmarks fail
// independently, every failure is reported through one joined error.
func RunSuite(ctx context.Context, env core.Env, cfgs []core.Config, opts Options) (*SuiteResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(opts.Benchmarks) == 0 {
		opts.Benchmarks = suite.Names()
	}
	sr := &SuiteResult{
		Benchmarks: make([]suite.Info, len(opts.Benchmarks)),
		Configs:    cfgs,
		Reports:    make([][]*core.Report, len(opts.Benchmarks)),
	}
	g := env.Sched.NewGraph(ctx)
	errs := make([]error, len(opts.Benchmarks))
	for idx, name := range opts.Benchmarks {
		sr.addBenchmark(g, env, idx, name, cfgs, opts, errs)
	}
	if err := g.Wait(); err != nil {
		// Cancellation surfaces as ctx.Err() itself, not a joined wrap.
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return sr, nil
}

// addBenchmark adds one benchmark's generate → rewrites → compiles → join
// task chain to the suite graph. The join writes the benchmark's composed
// error into errs[idx].
func (sr *SuiteResult) addBenchmark(g *sched.Graph, env core.Env, idx int, name string, cfgs []core.Config, opts Options, errs []error) {
	var (
		m      *mig.Ref
		start  time.Time
		genErr error
	)
	total := len(opts.Benchmarks)
	gen := g.Task(sched.KindGenerate, name, func(ctx context.Context) {
		progress.FromContext(ctx).Emit(progress.BenchmarkStart{
			Benchmark: name, Index: idx, Total: total,
		})
		start = time.Now()
		info, ok := suite.Get(name)
		if !ok {
			genErr = fmt.Errorf("tables: unknown benchmark %q", name)
			return
		}
		built, err := env.BenchCache.BuildScaled(ctx, name, opts.Shrink)
		if err != nil {
			genErr = err
			return
		}
		if opts.Shrink != 1 {
			info.PI = built.NumPIs()
			info.PO = built.NumPOs()
		}
		sr.Benchmarks[idx] = info
		m = built
	}, nil)
	reports := make([]*core.Report, len(cfgs))
	leaves, finish := core.StagedGraph(g, env, opts.Effort, gen, func() *mig.Ref { return m }, cfgs, reports)
	g.Task(sched.KindJoin, name, func(ctx context.Context) {
		err := genErr
		if err == nil {
			if serr := finish(); serr != nil {
				if errors.Is(serr, context.Canceled) || errors.Is(serr, context.DeadlineExceeded) {
					err = serr // cancellation, not a benchmark failure: no wrap
				} else {
					err = fmt.Errorf("tables: %s: %w", name, serr)
				}
			} else {
				sr.Reports[idx] = reports
			}
		}
		errs[idx] = err
		progress.FromContext(ctx).Emit(progress.BenchmarkDone{
			Benchmark: name, Index: idx, Total: total,
			Elapsed: time.Since(start), Err: err,
		})
	}, append(leaves, gen)...)
}

// ConfigIndex locates a configuration by name.
func (sr *SuiteResult) ConfigIndex(name string) int {
	for i, c := range sr.Configs {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// AblationConfigs isolates each endurance technique on top of the naive
// baseline — an extension beyond the paper that quantifies how much each
// lever contributes on its own.
func AblationConfigs() []core.Config {
	return []core.Config{
		core.Naive,
		{Name: "minwrite-only", Rewrite: core.RewriteNone, Selection: compile.NodeOrder, Alloc: alloc.MinWrite},
		{Name: "selection-only", Rewrite: core.RewriteNone, Selection: compile.Endurance, Alloc: alloc.LIFO},
		{Name: "rewriting-only", Rewrite: core.RewriteAlgorithm2, Selection: compile.NodeOrder, Alloc: alloc.LIFO},
		{Name: "alg1-rewriting-only", Rewrite: core.RewriteAlgorithm1, Selection: compile.NodeOrder, Alloc: alloc.LIFO},
		core.Full,
	}
}
