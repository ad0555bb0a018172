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

	"plim/internal/alloc"
	"plim/internal/compile"
	"plim/internal/core"
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

// RunSuite evaluates every configuration on every requested benchmark as
// one core.RunSweep at opts.Shrink and opts.Effort, and projects the sweep
// into the benchmark × configuration matrix. The task graph, its progress
// events (a start/done pair per benchmark, labelled with its name), its
// determinism, cancellation and error reporting are RunSweep's. Benchmark
// metadata is the paper-scale suite.Info, with the PI/PO counts of the
// built graph when Shrink ≠ 1.
func RunSuite(ctx context.Context, env core.Env, cfgs []core.Config, opts Options) (*SuiteResult, error) {
	if len(opts.Benchmarks) == 0 {
		opts.Benchmarks = suite.Names()
	}
	pairs, err := core.RunSweep(ctx, env, opts.Benchmarks, []int{opts.Shrink}, []int{opts.Effort}, cfgs)
	if err != nil {
		return nil, err
	}
	sr := &SuiteResult{
		Benchmarks: make([]suite.Info, len(pairs)),
		Configs:    cfgs,
		Reports:    make([][]*core.Report, len(pairs)),
	}
	for b, p := range pairs {
		info, _ := suite.Get(opts.Benchmarks[b]) // known: the sweep built it
		if opts.Shrink != 1 {
			info.PI, info.PO = p.Graph.NumPIs(), p.Graph.NumPOs()
		}
		sr.Benchmarks[b], sr.Reports[b] = info, p.Reports[0]
	}
	return sr, nil
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
