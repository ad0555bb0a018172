// plimexplore sweeps the endurance-management design space — compilation
// policy × rewriting effort × datapath shrink × instruction cost model —
// and emits the Pareto front of energy vs. latency vs. lifetime per
// benchmark as deterministic CSV or JSON:
//
//	plimexplore -benchmarks adder,ctrl -shrink 8
//	plimexplore -efforts 0,2,5 -configs naive,full,cap50 -format json
//	plimexplore -cost-models fast.json,lowpower.json -all -o sweep.csv
//
// The whole sweep runs as one task graph on the engine's work-stealing
// scheduler: each benchmark builds once per shrink, each rewriting
// pipeline runs once per (benchmark, shrink, effort) — served from the
// in-memory and, with -cache-dir, persistent caches, and across ascending
// efforts each rewriting cycle runs once, a larger effort continuing the
// smaller one's run — and the compile fan-out keeps every worker busy.
// Cost models are pure accounting, so the model axis multiplies output
// rows without recompiling anything.
//
// Output is byte-deterministic: the same sweep produces the same bytes,
// cold or cache-warm, which CI exploits to pin reproducibility. By default
// only Pareto-optimal rows (within each benchmark × shrink × model group)
// are emitted; -all includes dominated points, distinguished by the pareto
// column.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"plim"
	"plim/internal/cli"
	"plim/internal/core"
)

func main() {
	var (
		benches   = flag.String("benchmarks", "", "comma-separated subset (default: all 18)")
		configs   = flag.String("configs", "table1", "table1 or a comma-separated list of naive|compiler21|minwrite|rewriting|full, optionally +capN, or capN for full+capN")
		efforts   = flag.String("efforts", "", "comma-separated rewriting cycle budgets (default: 5)")
		shrinks   = flag.String("shrinks", "", "comma-separated datapath divisors (default: 1)")
		models    = flag.String("cost-models", "", "comma-separated JSON cost model files (default: built-in)")
		format    = flag.String("format", "csv", "csv|json")
		outFile   = flag.String("o", "", "write to file instead of stdout")
		all       = flag.Bool("all", false, "emit every swept point, not only the Pareto front")
		doVerify  = flag.Bool("verify", false, "statically verify every compile (incl. write and cost parity) and re-verify disk-cache hits")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel workers")
		quiet     = flag.Bool("q", false, "suppress the cache/timing summary on stderr")
		tracePath = flag.String("trace", "", "write a Chrome trace-event JSON trace of the sweep (with -v: also a span tree on stderr)")
		verbose   = flag.Bool("v", false, "stream per-benchmark progress events to stderr")
		cacheDir  = cli.CacheDirFlag()
	)
	flag.Parse()

	// A bad -format is refused before the sweep runs.
	var write func(*plim.ExploreResult, io.Writer, bool) error
	switch *format {
	case "csv":
		write = (*plim.ExploreResult).WriteCSV
	case "json":
		write = (*plim.ExploreResult).WriteJSON
	default:
		cli.Fatal(fmt.Errorf("plimexplore: unknown format %q (want csv or json)", *format))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := plim.ExploreOptions{Benchmarks: cli.SplitList(*benches)}
	var err error
	if opts.Configs, err = parseConfigs(*configs); err != nil {
		cli.Fatal(err)
	}
	if opts.Efforts, err = parseInts(*efforts, "effort"); err != nil {
		cli.Fatal(err)
	}
	if opts.Shrinks, err = parseInts(*shrinks, "shrink"); err != nil {
		cli.Fatal(err)
	}
	for _, path := range cli.SplitList(*models) {
		m, err := plim.LoadCostModel(path)
		if err != nil {
			cli.Fatal(err)
		}
		opts.Models = append(opts.Models, m)
	}

	run := cli.Run{Tool: "plimexplore", CacheDir: *cacheDir, Trace: *tracePath, Verbose: *verbose, Quiet: *quiet,
		Skip: func(ev plim.Event) bool {
			switch ev.(type) {
			case plim.EventRewriteCycle, plim.EventCompileStart, plim.EventTaskStart, plim.EventTaskDone:
				return true // the sweep is wide; per-benchmark granularity is enough
			}
			return false
		}}
	eng := run.Engine(plim.WithWorkers(*workers), plim.WithVerify(*doVerify))

	start := time.Now()
	res, err := eng.Explore(ctx, opts)
	if err != nil {
		cli.Fatal(err)
	}

	out, err := cli.Output(*outFile)
	if err != nil {
		cli.Fatal(err)
	}
	defer out.Close()
	if err := write(res, out, !*all); err != nil {
		cli.Fatal(err)
	}

	if err := run.Finish(eng); err != nil {
		cli.Fatal(err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "explored %d points (%d on front) in %v\n",
			len(res.Points), len(res.Front()), time.Since(start).Round(time.Millisecond))
	}
}

func parseInts(s, what string) ([]int, error) {
	var out []int
	for _, f := range cli.SplitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("plimexplore: bad %s %q", what, f)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseConfigs resolves -configs: "table1" expands to the paper's five
// incremental configurations; otherwise each name is a configuration name
// as core.ParseConfig reads it, or the shorthand capN for full+capN.
func parseConfigs(s string) ([]plim.Config, error) {
	if s == "" || s == "table1" {
		return plim.TableIConfigs(), nil
	}
	var cfgs []plim.Config
	for _, name := range cli.SplitList(s) {
		if strings.HasPrefix(name, "cap") {
			name = "full+" + name
		}
		cfg, err := core.ParseConfig(name, 0)
		if err != nil {
			return nil, fmt.Errorf("plimexplore: %w", err)
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}
