// plimtab regenerates the evaluation tables of the DATE 2017 paper:
//
//	plimtab -table 1                 Table I  (write distribution, 5 configs)
//	plimtab -table 2                 Table II (#I and #R)
//	plimtab -table 3                 Table III (max-write cap trade-off)
//	plimtab -table cost              energy/latency/lifetime per config (extension)
//	plimtab -table ablation          per-technique isolation (extension)
//	plimtab -table all -format md    everything, Markdown (EXPERIMENTS.md)
//
// The cost table prices every compiled program under an instruction cost
// model — the built-in default, or a JSON model given with -cost-model
// (see plim.LoadCostModel). Pricing never changes the compiled programs,
// so Tables I–III are byte-identical whatever the model.
//
// Flags select benchmarks, rewriting effort, output format and a datapath
// shrink factor for quick runs. The suite runs on a plim.Engine: Ctrl-C
// cancels between benchmarks, and -v streams per-benchmark and per-cycle
// progress events.
//
// With -cache-dir (default $PLIM_CACHE_DIR) rewrite results and benchmark
// builds persist on disk across invocations, so regenerating a table — or
// compiling one of its benchmarks with plimc afterwards — skips every
// rewrite an earlier run already performed, byte-identically. A cache
// summary is printed to stderr unless -q is given.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"plim"
	"plim/internal/cli"
	"plim/internal/core"
)

func main() {
	var (
		table     = flag.String("table", "all", "1|2|3|cost|ablation|all")
		costPath  = flag.String("cost-model", "", "JSON instruction cost model (default: built-in)")
		benches   = flag.String("benchmarks", "", "comma-separated subset (default: all 18)")
		effort    = flag.Int("effort", plim.DefaultEffort, "MIG rewriting cycles (0 = none)")
		shrink    = flag.Int("shrink", 1, "divide datapath widths (quick runs)")
		format    = flag.String("format", "text", "text|md|csv")
		outFile   = flag.String("out", "", "write to file instead of stdout")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel benchmark workers")
		caps      = flag.String("caps", "10,20,50,100", "write caps for Table III")
		quiet     = flag.Bool("q", false, "suppress progress output")
		tracePath = flag.String("trace", "", "write a Chrome trace-event JSON trace of the run (with -v: also a span tree on stderr)")
		verbose   = flag.Bool("v", false, "stream per-benchmark progress events to stderr")
		cacheDir  = cli.CacheDirFlag()
	)
	flag.Parse()

	want := func(name string) bool { return *table == "all" || *table == name }
	// Each cap is a full+capN configuration, parsed as every other config
	// name is, and refused before any suite runs.
	var capCfgs []plim.Config
	if want("3") {
		for _, c := range strings.Split(*caps, ",") {
			cfg, err := core.ParseConfig("full+cap"+strings.TrimSpace(c), 0)
			if err != nil {
				cli.Fatal(fmt.Errorf("plimtab: -caps: %w", err))
			}
			capCfgs = append(capCfgs, cfg)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cm, err := cli.CostModel(*costPath)
	if err != nil {
		cli.Fatal(err)
	}
	run := cli.Run{Tool: "plimtab", CacheDir: *cacheDir, Trace: *tracePath, Verbose: *verbose, Quiet: *quiet,
		Skip: func(ev plim.Event) bool {
			// Per-cycle spam is only useful for single runs (see plimc -v),
			// and the matching done events carry the payload and timing.
			switch ev.(type) {
			case plim.EventRewriteCycle, plim.EventCompileStart, plim.EventTaskStart:
				return true
			}
			return false
		}}
	eng := run.Engine(plim.WithEffort(*effort), plim.WithShrink(*shrink), plim.WithWorkers(*workers),
		plim.WithCostModel(cm))
	names := cli.SplitList(*benches)
	out, err := cli.Output(*outFile)
	if err != nil {
		cli.Fatal(err)
	}
	defer out.Close()

	render := func(g *plim.Grid) {
		switch *format {
		case "text":
			fmt.Fprintln(out, g.Text())
		case "md":
			fmt.Fprintln(out, g.Markdown())
		case "csv":
			fmt.Fprintln(out, g.CSV())
		default:
			cli.Fatal(fmt.Errorf("plimtab: unknown format %q", *format))
		}
	}
	progress := func(msg string) {
		if !*quiet {
			fmt.Fprintln(os.Stderr, msg)
		}
	}

	start := time.Now()

	if want("1") || want("2") || want("cost") {
		progress("running Table I/II configurations...")
		sr, err := eng.RunSuite(ctx, plim.TableIConfigs(), names...)
		if err != nil {
			cli.Fatal(err)
		}
		if want("1") {
			d, err := plim.TableI(sr)
			if err != nil {
				cli.Fatal(err)
			}
			render(d.Grid())
		}
		if want("2") {
			d, err := plim.TableII(sr)
			if err != nil {
				cli.Fatal(err)
			}
			render(d.Grid())
		}
		if want("cost") {
			d, err := plim.TableCost(sr)
			if err != nil {
				cli.Fatal(err)
			}
			render(d.Grid())
		}
	}

	if want("3") {
		progress("running Table III cap sweep...")
		sr, err := eng.RunSuite(ctx, capCfgs, names...)
		if err != nil {
			cli.Fatal(err)
		}
		d, err := plim.TableIII(sr)
		if err != nil {
			cli.Fatal(err)
		}
		render(d.Grid())
	}

	if want("ablation") {
		progress("running ablation configurations...")
		sr, err := eng.RunSuite(ctx, plim.AblationConfigs(), names...)
		if err != nil {
			cli.Fatal(err)
		}
		d, err := plim.TableI(sr)
		if err != nil {
			cli.Fatal(err)
		}
		g := d.Grid()
		g.Title = "Ablation: each endurance technique in isolation (STDEV improvement vs naive)"
		render(g)
	}

	if err := run.Finish(eng); err != nil {
		cli.Fatal(err)
	}
	progress(fmt.Sprintf("done in %v", time.Since(start).Round(time.Millisecond)))
}
