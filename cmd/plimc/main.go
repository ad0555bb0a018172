// plimc compiles a Boolean function (one of the paper's benchmarks or a
// .mig netlist) into a PLiM RM3 program under a chosen endurance
// configuration, reporting the paper's #I/#R/write-distribution metrics.
// It is built on the plim.Engine API: Ctrl-C cancels a long rewrite, and
// -v streams per-cycle rewriting progress plus compile-stage start/done
// events.
//
// Examples:
//
//	plimc -bench adder -config full
//	plimc -bench div -config full -cap 20 -asm div.plim
//	plimc -in design.mig -config naive -o design.bin -stats -v
//	plimc -bench log2 -config full -cache-dir ~/.cache/plim
//
// With -cache-dir (default $PLIM_CACHE_DIR) rewrite results and benchmark
// builds persist across invocations: a run that plimtab (or an earlier
// plimc) already performed is served from disk, byte-identical and with
// zero rewrite cycles. A per-run cache summary is printed to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"plim"
	"plim/internal/cli"
	"plim/internal/core"
)

func main() {
	var (
		benchName = flag.String("bench", "", "benchmark name (see -list)")
		inFile    = flag.String("in", "", "input .mig netlist (alternative to -bench)")
		cfgName   = flag.String("config", "full", "configuration: naive|compiler21|minwrite|rewriting|full, optionally +capN")
		cap       = flag.Uint64("cap", 0, "maximum write count per device (0 = unlimited)")
		effort    = flag.Int("effort", plim.DefaultEffort, "MIG rewriting cycles (0 = none)")
		shrink    = flag.Int("shrink", 1, "divide benchmark datapath widths (quick runs)")
		outBin    = flag.String("o", "", "write the compiled program in binary form")
		outAsm    = flag.String("asm", "", "write the compiled program as assembly")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		showStats = flag.Bool("stats", true, "print compilation statistics")
		tracePath = flag.String("trace", "", "write a Chrome trace-event JSON trace of this run (with -v: also a span tree on stderr)")
		verbose   = flag.Bool("v", false, "stream progress events to stderr")
		cacheDir  = cli.CacheDirFlag()
	)
	flag.Parse()

	if *list {
		for _, n := range plim.Benchmarks() {
			info, _ := plim.LookupBenchmark(n)
			kind := "functional"
			if info.Synthetic {
				kind = "synthetic"
			}
			fmt.Printf("%-12s %4d/%-4d %s\n", n, info.PI, info.PO, kind)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	run := cli.Run{Tool: "plimc", CacheDir: *cacheDir, Trace: *tracePath, Verbose: *verbose}
	eng := run.Engine(plim.WithEffort(*effort))
	m, err := run.Graph(ctx, eng, *benchName, *shrink, *inFile)
	if err != nil {
		cli.Fatal(err)
	}
	cfg, err := core.ParseConfig(*cfgName, *cap)
	if err != nil {
		cli.Fatal(fmt.Errorf("plimc: %w", err))
	}
	rep, err := eng.Run(ctx, m, cfg)
	if err != nil {
		cli.Fatal(err)
	}
	if *showStats {
		fmt.Printf("function    %s (pi=%d po=%d maj=%d)\n", m.Name, m.NumPIs(), m.NumPOs(), m.Statistics().MajNodes)
		fmt.Printf("config      %s\n", cfg.Name)
		if cfg.Rewrite != plim.RewriteNone {
			fmt.Printf("rewriting   %d → %d nodes in %d cycles\n",
				rep.Rewrite.NodesBefore, rep.Rewrite.NodesAfter, rep.Rewrite.Cycles)
		}
		fmt.Printf("#I          %d\n#R          %d\n", rep.NumInstructions(), rep.NumRRAMs())
		fmt.Printf("writes      min=%d max=%d stdev=%.2f\n",
			rep.Writes.Min, rep.Writes.Max, rep.Writes.StdDev)
		fmt.Printf("lifetime    %d executions at endurance 1e10\n", rep.Lifetime(1e10))
	}
	if *outBin != "" {
		if err := cli.WriteFile(*outBin, rep.Result.Program.WriteBinary); err != nil {
			cli.Fatal(err)
		}
	}
	if *outAsm != "" {
		if err := cli.WriteFile(*outAsm, rep.Result.Program.WriteAsm); err != nil {
			cli.Fatal(err)
		}
	}
	if err := run.Finish(eng); err != nil {
		cli.Fatal(err)
	}
}
