// plimcheck statically verifies PLiM RM3 programs and prints a
// wear/deadness report, without executing a single vector. It proves
// def-before-use for every operand, in-range cell references, output
// liveness, the exact per-cell write counts (the endurance model's input)
// and flags dead writes — wasted endurance. It accepts either a compiled
// program (binary or assembly, e.g. plimc -o out.bin) or a benchmark,
// which it compiles under a named configuration and then additionally
// cross-checks against the allocator's write accounting.
//
// Examples:
//
//	plimcheck -in prog.bin
//	plimcheck -in prog.plim -endurance 1e6 -v
//	plimcheck -bench ctrl -config full -shrink 4
//	plimcheck -bench div -config full -cap 20 -strict -json
//
// The exit status is 1 when any hard violation is found (or, with
// -strict, any dead write), making it suitable as a CI gate over every
// program a build emits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"plim"
	"plim/internal/cli"
	"plim/internal/core"
	"plim/internal/verify"
)

func main() {
	var (
		inFile    = flag.String("in", "", "compiled program to verify (binary or assembly)")
		format    = flag.String("format", "auto", "input format: auto (sniff the binary magic)|bin|asm")
		benchName = flag.String("bench", "", "compile-and-verify a benchmark instead of reading a program")
		cfgName   = flag.String("config", "full", "configuration for -bench: naive|compiler21|minwrite|rewriting|full, optionally +capN")
		cap       = flag.Uint64("cap", 0, "per-cell write cap to check against (0 = the config's cap, if any)")
		effort    = flag.Int("effort", plim.DefaultEffort, "MIG rewriting cycles for -bench")
		shrink    = flag.Int("shrink", 1, "benchmark datapath shrink for -bench")
		endurance = flag.Uint64("endurance", 1e10, "per-device endurance for the lifetime estimate (0 = omit)")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON instead of text")
		strict    = flag.Bool("strict", false, "also fail (exit 1) on dead writes")
		tracePath = flag.String("trace", "", "with -bench: write a Chrome trace-event JSON trace of the compile (with -v: also a span tree on stderr)")
		verbose   = flag.Bool("v", false, "list the full per-cell write histogram")
		cacheDir  = cli.CacheDirFlag()
		costPath  = flag.String("cost-model", "",
			"JSON instruction cost model pricing the report's cost block (default: built-in)")
	)
	flag.Parse()

	cm, err := cli.CostModel(*costPath)
	if err != nil {
		cli.Fatal(err)
	}

	var rpt *plim.VerifyReport
	switch {
	case *inFile != "" && *benchName != "":
		err = fmt.Errorf("plimcheck: use either -in or -bench, not both")
	case *tracePath != "" && *benchName == "":
		err = fmt.Errorf("plimcheck: -trace records the compile and needs -bench")
	case *inFile != "":
		rpt, err = checkFile(*inFile, *format, *cap, cm)
	case *benchName != "":
		// -v lists the write histogram and prints the span tree, no events.
		run := cli.Run{Tool: "plimcheck", CacheDir: *cacheDir, Trace: *tracePath, Verbose: *verbose,
			Skip: func(plim.Event) bool { return true }}
		rpt, err = checkBenchmark(run, *benchName, *cfgName, *cap, *effort, *shrink, cm)
	default:
		err = fmt.Errorf("plimcheck: need -in or -bench")
	}
	if err != nil {
		cli.Fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rpt); err != nil {
			cli.Fatal(err)
		}
	} else {
		rpt.Render(os.Stdout, verify.RenderOptions{Endurance: *endurance, Verbose: *verbose})
	}
	if !rpt.OK() || (*strict && !rpt.Clean()) {
		os.Exit(1)
	}
}

// checkFile verifies a program read from disk; the verifier judges
// whatever decodes.
func checkFile(path, format string, cap uint64, cm *plim.CostModel) (*plim.VerifyReport, error) {
	p, err := cli.ReadProgram(path, format)
	if err != nil {
		return nil, fmt.Errorf("plimcheck: %w", err)
	}
	return plim.Verify(p, plim.VerifyOptions{MaxWrites: cap, CostModel: cm}), nil
}

// checkBenchmark compiles a benchmark under the named configuration and
// verifies the result, including static-vs-allocator write parity — the
// cross-check that the wear accounting the paper's tables are built on is
// itself sound.
func checkBenchmark(run cli.Run, bench, cfgName string, cap uint64, effort, shrink int, cm *plim.CostModel) (*plim.VerifyReport, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg, err := core.ParseConfig(cfgName, cap)
	if err != nil {
		return nil, fmt.Errorf("plimcheck: %w", err)
	}
	eng := run.Engine(plim.WithEffort(effort), plim.WithVerify(true), plim.WithCostModel(cm))
	m, err := eng.Benchmark(ctx, bench, shrink)
	if err != nil {
		return nil, err
	}
	rep, err := eng.Run(ctx, m, cfg)
	if err != nil {
		return nil, err
	}
	// The engine runs WithVerify, so every report carries its verification:
	// a hard violation (allocator parity included, checked in core) fails
	// Run, and the report remains for wear numbers and dead-write warnings.
	return rep.Verify, run.Finish(eng)
}
