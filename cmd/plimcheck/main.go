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
	"bytes"
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
		inFile    = flag.String("in", "", "compiled program to verify (.bin binary or .plim/.asm assembly)")
		format    = flag.String("format", "auto", "input format: auto|bin|asm")
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
		cacheDir  = flag.String("cache-dir", os.Getenv("PLIM_CACHE_DIR"),
			"persistent cache directory shared with plimc/plimtab/migstat (default $PLIM_CACHE_DIR; empty = off)")
		costPath = flag.String("cost-model", "",
			"JSON instruction cost model pricing the report's cost block (default: built-in)")
	)
	flag.Parse()

	cm := plim.DefaultCostModel()
	if *costPath != "" {
		var err error
		if cm, err = plim.LoadCostModel(*costPath); err != nil {
			cli.Fatal(err)
		}
	}

	var rpt *plim.VerifyReport
	var err error
	switch {
	case *inFile != "" && *benchName != "":
		err = fmt.Errorf("plimcheck: use either -in or -bench, not both")
	case *tracePath != "" && *benchName == "":
		err = fmt.Errorf("plimcheck: -trace records the compile and needs -bench")
	case *inFile != "":
		rpt, err = checkFile(*inFile, *format, *cap, cm)
	case *benchName != "":
		rpt, err = checkBenchmark(*benchName, *cfgName, *cap, *effort, *shrink, *cacheDir, *tracePath, *verbose, cm)
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

// checkFile verifies a program read from disk. These bytes may come from
// anywhere — the codec rejects malformed streams with an error, and the
// verifier judges whatever decodes.
func checkFile(path, format string, cap uint64, cm *plim.CostModel) (*plim.VerifyReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if format == "auto" {
		if bytes.HasPrefix(data, []byte("PLIM")) {
			format = "bin"
		} else {
			format = "asm"
		}
	}
	var p *plim.Program
	switch format {
	case "bin":
		p, err = plim.ReadProgram(bytes.NewReader(data))
	case "asm":
		p, err = plim.ReadProgramAsm(bytes.NewReader(data))
	default:
		return nil, fmt.Errorf("plimcheck: unknown -format %q (want auto, bin or asm)", format)
	}
	if err != nil {
		return nil, fmt.Errorf("plimcheck: %s: %w", path, err)
	}
	return plim.Verify(p, plim.VerifyOptions{MaxWrites: cap, CostModel: cm}), nil
}

// checkBenchmark compiles a benchmark under the named configuration and
// verifies the result, including static-vs-allocator write parity — the
// cross-check that the wear accounting the paper's tables are built on is
// itself sound.
func checkBenchmark(bench, cfgName string, cap uint64, effort, shrink int, cacheDir, tracePath string, verbose bool, cm *plim.CostModel) (*plim.VerifyReport, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg, err := core.ParseConfig(cfgName, cap)
	if err != nil {
		return nil, fmt.Errorf("plimcheck: %w", err)
	}
	eng := plim.NewEngine(
		plim.WithEffort(effort),
		plim.WithPersistentCache(cacheDir),
		plim.WithVerify(true),
		plim.WithCostModel(cm),
		plim.WithTrace(tracePath != ""),
	)
	m, err := eng.Benchmark(ctx, bench, shrink)
	if err != nil {
		return nil, err
	}
	rep, err := eng.Run(ctx, m, cfg)
	if err != nil {
		return nil, err
	}
	// The engine ran WithVerify, so hard violations (including allocator
	// parity, checked in core) would have failed Run; the report remains
	// for wear numbers and dead-write warnings.
	rpt := rep.Verify
	if rpt == nil {
		rpt = plim.Verify(rep.Result.Program, plim.VerifyOptions{MaxWrites: cfg.MaxWrites, CostModel: cm})
		verify.CheckWriteParity(rpt, rep.Result.WriteCounts, "allocator")
	}
	if tracePath != "" {
		if err := cli.WriteTrace(eng, "plimcheck", tracePath, verbose); err != nil {
			return nil, err
		}
	}
	if s, ok := eng.CacheSummary(); ok {
		fmt.Fprintln(os.Stderr, s)
	}
	return rpt, nil
}
