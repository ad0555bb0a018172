// migstat inspects and rewrites MIG netlists: it reports structural
// statistics (nodes, depth, complement histogram — the quantities that
// drive PLiM cost), runs either rewriting algorithm through the
// plim.Engine (Ctrl-C cancels between cycles, -v streams per-cycle
// progress), and exports .mig or Graphviz DOT.
//
// Examples:
//
//	migstat -bench sin
//	migstat -bench sin -rewrite alg2 -o sin_opt.mig
//	migstat -in design.mig -rewrite alg1 -effort 3 -dot design.dot -v
//	migstat -bench log2 -rewrite alg2 -cache-dir ~/.cache/plim
//	migstat -bench ctrl -shrink 4 -rewrite alg2 -verify
//
// With -verify the (rewritten) MIG is additionally compiled under the full
// configuration (Algorithm 2 rewriting, endurance-aware selection,
// minimum-write allocation: the program plimc -config full emits) and
// statically verified — the same dataflow/wear report plimcheck prints —
// so a rewriting experiment shows its downstream write pressure
// immediately.
//
// With -cache-dir (default $PLIM_CACHE_DIR) rewrite results and benchmark
// builds persist across invocations and are shared with the other CLIs, so
// a rewrite that plimtab or plimc already performed is served from disk
// with zero cycles. A per-run cache summary is printed to stderr.
package main

import (
	"cmp"
	"context"
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
		benchName = flag.String("bench", "", "benchmark name")
		inFile    = flag.String("in", "", "input .mig netlist")
		shrink    = flag.Int("shrink", 1, "benchmark datapath shrink")
		rw        = flag.String("rewrite", "none", "none|alg1|alg2")
		effort    = flag.Int("effort", plim.DefaultEffort, "rewriting cycles (0 = none)")
		outMig    = flag.String("o", "", "write the (rewritten) MIG")
		outDot    = flag.String("dot", "", "write Graphviz DOT")
		checkEq   = flag.Bool("check", true, "verify rewriting preserved the function")
		doVerify  = flag.Bool("verify", false, "compile the result (full config) and print the static verification report")
		verbose   = flag.Bool("v", false, "stream per-cycle progress events to stderr")
		cacheDir  = cli.CacheDirFlag()
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	run := cli.Run{Tool: "migstat", CacheDir: *cacheDir, Verbose: *verbose}
	eng := run.Engine(plim.WithEffort(*effort), plim.WithVerify(*doVerify))
	m, err := run.Graph(ctx, eng, *benchName, *shrink, *inFile)
	if err != nil {
		cli.Fatal(err)
	}

	fmt.Printf("input       %s: %s\n", m.Name, m.Statistics())

	out := m
	kind, err := core.ParseRewriteKind(*rw)
	if err != nil {
		cli.Fatal(fmt.Errorf("migstat: %w", err))
	}
	if kind != plim.RewriteNone {
		var st plim.RewriteStats
		out, st, err = eng.Rewrite(ctx, m, kind)
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("rewritten   %s: %s\n", cmp.Or(*rw, kind.String()), out.Statistics())
		fmt.Printf("            %d → %d nodes, depth %d → %d, %d cycles\n",
			st.NodesBefore, st.NodesAfter, st.DepthBefore, st.DepthAfter, st.Cycles)
		if *checkEq {
			res, err := plim.Equivalent(m, out, 16, 1)
			if err != nil {
				cli.Fatal(err)
			}
			if !res.Equivalent {
				cli.Fatal(fmt.Errorf("migstat: rewriting changed the function at PO %d", res.PO))
			}
			mode := "random simulation"
			if res.Exhaustive {
				mode = "exhaustively"
			}
			fmt.Printf("equivalence verified %s (%d patterns)\n", mode, res.Patterns)
		}
	}

	if *doVerify {
		rep, err := eng.Run(ctx, out, plim.Full)
		if err != nil {
			cli.Fatal(err)
		}
		vr := rep.Verify // set on every compile of an engine built WithVerify
		fmt.Println()
		vr.Render(os.Stdout, verify.RenderOptions{Verbose: *verbose})
		if !vr.OK() {
			os.Exit(1)
		}
	}

	if *outMig != "" {
		if err := cli.WriteFile(*outMig, out.Write); err != nil {
			cli.Fatal(err)
		}
	}
	if *outDot != "" {
		if err := cli.WriteFile(*outDot, out.WriteDOT); err != nil {
			cli.Fatal(err)
		}
	}
	if err := run.Finish(eng); err != nil {
		cli.Fatal(err)
	}
}
