// Trade-off explorer: the paper's Table III for a single benchmark — sweep
// the maximum write count and report how instructions (#I, latency) and
// devices (#R, area) buy write balance (STDEV) and lifetime.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"plim"
)

func main() {
	bench := flag.String("bench", "square", "benchmark to sweep")
	shrink := flag.Int("shrink", 2, "datapath shrink (1 = paper scale)")
	endurance := flag.Uint64("endurance", 1e6, "device endurance for lifetime estimates")
	flag.Parse()

	ctx := context.Background()
	eng := plim.NewEngine()
	m, err := eng.Benchmark(ctx, *bench, *shrink)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("maximum-write sweep on %s (endurance %d)\n\n", *bench, *endurance)
	fmt.Printf("%-10s  %8s  %8s  %8s  %8s  %12s\n", "cap", "#I", "#R", "max", "STDEV", "lifetime")

	baseline, err := eng.Run(ctx, m, plim.Naive)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s  %8d  %8d  %8d  %8.2f  %12d\n", "naive",
		baseline.NumInstructions(), baseline.NumRRAMs(),
		baseline.Writes.Max, baseline.Writes.StdDev, baseline.Lifetime(*endurance))

	for _, cap := range []uint64{0, 100, 50, 20, 10, 6} {
		cfg := plim.Full
		label := "full"
		if cap > 0 {
			cfg = plim.FullCap(cap)
			label = fmt.Sprintf("full+cap%d", cap)
		}
		rep, err := eng.Run(ctx, m, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s  %8d  %8d  %8d  %8.2f  %12d\n", label,
			rep.NumInstructions(), rep.NumRRAMs(),
			rep.Writes.Max, rep.Writes.StdDev, rep.Lifetime(*endurance))
	}

	fmt.Println()
	fmt.Println("Tighter caps lower the per-device maximum (longer lifetime) and the")
	fmt.Println("deviation, paying with extra devices — the paper calls cap 100 a good")
	fmt.Println("trade-off and cap 10 the near-uniform extreme.")
}
