// Start-gap rotation (extension): the paper balances writes within one
// compiled program; start-gap wear leveling (its reference [8]) rotates the
// logical→physical mapping across repeated executions. This example composes
// the two: the per-run write profile of each compiler configuration is fed
// through a start-gap memory and the achieved lifetimes are compared.
package main

import (
	"context"
	"fmt"
	"log"

	"plim"
	"plim/internal/wearlevel"
)

func main() {
	const (
		endurance = 100_000
		psi       = 64 // gap moves every 64 writes
	)

	eng := plim.NewEngine()
	m, err := eng.Benchmark(context.Background(), "cavlc", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("start-gap (ψ=%d) on %s, endurance %d\n\n", psi, m.Name, endurance)
	fmt.Printf("%-11s  %12s  %12s  %8s\n", "config", "no rotation", "start-gap", "gain")

	for _, cfg := range []plim.Config{plim.Naive, plim.MinWrite, plim.Full} {
		rep, err := eng.Run(context.Background(), m, cfg)
		if err != nil {
			log.Fatal(err)
		}
		profile := rep.Result.WriteCounts
		base := wearlevel.Baseline(profile, endurance)
		rot := wearlevel.Simulate(profile, endurance, psi)
		fmt.Printf("%-11s  %12d  %12d  %7.1fx\n",
			cfg.Name, base, rot.Runs, float64(rot.Runs)/float64(base))
	}

	fmt.Println()
	fmt.Println("Rotation helps most when the compiler leaves skew behind (naive);")
	fmt.Println("after full endurance-aware compilation the profile is already flat,")
	fmt.Println("so start-gap adds little beyond its copy overhead — compile-time and")
	fmt.Println("run-time wear leveling are complementary, not redundant.")
}
