// Lifetime and failure injection: run a compiled program repeatedly on a
// crossbar with a small endurance budget and observe when the first device
// dies under each endurance configuration. The compiler-side prediction
// (endurance / max writes per run) matches the simulated failure point.
package main

import (
	"context"
	"fmt"
	"log"

	"plim"
	"plim/internal/isa"
	"plim/internal/rram"
)

func main() {
	const endurance = 2000

	eng := plim.NewEngine()
	m, err := eng.Benchmark(context.Background(), "cavlc", 1)
	if err != nil {
		log.Fatal(err)
	}
	inputs := make([]bool, m.NumPIs())
	for i := range inputs {
		inputs[i] = i%2 == 0
	}

	fmt.Printf("failure injection on %s with device endurance %d\n\n", m.Name, endurance)
	fmt.Printf("%-11s  %9s  %9s  %12s  %12s\n", "config", "max/run", "predicted", "simulated", "agreement")

	for _, cfg := range []plim.Config{plim.Naive, plim.MinWrite, plim.Full, plim.FullCap(10)} {
		rep, err := eng.Run(context.Background(), m, cfg)
		if err != nil {
			log.Fatal(err)
		}
		predicted := rep.Lifetime(endurance)

		// Simulate: one crossbar, repeated executions until a device dies.
		xbar := rram.NewLinear(int(rep.Result.Program.NumCells()), rram.WithEndurance(endurance))
		ctrl := isa.NewController(xbar)
		simulated := uint64(0)
		for {
			if err := ctrl.LoadInputs(rep.Result.Program, inputs); err != nil {
				log.Fatal(err)
			}
			if err := ctrl.Run(rep.Result.Program); err != nil {
				break // first device wore out mid-run
			}
			simulated++
			if simulated > predicted+2 {
				break // safety net; should not happen
			}
		}
		agree := "✓"
		if simulated != predicted {
			agree = fmt.Sprintf("off by %d", int64(simulated)-int64(predicted))
		}
		fmt.Printf("%-11s  %9d  %9d  %12d  %12s\n",
			cfg.Name, rep.Writes.Max, predicted, simulated, agree)
	}

	fmt.Println()
	fmt.Println("The maximum write count per execution determines the first failure;")
	fmt.Println("balancing writes multiplies the usable lifetime of the whole array.")
}
