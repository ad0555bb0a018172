// Wear map: compile one of the paper's benchmarks under the naive and the
// full endurance configuration, execute both programs on the crossbar
// simulator, and render ASCII heat maps of per-device write counts. The
// naive map shows a few scorched devices; the endurance-managed map is flat.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"plim"
)

func main() {
	bench := flag.String("bench", "sin", "benchmark to visualize")
	shrink := flag.Int("shrink", 2, "datapath shrink (1 = paper scale)")
	flag.Parse()

	eng := plim.NewEngine()
	m, err := eng.Benchmark(context.Background(), *bench, *shrink)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benchmark %s: %d inputs, %d outputs, %d majority nodes\n\n",
		*bench, m.NumPIs(), m.NumPOs(), m.Statistics().MajNodes)

	inputs := make([]bool, m.NumPIs())
	for i := range inputs {
		inputs[i] = i%3 == 0
	}

	for _, cfg := range []plim.Config{plim.Naive, plim.Full, plim.FullCap(10)} {
		rep, err := eng.Run(context.Background(), m, cfg)
		if err != nil {
			log.Fatal(err)
		}
		_, xbar, err := plim.Execute(rep.Result.Program, inputs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s: #I=%d #R=%d min/max=%d/%d stdev=%.2f\n",
			cfg.Name, rep.NumInstructions(), rep.NumRRAMs(),
			rep.Writes.Min, rep.Writes.Max, rep.Writes.StdDev)
		fmt.Println(xbar.WearMap(rep.NumRRAMs()))
		fmt.Println()
	}
	fmt.Println("scale: '.' = never written, '0'..'9' = write count relative to the")
	fmt.Println("hottest device of that map. Note how 'full' flattens the profile and")
	fmt.Println("'full+cap10' bounds it at the cost of more devices.")
}
