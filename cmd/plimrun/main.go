// plimrun executes a compiled PLiM program on the RRAM crossbar simulator.
// It can load binary or assembly programs, drive them with given input
// vectors (inline, from a batch file or randomly generated), verify outputs
// against a reference .mig netlist, and render the wear map of the array.
// Everything runs through the public plim facade; all input vectors of one
// invocation execute as a single bit-sliced batch (64 vectors per machine
// word), so large pattern sets cost a fraction of one-at-a-time runs.
//
// Examples:
//
//	plimc -bench adder -config full -o adder.bin
//	plimrun -in adder.bin -random 4 -wearmap
//	plimrun -in adder.bin -batch vectors.txt
//	printf '0101\n1100\n' | plimrun -in adder.bin -batch -
//	plimrun -in adder.bin -verify adder.mig -patterns 16
//	plimrun -in adder.bin -verify adder -shrink 1 -cache-dir ~/.cache/plim
//
// -verify accepts either a .mig netlist file or the name of one of the
// paper's benchmarks; a benchmark reference is rebuilt at -shrink through
// the persistent cache when -cache-dir (default $PLIM_CACHE_DIR) is set,
// so verification reuses the build an earlier plimc/plimtab run stored.
// When no explicit patterns are given, -verify checks the whole truth
// table for programs of up to 16 inputs and falls back to -patterns random
// vectors beyond that.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"plim"
	"plim/internal/cli"
)

func main() {
	var (
		inFile    = flag.String("in", "", "compiled program (binary or assembly, told apart by the binary magic)")
		inputsHex = flag.String("inputs", "", "input bits, LSB-first string of 0/1 (length = #PI)")
		batchFile = flag.String("batch", "", `file of input vectors, one 0/1 string per line ("-" = stdin)`)
		random    = flag.Int("random", 0, "run N random input vectors instead")
		verify    = flag.String("verify", "", "reference to check outputs against: a .mig netlist file or a benchmark name")
		patterns  = flag.Int("patterns", 8, "number of random patterns for -verify (beyond 16 inputs)")
		seed      = flag.Int64("seed", 1, "random seed")
		wearmap   = flag.Bool("wearmap", false, "print the crossbar wear map after the run")
		endurance = flag.Uint64("endurance", 0, "per-device write budget (0 = unlimited)")
		tracePath = flag.String("trace", "", "write a Chrome trace-event JSON trace of the batch execution")
		shrink    = flag.Int("shrink", 1, "datapath divisor when -verify names a benchmark")
		cacheDir  = cli.CacheDirFlag()
	)
	flag.Parse()

	if *inFile == "" {
		cli.Fatal(fmt.Errorf("plimrun: need -in"))
	}
	prog, err := cli.ReadProgram(*inFile, "auto")
	if err != nil {
		cli.Fatal(fmt.Errorf("plimrun: %w", err))
	}
	npi := prog.NumPIs()
	fmt.Printf("program     %s: %d instructions, %d devices, %d inputs, %d outputs\n",
		prog.Name(), prog.NumInstructions(), prog.NumCells(), npi, prog.NumPOs())

	var ref *plim.MIG
	if *verify != "" {
		ref, err = loadReference(*verify, *shrink, *cacheDir)
		if err != nil {
			cli.Fatal(err)
		}
		if ref.NumPIs() != npi || ref.NumPOs() != prog.NumPOs() {
			cli.Fatal(fmt.Errorf("plimrun: reference shape %d/%d does not match program %d/%d",
				ref.NumPIs(), ref.NumPOs(), npi, prog.NumPOs()))
		}
	}

	batch, exhaustive, err := buildBatch(*inputsHex, *batchFile, *random, *patterns, *seed, ref != nil, npi)
	if err != nil {
		cli.Fatal(err)
	}
	if batch == nil || batch.Len() == 0 {
		cli.Fatal(fmt.Errorf("plimrun: provide -inputs, -batch, -random or -verify"))
	}
	if batch.Lines() != npi {
		cli.Fatal(fmt.Errorf("plimrun: input vectors have %d bits, program needs %d", batch.Lines(), npi))
	}

	// Execution goes through an engine so -trace can record per-chunk
	// spans; without -trace this is equivalent to the plain ExecuteBatch
	// free function. The engine has no persistent cache: only a -verify
	// benchmark rebuild uses one, so there is no cache summary to print.
	run := cli.Run{Tool: "plimrun", Trace: *tracePath}
	eng := run.Engine()
	res, err := eng.ExecuteBatch(context.Background(), prog, batch, plim.ExecOptions{Endurance: *endurance})
	if err != nil {
		cli.Fatal(fmt.Errorf("plimrun: %w", err))
	}
	if err := run.Finish(eng); err != nil {
		cli.Fatal(err)
	}

	if ref != nil {
		if err := checkBatch(ref, batch, res.Outputs); err != nil {
			cli.Fatal(fmt.Errorf("plimrun: %w", err))
		}
		if exhaustive {
			fmt.Printf("verify      OK (exhaustive: all %d input patterns match the reference netlist)\n", batch.Len())
		} else {
			fmt.Printf("verify      OK (%d patterns match the reference netlist)\n", batch.Len())
		}
	} else {
		ins, outs := batch.Strings(), res.Outputs.Strings()
		for i := range ins {
			fmt.Printf("run %d: in=%s out=%s\n", i, ins[i], outs[i])
		}
	}

	// Write counts are data-independent, so the aggregate divides exactly
	// back into the per-execution wear the paper's statistics are about.
	per := make([]uint64, len(res.Writes))
	for z, w := range res.Writes {
		per[z] = w / uint64(res.Vectors)
	}
	s := plim.SummarizeWrites(per)
	fmt.Printf("writes      min=%d max=%d stdev=%.2f (per execution)\n", s.Min, s.Max, s.StdDev)
	if *wearmap {
		fmt.Println("wear map (0-9 relative, '.' = untouched):")
		fmt.Println(plim.WearMap(per))
	}
}

// buildBatch assembles the input vectors of this invocation into one
// bit-sliced batch: the -inputs vector, then the -batch file's vectors, then
// -random random ones. A bare -verify with no other source checks the whole
// truth table up to 16 inputs and falls back to random patterns beyond.
func buildBatch(inputs, batchFile string, random, patterns int, seed int64, verifying bool, npi int) (*plim.Batch, bool, error) {
	var vecs []string
	if inputs != "" {
		vecs = append(vecs, inputs)
	}
	if batchFile != "" {
		fromFile, err := readVectors(batchFile)
		if err != nil {
			return nil, false, err
		}
		vecs = append(vecs, fromFile...)
	}
	n := random
	if verifying && n == 0 && len(vecs) == 0 {
		if npi <= 16 {
			b, err := plim.ExhaustiveBatch(npi)
			return b, true, err
		}
		n = patterns
	}
	if n > 0 {
		vecs = append(vecs, plim.RandomBatch(npi, n, seed).Strings()...)
	}
	if len(vecs) == 0 {
		return nil, false, nil
	}
	b, err := plim.PackBatchStrings(vecs)
	if err != nil {
		return nil, false, fmt.Errorf("plimrun: %w", err)
	}
	return b, false, nil
}

// readVectors loads one 0/1 vector string per line ("-" = stdin).
func readVectors(path string) ([]string, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, fmt.Errorf("plimrun: read vectors: %w", err)
	}
	return strings.Fields(string(data)), nil
}

// loadReference resolves -verify: an existing file is parsed as a .mig
// netlist; otherwise the value must name one of the paper's benchmarks,
// rebuilt at the given shrink through the persistent cache (when set).
func loadReference(ref string, shrink int, cacheDir string) (*plim.MIG, error) {
	if _, err := os.Stat(ref); err == nil {
		return cli.ReadNetlist(ref)
	}
	if _, ok := plim.LookupBenchmark(ref); !ok {
		return nil, fmt.Errorf("plimrun: -verify %q is neither a readable file nor a benchmark name", ref)
	}
	eng := plim.NewEngine(plim.WithPersistentCache(cacheDir))
	return eng.Benchmark(context.Background(), ref, shrink)
}

// checkBatch compares the executor's packed outputs against word-parallel
// reference simulation, one 64-vector chunk at a time.
func checkBatch(ref *plim.MIG, in, out *plim.Batch) error {
	words := make([]uint64, in.Lines())
	for c := 0; c < in.Chunks(); c++ {
		for i := range words {
			words[i] = in.Word(i, c)
		}
		want := ref.Eval(words)
		mask := in.ActiveMask(c)
		for o, w := range want {
			if got := out.Word(o, c); got != w&mask {
				v := firstDiff(got, w&mask, c)
				return fmt.Errorf("run %d: output %d mismatch: crossbar %v, reference %v",
					v, o, out.Get(v, o), w>>(uint(v)%64)&1 == 1)
			}
		}
	}
	return nil
}

// firstDiff locates the lowest differing lane of a chunk as a vector index.
func firstDiff(a, b uint64, chunk int) int {
	d := a ^ b
	i := 0
	for d&1 == 0 {
		d >>= 1
		i++
	}
	return chunk*64 + i
}
