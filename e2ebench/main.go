// Command e2ebench is plim's end-to-end benchmark: four workloads that
// drive the whole stack — plimserve over HTTP, the disk-warm Table I
// process path and a cold design-space sweep — and report what a user sees
// (latency, throughput, memory, the paper's write-distribution numbers)
// plus, in a separate traced pass, where the time goes layer by layer.
//
//	bash e2ebench/run.sh --workload serve-hot --seed 1 --seconds 30 --trace 0
//	bash e2ebench/run.sh --workload serve-hot --seed 1 --seconds 30 --trace 1 --trace-out slow.json
//	bash e2ebench/run.sh --compare runs/parent,runs/change
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (every end-to-end metric of BENCHMARK.json with
// --trace 0, every per-layer metric with --trace 1). See README.md for the
// workloads, the metrics and how to compare two commits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// nproc is the number of CPUs; the load generator, the engine's workers and
// GOMAXPROCS all follow it.
var nproc = runtime.NumCPU()

// setups is how many times a run sets its workload up; setup_s is their
// median. The traced pass sets up as often, so both passes start from the
// same warm state.
const setups = 5

// workload is one benchmark workload.
type workload interface {
	// setup readies the workload; a repeated setup replaces the previous one.
	setup(ctx context.Context) error
	// quality reports the paper's write-distribution outcome on the
	// workload's reference functions.
	quality() quality
	// endToEnd runs the untraced pass for d. The first segment is the
	// measurement; any others are warm-up, which counts only towards the
	// attempted and failed operations.
	endToEnd(d time.Duration) []segment
	// perLayer runs the untraced and traced segments of the layer pass and
	// returns the per-layer metrics and the traced spans.
	perLayer(d time.Duration) (map[string]float64, []segment, *layers, error)
	// verify runs the correctness checks deferred past the measurement and
	// returns how many failed.
	verify() int
	close() error
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"serve-hot", "serve-cold", "tableI-disk-warm", "explore-cold"}

func newWorkload(name string, seed int64, scratch string) (workload, error) {
	switch name {
	case "serve-hot":
		t, err := newHotTraffic(seed)
		if err != nil {
			return nil, err
		}
		return &serveWorkload{t: t, senders: newSenders(nproc)}, nil
	case "serve-cold":
		t := newColdTraffic(seed, scratch)
		return &serveWorkload{t: t, senders: newSenders(nproc), parse: t.parseMS}, nil
	case "tableI-disk-warm":
		return &batchWorkload{batch: newTableWorkload(seed, scratch)}, nil
	case "explore-cold":
		return &batchWorkload{batch: newExploreWorkload(seed)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	setups   int
	scratch  string // directory for persistent caches
	traceOut string // Chrome trace of the slowest traced ops ("" = none)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run sets the workload up, measures it and returns the result plus a
// description of the run's conditions.
func run(cfg config) (*result, map[string]any, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.scratch)
	if err != nil {
		return nil, nil, err
	}
	res, info, err := measure(w, cfg)
	return res, info, errors.Join(err, w.close())
}

func measure(w workload, cfg config) (*result, map[string]any, error) {
	info := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.traced,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": nproc, "go": runtime.Version(),
	}
	if sw, ok := w.(*serveWorkload); ok {
		info["senders"] = len(sw.senders)
	}
	var setupS []float64
	for range cfg.setups {
		t0 := time.Now()
		if err := w.setup(context.Background()); err != nil {
			return nil, info, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	info["setup_s"] = setupS
	d := time.Duration(cfg.seconds) * time.Second
	res := &result{Metrics: map[string]metric{}}

	var segs []segment
	if !cfg.traced {
		heap := startHeapSampler()
		segs = w.endToEnd(d)
		heapMB := heap.stopMB()
		m := segs[0]
		if len(m.lat) == 0 {
			return nil, info, errors.New("no operation succeeded")
		}
		info["samples"] = len(m.lat)
		info["p75_supported"] = tailSupported(len(m.lat), 0.75)
		q := w.quality()
		for name, v := range map[string]float64{
			"setup_s":          median(setupS),
			"p50_ms":           median(m.lat),
			"p75_ms":           percentile(m.lat, 0.75),
			"throughput_per_s": m.throughput(),
			"alloc_mb_per_op":  m.rt.allocBytes / float64(m.attempted) / 1e6,
			"heap_p90_mb":      percentile(heapMB, 0.9),
			"sim_instructions": float64(q.instructions),
			"sim_rrams":        float64(q.rrams),
			"sim_write_stdev":  q.stdev / float64(max(q.full, 1)),
			"sim_max_writes":   q.maxWrites / float64(max(q.full, 1)),
		} {
			res.Metrics[name] = metric{v, endToEndUnits[name]}
		}
	} else {
		m, s, l, err := w.perLayer(d)
		if err != nil {
			return nil, info, err
		}
		segs = s
		for name, v := range m {
			res.Metrics[name] = metric{v, perLayerUnits[name]}
		}
		if cfg.traceOut != "" {
			if err := l.writeChrome(cfg.traceOut); err != nil {
				return nil, info, err
			}
		}
	}
	for _, s := range segs {
		res.Attempted += s.attempted
		res.Failed += s.failed
	}
	res.Failed = min(res.Failed+w.verify(), res.Attempted)
	res.Correct = res.Failed == 0
	if cfg.traced && res.Metrics["trace.coverage"].Value < minCoverage {
		fmt.Fprintf(os.Stderr, "e2ebench: trace coverage %.3f is below %.2f: the spans do not explain the program's time\n",
			res.Metrics["trace.coverage"].Value, minCoverage)
		res.Correct = false
	}
	return res, info, nil
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: serve-hot, serve-cold, tableI-disk-warm or explore-cold")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs")
	flag.IntVar(&cfg.seconds, "seconds", 30, "seconds of measurement")
	traceFlag := flag.Int("trace", 0, "0: untraced end-to-end pass; 1: traced per-layer pass")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with --trace 1: write the slowest traced ops as Chrome trace JSON to this file")
	compare := flag.String("compare", "", "base,change: compare two directories of recorded runs (see README.md)")
	flag.Parse()
	if *compare != "" {
		return runCompare(*compare, "BENCHMARK.json", os.Stdout)
	}
	if *traceFlag != 0 && *traceFlag != 1 || cfg.seconds < 1 || flag.NArg() > 0 {
		flag.Usage()
		return 2
	}
	cfg.traced = *traceFlag == 1
	cfg.setups = setups
	runtime.GOMAXPROCS(nproc)

	// Persistent caches live under the build directory of the checkout, in
	// a directory of this run's own that is removed on exit.
	buildDir := os.Getenv("CARGO_TARGET_DIR")
	if buildDir == "" {
		buildDir = ".bench_build"
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(buildDir, "e2ebench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	cfg.scratch, _ = filepath.Abs(scratch)

	// A run must end well inside three minutes even if the program under
	// test hangs.
	watchdog := time.AfterFunc(time.Duration(cfg.seconds)*time.Second+120*time.Second, func() {
		fmt.Fprintln(os.Stderr, "e2ebench: run exceeded its time limit")
		os.RemoveAll(scratch)
		os.Exit(1)
	})
	defer watchdog.Stop()

	res, info, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	out, err := json.Marshal(map[string]any{"info": info})
	if err == nil {
		fmt.Println(string(out))
		out, err = json.Marshal(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}
