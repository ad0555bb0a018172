package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"plim"
)

// batchShrink is the datapath divisor of the batch workloads.
const batchShrink = 2

// batch is a closed-loop workload: one operation at a time, each on a fresh
// engine, the way a CLI process runs.
type batch interface {
	setup(ctx context.Context) error
	quality() quality
	// engine builds the fresh engine of one operation.
	engine(opts ...plim.Option) *plim.Engine
	// run performs one operation and checks its output. It returns the
	// work units done and the instructions its compiles emitted.
	run(eng *plim.Engine) (units float64, compiled int, err error)
	close() error
}

// batchWorkload measures a batch.
type batchWorkload struct {
	batch
	errs atomic.Int64
}

// op runs one operation. Traced operations record spans and count rewrite
// cycles into l; every operation adds its engine's counters to c.
func (w *batchWorkload) op(traced bool, l *layers, c counters) func(s, i int) outcome {
	return func(int, int) outcome {
		var opts []plim.Option
		cycles := 0
		if traced {
			opts = append(opts, plim.WithTrace(true), plim.WithProgress(func(ev plim.Event) {
				if _, ok := ev.(plim.EventRewriteCycle); ok {
					cycles++
				}
			}))
		}
		eng := w.engine(opts...)
		// A plim.Engine stops its scheduler through a GC cleanup once the
		// engine is unreachable, even while a call on it is still running,
		// and that call's unstarted tasks then never run: a caller that
		// drops the engine after starting RunSuite or Explore can hang under
		// GC pressure. Every engine here stays reachable until its last call
		// returns.
		defer runtime.KeepAlive(eng)
		t0 := time.Now()
		units, compiled, err := w.run(eng)
		wall := ms(time.Since(t0))
		if err != nil {
			if w.errs.Add(1) <= 5 {
				fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			}
			return outcome{}
		}
		if c != nil {
			c.add(engineCounters(eng))
			c["rewrite_cycles"] += float64(cycles)
		}
		if traced {
			l.add(clientOp(wall, engineSpans(eng.TakeTrace())), compiled, 0)
		}
		return outcome{ok: true, units: units}
	}
}

func (w *batchWorkload) endToEnd(d time.Duration) []segment {
	return []segment{closedLoop(d, 1, 0, w.op(false, nil, nil))}
}

// perLayer runs half of d untraced (counters, runtime and client metrics)
// and half traced (span metrics).
func (w *batchWorkload) perLayer(d time.Duration) (map[string]float64, []segment, *layers, error) {
	cu, ct := counters{}, counters{}
	u := closedLoop(d/2, 1, 0, w.op(false, nil, cu))
	var l layers
	t := closedLoop(d/2, 1, 0, w.op(true, &l, ct))
	return layerMetrics(u, t, &l, cu, ct, nproc), []segment{u, t}, &l, nil
}

func (w *batchWorkload) verify() int { return 0 }

// shuffled returns names in a seeded order, so the seed varies the order in
// which the scheduler meets the benchmarks while the work stays the same.
func shuffled(seed int64, names []string) []string {
	out := slices.Clone(names)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// tableWorkload is tableI-disk-warm: every operation is a fresh engine over
// a primed persistent cache running all of Table I, the plimtab-then-plimc
// process path.
type tableWorkload struct {
	scratch string
	order   []string
	dir     string // the primed persistent cache
	want    string // Table I CSV of the priming run
	q       quality
}

func newTableWorkload(seed int64, scratch string) *tableWorkload {
	return &tableWorkload{scratch: scratch, order: shuffled(seed, plim.Benchmarks())}
}

func (t *tableWorkload) engine(opts ...plim.Option) *plim.Engine {
	base := []plim.Option{plim.WithShrink(batchShrink), plim.WithWorkers(nproc), plim.WithPersistentCache(t.dir)}
	return plim.NewEngine(append(base, opts...)...)
}

// setup primes a fresh cache directory with one cold run: compute plus
// disk stores.
func (t *tableWorkload) setup(ctx context.Context) error {
	if err := t.close(); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(t.scratch, "tableI-")
	if err != nil {
		return err
	}
	t.dir = dir
	eng := t.engine()
	sr, err := eng.RunSuite(ctx, plim.TableIConfigs(), t.order...)
	runtime.KeepAlive(eng) // see batchWorkload.op
	if err != nil {
		return fmt.Errorf("priming run: %w", err)
	}
	if t.want, err = tableCSV(sr); err != nil {
		return err
	}
	t.q = quality{}
	t.q.addSuite(sr)
	return nil
}

func (t *tableWorkload) run(eng *plim.Engine) (float64, int, error) {
	sr, err := eng.RunSuite(context.Background(), plim.TableIConfigs(), t.order...)
	if err != nil {
		return 0, 0, err
	}
	got, err := tableCSV(sr)
	if err != nil {
		return 0, 0, err
	}
	if got != t.want {
		return 0, 0, fmt.Errorf("disk-warm Table I differs from the priming run's")
	}
	cells, compiled := 0, 0
	for _, row := range sr.Reports {
		for _, rep := range row {
			cells++
			compiled += rep.NumInstructions()
		}
	}
	return float64(cells), compiled, nil
}

func tableCSV(sr *plim.SuiteResult) (string, error) {
	d, err := plim.TableI(sr)
	if err != nil {
		return "", err
	}
	return d.Grid().CSV(), nil
}

func (t *tableWorkload) quality() quality { return t.q }

func (t *tableWorkload) close() error {
	if t.dir == "" {
		return nil
	}
	err := os.RemoveAll(t.dir)
	t.dir = ""
	return err
}

// exploreBenchmarks are explore-cold's sweep benchmarks.
var exploreBenchmarks = []string{"ctrl", "router", "cavlc", "int2float", "sin", "i2c", "dec", "priority"}

// exploreWorkload is explore-cold: every operation sweeps benchmarks ×
// efforts {0, 2, 5} × the five Table I policies × two cost models on a
// fresh engine with no persistent tier.
type exploreWorkload struct {
	opts plim.ExploreOptions
	want string // sweep CSV of the set-up run
	q    quality
}

func newExploreWorkload(seed int64) *exploreWorkload {
	alt := plim.DefaultCostModel()
	alt.Name = "alt"
	alt.RM3.EnergyPJ *= 2
	return &exploreWorkload{opts: plim.ExploreOptions{
		Benchmarks: shuffled(seed, exploreBenchmarks),
		Efforts:    []int{0, 2, 5},
		Models:     []*plim.CostModel{plim.DefaultCostModel(), alt},
	}}
}

func (e *exploreWorkload) engine(opts ...plim.Option) *plim.Engine {
	base := []plim.Option{plim.WithShrink(batchShrink), plim.WithWorkers(nproc)}
	return plim.NewEngine(append(base, opts...)...)
}

// setup runs the sweep once for the reference CSV, then the Table I
// policies at the default effort on the same (now warm) engine for the
// quality metrics.
func (e *exploreWorkload) setup(ctx context.Context) error {
	eng := e.engine()
	res, err := eng.Explore(ctx, e.opts)
	if err != nil {
		return err
	}
	e.want, err = exploreCSV(res)
	if err != nil {
		return err
	}
	sr, err := eng.RunSuite(ctx, plim.TableIConfigs(), e.opts.Benchmarks...)
	runtime.KeepAlive(eng) // see batchWorkload.op
	if err != nil {
		return err
	}
	e.q = quality{}
	e.q.addSuite(sr)
	return nil
}

func (e *exploreWorkload) run(eng *plim.Engine) (float64, int, error) {
	res, err := eng.Explore(context.Background(), e.opts)
	if err != nil {
		return 0, 0, err
	}
	got, err := exploreCSV(res)
	if err != nil {
		return 0, 0, err
	}
	if got != e.want {
		return 0, 0, fmt.Errorf("explore CSV differs from the set-up run's")
	}
	compiled := 0
	for _, p := range res.Points {
		if p.Model == e.opts.Models[0].Name {
			compiled += p.Instructions
		}
	}
	return float64(len(res.Points)), compiled, nil
}

func exploreCSV(res *plim.ExploreResult) (string, error) {
	var b strings.Builder
	err := res.WriteCSV(&b, false)
	return b.String(), err
}

func (e *exploreWorkload) quality() quality { return e.q }
func (e *exploreWorkload) close() error     { return nil }
