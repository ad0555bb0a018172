package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"plim/internal/cost"
	"plim/internal/mig"
	"plim/internal/sched"
	"plim/internal/stats"
	"plim/internal/suite"
)

// ExploreOptions configures a design-space sweep (see Explore). The sweep
// axes (Benchmarks × Shrinks × Efforts × Configs × Models) default to the
// paper's evaluation: the full benchmark suite at paper scale, the
// default rewriting effort, the five Table I configurations and the
// built-in cost model.
type ExploreOptions struct {
	// Benchmarks to sweep; nil or empty means the full suite.
	Benchmarks []string
	// Configs are the compilation policies; nil means TableIConfigs().
	Configs []Config
	// Efforts are the rewriting cycle budgets; nil means {DefaultEffort}.
	Efforts []int
	// Shrinks are the datapath divisors; nil means {1} (paper scale).
	Shrinks []int
	// Models price every compiled program. The first model is also threaded
	// through compilation (Report.Cost and, with Verify, the parity check);
	// the rest price the identical programs after the fact — the model is
	// pure accounting and never influences compilation, so one compile per
	// (benchmark, shrink, effort, config) covers every model. Nil means
	// {cost.Default()}. Model names must be distinct: they key the output
	// rows and the Pareto grouping.
	Models []*cost.Model
	// Verify statically verifies every compiled program, including
	// static-vs-allocator write and cost parity under Models[0]; so does
	// Env.Verify.
	Verify bool
}

// ExplorePoint is one swept design point: a (benchmark, shrink, effort,
// config) compilation priced under one cost model.
type ExplorePoint struct {
	Benchmark    string    `json:"benchmark"`
	Config       string    `json:"config"`
	Effort       int       `json:"effort"`
	Shrink       int       `json:"shrink"`
	Model        string    `json:"model"`
	Instructions int       `json:"instructions"`
	RRAMs        int       `json:"rrams"`
	Cost         cost.Cost `json:"cost"`
	// Pareto marks the point as non-dominated on (energy, latency,
	// lifetime) within its (benchmark, shrink, model) group. Points priced
	// under different models, or compiled at different scales, are not
	// comparable and never dominate each other.
	Pareto bool `json:"pareto"`
}

// ExploreResult is the full sweep in deterministic order: benchmarks ×
// shrinks × efforts × configs × models, each axis in input order.
type ExploreResult struct {
	Points []ExplorePoint `json:"points"`
}

func (o *ExploreOptions) normalize() error {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = suite.Names()
	}
	if len(o.Configs) == 0 {
		o.Configs = TableIConfigs()
	}
	if len(o.Efforts) == 0 {
		o.Efforts = []int{DefaultEffort}
	}
	if len(o.Shrinks) == 0 {
		o.Shrinks = []int{1}
	}
	if len(o.Models) == 0 {
		o.Models = []*cost.Model{cost.Default()}
	}
	for _, e := range o.Efforts {
		if e < 0 {
			return fmt.Errorf("core: explore effort must be ≥ 0, got %d", e)
		}
	}
	for _, s := range o.Shrinks {
		if s < 1 {
			return fmt.Errorf("core: explore shrink must be ≥ 1, got %d", s)
		}
	}
	names := make(map[string]bool, len(o.Models))
	for _, m := range o.Models {
		if m == nil {
			return errors.New("core: explore cost models must be non-nil")
		}
		if err := m.Validate(); err != nil {
			return fmt.Errorf("core: explore: %w", err)
		}
		if names[m.Name] {
			return fmt.Errorf("core: explore cost model name %q is not distinct", m.Name)
		}
		names[m.Name] = true
	}
	return nil
}

// Explore sweeps the design space (benchmark × shrink × effort × config ×
// cost model) as one task graph on env.Sched: one generate task per
// (benchmark, shrink) through env.BenchCache, one rewrite task per
// distinct (benchmark, shrink, effort, pipeline) — memoized through
// env.RewriteCache when set, which the axis product makes the difference
// between O(points) and O(distinct rewrites) graph work — and one compile
// task per (benchmark, shrink, effort, config), compiled under Models[0]
// in place of env.CostModel. Pricing under each model is pure arithmetic
// on the compiled program, so the model axis multiplies output rows, not
// graph work.
//
// The result is deterministic: points appear in input axis order and every
// priced quantity derives from exact integer operation counts, so repeated
// sweeps — cold or through either cache tier — are byte-identical when
// rendered. On cancellation the error is ctx.Err() and unstarted tasks
// never run.
func Explore(ctx context.Context, env Env, opts ExploreOptions) (*ExploreResult, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	env.CostModel = opts.Models[0]
	env.Verify = env.Verify || opts.Verify
	g := env.Sched.NewGraph(ctx, sched.GraphOptions{})

	nb, ns, ne := len(opts.Benchmarks), len(opts.Shrinks), len(opts.Efforts)
	type cell struct {
		reports []*Report
		finish  func() error
	}
	cells := make([]cell, nb*ns*ne)
	migs := make([]*mig.MIG, nb*ns)
	genErrs := make([]error, nb*ns)
	for bi, name := range opts.Benchmarks {
		for si, shrink := range opts.Shrinks {
			gi := bi*ns + si
			name, shrink := name, shrink
			label := name
			if ns > 1 || shrink != 1 {
				label = fmt.Sprintf("%s/s%d", name, shrink)
			}
			gen := g.Task(sched.KindGenerate, label, func(ctx context.Context) {
				m, err := env.BenchCache.BuildScaledContext(ctx, name, shrink)
				if err != nil {
					genErrs[gi] = fmt.Errorf("core: explore %s (shrink %d): %w", name, shrink, err)
					return
				}
				migs[gi] = m
			}, nil)
			for ei, effort := range opts.Efforts {
				reports := make([]*Report, len(opts.Configs))
				_, finish := StagedGraph(g, env, effort, gen, func() *mig.MIG { return migs[gi] }, opts.Configs, reports)
				cells[gi*ne+ei] = cell{reports: reports, finish: finish}
			}
		}
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	var errs []error
	for gi, err := range genErrs {
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for ei := 0; ei < ne; ei++ {
			if err := cells[gi*ne+ei].finish(); err != nil {
				errs = append(errs, fmt.Errorf("core: explore %s (shrink %d, effort %d): %w",
					opts.Benchmarks[gi/ns], opts.Shrinks[gi%ns], opts.Efforts[ei], err))
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	res := &ExploreResult{Points: make([]ExplorePoint, 0, nb*ns*ne*len(opts.Configs)*len(opts.Models))}
	for bi := range opts.Benchmarks {
		for si, shrink := range opts.Shrinks {
			for ei, effort := range opts.Efforts {
				for ci, cfg := range opts.Configs {
					rep := cells[(bi*ns+si)*ne+ei].reports[ci]
					for _, m := range opts.Models {
						res.Points = append(res.Points, ExplorePoint{
							Benchmark:    opts.Benchmarks[bi],
							Config:       cfg.Name,
							Effort:       effort,
							Shrink:       shrink,
							Model:        m.Name,
							Instructions: rep.NumInstructions(),
							RRAMs:        rep.NumRRAMs(),
							Cost:         m.Program(rep.Result.Program),
						})
					}
				}
			}
		}
	}
	res.markPareto()
	return res, nil
}

// dominates reports whether a is at least as good as b on every objective
// (energy ↓, latency ↓, lifetime ↑) and strictly better on at least one.
func dominates(a, b *ExplorePoint) bool {
	if a.Cost.EnergyPJ > b.Cost.EnergyPJ ||
		a.Cost.LatencyCycles > b.Cost.LatencyCycles ||
		a.Cost.LifetimeRuns < b.Cost.LifetimeRuns {
		return false
	}
	return a.Cost.EnergyPJ < b.Cost.EnergyPJ ||
		a.Cost.LatencyCycles < b.Cost.LatencyCycles ||
		a.Cost.LifetimeRuns > b.Cost.LifetimeRuns
}

// markPareto sets Pareto on every non-dominated point of each (benchmark,
// shrink, model) group. Cost-identical points (e.g. a cap that never
// binds) are mutually non-dominating and all stay on the front.
func (r *ExploreResult) markPareto() {
	type key struct {
		bench  string
		shrink int
		model  string
	}
	groups := make(map[key][]int)
	for i, p := range r.Points {
		k := key{p.Benchmark, p.Shrink, p.Model}
		groups[k] = append(groups[k], i)
	}
	for _, idxs := range groups {
		for _, i := range idxs {
			dominated := false
			for _, j := range idxs {
				if i != j && dominates(&r.Points[j], &r.Points[i]) {
					dominated = true
					break
				}
			}
			r.Points[i].Pareto = !dominated
		}
	}
}

// Front returns only the Pareto-front points, in sweep order.
func (r *ExploreResult) Front() []ExplorePoint {
	var front []ExplorePoint
	for _, p := range r.Points {
		if p.Pareto {
			front = append(front, p)
		}
	}
	return front
}

// exploreCSVHeader is the stable column schema of WriteCSV.
const exploreCSVHeader = "benchmark,config,effort,shrink,model,instructions,rrams," +
	"resets,sets,rm3s,energy_pj,latency_cycles,total_wear,max_cell_wear,lifetime_runs,pareto"

// WriteCSV renders the sweep as CSV — the front only, or every point with
// frontOnly unset. Output is byte-deterministic: row order is sweep order
// and floats render shortest-exact, so identical sweeps produce identical
// bytes. An unlimited lifetime renders as "unlimited" (see
// stats.MaxLifetime).
func (r *ExploreResult) WriteCSV(w io.Writer, frontOnly bool) error {
	var b strings.Builder
	b.WriteString(exploreCSVHeader + "\n")
	for i := range r.Points {
		p := &r.Points[i]
		if frontOnly && !p.Pareto {
			continue
		}
		pareto := "0"
		if p.Pareto {
			pareto = "1"
		}
		fmt.Fprintf(&b, "%s,%s,%d,%d,%s,%d,%d,%d,%d,%d,%s,%d,%d,%d,%s,%s\n",
			p.Benchmark, p.Config, p.Effort, p.Shrink, p.Model,
			p.Instructions, p.RRAMs,
			p.Cost.Resets, p.Cost.Sets, p.Cost.RM3s,
			strconv.FormatFloat(p.Cost.EnergyPJ, 'g', -1, 64),
			p.Cost.LatencyCycles, p.Cost.TotalWear, p.Cost.MaxCellWear,
			stats.FormatLifetime(p.Cost.LifetimeRuns), pareto)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON renders the sweep as indented JSON — the front only, or every
// point with frontOnly unset. Like the CSV form, the bytes are
// deterministic for identical sweeps.
func (r *ExploreResult) WriteJSON(w io.Writer, frontOnly bool) error {
	out := r
	if frontOnly {
		out = &ExploreResult{Points: r.Front()}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
