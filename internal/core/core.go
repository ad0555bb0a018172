// Package core assembles the paper's endurance-management scheme: it wires
// MIG rewriting (internal/rewrite), node selection and translation
// (internal/compile) and device allocation (internal/alloc) into the named
// configurations evaluated in Shirinzadeh et al., DATE 2017, Tables I–III.
//
// The five incremental configurations of Table I are:
//
//	naive       no rewriting, node-order selection, LIFO allocation
//	compiler21  Algorithm 1 rewriting + standard selection + LIFO ([21])
//	minwrite    compiler21 + the minimum-write-count allocator
//	rewriting   Algorithm 2 rewriting + standard selection + min-write
//	full        Algorithm 2 + Algorithm 3 selection + min-write
//
// Table III adds the maximum-write-count strategy on top of full:
// FullCap(w) for w ∈ {10, 20, 50, 100}.
package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"plim/internal/alloc"
	"plim/internal/compile"
	"plim/internal/cost"
	"plim/internal/diskcache"
	"plim/internal/mig"
	"plim/internal/progress"
	"plim/internal/rewrite"
	"plim/internal/sched"
	"plim/internal/stats"
	"plim/internal/suite"
	"plim/internal/verify"
)

// RewriteKind selects the rewriting algorithm applied before compilation.
type RewriteKind uint8

// Rewriting choices.
const (
	RewriteNone RewriteKind = iota
	RewriteAlgorithm1
	RewriteAlgorithm2
)

// String names the rewriting choice.
func (k RewriteKind) String() string {
	switch k {
	case RewriteNone:
		return "none"
	case RewriteAlgorithm1:
		return "algorithm1"
	case RewriteAlgorithm2:
		return "algorithm2"
	}
	return "?"
}

// ParseRewriteKind resolves a rewriting choice by the name String gives it
// or by its short form alg1 or alg2; "" means algorithm2. The error text is
// user-facing and carries no package prefix.
func ParseRewriteKind(name string) (RewriteKind, error) {
	switch name {
	case "none":
		return RewriteNone, nil
	case "alg1", "algorithm1":
		return RewriteAlgorithm1, nil
	case "", "alg2", "algorithm2":
		return RewriteAlgorithm2, nil
	}
	return 0, fmt.Errorf("unknown rewrite kind %q (want none, alg1 or alg2)", name)
}

// DefaultEffort is the paper's MIG-rewriting cycle count (§IV).
const DefaultEffort = 5

// Config is one endurance-management configuration.
type Config struct {
	Name      string
	Rewrite   RewriteKind
	Selection compile.Selection
	Alloc     alloc.Kind
	MaxWrites uint64 // 0 = no maximum-write strategy
}

// The named configurations of the paper's evaluation.
var (
	// Naive benefits only from node translation (Table I column 1).
	Naive = Config{Name: "naive", Rewrite: RewriteNone, Selection: compile.NodeOrder, Alloc: alloc.LIFO}
	// Compiler21 is the DAC'16 PLiM compiler (Table I column 2).
	Compiler21 = Config{Name: "compiler21", Rewrite: RewriteAlgorithm1, Selection: compile.Standard, Alloc: alloc.LIFO}
	// MinWrite adds the minimum write count strategy (Table I column 3).
	MinWrite = Config{Name: "minwrite", Rewrite: RewriteAlgorithm1, Selection: compile.Standard, Alloc: alloc.MinWrite}
	// Rewriting swaps in the endurance-aware MIG rewriting (column 4).
	Rewriting = Config{Name: "rewriting", Rewrite: RewriteAlgorithm2, Selection: compile.Standard, Alloc: alloc.MinWrite}
	// Full adds the endurance-aware node selection (column 5).
	Full = Config{Name: "full", Rewrite: RewriteAlgorithm2, Selection: compile.Endurance, Alloc: alloc.MinWrite}
)

// FullCap is Full plus the maximum write count strategy (Table III).
func FullCap(w uint64) Config {
	c := Full
	c.Name = fmt.Sprintf("full+cap%d", w)
	c.MaxWrites = w
	return c
}

// TableIConfigs returns the five configurations of Table I in column order.
func TableIConfigs() []Config {
	return []Config{Naive, Compiler21, MinWrite, Rewriting, Full}
}

// ParseConfig resolves a configuration by name: one of the five Table I
// names ("" means full), optionally suffixed "+capN" for the maximum write
// count strategy at cap N ≥ 1. A non-zero cap applies the same strategy
// and, when the name carries a suffix too, must agree with it. The error
// texts are user-facing and carry no package prefix.
func ParseConfig(name string, cap uint64) (Config, error) {
	if name == "" {
		name = "full"
	}
	base, capSuffix, hasSuffix := strings.Cut(name, "+cap")
	if hasSuffix {
		w, err := strconv.ParseUint(capSuffix, 10, 64)
		if err != nil || w == 0 {
			return Config{}, fmt.Errorf("bad cap suffix in config %q", name)
		}
		if cap != 0 && cap != w {
			return Config{}, fmt.Errorf("config %q and cap %d disagree", name, cap)
		}
		cap = w
	}
	for _, cfg := range TableIConfigs() {
		if cfg.Name != base {
			continue
		}
		if cap > 0 {
			cfg.MaxWrites = cap
			cfg.Name += fmt.Sprintf("+cap%d", cap)
		}
		return cfg, nil
	}
	return Config{}, fmt.Errorf("unknown config %q", name)
}

// Report is the outcome of running one configuration on one function.
type Report struct {
	Config  Config
	Rewrite rewrite.Stats
	Result  *compile.Result
	// Writes summarizes the per-device write counts (paper's min/max/STDEV).
	Writes stats.Summary
	// Verify is the static verification report for the compiled program;
	// nil unless the run was verified (Env.Verify / plim.WithVerify). A
	// non-nil report has no hard violations — those fail the compile — but
	// may list dead-write warnings.
	Verify *verify.Report
	// Cost is the per-run price of the compiled program under the
	// configured cost model (Env.CostModel / plim.WithCostModel), priced
	// from the counts the program keeps (cost.Model.Program); nil without
	// one. When the run is verified, the verifier's walk over the
	// instructions has been proven to price it the same before this report
	// exists.
	Cost *cost.Cost
}

// NumInstructions is the paper's #I.
func (r *Report) NumInstructions() int { return r.Result.NumInstructions }

// NumRRAMs is the paper's #R.
func (r *Report) NumRRAMs() int { return r.Result.NumRRAMs }

// Lifetime estimates how many executions of the compiled program a memory
// with the given per-device endurance survives.
func (r *Report) Lifetime(endurance uint64) uint64 {
	return stats.Lifetime(r.Result.WriteCounts, endurance)
}

// PipelineFor maps a rewrite kind onto its pass schedule. RewriteNone maps
// to a nil pipeline.
func PipelineFor(kind RewriteKind) ([]rewrite.Pass, error) {
	switch kind {
	case RewriteNone:
		return nil, nil
	case RewriteAlgorithm1:
		return rewrite.Algorithm1, nil
	case RewriteAlgorithm2:
		return rewrite.Algorithm2, nil
	}
	return nil, fmt.Errorf("core: unknown rewrite kind %d", kind)
}

// Rewrite applies kind's pass schedule to m for up to effort cycles. The
// input MIG is not modified. RewriteNone only drops dangling nodes (every
// configuration compiles live nodes only); its stats report the node
// counts with zero cycles. The progress observer carried by ctx, if any,
// receives a progress.RewriteCycle event — tagged with cfgName, which may
// be empty — after every completed cycle. On cancellation the MIG is nil
// and the error is ctx.Err().
func Rewrite(ctx context.Context, m *mig.MIG, kind RewriteKind, effort int, cfgName string) (*mig.MIG, rewrite.Stats, error) {
	out, st, _, err := rewriteRun(ctx, m, nil, kind, effort, cfgName)
	return out, st, err
}

// rewriteRun is Rewrite reporting how the run ended; RewriteNone, whose
// result effort does not enter, ends at its fixpoint. A non-nil from
// continues a run of kind that ended on its bound: m and *from are that
// run's graph and stats (rewrite.Continue), and the call emits only the
// cycles it runs, numbered from the original input.
func rewriteRun(ctx context.Context, m *mig.MIG, from *rewrite.Stats, kind RewriteKind, effort int, cfgName string) (*mig.MIG, rewrite.Stats, rewrite.End, error) {
	pipeline, err := PipelineFor(kind)
	if err != nil {
		return nil, rewrite.Stats{}, 0, err
	}
	if pipeline == nil {
		if err := ctx.Err(); err != nil {
			return nil, rewrite.Stats{}, 0, err
		}
		out := m.Cleanup()
		before, after := m.Statistics(), out.Statistics()
		return out, rewrite.Stats{
			NodesBefore: before.MajNodes, NodesAfter: after.MajNodes,
			DepthBefore: before.Depth, DepthAfter: after.Depth,
			CompHistBefore: before.ComplementHist, CompHistAfter: after.ComplementHist,
		}, rewrite.Fixpoint, nil
	}
	obs := progress.FromContext(ctx)
	onCycle := func(cycle, nodes int) {
		obs.Emit(progress.RewriteCycle{
			Function: m.Name, Config: cfgName,
			Cycle: cycle, Effort: effort, Nodes: nodes,
		})
	}
	if from != nil {
		return rewrite.Continue(ctx, m, *from, pipeline, effort, onCycle)
	}
	return rewrite.RunContext(ctx, m, pipeline, effort, onCycle)
}

// Run rewrites m according to cfg (with the given effort) and compiles it
// on the calling goroutine, without shared caches, verification or
// pricing: the sequential reference the staged runners are pinned against.
// Its one compile goes through a private compile cache, which hands back
// the freshly compiled result. The input MIG is not modified. Cancellation
// is checked on entry, between rewrite cycles and before compilation; on
// cancellation the error is ctx.Err(). The progress observer carried by
// ctx, if any, receives a progress.RewriteCycle event after every
// completed rewrite cycle and a CompileStart/CompileDone pair around the
// compile/alloc stage.
func Run(ctx context.Context, m *mig.MIG, cfg Config, effort int) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cur, st, err := Rewrite(ctx, m, cfg.Rewrite, effort, cfg.Name)
	if err != nil {
		return nil, err
	}
	return CompileConfig(ctx, Env{CompileCache: NewCompileCache(nil, nil)}, mig.NewRef(cur), cfg, st)
}

// Env is the plumbing a staged run, a suite or a sweep executes against:
// the scheduler that runs its tasks, the caches it draws from, and the
// verification and pricing applied to every compile. plim.Engine builds
// one per call.
type Env struct {
	// Sched executes the task graph; it is required by every graph runner.
	Sched *sched.Pool
	// BenchCache memoizes benchmark builds per (name, shrink); required by
	// the suite and the sweep.
	BenchCache *suite.Cache
	// RewriteCache memoizes rewrite stages across configurations,
	// benchmarks and calls; required by every graph runner.
	RewriteCache *RewriteCache
	// CompileCache memoizes every compile (see CompileConfig) across
	// configurations, benchmarks and calls; required by every compile.
	CompileCache *CompileCache
	// Verify statically verifies every compiled program (see
	// CompileConfig); a hard violation fails that configuration's compile.
	Verify bool
	// CostModel, when non-nil, prices every compiled program (Report.Cost)
	// and — with Verify set — proves that the verifier's instruction walk
	// prices it the same.
	CostModel *cost.Model
}

// CompileConfig runs the compile/alloc stage of one configuration on the
// handle of an already-rewritten MIG, emitting CompileStart/CompileDone
// events to the progress observer carried by ctx, if any, around a
// computation and a cache hit alike. rst is the rewriting statistics to attach to the report
// (the staged runner shares one rewrite across several configurations).
// Scratch state is drawn from the compile package's pool, so the fast
// path is always allocation-lean.
//
// env.CompileCache memoizes the compile by (rewritten's fingerprint,
// selection, allocator, write cap), and only a miss reads rewritten's
// graph. A hit is the cached program rebuilt into a private
// compile.Result (see CompileCache).
//
// When env.Verify is set, the report is verified (Verify) before it is
// returned: def-before-use, range, output liveness, the policy's wear cap
// and static-vs-allocator write parity. A hard violation fails the
// compile; dead-write warnings land in Report.Verify.
//
// env.CostModel, when non-nil, prices the compiled program from the
// counts it keeps (cost.Model.Program), cached or computed alike: this is
// the one place a report is priced. With env.Verify additionally set, the
// verifier's walk over the instructions is checked against that price and
// a divergence fails the compile like any other violation. Verification
// and the parity checks apply to every returned result.
func CompileConfig(ctx context.Context, env Env, rewritten *mig.Ref, cfg Config, rst rewrite.Stats) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	obs := progress.FromContext(ctx)
	obs.Emit(progress.CompileStart{Function: rewritten.Name(), Config: cfg.Name})
	start := time.Now()
	copts := compile.Options{
		Selection: cfg.Selection,
		Alloc:     cfg.Alloc,
		MaxWrites: cfg.MaxWrites,
	}
	res, err := env.CompileCache.Compile(ctx, rewritten, copts)
	done := progress.CompileDone{
		Function: rewritten.Name(), Config: cfg.Name,
		Elapsed: time.Since(start), Err: err,
	}
	if err == nil {
		done.Instructions = res.NumInstructions
		done.RRAMs = res.NumRRAMs
	}
	obs.Emit(done)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", cfg.Name, err)
	}
	report := &Report{
		Config:  cfg,
		Rewrite: rst,
		Result:  res,
		Writes:  stats.Summarize(res.WriteCounts),
	}
	if m := env.CostModel; m != nil {
		c := m.Program(res.Program)
		report.Cost = &c
	}
	if env.Verify {
		vr := Verify(report, env.CostModel)
		if err := vr.Err(); err != nil {
			return nil, fmt.Errorf("core: %s: %w", cfg.Name, err)
		}
		report.Verify = vr
	}
	return report, nil
}

// Verify statically verifies the program of rep (internal/verify) under
// its configuration's write cap, pricing it by the verifier's walk under
// model when model is non-nil, and checks the verifier's write counts
// against rep's (the allocator's, for the caller that compiled it) and,
// when rep is priced, its walk against rep.Cost. Hard violations,
// parity failures included, are in the returned report.
func Verify(rep *Report, model *cost.Model) *verify.Report {
	vr := verify.Program(rep.Result.Program, verify.Options{MaxWrites: rep.Config.MaxWrites, CostModel: model})
	verify.CheckWriteParity(vr, rep.Result.WriteCounts, "allocator")
	if rep.Cost != nil {
		verify.CheckCostParity(vr, *rep.Cost, "program")
	}
	return vr
}

// Stage is one rewrite stage of an execution plan: the set of planned
// configurations (as indices into the planned slice) that share a single
// rewriting pipeline and therefore a single rewritten MIG.
type Stage struct {
	Kind    RewriteKind
	Configs []int
}

// Plan groups configurations by rewriting kind, preserving the order of
// first appearance. The five Table I configurations plan into three
// stages: none{naive}, algorithm1{compiler21, minwrite} and
// algorithm2{rewriting, full} — so a staged run performs two rewrites
// instead of four.
func Plan(cfgs []Config) []Stage {
	var stages []Stage
	index := make(map[RewriteKind]int, 3)
	for i, cfg := range cfgs {
		si, ok := index[cfg.Rewrite]
		if !ok {
			si = len(stages)
			index[cfg.Rewrite] = si
			stages = append(stages, Stage{Kind: cfg.Rewrite})
		}
		stages[si].Configs = append(stages[si].Configs, i)
	}
	return stages
}

// stageLabel names a stage in RewriteCycle progress events: the sole
// configuration's name when the stage is private, the rewrite kind when it
// is shared.
func stageLabel(st Stage, cfgs []Config) string {
	if len(st.Configs) == 1 {
		return cfgs[st.Configs[0]].Name
	}
	return st.Kind.String()
}

// A stageLink carries a sweep's rewrite stages at one effort to the same
// stages at a larger effort listed after it (see RunSweep): each stage's
// rewrite task, its entry and, when that task computed the run, how the
// run ended.
type stageLink struct {
	tasks []*sched.Task
	rws   []diskcache.RewriteEntry
	ends  []rewrite.End
}

// run returns what stage si hands on; a nil link hands on nothing.
func (l *stageLink) run(si int) stageRun {
	if l == nil {
		return stageRun{}
	}
	return stageRun{l.rws[si], l.ends[si]}
}

// stagedGraph adds the staged plan of cfgs at the given rewriting effort
// to graph g: one rewrite task per distinct rewriting pipeline, one
// compile task per configuration (depending on its stage's rewrite), all
// depending on dep when non-nil. mFn supplies the input MIG's handle,
// whose fingerprint keys every rewrite of the plan; it is called from task
// bodies after dep has completed and may return nil to signal that
// upstream work failed, in which case no stage runs and no events are
// emitted. Successful compiles write their reports into out (indexed like
// cfgs). Rewrites go through env.RewriteCache, compiles through
// env.CompileCache, and compiles apply env's verification and cost
// model; env.Sched is not consulted, the graph already belongs to a pool.
//
// A sweep chains the plans of its efforts through links, which a plan of
// one effort never has. A non-nil prev is the same plan at a smaller
// effort: each stage's rewrite also depends on prev's, and a miss starts
// from the run prev's task computed (RewriteCache.rewrite). A non-nil
// next is filled with this plan's stages for a later plan to start from.
//
// The returned leaves are the plan's compile tasks (join/aggregation tasks
// should depend on them) and finish composes the plan's error in stage
// order; it must only be called after every leaf completed (e.g. from a
// task depending on all of them, or after Graph.Wait).
func stagedGraph(g *sched.Graph, env Env, effort int, dep *sched.Task, mFn func() *mig.Ref, cfgs []Config, out []*Report, prev, next *stageLink) (leaves []*sched.Task, finish func() error) {
	stages := Plan(cfgs)
	rws := make([]diskcache.RewriteEntry, len(stages))
	rwErrs := make([]error, len(stages))
	cmpErrs := make([]error, len(cfgs))
	leaves = make([]*sched.Task, 0, len(cfgs))
	if next != nil {
		*next = stageLink{make([]*sched.Task, len(stages)), rws, make([]rewrite.End, len(stages))}
	}
	for si, st := range stages {
		label, kind := stageLabel(st, cfgs), st.Kind
		var after *sched.Task
		if prev != nil {
			after = prev.tasks[si]
		}
		rw := g.Task(sched.KindRewrite, label, func(ctx context.Context) {
			m := mFn()
			if m == nil {
				return // upstream failure; its error is reported there
			}
			var end rewrite.End
			rws[si], end, rwErrs[si] = env.RewriteCache.rewrite(ctx, m, kind, effort, label, prev.run(si))
			if next != nil {
				next.ends[si] = end
			}
		}, dep, after)
		if next != nil {
			next.tasks[si] = rw
		}
		for _, ci := range st.Configs {
			ct := g.Task(sched.KindCompile, cfgs[ci].Name, func(ctx context.Context) {
				rw := &rws[si]
				if rw.Graph == nil {
					return // stage rewrite failed or was skipped
				}
				out[ci], cmpErrs[ci] = CompileConfig(ctx, env, rw.Graph, cfgs[ci], rw.Stats)
			}, rw)
			leaves = append(leaves, ct)
		}
	}
	finish = func() error {
		var errs []error
		for si, st := range stages {
			if rwErrs[si] != nil {
				errs = append(errs, rwErrs[si])
				continue
			}
			for _, ci := range st.Configs {
				if cmpErrs[ci] != nil {
					errs = append(errs, cmpErrs[ci])
				}
			}
		}
		return errors.Join(errs...)
	}
	return leaves, finish
}

// RunStaged runs several configurations on the function behind the handle
// in as a staged plan on env.Sched: each distinct rewriting pipeline runs
// once (memoized through env.RewriteCache) and the compile/alloc stages
// fan out over the shared rewritten MIG as independent scheduler tasks.
// Reports are returned in configuration order and are identical to those
// of sequential per-configuration Run calls. On cancellation the error is
// ctx.Err() itself; unstarted tasks of the plan never run. Every stage
// keys its rewrite by in's fingerprint, so RunStaged hashes nothing: a
// caller's graph is hashed once, where mig.NewRef wraps it, and a cached
// handle (a suite.Cache build) is neither hashed nor copied.
func RunStaged(ctx context.Context, env Env, in *mig.Ref, cfgs []Config, effort int) ([]*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := env.Sched.NewGraph(ctx)
	out := make([]*Report, len(cfgs))
	_, finish := stagedGraph(g, env, effort, nil, func() *mig.Ref { return in }, cfgs, out, nil, nil)
	if err := g.Wait(); err != nil {
		// Cancellation surfaces as ctx.Err() itself (the documented
		// contract), not wrapped inside errors.Join.
		return nil, err
	}
	if err := finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// SweepPair is one (benchmark, shrink) pair of a RunSweep: the benchmark's
// graph at that shrink and Reports[e][c], the report of configuration c
// compiled after rewriting at effort e.
type SweepPair struct {
	Graph   *mig.Ref
	Reports [][]*Report
}

// RunSweep evaluates every configuration on every (benchmark, shrink) pair
// at every rewriting effort as one task graph on env.Sched: the graph
// behind the paper's Tables I–III (one shrink, one effort) and the
// design-space sweep. Each pair contributes a generate task that emits
// progress.BenchmarkStart and builds the benchmark through env.BenchCache,
// the staged plan of cfgs at every effort (one rewrite task per distinct
// pipeline, memoized through env.RewriteCache, and one compile task per
// configuration depending on its stage's rewrite), and a join task
// depending on all of them that composes the pair's errors and emits
// progress.BenchmarkDone. Generate and join tasks and the benchmark events
// carry the benchmark name, suffixed /sN only when the sweep has several
// shrinks; event Index and Total count pairs. Nothing serializes distinct
// pairs against each other, so one pair's compile fan-out overlaps the
// next one's rewrites and the sweep keeps every worker of the pool busy
// (sharing it with every other caller of the same pool). Progress events
// go to the observer carried by ctx, if any; it may be invoked
// concurrently from worker goroutines.
//
// Each rewriting cycle of a (benchmark, shrink, pipeline) runs once. A
// stage's rewrite at an effort e > 0 depends on the same stage's rewrite
// at the effort listed just before e when that one is nonzero and
// smaller (chained), so efforts listed in ascending order chain one to
// the next, and descending efforts and a one-effort graph do not chain.
// When that rewrite computed its run, a miss at e starts from it: a run
// that reached its fixpoint is the result at e too, and a run that ended
// on its bound is continued to e (rewrite.Continue), emitting only the
// cycles it adds. When it did not — a cache hit or a failure — the
// rewrite at e starts from the input. Either way it fills its own cache
// key, and its reports are those of a one-effort sweep.
//
// Pairs come back benchmark-major: benchmarks[b] at shrinks[s] is pair
// b*len(shrinks)+s. Results are deterministic; with one worker, tasks run
// in depth-first creation order, so the event stream is an exact sequence.
// Once ctx is cancelled unstarted tasks never run and RunSweep returns
// ctx.Err(). A failing pair does not stop the others: every failure names
// its benchmark and shrink (and the effort of a failed stage), and all of
// them come back as one joined error.
func RunSweep(ctx context.Context, env Env, benchmarks []string, shrinks, efforts []int, cfgs []Config) ([]SweepPair, error) {
	for _, e := range efforts {
		if e < 0 {
			return nil, fmt.Errorf("core: effort must be ≥ 0, got %d", e)
		}
	}
	for _, s := range shrinks {
		if s < 1 {
			return nil, fmt.Errorf("core: shrink must be ≥ 1, got %d", s)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := env.Sched.NewGraph(ctx)
	pairs := make([]SweepPair, len(benchmarks)*len(shrinks))
	errs := make([]error, len(pairs))
	for pi := range pairs {
		name, shrink := benchmarks[pi/len(shrinks)], shrinks[pi%len(shrinks)]
		label := name
		if len(shrinks) > 1 {
			label = fmt.Sprintf("%s/s%d", name, shrink)
		}
		p := &pairs[pi]
		var (
			start  time.Time
			genErr error
		)
		gen := g.Task(sched.KindGenerate, label, func(ctx context.Context) {
			progress.FromContext(ctx).Emit(progress.BenchmarkStart{Benchmark: label, Index: pi, Total: len(pairs)})
			start = time.Now()
			p.Graph, genErr = env.BenchCache.BuildScaled(ctx, name, shrink)
		}, nil)
		deps := []*sched.Task{gen}
		finish := make([]func() error, len(efforts))
		p.Reports = make([][]*Report, len(efforts))
		var prev *stageLink
		for ei, effort := range efforts {
			p.Reports[ei] = make([]*Report, len(cfgs))
			var next *stageLink
			if chained(efforts, ei+1) {
				next = new(stageLink)
			}
			var leaves []*sched.Task
			leaves, finish[ei] = stagedGraph(g, env, effort, gen, func() *mig.Ref { return p.Graph }, cfgs, p.Reports[ei], prev, next)
			deps = append(deps, leaves...)
			prev = next
		}
		g.Task(sched.KindJoin, label, func(ctx context.Context) {
			var perr []error
			if genErr != nil {
				perr = append(perr, fmt.Errorf("core: %s (shrink %d): %w", name, shrink, genErr))
			}
			for ei, f := range finish {
				if err := f(); err != nil {
					perr = append(perr, fmt.Errorf("core: %s (shrink %d, effort %d): %w", name, shrink, efforts[ei], err))
				}
			}
			errs[pi] = errors.Join(perr...)
			progress.FromContext(ctx).Emit(progress.BenchmarkDone{
				Benchmark: label, Index: pi, Total: len(pairs),
				Elapsed: time.Since(start), Err: errs[pi],
			})
		}, deps...)
	}
	if err := g.Wait(); err != nil {
		// Cancellation surfaces as ctx.Err() itself, not a joined wrap.
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return pairs, nil
}

// chained reports whether a sweep's rewrites at efforts[i] continue
// those at efforts[i-1]: they do when that effort is nonzero (effort 0
// runs no cycle) and smaller. Efforts listed in ascending order thus
// chain one to the next, and one effort or a descending list chains
// nothing.
func chained(efforts []int, i int) bool {
	return i > 0 && i < len(efforts) && 0 < efforts[i-1] && efforts[i-1] < efforts[i]
}
