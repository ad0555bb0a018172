package plim

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"plim/internal/core"
	"plim/internal/cost"
	"plim/internal/diskcache"
	"plim/internal/exec"
	"plim/internal/memo"
	"plim/internal/mig"
	"plim/internal/progress"
	"plim/internal/sched"
	"plim/internal/suite"
	"plim/internal/tables"
	"plim/internal/trace"
)

// Engine is the primary entry point of the package: a reusable, configured
// compilation flow. An Engine is built once with functional options and may
// then run any number of functions, configurations or whole benchmark
// suites concurrently:
//
//	eng := plim.NewEngine(
//		plim.WithEffort(5),
//		plim.WithWorkers(8),
//		plim.WithProgress(func(ev plim.Event) { log.Println(plim.FormatEvent(ev)) }),
//	)
//	rep, err := eng.Run(ctx, m, plim.Full)
//
// Every method takes a context.Context; cancellation is honoured between
// rewrite cycles, between configurations and between suite jobs. Option
// values are explicit: WithEffort(0) really runs zero rewriting cycles, and
// WithWorkers(1) really serializes a suite (which also makes progress-event
// order deterministic).
type Engine struct {
	effort      int
	workers     int
	shrink      int
	cacheBudget int
	verify      bool
	persistDir  string
	costModel   *cost.Model
	progress    progress.Func
	mu          sync.Mutex // serializes progress delivery
	err         error      // first invalid option; surfaced by every method

	// benchCache memoizes benchmark generator output, rwCache memoizes
	// rewrite stages by (function fingerprint, pipeline, effort) — keyed
	// by what decides the result, so the no-rewrite pipeline ignores
	// effort and effort 0 ignores the pipeline — and compileCache
	// compiles by (rewritten-graph fingerprint, selection, allocator,
	// write cap). The three caches charge one budget of
	// cacheBudget estimated bytes, which evicts the least recently used
	// entry of any of them, so a long-lived engine fed a stream of
	// distinct functions stays bounded.
	benchCache   *suite.Cache
	rwCache      *core.RewriteCache
	compileCache *core.CompileCache

	// disk is the persistent second tier below the benchmark, rewrite and
	// compile caches, opened at construction when WithPersistentCache
	// names a directory.
	disk *diskcache.Cache

	// traceOn arms span recording (WithTrace): every engine call then
	// records scheduler-task, cache-probe and exec-chunk spans into the
	// current trace, harvested by TakeTrace. traceMu guards tr.
	traceOn bool
	traceMu sync.Mutex
	tr      *trace.Trace

	// sched is the engine's process-wide work-stealing task scheduler,
	// sized by WithWorkers and created lazily on first use. Every Run /
	// RunAll / RunSuite / ExecuteBatch call of this engine — including
	// concurrent server flights — submits its work as one dependency graph
	// to this pool, so execution interleaves at task granularity and
	// near-deadline requests are picked up first.
	sched     *sched.Pool
	schedOnce sync.Once
}

// DefaultCacheBudget is the default byte budget of the engine's in-memory
// caches together (benchmark builds, rewrite results, compiled programs):
// 256 MiB of estimated resident size. Entries hold whole MIGs and programs
// whose sizes vary by orders of magnitude, so the budget is accounted in
// bytes (mig.MemSize estimates, encoded program sizes) rather than entry
// counts; a paper-scale Table I (18 builds, 54 rewrites, 89 distinct
// programs) charges about 86 MB and fits with ample headroom.
const DefaultCacheBudget = 256 << 20

// Option configures an Engine at construction time.
type Option func(*Engine)

// NewEngine returns an Engine with the paper's defaults — effort
// DefaultEffort (5), workers GOMAXPROCS, shrink 1 (paper scale), cache
// budget DefaultCacheBudget, no progress reporting — overridden by the
// given options. An invalid option does not panic; it is reported by the
// first Engine method call.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		effort:      DefaultEffort,
		workers:     runtime.GOMAXPROCS(0),
		shrink:      1,
		cacheBudget: DefaultCacheBudget,
		costModel:   cost.Default(),
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.persistDir != "" && e.err == nil {
		d, err := diskcache.Open(e.persistDir)
		if err != nil {
			e.fail(fmt.Errorf("plim: WithPersistentCache(%q): %w", e.persistDir, err))
		} else {
			d.SetVerify(e.verify)
			e.disk = d
		}
	}
	budget := memo.NewBudget(e.cacheBudget)
	e.benchCache = suite.NewCache(budget, e.disk)
	e.rwCache = core.NewRewriteCache(budget, e.disk)
	e.compileCache = core.NewCompileCache(budget, e.disk)
	return e
}

func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// WithEffort sets the MIG-rewriting cycle budget. 0 disables rewriting
// cycles entirely; negative values are invalid.
func WithEffort(cycles int) Option {
	return func(e *Engine) {
		if cycles < 0 {
			e.fail(fmt.Errorf("plim: WithEffort(%d): effort must be ≥ 0", cycles))
			return
		}
		e.effort = cycles
	}
}

// WithWorkers bounds suite parallelism; it must be ≥ 1. One worker makes
// suite runs (and their progress events) fully sequential.
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n < 1 {
			e.fail(fmt.Errorf("plim: WithWorkers(%d): need at least one worker", n))
			return
		}
		e.workers = n
	}
}

// WithShrink divides benchmark datapath widths for quick runs; it must be
// ≥ 1 (1 = paper scale). It affects Engine.RunSuite and the default shrink
// axis of Engine.Explore.
func WithShrink(s int) Option {
	return func(e *Engine) {
		if s < 1 {
			e.fail(fmt.Errorf("plim: WithShrink(%d): shrink must be ≥ 1", s))
			return
		}
		e.shrink = s
	}
}

// WithCacheBudget bounds all of the engine's in-memory caches together
// (benchmark builds, rewrite results, compiled programs) to n estimated
// bytes; beyond the budget the least recently used entry of any cache is
// evicted. The caches reuse generator output across runs and run each
// distinct (function, pipeline, effort) rewrite and each distinct
// compilation once — so regenerating Table III after Table I skips every
// algorithm-2 rewrite — with results bit-identical to a fresh
// computation. A rewrite is keyed by what decides its result: without
// rewriting (the naive configuration) effort does not enter, and at
// effort 0 the pipeline does not. Within one Explore, a larger effort
// continues the rewrite of a smaller one instead of repeating its
// cycles. Cached entries hold whole MIGs and programs of wildly
// varying size, so the budget is accounted in bytes (mig.MemSize, encoded
// program sizes), making it the engine's memory knob for server-style
// workloads over unbounded streams of distinct functions. n must be ≥ 1;
// the default is DefaultCacheBudget (256 MiB). A budget smaller than any
// entry keeps nothing once its computation completes: memoization is then
// off, except that concurrent callers of one key share its computation.
func WithCacheBudget(n int) Option {
	return func(e *Engine) {
		if n < 1 {
			e.fail(fmt.Errorf("plim: WithCacheBudget(%d): budget must be ≥ 1", n))
			return
		}
		e.cacheBudget = n
	}
}

// WithPersistentCache adds a persistent on-disk tier below the engine's
// in-memory caches: rewrite results (keyed by function fingerprint,
// pipeline and effort), benchmark builds (keyed by name and shrink) and
// compiled programs (keyed by rewritten-function fingerprint, selection,
// allocator and write cap) are spilled to dir and reloaded by later
// engines — including engines in other processes, so a plimtab run warms
// the cache for a following plimc run, which then neither rewrites nor
// compiles. Entries are written atomically and verified on load (corrupt,
// truncated or version-mismatched files read as misses), the directory may
// be shared by concurrent processes, and disk-served results are
// byte-identical to freshly computed ones. The empty string disables
// persistence (the default). The directory is created if needed; a
// directory that cannot be created is reported by the first Engine method
// call.
func WithPersistentCache(dir string) Option {
	return func(e *Engine) { e.persistDir = dir }
}

// CacheCounters is a snapshot of the persistent cache tier's accounting.
// Loads that fail verification count as misses; VerifyMisses counts the
// subset of misses rejected by fingerprint re-verification alone (engines
// built WithVerify re-verify disk-served graphs and programs). Stores,
// StoreErrors and VerifyMisses sum all three entry kinds.
type CacheCounters struct {
	RewriteHits, RewriteMisses     uint64
	BenchmarkHits, BenchmarkMisses uint64
	CompileHits, CompileMisses     uint64
	Stores, StoreErrors            uint64
	VerifyMisses                   uint64
}

// PersistentCacheStats reports the persistent tier's hit/miss/store
// counters since the engine was built, as the rewrite, benchmark and
// compile caches counted their tier probes. ok is false when the engine
// has no persistent cache.
func (e *Engine) PersistentCacheStats() (c CacheCounters, ok bool) {
	if e.disk == nil {
		return CacheCounters{}, false
	}
	rw, b, cc := e.rwCache.Counters(), e.benchCache.Counters(), e.compileCache.Counters()
	return CacheCounters{
		RewriteHits: rw.TierHits, RewriteMisses: rw.TierMisses,
		BenchmarkHits: b.TierHits, BenchmarkMisses: b.TierMisses,
		CompileHits: cc.TierHits, CompileMisses: cc.TierMisses,
		Stores:       rw.Stores + b.Stores + cc.Stores,
		StoreErrors:  rw.StoreErrors + b.StoreErrors + cc.StoreErrors,
		VerifyMisses: rw.TierVerifyMisses + b.TierVerifyMisses + cc.TierVerifyMisses,
	}, true
}

// PersistentCacheDir reports the persistent cache directory ("" when
// persistence is off).
func (e *Engine) PersistentCacheDir() string { return e.persistDir }

// CacheSummary renders the persistent tier's accounting as the stable
// one-line summary the CLIs print on stderr (and CI smoke jobs grep for).
// ok is false when the engine has no persistent cache.
func (e *Engine) CacheSummary() (s string, ok bool) {
	st, ok := e.PersistentCacheStats()
	if !ok {
		return "", false
	}
	return fmt.Sprintf("persistent cache: rewrite %d hits / %d misses, benchmark %d hits / %d misses, compile %d hits / %d misses, %d stores (dir %s)",
		st.RewriteHits, st.RewriteMisses, st.BenchmarkHits, st.BenchmarkMisses, st.CompileHits, st.CompileMisses, st.Stores, e.persistDir), true
}

// WithVerify toggles static verification of every program the engine
// compiles (default off). With verification on, each compiled program is
// proven — without executing it — to read only defined cells, stay inside
// its allocated footprint, compute every declared output, respect the
// policy's per-cell write cap, and carry static per-cell write counts
// that match the allocator's wear accounting exactly; a violation fails
// the run with a structured error. Dead-write warnings (writes nothing
// observes — wasted endurance) are attached to Report.Verify without
// failing. The check is one linear sweep per compile, cheap enough for
// production; it also arms the persistent cache tier's load-time
// re-verification (stale or corrupted-but-CRC-colliding entries read as
// misses instead of serving unverifiable state). Cached compilations are
// verified like fresh ones. The CI/test suites run
// with it on.
func WithVerify(enabled bool) Option {
	return func(e *Engine) { e.verify = enabled }
}

// WithCostModel sets the instruction cost model that prices everything the
// engine compiles and executes (default DefaultCostModel). The model is
// pure accounting: it never influences rewriting, node selection or device
// allocation, so two engines differing only in cost model emit
// byte-identical programs — only Report.Cost / ExecResult.Cost change.
// Every report is priced from the counts its program keeps; with
// WithVerify on, every compile proves that the verifier's walk over the
// instructions prices it the same, and a divergence fails the run. A nil
// model is invalid — pricing is always on (arithmetic over the per-cell
// class counts every program keeps); it cannot be disabled, only
// re-priced.
func WithCostModel(m *CostModel) Option {
	return func(e *Engine) {
		if m == nil {
			e.fail(fmt.Errorf("plim: WithCostModel(nil): model must be non-nil"))
			return
		}
		if err := m.Validate(); err != nil {
			e.fail(fmt.Errorf("plim: WithCostModel: %w", err))
			return
		}
		e.costModel = m
	}
}

// CostModelName reports the name of the engine's cost model.
func (e *Engine) CostModelName() string { return e.costModel.Name }

// CostModel returns the engine's cost model.
func (e *Engine) CostModel() *CostModel { return e.costModel }

// WithTrace toggles span tracing (default off). With tracing on, every
// engine call records a span tree — one span per scheduler task with
// queue-wait, worker id and steal origin, one per cache probe with its
// outcome (memory-hit / disk-hit / verify-miss / compute), one per executed
// 64-lane chunk with lane occupancy — into an accumulating trace that
// TakeTrace harvests. Calls whose context already carries a trace (server
// flights built with trace.NewContext) keep recording into that per-request
// trace instead. With tracing off the instrumentation is inert: the hot
// paths pay only context lookups and nil checks, no allocations (pinned by
// the plimbench trace/ family).
func WithTrace(enabled bool) Option {
	return func(e *Engine) { e.traceOn = enabled }
}

// Trace is a recorded span tree — see Engine.TakeTrace. It exports Chrome
// trace-event JSON (WriteChrome, loadable in Perfetto or chrome://tracing),
// a human-readable tree (Render/RenderString) and per-stage totals (Totals).
type Trace = trace.Trace

// TakeTrace returns the spans recorded since the engine was built (or since
// the previous TakeTrace) and resets the accumulator. It returns nil when
// WithTrace is off or nothing traced ran.
func (e *Engine) TakeTrace() *Trace {
	e.traceMu.Lock()
	defer e.traceMu.Unlock()
	t := e.tr
	e.tr = nil
	return t
}

// begin opens one engine call: it installs the engine's merged progress
// observer (see observer) on the context, where every emitter below the
// call finds it, and opens a "call" span — see traceSpan.
func (e *Engine) begin(ctx context.Context, call string) (context.Context, trace.Handle) {
	return e.traceSpan(progress.NewContext(ctx, e.observer(ctx)), "call", call)
}

// traceSpan opens a span on whichever trace applies: a trace already
// carried by ctx (a server flight's per-request trace) records the span as
// a child of the caller's current span; otherwise, with WithTrace on, the
// span roots in the engine's own accumulating trace. With neither, ctx is
// returned unchanged with an inert Handle.
func (e *Engine) traceSpan(ctx context.Context, kind, name string) (context.Context, trace.Handle) {
	if trace.FromContext(ctx) == nil {
		if !e.traceOn {
			return ctx, trace.Handle{}
		}
		e.traceMu.Lock()
		if e.tr == nil {
			e.tr = trace.New()
		}
		t := e.tr
		e.traceMu.Unlock()
		ctx = trace.NewContext(ctx, t)
	}
	return trace.Start(ctx, kind, name)
}

// WithProgress installs a progress callback. The engine serializes
// delivery: fn is never invoked concurrently, even during parallel suite
// runs. fn must not block for long — it runs on the worker's critical path.
// A nil fn installs no callback.
func WithProgress(fn func(Event)) Option {
	return func(e *Engine) { e.progress = progress.Func(fn) }
}

// observer merges the engine's construction-time callback with the
// per-call observer carried by ctx (see ContextWithProgress), both behind
// the engine's delivery lock: no observer — construction-time or per-call,
// on any concurrent call of the same engine — is ever invoked concurrently
// with another.
func (e *Engine) observer(ctx context.Context) progress.Func {
	perCall := progress.FromContext(ctx)
	if e.progress == nil && perCall == nil {
		return nil
	}
	return func(ev progress.Event) {
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.progress != nil {
			e.progress(ev)
		}
		if perCall != nil {
			perCall(ev)
		}
	}
}

// env is the plumbing every graph an engine call builds runs against: the
// engine's scheduler, caches, verification and cost model.
func (e *Engine) env() core.Env {
	return core.Env{
		Sched:        e.scheduler(),
		BenchCache:   e.benchCache,
		RewriteCache: e.rwCache,
		CompileCache: e.compileCache,
		Verify:       e.verify,
		CostModel:    e.costModel,
	}
}

// scheduler returns the engine's work-stealing pool, creating it on first
// use. Engines have no Close method, so the pool's workers are stopped by
// a GC cleanup once the engine becomes unreachable (parked workers hold
// only the pool, not the engine, so they never keep the engine alive).
// Every method that runs a graph on the pool therefore defers
// runtime.KeepAlive(e): an engine a caller discards mid-call, as in
// NewEngine().Explore(ctx, opts), must not have its pool stopped under a
// running graph.
func (e *Engine) scheduler() *sched.Pool {
	e.schedOnce.Do(func() {
		pool := sched.New(e.workers)
		runtime.AddCleanup(e, func(p *sched.Pool) { p.Stop() }, pool)
		e.sched = pool
	})
	return e.sched
}

// SchedStats is a snapshot of the engine scheduler's state: queued-task
// depth, per-worker steal counts and task-latency histograms by kind.
type SchedStats = sched.Stats

// SchedulerStats snapshots the engine's task scheduler (servers export it
// under /metrics). An engine that has not run anything yet reports zeros.
func (e *Engine) SchedulerStats() SchedStats { return e.scheduler().Stats() }

// Effort reports the engine's rewriting cycle budget.
func (e *Engine) Effort() int { return e.effort }

// Workers reports the engine's suite parallelism bound.
func (e *Engine) Workers() int { return e.workers }

// Shrink reports the engine's benchmark datapath divisor.
func (e *Engine) Shrink() int { return e.shrink }

// Run rewrites and compiles m under the given configuration. The input MIG
// is not modified; the rewrite stage is served from the engine's cache
// when it has already run for this function. m is hashed once per call,
// for the rewrite key; RunBenchmark compiles a named benchmark without
// that hash. Cancellation is honoured between rewrite cycles and before
// compilation; on cancellation the error is ctx.Err().
func (e *Engine) Run(ctx context.Context, m *MIG, cfg Config) (*Report, error) {
	if e.err != nil {
		return nil, e.err
	}
	ctx, csp := e.begin(ctx, "run")
	defer csp.End()
	defer runtime.KeepAlive(e)
	return e.runOne(ctx, mig.NewRef(m), cfg)
}

// RunBenchmark rewrites and compiles one of the paper's benchmarks, built
// with datapaths divided by shrink (1 = paper scale), under the given
// configuration. Its report is the one Run gives for the graph Benchmark
// returns, but it compiles the engine's cached build itself: nothing is
// cloned, and nothing is hashed, since a cached build carries its
// fingerprint. The build is probed under the same generate span that
// Benchmark records. Cancellation is honoured as in Run.
func (e *Engine) RunBenchmark(ctx context.Context, name string, shrink int, cfg Config) (*Report, error) {
	if e.err != nil {
		return nil, e.err
	}
	ctx, csp := e.begin(ctx, "run-benchmark")
	defer csp.End()
	defer runtime.KeepAlive(e)
	_, sp, in, err := e.generate(ctx, name, shrink)
	sp.End()
	if err != nil {
		return nil, err
	}
	return e.runOne(ctx, in, cfg)
}

// runOne runs the staged plan of one configuration on the handle in.
func (e *Engine) runOne(ctx context.Context, in *mig.Ref, cfg Config) (*Report, error) {
	reps, err := core.RunStaged(ctx, e.env(), in, []Config{cfg}, e.effort)
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// RunAll runs several configurations on the same function as a staged
// plan: each distinct rewriting pipeline runs once (memoized) and the
// compile stages fan out across the engine's workers. Reports come back in
// configuration order and are identical to per-configuration Run calls.
func (e *Engine) RunAll(ctx context.Context, m *MIG, cfgs []Config) ([]*Report, error) {
	if e.err != nil {
		return nil, e.err
	}
	ctx, csp := e.begin(ctx, "run-all")
	defer csp.End()
	defer runtime.KeepAlive(e)
	return core.RunStaged(ctx, e.env(), mig.NewRef(m), cfgs, e.effort)
}

// RunSuite evaluates every configuration on every named benchmark (all 18
// when none are named). Benchmarks run on the engine's worker pool at the
// engine's shrink, each as a staged plan: one rewrite per distinct
// pipeline, compile jobs fanned out over idle workers, benchmark MIGs and
// rewrites served from the engine's caches. Progress events report
// per-benchmark start/done, per-cycle rewriting and per-configuration
// compile start/done. On cancellation RunSuite stops dispatching jobs and
// returns ctx.Err() once in-flight jobs reach their next cancellation
// point.
func (e *Engine) RunSuite(ctx context.Context, cfgs []Config, benchmarks ...string) (*SuiteResult, error) {
	if e.err != nil {
		return nil, e.err
	}
	ctx, csp := e.begin(ctx, "suite")
	defer csp.End()
	defer runtime.KeepAlive(e)
	return tables.RunSuite(ctx, e.env(), cfgs, tables.Options{
		Benchmarks: benchmarks,
		Effort:     e.effort,
		Shrink:     e.shrink,
	})
}

// Explore sweeps the design space (benchmark × shrink × effort × config ×
// cost model) as one task graph on the engine's scheduler and caches, and
// returns every point with its (benchmark, shrink, model)-local Pareto
// front marked — see core.Explore. Empty axes default to the engine's
// configuration — its effort, its shrink, its cost model — rather than the
// package-level defaults, so a bare ExploreOptions{} sweeps exactly what
// Run would compile. Every compile is verified when the engine was built
// WithVerify. Progress events report per-(benchmark, shrink) start/done,
// per-cycle rewriting and per-configuration compile start/done. Each
// rewriting cycle of a (benchmark, shrink, pipeline) runs once across
// ascending efforts, so a larger effort's rewrite events report only the
// cycles it adds, numbered from the input.
func (e *Engine) Explore(ctx context.Context, opts ExploreOptions) (*ExploreResult, error) {
	if e.err != nil {
		return nil, e.err
	}
	ctx, csp := e.begin(ctx, "explore")
	defer csp.End()
	defer runtime.KeepAlive(e)
	if len(opts.Efforts) == 0 {
		opts.Efforts = []int{e.effort}
	}
	if len(opts.Shrinks) == 0 {
		opts.Shrinks = []int{e.shrink}
	}
	if len(opts.Models) == 0 {
		opts.Models = []*CostModel{e.costModel}
	}
	return core.Explore(ctx, e.env(), opts)
}

// Rewrite applies one of the MIG rewriting algorithms with the engine's
// effort, without compiling. RewriteNone merely drops dangling nodes (its
// stats report the node counts with zero cycles). The input MIG is not
// modified, and the returned MIG is always private to the caller (cache
// hits are cloned before they are handed out).
func (e *Engine) Rewrite(ctx context.Context, m *MIG, kind RewriteKind) (*MIG, RewriteStats, error) {
	if e.err != nil {
		return nil, RewriteStats{}, e.err
	}
	ctx, csp := e.begin(ctx, "rewrite")
	defer csp.End()
	out, st, err := e.rwCache.Rewrite(ctx, m, kind, e.effort, "")
	if err != nil {
		return nil, st, err
	}
	return out.Clone(), st, nil // cache entries are shared; hand out a private copy
}

// Benchmark builds one of the paper's benchmarks with datapaths divided by
// shrink (1 = paper scale). Builds share the engine's benchmark caches
// (memory and disk), so repeated builds — servers answering requests at
// mixed shrinks included — generate each (benchmark, shrink) once; the
// result is always a private clone, which the caller may modify. To
// compile a benchmark, RunBenchmark skips that clone. When ctx carries a
// trace (a server flight) or the engine traces (WithTrace), the build
// records a generate span with the cache probe nested inside, so traced
// requests account for benchmark generation, not just the compile.
func (e *Engine) Benchmark(ctx context.Context, name string, shrink int) (*MIG, error) {
	if e.err != nil {
		return nil, e.err
	}
	ctx, sp, r, err := e.generate(ctx, name, shrink)
	defer sp.End()
	if err != nil {
		return nil, err
	}
	m, err := r.Graph(ctx)
	if err != nil {
		return nil, err
	}
	return m.Clone(), nil
}

// generate opens the generate span that Benchmark and RunBenchmark record
// and probes the engine's benchmark caches for (name, shrink) beneath it.
// The returned handle is the cache's: shared and read-only. The caller
// ends the span once it is done with the build.
func (e *Engine) generate(ctx context.Context, name string, shrink int) (context.Context, trace.Handle, *mig.Ref, error) {
	if shrink < 1 {
		return ctx, trace.Handle{}, nil, fmt.Errorf("plim: benchmark %q at shrink %d: shrink must be ≥ 1", name, shrink)
	}
	ctx, sp := e.traceSpan(ctx, "generate", name)
	r, err := e.benchCache.BuildScaled(ctx, name, shrink)
	return ctx, sp, r, err
}

// MemoryCacheLens reports how many entries the engine's in-memory caches
// currently hold (rewrite results, benchmark builds and compiled programs,
// including in-flight singleflight computations). Servers export these
// alongside the persistent tier's CacheCounters.
func (e *Engine) MemoryCacheLens() (rewrites, benchmarks, compiles int) {
	return e.rwCache.Len(), e.benchCache.Len(), e.compileCache.Len()
}

// MemoryCacheProbes reports the in-memory tiers' probe counters summed over
// the rewrite, benchmark and compile caches: hits include probes that
// attached to an in-flight singleflight computation. Servers export these
// as plimserve_cache_probe_total{tier="memory"}.
func (e *Engine) MemoryCacheProbes() (hits, misses uint64) {
	rw, b, cc := e.rwCache.Counters(), e.benchCache.Counters(), e.compileCache.Counters()
	return rw.Hits + b.Hits + cc.Hits, rw.Misses + b.Misses + cc.Misses
}

// ExecuteBatch evaluates a compiled program over a bit-sliced batch of
// input vectors, 64 lanes per machine word — the high-throughput
// counterpart of the scalar plim.Execute. The result carries one output
// vector per input vector plus per-cell write and switch counts summed over
// all lanes; each lane models a fresh crossbar, so the aggregate wear is
// exactly what len(batch) scalar Execute calls would accumulate, and an
// endurance budget (ExecOptions.Endurance) faults at exactly the scalar
// interpreter's failing instruction, with the error wrapping
// rram.ErrWornOut.
//
// It runs the batch with exec.Run on the engine's scheduler. Every call
// lowers p afresh (cheaper than hashing p for a cache key), so an
// execution reads only the program it is given, and chunk events and
// exec_chunk spans name that program. Cancellation is
// honoured between 64-lane chunks, and every completed chunk emits an
// EventExecuteChunk to the engine's observers.
//
// On multi-worker engines, batches spanning several chunks are split into
// contiguous chunk ranges that run as parallel leaves of one task graph on
// the engine's scheduler; the joined result — outputs, write counts,
// switch counts — is byte-identical to the sequential run (chunk ranges
// touch disjoint output words, and summing per-range switch partials in
// range order reproduces the sequential integer sums exactly). Chunk
// progress events then arrive with monotone done counts but in no
// particular order.
func (e *Engine) ExecuteBatch(ctx context.Context, p *Program, b *Batch, opts ExecOptions) (*ExecResult, error) {
	if e.err != nil {
		return nil, e.err
	}
	ctx, csp := e.begin(ctx, "execute-batch")
	defer csp.End()
	defer runtime.KeepAlive(e)
	if opts.CostModel == nil {
		// Engine runs are always priced; an explicit per-call model (e.g. a
		// design-space sweep re-pricing one program) overrides the engine's.
		opts.CostModel = e.costModel
	}
	return exec.Run(ctx, p, b, opts, e.scheduler())
}
