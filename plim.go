// Package plim reproduces "Endurance Management for Resistive
// Logic-In-Memory Computing Architectures" (Shirinzadeh, Soeken, Gaillardon,
// De Micheli, Drechsler — DATE 2017): an endurance-aware compilation flow
// for the PLiM in-memory computer that balances RRAM write traffic through
// four techniques — a minimum-write-count allocator, a maximum-write-count
// cap, endurance-aware MIG rewriting (Algorithm 2) and endurance-aware node
// selection (Algorithm 3).
//
// The primary entry point is the Engine, configured with functional options
// and driven with a context:
//
//	eng := plim.NewEngine(plim.WithEffort(5), plim.WithWorkers(4))
//	m, _ := eng.Benchmark(ctx, "adder", 1)                    // or build your own MIG
//	rep, _ := eng.Run(ctx, m, plim.Full)                      // rewrite + compile
//	fmt.Println(rep.Writes)                                   // min/max/STDEV of device writes
//	p := rep.Result.Program                                   // immutable, read through accessors
//	inputs := make([]bool, p.NumPIs())
//	out, xbar, _ := plim.Execute(p, inputs)                   // run on the crossbar
//
// Engine methods accept a context.Context for cancellation and report
// progress through typed events, to an engine-wide callback
// (WithProgress) and to per-call observers (ContextWithProgress).
//
// The paper's tables are regenerated by plim.TableI/TableII/TableIII (see
// also cmd/plimtab), and the underlying subsystems — MIG construction and
// rewriting, the RM3 ISA, the crossbar model, the word-level circuit
// builder — live in the internal packages documented in DESIGN.md.
package plim

import (
	"context"
	"io"

	"plim/internal/compile"
	"plim/internal/core"
	"plim/internal/cost"
	"plim/internal/exec"
	"plim/internal/hdl"
	"plim/internal/isa"
	"plim/internal/mig"
	"plim/internal/rewrite"
	"plim/internal/rram"
	"plim/internal/stats"
	"plim/internal/suite"
	"plim/internal/tables"
	"plim/internal/verify"
)

// Re-exported core types. The aliases keep one import path for library
// users while the implementation stays modular.
type (
	// MIG is a majority-inverter graph.
	MIG = mig.MIG
	// Signal references an MIG node with optional complement.
	Signal = mig.Signal
	// Program is a compiled straight-line RM3 program: immutable, held
	// in its binary encoding and read through accessors (Insts decodes
	// the instructions as it goes). NewProgram builds one from its
	// parts.
	Program = isa.Program
	// ProgramParts is a program in plain form, for building or editing
	// one.
	ProgramParts = isa.Parts
	// Instruction is one RM3 operation.
	Instruction = isa.Instruction
	// Crossbar is the RRAM array model.
	Crossbar = rram.Crossbar
	// Batch is a bit-sliced block of boolean vectors: 64 vectors per machine
	// word, the input/output unit of the batched execution engine.
	Batch = exec.Batch
	// ExecOptions configures a batched execution (endurance budget, cost
	// model). Engine.ExecuteBatch reports chunk progress as events.
	ExecOptions = exec.Options
	// ExecResult is the outcome of a batched execution: packed outputs plus
	// per-cell wear aggregated over all lanes.
	ExecResult = exec.Result
	// ExecFaultError reports the instruction at which a batched execution hit
	// a worn-out device; it wraps rram.ErrWornOut.
	ExecFaultError = exec.FaultError
	// Config names one endurance-management configuration.
	Config = core.Config
	// Report is the outcome of running a configuration on a function.
	Report = core.Report
	// RewriteKind selects the MIG rewriting algorithm.
	RewriteKind = core.RewriteKind
	// RewriteStats reports the effect of a rewriting run.
	RewriteStats = rewrite.Stats
	// CompileOptions exposes the compiler knobs directly.
	CompileOptions = compile.Options
	// WriteSummary summarizes a write-count distribution.
	WriteSummary = stats.Summary
	// Builder constructs circuits word-level (adders, muxes, dividers, …).
	Builder = hdl.Builder
	// Vec is a little-endian vector of signals.
	Vec = hdl.Vec
	// BenchmarkInfo describes one of the paper's 18 benchmarks.
	BenchmarkInfo = suite.Info
	// SuiteResult is a benchmark × configuration report matrix.
	SuiteResult = tables.SuiteResult
	// EquivalenceResult reports a simulation-based equivalence check.
	EquivalenceResult = mig.EquivalenceResult
	// Grid is a rendered table (text, Markdown, CSV).
	Grid = tables.Grid
	// TableIData is the paper's Table I projection of a suite result.
	TableIData = tables.TableIData
	// TableIIData is the paper's Table II projection of a suite result.
	TableIIData = tables.TableIIData
	// TableIIIData is the paper's Table III projection of a capped suite run.
	TableIIIData = tables.TableIIIData
	// TableCostData is the cost-model projection of a priced suite run
	// (energy/latency/lifetime per configuration; not in the paper).
	TableCostData = tables.TableCostData
	// ExploreOptions configures a design-space sweep (Engine.Explore): its
	// axes and cost models. The sweep runs on the engine's scheduler and
	// caches, and verifies under the engine's WithVerify.
	ExploreOptions = core.ExploreOptions
	// ExploreResult is a completed sweep with its Pareto fronts marked.
	ExploreResult = core.ExploreResult
	// ExplorePoint is one swept design point priced under one cost model.
	ExplorePoint = core.ExplorePoint
	// VerifyReport is a static verification report for one compiled
	// program (see Verify and WithVerify).
	VerifyReport = verify.Report
	// VerifyViolation is one static-verification finding.
	VerifyViolation = verify.Violation
	// VerifyOptions configures a static verification pass.
	VerifyOptions = verify.Options
	// CostModel prices the three RM3 instruction classes (RESET, SET,
	// generic RM3) in energy, latency cycles and wear (see WithCostModel,
	// DefaultCostModel and LoadCostModel).
	CostModel = cost.Model
	// Cost is the priced total of a program or batch run under a CostModel
	// (Report.Cost, ExecResult.Cost).
	Cost = cost.Cost
)

// Constant signals.
const (
	Const0 = mig.Const0
	Const1 = mig.Const1
)

// The MIG rewriting algorithms selectable per configuration or through
// Engine.Rewrite.
const (
	RewriteNone       = core.RewriteNone
	RewriteAlgorithm1 = core.RewriteAlgorithm1
	RewriteAlgorithm2 = core.RewriteAlgorithm2
)

// DefaultEffort is the paper's rewriting cycle budget (§IV).
const DefaultEffort = core.DefaultEffort

// The paper's named configurations (Table I columns and Table III rows).
var (
	Naive      = core.Naive
	Compiler21 = core.Compiler21
	MinWrite   = core.MinWrite
	Rewriting  = core.Rewriting
	Full       = core.Full
)

// FullCap returns the full configuration with a maximum write cap
// (the paper's Table III).
func FullCap(w uint64) Config { return core.FullCap(w) }

// TableIConfigs returns the five Table I configurations in column order.
func TableIConfigs() []Config { return core.TableIConfigs() }

// AblationConfigs isolates each endurance technique on top of the naive
// baseline (an extension beyond the paper).
func AblationConfigs() []Config { return tables.AblationConfigs() }

// NewMIG returns an empty majority-inverter graph.
func NewMIG(name string) *MIG { return mig.New(name) }

// ReadMIG parses a .mig netlist.
func ReadMIG(r io.Reader) (*MIG, error) { return mig.Read(r) }

// NewProgram builds a program from its parts, validating it.
func NewProgram(parts ProgramParts) (*Program, error) { return isa.NewProgram(parts) }

// ReadProgram parses a compiled RM3 program in binary form.
func ReadProgram(r io.Reader) (*Program, error) { return isa.ReadBinary(r) }

// ReadProgramAsm parses a compiled RM3 program in assembly form.
func ReadProgramAsm(r io.Reader) (*Program, error) { return isa.ReadAsm(r) }

// Equivalent checks two MIGs for functional equivalence by (exhaustive or
// random) simulation over the given number of pattern rounds.
func Equivalent(a, b *MIG, rounds int, seed int64) (EquivalenceResult, error) {
	return mig.Equivalent(a, b, rounds, seed)
}

// NewBuilder returns a word-level circuit builder over a fresh MIG using
// compact native majority forms.
func NewBuilder(name string) *Builder { return hdl.New(name) }

// BenchmarkScaled builds a benchmark with datapaths divided by shrink,
// without caching; Engine.Benchmark memoizes builds.
func BenchmarkScaled(name string, shrink int) (*MIG, error) {
	return suite.BuildScaled(name, shrink)
}

// Benchmarks lists the paper's benchmark names in table order.
func Benchmarks() []string { return suite.Names() }

// LookupBenchmark returns the paper-scale metadata for a benchmark.
func LookupBenchmark(name string) (BenchmarkInfo, bool) { return suite.Get(name) }

// Compile translates an MIG directly with explicit compiler options,
// skipping rewriting.
func Compile(m *MIG, opts CompileOptions) (*compile.Result, error) {
	return compile.Compile(m, opts)
}

// Verify statically checks a compiled program without executing it:
// def-before-use for every operand, in-range cell references, output
// liveness, dead-write detection and exact static per-cell write counts
// (which must equal dynamic wear — see internal/verify). Hard violations
// are listed in the report; use VerifyReport.Err for an error form.
func Verify(p *Program, opts VerifyOptions) *VerifyReport {
	return verify.Program(p, opts)
}

// Execute runs a compiled program on a fresh crossbar and returns the
// primary outputs and the array (for write-count inspection).
func Execute(p *Program, inputs []bool) ([]bool, *Crossbar, error) {
	return isa.Execute(p, inputs)
}

// ExecuteBatch evaluates a program over a whole batch of input vectors with
// the bit-sliced executor (64 vectors per machine word) — semantically
// identical to one scalar Execute per vector, including aggregate wear and
// endurance faults, at a fraction of the cost. It runs the whole batch on
// the calling goroutine; Engine.ExecuteBatch shards it over the engine's
// scheduler and adds progress events and cancellation.
func ExecuteBatch(p *Program, b *Batch, opts ExecOptions) (*ExecResult, error) {
	return exec.Run(context.Background(), p, b, opts, nil)
}

// NewBatch returns an all-zero batch of n vectors of the given width.
// NewBatch(0, 0) is the empty batch that Batch.AppendString grows one
// "0101"-style vector at a time, the first vector fixing the width — the
// constructor behind streamed (NDJSON) vector input: the packed form grows
// by one machine word per line per 64 vectors, so memory never tracks the
// raw input text.
func NewBatch(lines, n int) *Batch { return exec.NewBatch(lines, n) }

// PackBatchStrings packs "0101"-style vector strings (character i is
// primary input i) into a bit-sliced batch.
func PackBatchStrings(vectors []string) (*Batch, error) { return exec.PackStrings(vectors) }

// RandomBatch returns n uniformly random vectors, deterministic in seed.
func RandomBatch(lines, n int, seed int64) *Batch { return exec.Random(lines, n, seed) }

// ExhaustiveBatch returns the full 2^lines truth-table batch (lines ≤ 24),
// the input of whole-truth-table equivalence checks between compiled
// programs and their source MIGs.
func ExhaustiveBatch(lines int) (*Batch, error) { return exec.Exhaustive(lines) }

// WearMap renders a per-device write-count vector as an ASCII heat map
// (rows of 64 relative-wear digits, '.' for untouched devices), like
// Crossbar.WearMap but usable with the batched executor's aggregate wear.
func WearMap(writes []uint64) string { return rram.RenderWearMap(writes) }

// SummarizeWrites computes the paper's min/max/STDEV statistics.
func SummarizeWrites(writes []uint64) WriteSummary { return stats.Summarize(writes) }

// Lifetime estimates how many executions of a program a memory with the
// given per-device endurance survives.
func Lifetime(writesPerRun []uint64, endurance uint64) uint64 {
	return stats.Lifetime(writesPerRun, endurance)
}

// UnlimitedLifetime is the sentinel Lifetime (and Cost.LifetimeRuns) value
// meaning "no bound": the program writes nothing, or no endurance budget is
// configured. Renderers print it as "unlimited"; JSON carries the raw value.
const UnlimitedLifetime = stats.MaxLifetime

// DefaultCostModel returns the built-in instruction cost model: HfO₂-class
// RRAM figures with SET slower/hotter than RESET and a generic RM3 priced
// as a three-cycle read-modify-write (see internal/cost for the table).
func DefaultCostModel() *CostModel { return cost.Default() }

// LoadCostModel reads a cost model from a JSON file (strict field checking,
// validated before use) — the loader behind every CLI's -cost-model flag.
func LoadCostModel(path string) (*CostModel, error) { return cost.LoadFile(path) }

// TableI projects a suite result onto the paper's Table I.
func TableI(sr *SuiteResult) (*TableIData, error) { return tables.TableI(sr) }

// TableII projects a suite result onto the paper's Table II.
func TableII(sr *SuiteResult, configs ...string) (*TableIIData, error) {
	return tables.TableII(sr, configs...)
}

// TableIII projects a capped suite result onto the paper's Table III.
func TableIII(sr *SuiteResult) (*TableIIIData, error) { return tables.TableIII(sr) }

// TableCost projects a priced suite result onto the cost table
// (energy/latency/lifetime per configuration under one cost model). The
// suite must have run with a cost model (engines always do).
func TableCost(sr *SuiteResult) (*TableCostData, error) { return tables.TableCost(sr) }
