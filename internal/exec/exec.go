package exec

import (
	"context"
	"fmt"
	"math/bits"
	"strconv"

	"plim/internal/cost"
	"plim/internal/isa"
	"plim/internal/progress"
	"plim/internal/rram"
	"plim/internal/trace"
)

// op is one flattened RM3 instruction: state-slice indices for both source
// operands and the destination. Constant operands point at the two pseudo
// cells appended after the program's address space, so the execution loop
// has no operand-kind branches.
type op struct {
	a, b, z uint32
}

// Plan is a compiled program lowered to the bit-sliced execution form. A
// Plan is immutable after Compile and safe for concurrent Run calls. It
// reads the source program's PI/PO maps while it runs.
type Plan struct {
	src      *isa.Program
	ops      []op
	numCells int
	// staticWrites is the full-program per-cell write count. Straight-line
	// programs make it exact and data-independent, which is what lets a
	// batch run account wear without per-lane device state.
	staticWrites []uint64
}

// Compile lowers a program for bit-sliced execution. Every isa.Program is
// valid, so lowering cannot fail.
func Compile(p *isa.Program) *Plan {
	n := int(p.NumCells())
	pl := &Plan{
		src:          p,
		ops:          make([]op, p.NumInstructions()),
		numCells:     n,
		staticWrites: p.StaticWriteCounts(),
	}
	const0, const1 := uint32(n), uint32(n+1)
	operand := func(o isa.Operand) uint32 {
		switch o.Kind {
		case isa.OpConst0:
			return const0
		case isa.OpConst1:
			return const1
		default:
			return o.Addr
		}
	}
	for i, ins := range p.Insts() {
		pl.ops[i] = op{a: operand(ins.A), b: operand(ins.B), z: ins.Z}
	}
	return pl
}

// NumInputs reports the program's primary-input count.
func (pl *Plan) NumInputs() int { return pl.src.NumPIs() }

// NumOutputs reports the program's primary-output count.
func (pl *Plan) NumOutputs() int { return pl.src.NumPOs() }

// faultIndex returns the index of the first instruction a per-device write
// budget of endurance would refuse (the scalar interpreter's failure point),
// or -1 when the whole program fits. The scan mirrors rram.Device.write:
// the write that would exceed the budget fails before being counted.
// Endurance failure is data-independent, so every lane of a batch faults at
// the same instruction.
func (pl *Plan) faultIndex(endurance uint64) int {
	if endurance == 0 {
		return -1
	}
	writes := make([]uint64, pl.numCells)
	for i, o := range pl.ops {
		if writes[o.z] >= endurance {
			return i
		}
		writes[o.z]++
	}
	return -1
}

// Options configures a batch run.
type Options struct {
	// Endurance is the per-device write budget (0 = unlimited); the batch
	// faults at exactly the instruction where the scalar interpreter's
	// crossbar would return rram.ErrWornOut.
	Endurance uint64
	// CostModel, when non-nil, prices the batch: Result.Cost aggregates the
	// executed instructions (the full program, or the prefix before an
	// endurance fault) over every lane.
	CostModel *cost.Model
}

// Result is the outcome of executing a batch.
type Result struct {
	// Outputs holds one primary-output vector per input vector. It is nil
	// when the run faulted on a worn-out device.
	Outputs *Batch
	// Writes and Switches are per-cell wear counts summed over all lanes;
	// each lane models a fresh crossbar, exactly like calling isa.Execute
	// once per vector.
	Writes   []uint64
	Switches []uint64
	// Vectors is the batch size the wear counts aggregate over.
	Vectors int
	// Cost prices the run under Options.CostModel (nil without one):
	// energy, latency and wear aggregate over all lanes of the executed
	// instructions; LifetimeRuns stays the per-run estimate. On an
	// endurance fault only the executed prefix is charged — writes that
	// never happened cost nothing.
	Cost *cost.Cost
}

// FaultError reports an endurance fault: the instruction whose destination
// device was worn out. It wraps rram.ErrWornOut and mirrors the scalar
// interpreter's failure point exactly.
type FaultError struct {
	Inst int
	Ins  isa.Instruction
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("exec: inst %d (%s): %s", e.Inst, e.Ins, rram.ErrWornOut)
}

func (e *FaultError) Unwrap() error { return rram.ErrWornOut }

// Run executes the batch with default options.
func (pl *Plan) Run(b *Batch) (*Result, error) {
	return pl.RunContext(context.Background(), b, Options{})
}

// prepare validates b against the plan and resolves the endurance prefix:
// the instructions to execute and the faulting instruction index (-1 when
// the whole program fits the budget).
func (pl *Plan) prepare(b *Batch, endurance uint64) (run []op, faultAt int, err error) {
	if b.Lines() != pl.NumInputs() {
		return nil, 0, fmt.Errorf("exec: got %d input lines, want %d", b.Lines(), pl.NumInputs())
	}
	run = pl.ops
	faultAt = pl.faultIndex(endurance)
	if faultAt >= 0 {
		run = pl.ops[:faultAt]
	}
	return run, faultAt, nil
}

// runRange executes the chunk range [lo, hi) of b: per-chunk crossbar
// state is rebuilt from scratch, switch counts accumulate into switches
// (len numCells) and, when writeOutputs is set, primary-output words land
// in outputs at the chunk's column. Disjoint ranges touch disjoint output
// words and private switch slices, which is what makes ranges safe to run
// as parallel scheduler tasks; summing the per-range switch partials in
// range order is bit-identical to one sequential pass (integer sums are
// associative). onChunk, when non-nil, observes each completed chunk
// index. Cancellation is honoured between chunks.
func (pl *Plan) runRange(ctx context.Context, b *Batch, run []op, writeOutputs bool, switches []uint64, outputs *Batch, lo, hi int, onChunk func(chunk int)) error {
	state := make([]uint64, pl.numCells+2)
	for c := lo; c < hi; c++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// One span per 64-lane chunk, annotated with its lane occupancy —
		// a zero Handle (all no-ops, no allocation) when ctx carries no
		// trace, which keeps RunContext's allocs/op pin intact.
		sp := trace.StartNoCtx(ctx, "exec_chunk", pl.src.Name())
		for i := range state[:pl.numCells] {
			state[i] = 0
		}
		state[pl.numCells] = 0
		state[pl.numCells+1] = ^uint64(0)
		for i, cell := range pl.src.PICells() {
			state[cell] = b.Word(i, c)
		}
		mask := b.ActiveMask(c)
		for _, o := range run {
			a, nb, z := state[o.a], ^state[o.b], state[o.z]
			r := a&z | nb&z | a&nb
			switches[o.z] += uint64(bits.OnesCount64((z ^ r) & mask))
			state[o.z] = r
		}
		if writeOutputs {
			for i, po := range pl.src.POs() {
				w := state[po.Addr]
				if po.Neg {
					w = ^w
				}
				outputs.SetWord(i, c, w)
			}
		}
		if sp.Traced() {
			sp.Attr("chunk", strconv.Itoa(c))
			sp.Attr("lanes", strconv.Itoa(bits.OnesCount64(mask)))
			sp.End()
		}
		if onChunk != nil {
			onChunk(c)
		}
	}
	return nil
}

// finalize assembles a Result from the aggregate switch counts of a full
// run. Write pulses are data-independent: each executed instruction pulses
// its destination once in every lane, so aggregate counts are the static
// per-cell counts of the executed prefix times the batch size — and the
// batch cost is likewise the executed prefix's per-run cost scaled by the
// lane count, which is what makes batched cost ÷ lanes equal the static
// cost exactly.
func (pl *Plan) finalize(b *Batch, run []op, faultAt int, switches []uint64, outputs *Batch, opts Options) (*Result, error) {
	res := &Result{
		Writes:   make([]uint64, pl.numCells),
		Switches: switches,
		Vectors:  b.Len(),
	}
	n := uint64(b.Len())
	if m := opts.CostModel; m != nil {
		// run is always a prefix of ops, which map 1:1 onto src.Insts.
		per := m.Program(pl.src)
		if len(run) < len(pl.ops) {
			per = m.Prefix(pl.src, len(run))
		}
		c := m.Scale(per, n)
		res.Cost = &c
	}
	if faultAt < 0 || n == 0 {
		// An empty batch executes nothing, so even a program that would
		// fault has no lane to fault in.
		for z, cnt := range pl.staticWrites {
			res.Writes[z] = cnt * n
		}
		res.Outputs = outputs
		return res, nil
	}
	for _, o := range run {
		res.Writes[o.z] += n
	}
	fault := &FaultError{Inst: faultAt}
	for i, ins := range pl.src.Insts() {
		if i == faultAt {
			fault.Ins = ins
			break
		}
	}
	return res, fault
}

// RunContext executes every vector of b through the program, 64 lanes per
// word column, and returns outputs plus aggregate wear. Cancellation is
// honoured between chunks, and each completed chunk emits a
// progress.ExecuteChunk to ctx's progress observer, if any, on the calling
// goroutine. On an endurance fault the prefix before the failing
// instruction still ages every device (Result carries the partial wear)
// and the error is a *FaultError wrapping rram.ErrWornOut.
func (pl *Plan) RunContext(ctx context.Context, b *Batch, opts Options) (*Result, error) {
	run, faultAt, err := pl.prepare(b, opts.Endurance)
	if err != nil {
		return nil, err
	}
	switches := make([]uint64, pl.numCells)
	outputs := NewBatch(pl.NumOutputs(), b.Len())
	chunks := b.Chunks()
	var onChunk func(int)
	if obs := progress.FromContext(ctx); obs != nil {
		onChunk = func(c int) {
			obs(progress.ExecuteChunk{Program: pl.src.Name(), Done: c + 1, Total: chunks, Vectors: b.Len()})
		}
	}
	if err := pl.runRange(ctx, b, run, faultAt < 0, switches, outputs, 0, chunks, onChunk); err != nil {
		return nil, err
	}
	return pl.finalize(b, run, faultAt, switches, outputs, opts)
}

// Execute compiles and runs in one call — the convenience entry point for
// one-shot callers.
func Execute(ctx context.Context, p *isa.Program, b *Batch, opts Options) (*Result, error) {
	return Compile(p).RunContext(ctx, b, opts)
}
