package exec

import (
	"context"
	"fmt"
	"math/bits"
	"strconv"
	"sync/atomic"

	"plim/internal/cost"
	"plim/internal/isa"
	"plim/internal/progress"
	"plim/internal/rram"
	"plim/internal/sched"
	"plim/internal/trace"
)

// op is one flattened RM3 instruction: state-slice indices for both source
// operands and the destination. Constant operands point at the two pseudo
// cells appended after the program's address space, so the execution loop
// has no operand-kind branches.
type op struct {
	a, b, z uint32
}

// lower flattens a program into the bit-sliced execution form. Every
// isa.Program is valid, so lowering cannot fail.
func lower(p *isa.Program) []op {
	const0, const1 := p.NumCells(), p.NumCells()+1
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
	ops := make([]op, p.NumInstructions())
	for i, ins := range p.Insts() {
		ops[i] = op{a: operand(ins.A), b: operand(ins.B), z: ins.Z}
	}
	return ops
}

// faultIndex returns the index of the first instruction a per-device write
// budget of endurance would refuse (the scalar interpreter's failure point),
// or -1 when the whole program fits. The scan mirrors rram.Device.write:
// the write that would exceed the budget fails before being counted.
// Endurance failure is data-independent, so every lane of a batch faults at
// the same instruction.
func faultIndex(ops []op, numCells uint32, endurance uint64) int {
	if endurance == 0 {
		return -1
	}
	writes := make([]uint64, numCells)
	for i, o := range ops {
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

// Run executes every vector of b through p, 64 lanes per word column, and
// returns outputs plus aggregate wear. It lowers p on every call, so an
// execution reads only the program it is given. On an endurance fault the
// prefix before the failing instruction still ages every device (Result
// carries the partial wear) and the error is a *FaultError wrapping
// rram.ErrWornOut. Cancellation is honoured between 64-lane chunks, and
// each completed chunk emits a progress.ExecuteChunk to ctx's progress
// observer, if any.
//
// With a nil pool, a one-worker pool or a one-chunk batch, the whole batch
// runs as one chunk range on the calling goroutine and chunk events arrive
// in chunk order. Otherwise the chunks split into contiguous ranges that
// run as parallel exec-chunk leaves of one task graph on pool, at most one
// range per worker. The result is byte-identical to the one-range run:
// disjoint ranges write disjoint output words, per-range switch partials
// are summed at the join in range order (integer sums are associative, so
// the total equals one sequential pass), write counts are
// data-independent, and an endurance fault is detected identically by
// every range. ctx's deadline then orders the graph's tasks in the
// scheduler's injector, and its observer also receives the graph's task
// start/done events; chunk events come from worker goroutines —
// concurrently, with monotone done counts delivered exactly once each, but
// in no particular order.
func Run(ctx context.Context, p *isa.Program, b *Batch, opts Options, pool *sched.Pool) (*Result, error) {
	if b.Lines() != p.NumPIs() {
		return nil, fmt.Errorf("exec: got %d input lines, want %d", b.Lines(), p.NumPIs())
	}
	return run(ctx, p, lower(p), b, opts, pool)
}

// batchRun is the read-only state of one run, shared by its chunk ranges.
type batchRun struct {
	p *isa.Program
	// ops is what executes: the lowered program, or its prefix before an
	// endurance fault, in which case no output is written.
	ops          []op
	in, out      *Batch
	writeOutputs bool
}

// run is Run on a program already lowered to ops.
func run(ctx context.Context, p *isa.Program, ops []op, b *Batch, opts Options, pool *sched.Pool) (*Result, error) {
	faultAt := faultIndex(ops, p.NumCells(), opts.Endurance)
	br := batchRun{p: p, ops: ops, in: b, out: NewBatch(p.NumPOs(), b.Len()), writeOutputs: faultAt < 0}
	if faultAt >= 0 {
		br.ops = ops[:faultAt]
	}
	switches := make([]uint64, p.NumCells())
	chunks := b.Chunks()
	shards := 1
	if pool != nil {
		shards = min(pool.Workers(), chunks)
	}
	var err error
	if shards > 1 {
		err = br.runShards(ctx, switches, shards, pool)
	} else {
		var onChunk func(int)
		if obs := progress.FromContext(ctx); obs != nil {
			onChunk = func(c int) {
				obs(progress.ExecuteChunk{Program: p.Name(), Done: c + 1, Total: chunks, Vectors: b.Len()})
			}
		}
		err = br.runRange(ctx, switches, 0, chunks, onChunk)
	}
	if err != nil {
		return nil, err
	}
	return br.finalize(faultAt, switches, opts)
}

// runShards runs the chunks as contiguous ranges, one exec-chunk task per
// range on pool, and adds the per-range switch partials to switches in
// range order. It is a function of its own so that what the tasks capture
// is allocated only when a batch is actually sharded.
func (br batchRun) runShards(ctx context.Context, switches []uint64, shards int, pool *sched.Pool) error {
	chunks := br.in.Chunks()
	partials := make([][]uint64, shards)
	var done atomic.Int64
	var onChunk func(int)
	if obs := progress.FromContext(ctx); obs != nil {
		onChunk = func(int) {
			obs(progress.ExecuteChunk{Program: br.p.Name(), Done: int(done.Add(1)), Total: chunks, Vectors: br.in.Len()})
		}
	}
	g := pool.NewGraph(ctx)
	per := (chunks + shards - 1) / shards
	for s := range shards {
		lo, hi := s*per, min((s+1)*per, chunks)
		if lo >= hi {
			break
		}
		part := make([]uint64, len(switches))
		partials[s] = part
		g.Task(sched.KindExecChunk, br.p.Name(), func(tctx context.Context) {
			// Cancellation errors are surfaced by Wait; nothing else can fail.
			_ = br.runRange(tctx, part, lo, hi, onChunk)
		})
	}
	if err := g.Wait(); err != nil {
		return err
	}
	for _, part := range partials {
		for i, v := range part {
			switches[i] += v
		}
	}
	return nil
}

// runRange executes the chunk range [lo, hi): per-chunk crossbar state is
// rebuilt from scratch, switch counts accumulate into switches (len
// numCells) and, when outputs are written, primary-output words land in
// br.out at the chunk's column. Disjoint ranges touch disjoint output words
// and private switch slices, which is what makes ranges safe to run as
// parallel scheduler tasks. onChunk, when non-nil, observes each completed
// chunk index. Cancellation is honoured between chunks.
func (br batchRun) runRange(ctx context.Context, switches []uint64, lo, hi int, onChunk func(chunk int)) error {
	numCells := int(br.p.NumCells())
	state := make([]uint64, numCells+2)
	for c := lo; c < hi; c++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// One span per 64-lane chunk, annotated with its lane occupancy —
		// a zero Handle (all no-ops, no allocation) when ctx carries no
		// trace, which keeps an untraced run's allocs/op pin intact.
		sp := trace.StartNoCtx(ctx, "exec_chunk", br.p.Name())
		for i := range state[:numCells] {
			state[i] = 0
		}
		state[numCells] = 0
		state[numCells+1] = ^uint64(0)
		for i, cell := range br.p.PICells() {
			state[cell] = br.in.Word(i, c)
		}
		mask := br.in.ActiveMask(c)
		for _, o := range br.ops {
			a, nb, z := state[o.a], ^state[o.b], state[o.z]
			r := a&z | nb&z | a&nb
			switches[o.z] += uint64(bits.OnesCount64((z ^ r) & mask))
			state[o.z] = r
		}
		if br.writeOutputs {
			for i, po := range br.p.POs() {
				w := state[po.Addr]
				if po.Neg {
					w = ^w
				}
				br.out.SetWord(i, c, w)
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
func (br batchRun) finalize(faultAt int, switches []uint64, opts Options) (*Result, error) {
	res := &Result{
		Writes:   make([]uint64, br.p.NumCells()),
		Switches: switches,
		Vectors:  br.in.Len(),
	}
	n := uint64(br.in.Len())
	if m := opts.CostModel; m != nil {
		// The executed ops are a prefix of the lowered program, which maps
		// 1:1 onto the program's instructions.
		var per cost.Cost
		if faultAt >= 0 {
			per = m.Prefix(br.p, faultAt)
		} else {
			per = m.Program(br.p)
		}
		c := m.Scale(per, n)
		res.Cost = &c
	}
	if faultAt < 0 || n == 0 {
		// An empty batch executes nothing, so even a program that would
		// fault has no lane to fault in.
		for z, cc := range br.p.CellClassCounts() {
			res.Writes[z] = cc.Total() * n
		}
		res.Outputs = br.out
		return res, nil
	}
	for _, o := range br.ops {
		res.Writes[o.z] += n
	}
	fault := &FaultError{Inst: faultAt}
	for i, ins := range br.p.Insts() {
		if i == faultAt {
			fault.Ins = ins
			break
		}
	}
	return res, fault
}
