// Package verify statically checks PLiM programs. A PLiM program is
// straight-line — no branches, no loops — so a single linear sweep over
// the instruction stream proves properties that would otherwise need
// dynamic observation: every operand is defined before it is read, no
// write is wasted (overwritten before anything reads it), every declared
// output is actually computed, and the exact number of write pulses each
// cell receives. That every address stays inside the declared footprint
// needs no sweep: an isa.Program cannot hold one that does not. The last point is the load-bearing one for the endurance
// model: static per-cell write counts are data-independent, so they must
// equal the dynamic wear the interpreter and internal/exec report — any
// divergence means the wear accounting itself is broken.
//
// The definedness rules mirror the machine model in internal/isa and the
// lowering in internal/exec:
//
//   - Constant operands (#0, #1) are always defined; internal/exec lowers
//     them to two pseudo-cells appended after the program's address space
//     and pre-set before the first instruction, so they never depend on
//     program order.
//   - PI cells are defined by preload (Controller.LoadInputs /
//     Batch lanes under ActiveMask), before instruction 0.
//   - RM3 A,B → Z reads Z as well as A and B — the result is a majority
//     over the old cell value — unless the instruction is a preset
//     (both operands constant with A = ¬B), the only form whose result is
//     independent of the destination's prior state.
package verify

import (
	"errors"
	"fmt"

	"plim/internal/cost"
	"plim/internal/isa"
)

// Check names the individual properties the verifier proves. They appear
// in Violation.Check and in the JSON reports served by /v1/compile.
const (
	CheckDefUse     = "def-before-use"  // read of a never-written, non-PI cell
	CheckDeadWrite  = "dead-write"      // write overwritten before any read
	CheckLiveness   = "output-liveness" // declared PO never computed
	CheckWearCap    = "wear-cap"        // static writes exceed the policy cap
	CheckWriteCount = "write-parity"    // static counts disagree with a dynamic/allocator aggregate
	CheckCost       = "cost-parity"     // static cost disagrees with a dynamic/allocator cost
)

// Options configures a verification pass.
type Options struct {
	// MaxWrites, when non-zero, is the policy's per-cell write cap
	// (core.Config.MaxWrites); any cell whose static count exceeds it is
	// reported as a wear-cap violation.
	MaxWrites uint64
	// CostModel, when non-nil, prices the program during the sweep: the
	// report gains exact static energy/latency/lifetime totals derived from
	// the same per-instruction walk that proves the write counts.
	CostModel *cost.Model
}

// Violation is one finding. Inst and Cell are -1 when the finding is not
// tied to a specific instruction or cell.
type Violation struct {
	Check string `json:"check"`
	Inst  int    `json:"inst"`
	Cell  int64  `json:"cell"`
	Msg   string `json:"msg"`
}

func (v Violation) String() string {
	switch {
	case v.Inst >= 0:
		return fmt.Sprintf("%s: inst %d: %s", v.Check, v.Inst, v.Msg)
	case v.Cell >= 0:
		return fmt.Sprintf("%s: cell %d: %s", v.Check, v.Cell, v.Msg)
	default:
		return fmt.Sprintf("%s: %s", v.Check, v.Msg)
	}
}

// Report is the result of verifying one program. Violations are hard
// errors — the program reads undefined state, escapes its footprint,
// misses an output or blows its wear budget. DeadWrites are warnings:
// the program still computes the right values, but spends endurance on
// writes nothing observes.
type Report struct {
	Name         string `json:"name,omitempty"`
	Fingerprint  uint64 `json:"fingerprint"`
	Instructions int    `json:"instructions"`
	Cells        int    `json:"cells"`

	// WriteCounts is the exact static per-cell write count; index = cell.
	WriteCounts []uint64 `json:"-"`
	// TotalWrites is the sum over WriteCounts (the paper's #I for
	// programs with one write per instruction).
	TotalWrites uint64 `json:"total_writes"`
	// MaxCellWrites is the hottest cell's count — the static wear bound
	// that caps lifetime at endurance/MaxCellWrites runs.
	MaxCellWrites uint64 `json:"max_cell_writes"`
	// CellsWritten counts cells with at least one write.
	CellsWritten int `json:"cells_written"`

	// Cost is the static price of one program execution under
	// Options.CostModel; nil when no model was supplied. It is exact for the
	// same reason the write counts are: straight-line programs execute every
	// instruction exactly once per run.
	Cost *cost.Cost `json:"cost,omitempty"`

	Violations []Violation `json:"violations,omitempty"`
	DeadWrites []Violation `json:"dead_writes,omitempty"`
}

// OK reports whether the program passed every hard check. Dead writes do
// not affect OK; see Clean.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Clean reports whether the program passed every hard check and has no
// dead writes.
func (r *Report) Clean() bool { return r.OK() && len(r.DeadWrites) == 0 }

// Err returns nil when OK, otherwise an error joining every hard
// violation.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	errs := make([]error, len(r.Violations))
	for i, v := range r.Violations {
		errs[i] = errors.New(v.String())
	}
	return fmt.Errorf("verify: %s: %w", r.name(), errors.Join(errs...))
}

func (r *Report) name() string {
	if r.Name != "" {
		return r.Name
	}
	return "program"
}

func (r *Report) violate(check string, inst int, cell int64, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Check: check, Inst: inst, Cell: cell, Msg: fmt.Sprintf(format, args...),
	})
}

// isPreset reports whether ins defines its destination independent of the
// destination's prior value. RM3 A,B→Z computes ⟨A B̄ Z⟩; the result drops
// its Z dependence exactly when A = B̄, which is statically certain only
// for the two constant presets RM3 #0,#1 (→0) and RM3 #1,#0 (→1). Two
// reads of the same cell give ⟨x x̄ Z⟩ = Z, which still depends on Z.
func isPreset(ins isa.Instruction) bool {
	return (ins.A.Kind == isa.OpConst0 && ins.B.Kind == isa.OpConst1) ||
		(ins.A.Kind == isa.OpConst1 && ins.B.Kind == isa.OpConst0)
}

// Program verifies p and returns the full report. It never executes an
// instruction: one O(#insts + #cells) sweep. Every address of a program
// is within its cell count and its PI cells are distinct — isa.NewProgram
// and isa.DecodeBinary refuse anything else — so the sweep checks
// dataflow, not the footprint.
func Program(p *isa.Program, opts Options) *Report {
	cells := p.NumCells()
	r := &Report{
		Name:         p.Name(),
		Fingerprint:  p.Fingerprint(),
		Instructions: p.NumInstructions(),
		Cells:        int(cells),
		WriteCounts:  make([]uint64, cells),
	}

	defined := make([]bool, cells)
	for _, c := range p.PICells() {
		defined[c] = true // preloaded before instruction 0
	}

	// Dataflow sweep. lastWrite[c] is the index of the pending (not yet
	// read) write to c, or -1; a preset landing on a pending write means
	// the pending write aged the device for nothing.
	lastWrite := make([]int32, cells)
	for i := range lastWrite {
		lastWrite[i] = -1
	}
	// Cost accumulation rides the same sweep: per-class op counts plus
	// per-cell weighted wear (identical to WriteCounts under the default
	// model's unit wear).
	var costOps isa.ClassCounts
	var costWear []uint64
	if opts.CostModel != nil {
		costWear = make([]uint64, cells)
	}
	read := func(inst int, c uint32, what string) {
		if !defined[c] {
			r.violate(CheckDefUse, inst, int64(c), "%s reads cell %d before any write or PI preload", what, c)
		}
		lastWrite[c] = -1 // pending write (if any) is now observed
	}
	for i, ins := range p.Insts() {
		if ins.A.Kind == isa.OpCell {
			read(i, ins.A.Addr, "operand A")
		}
		if ins.B.Kind == isa.OpCell {
			read(i, ins.B.Addr, "operand B")
		}
		if !isPreset(ins) {
			// The majority reads the destination's old value.
			if !defined[ins.Z] {
				r.violate(CheckDefUse, i, int64(ins.Z),
					"destination cell %d read before any write or PI preload (%s depends on its prior value)", ins.Z, ins)
			}
			lastWrite[ins.Z] = -1
		} else if w := lastWrite[ins.Z]; w >= 0 {
			// A preset erases a value nothing ever read.
			r.DeadWrites = append(r.DeadWrites, Violation{
				Check: CheckDeadWrite, Inst: int(w), Cell: int64(ins.Z),
				Msg: fmt.Sprintf("write to cell %d is overwritten by inst %d before any read", ins.Z, i),
			})
		}
		defined[ins.Z] = true
		lastWrite[ins.Z] = int32(i)
		r.WriteCounts[ins.Z]++
		if m := opts.CostModel; m != nil {
			class := ins.Class()
			costOps[class]++
			costWear[ins.Z] += m.Of(class).Wear
		}
	}

	// Output liveness, and POs count as reads for deadness.
	for i, po := range p.POs() {
		if !defined[po.Addr] {
			r.violate(CheckLiveness, -1, int64(po.Addr), "PO %d is never computed (cell %d has no write and no PI preload)", i, po.Addr)
		}
		lastWrite[po.Addr] = -1
	}
	// Whatever is still pending was written and then never observed.
	for c, w := range lastWrite {
		if w >= 0 {
			r.DeadWrites = append(r.DeadWrites, Violation{
				Check: CheckDeadWrite, Inst: int(w), Cell: int64(c),
				Msg: fmt.Sprintf("write to cell %d is never read and cell is not a primary output", c),
			})
		}
	}

	// Wear aggregates and the per-policy cap.
	for c, w := range r.WriteCounts {
		r.TotalWrites += w
		if w > 0 {
			r.CellsWritten++
		}
		if w > r.MaxCellWrites {
			r.MaxCellWrites = w
		}
		if opts.MaxWrites > 0 && w > opts.MaxWrites {
			r.violate(CheckWearCap, -1, int64(c), "cell receives %d writes, policy cap is %d", w, opts.MaxWrites)
		}
	}
	if m := opts.CostModel; m != nil {
		var maxWear uint64
		for _, w := range costWear {
			if w > maxWear {
				maxWear = w
			}
		}
		c := m.FromCounts(costOps, maxWear)
		r.Cost = &c
	}
	return r
}

// CheckWriteParity compares the report's static per-cell counts against
// an independently measured aggregate — the allocator's bookkeeping
// (compile.Result.WriteCounts), the interpreter's crossbar counters, or
// internal/exec's per-run aggregate — and records a write-parity
// violation for every divergence. source names the aggregate in the
// message. It returns true when the aggregates agree exactly.
func CheckWriteParity(r *Report, got []uint64, source string) bool {
	ok := true
	if len(got) != len(r.WriteCounts) {
		r.violate(CheckWriteCount, -1, -1, "%s reports %d cells, program declares %d", source, len(got), len(r.WriteCounts))
		return false
	}
	for c := range got {
		if got[c] != r.WriteCounts[c] {
			r.violate(CheckWriteCount, -1, int64(c), "static count %d, %s reports %d", r.WriteCounts[c], source, got[c])
			ok = false
		}
	}
	return ok
}

// CheckCostParity compares the report's static cost against an
// independently accounted one — the compiler/allocator's emission-time
// accumulation (compile.Result.Cost) or internal/exec's per-run dynamic
// cost — and records a cost-parity violation on divergence. Both sides
// derive their totals through cost.Model.FromCounts, so agreement is exact,
// including the floating-point energy total. It returns true when they
// agree (or when the report was produced without a cost model).
func CheckCostParity(r *Report, got cost.Cost, source string) bool {
	if r.Cost == nil {
		return true
	}
	if *r.Cost == got {
		return true
	}
	r.violate(CheckCost, -1, -1, "static cost %+v, %s reports %+v", *r.Cost, source, got)
	return false
}
