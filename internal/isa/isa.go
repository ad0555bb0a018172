// Package isa defines the PLiM instruction set and the controller that
// executes it on an RRAM crossbar.
//
// PLiM (Gaillardon et al., DATE 2016) is a single-instruction machine: every
// instruction is a resistive majority
//
//	RM3 A, B → Z        Z ← ⟨A B̄ Z⟩
//
// where the operands A and B are either constants (applied by the controller
// as bias voltages) or non-destructive reads of memory locations, and Z is a
// memory location that receives the result with a single write pulse.
// Presets, copies and inversions are RM3 instructions with constant
// operands:
//
//	RM3 0, 1 → Z        Z ← 0
//	RM3 1, 0 → Z        Z ← 1
//	RM3 x, 0 → Z        Z ← x      (requires Z = 0)
//	RM3 0, x → Z        Z ← x̄      (requires Z = 1)
//
// The package provides the program container (with primary-input and
// primary-output cell maps), a textual assembly format, a compact binary
// encoding, and the interpreter used to validate compiled programs against
// their source MIGs.
package isa

import (
	"fmt"

	"plim/internal/rram"
)

// OperandKind distinguishes constant operands from memory reads.
type OperandKind uint8

// Operand kinds.
const (
	OpConst0 OperandKind = iota
	OpConst1
	OpCell
)

// Operand is an RM3 source operand.
type Operand struct {
	Kind OperandKind
	Addr uint32 // valid when Kind == OpCell
}

// Constant and cell operand constructors.
var (
	Zero = Operand{Kind: OpConst0}
	One  = Operand{Kind: OpConst1}
)

// Cell returns a memory-read operand.
func Cell(addr uint32) Operand { return Operand{Kind: OpCell, Addr: addr} }

// Const returns the constant operand for v.
func Const(v bool) Operand {
	if v {
		return One
	}
	return Zero
}

// String renders the operand in assembly syntax.
func (o Operand) String() string {
	switch o.Kind {
	case OpConst0:
		return "#0"
	case OpConst1:
		return "#1"
	default:
		return fmt.Sprintf("@%d", o.Addr)
	}
}

// Instruction is one RM3 operation.
type Instruction struct {
	A, B Operand
	Z    uint32
}

// String renders the instruction in assembly syntax.
func (i Instruction) String() string {
	return fmt.Sprintf("RM3 %s, %s -> @%d", i.A, i.B, i.Z)
}

// PORef locates a primary output in the array. Complemented outputs only
// appear when the compiler is configured not to materialize them; the
// default flow materializes complements so Neg is normally false.
type PORef struct {
	Addr uint32
	Neg  bool
}

// Program is a straight-line PLiM program together with its memory
// interface: which cell holds each primary input before execution and which
// cell holds each primary output afterwards.
type Program struct {
	Name  string
	Insts []Instruction
	// NumCells is the size of the address space the program touches
	// (the paper's #R, including primary-input cells).
	NumCells uint32
	// PICells[i] is the cell preloaded with primary input i.
	PICells []uint32
	// POs[i] locates primary output i after execution.
	POs []PORef
}

// NumInstructions returns the paper's #I metric.
func (p *Program) NumInstructions() int { return len(p.Insts) }

// Validate checks that all addresses are within NumCells and PI cells are
// unique. DecodeBinary makes the same checks as it decodes, so a decoded
// program needs no second pass; ReadAsm, the compiler's tests and callers
// that build or edit programs by hand run this one.
func (p *Program) Validate() error {
	for i, c := range p.PICells {
		if c >= p.NumCells {
			return fmt.Errorf("isa: PI %d cell %d out of range %d", i, c, p.NumCells)
		}
	}
	if err := distinctPIs(p.PICells); err != nil {
		return err
	}
	for i, po := range p.POs {
		if po.Addr >= p.NumCells {
			return fmt.Errorf("isa: PO %d cell %d out of range %d", i, po.Addr, p.NumCells)
		}
	}
	for n, ins := range p.Insts {
		if ins.Z >= p.NumCells {
			return fmt.Errorf("isa: inst %d destination %d out of range %d", n, ins.Z, p.NumCells)
		}
		for _, op := range [2]Operand{ins.A, ins.B} {
			if op.Kind == OpCell && op.Addr >= p.NumCells {
				return fmt.Errorf("isa: inst %d operand %s out of range %d", n, op, p.NumCells)
			}
		}
	}
	return nil
}

// distinctPIs reports two PIs that share a cell. Compiled programs list
// their PI cells in increasing order, which needs no set.
func distinctPIs(cells []uint32) error {
	increasing := true
	for i := 1; i < len(cells) && increasing; i++ {
		increasing = cells[i-1] < cells[i]
	}
	if increasing {
		return nil
	}
	//plim:alloc-ok set sized by PI count, only for PI cells out of order
	seen := make(map[uint32]int, len(cells))
	for i, c := range cells {
		if j, dup := seen[c]; dup {
			return fmt.Errorf("isa: PI %d and %d share cell %d", j, i, c)
		}
		seen[c] = i
	}
	return nil
}

// Fingerprint returns a 64-bit FNV-1a content hash of the program: the
// address space, every instruction and the PI/PO cell maps. The name is
// deliberately excluded so identical compilations of the same function
// share a fingerprint. It identifies a program in verification reports
// and /v1/execute responses, and the disk tier records it to re-verify
// program entries (see internal/verify, internal/server and
// internal/diskcache).
func (p *Program) Fingerprint() uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	operand := func(o Operand) uint64 { return uint64(o.Kind)<<32 | uint64(o.Addr) }
	mix(uint64(p.NumCells))
	mix(uint64(len(p.Insts)))
	for _, ins := range p.Insts {
		mix(operand(ins.A))
		mix(operand(ins.B))
		mix(uint64(ins.Z))
	}
	mix(uint64(len(p.PICells)))
	for _, c := range p.PICells {
		mix(uint64(c))
	}
	mix(uint64(len(p.POs)))
	for _, po := range p.POs {
		v := uint64(po.Addr)
		if po.Neg {
			v |= 1 << 32
		}
		mix(v)
	}
	return h
}

// StaticWriteCounts computes per-cell write counts by scanning the
// instruction stream. PLiM programs are straight-line, so static counts are
// exact and must agree with the interpreter's measured counts — a property
// the tests verify.
func (p *Program) StaticWriteCounts() []uint64 {
	counts := make([]uint64, p.NumCells)
	for _, ins := range p.Insts {
		counts[ins.Z]++
	}
	return counts
}

// Controller executes programs against a crossbar, mimicking the PLiM
// finite-state machine: fetch, read A, read B, write Z. The zero value is
// not usable; use NewController.
type Controller struct {
	xbar *rram.Crossbar
	// PC is the program counter after the last Run (instructions retired).
	PC int
}

// NewController wraps a crossbar.
func NewController(x *rram.Crossbar) *Controller { return &Controller{xbar: x} }

// Crossbar returns the wrapped array.
func (c *Controller) Crossbar() *rram.Crossbar { return c.xbar }

// LoadInputs preloads the primary-input cells of p with the given values.
// Preloading models data already resident in memory and does not age
// devices.
func (c *Controller) LoadInputs(p *Program, inputs []bool) error {
	if len(inputs) != len(p.PICells) {
		return fmt.Errorf("isa: got %d inputs, want %d", len(inputs), len(p.PICells))
	}
	for i, cell := range p.PICells {
		c.xbar.Preload(cell, inputs[i])
	}
	return nil
}

// Run executes the whole program. On a worn-out device it stops and returns
// the failing instruction index wrapped in the error.
func (c *Controller) Run(p *Program) error {
	c.PC = 0
	for n, ins := range p.Insts {
		if err := c.Step(ins); err != nil {
			return fmt.Errorf("isa: inst %d (%s): %w", n, ins, err)
		}
		c.PC = n + 1
	}
	return nil
}

// Step executes a single instruction.
func (c *Controller) Step(ins Instruction) error {
	a := c.operand(ins.A)
	b := c.operand(ins.B)
	return c.xbar.RM3(a, b, ins.Z)
}

func (c *Controller) operand(o Operand) bool {
	switch o.Kind {
	case OpConst0:
		return false
	case OpConst1:
		return true
	default:
		return c.xbar.Read(o.Addr)
	}
}

// ReadOutputs returns the primary-output values after execution.
func (c *Controller) ReadOutputs(p *Program) []bool {
	out := make([]bool, len(p.POs))
	for i, po := range p.POs {
		v := c.xbar.Read(po.Addr)
		if po.Neg {
			v = !v
		}
		out[i] = v
	}
	return out
}

// Execute is a convenience wrapper: it allocates a fitting crossbar,
// preloads the inputs, runs the program and returns the outputs together
// with the crossbar for inspection.
func Execute(p *Program, inputs []bool, opts ...rram.Option) ([]bool, *rram.Crossbar, error) {
	x := rram.NewLinear(int(p.NumCells), opts...)
	c := NewController(x)
	if err := c.LoadInputs(p, inputs); err != nil {
		return nil, nil, err
	}
	if err := c.Run(p); err != nil {
		return nil, x, err
	}
	return c.ReadOutputs(p), x, nil
}
