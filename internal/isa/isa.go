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
// encoding in which a program keeps its instructions, and the interpreter
// used to validate compiled programs against their source MIGs.
package isa

import (
	"fmt"
	"iter"
	"sync"
	"unsafe"

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

// Class is an instruction's cost class. The two presets RM3 #0,#1 → Z
// (RESET, Z ← 0) and RM3 #1,#0 → Z (SET, Z ← 1) are the only
// destination-independent instructions; every other instruction —
// compute, copy, invert — is a full resistive majority.
type Class uint8

// Instruction classes.
const (
	ClassReset Class = iota
	ClassSet
	ClassRM3
	NumClasses
)

// String names the class as cost models do: reset, set or rm3.
func (c Class) String() string {
	switch c {
	case ClassReset:
		return "reset"
	case ClassSet:
		return "set"
	case ClassRM3:
		return "rm3"
	}
	return "?"
}

// ClassCounts counts instructions per class.
type ClassCounts [NumClasses]uint64

// Total sums all classes.
func (c ClassCounts) Total() uint64 { return c[ClassReset] + c[ClassSet] + c[ClassRM3] }

// Class returns the instruction's cost class.
func (i Instruction) Class() Class {
	switch {
	case i.A.Kind == OpConst0 && i.B.Kind == OpConst1:
		return ClassReset
	case i.A.Kind == OpConst1 && i.B.Kind == OpConst0:
		return ClassSet
	}
	return ClassRM3
}

// flags packs the operand kinds as the binary format stores them.
func (i Instruction) flags() byte { return byte(i.A.Kind) | byte(i.B.Kind)<<2 }

// Parts is a program in plain form: its name, its address space (the
// paper's #R, including primary-input cells), the cell preloaded with each
// primary input, where each primary output lies after execution, and every
// instruction. NewProgram builds a Program from its parts and
// Program.Parts returns them, so a caller that edits a program decodes
// it, edits the parts and builds a new one.
type Parts struct {
	Name     string
	NumCells uint32
	PICells  []uint32
	POs      []PORef
	Insts    []Instruction
}

// Program is a valid straight-line PLiM program together with its memory
// interface. It is immutable, so any number of callers may share one, and
// it holds its instructions only in their binary encoding: Insts decodes
// them as it goes. There are two ways to build one: NewProgram encodes
// parts, and DecodeBinary reads an encoding. Both validate the program
// and summarize it in one scan of the encoding, and the program keeps
// that summary — its per-cell write counts by class — so #I, #R, the
// write counts and the per-class op counts never walk the instructions
// again. The fingerprint is computed on first use and kept.
type Program struct {
	name                     string
	numCells                 uint32
	numPIs, numPOs, numInsts int
	// enc is the binary encoding, exactly AppendBinary's bytes; piOff,
	// poOff and instOff are where its PI, PO and instruction entries
	// start.
	enc                   []byte
	piOff, poOff, instOff int
	// cells[c] counts the writes to cell c by class; ops sums them.
	cells []ClassCounts
	ops   ClassCounts

	fpOnce sync.Once
	fp     uint64
}

// NewProgram builds the program of parts. It encodes the parts once and
// reads the encoding back with DecodeBinary's scan, so it accepts exactly
// the programs an encoding can carry: every address within NumCells,
// distinct PI cells, a NumCells the sections can reference (see
// DecodeBinary) and a name within the format's limit. The program shares
// nothing with parts. A constant operand carries no address: its Addr is
// not part of the program.
func NewProgram(parts Parts) (*Program, error) {
	n, err := parts.binarySize()
	if err != nil {
		return nil, err
	}
	return DecodeBinary(parts.appendBinary(make([]byte, 0, n)))
}

// Name returns the program's name.
func (p *Program) Name() string { return p.name }

// NumCells returns the size of the address space the program touches
// (the paper's #R, including primary-input cells).
func (p *Program) NumCells() uint32 { return p.numCells }

// NumInstructions returns the paper's #I metric.
func (p *Program) NumInstructions() int { return p.numInsts }

// NumPIs returns the primary-input count.
func (p *Program) NumPIs() int { return p.numPIs }

// NumPOs returns the primary-output count.
func (p *Program) NumPOs() int { return p.numPOs }

// PICells iterates over the primary inputs: input i is preloaded into the
// cell the iterator yields with i.
func (p *Program) PICells() iter.Seq2[int, uint32] {
	return func(yield func(int, uint32) bool) {
		b := p.enc[p.piOff:]
		for i := range p.numPIs {
			v, n := frontUvarint(b)
			b = b[n:]
			if !yield(i, uint32(v)) {
				return
			}
		}
	}
}

// POs iterates over the primary outputs: output i lies where the iterator
// yields with i after execution.
func (p *Program) POs() iter.Seq2[int, PORef] {
	return func(yield func(int, PORef) bool) {
		b := p.enc[p.poOff:]
		for i := range p.numPOs {
			v, n := frontUvarint(b)
			b = b[n:]
			if !yield(i, PORef{Addr: uint32(v >> 1), Neg: v&1 == 1}) {
				return
			}
		}
	}
}

// Insts iterates over the instructions in program order, decoding each
// from the encoding as it goes; one-byte addresses, the most common, are
// read in line.
func (p *Program) Insts() iter.Seq2[int, Instruction] {
	return func(yield func(int, Instruction) bool) {
		b, off := p.enc, p.instOff
		for i := range p.numInsts {
			flags := b[off]
			off++
			ins := Instruction{A: Operand{Kind: OperandKind(flags & 3)}, B: Operand{Kind: OperandKind(flags >> 2)}}
			if ins.A.Kind == OpCell {
				if c := b[off]; c < 0x80 {
					ins.A.Addr, off = uint32(c), off+1
				} else {
					ins.A.Addr, off = longAddrAt(b, off)
				}
			}
			if ins.B.Kind == OpCell {
				if c := b[off]; c < 0x80 {
					ins.B.Addr, off = uint32(c), off+1
				} else {
					ins.B.Addr, off = longAddrAt(b, off)
				}
			}
			if c := b[off]; c < 0x80 {
				ins.Z, off = uint32(c), off+1
			} else {
				ins.Z, off = longAddrAt(b, off)
			}
			if !yield(i, ins) {
				return
			}
		}
	}
}

// Parts decodes the program into plain form. Empty sections are nil.
func (p *Program) Parts() Parts {
	parts := Parts{Name: p.name, NumCells: p.numCells}
	for _, c := range p.PICells() {
		parts.PICells = append(parts.PICells, c)
	}
	for _, po := range p.POs() {
		parts.POs = append(parts.POs, po)
	}
	if p.numInsts > 0 {
		parts.Insts = make([]Instruction, 0, p.numInsts)
	}
	for _, ins := range p.Insts() {
		parts.Insts = append(parts.Insts, ins)
	}
	return parts
}

// ClassCounts returns the program's per-class instruction counts.
func (p *Program) ClassCounts() ClassCounts { return p.ops }

// CellClassCounts iterates over the cells in address order, yielding each
// cell with its writes by class.
func (p *Program) CellClassCounts() iter.Seq2[int, ClassCounts] {
	return func(yield func(int, ClassCounts) bool) {
		for c, n := range p.cells {
			if !yield(c, n) {
				return
			}
		}
	}
}

// StaticWriteCounts returns a fresh slice of per-cell write counts.
// PLiM programs are straight-line, so static counts are exact and must
// agree with the interpreter's measured counts — a property the tests
// verify.
func (p *Program) StaticWriteCounts() []uint64 {
	counts := make([]uint64, p.numCells)
	for c, n := range p.cells {
		counts[c] = n.Total()
	}
	return counts
}

// MemSize returns the bytes the program retains: the Program itself, its
// encoding, its name and its per-cell counts.
func (p *Program) MemSize() int {
	return int(unsafe.Sizeof(*p)) + cap(p.enc) + len(p.name) + cap(p.cells)*int(unsafe.Sizeof(ClassCounts{}))
}

// Fingerprint returns a 64-bit FNV-1a content hash of the program: the
// address space, every instruction and the PI/PO cell maps. The name is
// deliberately excluded so identical compilations of the same function
// share a fingerprint. It identifies a program in verification reports
// and /v1/execute responses, and the disk tier records it to re-verify
// program entries (see internal/verify, internal/server and
// internal/diskcache). It is computed on first use, once, and kept.
func (p *Program) Fingerprint() uint64 {
	p.fpOnce.Do(func() {
		if fingerprintHook != nil {
			fingerprintHook()
		}
		p.fp = p.fingerprint()
	})
	return p.fp
}

// fingerprintHook, when a test sets it, runs each time a fingerprint is
// computed.
var fingerprintHook func()

func (p *Program) fingerprint() uint64 {
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
	mix(uint64(p.numCells))
	mix(uint64(p.numInsts))
	for _, ins := range p.Insts() {
		mix(operand(ins.A))
		mix(operand(ins.B))
		mix(uint64(ins.Z))
	}
	mix(uint64(p.numPIs))
	for _, c := range p.PICells() {
		mix(uint64(c))
	}
	mix(uint64(p.numPOs))
	for _, po := range p.POs() {
		v := uint64(po.Addr)
		if po.Neg {
			v |= 1 << 32
		}
		mix(v)
	}
	return h
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
	if len(inputs) != p.NumPIs() {
		return fmt.Errorf("isa: got %d inputs, want %d", len(inputs), p.NumPIs())
	}
	for i, cell := range p.PICells() {
		c.xbar.Preload(cell, inputs[i])
	}
	return nil
}

// Run executes the whole program. On a worn-out device it stops and returns
// the failing instruction index wrapped in the error.
func (c *Controller) Run(p *Program) error {
	c.PC = 0
	for n, ins := range p.Insts() {
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
	out := make([]bool, p.NumPOs())
	for i, po := range p.POs() {
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
	x := rram.NewLinear(int(p.NumCells()), opts...)
	c := NewController(x)
	if err := c.LoadInputs(p, inputs); err != nil {
		return nil, nil, err
	}
	if err := c.Run(p); err != nil {
		return nil, x, err
	}
	return c.ReadOutputs(p), x, nil
}
