package isa

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"strings"
)

// Assembly format:
//
//	.plim <name>
//	.cells <n>
//	.pi @<cell> ...            (one line, inputs in order)
//	.po @<cell>[!] ...         (one line, outputs in order, ! = negated)
//	RM3 <op>, <op> -> @<cell>  (one line per instruction)
//	.end
//
// Operands are #0, #1 or @<cell>.

// WriteAsm emits the program in assembly form.
func (p *Program) WriteAsm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".plim %s\n.cells %d\n", p.name, p.numCells)
	fmt.Fprint(bw, ".pi")
	for _, c := range p.PICells() {
		fmt.Fprintf(bw, " @%d", c)
	}
	fmt.Fprintln(bw)
	fmt.Fprint(bw, ".po")
	for _, po := range p.POs() {
		if po.Neg {
			fmt.Fprintf(bw, " @%d!", po.Addr)
		} else {
			fmt.Fprintf(bw, " @%d", po.Addr)
		}
	}
	fmt.Fprintln(bw)
	for _, ins := range p.Insts() {
		fmt.Fprintln(bw, ins.String())
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// ReadAsm parses the assembly format written by WriteAsm and builds the
// program with NewProgram.
func ReadAsm(r io.Reader) (*Program, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	var p Parts
	line := 0
	seenEnd := false
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, ";") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case ".plim":
			if len(fields) > 1 {
				p.Name = fields[1]
			}
		case ".cells":
			if len(fields) != 2 {
				return nil, fmt.Errorf("isa: line %d: .cells needs a count", line)
			}
			n, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("isa: line %d: %v", line, err)
			}
			p.NumCells = uint32(n)
		case ".pi":
			for _, tok := range fields[1:] {
				addr, _, err := parseCellTok(tok)
				if err != nil {
					return nil, fmt.Errorf("isa: line %d: %v", line, err)
				}
				p.PICells = append(p.PICells, addr)
			}
		case ".po":
			for _, tok := range fields[1:] {
				addr, neg, err := parseCellTok(tok)
				if err != nil {
					return nil, fmt.Errorf("isa: line %d: %v", line, err)
				}
				p.POs = append(p.POs, PORef{Addr: addr, Neg: neg})
			}
		case "RM3":
			// RM3 <op>, <op> -> @<cell>
			rest := strings.TrimPrefix(text, "RM3")
			parts := strings.Split(rest, "->")
			if len(parts) != 2 {
				return nil, fmt.Errorf("isa: line %d: malformed RM3", line)
			}
			ops := strings.Split(parts[0], ",")
			if len(ops) != 2 {
				return nil, fmt.Errorf("isa: line %d: RM3 needs two source operands", line)
			}
			a, err := parseOperand(strings.TrimSpace(ops[0]))
			if err != nil {
				return nil, fmt.Errorf("isa: line %d: %v", line, err)
			}
			b, err := parseOperand(strings.TrimSpace(ops[1]))
			if err != nil {
				return nil, fmt.Errorf("isa: line %d: %v", line, err)
			}
			z, neg, err := parseCellTok(strings.TrimSpace(parts[1]))
			if err != nil {
				return nil, fmt.Errorf("isa: line %d: %v", line, err)
			}
			if neg {
				return nil, fmt.Errorf("isa: line %d: destination cannot be negated", line)
			}
			p.Insts = append(p.Insts, Instruction{A: a, B: b, Z: z})
		case ".end":
			seenEnd = true
		default:
			return nil, fmt.Errorf("isa: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !seenEnd {
		return nil, fmt.Errorf("isa: missing .end")
	}
	return NewProgram(p)
}

func parseCellTok(tok string) (addr uint32, neg bool, err error) {
	if strings.HasSuffix(tok, "!") {
		neg = true
		tok = tok[:len(tok)-1]
	}
	if !strings.HasPrefix(tok, "@") {
		return 0, false, fmt.Errorf("bad cell token %q", tok)
	}
	n, err := strconv.ParseUint(tok[1:], 10, 32)
	if err != nil {
		return 0, false, fmt.Errorf("bad cell token %q: %v", tok, err)
	}
	return uint32(n), neg, nil
}

func parseOperand(tok string) (Operand, error) {
	switch tok {
	case "#0":
		return Zero, nil
	case "#1":
		return One, nil
	}
	addr, neg, err := parseCellTok(tok)
	if err != nil || neg {
		return Operand{}, fmt.Errorf("bad operand %q", tok)
	}
	return Cell(addr), nil
}

// Binary format (little-endian):
//
//	magic "PLIM"            4 bytes
//	version                 u8 (=1)
//	name length + bytes     uvarint + raw
//	numCells                uvarint
//	#PI + PI cells          uvarint + uvarints
//	#PO + (addr<<1|neg)     uvarint + uvarints
//	#insts                  uvarint
//	per inst: flags u8 (kindA | kindB<<2), then addrA? addrB? addrZ uvarints
const (
	binaryMagic   = "PLIM"
	binaryVersion = 1
	// maxBinaryName bounds the decoded name: a length prefix beyond it is
	// corruption, not a program.
	maxBinaryName = 1 << 20
)

// Minimum encoded size of each element, used to bound counts by the bytes
// left before anything is allocated: a PI cell or a PO is one uvarint, an
// instruction its flags byte plus its destination.
const (
	minCellBytes = 1
	minInstBytes = 2
)

// WriteBinary writes the program's binary encoding.
func (p *Program) WriteBinary(w io.Writer) error {
	_, err := w.Write(p.enc)
	return err
}

// AppendBinary appends the binary encoding of p to dst and returns the
// extended slice. It grows dst at most once, to exactly the encoded size,
// so encoding into a nil dst is one allocation whose length is its
// capacity.
func (p *Program) AppendBinary(dst []byte) []byte {
	if cap(dst)-len(dst) < len(p.enc) {
		dst = append(make([]byte, 0, len(dst)+len(p.enc)), dst...)
	}
	return append(dst, p.enc...)
}

// Binary returns the program's binary encoding, the bytes AppendBinary
// appends, without copying them: the caller must not modify them.
func (p *Program) Binary() []byte { return p.enc[:len(p.enc):len(p.enc)] }

// appendBinary appends the binary encoding of the parts to dst.
func (p *Parts) appendBinary(dst []byte) []byte {
	dst = append(dst, binaryMagic...)
	dst = append(dst, binaryVersion)
	dst = binary.AppendUvarint(dst, uint64(len(p.Name)))
	dst = append(dst, p.Name...)
	dst = binary.AppendUvarint(dst, uint64(p.NumCells))
	dst = binary.AppendUvarint(dst, uint64(len(p.PICells)))
	for _, c := range p.PICells {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	dst = binary.AppendUvarint(dst, uint64(len(p.POs)))
	for _, po := range p.POs {
		dst = binary.AppendUvarint(dst, poWord(po))
	}
	dst = binary.AppendUvarint(dst, uint64(len(p.Insts)))
	for _, ins := range p.Insts {
		dst = append(dst, ins.flags())
		if ins.A.Kind == OpCell {
			dst = binary.AppendUvarint(dst, uint64(ins.A.Addr))
		}
		if ins.B.Kind == OpCell {
			dst = binary.AppendUvarint(dst, uint64(ins.B.Addr))
		}
		dst = binary.AppendUvarint(dst, uint64(ins.Z))
	}
	return dst
}

// binarySize is the length of the parts' encoding. An operand kind the
// format cannot carry is an error.
func (p *Parts) binarySize() (int, error) {
	n := len(binaryMagic) + 1 + uvarintLen(uint64(len(p.Name))) + len(p.Name) + uvarintLen(uint64(p.NumCells))
	n += uvarintLen(uint64(len(p.PICells)))
	for _, c := range p.PICells {
		n += uvarintLen(uint64(c))
	}
	n += uvarintLen(uint64(len(p.POs)))
	for _, po := range p.POs {
		n += uvarintLen(poWord(po))
	}
	n += uvarintLen(uint64(len(p.Insts))) + len(p.Insts)
	for i, ins := range p.Insts {
		if ins.A.Kind > OpCell || ins.B.Kind > OpCell {
			return 0, fmt.Errorf("isa: inst %d: bad operand kind", i)
		}
		if ins.A.Kind == OpCell {
			n += uvarintLen(uint64(ins.A.Addr))
		}
		if ins.B.Kind == OpCell {
			n += uvarintLen(uint64(ins.B.Addr))
		}
		n += uvarintLen(uint64(ins.Z))
	}
	return n, nil
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// poWord packs a PO reference as the format stores it: addr<<1 | neg.
func poWord(po PORef) uint64 {
	v := uint64(po.Addr) << 1
	if po.Neg {
		v |= 1
	}
	return v
}

// ReadBinary decodes a program written by WriteBinary: it reads the
// stream to its end and decodes that with DecodeBinary, so bytes after the
// program are an error.
func ReadBinary(r io.Reader) (*Program, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeBinary(b)
}

var (
	errTruncated = errors.New("isa: binary: truncated program or malformed varint")
	errOversized = errors.New("isa: binary: count exceeds the bytes left")
)

// DecodeBinary reads a program encoded by AppendBinary. It validates and
// summarizes the encoding in one scan and decodes no instruction: the
// program keeps b as its encoding, so the caller must not modify b
// afterwards.
//
// The cell count precedes every section, so each PI cell, PO, operand and
// destination is checked against it as it is read, and the PI cells must
// be distinct. The cell count must also be one the sections can
// reference: at most one cell per PI and per PO and three per
// instruction. That is checked from the section counts before the
// per-cell counts are sized by it, and every count is checked against the
// bytes left before anything is sized by it, so a hostile payload cannot
// request more memory than its own size implies. A truncated payload, a
// cell count that overflows its 32-bit field, a value encoded in more
// bytes than it needs, an address out of range, an unknown operand kind
// or reserved flag bit and trailing bytes are all errors, so a valid
// program has exactly one encoding.
func DecodeBinary(b []byte) (*Program, error) {
	if len(b) < len(binaryMagic)+1 {
		return nil, errTruncated
	}
	if string(b[:len(binaryMagic)]) != binaryMagic {
		return nil, fmt.Errorf("isa: bad magic %q", b[:len(binaryMagic)])
	}
	if ver := b[len(binaryMagic)]; ver != binaryVersion {
		return nil, fmt.Errorf("isa: unsupported version %d", ver)
	}
	d := decoder{b: b, off: len(binaryMagic) + 1}
	nameLen, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nameLen > maxBinaryName {
		return nil, fmt.Errorf("isa: name length %d exceeds limit %d", nameLen, maxBinaryName)
	}
	if nameLen > uint64(d.left()) {
		return nil, errTruncated
	}
	p := &Program{name: string(d.b[d.off : d.off+int(nameLen)]), enc: b}
	d.off += int(nameLen)
	cells, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if cells > maxUint32 {
		return nil, fmt.Errorf("isa: cell count %d overflows uint32", cells)
	}
	p.numCells = uint32(cells)
	if p.numPIs, err = d.count(minCellBytes); err != nil {
		return nil, err
	}
	p.piOff = d.off
	if err := d.piCells(p.numPIs, cells); err != nil {
		return nil, err
	}
	if p.numPOs, err = d.count(minCellBytes); err != nil {
		return nil, err
	}
	p.poOff = d.off
	for i := range p.numPOs {
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if v>>1 >= cells {
			return nil, fmt.Errorf("isa: PO %d cell %d out of range %d", i, v>>1, cells)
		}
	}
	if p.numInsts, err = d.count(minInstBytes); err != nil {
		return nil, err
	}
	if refs := uint64(p.numPIs) + uint64(p.numPOs) + 3*uint64(p.numInsts); cells > refs {
		return nil, fmt.Errorf("isa: %d cells, but %d PIs, %d POs and %d instructions reference at most %d", cells, p.numPIs, p.numPOs, p.numInsts, refs)
	}
	p.instOff = d.off
	if cells > 0 {
		p.cells = make([]ClassCounts, cells)
	}
	if err := d.insts(p.numInsts, p.cells); err != nil {
		return nil, err
	}
	if d.left() != 0 {
		return nil, fmt.Errorf("isa: binary: %d trailing bytes", d.left())
	}
	for _, n := range p.cells {
		for k := range n {
			p.ops[k] += n[k]
		}
	}
	return p, nil
}

const maxUint32 = 1<<32 - 1

// decoder reads uvarints off the front of an encoded program.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) left() int { return len(d.b) - d.off }

func (d *decoder) uvarint() (uint64, error) {
	v, n := minimalUvarint(d.b[d.off:])
	if n <= 0 {
		return 0, errTruncated
	}
	d.off += n
	return v, nil
}

// piCells reads n PI cells, checking each against cells, and requires
// them distinct. Compiled programs list their PI cells in increasing
// order, which needs no set; any other order is checked with one.
func (d *decoder) piCells(n int, cells uint64) error {
	start := d.off
	increasing := true
	var prev uint64
	for i := range n {
		c, err := d.uvarint()
		if err != nil {
			return err
		}
		if c >= cells {
			return fmt.Errorf("isa: PI %d cell %d out of range %d", i, c, cells)
		}
		increasing = increasing && (i == 0 || prev < c)
		prev = c
	}
	if increasing {
		return nil
	}
	//plim:alloc-ok set sized by PI count, only for PI cells out of order
	seen := make(map[uint64]int, n)
	again := decoder{b: d.b, off: start}
	for i := range n {
		c, _ := again.uvarint()
		if j, dup := seen[c]; dup {
			return fmt.Errorf("isa: PI %d and %d share cell %d", j, i, c)
		}
		seen[c] = i
	}
	return nil
}

// insts scans n instructions, checking every address against
// len(counts) and counting each destination's writes by class. It keeps
// its offset in a local, which keeps the loop free of the decoder's
// fields, and reads the one-byte addresses most instructions have in
// line.
func (d *decoder) insts(n int, counts []ClassCounts) error {
	cells := uint64(len(counts))
	b, off := d.b, d.off
	for i := range n {
		if off >= len(b) {
			return errTruncated
		}
		flags := b[off]
		f := flagsInfo[flags]
		if f == badFlags {
			if flags>>4 != 0 {
				return fmt.Errorf("isa: inst %d: bad instruction flags %#x", i, flags)
			}
			return fmt.Errorf("isa: inst %d: bad operand kind", i)
		}
		off++
		var a, bb, z uint64
		var ok bool
		if f&aCell != 0 {
			if off < len(b) && b[off] < 0x80 {
				a, off = uint64(b[off]), off+1
			} else if a, off, ok = uvarintAt(b, off); !ok {
				return errTruncated
			}
		}
		if f&bCell != 0 {
			if off < len(b) && b[off] < 0x80 {
				bb, off = uint64(b[off]), off+1
			} else if bb, off, ok = uvarintAt(b, off); !ok {
				return errTruncated
			}
		}
		if off < len(b) && b[off] < 0x80 {
			z, off = uint64(b[off]), off+1
		} else if z, off, ok = uvarintAt(b, off); !ok {
			return errTruncated
		}
		// A constant operand reads as address 0, which is in range once
		// the destination is.
		if z >= cells {
			return fmt.Errorf("isa: inst %d destination %d out of range %d", i, z, cells)
		}
		if a >= cells || bb >= cells {
			return fmt.Errorf("isa: inst %d operand @%d out of range %d", i, max(a, bb), cells)
		}
		counts[z][f&classMask]++
	}
	d.off = off
	return nil
}

// flagsInfo describes each flags byte an instruction can start with: its
// class, and whether operand A and operand B are cells. A byte with a
// reserved bit set or an operand kind beyond OpCell is badFlags.
var flagsInfo = func() (t [256]uint8) {
	for flags := range t {
		ka, kb := OperandKind(flags&3), OperandKind(flags>>2&3)
		if flags>>4 != 0 || ka > OpCell || kb > OpCell {
			t[flags] = badFlags
			continue
		}
		t[flags] = uint8(Instruction{A: Operand{Kind: ka}, B: Operand{Kind: kb}}.Class())
		if ka == OpCell {
			t[flags] |= aCell
		}
		if kb == OpCell {
			t[flags] |= bCell
		}
	}
	return t
}()

const (
	classMask = 3
	aCell     = 1 << 2
	bCell     = 1 << 3
	badFlags  = 0xff
)

// uvarintAt reads the minimal uvarint at b[off:] and returns it with the
// offset after it; ok is false when there is none.
func uvarintAt(b []byte, off int) (v uint64, next int, ok bool) {
	v, n := minimalUvarint(b[off:])
	return v, off + n, n > 0
}

// longAddrAt reads the address of two or more bytes at b[off:] of a
// validated encoding and returns it with the offset after it.
func longAddrAt(b []byte, off int) (uint32, int) {
	v, n := frontUvarint(b[off:])
	return uint32(v), off + n
}

// frontUvarint is binary.Uvarint with a fast path for the one- and
// two-byte values most addresses take.
func frontUvarint(b []byte) (uint64, int) {
	if len(b) > 1 && b[1] < 0x80 {
		if b[0] < 0x80 {
			return uint64(b[0]), 1
		}
		return uint64(b[0]&0x7f) | uint64(b[1])<<7, 2
	}
	return binary.Uvarint(b)
}

// minimalUvarint is frontUvarint that also refuses a value encoded in
// more bytes than it needs, whose last byte is zero: every program then
// has exactly one encoding, the one AppendBinary writes.
func minimalUvarint(b []byte) (uint64, int) {
	v, n := frontUvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// count reads an element count whose elements take at least per bytes
// each; a count the bytes left cannot hold is an error.
func (d *decoder) count(per int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(d.left()/per) {
		return 0, errOversized
	}
	return int(v), nil
}
