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
	fmt.Fprintf(bw, ".plim %s\n.cells %d\n", p.Name, p.NumCells)
	fmt.Fprint(bw, ".pi")
	for _, c := range p.PICells {
		fmt.Fprintf(bw, " @%d", c)
	}
	fmt.Fprintln(bw)
	fmt.Fprint(bw, ".po")
	for _, po := range p.POs {
		if po.Neg {
			fmt.Fprintf(bw, " @%d!", po.Addr)
		} else {
			fmt.Fprintf(bw, " @%d", po.Addr)
		}
	}
	fmt.Fprintln(bw)
	for _, ins := range p.Insts {
		fmt.Fprintln(bw, ins.String())
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// ReadAsm parses the assembly format written by WriteAsm.
func ReadAsm(r io.Reader) (*Program, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	p := &Program{}
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
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
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

// WriteBinary encodes the program in the compact binary format: one write
// of AppendBinary's bytes.
func (p *Program) WriteBinary(w io.Writer) error {
	_, err := w.Write(p.AppendBinary(nil))
	return err
}

// AppendBinary appends the binary encoding of p to dst and returns the
// extended slice. It grows dst at most once, to exactly the encoded size,
// so encoding into a nil dst is one allocation whose length is its
// capacity.
func (p *Program) AppendBinary(dst []byte) []byte {
	if n := p.binarySize(); cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
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
		dst = append(dst, byte(ins.A.Kind)|byte(ins.B.Kind)<<2)
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

// binarySize is the length of AppendBinary's encoding of p.
func (p *Program) binarySize() int {
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
	for _, ins := range p.Insts {
		if ins.A.Kind == OpCell {
			n += uvarintLen(uint64(ins.A.Addr))
		}
		if ins.B.Kind == OpCell {
			n += uvarintLen(uint64(ins.B.Addr))
		}
		n += uvarintLen(uint64(ins.Z))
	}
	return n
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

// DecodeBinary decodes a program encoded by AppendBinary and validates it
// in the same pass. The cell count precedes every section, so each PI
// cell, PO, operand and destination is checked against it as it is read,
// and the PI cells must be distinct; the result passes Validate. Every
// count is checked against the bytes left before its slice is allocated,
// so a hostile payload cannot request more memory than its own size
// implies. A truncated payload, a cell count that overflows its 32-bit
// field, an address out of range, an unknown operand kind or reserved
// flag bit and trailing bytes are all errors. Empty sections decode to
// nil slices, as the compiler emits them.
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
	p := &Program{Name: string(d.b[d.off : d.off+int(nameLen)])}
	d.off += int(nameLen)
	cells, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if cells > maxUint32 {
		return nil, fmt.Errorf("isa: cell count %d overflows uint32", cells)
	}
	p.NumCells = uint32(cells)
	npi, err := d.count(minCellBytes)
	if err != nil {
		return nil, err
	}
	if npi > 0 {
		p.PICells = make([]uint32, npi)
	}
	for i := range p.PICells {
		c, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if c >= cells {
			return nil, fmt.Errorf("isa: PI %d cell %d out of range %d", i, c, cells)
		}
		p.PICells[i] = uint32(c)
	}
	if err := distinctPIs(p.PICells); err != nil {
		return nil, err
	}
	npo, err := d.count(minCellBytes)
	if err != nil {
		return nil, err
	}
	if npo > 0 {
		p.POs = make([]PORef, npo)
	}
	for i := range p.POs {
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if v>>1 >= cells {
			return nil, fmt.Errorf("isa: PO %d cell %d out of range %d", i, v>>1, cells)
		}
		p.POs[i] = PORef{Addr: uint32(v >> 1), Neg: v&1 == 1}
	}
	ninst, err := d.count(minInstBytes)
	if err != nil {
		return nil, err
	}
	if ninst > 0 {
		p.Insts = make([]Instruction, ninst)
	}
	if err := d.insts(p.Insts, cells); err != nil {
		return nil, err
	}
	if d.left() != 0 {
		return nil, fmt.Errorf("isa: binary: %d trailing bytes", d.left())
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
	v, n := frontUvarint(d.b[d.off:])
	if n <= 0 {
		return 0, errTruncated
	}
	d.off += n
	return v, nil
}

// insts decodes len(insts) instructions, checking every address against
// cells. It walks a local slice, which keeps the loop free of the
// decoder's fields.
func (d *decoder) insts(insts []Instruction, cells uint64) error {
	b := d.b[d.off:]
	for i := range insts {
		if len(b) == 0 {
			return errTruncated
		}
		flags := b[0]
		b = b[1:]
		if flags>>4 != 0 {
			return fmt.Errorf("isa: inst %d: bad instruction flags %#x", i, flags)
		}
		ka, kb := OperandKind(flags&3), OperandKind(flags>>2&3)
		if ka > OpCell || kb > OpCell {
			return fmt.Errorf("isa: inst %d: bad operand kind", i)
		}
		var a, bb uint64
		var n int
		if ka == OpCell {
			if a, n = frontUvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		}
		if kb == OpCell {
			if bb, n = frontUvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		}
		z, n := frontUvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		// A constant operand reads as address 0, which is in range once
		// the destination is.
		if z >= cells {
			return fmt.Errorf("isa: inst %d destination %d out of range %d", i, z, cells)
		}
		if a >= cells || bb >= cells {
			return fmt.Errorf("isa: inst %d operand @%d out of range %d", i, max(a, bb), cells)
		}
		insts[i] = Instruction{A: Operand{ka, uint32(a)}, B: Operand{kb, uint32(bb)}, Z: uint32(z)}
	}
	d.off = len(d.b) - len(b)
	return nil
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
