package isa

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// These are the inputs plimcheck and /v1/compile?verify=true accept from
// the outside world: every malformed stream must come back as an error,
// never a panic or an unbounded allocation.

func validBinary(t *testing.T) []byte {
	t.Helper()
	p := build(Parts{
		Name:     "err-paths",
		NumCells: 4,
		PICells:  []uint32{0, 1},
		POs:      []PORef{{Addr: 3}, {Addr: 0, Neg: true}},
		Insts: []Instruction{
			{A: One, B: Zero, Z: 3},
			{A: Cell(0), B: Cell(1), Z: 3},
			{A: Zero, B: Cell(2), Z: 3},
		},
	})
	// Cell 2 is deliberately unwritten garbage for the verifier; the codec
	// only cares that addresses are in range.
	var buf bytes.Buffer
	if err := p.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustFail(t *testing.T, data []byte, why string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: decoder panicked: %v", why, r)
		}
	}()
	if p, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatalf("%s: decoder accepted %d bytes: %+v", why, len(data), p)
	}
}

func TestReadBinaryTruncated(t *testing.T) {
	full := validBinary(t)
	for n := 0; n < len(full); n++ {
		mustFail(t, full[:n], "truncated")
	}
	if _, err := ReadBinary(bytes.NewReader(full)); err != nil {
		t.Fatalf("full stream must decode: %v", err)
	}
}

// header builds magic+version followed by raw bytes.
func header(rest ...byte) []byte {
	return append([]byte("PLIM\x01"), rest...)
}

func uv(vals ...uint64) []byte {
	var out []byte
	var buf [binary.MaxVarintLen64]byte
	for _, v := range vals {
		out = append(out, buf[:binary.PutUvarint(buf[:], v)]...)
	}
	return out
}

func TestReadBinaryBadHeader(t *testing.T) {
	mustFail(t, []byte("MILP\x01"), "bad magic")
	mustFail(t, []byte("PLIM\x07"), "unsupported version")
}

func TestReadBinaryHugeCounts(t *testing.T) {
	// Each stream claims an astronomically large section and then ends.
	// The decoder must fail on EOF without allocating for the claim.
	mustFail(t, header(uv(1<<40)...), "huge name length")
	// name "" (len 0), cells 4, then a huge PI count.
	mustFail(t, header(uv(0, 4, 1<<50)...), "huge PI count")
	// ... huge PO count.
	mustFail(t, header(uv(0, 4, 0, 1<<50)...), "huge PO count")
	// ... huge instruction count.
	mustFail(t, header(uv(0, 4, 0, 0, 1<<50)...), "huge inst count")
}

func TestReadBinaryOverflow(t *testing.T) {
	// 2^33 cells does not fit the uint32 address space; truncating it
	// would decode a different program.
	mustFail(t, append(header(uv(0, 1<<33)...), uv(0, 0, 0)...), "cell count overflow")
	// PI cell address overflow.
	mustFail(t, append(header(uv(0, 4, 1, 1<<33)...), uv(0, 0)...), "PI address overflow")
	// PO address overflow ((addr<<1|neg) encoding).
	mustFail(t, append(header(uv(0, 4, 0, 1, 1<<34)...), uv(0)...), "PO address overflow")
}

func TestReadBinaryOutOfRangeCells(t *testing.T) {
	// Structurally well-formed, semantically invalid: addresses beyond
	// the declared cell count must be rejected by validation.
	outOfRange := func(mutate func(p *Parts)) []byte {
		p := Parts{Name: "", NumCells: 2, PICells: []uint32{0}, POs: []PORef{{Addr: 1}},
			Insts: []Instruction{{A: One, B: Zero, Z: 1}}}
		mutate(&p)
		return p.appendBinary(nil)
	}
	mustFail(t, outOfRange(func(p *Parts) { p.PICells[0] = 9 }), "PI out of range")
	mustFail(t, outOfRange(func(p *Parts) { p.POs[0].Addr = 9 }), "PO out of range")
	mustFail(t, outOfRange(func(p *Parts) { p.Insts[0].Z = 9 }), "destination out of range")
	mustFail(t, outOfRange(func(p *Parts) { p.Insts[0].A = Cell(9) }), "operand out of range")
	mustFail(t, outOfRange(func(p *Parts) { p.PICells = []uint32{0, 0} }), "duplicate PI")
	mustFail(t, outOfRange(func(p *Parts) { p.PICells = []uint32{1, 0, 1} }), "duplicate PI out of order")
}

func TestReadBinaryBadInstructionFlags(t *testing.T) {
	// kind 3 is not an operand kind; flag bits above the two kind fields
	// are reserved and must not be silently dropped.
	base := uv(0, 2, 0, 0, 1) // name "", 2 cells, no PIs, no POs, 1 inst
	mustFail(t, append(header(base...), 0x03, 0x00), "operand kind 3")
	mustFail(t, append(header(base...), 0x0c, 0x00), "operand kind 3 (B)")
	mustFail(t, append(header(base...), 0x10, 0x00), "reserved flag bits")
}

func TestReadAsmErrors(t *testing.T) {
	cases := map[string]string{
		"unknown directive": ".plim x\n.cells 1\nFOO\n.end\n",
		"missing end":       ".plim x\n.cells 1\n",
		"bad cells":         ".plim x\n.cells many\n.end\n",
		"cells arity":       ".plim x\n.cells\n.end\n",
		"bad pi token":      ".plim x\n.cells 2\n.pi %0\n.end\n",
		"bad po token":      ".plim x\n.cells 2\n.po @x\n.end\n",
		"malformed rm3":     ".plim x\n.cells 2\nRM3 #0, #1\n.end\n",
		"rm3 arity":         ".plim x\n.cells 2\nRM3 #0 -> @0\n.end\n",
		"bad operand":       ".plim x\n.cells 2\nRM3 #2, #0 -> @0\n.end\n",
		"negated operand":   ".plim x\n.cells 2\nRM3 @1!, #0 -> @0\n.end\n",
		"negated dest":      ".plim x\n.cells 2\nRM3 #0, #1 -> @0!\n.end\n",
		"pi out of range":   ".plim x\n.cells 2\n.pi @5\n.end\n",
		"dest out of range": ".plim x\n.cells 2\nRM3 #0, #1 -> @5\n.end\n",
	}
	for name, src := range cases {
		if p, err := ReadAsm(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted: %+v", name, p)
		}
	}
}
