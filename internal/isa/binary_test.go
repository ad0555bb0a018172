package isa

import (
	"bytes"
	"encoding/hex"
	"runtime"
	"testing"
)

// wideProgram is a 6000-instruction program whose addresses need one to
// three uvarint bytes, with every operand kind and a negated output.
func wideProgram() *Program {
	p := Parts{Name: "wide", NumCells: 18000, PICells: []uint32{0, 200, 17999}, POs: []PORef{{Addr: 5}, {Addr: 14000, Neg: true}}}
	for i := 0; i < 6000; i++ {
		p.Insts = append(p.Insts, Instruction{
			A: Operand{Kind: OperandKind(i % 3), Addr: uint32(i*97) % 18000 * uint32(i%3/2)},
			B: Operand{Kind: OperandKind(i / 3 % 3), Addr: uint32(i*7919) % 18000 * uint32(i/3%3/2)},
			Z: uint32(i*31) % 18000,
		})
	}
	return build(p)
}

// TestAppendBinaryOneAllocation pins the encoder at one exactly sized
// allocation, whatever the program's size.
func TestAppendBinaryOneAllocation(t *testing.T) {
	for _, p := range []*Program{andnProgram(), wideProgram()} {
		var b []byte
		if n := testing.AllocsPerRun(20, func() { b = p.AppendBinary(nil) }); n != 1 {
			t.Errorf("%s: AppendBinary costs %v allocations, want 1", p.Name(), n)
		}
		if len(b) != cap(b) {
			t.Errorf("%s: encoding of %d bytes in a %d-byte buffer", p.Name(), len(b), cap(b))
		}
		var w bytes.Buffer
		if err := p.WriteBinary(&w); err != nil || !bytes.Equal(w.Bytes(), b) {
			t.Errorf("%s: WriteBinary wrote %d bytes (%v), want AppendBinary's %d", p.Name(), w.Len(), err, len(b))
		}
		if got := p.AppendBinary([]byte("prefix")); string(got[:6]) != "prefix" || !bytes.Equal(got[6:], b) {
			t.Errorf("%s: AppendBinary does not append", p.Name())
		}
	}
}

// TestBinaryBytesPinned pins the encoding of two programs. The format is
// persisted (plimc -o, /v1/compile binary emission, disk-cache program
// entries): a change must bump the format version and re-pin.
func TestBinaryBytesPinned(t *testing.T) {
	neg := andParts()
	neg.POs = append(neg.POs, PORef{Addr: 1, Neg: true})
	for _, tc := range []struct {
		p    *Program
		want string
	}{
		// magic, version, name, 3 cells, PIs {0,1}, PO @2, two RM3s.
		{andnProgram(), "504c494d" + "01" + "04616e646e" + "03" + "020001" + "0104" + "02" + "0402" + "0a000102"},
		// A negated output (@1! is 1<<1|1) and every operand-kind pair.
		{build(neg), "504c494d01" + "03616e64" + "04" + "020001" + "020603" + "04" + "0102" + "080102" + "0403" + "0a000203"},
	} {
		b := tc.p.AppendBinary(nil)
		if got := hex.EncodeToString(b); got != tc.want {
			t.Errorf("%s: encoded %s, want %s", tc.p.Name(), got, tc.want)
		}
		p, err := DecodeBinary(b)
		if err != nil {
			t.Fatalf("%s: %v", tc.p.Name(), err)
		}
		assertProgramsEqual(t, tc.p, p)
	}
}

// TestDecodeBinaryEmptySectionsNil: empty sections decode to nil slices,
// as the compiler emits them, so a decoded program's parts equal the
// compiled ones field for field.
func TestDecodeBinaryEmptySectionsNil(t *testing.T) {
	p, err := DecodeBinary(build(Parts{Name: "empty"}).AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if parts := p.Parts(); parts.PICells != nil || parts.POs != nil || parts.Insts != nil {
		t.Fatalf("empty sections decoded to %#v", parts)
	}
}

// TestDecodeBinaryRejectsUnreferencedCells: a cell count the sections
// cannot reference is refused before anything is sized by it. The 13-byte
// payload declares 2^24 cells and nothing else.
func TestDecodeBinaryRejectsUnreferencedCells(t *testing.T) {
	b := []byte("PLIM\x01\x00\x80\x80\x80\x08\x00\x00\x00")
	if len(b) != 13 {
		t.Fatalf("payload of %d bytes", len(b))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := DecodeBinary(b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("decoded %d cells from 13 bytes", p.NumCells())
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 4096 {
		t.Fatalf("rejecting 13 bytes allocated %d bytes", n)
	}
}

// TestDecodeBinaryRejectsTrailingBytes: an encoding is exactly one
// program, so DecodeBinary (and ReadBinary, which reads a whole stream)
// refuse bytes after it.
func TestDecodeBinaryRejectsTrailingBytes(t *testing.T) {
	b := append(andnProgram().AppendBinary(nil), 0)
	if _, err := DecodeBinary(b); err == nil {
		t.Fatal("DecodeBinary accepted a trailing byte")
	}
	if _, err := ReadBinary(bytes.NewReader(b)); err == nil {
		t.Fatal("ReadBinary accepted a trailing byte")
	}
}
