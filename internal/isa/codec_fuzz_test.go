package isa

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// fuzzSeeds are the golden programs of the unit tests plus degenerate
// shapes (empty, constants-only, negated outputs), encoded to binary —
// the corpus FuzzCodecRoundTrip mutates.
func fuzzSeeds(f *testing.F) {
	seeds := []*Program{
		andnProgram(),
		andProgram(),
		{Name: "", NumCells: 1, POs: []PORef{{Addr: 0}}},
		{
			Name:     "neg",
			NumCells: 4,
			PICells:  []uint32{0, 1, 2},
			POs:      []PORef{{Addr: 3, Neg: true}, {Addr: 0}},
			Insts: []Instruction{
				{A: One, B: Zero, Z: 3},
				{A: Cell(0), B: Cell(1), Z: 3},
				{A: Zero, B: Cell(2), Z: 3},
			},
		},
	}
	for _, p := range seeds {
		var buf bytes.Buffer
		if err := p.WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
}

// FuzzCodecRoundTrip feeds arbitrary bytes to the binary decoder, as a
// stream (ReadBinary) and as a slice (DecodeBinary); both must agree, and
// any input they accept must be a valid program that survives a binary
// re-encode bit-identically and — when its name is assembly-safe — an
// assembly round trip structurally.
func FuzzCodecRoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadBinary(bytes.NewReader(data))
		ps, errs := DecodeBinary(data)
		if (err == nil) != (errs == nil) || !reflect.DeepEqual(p, ps) {
			t.Fatalf("ReadBinary (%v) and DecodeBinary (%v) disagree:\n%+v\nvs\n%+v", err, errs, p, ps)
		}
		if err != nil {
			return // rejected inputs are fine; acceptance is what's checked
		}
		if enc := p.AppendBinary(nil); !bytes.Equal(enc, p.AppendBinary(nil)) || len(enc) != cap(enc) {
			t.Fatal("AppendBinary is not deterministic or not exactly sized")
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid program: %v", err)
		}
		var bin bytes.Buffer
		if err := p.WriteBinary(&bin); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		p2, err := ReadBinary(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("binary round trip changed the program:\n%+v\nvs\n%+v", p, p2)
		}
		var bin2 bytes.Buffer
		if err := p2.WriteBinary(&bin2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bin.Bytes(), bin2.Bytes()) {
			t.Fatal("binary encoding is not canonical")
		}
		// The assembly format stores the name as one whitespace-delimited
		// token; only round-trip through it when the name survives that.
		if asmSafeName(p.Name) {
			var asm bytes.Buffer
			if err := p.WriteAsm(&asm); err != nil {
				t.Fatalf("asm encode: %v", err)
			}
			p3, err := ReadAsm(bytes.NewReader(asm.Bytes()))
			if err != nil {
				t.Fatalf("asm round trip rejected %q: %v", asm.String(), err)
			}
			// Normalize: ReadAsm leaves nil slices where WriteAsm printed
			// empty sections.
			if p3.Name != p.Name || p3.NumCells != p.NumCells ||
				len(p3.PICells) != len(p.PICells) || len(p3.POs) != len(p.POs) ||
				len(p3.Insts) != len(p.Insts) {
				t.Fatalf("asm round trip changed the shape:\n%+v\nvs\n%+v", p, p3)
			}
			for i := range p.PICells {
				if p3.PICells[i] != p.PICells[i] {
					t.Fatalf("asm round trip changed PI %d", i)
				}
			}
			for i := range p.POs {
				if p3.POs[i] != p.POs[i] {
					t.Fatalf("asm round trip changed PO %d", i)
				}
			}
			for i := range p.Insts {
				if p3.Insts[i] != p.Insts[i] {
					t.Fatalf("asm round trip changed instruction %d", i)
				}
			}
		}
	})
}

// asmSafeName reports whether the assembly format can carry the name: a
// single non-empty printable token with no whitespace and no comment
// leaders.
func asmSafeName(name string) bool {
	if name == "" {
		return false
	}
	if strings.HasPrefix(name, "#") || strings.HasPrefix(name, ";") {
		return false
	}
	for _, r := range name {
		if unicode.IsSpace(r) || !unicode.IsPrint(r) {
			return false
		}
	}
	return true
}
