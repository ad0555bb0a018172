package isa_test

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode"

	"plim/internal/cost"
	"plim/internal/isa"
)

// FuzzCodecRoundTrip feeds arbitrary bytes to the binary decoder, as a
// stream (ReadBinary) and as a slice (DecodeBinary); both must agree. Any
// input they accept is the program's one encoding: AppendBinary and the
// constructor, given the program's parts, reproduce it byte for byte. The
// facts the decoder's scan kept must equal what iterating the
// instructions gives, and a program whose name is assembly-safe survives
// an assembly round trip.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, p := range isa.GoldenPrograms() {
		f.Add(p.AppendBinary(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := isa.ReadBinary(bytes.NewReader(data))
		ps, errs := isa.DecodeBinary(data)
		if (err == nil) != (errs == nil) {
			t.Fatalf("ReadBinary (%v) and DecodeBinary (%v) disagree", err, errs)
		}
		if err != nil {
			return // rejected inputs are fine; acceptance is what's checked
		}
		if !bytes.Equal(p.Binary(), data) || !bytes.Equal(ps.Binary(), data) {
			t.Fatal("a decoded program's encoding is not its input")
		}
		if enc := p.AppendBinary(nil); !bytes.Equal(enc, data) || len(enc) != cap(enc) {
			t.Fatal("AppendBinary does not reproduce the encoding exactly sized")
		}
		q, err := isa.NewProgram(p.Parts())
		if err != nil {
			t.Fatalf("the constructor rejected a decoded program: %v", err)
		}
		if !bytes.Equal(q.Binary(), data) {
			t.Fatal("the constructor re-encodes a decoded program differently")
		}
		checkFacts(t, p)
		checkFacts(t, q)
		// The assembly format stores the name as one whitespace-delimited
		// token; only round-trip through it when the name survives that.
		if asmSafeName(p.Name()) {
			var asm bytes.Buffer
			if err := p.WriteAsm(&asm); err != nil {
				t.Fatalf("asm encode: %v", err)
			}
			p3, err := isa.ReadAsm(bytes.NewReader(asm.Bytes()))
			if err != nil {
				t.Fatalf("asm round trip rejected %q: %v", asm.String(), err)
			}
			if !bytes.Equal(p3.Binary(), data) {
				t.Fatalf("asm round trip changed the program:\n%+v\nvs\n%+v", p.Parts(), p3.Parts())
			}
		}
	})
}

// FuzzReadAsm feeds arbitrary text to the assembly reader. It must return
// an error or a program that WriteAsm and ReadAsm give back unchanged, and
// whose encoding decodes to a program with equal facts.
func FuzzReadAsm(f *testing.F) {
	for _, p := range isa.GoldenPrograms() {
		var asm bytes.Buffer
		if err := p.WriteAsm(&asm); err != nil {
			f.Fatal(err)
		}
		f.Add(asm.String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := isa.ReadAsm(strings.NewReader(src))
		if err != nil {
			return
		}
		var asm bytes.Buffer
		if err := p.WriteAsm(&asm); err != nil {
			t.Fatal(err)
		}
		q, err := isa.ReadAsm(&asm)
		if err != nil {
			t.Fatalf("ReadAsm rejected WriteAsm's output %q: %v", asm.String(), err)
		}
		if q.Name() != p.Name() || !reflect.DeepEqual(q.Parts(), p.Parts()) || !bytes.Equal(q.Binary(), p.Binary()) {
			t.Fatalf("asm round trip changed the program:\n%+v\nvs\n%+v", p.Parts(), q.Parts())
		}
		r, err := isa.DecodeBinary(p.AppendBinary(nil))
		if err != nil {
			t.Fatalf("the encoding of an assembled program does not decode: %v", err)
		}
		if r.NumInstructions() != p.NumInstructions() || r.NumCells() != p.NumCells() ||
			r.NumPIs() != p.NumPIs() || r.NumPOs() != p.NumPOs() ||
			r.ClassCounts() != p.ClassCounts() || r.Fingerprint() != p.Fingerprint() ||
			!slices.Equal(r.StaticWriteCounts(), p.StaticWriteCounts()) ||
			!slices.Equal(cellCounts(r), cellCounts(p)) {
			t.Fatal("binary round trip changed the program's facts")
		}
		checkFacts(t, p)
	})
}

// cellCounts collects a program's per-cell counts by class.
func cellCounts(p *isa.Program) []isa.ClassCounts {
	var out []isa.ClassCounts
	for _, n := range p.CellClassCounts() {
		out = append(out, n)
	}
	return out
}

// wearModels are the models checkFacts prices under: the default, whose
// wear is 1 per write, and one whose per-class wear differs, so the
// hottest cell depends on which classes write it.
var wearModels = func() []*cost.Model {
	uneven := cost.Default()
	uneven.Name = "wear-1-2-3"
	uneven.Reset.Wear, uneven.Set.Wear, uneven.RM3.Wear = 1, 2, 3
	return []*cost.Model{cost.Default(), uneven}
}()

// checkFacts compares the facts p keeps — #I, #R, the write counts per
// cell and per class, the fingerprint and its price — against one walk
// over its instructions.
func checkFacts(t *testing.T, p *isa.Program) {
	t.Helper()
	parts := p.Parts()
	if p.NumInstructions() != len(parts.Insts) || p.NumCells() != parts.NumCells ||
		p.NumPIs() != len(parts.PICells) || p.NumPOs() != len(parts.POs) || p.Name() != parts.Name {
		t.Fatal("#I, #R or the section counts differ from the parts")
	}
	var ops isa.ClassCounts
	cells := make([]isa.ClassCounts, parts.NumCells)
	wear := make([][]uint64, len(wearModels))
	for k := range wear {
		wear[k] = make([]uint64, parts.NumCells)
	}
	for _, ins := range p.Insts() {
		ops[ins.Class()]++
		cells[ins.Z][ins.Class()]++
		for k, m := range wearModels {
			wear[k][ins.Z] += m.Of(ins.Class()).Wear
		}
	}
	if p.ClassCounts() != ops {
		t.Fatalf("kept class counts %v, walk %v", p.ClassCounts(), ops)
	}
	if !slices.Equal(cellCounts(p), cells) {
		t.Fatal("kept per-cell class counts differ from the walk")
	}
	writes := p.StaticWriteCounts()
	for c, n := range cells {
		if writes[c] != n.Total() {
			t.Fatalf("cell %d: kept %d writes, walk %d", c, writes[c], n.Total())
		}
	}
	if len(writes) != len(cells) {
		t.Fatalf("%d write counts for %d cells", len(writes), len(cells))
	}
	if got, want := p.Fingerprint(), fingerprint(parts); got != want {
		t.Fatalf("fingerprint %016x, walk %016x", got, want)
	}
	for k, m := range wearModels {
		var maxWear uint64
		for _, w := range wear[k] {
			maxWear = max(maxWear, w)
		}
		if got, want := m.Program(p), m.FromCounts(ops, maxWear); got != want {
			t.Fatalf("%s: Model.Program %+v, walk %+v", m.Name, got, want)
		}
	}
}

// fingerprint is the FNV-1a content hash Program.Fingerprint documents,
// over the program's parts.
func fingerprint(p isa.Parts) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for range 8 {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	operand := func(o isa.Operand) uint64 { return uint64(o.Kind)<<32 | uint64(o.Addr) }
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
