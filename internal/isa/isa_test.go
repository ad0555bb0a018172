package isa

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"plim/internal/rram"
)

// andnProgram hand-codes z = a ∧ ¬b, the "ideal" single-complement case the
// paper's cost model rewards — two instructions, no extra device:
//
//	RM3 #0,#1 -> @2   ; z ← 0
//	RM3 @0,@1 -> @2   ; z ← ⟨a b̄ 0⟩ = a ∧ ¬b
func andnProgram() *Program { return build(andnParts()) }

func andnParts() Parts {
	return Parts{
		Name:     "andn",
		NumCells: 3,
		PICells:  []uint32{0, 1},
		POs:      []PORef{{Addr: 2}},
		Insts: []Instruction{
			{A: Zero, B: One, Z: 2},
			{A: Cell(0), B: Cell(1), Z: 2},
		},
	}
}

// andProgram hand-codes z = a ∧ b = ⟨a b 0⟩. The node has zero complemented
// fanins, so — exactly as the paper's §III cost model says — it needs two
// extra instructions and one extra device to materialize an inverted copy
// of b that the RM3 B operand can re-invert:
//
//	RM3 #1,#0 -> @2   ; t ← 1
//	RM3 #0,@1 -> @2   ; t ← ⟨0 b̄ 1⟩ = b̄
//	RM3 #0,#1 -> @3   ; z ← 0
//	RM3 @0,@2 -> @3   ; z ← ⟨a ¬b̄ 0⟩ = a ∧ b
func andProgram() *Program { return build(andParts()) }

func andParts() Parts {
	return Parts{
		Name:     "and",
		NumCells: 4,
		PICells:  []uint32{0, 1},
		POs:      []PORef{{Addr: 3}},
		Insts: []Instruction{
			{A: One, B: Zero, Z: 2},
			{A: Zero, B: Cell(1), Z: 2},
			{A: Zero, B: One, Z: 3},
			{A: Cell(0), B: Cell(2), Z: 3},
		},
	}
}

// build is NewProgram for fixtures that must be valid.
func build(parts Parts) *Program {
	p, err := NewProgram(parts)
	if err != nil {
		panic(err)
	}
	return p
}

func TestHandCodedAndNot(t *testing.T) {
	p := andnProgram()
	for row := 0; row < 4; row++ {
		a := row&1 == 1
		b := row>>1&1 == 1
		out, _, err := Execute(p, []bool{a, b})
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != (a && !b) {
			t.Errorf("ANDN(%v,%v) = %v", a, b, out[0])
		}
	}
}

func TestHandCodedAnd(t *testing.T) {
	p := andProgram()
	for row := 0; row < 4; row++ {
		a := row&1 == 1
		b := row>>1&1 == 1
		out, _, err := Execute(p, []bool{a, b})
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != (a && b) {
			t.Errorf("AND(%v,%v) = %v", a, b, out[0])
		}
	}
}

func TestPresetCopyInvertIdioms(t *testing.T) {
	// Verify the four RM3 idioms documented in the package comment.
	x := rram.NewLinear(2)
	c := NewController(x)
	x.Preload(0, true) // source value x = 1

	must := func(ins Instruction) {
		t.Helper()
		if err := c.Step(ins); err != nil {
			t.Fatal(err)
		}
	}
	must(Instruction{A: Zero, B: One, Z: 1}) // preset 0
	if x.Read(1) != false {
		t.Fatal("preset-0 failed")
	}
	must(Instruction{A: Cell(0), B: Zero, Z: 1}) // copy x
	if x.Read(1) != true {
		t.Fatal("copy failed")
	}
	must(Instruction{A: One, B: Zero, Z: 1}) // preset 1
	if x.Read(1) != true {
		t.Fatal("preset-1 failed")
	}
	must(Instruction{A: Zero, B: Cell(0), Z: 1}) // invert x
	if x.Read(1) != false {
		t.Fatal("invert failed")
	}
}

func TestStaticWriteCountsMatchInterpreter(t *testing.T) {
	p := andProgram()
	static := p.StaticWriteCounts()
	_, x, err := Execute(p, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	measured := x.WriteCounts(int(p.NumCells()))
	for i := range static {
		if static[i] != measured[i] {
			t.Fatalf("cell %d: static %d, measured %d", i, static[i], measured[i])
		}
	}
}

// TestFactsComputedOnce: a program's counts are computed with the program,
// and its fingerprint once, by whichever of any number of concurrent
// readers asks first; every reader sees the same values.
func TestFactsComputedOnce(t *testing.T) {
	var computed atomic.Int64
	fingerprintHook = func() { computed.Add(1) }
	defer func() { fingerprintHook = nil }()
	p := wideProgram()
	const readers = 16
	fps := make([]uint64, readers)
	writes := make([][]uint64, readers)
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fps[i], writes[i] = p.Fingerprint(), p.StaticWriteCounts()
		}()
	}
	wg.Wait()
	if n := computed.Load(); n != 1 {
		t.Fatalf("fingerprint computed %d times", n)
	}
	for i := range readers {
		if fps[i] != fps[0] || !reflect.DeepEqual(writes[i], writes[0]) {
			t.Fatalf("reader %d saw different facts", i)
		}
	}
}

func TestNegatedPO(t *testing.T) {
	parts := andnParts()
	parts.POs[0].Neg = true
	p := build(parts)
	out, _, err := Execute(p, []bool{true, false}) // a∧¬b = 1, negated = 0
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != false {
		t.Fatal("negated PO not applied")
	}
}

func TestNewProgramRejectsBadPrograms(t *testing.T) {
	cases := []Parts{
		{NumCells: 1, PICells: []uint32{5}},                                                // PI out of range
		{NumCells: 2, PICells: []uint32{0, 0}},                                             // duplicate PI
		{NumCells: 1, POs: []PORef{{Addr: 3}}},                                             // PO out of range
		{NumCells: 1, Insts: []Instruction{{A: Zero, B: Zero, Z: 9}}},                      // Z out of range
		{NumCells: 1, Insts: []Instruction{{A: Cell(7), B: Zero, Z: 0}}},                   // operand range
		{NumCells: 1, Insts: []Instruction{{A: Operand{Kind: 3}, B: Zero, Z: 0}}},          // operand kind
		{NumCells: 5, PICells: []uint32{0}, Insts: []Instruction{{A: One, B: Zero, Z: 1}}}, // unreferenced cells
		{NumCells: 1 << 24}, // a cell count alone
	}
	for i, parts := range cases {
		if p, err := NewProgram(parts); err == nil {
			t.Errorf("case %d: NewProgram accepted a bad program: %+v", i, p.Parts())
		}
	}
}

func TestLoadInputsLengthMismatch(t *testing.T) {
	p := andProgram()
	c := NewController(rram.NewLinear(3))
	if err := c.LoadInputs(p, []bool{true}); err == nil {
		t.Fatal("want length mismatch error")
	}
}

func TestRunStopsOnWornDevice(t *testing.T) {
	p := andProgram()
	x := rram.NewLinear(4, rram.WithEndurance(1))
	c := NewController(x)
	if err := c.LoadInputs(p, []bool{true, true}); err != nil {
		t.Fatal(err)
	}
	err := c.Run(p)
	if err == nil {
		t.Fatal("want wear-out failure (2 writes to cell 2 with endurance 1)")
	}
	if !strings.Contains(err.Error(), "inst 1") {
		t.Fatalf("error should name the failing instruction: %v", err)
	}
	if c.PC != 1 {
		t.Fatalf("PC = %d, want 1 retired instruction", c.PC)
	}
}

func TestAsmRoundTrip(t *testing.T) {
	parts := andParts()
	parts.POs = append(parts.POs, PORef{Addr: 0, Neg: true})
	p := build(parts)
	var buf bytes.Buffer
	if err := p.WriteAsm(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAsm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertProgramsEqual(t, p, got)
}

func TestAsmReadErrors(t *testing.T) {
	cases := []string{
		"RM3 #0 -> @1\n.end",               // one operand
		"RM3 #0, #1 @1\n.end",              // missing arrow
		".cells\n.end",                     // missing count
		".plim x\n.frobnicate\n.end",       // unknown directive
		".plim x\n.cells 1",                // missing .end
		".cells 1\nRM3 #0,#1 -> @0!\n.end", // negated destination
		".cells 1\nRM3 %3,#1 -> @0\n.end",  // bad operand
	}
	for _, src := range cases {
		if _, err := ReadAsm(strings.NewReader(src)); err == nil {
			t.Errorf("ReadAsm(%q) succeeded, want error", src)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	parts := andParts()
	parts.POs = append(parts.POs, PORef{Addr: 1, Neg: true})
	p := build(parts)
	var buf bytes.Buffer
	if err := p.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertProgramsEqual(t, p, got)
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOPE")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadBinary(strings.NewReader("PLIM\x07")); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, err := ReadBinary(strings.NewReader("PLI")); err == nil {
		t.Fatal("truncated accepted")
	}
}

func assertProgramsEqual(t *testing.T, want, got *Program) {
	t.Helper()
	if !reflect.DeepEqual(got.Parts(), want.Parts()) {
		t.Fatalf("programs differ:\n%+v\nvs\n%+v", got.Parts(), want.Parts())
	}
	if !bytes.Equal(got.Binary(), want.Binary()) {
		t.Fatal("equal programs with different encodings")
	}
}

// Property: binary round-trip preserves arbitrary generated programs.
func TestBinaryRoundTripQuick(t *testing.T) {
	f := func(raw []byte) bool {
		// Derive a syntactically valid program from the fuzz bytes, with
		// no more cells than its instructions can reference.
		p := Parts{Name: "q", NumCells: uint32(min(16, 3*len(raw)))}
		for i, b := range raw {
			ins := Instruction{
				A: Operand{Kind: OperandKind(b % 3)},
				B: Operand{Kind: OperandKind(b / 3 % 3)},
				Z: uint32(b) % p.NumCells,
			}
			if ins.A.Kind == OpCell {
				ins.A.Addr = uint32(i) % p.NumCells
			}
			if ins.B.Kind == OpCell {
				ins.B.Addr = uint32(b>>4) % p.NumCells
			}
			p.Insts = append(p.Insts, ins)
		}
		var buf bytes.Buffer
		if err := build(p).WriteBinary(&buf); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Parts(), p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestClassify pins the cost class of each operand form: only the two
// presets are destination-independent.
func TestClassify(t *testing.T) {
	cases := []struct {
		ins  Instruction
		want Class
	}{
		{Instruction{A: Zero, B: One, Z: 0}, ClassReset},
		{Instruction{A: One, B: Zero, Z: 0}, ClassSet},
		{Instruction{A: Cell(1), B: Zero, Z: 0}, ClassRM3}, // copy
		{Instruction{A: Zero, B: Cell(1), Z: 0}, ClassRM3}, // invert
		{Instruction{A: Cell(1), B: Cell(2), Z: 0}, ClassRM3},
		{Instruction{A: Zero, B: Zero, Z: 0}, ClassRM3}, // ⟨0 1 Z⟩ = Z: not a preset
		{Instruction{A: One, B: One, Z: 0}, ClassRM3},   // ⟨1 0 Z⟩ = Z: not a preset
	}
	for _, c := range cases {
		if got := c.ins.Class(); got != c.want {
			t.Errorf("%s.Class() = %s, want %s", c.ins, got, c.want)
		}
	}
}

func TestOperandString(t *testing.T) {
	if Zero.String() != "#0" || One.String() != "#1" || Cell(5).String() != "@5" {
		t.Fatal("operand rendering broken")
	}
	ins := Instruction{A: Cell(1), B: One, Z: 9}
	if ins.String() != "RM3 @1, #1 -> @9" {
		t.Fatalf("instruction rendering: %q", ins.String())
	}
}

// TestReadAsmNeverPanicsOnMutatedInput mirrors the MIG parser fuzz check
// for the assembly reader: mutated programs either parse into a program
// whose encoding decodes again or fail cleanly.
func TestReadAsmNeverPanicsOnMutatedInput(t *testing.T) {
	var buf bytes.Buffer
	if err := andProgram().WriteAsm(&buf); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte(nil), orig...)
		for k := 0; k <= rng.Intn(3); k++ {
			mut[rng.Intn(len(mut))] = byte(rng.Intn(128))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ReadAsm panicked on %q: %v", mut, r)
				}
			}()
			got, err := ReadAsm(bytes.NewReader(mut))
			if err != nil {
				return
			}
			if _, derr := DecodeBinary(got.AppendBinary(nil)); derr != nil {
				t.Fatalf("ReadAsm accepted an invalid program: %v", derr)
			}
		}()
	}
}
