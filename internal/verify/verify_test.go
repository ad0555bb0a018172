package verify

import (
	"strings"
	"testing"

	"plim/internal/isa"
)

// prog builds a minimal valid program: cells 0..1 are PIs, the rest is up
// to the caller.
func prog(cells uint32, insts []isa.Instruction, pos ...isa.PORef) *isa.Program {
	p, err := isa.NewProgram(isa.Parts{
		Name:     "t",
		NumCells: cells,
		PICells:  []uint32{0, 1},
		POs:      pos,
		Insts:    insts,
	})
	if err != nil {
		panic(err)
	}
	return p
}

func hasCheck(vs []Violation, check string) bool {
	for _, v := range vs {
		if v.Check == check {
			return true
		}
	}
	return false
}

func TestCleanProgram(t *testing.T) {
	// Preset cell 2 to 0, copy PI 0 into it, majority with PI 1, output.
	p := prog(3, []isa.Instruction{
		{A: isa.Zero, B: isa.One, Z: 2},     // preset 0
		{A: isa.Cell(0), B: isa.Zero, Z: 2}, // copy
		{A: isa.Cell(1), B: isa.Zero, Z: 2}, // majority over old value
	}, isa.PORef{Addr: 2})
	r := Program(p, Options{})
	if !r.Clean() {
		t.Fatalf("expected clean, got violations %v dead %v", r.Violations, r.DeadWrites)
	}
	if r.TotalWrites != 3 || r.MaxCellWrites != 3 || r.CellsWritten != 1 {
		t.Fatalf("wear aggregates wrong: %+v", r)
	}
	if got := r.WriteCounts[2]; got != 3 {
		t.Fatalf("cell 2 static count = %d, want 3", got)
	}
}

func TestDefBeforeUseOperand(t *testing.T) {
	p := prog(4, []isa.Instruction{
		{A: isa.Zero, B: isa.One, Z: 3},
		{A: isa.Cell(2), B: isa.Zero, Z: 3}, // cell 2 never written, not a PI
	}, isa.PORef{Addr: 3})
	r := Program(p, Options{})
	if !hasCheck(r.Violations, CheckDefUse) {
		t.Fatalf("undefined operand read not caught: %+v", r.Violations)
	}
	if r.Err() == nil || !strings.Contains(r.Err().Error(), CheckDefUse) {
		t.Fatalf("Err() should name the check: %v", r.Err())
	}
}

func TestDefBeforeUseDestination(t *testing.T) {
	// First touch of cell 2 is a copy, not a preset: RM3 x,#0→Z requires
	// Z = 0, i.e. it reads the destination's prior (undefined) value.
	p := prog(3, []isa.Instruction{
		{A: isa.Cell(0), B: isa.Zero, Z: 2},
	}, isa.PORef{Addr: 2})
	r := Program(p, Options{})
	if !hasCheck(r.Violations, CheckDefUse) {
		t.Fatalf("undefined destination read not caught: %+v", r.Violations)
	}
}

func TestPresetDefinesDestination(t *testing.T) {
	// Both preset polarities define Z without reading it.
	for _, ins := range []isa.Instruction{
		{A: isa.Zero, B: isa.One, Z: 2},
		{A: isa.One, B: isa.Zero, Z: 2},
	} {
		r := Program(prog(3, []isa.Instruction{ins}, isa.PORef{Addr: 2}), Options{})
		if !r.OK() {
			t.Fatalf("%v should define its destination: %+v", ins, r.Violations)
		}
	}
	// Same-constant pairs are identities, not presets: they read Z.
	for _, ins := range []isa.Instruction{
		{A: isa.Zero, B: isa.Zero, Z: 2},
		{A: isa.One, B: isa.One, Z: 2},
	} {
		r := Program(prog(3, []isa.Instruction{ins}, isa.PORef{Addr: 2}), Options{})
		if !hasCheck(r.Violations, CheckDefUse) {
			t.Fatalf("%v reads its destination and should be flagged: %+v", ins, r.Violations)
		}
	}
}

func TestDeadWriteOverwritten(t *testing.T) {
	// The copy into cell 2 is erased by a preset before anything reads it.
	p := prog(3, []isa.Instruction{
		{A: isa.Zero, B: isa.One, Z: 2},
		{A: isa.Cell(0), B: isa.Zero, Z: 2}, // dead: next event is a preset
		{A: isa.Zero, B: isa.One, Z: 2},
		{A: isa.Cell(1), B: isa.Zero, Z: 2},
	}, isa.PORef{Addr: 2})
	r := Program(p, Options{})
	if !r.OK() {
		t.Fatalf("unexpected hard violations: %+v", r.Violations)
	}
	if len(r.DeadWrites) != 1 || r.DeadWrites[0].Inst != 1 {
		t.Fatalf("want dead write at inst 1, got %+v", r.DeadWrites)
	}
}

func TestDeadWriteNeverRead(t *testing.T) {
	// Cell 2 is computed but is neither read nor an output.
	p := prog(4, []isa.Instruction{
		{A: isa.Zero, B: isa.One, Z: 2},
		{A: isa.One, B: isa.Zero, Z: 3},
	}, isa.PORef{Addr: 3})
	r := Program(p, Options{})
	if len(r.DeadWrites) != 1 || r.DeadWrites[0].Cell != 2 {
		t.Fatalf("want never-read dead write on cell 2, got %+v", r.DeadWrites)
	}
	if r.Clean() {
		t.Fatal("Clean() must be false with dead writes")
	}
	if !r.OK() {
		t.Fatal("dead writes are warnings, not hard violations")
	}
}

func TestNonPresetWriteConsumesPending(t *testing.T) {
	// A copy onto a pending write reads the old value first — not dead.
	p := prog(3, []isa.Instruction{
		{A: isa.Zero, B: isa.One, Z: 2},
		{A: isa.Cell(0), B: isa.Cell(1), Z: 2}, // majority reads inst 0's preset
	}, isa.PORef{Addr: 2})
	r := Program(p, Options{})
	if len(r.DeadWrites) != 0 {
		t.Fatalf("majority write consumes the pending preset: %+v", r.DeadWrites)
	}
}

func TestOutputLiveness(t *testing.T) {
	p := prog(4, []isa.Instruction{
		{A: isa.Zero, B: isa.One, Z: 2},
	}, isa.PORef{Addr: 2}, isa.PORef{Addr: 3}) // PO 1 never computed
	r := Program(p, Options{})
	if !hasCheck(r.Violations, CheckLiveness) {
		t.Fatalf("missing output not caught: %+v", r.Violations)
	}
	// A PO on a PI cell is a legal passthrough.
	p2 := prog(2, nil, isa.PORef{Addr: 0})
	if r2 := Program(p2, Options{}); !r2.OK() {
		t.Fatalf("PI passthrough PO flagged: %+v", r2.Violations)
	}
}

func TestWearCap(t *testing.T) {
	insts := []isa.Instruction{
		{A: isa.Zero, B: isa.One, Z: 2},
		{A: isa.Cell(0), B: isa.Zero, Z: 2},
		{A: isa.Cell(1), B: isa.Zero, Z: 2},
	}
	p := prog(3, insts, isa.PORef{Addr: 2})
	if r := Program(p, Options{MaxWrites: 3}); !r.OK() {
		t.Fatalf("cap 3 should pass with 3 writes: %+v", r.Violations)
	}
	r := Program(p, Options{MaxWrites: 2})
	if !hasCheck(r.Violations, CheckWearCap) {
		t.Fatalf("cap 2 should fail with 3 writes: %+v", r.Violations)
	}
}

func TestCheckWriteParity(t *testing.T) {
	p := prog(3, []isa.Instruction{
		{A: isa.Zero, B: isa.One, Z: 2},
	}, isa.PORef{Addr: 2})
	r := Program(p, Options{})
	if !CheckWriteParity(r, []uint64{0, 0, 1}, "test") {
		t.Fatalf("matching counts flagged: %+v", r.Violations)
	}
	if CheckWriteParity(r, []uint64{0, 0, 2}, "test") || !hasCheck(r.Violations, CheckWriteCount) {
		t.Fatalf("diverging counts not flagged: %+v", r.Violations)
	}
	r2 := Program(p, Options{})
	if CheckWriteParity(r2, []uint64{1}, "test") || !hasCheck(r2.Violations, CheckWriteCount) {
		t.Fatalf("length mismatch not flagged: %+v", r2.Violations)
	}
}

func TestRenderSmoke(t *testing.T) {
	p := prog(3, []isa.Instruction{
		{A: isa.Zero, B: isa.One, Z: 2},
		{A: isa.Cell(0), B: isa.Zero, Z: 2},
	}, isa.PORef{Addr: 2})
	r := Program(p, Options{})
	var sb strings.Builder
	r.Render(&sb, RenderOptions{Endurance: 1e6, Verbose: true})
	out := sb.String()
	for _, want := range []string{"verify: OK", "lifetime", "dead writes: none", "cell    2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
