package cost

import (
	"strings"
	"testing"

	"plim/internal/isa"
	"plim/internal/stats"
)

// TestPriceMatchesStaticWriteCounts: under the default model (wear 1 per
// op) the priced wear must equal the program's static write counts — the
// parity the whole refactor preserves.
func TestPriceMatchesStaticWriteCounts(t *testing.T) {
	p := program(t, isa.Parts{
		Name:     "t",
		NumCells: 3,
		Insts: []isa.Instruction{
			{A: isa.Zero, B: isa.One, Z: 1},        // reset
			{A: isa.One, B: isa.Zero, Z: 2},        // set
			{A: isa.Cell(0), B: isa.Cell(2), Z: 1}, // rm3
			{A: isa.Cell(1), B: isa.Zero, Z: 2},    // rm3 (copy form)
		},
		PICells: []uint32{0},
		POs:     []isa.PORef{{Addr: 2}},
	})
	m := Default()
	c := m.Program(p)
	if c.Model != "default" || c.Resets != 1 || c.Sets != 1 || c.RM3s != 2 || c.Ops != 4 {
		t.Fatalf("counts: %+v", c)
	}
	wantEnergy := 1*m.Reset.EnergyPJ + 1*m.Set.EnergyPJ + 2*m.RM3.EnergyPJ
	if c.EnergyPJ != wantEnergy {
		t.Fatalf("energy %v, want %v", c.EnergyPJ, wantEnergy)
	}
	if want := uint64(1 + 1 + 2*3); c.LatencyCycles != want {
		t.Fatalf("latency %d, want %d", c.LatencyCycles, want)
	}
	counts := p.StaticWriteCounts()
	var maxW uint64
	var total uint64
	for _, w := range counts {
		total += w
		if w > maxW {
			maxW = w
		}
	}
	if c.TotalWear != total || c.MaxCellWear != maxW {
		t.Fatalf("wear total %d max %d, static total %d max %d", c.TotalWear, c.MaxCellWear, total, maxW)
	}
	if want := uint64(DefaultEndurance) / maxW; c.LifetimeRuns != want {
		t.Fatalf("lifetime %d, want %d", c.LifetimeRuns, want)
	}
}

// TestLifetimeConvention pins the shared infinite-lifetime convention: no
// wear, or no endurance budget, means the device never dies.
func TestLifetimeConvention(t *testing.T) {
	m := Default()
	empty := m.Program(program(t, isa.Parts{NumCells: 4, PICells: []uint32{0, 1, 2, 3}}))
	if empty.LifetimeRuns != stats.MaxLifetime || !empty.Unlimited() {
		t.Fatalf("zero-write program lifetime = %d, want stats.MaxLifetime", empty.LifetimeRuns)
	}
	budgetless := *Default()
	budgetless.EnduranceWrites = 0
	c := budgetless.Program(program(t, isa.Parts{NumCells: 1, Insts: []isa.Instruction{{A: isa.Zero, B: isa.One, Z: 0}}}))
	if !c.Unlimited() {
		t.Fatalf("budgetless model lifetime = %d, want unlimited", c.LifetimeRuns)
	}
}

// TestScaleParity: scaling a per-run cost over n lanes equals pricing the
// batch from scratch — including the float energy total — while the
// lifetime stays per-run.
func TestScaleParity(t *testing.T) {
	m := Default()
	insts := []isa.Instruction{
		{A: isa.Zero, B: isa.One, Z: 0},
		{A: isa.One, B: isa.Zero, Z: 1},
		{A: isa.Cell(0), B: isa.Cell(1), Z: 0},
	}
	per := m.Program(program(t, isa.Parts{NumCells: 2, Insts: insts}))
	const lanes = 64
	got := m.Scale(per, lanes)
	want := m.FromCounts(isa.ClassCounts{per.Resets * lanes, per.Sets * lanes, per.RM3s * lanes}, per.MaxCellWear*lanes)
	want.LifetimeRuns = per.LifetimeRuns
	if got != want {
		t.Fatalf("scaled cost %+v, want %+v", got, want)
	}
	if got.LifetimeRuns != per.LifetimeRuns {
		t.Fatalf("scaling changed the per-run lifetime: %d vs %d", got.LifetimeRuns, per.LifetimeRuns)
	}
	if got.EnergyPJ != float64(per.Resets*lanes)*m.Reset.EnergyPJ+
		float64(per.Sets*lanes)*m.Set.EnergyPJ+
		float64(per.RM3s*lanes)*m.RM3.EnergyPJ {
		t.Fatal("scaled energy not derived through the canonical expression")
	}
}

// TestPrefixPricesAWalk: Prefix walks the first n instructions, so over
// the whole program it equals Program, which prices from the program's
// kept counts, also when the per-class wear differs; the empty prefix
// costs nothing.
func TestPrefixPricesAWalk(t *testing.T) {
	p := program(t, isa.Parts{NumCells: 3, PICells: []uint32{0}, Insts: []isa.Instruction{
		{A: isa.Zero, B: isa.One, Z: 1},
		{A: isa.Cell(0), B: isa.Zero, Z: 1},
		{A: isa.One, B: isa.Zero, Z: 2},
		{A: isa.One, B: isa.Zero, Z: 2},
		{A: isa.Zero, B: isa.One, Z: 2},
	}})
	uneven := Default()
	uneven.Reset.Wear, uneven.Set.Wear, uneven.RM3.Wear = 1, 2, 3
	for _, m := range []*Model{Default(), uneven} {
		if got, want := m.Prefix(p, p.NumInstructions()), m.Program(p); got != want {
			t.Errorf("%s: whole-program prefix %+v, Program %+v", m.Name, got, want)
		}
	}
	// Cell 1 wears 1+3 and cell 2 wears 2+2+1 under the uneven model.
	if got := uneven.Program(p).MaxCellWear; got != 5 {
		t.Errorf("uneven hottest-cell wear %d, want 5", got)
	}
	if c := uneven.Prefix(p, 2); c.Ops != 2 || c.MaxCellWear != 4 {
		t.Errorf("two-instruction prefix %+v", c)
	}
	if c := uneven.Prefix(p, 0); c.Ops != 0 || !c.Unlimited() {
		t.Errorf("empty prefix %+v", c)
	}
}

// program builds parts into a program.
func program(t *testing.T, parts isa.Parts) *isa.Program {
	t.Helper()
	p, err := isa.NewProgram(parts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadValidates(t *testing.T) {
	good := `{"name":"sandbox","reset":{"energy_pj":1,"latency_cycles":1,"wear":1},
	          "set":{"energy_pj":1,"latency_cycles":1,"wear":1},
	          "rm3":{"energy_pj":2,"latency_cycles":2,"wear":1},
	          "endurance_writes":1000}`
	m, err := Load(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "sandbox" || m.EnduranceWrites != 1000 {
		t.Fatalf("loaded %+v", m)
	}
	for _, bad := range []string{
		`{"reset":{"latency_cycles":1}}`,                           // no name
		`{"name":"x","reset":{"energy_pj":-1,"latency_cycles":1}}`, // negative energy
		`{"name":"x","reset":{"energy_pj":1,"latency_cycles":0}}`,  // zero latency
		`{"name":"x","bogus":1}`,                                   // unknown field
	} {
		if _, err := Load(strings.NewReader(bad)); err == nil {
			t.Errorf("Load(%s) accepted an invalid model", bad)
		}
	}
}

func TestValidateDefault(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}
