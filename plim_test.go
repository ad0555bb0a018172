package plim

import (
	"context"
	"testing"
)

// TestQuickstartFlow exercises the README's quickstart path end to end
// through the public facade only.
func TestQuickstartFlow(t *testing.T) {
	// Build a tiny function: f = maj(a, ¬b, c), g = a ∧ b.
	m := NewMIG("quickstart")
	a := m.AddPI("a")
	b := m.AddPI("b")
	c := m.AddPI("c")
	m.AddPO(m.Maj(a, b.Not(), c), "f")
	m.AddPO(m.And(a, b), "g")

	rep, err := NewEngine().Run(context.Background(), m, Full)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumInstructions() == 0 || rep.NumRRAMs() < 3 {
		t.Fatalf("implausible report: #I=%d #R=%d", rep.NumInstructions(), rep.NumRRAMs())
	}

	// Execute on the simulated crossbar and check against the truth table.
	for row := 0; row < 8; row++ {
		in := []bool{row&1 == 1, row>>1&1 == 1, row>>2&1 == 1}
		out, xbar, err := Execute(rep.Result.Program, in)
		if err != nil {
			t.Fatal(err)
		}
		av, bv, cv := btoi(in[0]), btoi(in[1]), btoi(in[2])
		wantF := av+(1-bv)+cv >= 2
		wantG := av == 1 && bv == 1
		if out[0] != wantF || out[1] != wantG {
			t.Fatalf("row %d: got %v/%v want %v/%v", row, out[0], out[1], wantF, wantG)
		}
		if _, writes, _ := xbar.Totals(); writes != uint64(rep.NumInstructions()) {
			t.Fatalf("crossbar writes %d != #I %d", writes, rep.NumInstructions())
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestBuilderFacade(t *testing.T) {
	b := NewBuilder("inc")
	x := b.Input("x", 8)
	one := b.Const(1, 8)
	sum, _ := b.Add(x, one, Const0)
	b.Output("y", sum)

	rep, err := NewEngine(WithEffort(2)).Run(context.Background(), b.M, MinWrite)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Execute(rep.Result.Program, boolsOf(0x7F, 8))
	if err != nil {
		t.Fatal(err)
	}
	if got := intOf(out); got != 0x80 {
		t.Fatalf("0x7F+1 = %#x", got)
	}
}

func boolsOf(v uint64, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = v>>uint(i)&1 == 1
	}
	return out
}

func intOf(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}

func TestBenchmarkFacade(t *testing.T) {
	names := Benchmarks()
	if len(names) != 18 {
		t.Fatalf("18 benchmarks expected, got %d", len(names))
	}
	m, err := BenchmarkScaled("adder", 16)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPIs() == 0 {
		t.Fatal("empty benchmark")
	}
	if _, err := Benchmark("nonesuch"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestConfigsFacade(t *testing.T) {
	if len(TableIConfigs()) != 5 {
		t.Fatal("Table I has five configurations")
	}
	if FullCap(42).MaxWrites != 42 {
		t.Fatal("FullCap broken")
	}
}

func TestEnduranceFailureFacade(t *testing.T) {
	m := NewMIG("hot")
	a := m.AddPI("a")
	b := m.AddPI("b")
	x := m.And(a, b)
	for i := 0; i < 6; i++ {
		x = m.And(x, a.NotIf(i%2 == 0))
	}
	m.AddPO(x, "f")
	rep, err := NewEngine(WithEffort(0)).Run(context.Background(), m, Naive)
	if err != nil {
		t.Fatal(err)
	}
	// With endurance 1 the program must hit a worn-out device.
	if _, _, err := ExecuteWithEndurance(rep.Result.Program, []bool{true, true}, 1); err == nil {
		t.Fatal("expected a wear-out failure at endurance 1")
	}
	// With generous endurance it runs fine and the lifetime accessor
	// agrees with the write counts.
	if _, _, err := ExecuteWithEndurance(rep.Result.Program, []bool{true, true}, 1000); err != nil {
		t.Fatal(err)
	}
	sum := SummarizeWrites(rep.Result.WriteCounts)
	if lt := Lifetime(rep.Result.WriteCounts, 1000); lt != 1000/sum.Max {
		t.Fatalf("lifetime %d, want %d", lt, 1000/sum.Max)
	}
}

func TestSuiteFacade(t *testing.T) {
	eng := NewEngine(WithEffort(1), WithShrink(4))
	sr, err := eng.RunSuite(context.Background(), TableIConfigs(), "ctrl", "int2float")
	if err != nil {
		t.Fatal(err)
	}
	t1, err := TableI(sr)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Benchmarks) != 2 {
		t.Fatal("Table I rows wrong")
	}
	if _, err := TableII(sr); err != nil {
		t.Fatal(err)
	}
	capped, err := eng.RunSuite(context.Background(), []Config{FullCap(10), FullCap(20)}, "ctrl")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TableIII(capped); err != nil {
		t.Fatal(err)
	}
}
