package compile

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"plim/internal/alloc"
	"plim/internal/isa"
	"plim/internal/mig"
)

// allOptions enumerates the interesting option combinations shared by the
// behavioural tests.
func allOptions() []Options {
	return []Options{
		{Selection: NodeOrder, Alloc: alloc.LIFO},
		{Selection: Standard, Alloc: alloc.LIFO},
		{Selection: Standard, Alloc: alloc.MinWrite},
		{Selection: Endurance, Alloc: alloc.MinWrite},
		{Selection: Endurance, Alloc: alloc.MinWrite, MaxWrites: 10},
		{Selection: Endurance, Alloc: alloc.MinWrite, MaxWrites: 4},
	}
}

// verifyCompiled checks a compiled program against the MIG on explicit
// input assignments: exhaustive for ≤ 10 PIs, 64 random assignments
// otherwise. It also cross-checks the three write-count views (compiler
// allocator, static scan, interpreter).
func verifyCompiled(t *testing.T, m *mig.MIG, res *Result) {
	t.Helper()
	prog := res.Program
	n := m.NumPIs()

	var assigns [][]bool
	if n <= 10 {
		for a := 0; a < 1<<uint(n); a++ {
			in := make([]bool, n)
			for v := 0; v < n; v++ {
				in[v] = a>>v&1 == 1
			}
			assigns = append(assigns, in)
		}
	} else {
		rng := rand.New(rand.NewSource(99))
		for a := 0; a < 64; a++ {
			in := make([]bool, n)
			for v := range in {
				in[v] = rng.Intn(2) == 1
			}
			assigns = append(assigns, in)
		}
	}

	words := make([]uint64, n)
	for _, in := range assigns {
		for v := range words {
			words[v] = 0
			if in[v] {
				words[v] = 1
			}
		}
		want := m.Eval(words)
		got, xbar, err := isa.Execute(prog, in)
		if err != nil {
			t.Fatalf("execute: %v", err)
		}
		for i := range want {
			if (want[i]&1 == 1) != got[i] {
				t.Fatalf("PO %d mismatch on input %v: got %v, want %v", i, in, got[i], want[i]&1)
			}
		}
		// Static, compiler and measured write counts must agree cell by cell.
		static := prog.StaticWriteCounts()
		measured := xbar.WriteCounts(int(prog.NumCells()))
		for cell := range static {
			if static[cell] != measured[cell] {
				t.Fatalf("cell %d: static %d writes, measured %d", cell, static[cell], measured[cell])
			}
			if static[cell] != res.WriteCounts[cell] {
				t.Fatalf("cell %d: static %d writes, compiler recorded %d", cell, static[cell], res.WriteCounts[cell])
			}
		}
	}
}

func fullAdderMIG() *mig.MIG {
	m := mig.New("fa")
	a := m.AddPI("a")
	b := m.AddPI("b")
	cin := m.AddPI("cin")
	carry := m.Maj(a, b, cin)
	sum := m.Xor(m.Xor(a, b), cin)
	m.AddPO(sum, "sum")
	m.AddPO(carry, "carry")
	return m
}

func TestCompileFullAdderAllConfigs(t *testing.T) {
	for _, opts := range allOptions() {
		opts := opts
		name := opts.Selection.String() + "/" + opts.Alloc.String()
		if opts.MaxWrites > 0 {
			name += "/capped"
		}
		t.Run(name, func(t *testing.T) {
			m := fullAdderMIG()
			res, err := Compile(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			verifyCompiled(t, m, res)
		})
	}
}

func TestCompileSingleMajority(t *testing.T) {
	m := mig.New("maj")
	x := m.AddPI("x")
	y := m.AddPI("y")
	z := m.AddPI("z")
	m.AddPO(m.Maj(x, y.Not(), z), "f")
	res, err := Compile(m, Options{Selection: Standard, Alloc: alloc.MinWrite})
	if err != nil {
		t.Fatal(err)
	}
	// Ideal node: one complemented fanin, a dying uncomplemented child for
	// the destination → exactly one instruction.
	if res.NumInstructions != 1 {
		t.Fatalf("ideal node took %d instructions, want 1", res.NumInstructions)
	}
	if res.NumRRAMs != 3 {
		t.Fatalf("ideal node used %d devices, want 3 (the PIs)", res.NumRRAMs)
	}
	verifyCompiled(t, m, res)
}

func TestCompileAndGate(t *testing.T) {
	// ⟨a b 0⟩: the constant absorbs the B-slot inversion, so AND is also a
	// single instruction when a child can be overwritten.
	m := mig.New("and")
	a := m.AddPI("a")
	b := m.AddPI("b")
	m.AddPO(m.And(a, b), "f")
	res, err := Compile(m, Options{Selection: Standard, Alloc: alloc.MinWrite})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumInstructions != 1 {
		t.Fatalf("AND took %d instructions, want 1", res.NumInstructions)
	}
	verifyCompiled(t, m, res)
}

func TestZeroComplementThreeFanoutCostsExtra(t *testing.T) {
	// ⟨a b c⟩ with no complemented edge and no constant requires an inverted
	// copy: 2 extra instructions and 1 extra device (paper §III cost model).
	m := mig.New("plain")
	a := m.AddPI("a")
	b := m.AddPI("b")
	cc := m.AddPI("c")
	m.AddPO(m.Maj(a, b, cc), "f")
	res, err := Compile(m, Options{Selection: Standard, Alloc: alloc.MinWrite})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumInstructions != 3 {
		t.Fatalf("plain majority took %d instructions, want 3", res.NumInstructions)
	}
	if res.NumRRAMs != 4 {
		t.Fatalf("plain majority used %d devices, want 4", res.NumRRAMs)
	}
	verifyCompiled(t, m, res)
}

func TestBlockedDestinationCostsExtra(t *testing.T) {
	// The Fig. 1 situation: the only dying child is unavailable because all
	// children have other fanouts, so the compiler must copy.
	m := mig.New("blocked")
	a := m.AddPI("a")
	b := m.AddPI("b")
	cc := m.AddPI("c")
	n := m.Maj(a, b.Not(), cc)
	m.AddPO(n, "f")
	m.AddPO(a, "ka")
	m.AddPO(b, "kb")
	m.AddPO(cc, "kc") // every child pinned by a PO
	res, err := Compile(m, Options{Selection: Standard, Alloc: alloc.MinWrite})
	if err != nil {
		t.Fatal(err)
	}
	// preset+copy+RM3 = 3 instructions, one fresh device beyond the 3 PIs.
	if res.NumInstructions != 3 {
		t.Fatalf("blocked node took %d instructions, want 3", res.NumInstructions)
	}
	if res.NumRRAMs != 4 {
		t.Fatalf("blocked node used %d devices, want 4", res.NumRRAMs)
	}
	verifyCompiled(t, m, res)
}

func TestComplementedPOMaterialization(t *testing.T) {
	m := mig.New("po")
	a := m.AddPI("a")
	b := m.AddPI("b")
	n := m.And(a, b)
	m.AddPO(n.Not(), "nf")
	m.AddPO(n.Not(), "nf2") // shares the materialized inversion
	m.AddPO(n, "f")

	res, err := Compile(m, Options{Selection: Standard, Alloc: alloc.MinWrite})
	if err != nil {
		t.Fatal(err)
	}
	verifyCompiled(t, m, res)
	if res.Program.Parts().POs[0].Neg || res.Program.Parts().POs[1].Neg || res.Program.Parts().POs[2].Neg {
		t.Fatalf("materialized POs must not be negated reads")
	}
	if res.Program.Parts().POs[0].Addr != res.Program.Parts().POs[1].Addr {
		t.Fatalf("equal complemented POs must share one device")
	}
}

func TestConstAndPIOutputs(t *testing.T) {
	m := mig.New("po2")
	a := m.AddPI("a")
	b := m.AddPI("b")
	m.AddPO(mig.Const0, "zero")
	m.AddPO(mig.Const1, "one")
	m.AddPO(mig.Const1, "one2") // shared
	m.AddPO(a, "pass")
	m.AddPO(a.Not(), "npass")
	m.AddPO(m.Or(a, b), "or")
	res, err := Compile(m, Options{Selection: Standard, Alloc: alloc.MinWrite})
	if err != nil {
		t.Fatal(err)
	}
	verifyCompiled(t, m, res)
	if res.Program.Parts().POs[1].Addr != res.Program.Parts().POs[2].Addr {
		t.Fatalf("constant POs must share devices")
	}
}

func TestCapNeverExceeded(t *testing.T) {
	m := buildRandomMIG("capped", 10, 150, 8, 42)
	for _, cap := range []uint64{4, 10, 20} {
		res, err := Compile(m, Options{Selection: Endurance, Alloc: alloc.MinWrite, MaxWrites: cap})
		if err != nil {
			t.Fatal(err)
		}
		for cell, w := range res.WriteCounts {
			if w > cap {
				t.Fatalf("cap %d: cell %d has %d writes", cap, cell, w)
			}
		}
		verifyCompiled(t, m, res)
	}
}

func TestCapTradeoffMonotonic(t *testing.T) {
	// Tighter caps must not reduce devices; looser caps must not increase
	// them (paper Table III trend).
	m := buildRandomMIG("trade", 12, 300, 10, 7)
	var lastR = 1 << 30
	var lastI = 1 << 30
	for _, cap := range []uint64{6, 10, 20, 50, 0} {
		res, err := Compile(m, Options{Selection: Endurance, Alloc: alloc.MinWrite, MaxWrites: cap})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRRAMs > lastR {
			t.Fatalf("cap %d: #R grew from %d to %d as cap loosened", cap, lastR, res.NumRRAMs)
		}
		if res.NumInstructions > lastI+2 { // tiny non-monotonicities can occur via destination choices
			t.Fatalf("cap %d: #I grew from %d to %d as cap loosened", cap, lastI, res.NumInstructions)
		}
		lastR, lastI = res.NumRRAMs, res.NumInstructions
	}
}

func TestRejectsTinyCaps(t *testing.T) {
	m := fullAdderMIG()
	for _, cap := range []uint64{1, 2, 3} {
		if _, err := Compile(m, Options{MaxWrites: cap}); err == nil {
			t.Fatalf("cap %d must be rejected", cap)
		}
	}
}

// TestMinWriteStrategyDoesNotChangeCosts reproduces the paper's observation
// that "the minimum write count strategy does not influence the number of
// required instructions and RRAMs".
func TestMinWriteStrategyDoesNotChangeCosts(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		m := buildRandomMIG("inv", 10, 200, 8, seed)
		lifo, err := Compile(m, Options{Selection: Standard, Alloc: alloc.LIFO})
		if err != nil {
			t.Fatal(err)
		}
		minw, err := Compile(m, Options{Selection: Standard, Alloc: alloc.MinWrite})
		if err != nil {
			t.Fatal(err)
		}
		if lifo.NumInstructions != minw.NumInstructions {
			t.Fatalf("seed %d: #I differs: lifo %d vs minwrite %d", seed, lifo.NumInstructions, minw.NumInstructions)
		}
		if lifo.NumRRAMs != minw.NumRRAMs {
			t.Fatalf("seed %d: #R differs: lifo %d vs minwrite %d", seed, lifo.NumRRAMs, minw.NumRRAMs)
		}
	}
}

func TestUnusedPIStillGetsCell(t *testing.T) {
	m := mig.New("unused")
	a := m.AddPI("a")
	_ = m.AddPI("ghost")
	m.AddPO(a, "f")
	res, err := Compile(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRRAMs < 2 {
		t.Fatalf("unused PI must still hold a device: #R = %d", res.NumRRAMs)
	}
	verifyCompiled(t, m, res)
}

func TestDuplicateChildNodes(t *testing.T) {
	// RawMaj can produce ⟨x x y⟩; the compiler must handle duplicate child
	// nodes (reads before the in-place write keep this sound).
	m := mig.New("dup")
	x := m.AddPI("x")
	y := m.AddPI("y")
	n := m.RawMaj(x, x, y) // = x, but structurally a node
	m.AddPO(n, "f")
	for _, opts := range allOptions() {
		res, err := Compile(m, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		verifyCompiled(t, m, res)
	}
}

func TestSelectionStrings(t *testing.T) {
	if NodeOrder.String() != "node-order" || Standard.String() != "standard" ||
		Endurance.String() != "endurance" || Selection(9).String() != "?" {
		t.Fatal("Selection.String broken")
	}
}

// buildRandomMIG builds a deterministic random MIG (same generator contract
// as the rewrite tests, duplicated to avoid an internal test-only package).
func buildRandomMIG(name string, pis, nodes, pos int, seed int64) *mig.MIG {
	m := mig.New(name)
	rng := rand.New(rand.NewSource(seed))
	sigs := make([]mig.Signal, 0, pis+nodes)
	for i := 0; i < pis; i++ {
		sigs = append(sigs, m.AddPI(""))
	}
	for len(sigs) < pis+nodes {
		pick := func() mig.Signal {
			s := sigs[rng.Intn(len(sigs))]
			if rng.Intn(3) == 0 {
				s = s.Not()
			}
			return s
		}
		sigs = append(sigs, m.Maj(pick(), pick(), pick()))
	}
	for i := 0; i < pos; i++ {
		s := sigs[len(sigs)-1-rng.Intn(nodes/2)]
		if rng.Intn(4) == 0 {
			s = s.Not()
		}
		m.AddPO(s, "")
	}
	return m.Cleanup()
}

func TestRandomMIGsAllConfigs(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		m := buildRandomMIG("rnd", 8, 80, 6, seed)
		for _, opts := range allOptions() {
			res, err := Compile(m, opts)
			if err != nil {
				t.Fatalf("seed %d opts %+v: %v", seed, opts, err)
			}
			verifyCompiled(t, m, res)
			if res.NumRRAMs < m.NumPIs() {
				t.Fatalf("#R=%d below PI count %d", res.NumRRAMs, m.NumPIs())
			}
		}
	}
}

// TestEnduranceSelectionImprovesBalance checks the headline direction on a
// structured workload: a deep chain with long-lived side values (the Fig. 2
// pattern scaled up) must get a smaller write-count deviation with the full
// endurance configuration than with the naive one.
func TestEnduranceSelectionImprovesBalance(t *testing.T) {
	m := buildRandomMIG("bal", 12, 400, 6, 3)
	naive, err := Compile(m, Options{Selection: NodeOrder, Alloc: alloc.LIFO})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Compile(m, Options{Selection: Endurance, Alloc: alloc.MinWrite})
	if err != nil {
		t.Fatal(err)
	}
	if sd(full.WriteCounts) >= sd(naive.WriteCounts) {
		t.Fatalf("endurance config did not improve balance: naive %.3f vs full %.3f",
			sd(naive.WriteCounts), sd(full.WriteCounts))
	}
}

func sd(w []uint64) float64 {
	var mean float64
	for _, x := range w {
		mean += float64(x)
	}
	mean /= float64(len(w))
	var ss float64
	for _, x := range w {
		d := float64(x) - mean
		ss += d * d
	}
	return ss / float64(len(w))
}

// TestCompileAllocsPinned pins the steady-state allocation count of Compile
// under every selection policy. With the scratch pool warm, a compilation
// should only allocate its outputs (Program, instruction/PI/PO copies,
// write counts, Result) plus small fixed overheads — a graph-sized table
// rebuild would blow the budget by orders of magnitude and fail here before
// it shows up in BENCH_plim.json.
func TestCompileAllocsPinned(t *testing.T) {
	m := buildRandomMIG("allocpin", 10, 400, 8, 5)
	cases := []struct {
		name string
		opts Options
	}{
		{"node-order/lifo", Options{Selection: NodeOrder, Alloc: alloc.LIFO}},
		{"standard/minwrite", Options{Selection: Standard, Alloc: alloc.MinWrite}},
		{"endurance/minwrite", Options{Selection: Endurance, Alloc: alloc.MinWrite}},
		{"endurance/capped", Options{Selection: Endurance, Alloc: alloc.MinWrite, MaxWrites: 20}},
	}
	// The budget is deliberately loose (the steady state is ~10, one lower
	// since the LiveNodesInto reverse-sweep change, but -race inflates it
	// past 40): it only needs to catch a regression back to per-node
	// allocation, which costs hundreds on this graph.
	const budget = 48.0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Warm the pool so the measurement sees the steady state.
			if _, err := Compile(m, tc.opts); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(20, func() {
				if _, err := Compile(m, tc.opts); err != nil {
					t.Fatal(err)
				}
			})
			if avg > budget {
				t.Errorf("Compile averages %.1f allocs/run, budget %.0f", avg, budget)
			}
		})
	}
}

// TestScratchReuseParity compiles the same graphs over and over on one
// scratch (so every table and the Allocator are reused) and on a fresh
// scratch each time: programs, write counts and metrics must be
// byte-identical. This is the reused-allocator == fresh-allocator guarantee
// the scratch pool's Reset contract promises.
func TestScratchReuseParity(t *testing.T) {
	sc := new(compileScratch)
	for seed := int64(1); seed <= 4; seed++ {
		m := buildRandomMIG("parity", 9, 220, 8, seed)
		for _, opts := range allOptions() {
			fresh, err := compileOn(m, opts, new(compileScratch))
			if err != nil {
				t.Fatalf("seed %d %+v: %v", seed, opts, err)
			}
			for round := 0; round < 3; round++ {
				reused, err := compileOn(m, opts, sc)
				if err != nil {
					t.Fatalf("seed %d %+v round %d: %v", seed, opts, round, err)
				}
				var a, b bytes.Buffer
				if err := fresh.Program.WriteBinary(&a); err != nil {
					t.Fatal(err)
				}
				if err := reused.Program.WriteBinary(&b); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Fatalf("seed %d %+v round %d: reused program differs from fresh", seed, opts, round)
				}
				if !slices.Equal(fresh.WriteCounts, reused.WriteCounts) {
					t.Fatalf("seed %d %+v round %d: write counts differ", seed, opts, round)
				}
				if fresh.NumInstructions != reused.NumInstructions || fresh.NumRRAMs != reused.NumRRAMs {
					t.Fatalf("seed %d %+v round %d: metrics differ", seed, opts, round)
				}
			}
		}
	}
}

// TestResultDoesNotAliasScratch: the Result must stay intact after the
// scratch that built it is reused by another compilation.
func TestResultDoesNotAliasScratch(t *testing.T) {
	sc := new(compileScratch)
	m1 := buildRandomMIG("alias1", 8, 150, 6, 11)
	m2 := buildRandomMIG("alias2", 8, 150, 6, 12)
	opts := Options{Selection: Endurance, Alloc: alloc.MinWrite}
	r1, err := compileOn(m1, opts, sc)
	if err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := r1.Program.WriteBinary(&before); err != nil {
		t.Fatal(err)
	}
	wcBefore := append([]uint64(nil), r1.WriteCounts...)
	// Reuse the scratch on a different graph, then re-serialize r1.
	if _, err := compileOn(m2, opts, sc); err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	if err := r1.Program.WriteBinary(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("Result program mutated by a later compilation reusing the scratch")
	}
	if !slices.Equal(wcBefore, r1.WriteCounts) {
		t.Fatal("Result write counts mutated by a later compilation")
	}
}
