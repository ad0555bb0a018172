package rewrite

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"plim/internal/mig"
)

// evalWords evaluates one word per PO on patterns enumerating all 2^n
// assignments (n ≤ 6).
func truthTables(m *mig.MIG) []uint64 {
	n := m.NumPIs()
	in := make([]uint64, n)
	for v := 0; v < n; v++ {
		in[v] = mig.ExhaustivePattern(v, 0)
	}
	out := m.Eval(in)
	if n < 6 {
		mask := uint64(1)<<(1<<uint(n)) - 1
		for i := range out {
			out[i] &= mask
		}
	}
	return out
}

// TestAxiomTruthTables proves each implemented identity over full truth
// tables, independent of the pass machinery.
func TestAxiomTruthTables(t *testing.T) {
	t.Run("OmegaA", func(t *testing.T) {
		m := mig.New("a")
		x := m.AddPI("x")
		u := m.AddPI("u")
		y := m.AddPI("y")
		z := m.AddPI("z")
		lhs := m.RawMaj(x, u, m.RawMaj(y, u, z))
		rhs := m.RawMaj(z, u, m.RawMaj(y, u, x))
		m.AddPO(lhs, "l")
		m.AddPO(rhs, "r")
		tt := truthTables(m)
		if tt[0] != tt[1] {
			t.Fatalf("Ω.A violated: %016x vs %016x", tt[0], tt[1])
		}
	})
	t.Run("OmegaD", func(t *testing.T) {
		m := mig.New("d")
		x := m.AddPI("x")
		y := m.AddPI("y")
		u := m.AddPI("u")
		v := m.AddPI("v")
		z := m.AddPI("z")
		lhs := m.RawMaj(m.RawMaj(x, y, u), m.RawMaj(x, y, v), z)
		rhs := m.RawMaj(x, y, m.RawMaj(u, v, z))
		m.AddPO(lhs, "l")
		m.AddPO(rhs, "r")
		tt := truthTables(m)
		if tt[0] != tt[1] {
			t.Fatalf("Ω.D violated")
		}
	})
	t.Run("PsiC", func(t *testing.T) {
		m := mig.New("p")
		x := m.AddPI("x")
		u := m.AddPI("u")
		y := m.AddPI("y")
		z := m.AddPI("z")
		lhs := m.RawMaj(x, u, m.RawMaj(y, u.Not(), z))
		rhs := m.RawMaj(x, u, m.RawMaj(y, x, z))
		m.AddPO(lhs, "l")
		m.AddPO(rhs, "r")
		tt := truthTables(m)
		if tt[0] != tt[1] {
			t.Fatalf("Ψ.C violated: the identity must replace ū by x")
		}
	})
	t.Run("PsiC_PaperTypoIsWrong", func(t *testing.T) {
		// The DATE'17 PDF renders Ψ.C as ⟨x u ⟨y x̄ z⟩⟩ = ⟨x u ⟨y x z⟩⟩,
		// which is not a tautology; this test documents why we deviate.
		m := mig.New("p")
		x := m.AddPI("x")
		u := m.AddPI("u")
		y := m.AddPI("y")
		z := m.AddPI("z")
		lhs := m.RawMaj(x, u, m.RawMaj(y, x.Not(), z))
		rhs := m.RawMaj(x, u, m.RawMaj(y, x, z))
		m.AddPO(lhs, "l")
		m.AddPO(rhs, "r")
		tt := truthTables(m)
		if tt[0] == tt[1] {
			t.Fatalf("the garbled paper identity unexpectedly holds; revisit the transcription note")
		}
	})
	t.Run("OmegaI", func(t *testing.T) {
		m := mig.New("i")
		x := m.AddPI("x")
		y := m.AddPI("y")
		z := m.AddPI("z")
		m.AddPO(m.RawMaj(x.Not(), y.Not(), z.Not()), "l")
		m.AddPO(m.RawMaj(x, y, z).Not(), "r")
		m.AddPO(m.RawMaj(x.Not(), y.Not(), z), "l2")
		m.AddPO(m.RawMaj(x, y, z.Not()).Not(), "r2")
		tt := truthTables(m)
		if tt[0] != tt[1] {
			t.Fatalf("Ω.I rule (1) violated")
		}
		if tt[2] != tt[3] {
			t.Fatalf("Ω.I rules (2)/(3) violated")
		}
	})
}

// buildTestMIG constructs a deterministic random MIG with the given shape,
// used to exercise the passes on nontrivial structure.
func buildTestMIG(t *testing.T, name string, pis, nodes, pos int, seed int64) *mig.MIG {
	t.Helper()
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
		s := m.Maj(pick(), pick(), pick())
		sigs = append(sigs, s)
	}
	for i := 0; i < pos; i++ {
		s := sigs[len(sigs)-1-rng.Intn(min(len(sigs), nodes))]
		if rng.Intn(4) == 0 {
			s = s.Not()
		}
		m.AddPO(s, "")
	}
	return m.Cleanup()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestEachPassPreservesFunction(t *testing.T) {
	passes := []Pass{PassM, PassDRL, PassA, PassPsiC, PassIRL13, PassIRL}
	for _, p := range passes {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				m := buildTestMIG(t, "rnd", 8, 60, 6, seed)
				out := applyPass(nil, m, p)
				if err := out.Validate(); err != nil {
					t.Fatal(err)
				}
				res, err := mig.Equivalent(m, out, 8, seed)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Equivalent {
					t.Fatalf("seed %d: pass %s changed the function (PO %d)", seed, p, res.PO)
				}
			}
		})
	}
}

func TestDistributivityReducesConstructedCase(t *testing.T) {
	m := mig.New("d")
	x := m.AddPI("x")
	y := m.AddPI("y")
	u := m.AddPI("u")
	v := m.AddPI("v")
	z := m.AddPI("z")
	a := m.Maj(x, y, u)
	b := m.Maj(x, y, v)
	m.AddPO(m.Maj(a, b, z), "f")
	if m.NumMaj() != 3 {
		t.Fatalf("setup: want 3 nodes, have %d", m.NumMaj())
	}
	out := passDistributivityRL(nil, m).Cleanup()
	if out.NumMaj() != 2 {
		t.Fatalf("Ω.D R→L should leave 2 nodes, got %d", out.NumMaj())
	}
	mig.MustBeEquivalent(m, out, 4, 1)
}

func TestDistributivityRespectsFanoutGuard(t *testing.T) {
	m := mig.New("d")
	x := m.AddPI("x")
	y := m.AddPI("y")
	u := m.AddPI("u")
	v := m.AddPI("v")
	z := m.AddPI("z")
	a := m.Maj(x, y, u)
	b := m.Maj(x, y, v)
	m.AddPO(m.Maj(a, b, z), "f")
	m.AddPO(a, "keep") // a has a second fanout: rewriting would grow the graph
	out := passDistributivityRL(nil, m).Cleanup()
	if out.NumMaj() != 3 {
		t.Fatalf("guard failed: got %d nodes, want 3", out.NumMaj())
	}
}

func TestDistributivityWithComplementedProducts(t *testing.T) {
	// ⟨⟨x y u⟩' ⟨x̄ ȳ v⟩ z⟩: through self-duality the first product's
	// effective children are {x̄ ȳ ū}, sharing {x̄ ȳ} with the second.
	m := mig.New("d")
	x := m.AddPI("x")
	y := m.AddPI("y")
	u := m.AddPI("u")
	v := m.AddPI("v")
	z := m.AddPI("z")
	a := m.Maj(x, y, u)
	b := m.Maj(x.Not(), y.Not(), v)
	m.AddPO(m.Maj(a.Not(), b, z), "f")
	out := passDistributivityRL(nil, m).Cleanup()
	if out.NumMaj() != 2 {
		t.Fatalf("polarity-aware Ω.D failed: got %d nodes, want 2", out.NumMaj())
	}
	mig.MustBeEquivalent(m, out, 4, 1)
}

func TestInverterNormalizationInvariant(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		m := buildTestMIG(t, "rnd", 10, 120, 8, seed)
		out := passInverters(nil, m, true).Cleanup()
		hist := out.ComplementHistogram()
		if hist[2] != 0 || hist[3] != 0 {
			t.Fatalf("seed %d: nodes with ≥2 complemented fanins remain: %v", seed, hist)
		}
		mig.MustBeEquivalent(m, out, 8, seed)
	}
}

func TestInverterRule1Only(t *testing.T) {
	m := mig.New("i")
	x := m.AddPI("x")
	y := m.AddPI("y")
	z := m.AddPI("z")
	n3 := m.Maj(x.Not(), y.Not(), z.Not()) // 3 complemented
	n2 := m.Maj(x.Not(), y.Not(), z)       // 2 complemented
	m.AddPO(n3, "a")
	m.AddPO(n2, "b")
	out := passInverters(nil, m, false).Cleanup()
	hist := out.ComplementHistogram()
	if hist[3] != 0 {
		t.Fatalf("rule (1) left a 3-complemented node: %v", hist)
	}
	if hist[2] != 1 {
		t.Fatalf("rule (1) must not touch 2-complemented nodes: %v", hist)
	}
	mig.MustBeEquivalent(m, out, 4, 1)
}

func TestAssociativityEnablesFold(t *testing.T) {
	// ⟨x u ⟨y u x⟩⟩ has no direct fold, but Ω.A can rotate x into the inner
	// node: ⟨x u ⟨y u x⟩⟩ = ... here we build ⟨x u ⟨x̄ u z⟩⟩ whose swap gives
	// inner ⟨x̄ u x⟩ = u, so the whole node folds to ⟨z u u⟩ = u... choose a
	// case where the result is a genuine reduction:
	// f = ⟨x u ⟨y u x⟩⟩ — swapping z=y? Use the documented profit case:
	// inner' = ⟨y u x⟩ already exists elsewhere.
	m := mig.New("a")
	x := m.AddPI("x")
	u := m.AddPI("u")
	y := m.AddPI("y")
	z := m.AddPI("z")
	shared := m.Maj(y, u, x) // pre-existing node
	m.AddPO(shared, "g")
	inner := m.Maj(y, u, z)
	f := m.Maj(x, u, inner)
	m.AddPO(f, "f")
	before := m.Cleanup().NumMaj()
	out := passAssociativity(nil, m).Cleanup()
	if out.NumMaj() >= before {
		t.Fatalf("Ω.A sharing case: %d nodes before, %d after", before, out.NumMaj())
	}
	mig.MustBeEquivalent(m, out, 4, 1)
}

func TestPsiCEnablesFold(t *testing.T) {
	// ⟨x u ⟨y ū z⟩⟩ with y = x̄: replacing ū by x folds the inner node
	// ⟨x̄ x z⟩ = z, so f = ⟨x u z⟩ — one node instead of two.
	m := mig.New("p")
	x := m.AddPI("x")
	u := m.AddPI("u")
	z := m.AddPI("z")
	inner := m.Maj(x.Not(), u.Not(), z)
	f := m.Maj(x, u, inner)
	m.AddPO(f, "f")
	out := passPsiC(nil, m).Cleanup()
	if out.NumMaj() != 1 {
		t.Fatalf("Ψ.C fold case: got %d nodes, want 1", out.NumMaj())
	}
	mig.MustBeEquivalent(m, out, 4, 1)
}

func TestPipelinesPreserveFunctionAndReduce(t *testing.T) {
	for _, tc := range []struct {
		name     string
		pipeline []Pass
	}{
		{"algorithm1", Algorithm1},
		{"algorithm2", Algorithm2},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				m := buildTestMIG(t, "rnd", 10, 200, 10, seed)
				out, st := Run(m, tc.pipeline, 5)
				if err := out.Validate(); err != nil {
					t.Fatal(err)
				}
				res, err := mig.Equivalent(m, out, 8, seed)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Equivalent {
					t.Fatalf("seed %d: pipeline changed function at PO %d", seed, res.PO)
				}
				if st.NodesAfter > st.NodesBefore {
					t.Fatalf("seed %d: pipeline grew the graph: %d → %d", seed, st.NodesBefore, st.NodesAfter)
				}
			}
		})
	}
}

func TestAlgorithm2NormalizesComplements(t *testing.T) {
	// Algorithm 2 ends with inverter propagation, so no live node may keep
	// three complemented fanins, and ≥2-complement nodes should be rare
	// (only reintroduced by the final Ω.M/Ω.D steps).
	for seed := int64(1); seed <= 4; seed++ {
		m := buildTestMIG(t, "rnd", 10, 200, 10, seed)
		out, _ := Run(m, Algorithm2, 5)
		hist := out.ComplementHistogram()
		if hist[3] != 0 {
			t.Fatalf("seed %d: 3-complemented nodes remain after Algorithm 2: %v", seed, hist)
		}
	}
}

func TestRunEarlyExit(t *testing.T) {
	m := mig.New("t")
	x := m.AddPI("x")
	y := m.AddPI("y")
	z := m.AddPI("z")
	m.AddPO(m.Maj(x, y, z), "f")
	_, st := Run(m, Algorithm2, 50)
	if st.Cycles >= 50 {
		t.Fatalf("fixpoint not detected, ran %d cycles", st.Cycles)
	}
}

// cycleRun is one rewriting call as TestContinueIsTheLongerRun compares
// it: the graph, its fingerprint, the stats, how the run ended and the
// cycle numbers and node counts passed to onCycle.
type cycleRun struct {
	out    *mig.MIG
	fp     uint64
	st     Stats
	end    End
	cycles [][2]int
}

// same reports whether r and o agree on everything but the graph handle.
func (r cycleRun) same(o cycleRun) bool {
	return r.fp == o.fp && r.st == o.st && r.end == o.end && slices.Equal(r.cycles, o.cycles)
}

// TestContinueIsTheLongerRun pins the continuation the sweep relies on,
// for both algorithms at every 0 < e′ < e ≤ 6: a run that ended on its
// bound at e′, continued to e, is RunContext at e — the same graph
// fingerprint, Stats and end state, with its cycles numbered on from
// e′ — and leaves the graph it continued untouched; a run that ended at
// its fixpoint at e′ is RunContext at e. Several runs take three cycles,
// so a continuation can itself end on its bound.
func TestContinueIsTheLongerRun(t *testing.T) {
	ctx := context.Background()
	graphs := []*mig.MIG{
		buildTestMIG(t, "rnd", 4, 40, 4, 78), // both algorithms take 3 cycles
		buildTestMIG(t, "rnd", 6, 80, 6, 12), // Algorithm 1 takes 3 cycles
		buildTestMIG(t, "rnd", 10, 200, 10, 1),
		buildTestMIG(t, "rnd", 10, 200, 10, 2),
	}
	record := func(r *cycleRun) func(cycle, nodes int) {
		return func(cycle, nodes int) { r.cycles = append(r.cycles, [2]int{cycle, nodes}) }
	}
	longest := 0
	for gi, m := range graphs {
		for _, alg := range []struct {
			name     string
			pipeline []Pass
		}{{"algorithm1", Algorithm1}, {"algorithm2", Algorithm2}} {
			var fresh [7]cycleRun
			for e := 1; e < len(fresh); e++ {
				r := &fresh[e]
				var err error
				if r.out, r.st, r.end, err = RunContext(ctx, m, alg.pipeline, e, record(r)); err != nil {
					t.Fatal(err)
				}
				r.fp = r.out.Fingerprint()
			}
			longest = max(longest, fresh[6].st.Cycles)
			for short := 1; short < len(fresh); short++ {
				prev := fresh[short]
				for e := short + 1; e < len(fresh); e++ {
					want := fresh[e]
					if prev.end == Fixpoint {
						if !prev.same(want) {
							t.Fatalf("graph %d %s: fixpoint run at effort %d is %+v, the run at %d %+v", gi, alg.name, short, prev, e, want)
						}
						continue
					}
					if prev.end != Bound || prev.st.Cycles != short {
						t.Fatalf("graph %d %s: run at effort %d ended %d after %d cycles", gi, alg.name, short, prev.end, prev.st.Cycles)
					}
					got := cycleRun{cycles: slices.Clone(prev.cycles)}
					var err error
					if got.out, got.st, got.end, err = Continue(ctx, prev.out, prev.st, alg.pipeline, e, record(&got)); err != nil {
						t.Fatal(err)
					}
					got.fp = got.out.Fingerprint()
					if !got.same(want) {
						t.Fatalf("graph %d %s: effort %d continued to %d is %+v, the run at %d %+v", gi, alg.name, short, e, got, e, want)
					}
					if prev.out.Fingerprint() != prev.fp {
						t.Fatalf("graph %d %s: continuing the run at effort %d modified its graph", gi, alg.name, short)
					}
				}
			}
		}
	}
	if longest < 3 {
		t.Fatalf("the longest run took %d cycles, want one of at least 3", longest)
	}
}

func TestPassStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range []Pass{PassM, PassDRL, PassA, PassPsiC, PassIRL13, PassIRL} {
		s := p.String()
		if s == "?" || seen[s] {
			t.Fatalf("bad or duplicate pass name %q", s)
		}
		seen[s] = true
	}
	if Pass(99).String() != "?" {
		t.Fatalf("unknown pass must stringify as ?")
	}
}

// TestRunResultDetachedFromArenas guards the arena reuse: the MIG returned
// by Run must stay valid and functionally intact after later Run calls
// reuse (or would reuse) the internal scratch state, and repeated runs must
// be deterministic.
func TestRunResultDetachedFromArenas(t *testing.T) {
	build := func(seed int64) *mig.MIG {
		rng := rand.New(rand.NewSource(seed))
		m := mig.New("det")
		sigs := make([]mig.Signal, 0, 64)
		for i := 0; i < 6; i++ {
			sigs = append(sigs, m.AddPI(""))
		}
		pick := func() mig.Signal {
			s := sigs[rng.Intn(len(sigs))]
			if rng.Intn(3) == 0 {
				s = s.Not()
			}
			return s
		}
		for i := 0; i < 60; i++ {
			sigs = append(sigs, m.Maj(pick(), pick(), pick()))
		}
		for i := 0; i < 4; i++ {
			m.AddPO(pick(), "")
		}
		return m.Cleanup()
	}
	m1 := build(1)
	out1, st1 := Run(m1, Algorithm2, 5)
	want := truthTables(out1)
	fp := out1.Fingerprint()

	// Further runs on other graphs must not disturb out1.
	for seed := int64(2); seed < 6; seed++ {
		Run(build(seed), Algorithm1, 5)
		Run(build(seed), Algorithm2, 5)
	}
	if err := out1.Validate(); err != nil {
		t.Fatalf("result corrupted by later runs: %v", err)
	}
	if out1.Fingerprint() != fp {
		t.Fatal("result mutated by later runs")
	}
	got := truthTables(out1)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PO %d function changed after later runs", i)
		}
	}
	// Determinism: a fresh run of the same input reproduces the result.
	out2, st2 := Run(build(1), Algorithm2, 5)
	if st1 != st2 || out2.Fingerprint() != fp {
		t.Fatalf("rewriting is not deterministic: %+v vs %+v", st1, st2)
	}
}
