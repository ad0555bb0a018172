package plim

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"plim/internal/core"
	"plim/internal/isa"
	"plim/internal/mig"
	"plim/internal/rewrite"
	"plim/internal/suite"
)

// TestIntegrationSuiteAllConfigs is the repository's end-to-end check: every
// benchmark (at reduced datapath widths), through every paper configuration,
// must (1) rewrite into an equivalent MIG, (2) compile into a valid program,
// (3) execute on the crossbar interpreter with outputs matching MIG
// evaluation, and (4) agree on write counts across the compiler's
// accounting, a static scan of the program, and the interpreter's measured
// counters.
func TestIntegrationSuiteAllConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep in short mode")
	}
	cfgs := append(core.TableIConfigs(), core.FullCap(10), core.FullCap(50))
	for _, name := range suite.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, err := suite.BuildScaled(name, 8)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range cfgs {
				rep, err := core.Run(context.Background(), m, cfg, 2)
				if err != nil {
					t.Fatalf("%s: %v", cfg.Name, err)
				}
				prog := rep.Result.Program
				if err := prog.Validate(); err != nil {
					t.Fatalf("%s: %v", cfg.Name, err)
				}
				verifyExecution(t, m, rep, cfg.Name)
				if cfg.MaxWrites > 0 {
					for cell, w := range rep.Result.WriteCounts {
						if w > cfg.MaxWrites {
							t.Fatalf("%s: cell %d exceeds cap: %d > %d", cfg.Name, cell, w, cfg.MaxWrites)
						}
					}
				}
				if rep.NumRRAMs() < m.NumPIs() {
					t.Fatalf("%s: #R=%d below PI count", cfg.Name, rep.NumRRAMs())
				}
			}
		})
	}
}

// verifyExecution runs the compiled program on a handful of random inputs
// and cross-checks outputs and write counters.
func verifyExecution(t *testing.T, m *mig.MIG, rep *core.Report, cfgName string) {
	t.Helper()
	prog := rep.Result.Program
	rng := rand.New(rand.NewSource(int64(len(prog.Insts))))
	words := make([]uint64, m.NumPIs())
	static := prog.StaticWriteCounts()

	for trial := 0; trial < 3; trial++ {
		in := make([]bool, m.NumPIs())
		for i := range in {
			in[i] = rng.Intn(2) == 1
			words[i] = 0
			if in[i] {
				words[i] = 1
			}
		}
		out, xbar, err := isa.Execute(prog, in)
		if err != nil {
			t.Fatalf("%s: execute: %v", cfgName, err)
		}
		want := m.Eval(words)
		for i := range out {
			if out[i] != (want[i]&1 == 1) {
				t.Fatalf("%s: PO %d mismatch", cfgName, i)
			}
		}
		measured := xbar.WriteCounts(int(prog.NumCells))
		for cell := range static {
			if static[cell] != measured[cell] || static[cell] != rep.Result.WriteCounts[cell] {
				t.Fatalf("%s: cell %d write accounting diverges: static=%d measured=%d compiler=%d",
					cfgName, cell, static[cell], measured[cell], rep.Result.WriteCounts[cell])
			}
		}
	}
}

// TestIntegrationRewritingEquivalenceAtScale verifies both rewriting
// algorithms preserve every benchmark's function at a mid scale, using
// word-parallel random simulation (and exhaustive enumeration for the small
// control functions).
func TestIntegrationRewritingEquivalenceAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep in short mode")
	}
	for _, name := range suite.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, err := suite.BuildScaled(name, 8)
			if err != nil {
				t.Fatal(err)
			}
			for _, pipe := range [][]rewrite.Pass{rewrite.Algorithm1, rewrite.Algorithm2} {
				out, _ := rewrite.Run(m, pipe, 2)
				if err := out.Validate(); err != nil {
					t.Fatal(err)
				}
				res, err := mig.Equivalent(m, out, 6, 42)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Equivalent {
					t.Fatalf("rewriting changed the function at PO %d", res.PO)
				}
			}
		})
	}
}

// TestIntegrationRewriteFixpoint: running a pipeline to convergence and then
// running it again must not change the graph further (idempotence of the
// fixpoint), which guards against rule ping-pong.
func TestIntegrationRewriteFixpoint(t *testing.T) {
	for _, name := range []string{"ctrl", "int2float", "router"} {
		m, err := suite.BuildScaled(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		once, _ := rewrite.Run(m, rewrite.Algorithm2, 20)
		twice, st := rewrite.Run(once, rewrite.Algorithm2, 20)
		if st.Cycles > 1 {
			t.Fatalf("%s: fixpoint not stable, %d extra cycles ran", name, st.Cycles)
		}
		if twice.NumMaj() != once.NumMaj() {
			t.Fatalf("%s: re-running rewriting changed node count %d → %d",
				name, once.NumMaj(), twice.NumMaj())
		}
	}
}

// TestIntegrationSerializationPipeline round-trips a benchmark through the
// .mig format, compiles both copies, and demands identical programs —
// serialization must be a faithful interchange format.
func TestIntegrationSerializationPipeline(t *testing.T) {
	m, err := suite.BuildScaled("cavlc", 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := mig.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Run(context.Background(), m, core.Full, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Run(context.Background(), m2, core.Full, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumInstructions() != b.NumInstructions() || a.NumRRAMs() != b.NumRRAMs() {
		t.Fatalf("serialization changed compilation: %d/%d vs %d/%d",
			a.NumInstructions(), a.NumRRAMs(), b.NumInstructions(), b.NumRRAMs())
	}
	for i, ins := range a.Result.Program.Insts {
		if ins != b.Result.Program.Insts[i] {
			t.Fatalf("instruction %d differs after round-trip", i)
		}
	}
}
