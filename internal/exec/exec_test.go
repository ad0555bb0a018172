package exec

import (
	"context"
	"errors"
	"testing"

	"plim/internal/core"
	"plim/internal/isa"
	"plim/internal/mig"
	"plim/internal/rram"
	"plim/internal/suite"
)

// compileAll compiles a benchmark under every Table I policy at a small
// effort and returns the source graph plus one program per configuration.
func compileAll(t *testing.T, name string, shrink int) (*mig.MIG, map[string]*isa.Program) {
	t.Helper()
	m, err := suite.BuildScaled(name, shrink)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	progs := make(map[string]*isa.Program)
	for _, cfg := range core.TableIConfigs() {
		rep, err := core.Run(context.Background(), m, cfg, 2)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, cfg.Name, err)
		}
		progs[cfg.Name] = rep.Result.Program
	}
	return m, progs
}

// inputBatch picks the equivalence stimulus: the whole truth table for
// small input counts, packed random vectors otherwise.
func inputBatch(t *testing.T, pis int) *Batch {
	t.Helper()
	if pis <= 10 {
		b, err := Exhaustive(pis)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return Random(pis, 192, 0x5eed)
}

// TestEquivalenceAllPolicies is the property harness of the acceptance
// criteria: for every Table I compile policy, the 64-wide executor, the
// scalar interpreter and word-parallel MIG simulation agree on every output
// bit, and the executor's aggregate wear equals the sum of the scalar
// interpreter's per-run crossbar counters.
func TestEquivalenceAllPolicies(t *testing.T) {
	cases := []struct {
		name   string
		shrink int
	}{
		{"ctrl", 1},      // 7 PIs: exhaustive
		{"dec", 1},       // 8 PIs: exhaustive, wide fan-out
		{"int2float", 1}, // 11 PIs: random vectors
		{"sin", 8},       // shrunk datapath, random vectors
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, progs := compileAll(t, tc.name, tc.shrink)
			b := inputBatch(t, m.NumPIs())
			for cfgName, p := range progs {
				pl, err := Compile(p)
				if err != nil {
					t.Fatalf("%s: compile plan: %v", cfgName, err)
				}
				res, err := pl.RunContext(context.Background(), b, Options{})
				if err != nil {
					t.Fatalf("%s: run: %v", cfgName, err)
				}

				// exec64 == mig.Eval on the source graph, word for word.
				inWords := make([]uint64, b.Lines())
				for c := 0; c < b.Chunks(); c++ {
					for i := range inWords {
						inWords[i] = b.Word(i, c)
					}
					outWords := m.Eval(inWords)
					mask := b.ActiveMask(c)
					for o, w := range outWords {
						if got := res.Outputs.Word(o, c); got != w&mask {
							t.Fatalf("%s: chunk %d PO %d: exec %016x, mig.Eval %016x", cfgName, c, o, got, w&mask)
						}
					}
				}

				// exec64 == scalar isa.Execute per vector, and aggregate wear
				// equals the sum of per-run crossbar counters.
				writes := make([]uint64, p.NumCells)
				switches := make([]uint64, p.NumCells)
				for v := 0; v < b.Len(); v++ {
					out, xbar, err := isa.Execute(p, b.Vector(v))
					if err != nil {
						t.Fatalf("%s: scalar vector %d: %v", cfgName, v, err)
					}
					for o, bit := range out {
						if res.Outputs.Get(v, o) != bit {
							t.Fatalf("%s: vector %d PO %d: exec %v, scalar %v", cfgName, v, o, res.Outputs.Get(v, o), bit)
						}
					}
					for z, w := range xbar.WriteCounts(int(p.NumCells)) {
						writes[z] += w
					}
					for z, sw := range xbar.SwitchCounts(int(p.NumCells)) {
						switches[z] += sw
					}
				}
				for z := range writes {
					if res.Writes[z] != writes[z] {
						t.Fatalf("%s: cell %d: exec writes %d, scalar sum %d", cfgName, z, res.Writes[z], writes[z])
					}
					if res.Switches[z] != switches[z] {
						t.Fatalf("%s: cell %d: exec switches %d, scalar sum %d", cfgName, z, res.Switches[z], switches[z])
					}
				}
				if res.Vectors != b.Len() {
					t.Fatalf("%s: result reports %d vectors, batch has %d", cfgName, res.Vectors, b.Len())
				}
			}
		})
	}
}

// scalarFaultIndex steps the scalar controller to the failing instruction.
func scalarFaultIndex(t *testing.T, p *isa.Program, inputs []bool, endurance uint64) int {
	t.Helper()
	x := rram.NewLinear(int(p.NumCells), rram.WithEndurance(endurance))
	c := isa.NewController(x)
	if err := c.LoadInputs(p, inputs); err != nil {
		t.Fatal(err)
	}
	for n, ins := range p.Insts {
		if err := c.Step(ins); err != nil {
			if !errors.Is(err, rram.ErrWornOut) {
				t.Fatalf("inst %d: unexpected error %v", n, err)
			}
			return n
		}
	}
	return -1
}

func TestEnduranceFaultMatchesScalar(t *testing.T) {
	_, progs := compileAll(t, "ctrl", 1)
	p := progs["full"]
	static := p.StaticWriteCounts()
	var maxWrites uint64
	for _, w := range static {
		if w > maxWrites {
			maxWrites = w
		}
	}
	if maxWrites < 2 {
		t.Fatalf("degenerate program: max static writes %d", maxWrites)
	}
	b, err := Exhaustive(len(p.PICells))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, endurance := range []uint64{1, maxWrites - 1, maxWrites, maxWrites + 1} {
		res, err := pl.RunContext(context.Background(), b, Options{Endurance: endurance})
		scalarAt := scalarFaultIndex(t, p, b.Vector(0), endurance)
		if scalarAt < 0 {
			if err != nil {
				t.Fatalf("endurance %d: exec faulted (%v), scalar did not", endurance, err)
			}
			continue
		}
		var fe *FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("endurance %d: exec error %v, want FaultError", endurance, err)
		}
		if !errors.Is(err, rram.ErrWornOut) {
			t.Fatalf("endurance %d: fault does not wrap rram.ErrWornOut", endurance)
		}
		if fe.Inst != scalarAt {
			t.Fatalf("endurance %d: exec faults at inst %d, scalar at %d", endurance, fe.Inst, scalarAt)
		}
		if res == nil || res.Outputs != nil {
			t.Fatalf("endurance %d: faulted run must carry wear but no outputs", endurance)
		}
		// Partial wear equals the scalar prefix, summed over all lanes.
		x := rram.NewLinear(int(p.NumCells), rram.WithEndurance(endurance))
		c := isa.NewController(x)
		if err := c.LoadInputs(p, b.Vector(0)); err != nil {
			t.Fatal(err)
		}
		for _, ins := range p.Insts[:scalarAt] {
			if err := c.Step(ins); err != nil {
				t.Fatal(err)
			}
		}
		n := uint64(b.Len())
		for z, w := range x.WriteCounts(int(p.NumCells)) {
			if res.Writes[z] != w*n {
				t.Fatalf("endurance %d: cell %d writes %d, want %d", endurance, z, res.Writes[z], w*n)
			}
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	_, progs := compileAll(t, "ctrl", 1)
	pl, err := Compile(progs["naive"])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, _ := Exhaustive(pl.NumInputs())
	if _, err := pl.RunContext(ctx, b, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestOnChunkProgress(t *testing.T) {
	_, progs := compileAll(t, "ctrl", 1)
	pl, err := Compile(progs["naive"])
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Exhaustive(pl.NumInputs()) // 128 vectors = 2 chunks
	var calls []int
	_, err = pl.RunContext(context.Background(), b, Options{
		OnChunk: func(done, total int) {
			if total != b.Chunks() {
				t.Fatalf("total = %d, want %d", total, b.Chunks())
			}
			calls = append(calls, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != b.Chunks() || calls[0] != 1 || calls[len(calls)-1] != b.Chunks() {
		t.Fatalf("chunk callbacks: %v", calls)
	}
}

func TestInputWidthMismatch(t *testing.T) {
	_, progs := compileAll(t, "ctrl", 1)
	pl, err := Compile(progs["naive"])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Run(NewBatch(pl.NumInputs()+1, 4)); err == nil {
		t.Fatal("width mismatch accepted")
	}
}

func TestEmptyBatch(t *testing.T) {
	_, progs := compileAll(t, "ctrl", 1)
	pl, err := Compile(progs["naive"])
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Run(NewBatch(pl.NumInputs(), 0))
	if err != nil {
		t.Fatal(err)
	}
	for z, w := range res.Writes {
		if w != 0 || res.Switches[z] != 0 {
			t.Fatal("empty batch aged devices")
		}
	}
	// Even a would-fault endurance budget has no lane to fault in.
	if _, err := pl.RunContext(context.Background(), NewBatch(pl.NumInputs(), 0), Options{Endurance: 1}); err != nil {
		t.Fatalf("empty batch faulted: %v", err)
	}
}

func TestProgramFingerprintDistinguishesPrograms(t *testing.T) {
	_, progs := compileAll(t, "ctrl", 1)
	fps := make(map[uint64]string)
	for name, p := range progs {
		fp := p.Fingerprint()
		if prev, ok := fps[fp]; ok {
			// Distinct policies may legitimately produce identical programs,
			// but not across all five; flag exact collisions only when the
			// programs differ.
			if len(p.Insts) != len(progs[prev].Insts) {
				t.Fatalf("fingerprint collision between %s and %s", name, prev)
			}
			continue
		}
		fps[fp] = name
	}
	if len(fps) < 2 {
		t.Fatal("all five policies share one fingerprint")
	}
	p := progs["full"]
	fp := p.Fingerprint()
	clone := *p
	clone.Name = "renamed"
	if clone.Fingerprint() != fp {
		t.Fatal("fingerprint must ignore the name")
	}
	mutated := *p
	mutated.Insts = append([]isa.Instruction(nil), p.Insts...)
	mutated.Insts[0].Z++
	if mutated.Fingerprint() == fp {
		t.Fatal("mutated program shares fingerprint")
	}
}

func BenchmarkExec64(b *testing.B) {
	m, err := suite.BuildScaled("sin", 8)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := core.Run(context.Background(), m, core.Naive, 0)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := Compile(rep.Result.Program)
	if err != nil {
		b.Fatal(err)
	}
	batch := Random(pl.NumInputs(), 256, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Run(batch); err != nil {
			b.Fatal(err)
		}
	}
}
