package plim

import (
	"context"
	"testing"

	"plim/internal/cost"
	"plim/internal/isa"
	"plim/internal/verify"
)

// TestCostParity pins the cost model's cross-layer contract: for every
// Table I policy (plus the capped Table III policy), the price of a
// compiled program is one exact value however it is derived —
//
//	static      the verifier's sweep over the instruction stream
//	program     the counts the program keeps (Model.Program, Report.Cost)
//	scalar      op classes of the program + the interpreter crossbar's
//	            recorded max cell wear
//	batched     the batched executor's aggregate, divided by the lanes
//
// Equality is ==, not approximate: every layer derives energy from the
// same integer per-class operation counts (cost.Model.FromCounts), so the
// floats are bit-identical by construction. Divergence anywhere means an
// accounting layer drifted from the instruction stream that actually
// executes.
func TestCostParity(t *testing.T) {
	ctx := context.Background()
	const lanes = 64
	cm := DefaultCostModel()

	eng := NewEngine(WithShrink(4), WithVerify(true))
	if eng.CostModelName() != cm.Name {
		t.Fatalf("engine cost model %q, want the default %q", eng.CostModelName(), cm.Name)
	}
	m, err := eng.Benchmark(ctx, "ctrl", 4)
	if err != nil {
		t.Fatal(err)
	}

	configs := append(TableIConfigs(), FullCap(50))
	for _, cfg := range configs {
		t.Run(cfg.Name, func(t *testing.T) {
			rep, err := eng.Run(ctx, m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Cost == nil {
				t.Fatal("engine runs are always priced, but Report.Cost is nil")
			}
			allocator := *rep.Cost

			vr := rep.Verify
			if vr == nil || vr.Cost == nil {
				t.Fatal("verified run carries no static cost")
			}
			static := *vr.Cost
			if static != allocator {
				t.Fatalf("static cost %+v != allocator cost %+v", static, allocator)
			}
			// The library-level parity check agrees (and is what gates
			// production compiles under WithVerify).
			if !verify.CheckCostParity(vr, allocator, "allocator-recheck") {
				t.Fatalf("CheckCostParity diverged: %v", vr.Violations)
			}

			// Scalar interpreter: classify the executed instructions and
			// read max cell wear off the crossbar the run actually wore.
			p := rep.Result.Program
			inputs := make([]bool, p.NumPIs())
			for i := range inputs {
				inputs[i] = i%3 == 0
			}
			_, xbar, err := Execute(p, inputs)
			if err != nil {
				t.Fatal(err)
			}
			var ops isa.ClassCounts
			for _, ins := range p.Insts() {
				ops[ins.Class()]++
			}
			var maxWear uint64
			for _, w := range xbar.WriteCounts(int(p.NumCells())) {
				if w > maxWear {
					maxWear = w
				}
			}
			scalar := cm.FromCounts(ops, maxWear)
			if scalar != static {
				t.Fatalf("scalar cost %+v != static cost %+v", scalar, static)
			}

			// Batched executor: the batch cost is exactly lanes× the static
			// cost (wear scales; per-run lifetime does not).
			b := RandomBatch(p.NumPIs(), lanes, 7)
			res, err := ExecuteBatch(p, b, ExecOptions{CostModel: cm})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost == nil {
				t.Fatal("ExecuteBatch with a cost model returned no cost")
			}
			if want := cm.Scale(static, lanes); *res.Cost != want {
				t.Fatalf("batched cost %+v != %d× static %+v", *res.Cost, lanes, want)
			}
			if res.Cost.LifetimeRuns != static.LifetimeRuns {
				t.Fatalf("batched lifetime %d != static lifetime %d (lifetime is per-run)",
					res.Cost.LifetimeRuns, static.LifetimeRuns)
			}
		})
	}
}

// TestCostParityAcrossModels pins that pricing is pure accounting: the
// compiled program is identical under every model, and a custom model's
// price obeys the same cross-layer equality as the default.
func TestCostParityAcrossModels(t *testing.T) {
	ctx := context.Background()
	custom := &CostModel{
		Name:            "hot",
		Reset:           cost.OpCost{EnergyPJ: 0.5, LatencyCycles: 2, Wear: 1},
		Set:             cost.OpCost{EnergyPJ: 0.9, LatencyCycles: 2, Wear: 1},
		RM3:             cost.OpCost{EnergyPJ: 4.25, LatencyCycles: 3, Wear: 1},
		EnduranceWrites: 1e6,
	}

	def := NewEngine(WithShrink(4), WithVerify(true))
	hot := NewEngine(WithShrink(4), WithVerify(true), WithCostModel(custom))
	mDef, err := def.Benchmark(ctx, "ctrl", 4)
	if err != nil {
		t.Fatal(err)
	}
	mHot, err := hot.Benchmark(ctx, "ctrl", 4)
	if err != nil {
		t.Fatal(err)
	}

	repDef, err := def.Run(ctx, mDef, Full)
	if err != nil {
		t.Fatal(err)
	}
	repHot, err := hot.Run(ctx, mHot, Full)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := repDef.Result.Program.Fingerprint(), repHot.Result.Program.Fingerprint(); a != b {
		t.Fatalf("cost model changed the compiled program: %016x vs %016x", a, b)
	}
	if repHot.Cost == nil || repHot.Verify == nil || repHot.Verify.Cost == nil {
		t.Fatal("custom-model run is unpriced")
	}
	if *repHot.Cost != *repHot.Verify.Cost {
		t.Fatalf("custom model static %+v != allocator %+v", *repHot.Verify.Cost, *repHot.Cost)
	}
	// Post-hoc pricing of the same program reproduces the in-run price —
	// the property Explore's model axis rests on.
	if got := custom.Program(repDef.Result.Program); got != *repHot.Cost {
		t.Fatalf("post-hoc price %+v != in-run price %+v", got, *repHot.Cost)
	}
}
