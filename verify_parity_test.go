package plim

import (
	"context"
	"testing"

	"plim/internal/verify"
)

// TestStaticDynamicWriteParity pins the contract the whole endurance model
// rests on: for straight-line RM3 programs, the verifier's static per-cell
// write counts are exact — equal to the allocator's accounting, to the
// wear the scalar interpreter's crossbar records, and to the batched
// executor's aggregate wear divided by the lane count. It runs every
// Table I configuration plus the capped Table III configuration, with the
// engine's verification stage enabled (so a violation fails compilation
// itself).
func TestStaticDynamicWriteParity(t *testing.T) {
	ctx := context.Background()
	const lanes = 64

	eng := NewEngine(WithShrink(4), WithVerify(true))
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
			vr := rep.Verify
			if vr == nil {
				t.Fatal("engine ran WithVerify but Report.Verify is nil")
			}
			if !vr.OK() {
				t.Fatalf("verifier rejected a production compile: %v", vr.Err())
			}
			if len(vr.DeadWrites) != 0 {
				t.Fatalf("compiler emitted %d dead writes: %v", len(vr.DeadWrites), vr.DeadWrites)
			}

			p := rep.Result.Program
			static := vr.WriteCounts
			mustEqual(t, "allocator", static, rep.Result.WriteCounts, 1)
			mustEqual(t, "isa.StaticWriteCounts", static, p.StaticWriteCounts(), 1)

			// Scalar interpreter: one run on a fresh crossbar.
			inputs := make([]bool, p.NumPIs())
			for i := range inputs {
				inputs[i] = i%3 == 0
			}
			_, xbar, err := Execute(p, inputs)
			if err != nil {
				t.Fatal(err)
			}
			mustEqual(t, "interpreter crossbar", static, xbar.WriteCounts(int(p.NumCells())), 1)

			// Batched executor: aggregate wear over 64 lanes is 64× static.
			b := RandomBatch(p.NumPIs(), lanes, 7)
			res, err := ExecuteBatch(p, b, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			mustEqual(t, "batched executor", static, res.Writes, lanes)

			// And the library-level cross-check agrees.
			if !verify.CheckWriteParity(vr, rep.Result.WriteCounts, "allocator-recheck") {
				t.Fatalf("CheckWriteParity diverged: %v", vr.Violations)
			}
		})
	}
}

// mustEqual asserts got[i] == scale*static[i] for every cell.
func mustEqual(t *testing.T, source string, static, got []uint64, scale uint64) {
	t.Helper()
	if len(got) != len(static) {
		t.Fatalf("%s: %d cells, verifier saw %d", source, len(got), len(static))
	}
	for i := range static {
		if got[i] != static[i]*scale {
			t.Fatalf("%s: cell %d wrote %d times, static count %d (scale %d): static and dynamic wear diverged",
				source, i, got[i], static[i], scale)
		}
	}
}
