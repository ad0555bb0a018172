// Package cost prices PLiM instructions. It is the single pluggable cost
// abstraction behind every layer that previously carried its own write/wear
// accounting: a Model assigns each instruction class an energy, a cycle
// latency and a wear increment, and every layer (static verification,
// the compiler's allocator bookkeeping, the scalar interpreter, the batched
// executor) derives its totals from the same per-class op counts — so
// their costs must agree exactly, a parity the tests pin.
//
// The class of an instruction (isa.Instruction.Class) follows the PLiM
// operand forms: the two destination-independent presets RM3 #0,#1 → Z
// (RESET, Z ← 0) and RM3 #1,#0 → Z (SET, Z ← 1) are priced as bulk
// switching operations; every other instruction — compute, copy, invert —
// is a full resistive majority (RM3) whose result depends on the
// destination's prior state.
//
// Costs are derived canonically: totals are computed from integer per-class
// counts in one fixed expression (FromCounts), never accumulated
// per-instruction in floating point, so two layers that agree on the counts
// produce bit-identical energy totals regardless of summation order.
package cost

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"plim/internal/isa"
	"plim/internal/stats"
)

// OpCost prices one instruction class.
type OpCost struct {
	// EnergyPJ is the switching energy of one operation in picojoules.
	EnergyPJ float64 `json:"energy_pj"`
	// LatencyCycles is the controller occupancy of one operation.
	LatencyCycles uint64 `json:"latency_cycles"`
	// Wear is the endurance consumed by the destination cell per operation.
	// The default of 1 makes per-cell wear identical to the write counts the
	// rest of the system proves exact.
	Wear uint64 `json:"wear"`
}

// Model prices the three instruction classes and carries the endurance
// budget that turns wear into a lifetime estimate. Models never change
// which program is compiled — they only annotate it.
type Model struct {
	Name  string `json:"name"`
	Reset OpCost `json:"reset"`
	Set   OpCost `json:"set"`
	RM3   OpCost `json:"rm3"`
	// EnduranceWrites is the per-cell wear budget a device survives
	// (0 = unlimited; see Cost.LifetimeRuns).
	EnduranceWrites uint64 `json:"endurance_writes"`
}

// DefaultEndurance is the default model's per-cell endurance budget,
// matching the 10^10 write-cycle figure the serving layer reports
// lifetimes against.
const DefaultEndurance = 1e10

// Default returns the built-in model: representative metal-oxide RRAM
// switching energies (RESET pulses are cheaper than SET, and a full
// majority adds the operand reads), single-cycle presets against a
// three-cycle read-read-write majority, and a wear increment of 1 per
// write pulse — which makes default per-cell wear exactly the write
// counts the verifier proves, the parity the tests pin.
func Default() *Model {
	return &Model{
		Name:            "default",
		Reset:           OpCost{EnergyPJ: 1.4, LatencyCycles: 1, Wear: 1},
		Set:             OpCost{EnergyPJ: 2.1, LatencyCycles: 1, Wear: 1},
		RM3:             OpCost{EnergyPJ: 2.8, LatencyCycles: 3, Wear: 1},
		EnduranceWrites: DefaultEndurance,
	}
}

// Of returns the price of one class.
func (m *Model) Of(c isa.Class) OpCost {
	switch c {
	case isa.ClassReset:
		return m.Reset
	case isa.ClassSet:
		return m.Set
	default:
		return m.RM3
	}
}

// Validate rejects models that cannot price a program sensibly.
func (m *Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("cost: model has no name")
	}
	for c := isa.ClassReset; c < isa.NumClasses; c++ {
		oc := m.Of(c)
		if math.IsNaN(oc.EnergyPJ) || math.IsInf(oc.EnergyPJ, 0) || oc.EnergyPJ < 0 {
			return fmt.Errorf("cost: model %q: %s energy %v is not a finite non-negative number", m.Name, c, oc.EnergyPJ)
		}
		if oc.LatencyCycles == 0 {
			return fmt.Errorf("cost: model %q: %s latency must be at least one cycle", m.Name, c)
		}
	}
	return nil
}

// Load decodes a JSON model and validates it.
func Load(r io.Reader) (*Model, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	m := new(Model)
	if err := dec.Decode(m); err != nil {
		return nil, fmt.Errorf("cost: decoding model: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadFile reads a JSON model from path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// Cost is the priced outcome of one program execution (or, scaled, of a
// batch of executions). All totals derive from the per-class counts via
// FromCounts, so equal counts guarantee bit-identical totals.
type Cost struct {
	// Model names the model that priced this cost; costs priced under
	// different models are not comparable.
	Model string `json:"model"`

	Resets uint64 `json:"resets"`
	Sets   uint64 `json:"sets"`
	RM3s   uint64 `json:"rm3s"`
	// Ops is the total instruction count (the paper's #I when scale is 1).
	Ops uint64 `json:"ops"`

	EnergyPJ      float64 `json:"energy_pj"`
	LatencyCycles uint64  `json:"latency_cycles"`

	// TotalWear sums wear over all cells; MaxCellWear is the hottest cell's
	// wear — the quantity that bounds lifetime.
	TotalWear   uint64 `json:"total_wear"`
	MaxCellWear uint64 `json:"max_cell_wear"`

	// LifetimeRuns estimates how many runs of the program the endurance
	// budget survives: EnduranceWrites / MaxCellWear per single run. It is
	// stats.MaxLifetime (reported as unlimited) when the program writes no
	// cell or the model declares no budget, and stays a per-run figure even
	// in costs scaled over a batch.
	LifetimeRuns uint64 `json:"lifetime_runs"`
}

// Unlimited reports whether the cost's lifetime is unbounded (no wear, or
// no endurance budget to exhaust).
func (c Cost) Unlimited() bool { return c.LifetimeRuns == stats.MaxLifetime }

// FromCounts prices per-class op counts. maxCellWear is the hottest cell's
// accumulated wear, which the caller tracks per cell (the canonical helpers
// Price and Program do). This is the single derivation every layer shares.
func (m *Model) FromCounts(ops isa.ClassCounts, maxCellWear uint64) Cost {
	c := Cost{
		Model:       m.Name,
		Resets:      ops[isa.ClassReset],
		Sets:        ops[isa.ClassSet],
		RM3s:        ops[isa.ClassRM3],
		Ops:         ops.Total(),
		MaxCellWear: maxCellWear,
	}
	c.EnergyPJ = float64(ops[isa.ClassReset])*m.Reset.EnergyPJ +
		float64(ops[isa.ClassSet])*m.Set.EnergyPJ +
		float64(ops[isa.ClassRM3])*m.RM3.EnergyPJ
	c.LatencyCycles = ops[isa.ClassReset]*m.Reset.LatencyCycles +
		ops[isa.ClassSet]*m.Set.LatencyCycles +
		ops[isa.ClassRM3]*m.RM3.LatencyCycles
	c.TotalWear = ops[isa.ClassReset]*m.Reset.Wear +
		ops[isa.ClassSet]*m.Set.Wear +
		ops[isa.ClassRM3]*m.RM3.Wear
	c.LifetimeRuns = lifetimeRuns(m.EnduranceWrites, maxCellWear)
	return c
}

// lifetimeRuns applies the infinite-lifetime convention shared with
// stats.Lifetime: a program that wears no cell — or a model without an
// endurance budget — never exhausts a device.
func lifetimeRuns(endurance, maxCellWear uint64) uint64 {
	if maxCellWear == 0 || endurance == 0 {
		return stats.MaxLifetime
	}
	return endurance / maxCellWear
}

// Program prices a whole program from the counts it keeps: its per-class
// op counts, and its per-cell writes by class for the hottest cell's wear.
// It equals a walk over the instructions for every model, whatever the
// per-class wear.
func (m *Model) Program(p *isa.Program) Cost {
	var maxWear uint64
	for _, n := range p.CellClassCounts() {
		w := n[isa.ClassReset]*m.Reset.Wear + n[isa.ClassSet]*m.Set.Wear + n[isa.ClassRM3]*m.RM3.Wear
		maxWear = max(maxWear, w)
	}
	return m.FromCounts(p.ClassCounts(), maxWear)
}

// Prefix prices the first n instructions of p in one walk: per-class
// counts plus per-cell wear for the lifetime bound.
func (m *Model) Prefix(p *isa.Program, n int) Cost {
	var ops isa.ClassCounts
	wear := make([]uint64, p.NumCells())
	for i, ins := range p.Insts() {
		if i == n {
			break
		}
		c := ins.Class()
		ops[c]++
		wear[ins.Z] += m.Of(c).Wear
	}
	return m.FromCounts(ops, slices.Max(append(wear, 0)))
}

// Scale prices n executions of a run costing c: counts, energy, latency and
// wear all scale by n, re-derived through the canonical expression so a
// scaled cost equals an independently accumulated batch cost exactly.
// LifetimeRuns stays the per-run figure — a batch does not change how many
// runs the endurance budget survives.
func (m *Model) Scale(c Cost, n uint64) Cost {
	out := m.FromCounts(isa.ClassCounts{c.Resets * n, c.Sets * n, c.RM3s * n}, c.MaxCellWear*n)
	out.LifetimeRuns = c.LifetimeRuns
	return out
}
