// Package suite provides the 18 benchmark functions of the paper's
// evaluation (§IV). The originals are the EPFL combinational benchmarks
// (http://lsi.epfl.ch/benchmarks), which cannot be fetched in an offline
// reproduction, so this package regenerates them:
//
//   - The arithmetic circuits are real functional implementations built
//     with internal/hdl at the paper's exact PI/PO counts (adder, bar, div,
//     log2, max, multiplier, sin, sqrt, square) plus the structural control
//     circuits that have a crisp specification (dec, int2float, priority,
//     voter).
//   - The five "random/control" circuits without a public specification
//     (cavlc, ctrl, i2c, mem_ctrl, router) are deterministic seeded random
//     MIGs with the paper's PI/PO counts and EPFL-comparable sizes.
//
// DESIGN.md discusses why this substitution preserves the paper's
// experimental trends. Every generator is deterministic: BuildScaled(name,
// shrink) always returns a structurally identical graph.
package suite

import (
	"fmt"
	"math/rand"
	"sort"

	"plim/internal/hdl"
	"plim/internal/mig"
)

// Info describes one benchmark at paper scale.
type Info struct {
	Name string
	PI   int // paper's primary input count
	PO   int // paper's primary output count
	// Synthetic marks the seeded random substitutes for EPFL circuits
	// without a public functional specification.
	Synthetic bool
}

type entry struct {
	info  Info
	build func(shrink int) *mig.MIG
}

// registry in the paper's Table I row order.
var registry = []entry{
	{Info{"adder", 256, 129, false}, buildAdder},
	{Info{"bar", 135, 128, false}, buildBar},
	{Info{"div", 128, 128, false}, buildDiv},
	{Info{"log2", 32, 32, false}, buildLog2},
	{Info{"max", 512, 130, false}, buildMax},
	{Info{"multiplier", 128, 128, false}, buildMultiplier},
	{Info{"sin", 24, 25, false}, buildSin},
	{Info{"sqrt", 128, 64, false}, buildSqrt},
	{Info{"square", 64, 128, false}, buildSquare},
	{Info{"cavlc", 10, 11, true}, buildCavlc},
	{Info{"ctrl", 7, 26, true}, buildCtrl},
	{Info{"dec", 8, 256, false}, buildDec},
	{Info{"i2c", 147, 142, true}, buildI2C},
	{Info{"int2float", 11, 7, false}, buildInt2Float},
	{Info{"mem_ctrl", 1204, 1231, true}, buildMemCtrl},
	{Info{"priority", 128, 8, false}, buildPriority},
	{Info{"router", 60, 30, true}, buildRouter},
	{Info{"voter", 1001, 1, false}, buildVoter},
}

// Names returns the benchmark names in the paper's table order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.info.Name
	}
	return out
}

// Get returns the paper-scale metadata for a benchmark.
func Get(name string) (Info, bool) {
	for _, e := range registry {
		if e.info.Name == name {
			return e.info, true
		}
	}
	return Info{}, false
}

// BuildScaled constructs a benchmark with datapath widths divided by shrink
// (minimum widths apply), for fast tests and benchmarks. shrink = 1 is
// paper scale; PI/PO counts only match Info at shrink 1.
func BuildScaled(name string, shrink int) (*mig.MIG, error) {
	if shrink < 1 {
		return nil, fmt.Errorf("suite: shrink must be ≥ 1")
	}
	for _, e := range registry {
		if e.info.Name == name {
			m := e.build(shrink)
			m.Name = name
			// Word-level construction leaves dangling helper nodes (unused
			// remainders, comparator internals); ship the live subgraph.
			m = m.Cleanup()
			if err := m.Validate(); err != nil {
				return nil, fmt.Errorf("suite: %s: %w", name, err)
			}
			return m, nil
		}
	}
	return nil, fmt.Errorf("suite: unknown benchmark %q (have %v)", name, Names())
}

func scaled(full, shrink, min int) int {
	w := full / shrink
	if w < min {
		w = min
	}
	return w
}

func buildAdder(shrink int) *mig.MIG {
	w := scaled(128, shrink, 4)
	b := hdl.NewNetlist("adder")
	x := b.Input("a", w)
	y := b.Input("b", w)
	sum, cout := b.Add(x, y, mig.Const0)
	b.Output("s", append(append(hdl.Vec{}, sum...), cout))
	return b.M
}

func buildBar(shrink int) *mig.MIG {
	w := scaled(128, shrink, 8) // power of two for rotation
	sh := 0
	for 1<<uint(sh) < w {
		sh++
	}
	b := hdl.NewNetlist("bar")
	data := b.Input("d", w)
	amount := b.Input("sh", sh)
	b.Output("o", b.BarrelRotl(data, amount))
	return b.M
}

func buildDiv(shrink int) *mig.MIG {
	w := scaled(64, shrink, 4)
	b := hdl.NewNetlist("div")
	num := b.Input("n", w)
	den := b.Input("d", w)
	q, r := b.DivRem(num, den)
	b.Output("q", q)
	b.Output("r", r)
	return b.M
}

func buildLog2(shrink int) *mig.MIG {
	w := scaled(32, shrink, 8)
	b := hdl.NewNetlist("log2")
	x := b.Input("x", w)
	intBits := 0
	for 1<<uint(intBits) < w {
		intBits++
	}
	ip, fp := b.Log2(x, w-intBits)
	b.Output("f", fp)
	b.Output("i", ip)
	return b.M
}

func buildMax(shrink int) *mig.MIG {
	w := scaled(128, shrink, 4)
	b := hdl.NewNetlist("max")
	var ins [4]hdl.Vec
	for i := range ins {
		ins[i] = b.Input(fmt.Sprintf("x%d", i), w)
	}
	m01, f01 := b.MaxU(ins[0], ins[1])
	m23, f23 := b.MaxU(ins[2], ins[3])
	m, fHi := b.MaxU(m01, m23)
	idxLo := b.M.Mux(fHi, f23, f01)
	b.Output("m", m)
	b.Output("idx", hdl.Vec{idxLo, fHi})
	return b.M
}

func buildMultiplier(shrink int) *mig.MIG {
	w := scaled(64, shrink, 4)
	b := hdl.NewNetlist("multiplier")
	x := b.Input("a", w)
	y := b.Input("b", w)
	b.Output("p", b.Mul(x, y))
	return b.M
}

func buildSin(shrink int) *mig.MIG {
	w := scaled(24, shrink, 8)
	b := hdl.NewNetlist("sin")
	angle := b.Input("theta", w)
	iters := w - 4
	if iters < 8 {
		iters = 8
	}
	b.Output("s", b.Sin(angle, iters))
	return b.M
}

func buildSqrt(shrink int) *mig.MIG {
	w := scaled(128, shrink, 4)
	if w%2 == 1 {
		w++
	}
	b := hdl.NewNetlist("sqrt")
	x := b.Input("x", w)
	b.Output("r", b.Sqrt(x))
	return b.M
}

func buildSquare(shrink int) *mig.MIG {
	w := scaled(64, shrink, 4)
	b := hdl.NewNetlist("square")
	x := b.Input("x", w)
	b.Output("p", b.Square(x))
	return b.M
}

func buildDec(shrink int) *mig.MIG {
	w := scaled(8, shrink, 3)
	b := hdl.NewNetlist("dec")
	sel := b.Input("s", w)
	b.Output("o", b.Decoder(sel))
	return b.M
}

func buildInt2Float(shrink int) *mig.MIG {
	// Small already; shrink has no effect.
	b := hdl.NewNetlist("int2float")
	x := b.Input("x", 11)
	exp, man := b.IntToFloat(x, 4, 3)
	b.Output("m", man)
	b.Output("e", exp)
	return b.M
}

func buildPriority(shrink int) *mig.MIG {
	w := scaled(128, shrink, 8)
	b := hdl.NewNetlist("priority")
	x := b.Input("r", w)
	idx, valid := b.PriorityEncoder(x)
	b.Output("i", idx)
	b.OutputBit("v", valid)
	return b.M
}

func buildVoter(shrink int) *mig.MIG {
	n := scaled(1001, shrink, 15)
	if n%2 == 0 {
		n++ // odd electorate, clean majority threshold
	}
	b := hdl.NewNetlist("voter")
	votes := b.Input("v", n)
	count := b.Popcount(votes)
	threshold := b.Const(uint64(n/2+1), len(count))
	b.OutputBit("maj", b.GeU(count, threshold))
	return b.M
}

// Seeded random control networks. Node-count targets are of the same order
// as the EPFL originals' gate counts.

func buildCavlc(shrink int) *mig.MIG {
	return randomControl("cavlc", 10, 11, scaledNodes(690, shrink), 0xCA41C)
}

func buildCtrl(shrink int) *mig.MIG {
	return randomControl("ctrl", 7, 26, scaledNodes(170, shrink), 0xC124)
}

func buildI2C(shrink int) *mig.MIG {
	return randomControl("i2c", 147, 142, scaledNodes(1340, shrink), 0x12C)
}

func buildMemCtrl(shrink int) *mig.MIG {
	return randomControl("mem_ctrl", 1204, 1231, scaledNodes(30000, shrink), 0x3E3C)
}

func buildRouter(shrink int) *mig.MIG {
	return randomControl("router", 60, 30, scaledNodes(260, shrink), 0x40_73)
}

func scaledNodes(full, shrink int) int {
	n := full / (shrink * shrink)
	if n < 40 {
		n = 40
	}
	return n
}

// randomControl generates a deterministic random MIG with exactly pis
// inputs and pos outputs and roughly targetNodes live majority nodes. The
// generator mimics control logic: mostly local fanin (recent signals) with
// occasional long-range edges — the level-diverse fanout structure behind
// the paper's "blocked RRAM" effect — and guarantees every input is used
// and every node stays live (sinks are merged and exported as outputs).
func randomControl(name string, pis, pos, targetNodes int, seed int64) *mig.MIG {
	rng := rand.New(rand.NewSource(seed))
	m := mig.New(name)

	sigs := make([]mig.Signal, 0, pis+targetNodes+pos)
	for i := 0; i < pis; i++ {
		sigs = append(sigs, m.AddPI(fmt.Sprintf("x%d", i)))
	}
	unusedPIs := make([]mig.Signal, len(sigs))
	copy(unusedPIs, sigs)

	const window = 48
	pick := func() mig.Signal {
		var s mig.Signal
		if rng.Intn(10) < 7 && len(sigs) > window {
			s = sigs[len(sigs)-1-rng.Intn(window)] // local edge
		} else {
			s = sigs[rng.Intn(len(sigs))] // long-range edge
		}
		if rng.Intn(3) == 0 {
			s = s.Not()
		}
		return s
	}

	for m.NumMaj() < targetNodes {
		a := pick()
		// Feed unused inputs in early so every PI is structurally used.
		if len(unusedPIs) > 0 {
			a = unusedPIs[0]
			unusedPIs = unusedPIs[1:]
			if rng.Intn(3) == 0 {
				a = a.Not()
			}
		}
		before := m.NumMaj()
		// Control netlists (the EPFL originals are AIG-derived) are
		// dominated by two-input gates; a minority of native majorities
		// keeps the structure MIG-flavoured.
		var s mig.Signal
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			s = m.And(a, pick())
		case 4, 5, 6:
			s = m.Or(a, pick())
		case 7:
			s = m.Maj(a, pick(), pick())
		default:
			s = m.Mux(pick(), a, pick())
		}
		if m.NumMaj() > before {
			sigs = append(sigs, s)
		} else if len(unusedPIs) == 0 {
			continue // folded or deduped; retry
		} else {
			// The unused PI folded away; put it back and retry with
			// different partners.
			unusedPIs = append([]mig.Signal{a}, unusedPIs...)
		}
	}

	// Merge sinks (fanout-0 nodes) until they fit the output count, then
	// export them; pad with random internal taps.
	sinks := sinkNodes(m)
	for len(sinks) > pos {
		a := sinks[len(sinks)-1]
		b := sinks[len(sinks)-2]
		sinks = sinks[:len(sinks)-2]
		var c mig.Signal
		if len(sinks) > 0 {
			c = mig.MakeSignal(sinks[rng.Intn(len(sinks))], false).Not()
		} else {
			c = pick()
		}
		s := m.Maj(mig.MakeSignal(a, false), mig.MakeSignal(b, rng.Intn(2) == 0), c)
		if !s.IsConst() && m.IsMaj(s.Node()) {
			sinks = append(sinks, s.Node())
			sinks = dedupe(sinks)
			sinks = onlySinks(m, sinks)
		}
	}
	for _, n := range sinks {
		comp := rng.Intn(4) == 0
		m.AddPO(mig.MakeSignal(n, comp), fmt.Sprintf("y%d", m.NumPOs()))
	}
	for m.NumPOs() < pos {
		s := sigs[len(sigs)-1-rng.Intn(min(len(sigs)-1, targetNodes/2+1))]
		if rng.Intn(4) == 0 {
			s = s.Not()
		}
		m.AddPO(s, fmt.Sprintf("y%d", m.NumPOs()))
	}
	return m.Cleanup()
}

func sinkNodes(m *mig.MIG) []mig.NodeID {
	fo := m.FanoutCounts()
	var sinks []mig.NodeID
	m.ForEachMaj(func(n mig.NodeID, _ [3]mig.Signal) {
		if fo[n] == 0 {
			sinks = append(sinks, n)
		}
	})
	return sinks
}

func dedupe(ns []mig.NodeID) []mig.NodeID {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	out := ns[:0]
	for i, n := range ns {
		if i == 0 || n != ns[i-1] {
			out = append(out, n)
		}
	}
	return out
}

func onlySinks(m *mig.MIG, ns []mig.NodeID) []mig.NodeID {
	fo := m.FanoutCounts()
	out := ns[:0]
	for _, n := range ns {
		if fo[n] == 0 {
			out = append(out, n)
		}
	}
	return out
}
