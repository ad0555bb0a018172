// Package rewrite implements the MIG Boolean-algebra rewriting passes used
// by the PLiM compiler (Soeken et al., DAC 2016, "Algorithm 1") and the
// endurance-aware variant proposed by Shirinzadeh et al. (DATE 2017,
// "Algorithm 2").
//
// All passes are implemented as deterministic topological reconstructions:
// the source MIG is swept in topological order, every live node is re-created
// in a fresh MIG through the structural-hashing constructor (which applies
// the trivial majority rules Ω.M eagerly), and individual passes additionally
// apply one axiom where it is locally profitable. Reconstruction guarantees
// termination and keeps graphs canonical between passes.
//
// Implemented axioms (naming follows the paper):
//
//	Ω.M            trivial majority rules (applied by every pass)
//	Ω.D  (R→L)     ⟨⟨x y u⟩ ⟨x y v⟩ z⟩ → ⟨x y ⟨u v z⟩⟩
//	Ω.A            ⟨x u ⟨y u z⟩⟩ → ⟨z u ⟨y u x⟩⟩ (profit-guided)
//	Ψ.C            ⟨x u ⟨y ū z⟩⟩ → ⟨x u ⟨y x z⟩⟩ (profit-guided)
//	Ω.I  (R→L 1–3) nodes with ≥2 complemented fanins → complemented node
//	               with ≤1 complemented fanins
//	Ω.I  (R→L)     nodes with 3 complemented fanins → complemented plain node
//
// Note on the paper text: the DATE 2017 PDF renders Ψ.C with a garbled
// overline (⟨y x̄ z⟩ instead of ⟨y ū z⟩). The version implemented here is the
// sound identity from Amarù et al. (DAC 2014): for every assignment either
// u = x (then both outer majorities collapse to x) or u = x̄ (then the outer
// majority selects its third input, which is the same on both sides). The
// rewrite tests prove all axioms over 8-row truth tables.
package rewrite

import (
	"context"

	"plim/internal/mig"
)

// Pass identifies a single rewriting pass in a pipeline.
type Pass uint8

// The individual passes. Their order inside a pipeline is the algorithm.
const (
	PassM     Pass = iota // Ω.M + Ω.D R→L is split: PassM is Ω.M only
	PassDRL               // Ω.D right-to-left
	PassA                 // Ω.A associativity (profit-guided)
	PassPsiC              // Ψ.C complementary associativity (profit-guided)
	PassIRL13             // Ω.I R→L rules (1)–(3): normalize to ≤1 complemented fanins
	PassIRL               // Ω.I R→L rule (1) only: eliminate 3-complemented nodes
)

// String names a pass like the paper does.
func (p Pass) String() string {
	switch p {
	case PassM:
		return "Ω.M"
	case PassDRL:
		return "Ω.D(R→L)"
	case PassA:
		return "Ω.A"
	case PassPsiC:
		return "Ψ.C"
	case PassIRL13:
		return "Ω.I(R→L,1–3)"
	case PassIRL:
		return "Ω.I(R→L)"
	}
	return "?"
}

// Algorithm1 is the MIG rewriting schedule of the baseline PLiM compiler
// (paper Algorithm 1): node minimization followed by inverter propagation.
var Algorithm1 = []Pass{
	PassM, PassDRL,
	PassA, PassPsiC,
	PassM, PassDRL,
	PassIRL13,
	PassIRL,
}

// Algorithm2 is the endurance-aware rewriting schedule (paper Algorithm 2):
// Ψ.C is removed (it destroys ideal single-complement nodes) and Ω.A is
// sandwiched between inverter-propagation passes.
var Algorithm2 = []Pass{
	PassM, PassDRL,
	PassIRL13, PassIRL,
	PassA,
	PassIRL13, PassIRL,
	PassM, PassDRL,
	PassIRL,
}

// Stats reports the effect of a rewriting run.
type Stats struct {
	Cycles         int // cycles actually executed (early exit on fixpoint)
	NodesBefore    int
	NodesAfter     int
	DepthBefore    int32
	DepthAfter     int32
	CompHistBefore [4]int
	CompHistAfter  [4]int
}

// Run applies the pipeline for up to effort cycles (the paper uses
// effort = 5) and returns the rewritten MIG together with statistics. The
// input MIG is not modified. Rewriting stops early when a full cycle reaches
// a fixpoint. Run cannot be cancelled; use RunContext for that.
func Run(m *mig.MIG, pipeline []Pass, effort int) (*mig.MIG, Stats) {
	out, st, _ := RunContext(context.Background(), m, pipeline, effort, nil)
	return out, st
}

// RunContext is Run with cooperative cancellation and per-cycle progress.
// Cancellation is checked between cycles (one cycle is the atomic unit of
// work); on cancellation the MIG result is nil and the error is ctx.Err().
// After every completed cycle onCycle (if non-nil) receives the 1-based
// cycle index and the current majority-node count.
//
// Internally the per-cycle pass loop runs over a pair of per-call arena
// MIGs (see scratch), so a whole rewriting run performs O(1) graph
// allocations regardless of effort; ownership of the final arena passes to
// the caller. With effort 0 the input m itself is returned — callers
// needing a private copy must clone on that path.
func RunContext(ctx context.Context, m *mig.MIG, pipeline []Pass, effort int, onCycle func(cycle, nodes int)) (*mig.MIG, Stats, error) {
	// One Statistics call per graph fills the stats and the fixpoint
	// fingerprint; a cycle's closing fingerprint is the next one's start.
	cur, s := m, m.Statistics()
	st := Stats{NodesBefore: s.MajNodes, DepthBefore: s.Depth, CompHistBefore: s.ComplementHist}
	fp := fingerprint(cur, s)
	sc := &scratch{}
	for cycle := 0; cycle < effort; cycle++ {
		if err := ctx.Err(); err != nil {
			return nil, st, err
		}
		for _, p := range pipeline {
			cur = applyPass(sc, cur, p)
		}
		cur = cleanupPass(sc, cur)
		st.Cycles = cycle + 1
		if onCycle != nil {
			onCycle(st.Cycles, cur.NumMaj())
		}
		s = cur.Statistics()
		last := fp
		if fp = fingerprint(cur, s); fp == last {
			break
		}
	}
	// cur is either the caller's input (effort 0) or one of sc's two
	// arenas. The scratch is private to this call and dies with it, so the
	// arena transfers ownership to the caller directly — cloning it here
	// would only duplicate the result to throw one copy away. Callers that
	// must not alias the input (core.RewriteCache) already clone on the
	// cur == m path themselves.
	st.NodesAfter, st.DepthAfter, st.CompHistAfter = s.MajNodes, s.Depth, s.ComplementHist
	return cur, st, nil
}

// fingerprint summarizes a graph cheaply from its statistics s; equal
// fingerprints across a cycle mean the cycle was an (extremely likely)
// fixpoint. Node count (dangling nodes included), PO signals, complement
// histogram and depth change whenever any pass changes anything
// structurally relevant to compilation.
func fingerprint(m *mig.MIG, s mig.Stats) [8]int {
	h := s.ComplementHist
	fp := [8]int{m.NumMaj(), m.NumPOs(), h[0], h[1], h[2], h[3]}
	for i := 0; i < m.NumPOs(); i++ {
		fp[6] = fp[6]*31 + int(m.PO(i))
	}
	fp[7] = int(s.Depth)
	return fp
}

func applyPass(sc *scratch, m *mig.MIG, p Pass) *mig.MIG {
	switch p {
	case PassM:
		return passMajority(sc, m)
	case PassDRL:
		return passDistributivityRL(sc, m)
	case PassA:
		return passAssociativity(sc, m)
	case PassPsiC:
		return passPsiC(sc, m)
	case PassIRL13:
		return passInverters(sc, m, true)
	case PassIRL:
		return passInverters(sc, m, false)
	}
	panic("rewrite: unknown pass")
}

// scratch is the reusable state of a rewriting run: two arena MIGs the
// per-cycle pass loop ping-pongs between (each pass reads one and rebuilds
// into the other, Reset in place) plus the translation/liveness/fanout
// buffers every sweep needs. A nil *scratch makes each pass allocate
// fresh state, which is what the single-pass axiom tests use.
type scratch struct {
	arenas [2]*mig.MIG
	xl8    []mig.Signal
	live   []bool
	fanout []int32
}

// nextArena returns an empty arena distinct from src, creating it on first
// use. src is at most one of the two arenas, so one is always free.
func (sc *scratch) nextArena(src *mig.MIG) *mig.MIG {
	for i := range sc.arenas {
		if sc.arenas[i] == src {
			continue
		}
		if sc.arenas[i] == nil {
			sc.arenas[i] = mig.NewSized(src.Name, src.NumNodes())
		} else {
			sc.arenas[i].Reset(src.Name)
		}
		return sc.arenas[i]
	}
	panic("rewrite: both arenas alias the source")
}

// rebuild holds the state of one reconstruction sweep.
type rebuild struct {
	src    *mig.MIG
	dst    *mig.MIG
	xl8    []mig.Signal // src node -> dst signal for the uncomplemented node
	live   []bool
	fanout []int32
}

func newRebuild(src *mig.MIG, sc *scratch) *rebuild {
	n := src.NumNodes()
	r := &rebuild{src: src}
	if sc == nil {
		r.dst = mig.NewSized(src.Name, n)
		r.xl8 = make([]mig.Signal, n)
		r.live = src.LiveNodes()
		r.fanout = make([]int32, n)
	} else {
		r.dst = sc.nextArena(src)
		if cap(sc.xl8) < n {
			sc.xl8 = make([]mig.Signal, n)
		}
		r.xl8 = sc.xl8[:n]
		clear(r.xl8)
		sc.live = src.LiveNodesInto(sc.live)
		r.live = sc.live
		if cap(sc.fanout) < n {
			sc.fanout = make([]int32, n)
		}
		r.fanout = sc.fanout[:n]
		clear(r.fanout)
	}
	// Fanout restricted to live parents: passes may leave dangling nodes
	// behind, and a dangling parent must not block a single-fanout guard.
	src.ForEachMaj(func(n mig.NodeID, c [3]mig.Signal) {
		if !r.live[n] {
			return
		}
		for _, ch := range c {
			r.fanout[ch.Node()]++
		}
	})
	for i := 0; i < src.NumPOs(); i++ {
		r.fanout[src.PO(i).Node()]++
	}
	for i := 0; i < src.NumPIs(); i++ {
		r.xl8[src.PINode(i)] = r.dst.AddPI(src.PIName(i))
	}
	return r
}

// get maps a source signal into the destination graph.
func (r *rebuild) get(s mig.Signal) mig.Signal {
	return r.xl8[s.Node()].NotIf(s.Complemented())
}

// finish copies the POs and returns the rebuilt graph.
func (r *rebuild) finish() *mig.MIG {
	for i := 0; i < r.src.NumPOs(); i++ {
		r.dst.AddPO(r.get(r.src.PO(i)), r.src.POName(i))
	}
	return r.dst
}

// sweep runs fn over every live majority node in topological order; fn must
// return the destination signal for the node.
func (r *rebuild) sweep(fn func(n mig.NodeID, c [3]mig.Signal) mig.Signal) *mig.MIG {
	r.src.ForEachMaj(func(n mig.NodeID, c [3]mig.Signal) {
		if !r.live[n] {
			return
		}
		r.xl8[n] = fn(n, c)
	})
	return r.finish()
}

// cleanupPass is mig.Cleanup as an arena sweep: dangling nodes are dropped
// and ids renumbered, but the surviving structure is preserved exactly
// (RawMaj, no folding), matching Cleanup's semantics without allocating a
// fresh graph per cycle.
func cleanupPass(sc *scratch, m *mig.MIG) *mig.MIG {
	r := newRebuild(m, sc)
	return r.sweep(func(_ mig.NodeID, c [3]mig.Signal) mig.Signal {
		return r.dst.RawMaj(r.get(c[0]), r.get(c[1]), r.get(c[2]))
	})
}

// passMajority rebuilds the graph through the hashing constructor, which
// applies Ω.M everywhere (including opportunities opened by earlier folds).
func passMajority(sc *scratch, m *mig.MIG) *mig.MIG {
	r := newRebuild(m, sc)
	return r.sweep(func(_ mig.NodeID, c [3]mig.Signal) mig.Signal {
		return r.dst.Maj(r.get(c[0]), r.get(c[1]), r.get(c[2]))
	})
}

// effChildren returns the effective child signals of a majority node seen
// through an edge with polarity comp: by self-duality,
// ⟨x y z⟩' = ⟨x̄ ȳ z̄⟩, so a complemented edge complements every child.
func effChildren(c [3]mig.Signal, comp bool) [3]mig.Signal {
	if !comp {
		return c
	}
	return [3]mig.Signal{c[0].Not(), c[1].Not(), c[2].Not()}
}

// passDistributivityRL applies Ω.D right-to-left:
// ⟨⟨x y u⟩ ⟨x y v⟩ z⟩ → ⟨x y ⟨u v z⟩⟩, saving one node whenever the two
// inner nodes have no other fanout. Polarities are handled through
// self-duality, so e.g. ⟨⟨x y u⟩' ⟨x̄ ȳ v⟩ z⟩ also matches with {x̄, ȳ}.
func passDistributivityRL(sc *scratch, m *mig.MIG) *mig.MIG {
	r := newRebuild(m, sc)
	return r.sweep(func(n mig.NodeID, c [3]mig.Signal) mig.Signal {
		// Try each pair of children as the two products.
		for ia := 0; ia < 3; ia++ {
			for ib := ia + 1; ib < 3; ib++ {
				a, b := c[ia], c[ib]
				if !m.IsMaj(a.Node()) || !m.IsMaj(b.Node()) {
					continue
				}
				// Only rewrite when the products die afterwards; otherwise
				// the rewrite adds a node instead of removing one.
				if r.fanout[a.Node()] != 1 || r.fanout[b.Node()] != 1 {
					continue
				}
				ea := effChildren(m.Children(a.Node()), a.Complemented())
				eb := effChildren(m.Children(b.Node()), b.Complemented())
				shared, restA, restB, ok := sharedPair(ea, eb)
				if !ok {
					continue
				}
				z := c[3-ia-ib] // the remaining child index
				inner := r.dst.Maj(r.get(restA), r.get(restB), r.get(z))
				return r.dst.Maj(r.get(shared[0]), r.get(shared[1]), inner)
			}
		}
		return r.dst.Maj(r.get(c[0]), r.get(c[1]), r.get(c[2]))
	})
}

// sharedPair finds exactly two signals common to both effective child sets
// and returns them plus each set's leftover signal.
func sharedPair(a, b [3]mig.Signal) (shared [2]mig.Signal, restA, restB mig.Signal, ok bool) {
	var inB [3]bool
	count := 0
	for _, sa := range a {
		for j, sb := range b {
			if sa == sb && !inB[j] {
				if count < 2 {
					shared[count] = sa
				}
				count++
				inB[j] = true
				break
			}
		}
	}
	if count != 2 {
		return shared, 0, 0, false
	}
	restA = remaining(a, shared)
	restB = remaining(b, shared)
	return shared, restA, restB, true
}

func remaining(set [3]mig.Signal, shared [2]mig.Signal) mig.Signal {
	used := [2]bool{}
	for _, s := range set {
		if s == shared[0] && !used[0] {
			used[0] = true
			continue
		}
		if s == shared[1] && !used[1] {
			used[1] = true
			continue
		}
		return s
	}
	return set[2]
}

// passAssociativity applies Ω.A, ⟨x u ⟨y u z⟩⟩ = ⟨z u ⟨y u x⟩⟩, when the
// swap is profitable: the new inner node ⟨y u x⟩ folds by Ω.M or already
// exists (sharing). The inner node must be single-fanout so the graph cannot
// grow.
func passAssociativity(sc *scratch, m *mig.MIG) *mig.MIG {
	r := newRebuild(m, sc)
	return r.sweep(func(n mig.NodeID, c [3]mig.Signal) mig.Signal {
		for ii := 0; ii < 3; ii++ { // candidate inner child
			w := c[ii]
			if !m.IsMaj(w.Node()) || r.fanout[w.Node()] != 1 {
				continue
			}
			ew := effChildren(m.Children(w.Node()), w.Complemented())
			rest := [2]int{(ii + 1) % 3, (ii + 2) % 3}
			for _, ui := range rest { // candidate shared operand u
				u := c[ui]
				xi := rest[0] + rest[1] - ui
				x := c[xi]
				// Find u inside the inner node's effective children.
				for k := 0; k < 3; k++ {
					if ew[k] != u {
						continue
					}
					// The other two inner children are y and z candidates.
					o1, o2 := ew[(k+1)%3], ew[(k+2)%3]
					for _, yz := range [2][2]mig.Signal{{o1, o2}, {o2, o1}} {
						y, z := yz[0], yz[1]
						du := r.get(u)
						dx := r.get(x)
						dy := r.get(y)
						if _, ok := r.dst.LookupMaj(dy, du, dx); ok {
							inner := r.dst.Maj(dy, du, dx)
							return r.dst.Maj(r.get(z), du, inner)
						}
					}
				}
			}
		}
		return r.dst.Maj(r.get(c[0]), r.get(c[1]), r.get(c[2]))
	})
}

// passPsiC applies Ψ.C, ⟨x u ⟨y ū z⟩⟩ = ⟨x u ⟨y x z⟩⟩, whenever the pattern
// matches on a single-fanout inner node. This mirrors the DAC'16 compiler's
// use of the axiom for node sharing — and reproduces exactly what the DATE'17
// paper criticizes about it: replacing the complemented operand ū by the
// plain x "removes a single complemented edge of an MIG node", destroying
// the ideal one-complement shape that maps to a single RM3 instruction.
// The endurance-aware Algorithm 2 therefore drops this pass.
func passPsiC(sc *scratch, m *mig.MIG) *mig.MIG {
	r := newRebuild(m, sc)
	return r.sweep(func(n mig.NodeID, c [3]mig.Signal) mig.Signal {
		for ii := 0; ii < 3; ii++ {
			w := c[ii]
			if !m.IsMaj(w.Node()) || r.fanout[w.Node()] != 1 {
				continue
			}
			ew := effChildren(m.Children(w.Node()), w.Complemented())
			rest := [2]int{(ii + 1) % 3, (ii + 2) % 3}
			for _, ui := range rest {
				u := c[ui]
				xi := rest[0] + rest[1] - ui
				x := c[xi]
				for k := 0; k < 3; k++ {
					if ew[k] != u.Not() {
						continue
					}
					// Inner contains ū: replace it by x.
					y, z := ew[(k+1)%3], ew[(k+2)%3]
					dx, dy, dz := r.get(x), r.get(y), r.get(z)
					inner := r.dst.Maj(dy, dx, dz)
					return r.dst.Maj(dx, r.get(u), inner)
				}
			}
		}
		return r.dst.Maj(r.get(c[0]), r.get(c[1]), r.get(c[2]))
	})
}

// passInverters normalizes complemented fanin edges (Ω.I right-to-left).
// With full=true it implements rules (1)–(3): any node whose rebuilt children
// carry two or three complemented non-constant edges is replaced by the
// complement of the node with all child polarities flipped, leaving at most
// one complemented fanin. With full=false only rule (1) applies (all three
// fanins complemented). The complement moves to the node's fanout edges and
// primary-output edges, where the sweep picks it up via the translation map.
func passInverters(sc *scratch, m *mig.MIG, full bool) *mig.MIG {
	r := newRebuild(m, sc)
	return r.sweep(func(n mig.NodeID, c [3]mig.Signal) mig.Signal {
		d := [3]mig.Signal{r.get(c[0]), r.get(c[1]), r.get(c[2])}
		comp, nonconst := 0, 0
		for _, s := range d {
			if s.IsConst() {
				continue
			}
			nonconst++
			if s.Complemented() {
				comp++
			}
		}
		flip := false
		if full {
			flip = comp >= 2 && nonconst-comp < comp
		} else {
			flip = comp == 3
		}
		if flip {
			return r.dst.Maj(d[0].Not(), d[1].Not(), d[2].Not()).Not()
		}
		return r.dst.Maj(d[0], d[1], d[2])
	})
}
