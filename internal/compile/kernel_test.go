package compile

import (
	"math"
	"testing"

	"plim/internal/alloc"
	"plim/internal/mig"
)

// The reference implementations below are the compile kernel's former
// decision procedures, kept verbatim apart from reading a node's children
// from its contributions: the six-permutation plan evaluator that translate
// used to run, and the three-policy candidate comparator. The equivalence
// tests hold the cost table and the packed candidate keys to them.

type refSlotPlan struct {
	extraInsts int
	freshCells int
	inPlace    bool
}

type refPlan struct {
	perm  [3]int
	insts int
	fresh int
	valid bool
}

// refAssign picks the operand assignment the way translate and executePlan
// used to: the cheapest valid plan by refPlanLess, and executePlan's
// in-place test on the chosen Z contribution.
func refAssign(c *compiler, contribs [3]contribution) (perm [3]int, inPlace bool) {
	best := refPlan{valid: false}
	perms := [6][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, perm := range perms {
		p := refEvaluatePlan(c, contribs, perm)
		if !p.valid {
			continue
		}
		if !best.valid || refPlanLess(p, best) {
			best = p
		}
	}
	ctZ := contribs[best.perm[slotZ]]
	inPlace = !ctZ.isConst && !ctZ.comp && refIsLastUse(c, contribs, ctZ.node) && c.alloc.CanWrite(c.cell[ctZ.node], 1)
	return best.perm, inPlace
}

func refPlanLess(a, b refPlan) bool {
	if a.insts != b.insts {
		return a.insts < b.insts
	}
	if a.fresh != b.fresh {
		return a.fresh < b.fresh
	}
	return false // earlier permutation wins (evaluation order)
}

func refEvaluatePlan(c *compiler, contribs [3]contribution, perm [3]int) refPlan {
	p := refPlan{perm: perm, valid: true}
	for slot := slotA; slot <= slotZ; slot++ {
		ct := contribs[perm[slot]]
		sp, ok := refEvaluateSlot(c, contribs, ct, slot)
		if !ok {
			return refPlan{valid: false}
		}
		p.insts += sp.extraInsts
		p.fresh += sp.freshCells
	}
	p.insts++ // the main RM3
	return p
}

func refEvaluateSlot(c *compiler, contribs [3]contribution, ct contribution, slot int) (refSlotPlan, bool) {
	switch slot {
	case slotA:
		if ct.isConst || !ct.comp {
			return refSlotPlan{}, true
		}
		return refSlotPlan{extraInsts: 2, freshCells: 1}, true // inverted copy
	case slotB:
		if ct.isConst || ct.comp {
			return refSlotPlan{}, true
		}
		return refSlotPlan{extraInsts: 2, freshCells: 1}, true // inverted copy
	default: // slotZ
		if ct.isConst {
			return refSlotPlan{extraInsts: 1, freshCells: 1}, true // preset
		}
		if !ct.comp && refIsLastUse(c, contribs, ct.node) && c.alloc.CanWrite(c.cell[ct.node], 1) {
			return refSlotPlan{inPlace: true}, true
		}
		// Plain or inverted copy into a fresh device.
		return refSlotPlan{extraInsts: 2, freshCells: 1}, true
	}
}

// refIsLastUse reports whether the node with these contributions is the
// last consumer of child cn.
func refIsLastUse(c *compiler, contribs [3]contribution, cn mig.NodeID) bool {
	uses := int32(0)
	for _, ct := range contribs {
		if !ct.isConst && ct.node == cn {
			uses++
		}
	}
	return c.remaining[cn] == uses
}

// refEntry is an unpacked candidate key.
type refEntry struct {
	node      mig.NodeID
	releasing int32
	foLevel   int32
}

// refLess is the former candidate comparator.
func refLess(policy Selection, a, b refEntry) bool {
	switch policy {
	case Standard:
		// Max releasing first, then min fanout level, then id.
		if a.releasing != b.releasing {
			return a.releasing > b.releasing
		}
		if a.foLevel != b.foLevel {
			return a.foLevel < b.foLevel
		}
	case Endurance:
		// Min fanout level first (shortest storage duration), then max
		// releasing — paper Algorithm 3.
		if a.foLevel != b.foLevel {
			return a.foLevel < b.foLevel
		}
		if a.releasing != b.releasing {
			return a.releasing > b.releasing
		}
	}
	// NodeOrder and all ties: construction order.
	return a.node < b.node
}

// operandClass is one way a contribution can enter a node's majority.
type operandClass int

const (
	classConst0 operandClass = iota
	classConst1
	classDyingWritable // uncomplemented, last use, device has cap headroom
	classDyingCapped   // uncomplemented, last use, device at its cap
	classLive          // uncomplemented, still needed after this node
	classComplemented
	numOperandClasses
)

func (k operandClass) String() string {
	return [...]string{"const0", "const1", "dying", "capped", "live", "comp"}[k]
}

// TestAssignMatchesReference holds the cost table to the former
// six-permutation evaluator on every combination of operand classes: both
// must pick the same permutation and the same in-place decision.
func TestAssignMatchesReference(t *testing.T) {
	const maxWrites = 4
	var combos [][3]operandClass
	for x := operandClass(0); x < numOperandClasses; x++ {
		for y := operandClass(0); y < numOperandClasses; y++ {
			for z := operandClass(0); z < numOperandClasses; z++ {
				combos = append(combos, [3]operandClass{x, y, z})
			}
		}
	}
	for _, classes := range combos {
		c := &compiler{
			alloc:     alloc.New(alloc.MinWrite, maxWrites),
			cell:      make([]uint32, 4),
			remaining: make([]int32, 4),
		}
		var contribs [3]contribution
		for i, k := range classes {
			if k == classConst0 || k == classConst1 {
				contribs[i] = contribution{isConst: true, constVal: k == classConst1}
				continue
			}
			// Each non-constant contribution is its own child node.
			n := mig.NodeID(i + 1)
			c.cell[n] = c.alloc.Acquire(0)
			c.remaining[n] = 1
			switch k {
			case classDyingCapped:
				c.alloc.NoteWrite(c.cell[n], maxWrites)
			case classLive:
				c.remaining[n] = 2
			}
			contribs[i] = contribution{node: n, comp: k == classComplemented}
		}
		wantPerm, wantInPlace := refAssign(c, contribs)
		perm, inPlace := c.assign(&contribs)
		gotPerm := [3]int{int(perm[0]), int(perm[1]), int(perm[2])}
		if gotPerm != wantPerm || inPlace != wantInPlace {
			t.Errorf("%v: assign gives %v in-place=%v, reference %v in-place=%v",
				classes, gotPerm, inPlace, wantPerm, wantInPlace)
		}
	}
}

// TestPackedKeyOrderMatchesReference holds the packed candidate keys to the
// former comparator on every pair drawn from the key's extremes, and checks
// that decoding inverts packing.
func TestPackedKeyOrderMatchesReference(t *testing.T) {
	var entries []refEntry
	for rel := int32(0); rel <= maxReleasing; rel++ {
		for _, fo := range []int32{0, 1, 2, 7, 1 << 20, maxFoLevel - 1, maxFoLevel} {
			for _, id := range []mig.NodeID{0, 1, 2, 1 << 31, math.MaxUint32 - 1, math.MaxUint32} {
				entries = append(entries, refEntry{node: id, releasing: rel, foLevel: fo})
			}
		}
	}
	for _, policy := range []Selection{NodeOrder, Standard, Endurance} {
		h := candidateHeap{policy: policy}
		for _, a := range entries {
			ka := h.key(a.node, a.releasing, a.foLevel)
			if policy != NodeOrder {
				if n, rel, fo := h.decode(ka); (refEntry{n, rel, fo}) != a {
					t.Fatalf("%v: %+v decodes as %+v", policy, a, refEntry{n, rel, fo})
				}
			}
			for _, b := range entries {
				kb := h.key(b.node, b.releasing, b.foLevel)
				if got, want := ka < kb, refLess(policy, a, b); got != want {
					t.Fatalf("%v: key(%+v) < key(%+v) is %v, reference says %v", policy, a, b, got, want)
				}
			}
		}
	}
}
