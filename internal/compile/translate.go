package compile

import (
	"fmt"

	"plim/internal/isa"
	"plim/internal/mig"
)

// contribution is one of the three values entering a node's majority.
type contribution struct {
	isConst  bool
	constVal bool       // value when isConst
	node     mig.NodeID // child node when !isConst
	comp     bool       // contribution is the complement of the child's value
}

const (
	slotA = 0
	slotB = 1
	slotZ = 2
)

// Slot costs beyond the main RM3, packed as extraInsts<<2 | freshCells; an
// operand read as is, or a Z overwritten in place, costs zero. A node needs
// at most three fresh devices, so sums of packed costs order operand
// assignments by extra instructions first and fresh devices second.
const (
	costPreset = 1<<2 | 1 // Z preset to a constant in a fresh device
	costCopy   = 2<<2 | 1 // preset plus plain or inverted copy into a fresh device
)

// perms lists the operand assignments — the contribution index for slots A,
// B and Z — in tie-break order.
var perms = [6][3]uint8{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

// translate emits the RM3 sequence computing node n and updates liveness.
func (c *compiler) translate(n mig.NodeID) error {
	var contribs [3]contribution
	for i, s := range c.m.Children(n) {
		if s.IsConst() {
			contribs[i] = contribution{isConst: true, constVal: s == mig.Const1}
			continue
		}
		if !c.computed[s.Node()] {
			return fmt.Errorf("compile: node %d selected before child %d", n, s.Node())
		}
		contribs[i] = contribution{node: s.Node(), comp: s.Complemented()}
	}
	perm, inPlace := c.assign(&contribs)
	return c.executePlan(n, &contribs, perm, inPlace)
}

// assign picks the operand assignment for a node's contributions. A reads
// its operand as is, so a complemented contribution there needs an inverted
// copy; B reads it inverted, so an uncomplemented one does; Z is
// overwritten, so it needs a preset or a copy, unless it is an
// uncomplemented child this node consumes last whose device may take one
// more write under the cap, which is then overwritten in place. The first
// assignment in perms with the smallest cost sum wins. assign returns the
// contribution index for slots A, B and Z, and whether Z is overwritten in
// place.
//
// The choice is deliberately NOT a function of write counts beyond the cap:
// the paper's minimum-write strategy lives entirely in the allocator, which
// keeps translation identical across allocation policies (the paper's
// observation that min-write changes neither #I nor #R falls out
// structurally). An earlier revision broke ties toward the least-written
// in-place destination; on mux-heavy circuits that systematically released
// the hottest device into a near-empty free pool, which then recycled it for
// the next copy destination, concentrating writes instead of spreading them.
func (c *compiler) assign(contribs *[3]contribution) (perm [3]uint8, inPlace bool) {
	var cost [3][3]uint8 // cost[slot][contribution]
	var canInPlace [3]bool
	for i := range contribs {
		ct := &contribs[i]
		switch {
		case ct.isConst:
			cost[slotZ][i] = costPreset
		case ct.comp:
			cost[slotA][i] = costCopy
			cost[slotZ][i] = costCopy
		default:
			cost[slotB][i] = costCopy
			// The child dies here when all its remaining uses are this
			// node's (constants carry node 0, which no child shares).
			uses := int32(0)
			for j := range contribs {
				if contribs[j].node == ct.node {
					uses++
				}
			}
			if c.remaining[ct.node] == uses && c.alloc.CanWrite(c.cell[ct.node], 1) {
				canInPlace[i] = true
			} else {
				cost[slotZ][i] = costCopy
			}
		}
	}
	var best uint8
	for i, p := range perms {
		if s := cost[slotA][p[slotA]] + cost[slotB][p[slotB]] + cost[slotZ][p[slotZ]]; i == 0 || s < best {
			best, perm = s, p
		}
	}
	return perm, canInPlace[perm[slotZ]]
}

// executePlan emits the instructions for the operand assignment chosen by
// assign and updates compiler state.
func (c *compiler) executePlan(n mig.NodeID, contribs *[3]contribution, perm [3]uint8, inPlace bool) error {
	var ops [2]isa.Operand // A and B
	// Inverted copies to release after the main RM3: at most one per
	// A/B slot, so a fixed array avoids a per-node allocation.
	var temps [2]uint32
	nTemps := 0
	var dest uint32

	// Materialize the destination first (its copy reads child devices that
	// nothing below destroys), then the temporaries.
	ctZ := contribs[perm[slotZ]]
	switch {
	case ctZ.isConst:
		dest = c.alloc.Acquire(2)
		c.emitPreset(dest, ctZ.constVal)
	case inPlace:
		dest = c.cell[ctZ.node]
	case ctZ.comp:
		// Fresh device preloaded with the complemented child value.
		dest = c.alloc.Acquire(3)
		c.emitPreset(dest, true)
		c.emit(isa.Instruction{A: isa.Zero, B: isa.Cell(c.cell[ctZ.node]), Z: dest})
	default:
		// Fresh device preloaded with the plain child value.
		dest = c.alloc.Acquire(3)
		c.emitPreset(dest, false)
		c.emit(isa.Instruction{A: isa.Cell(c.cell[ctZ.node]), B: isa.Zero, Z: dest})
	}

	for slot := slotA; slot <= slotB; slot++ {
		ct := contribs[perm[slot]]
		switch {
		case ct.isConst:
			v := ct.constVal
			if slot == slotB {
				v = !v // the operation inverts B
			}
			ops[slot] = isa.Const(v)
		case (slot == slotA && !ct.comp) || (slot == slotB && ct.comp):
			ops[slot] = isa.Cell(c.cell[ct.node])
		default:
			// Inverted copy: tmp ← ¬child.
			tmp := c.alloc.Acquire(2)
			c.emitPreset(tmp, true)
			c.emit(isa.Instruction{A: isa.Zero, B: isa.Cell(c.cell[ct.node]), Z: tmp})
			ops[slot] = isa.Cell(tmp)
			temps[nTemps] = tmp
			nTemps++
		}
	}

	c.emit(isa.Instruction{A: ops[slotA], B: ops[slotB], Z: dest})

	// Liveness updates: child uses are consumed, then scratch devices die.
	// Children release before temporaries so that, under the naive LIFO
	// free list, the next scratch request reuses a freshly dead child
	// instead of ping-ponging on the same temporary device forever.
	for _, s := range c.m.Children(n) {
		cn := s.Node()
		if cn == 0 {
			continue
		}
		c.remaining[cn]--
		if c.remaining[cn] < 0 {
			return fmt.Errorf("compile: negative remaining uses on node %d", cn)
		}
	}
	ch := c.m.Children(n)
	for i, s := range ch {
		cn := s.Node()
		if cn == 0 {
			continue
		}
		dup := false
		for j := 0; j < i; j++ {
			if ch[j].Node() == cn {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if c.remaining[cn] == 0 && !(inPlace && cn == ctZ.node) {
			c.alloc.Release(c.cell[cn])
		}
	}
	for _, tmp := range temps[:nTemps] {
		c.alloc.Release(tmp)
	}

	c.cell[n] = dest
	c.computed[n] = true
	return nil
}
