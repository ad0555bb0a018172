package compile

import (
	"fmt"

	"plim/internal/mig"
)

// candidateHeap orders computable nodes by the configured selection policy.
// Every entry is one packed key (see heapEntry), so comparing two candidates
// is one integer comparison. The node id is part of every key and a node is
// queued at most once at a time, so the keys in the heap are unique and the
// pop order is fixed by key order alone, whatever the sift operations do
// with ties. The backing slice comes from the compile scratch and is reused
// across compilations.
//
// The "releasing" component of a key is dynamic — sibling computations can
// turn a child into a dying child — so entries carry a snapshot and popBest
// re-validates it lazily: a popped entry whose snapshot is stale is
// re-pushed with its fresh key. Releasing counts only grow while a node
// waits (uses of its children only decrease), so every node is popped a
// bounded number of times.
type candidateHeap struct {
	policy  Selection
	entries []heapEntry
}

// heapEntry is a candidate's packed key; the smallest key pops first. The
// node id fills the low 32 bits as the final tie-break. Above it, Standard
// keys hold 3 − releasing (2 bits) over the fanout level (30 bits): the most
// releasing devices first, then the smallest fanout level. Endurance keys
// hold the fanout level over 3 − releasing (paper Algorithm 3). NodeOrder
// keys are the node id alone.
type heapEntry uint64

const (
	// maxReleasing is the most devices one node can release: its three
	// children.
	maxReleasing = 3
	// maxFoLevel is the largest fanout level a key can hold; newCompiler
	// rejects graphs deep enough to exceed it.
	maxFoLevel = 1<<30 - 1
)

// key packs a candidate under the heap's policy.
func (h *candidateHeap) key(n mig.NodeID, releasing, foLevel int32) heapEntry {
	id, rel, fo := heapEntry(n), heapEntry(maxReleasing-releasing), heapEntry(foLevel)
	switch h.policy {
	case Standard:
		return rel<<62 | fo<<32 | id
	case Endurance:
		return fo<<34 | rel<<32 | id
	}
	return id
}

// decode unpacks a Standard or Endurance key.
func (h *candidateHeap) decode(e heapEntry) (n mig.NodeID, releasing, foLevel int32) {
	if h.policy == Standard {
		return mig.NodeID(e), maxReleasing - int32(e>>62), int32(e >> 32 & maxFoLevel)
	}
	return mig.NodeID(e), maxReleasing - int32(e>>32&3), int32(e >> 34)
}

func (h *candidateHeap) Len() int { return len(h.entries) }

func (h *candidateHeap) pushEntry(e heapEntry) {
	h.entries = append(h.entries, e)
	h.up(len(h.entries) - 1)
}

func (h *candidateHeap) popEntry() heapEntry {
	n := len(h.entries) - 1
	h.entries[0], h.entries[n] = h.entries[n], h.entries[0]
	h.down(0, n)
	e := h.entries[n]
	h.entries = h.entries[:n]
	return e
}

func (h *candidateHeap) up(j int) {
	es := h.entries
	for {
		i := (j - 1) / 2 // parent
		if i == j || es[j] >= es[i] {
			break
		}
		es[i], es[j] = es[j], es[i]
		j = i
	}
}

func (h *candidateHeap) down(i0, n int) {
	es := h.entries
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && es[j2] < es[j1] {
			j = j2 // = 2*i + 2, right child
		}
		if es[j] >= es[i] {
			break
		}
		es[i], es[j] = es[j], es[i]
		i = j
	}
}

// releasingCount returns how many devices computing n would free: distinct
// non-constant children whose remaining uses are exactly n's own uses of
// them (n is their last consumer). One scan suffices: for each child, the
// backward half of the triple detects duplicates (only the first occurrence
// counts) and the forward half tallies n's remaining uses of it.
func (c *compiler) releasingCount(n mig.NodeID) int32 {
	ch := c.m.Children(n)
	var cnt int32
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
		uses := int32(1)
		for j := i + 1; j < 3; j++ {
			if ch[j].Node() == cn {
				uses++
			}
		}
		if c.remaining[cn] == uses {
			cnt++
		}
	}
	return cnt
}

// push inserts a candidate with a fresh key snapshot.
func (c *compiler) push(n mig.NodeID) {
	c.heap.pushEntry(c.heap.key(n, c.releasingCount(n), c.foLevel[n]))
}

// popBest pops the top candidate, re-validating its dynamic key. It returns
// ok=false when the popped entry was stale and has been re-pushed; callers
// loop until the heap empties or a valid entry appears.
//
// Of the three key components only `releasing` is dynamic: a node's id never
// changes and its fanout level is fixed once newCompiler has swept the graph
// (no parent edges are added or removed during compilation), so those two
// are trusted from the snapshot and only the releasing count is recomputed.
// The invariant is asserted here — a drifting foLevel would mean the
// priority order itself is stale, which lazy re-push cannot repair.
// NodeOrder keys are the id alone, so there is nothing to re-validate.
func (c *compiler) popBest() (mig.NodeID, bool) {
	e := c.heap.popEntry()
	if c.heap.policy == NodeOrder {
		return mig.NodeID(e), true
	}
	n, releasing, foLevel := c.heap.decode(e)
	if foLevel != c.foLevel[n] {
		panic(fmt.Sprintf("compile: fanout level of node %d changed while queued (%d -> %d); popBest assumes it is static",
			n, foLevel, c.foLevel[n]))
	}
	if rel := c.releasingCount(n); rel != releasing {
		c.heap.pushEntry(c.heap.key(n, rel, foLevel))
		return 0, false
	}
	return n, true
}
