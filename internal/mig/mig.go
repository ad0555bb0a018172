// Package mig implements Majority-Inverter Graphs (MIGs), the logic
// representation used by the PLiM in-memory computer and by the
// endurance-aware compilation flow of Shirinzadeh et al. (DATE 2017).
//
// An MIG is a directed acyclic graph whose internal nodes are three-input
// majority gates ⟨x y z⟩ = xy ∨ xz ∨ yz and whose edges may be complemented.
// Together with the constant 0, majority and complementation are universal.
//
// The package provides structural-hash construction (the trivial majority
// rules Ω.M are applied eagerly), word-parallel simulation, structural
// queries (levels, fanouts, topological order) used by the compiler's node
// selection, the .mig text interchange format and a compact binary codec
// for the persistent cache.
package mig

import (
	"fmt"
	"maps"
)

// NodeID indexes a node inside an MIG. Node 0 is always the constant-0 node.
type NodeID uint32

// Signal is a reference to a node with an optional complement. The low bit
// holds the complement flag and the remaining bits the NodeID, so signals are
// cheap values that can be stored and compared directly.
type Signal uint32

// The two constant signals. Const0 is node 0 itself; Const1 is its
// complement.
const (
	Const0 Signal = 0
	Const1 Signal = 1
)

// MakeSignal builds a signal from a node and a complement flag.
func MakeSignal(n NodeID, complement bool) Signal {
	s := Signal(n) << 1
	if complement {
		s |= 1
	}
	return s
}

// Node returns the node the signal points to.
func (s Signal) Node() NodeID { return NodeID(s >> 1) }

// Complemented reports whether the signal inverts its node's value.
func (s Signal) Complemented() bool { return s&1 == 1 }

// Not returns the complemented signal.
func (s Signal) Not() Signal { return s ^ 1 }

// NotIf complements the signal when c is true.
func (s Signal) NotIf(c bool) Signal {
	if c {
		return s ^ 1
	}
	return s
}

// IsConst reports whether the signal is Const0 or Const1.
func (s Signal) IsConst() bool { return s.Node() == 0 }

// String renders the signal as the node id, prefixed by '!' when
// complemented; the constants render as "0" and "1".
func (s Signal) String() string {
	if s == Const0 {
		return "0"
	}
	if s == Const1 {
		return "1"
	}
	if s.Complemented() {
		return fmt.Sprintf("!%d", s.Node())
	}
	return fmt.Sprintf("%d", s.Node())
}

// Kind distinguishes the three node types of an MIG.
type Kind uint8

// Node kinds: the constant-0 node, primary inputs, and majority gates.
const (
	KindConst Kind = iota
	KindPI
	KindMaj
)

type node struct {
	kind     Kind
	children [3]Signal // valid for KindMaj only, sorted ascending
	piIndex  int32     // valid for KindPI only
}

// MIG is a mutable majority-inverter graph. The zero value is not usable;
// call New.
//
// Nodes are created in topological order: a majority node's children always
// have smaller NodeIDs, so iterating ids ascending is a topological sweep.
type MIG struct {
	Name string

	nodes   []node
	piNodes []NodeID
	piNames []string
	pos     []Signal
	poNames []string

	strash map[[3]Signal]NodeID
}

// New returns an empty MIG containing only the constant node. The
// structural-hash map grows lazily; callers that know their graph's
// magnitude should use NewSized.
func New(name string) *MIG {
	m := &MIG{
		Name:   name,
		nodes:  make([]node, 1, 1024),
		strash: make(map[[3]Signal]NodeID),
	}
	m.nodes[0] = node{kind: KindConst}
	return m
}

// NewSized returns an empty MIG with capacity reserved for roughly
// nodeCap nodes: both the node arena and the structural-hash map are
// pre-sized, so graphs of a known magnitude build without rehashing or
// slice growth. nodeCap is a hint, not a limit.
func NewSized(name string, nodeCap int) *MIG {
	if nodeCap < 1 {
		nodeCap = 1
	}
	m := &MIG{
		Name:   name,
		nodes:  make([]node, 1, 1+nodeCap),
		strash: make(map[[3]Signal]NodeID, nodeCap),
	}
	m.nodes[0] = node{kind: KindConst}
	return m
}

// Reset empties the MIG in place for reuse as a rebuild arena: the node
// slice is truncated (keeping its capacity), the structural-hash map is
// cleared (keeping its buckets) and the PI/PO tables drop to zero length.
// It must only be called on MIGs obtained from New or NewSized.
func (m *MIG) Reset(name string) {
	m.Name = name
	m.nodes = m.nodes[:1]
	m.nodes[0] = node{kind: KindConst}
	m.piNodes = m.piNodes[:0]
	m.piNames = m.piNames[:0]
	m.pos = m.pos[:0]
	m.poNames = m.poNames[:0]
	clear(m.strash)
}

// NumNodes returns the total node count including the constant node and the
// primary inputs.
func (m *MIG) NumNodes() int { return len(m.nodes) }

// NumMaj returns the number of majority nodes (the "size" of the MIG in the
// logic-synthesis sense).
func (m *MIG) NumMaj() int { return len(m.nodes) - 1 - len(m.piNodes) }

// NumPIs returns the number of primary inputs.
func (m *MIG) NumPIs() int { return len(m.piNodes) }

// NumPOs returns the number of primary outputs.
func (m *MIG) NumPOs() int { return len(m.pos) }

// Kind returns the kind of node n.
func (m *MIG) Kind(n NodeID) Kind { return m.nodes[n].kind }

// IsMaj reports whether n is a majority node.
func (m *MIG) IsMaj(n NodeID) bool { return m.nodes[n].kind == KindMaj }

// Children returns the three (sorted) child signals of majority node n.
// It must not be called on constants or PIs.
func (m *MIG) Children(n NodeID) [3]Signal {
	if m.nodes[n].kind != KindMaj {
		panic(fmt.Sprintf("mig: Children on non-majority node %d", n))
	}
	return m.nodes[n].children
}

// PINode returns the node of primary input i.
func (m *MIG) PINode(i int) NodeID { return m.piNodes[i] }

// PIName returns the name of primary input i ("" when unnamed).
func (m *MIG) PIName(i int) string { return m.piNames[i] }

// PO returns the signal driving primary output i.
func (m *MIG) PO(i int) Signal { return m.pos[i] }

// POName returns the name of primary output i ("" when unnamed).
func (m *MIG) POName(i int) string { return m.poNames[i] }

// SetPO redirects primary output i to signal s.
func (m *MIG) SetPO(i int, s Signal) { m.pos[i] = s }

// AddPI appends a primary input and returns its (uncomplemented) signal.
func (m *MIG) AddPI(name string) Signal {
	id := NodeID(len(m.nodes))
	m.nodes = append(m.nodes, node{kind: KindPI, piIndex: int32(len(m.piNodes))})
	m.piNodes = append(m.piNodes, id)
	m.piNames = append(m.piNames, name)
	return MakeSignal(id, false)
}

// AddPO appends a primary output driven by s and returns its index.
func (m *MIG) AddPO(s Signal, name string) int {
	m.pos = append(m.pos, s)
	m.poNames = append(m.poNames, name)
	return len(m.pos) - 1
}

// sort3 orders three signals ascending. Sorting by the raw Signal value
// orders primarily by NodeID and secondarily by complement, which gives the
// canonical form used for structural hashing (majority is commutative, Ω.C).
func sort3(a, b, c Signal) [3]Signal {
	if b < a {
		a, b = b, a
	}
	if c < b {
		b, c = c, b
		if b < a {
			a, b = b, a
		}
	}
	return [3]Signal{a, b, c}
}

// Maj returns a signal computing ⟨a b c⟩. The trivial majority rules
// (Ω.M: ⟨x x y⟩ = x and ⟨x x̄ y⟩ = y) are applied eagerly and structurally
// equivalent nodes are shared, so the returned signal may reference an
// existing node or be a constant.
func (m *MIG) Maj(a, b, c Signal) Signal {
	// Ω.M: two equal children decide; complementary children elect the third.
	if s, ok := TrivialMaj(a, b, c); ok {
		return s
	}
	key := sort3(a, b, c)
	if id, ok := m.strash[key]; ok {
		return MakeSignal(id, false)
	}
	// Canonical polarity: keep the node with at most one complemented
	// non-constant child? No — polarity canonicalization is the job of the
	// rewriting passes (Ω.I), which the paper schedules explicitly. The
	// constructor only canonicalizes order.
	id := NodeID(len(m.nodes))
	m.nodes = append(m.nodes, node{kind: KindMaj, children: key})
	m.strash[key] = id
	return MakeSignal(id, false)
}

// TrivialMaj applies only the trivial majority rules Ω.M and reports whether
// ⟨a b c⟩ folds to an existing signal without creating a node.
func TrivialMaj(a, b, c Signal) (Signal, bool) {
	switch {
	case a == b:
		return a, true
	case a == b.Not():
		return c, true
	case a == c:
		return a, true
	case a == c.Not():
		return b, true
	case b == c:
		return b, true
	case b == c.Not():
		return a, true
	}
	return 0, false
}

// LookupMaj reports whether ⟨a b c⟩ is available without creating a node:
// either it folds by the trivial rules or a structurally identical node
// already exists. The rewriting passes use it to decide whether a candidate
// transformation is free.
func (m *MIG) LookupMaj(a, b, c Signal) (Signal, bool) {
	if s, ok := TrivialMaj(a, b, c); ok {
		return s, true
	}
	if id, ok := m.strash[sort3(a, b, c)]; ok {
		return MakeSignal(id, false), true
	}
	return 0, false
}

// RawMaj inserts ⟨a b c⟩ without the trivial-rule folding (still strashed
// and sorted). It is used by tests and by deserialization, where the input
// graph's exact structure must be preserved.
func (m *MIG) RawMaj(a, b, c Signal) Signal {
	key := sort3(a, b, c)
	if id, ok := m.strash[key]; ok {
		return MakeSignal(id, false)
	}
	id := NodeID(len(m.nodes))
	m.nodes = append(m.nodes, node{kind: KindMaj, children: key})
	m.strash[key] = id
	return MakeSignal(id, false)
}

// And returns a ∧ b = ⟨a b 0⟩.
func (m *MIG) And(a, b Signal) Signal { return m.Maj(a, b, Const0) }

// Or returns a ∨ b = ⟨a b 1⟩.
func (m *MIG) Or(a, b Signal) Signal { return m.Maj(a, b, Const1) }

// Xor returns a ⊕ b built from two majority nodes.
func (m *MIG) Xor(a, b Signal) Signal {
	// a ⊕ b = (a ∨ b) ∧ ¬(a ∧ b)
	return m.And(m.Or(a, b), m.And(a, b).Not())
}

// Mux returns s ? t : f built from three majority nodes.
func (m *MIG) Mux(s, t, f Signal) Signal {
	return m.Or(m.And(s, t), m.And(s.Not(), f))
}

// Maj3 of three different word slices — helper for tests.

// ForEachMaj calls fn for every majority node in topological (ascending id)
// order.
func (m *MIG) ForEachMaj(fn func(n NodeID, children [3]Signal)) {
	for i := range m.nodes {
		if m.nodes[i].kind == KindMaj {
			fn(NodeID(i), m.nodes[i].children)
		}
	}
}

// Levels returns the level of every node: constants and PIs are level 0 and
// a majority node is one more than its deepest child. The second result is
// the depth (maximum level over POs' nodes).
func (m *MIG) Levels() (levels []int32, depth int32) {
	return m.LevelsInto(nil)
}

// LevelsInto is Levels with a caller-provided scratch slice: buf is grown
// (or allocated) to NumNodes, cleared and filled. Hot loops that level many
// graphs reuse one buffer instead of allocating per sweep.
func (m *MIG) LevelsInto(buf []int32) (levels []int32, depth int32) {
	if cap(buf) >= len(m.nodes) {
		levels = buf[:len(m.nodes)]
		clear(levels)
	} else {
		levels = make([]int32, len(m.nodes))
	}
	for i := range m.nodes {
		n := &m.nodes[i]
		if n.kind != KindMaj {
			continue
		}
		l := levels[n.children[0].Node()]
		if l2 := levels[n.children[1].Node()]; l2 > l {
			l = l2
		}
		if l2 := levels[n.children[2].Node()]; l2 > l {
			l = l2
		}
		levels[i] = l + 1
	}
	for _, po := range m.pos {
		if l := levels[po.Node()]; l > depth {
			depth = l
		}
	}
	return levels, depth
}

// FanoutCounts returns, for every node, the number of references to it:
// one per (parent, child-slot) plus one per primary output it drives.
// Dangling majority nodes (no references) can exist after rewriting and are
// skipped by the compiler.
func (m *MIG) FanoutCounts() []int32 {
	fanout := make([]int32, len(m.nodes))
	for i := range m.nodes {
		n := &m.nodes[i]
		if n.kind != KindMaj {
			continue
		}
		for _, c := range n.children {
			fanout[c.Node()]++
		}
	}
	for _, po := range m.pos {
		fanout[po.Node()]++
	}
	return fanout
}

// LiveNodes marks every node reachable from a primary output.
func (m *MIG) LiveNodes() []bool {
	return m.LiveNodesInto(nil)
}

// LiveNodesInto is LiveNodes with a caller-provided scratch slice: buf is
// grown (or allocated) to NumNodes, cleared and filled. Hot loops that
// sweep many graphs reuse one buffer instead of allocating per sweep; with
// a large-enough buf the sweep is allocation-free.
func (m *MIG) LiveNodesInto(buf []bool) []bool {
	var live []bool
	if cap(buf) >= len(m.nodes) {
		live = buf[:len(m.nodes)]
		clear(live)
	} else {
		live = make([]bool, len(m.nodes))
	}
	for _, po := range m.pos {
		live[po.Node()] = true
	}
	// Children always have smaller ids than their parents, so one reverse
	// sweep propagates liveness from the POs down to the leaves — no DFS
	// stack needed, regardless of graph depth.
	for i := len(m.nodes) - 1; i > 0; i-- {
		if !live[i] {
			continue
		}
		nd := &m.nodes[i]
		if nd.kind != KindMaj {
			continue
		}
		for _, c := range nd.children {
			live[c.Node()] = true
		}
	}
	live[0] = true
	for _, pi := range m.piNodes {
		live[pi] = true
	}
	return live
}

// CountComplementedEdges returns the number of complemented fanin edges of
// live majority nodes, ignoring edges to the constant node (a complemented
// constant edge is just the constant 1 and costs nothing on PLiM), plus the
// number of complemented primary-output edges.
func (m *MIG) CountComplementedEdges() (fanin, po int) {
	live := m.LiveNodes()
	for i := range m.nodes {
		n := &m.nodes[i]
		if n.kind != KindMaj || !live[i] {
			continue
		}
		for _, c := range n.children {
			if c.Complemented() && !c.IsConst() {
				fanin++
			}
		}
	}
	for _, p := range m.pos {
		if p.Complemented() && !p.IsConst() {
			po++
		}
	}
	return fanin, po
}

// ComplementHistogram returns hist[k] = number of live majority nodes with
// exactly k complemented non-constant fanin edges (k in 0..3). Nodes with
// k ≠ 1 need extra PLiM instructions, which is why the rewriting algorithms
// drive nodes toward k = 1.
func (m *MIG) ComplementHistogram() [4]int {
	var hist [4]int
	live := m.LiveNodes()
	for i := range m.nodes {
		n := &m.nodes[i]
		if n.kind != KindMaj || !live[i] {
			continue
		}
		k := 0
		for _, c := range n.children {
			if c.Complemented() && !c.IsConst() {
				k++
			}
		}
		hist[k]++
	}
	return hist
}

// Eval simulates the MIG word-parallel: inputs[i] carries 64 Boolean
// assignments for primary input i (bit j of every word forms assignment j),
// and the result holds the corresponding 64 output values per primary
// output.
func (m *MIG) Eval(inputs []uint64) []uint64 {
	if len(inputs) != len(m.piNodes) {
		panic(fmt.Sprintf("mig: Eval got %d input words, want %d", len(inputs), len(m.piNodes)))
	}
	vals := make([]uint64, len(m.nodes))
	m.EvalInto(inputs, vals)
	out := make([]uint64, len(m.pos))
	for i, po := range m.pos {
		v := vals[po.Node()]
		if po.Complemented() {
			v = ^v
		}
		out[i] = v
	}
	return out
}

// EvalInto is Eval with a caller-provided scratch slice of length NumNodes;
// it fills vals with every node's value and avoids allocation in hot loops.
func (m *MIG) EvalInto(inputs []uint64, vals []uint64) {
	vals[0] = 0
	for i := 1; i < len(m.nodes); i++ {
		n := &m.nodes[i]
		switch n.kind {
		case KindPI:
			vals[i] = inputs[n.piIndex]
		case KindMaj:
			a := childWord(vals, n.children[0])
			b := childWord(vals, n.children[1])
			c := childWord(vals, n.children[2])
			vals[i] = (a & b) | (a & c) | (b & c)
		}
	}
}

func childWord(vals []uint64, s Signal) uint64 {
	v := vals[s.Node()]
	if s.Complemented() {
		return ^v
	}
	return v
}

// Stats summarizes the structure of an MIG.
type Stats struct {
	PIs, POs        int
	MajNodes        int // live majority nodes
	Depth           int32
	ComplementHist  [4]int // live nodes by complemented-fanin count
	ComplementedPOs int
}

// Statistics computes structural statistics over live nodes.
func (m *MIG) Statistics() Stats {
	live := m.LiveNodes()
	liveMaj := 0
	for i := range m.nodes {
		if m.nodes[i].kind == KindMaj && live[i] {
			liveMaj++
		}
	}
	_, depth := m.Levels()
	_, poComp := m.CountComplementedEdges()
	return Stats{
		PIs:             m.NumPIs(),
		POs:             m.NumPOs(),
		MajNodes:        liveMaj,
		Depth:           depth,
		ComplementHist:  m.ComplementHistogram(),
		ComplementedPOs: poComp,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("pi=%d po=%d maj=%d depth=%d comps=%v compPOs=%d",
		s.PIs, s.POs, s.MajNodes, s.Depth, s.ComplementHist, s.ComplementedPOs)
}

// Clone returns a deep copy of the MIG.
func (m *MIG) Clone() *MIG {
	return &MIG{
		Name:    m.Name,
		nodes:   append([]node(nil), m.nodes...),
		piNodes: append([]NodeID(nil), m.piNodes...),
		piNames: append([]string(nil), m.piNames...),
		pos:     append([]Signal(nil), m.pos...),
		poNames: append([]string(nil), m.poNames...),
		strash:  maps.Clone(m.strash),
	}
}

// Cleanup returns a copy of the MIG with dangling (unreachable) majority
// nodes removed and ids renumbered topologically. PIs and POs are preserved
// in order.
func (m *MIG) Cleanup() *MIG {
	live := m.LiveNodes()
	liveCount := 0
	for _, l := range live {
		if l {
			liveCount++
		}
	}
	out := NewSized(m.Name, liveCount)
	xl8 := make([]Signal, len(m.nodes)) // old node -> new signal (uncomplemented base)
	for i := range xl8 {
		xl8[i] = Const0
	}
	for i, name := range m.piNames {
		xl8[m.piNodes[i]] = out.AddPI(name)
	}
	for i := range m.nodes {
		n := &m.nodes[i]
		if n.kind != KindMaj || !live[i] {
			continue
		}
		a := mapSig(xl8, n.children[0])
		b := mapSig(xl8, n.children[1])
		c := mapSig(xl8, n.children[2])
		xl8[i] = out.RawMaj(a, b, c)
	}
	for i, po := range m.pos {
		out.AddPO(mapSig(xl8, po), m.poNames[i])
	}
	return out
}

func mapSig(xl8 []Signal, s Signal) Signal {
	return xl8[s.Node()].NotIf(s.Complemented())
}

// Validate checks internal invariants (children precede parents, strash
// consistency, PO targets in range) and returns a descriptive error on the
// first violation. It is used in tests after every transformation.
func (m *MIG) Validate() error {
	if len(m.nodes) == 0 || m.nodes[0].kind != KindConst {
		return fmt.Errorf("mig %q: node 0 is not the constant", m.Name)
	}
	for i := range m.nodes {
		n := &m.nodes[i]
		if n.kind != KindMaj {
			continue
		}
		for _, c := range n.children {
			if int(c.Node()) >= i {
				return fmt.Errorf("mig %q: node %d has child %s not preceding it", m.Name, i, c)
			}
		}
		cs := n.children
		if cs != sort3(cs[0], cs[1], cs[2]) {
			return fmt.Errorf("mig %q: node %d children not sorted: %v", m.Name, i, cs)
		}
		if cs[0].Node() == cs[1].Node() || cs[1].Node() == cs[2].Node() {
			// Duplicate underlying nodes are legal only via RawMaj (kept for
			// deserialized graphs); the compiler handles them, so Validate
			// accepts them. Nothing to check here beyond ordering.
			_ = cs
		}
	}
	for i, po := range m.pos {
		if int(po.Node()) >= len(m.nodes) {
			return fmt.Errorf("mig %q: PO %d references node %d out of range", m.Name, i, po.Node())
		}
	}
	for i, pi := range m.piNodes {
		if m.nodes[pi].kind != KindPI || int(m.nodes[pi].piIndex) != i {
			return fmt.Errorf("mig %q: PI table entry %d inconsistent", m.Name, i)
		}
	}
	return nil
}

// PatternWords returns the number of 64-bit words needed to enumerate all
// 2^n assignments of n variables exhaustively.
func PatternWords(n int) int {
	if n <= 6 {
		return 1
	}
	return 1 << (n - 6)
}

// ExhaustivePattern fills the word for variable v within pattern block w
// of an exhaustive enumeration: assignment index j (global bit position)
// assigns variable v the bit (j >> v) & 1.
func ExhaustivePattern(v, w int) uint64 {
	if v < 6 {
		// Repeating blocks of 2^v zeros then 2^v ones within each word.
		var basis = [6]uint64{
			0xAAAAAAAAAAAAAAAA,
			0xCCCCCCCCCCCCCCCC,
			0xF0F0F0F0F0F0F0F0,
			0xFF00FF00FF00FF00,
			0xFFFF0000FFFF0000,
			0xFFFFFFFF00000000,
		}
		return basis[v]
	}
	// Whole words are either all-0 or all-1 depending on bit (v-6) of w.
	if w>>(v-6)&1 == 1 {
		return ^uint64(0)
	}
	return 0
}

// MemSize estimates the graph's resident size in bytes: node storage, the
// PI/PO tables with their name strings, and the structural-hash index when
// present. It is an estimate (Go's allocator rounds size classes up), meant
// for byte-budgeted caches — see internal/memo and plim.WithCacheBudget —
// the way diskcache.GC budgets the disk tier.
func (m *MIG) MemSize() int {
	pinBytes := 0
	for _, s := range m.piNames {
		pinBytes += len(s)
	}
	for _, s := range m.poNames {
		pinBytes += len(s)
	}
	return memSize(len(m.Name), pinBytes, len(m.nodes), len(m.piNodes), len(m.pos), len(m.strash))
}

// memSize is the MemSize estimate of a graph of the given shape: a model
// name of nameLen bytes, PI and PO names of pinBytes in total, and the
// node, PI, PO and structural-hash entry counts.
func memSize(nameLen, pinBytes, nodes, pis, pos, strash int) int {
	const (
		nodeBytes       = 20 // kind + 3 children + piIndex, aligned
		sliceHdr        = 24
		stringHdr       = 16
		strashEntry     = 64 // [3]Signal key + NodeID value + bucket overhead
		structANDlookup = 96 // MIG struct itself plus map header
	)
	sz := structANDlookup + nameLen
	sz += sliceHdr + nodes*nodeBytes
	sz += sliceHdr + pis*4
	sz += sliceHdr + pos*4
	sz += 2 * sliceHdr
	sz += (pis+pos)*stringHdr + pinBytes
	sz += strash * strashEntry
	return sz
}

// Fingerprint returns a 64-bit structural hash of the MIG: its name, the
// placement and names of PIs, every majority node's (sorted) children and
// every primary output with its name. Two MIGs built by the same
// deterministic construction
// sequence share a fingerprint; any structural difference — an extra node,
// a flipped complement, a reordered PO — changes it with overwhelming
// probability. It is the function component of rewrite-memoization keys
// (see internal/core.RewriteCache) and costs one O(n) sweep.
func (m *MIG) Fingerprint() uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037) // FNV-1a offset basis
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for i := 0; i < len(m.Name); i++ {
		h ^= uint64(m.Name[i])
		h *= prime64
	}
	mixString := func(s string) {
		mix(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
	}
	mix(uint64(len(m.piNodes)))
	for i, pi := range m.piNodes {
		mix(uint64(pi))
		mixString(m.piNames[i])
	}
	for i := range m.nodes {
		n := &m.nodes[i]
		if n.kind != KindMaj {
			continue
		}
		mix(uint64(n.children[0]) | uint64(n.children[1])<<32)
		mix(uint64(n.children[2]) | uint64(i)<<32)
	}
	mix(uint64(len(m.pos)))
	for i, po := range m.pos {
		mix(uint64(po))
		mixString(m.poNames[i])
	}
	return h
}
