// Package compile translates Majority-Inverter Graphs into PLiM RM3
// programs, implementing both the baseline compiler of Soeken et al.
// (DAC 2016, [21] in the paper) and the endurance-aware compilation of
// Shirinzadeh et al. (DATE 2017).
//
// Compilation walks the MIG bottom-up. At every step a "candidate" node
// (one whose children are all computed) is selected by the configured
// policy, translated into one or more RM3 instructions, and the devices of
// children that die are returned to the allocator:
//
//   - Selection NodeOrder compiles nodes in construction (topological id)
//     order — the paper's naive baseline, which only benefits from node
//     translation.
//   - Selection Standard prefers the candidate releasing the most devices,
//     breaking ties toward the smallest fanout level index ([21]).
//   - Selection Endurance reverses the priorities (paper Algorithm 3):
//     smallest fanout level index first — the candidate whose value will be
//     consumed soonest, i.e. the shortest storage duration — then the most
//     releasing devices.
//
// Node translation chooses how the three child values map onto the RM3
// operand slots (A is read directly, B is read and inverted by the
// operation, Z is the overwritten destination) by costing each child once
// per slot and picking the cheapest of the six assignments, reproducing the
// paper's cost model: an ideal node — exactly one complemented fanin and a
// dying, cap-legal uncomplemented fanin for the destination — costs a
// single instruction; every violation costs two extra instructions and one
// extra device (a preset plus an inverted or plain copy).
package compile

import (
	"fmt"

	"plim/internal/alloc"
	"plim/internal/isa"
	"plim/internal/mig"
)

// Selection chooses the node-selection policy.
type Selection uint8

// Selection policies.
const (
	NodeOrder Selection = iota // naive: topological id order
	Standard                   // [21]: max releasing devices, then min fanout level
	Endurance                  // DATE'17 Algorithm 3: min fanout level, then max releasing
)

// String names the policy.
func (s Selection) String() string {
	switch s {
	case NodeOrder:
		return "node-order"
	case Standard:
		return "standard"
	case Endurance:
		return "endurance"
	}
	return "?"
}

// Options configures compilation. The zero value is the paper's default
// behaviour apart from the selection policy and allocator, which each
// configuration names explicitly.
type Options struct {
	Selection Selection
	Alloc     alloc.Kind
	// MaxWrites is the per-device write cap of the "maximum write count
	// strategy"; 0 disables it. Values 1–3 cannot express a preset+copy+RM3
	// sequence and are rejected.
	MaxWrites uint64
}

// Result is a compiled program plus the endurance bookkeeping the paper's
// tables report. ResultOf rebuilds the Result of a program compiled
// before from the counts the program keeps.
type Result struct {
	Program *isa.Program
	// WriteCounts is the per-device write count of one program execution,
	// including never-written (e.g. input-only) devices. Statistics over
	// this slice are the paper's STDEV/min/max columns.
	WriteCounts []uint64
	// NumInstructions is the paper's #I.
	NumInstructions int
	// NumRRAMs is the paper's #R: every device the program ever allocated.
	NumRRAMs int
}

// ResultOf returns the Result of a compiled program p from the counts p
// keeps: write counts are its per-cell write counts (each RM3 writes its
// Z once), #I its instruction count and #R its cell count. It walks no
// instruction; the Result shares p and nothing else.
func ResultOf(p *isa.Program) *Result {
	return &Result{
		Program:         p,
		WriteCounts:     p.StaticWriteCounts(),
		NumInstructions: p.NumInstructions(),
		NumRRAMs:        int(p.NumCells()),
	}
}

// Compile translates m into a PLiM program. The per-node tables,
// candidate heap, instruction buffer and device allocator come from the
// package's scratch pool and return to it when compilation finishes, so a
// hot caller (the staged per-configuration fan-out) performs O(1)
// graph-sized allocations per compilation. The returned Result is always
// private to the caller — nothing in it aliases pooled memory.
func Compile(m *mig.MIG, opts Options) (*Result, error) {
	if opts.MaxWrites > 0 && opts.MaxWrites < 4 {
		return nil, fmt.Errorf("compile: max-write cap %d cannot fit a preset+copy+RM3 sequence; use 0 or ≥4", opts.MaxWrites)
	}
	sc := getScratch(m.NumNodes())
	res, err := compileOn(m, opts, sc)
	// The scratch returns to the pool on every path: after an error its
	// contents are garbage, but acquisition re-sizes and clears every table.
	putScratch(sc)
	return res, err
}

func compileOn(m *mig.MIG, opts Options, sc *compileScratch) (*Result, error) {
	c, err := newCompiler(m, opts, sc)
	if err != nil {
		return nil, err
	}
	// Buffers that grow by append live on the compiler; hand their grown
	// capacity back to the scratch whichever way compilation ends.
	defer func() {
		sc.insts = c.insts[:0]
		sc.heapEntries = c.heap.entries[:0]
	}()
	if err := c.run(); err != nil {
		return nil, err
	}
	// The program encodes the scratch buffers once and keeps only that
	// encoding, so nothing in it aliases pooled memory.
	prog, err := isa.NewProgram(isa.Parts{
		Name:     m.Name,
		Insts:    c.insts,
		NumCells: uint32(c.alloc.NumCells()),
		PICells:  c.piCells,
		POs:      c.pos,
	})
	if err != nil {
		return nil, fmt.Errorf("compile: emitted invalid program: %w", err)
	}
	return &Result{
		Program:         prog,
		WriteCounts:     c.alloc.WriteCounts(),
		NumInstructions: prog.NumInstructions(),
		NumRRAMs:        c.alloc.NumCells(),
	}, nil
}

type compiler struct {
	m     *mig.MIG
	opts  Options
	sc    *compileScratch
	alloc *alloc.Allocator

	insts   []isa.Instruction
	piCells []uint32
	pos     []isa.PORef

	// cell[n] is the device currently holding node n's value.
	cell []uint32
	// remaining[n] counts outstanding uses of node n's value: one per
	// parent edge plus one pin per primary output it drives. When it drops
	// to zero the device is released.
	remaining []int32
	// computed[n] marks nodes whose value is materialized.
	computed []bool
	// foLevel[n] is the fanout level index: the level of the last consumer
	// (max over parents; PO consumers count as depth+1). It is the storage
	// duration proxy both selection policies use.
	foLevel []int32
	// level[n] is the node's own level.
	level []int32
	live  []bool

	// pending[n] counts distinct majority children of n not yet computed.
	pending []int32
	// The distinct majority parents of node n are
	// parentBuf[parentOff[n]:parentOff[n+1]], in ascending parent order
	// (the order the old per-node slices accumulated them in).
	parentOff []int32
	parentBuf []mig.NodeID

	heap candidateHeap

	// invPOCells memoizes materialized inverted PO values per node (created
	// lazily — most graphs have no complemented POs left after rewriting),
	// and constPOCells the two constant PO cells.
	invPOCells   map[mig.NodeID]uint32
	constPOCells [2]int64
}

// parentsOf returns the distinct majority parents of node n.
func (c *compiler) parentsOf(n mig.NodeID) []mig.NodeID {
	return c.parentBuf[c.parentOff[n]:c.parentOff[n+1]]
}

func newCompiler(m *mig.MIG, opts Options, sc *compileScratch) (*compiler, error) {
	n := m.NumNodes()
	sc.alloc.Reset(opts.Alloc, opts.MaxWrites)
	sc.cell = growClear(sc.cell, n)
	sc.remaining = growClear(sc.remaining, n)
	sc.computed = growClear(sc.computed, n)
	sc.foLevel = growClear(sc.foLevel, n)
	sc.pending = growClear(sc.pending, n)
	sc.parentOff = growClear(sc.parentOff, n+1)
	sc.live = m.LiveNodesInto(sc.live)
	if sc.invPOCells != nil {
		clear(sc.invPOCells)
	}
	c := &compiler{
		m:          m,
		opts:       opts,
		sc:         sc,
		alloc:      &sc.alloc,
		cell:       sc.cell,
		remaining:  sc.remaining,
		computed:   sc.computed,
		foLevel:    sc.foLevel,
		pending:    sc.pending,
		parentOff:  sc.parentOff,
		live:       sc.live,
		insts:      sc.insts[:0],
		invPOCells: sc.invPOCells,
	}
	c.heap.entries = sc.heapEntries[:0]
	c.constPOCells[0] = -1
	c.constPOCells[1] = -1

	var depth int32
	c.level, depth = m.LevelsInto(sc.level)
	sc.level = c.level
	if depth >= maxFoLevel { // fanout levels reach depth+1
		return nil, fmt.Errorf("compile: graph depth %d exceeds the candidate key's limit of %d", depth, maxFoLevel-1)
	}

	// Uses, fanout levels, pending counts and parent-list sizes over the
	// live subgraph, in one sweep: the duplicate-child scan both dedups the
	// parent edge and classifies it (majority children feed pending).
	// parentOff[cn+1] accumulates node cn's distinct-parent count so the
	// prefix sum below turns it into CSR offsets.
	m.ForEachMaj(func(p mig.NodeID, ch [3]mig.Signal) {
		if !c.live[p] {
			return
		}
		pendingCnt := int32(0)
		for i, s := range ch {
			cn := s.Node()
			if cn == 0 {
				continue // constants are free operands, not devices
			}
			c.remaining[cn]++
			if c.foLevel[cn] < c.level[p] {
				c.foLevel[cn] = c.level[p]
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
			c.parentOff[cn+1]++
			if c.m.IsMaj(cn) {
				pendingCnt++
			}
		}
		// pending = distinct maj children not yet computed.
		c.pending[p] = pendingCnt
	})

	// Prefix-sum the counts into offsets and fill the flattened adjacency;
	// sweeping parents in ascending order reproduces the append order of
	// the former per-node slices.
	for i := 0; i < n; i++ {
		c.parentOff[i+1] += c.parentOff[i]
	}
	sc.parentCur = growClear(sc.parentCur, n)
	cur := sc.parentCur
	copy(cur, c.parentOff[:n])
	sc.parentBuf = grow(sc.parentBuf, int(c.parentOff[n]))
	c.parentBuf = sc.parentBuf
	m.ForEachMaj(func(p mig.NodeID, ch [3]mig.Signal) {
		if !c.live[p] {
			return
		}
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
			c.parentBuf[cur[cn]] = p
			cur[cn]++
		}
	})

	// Primary outputs pin their drivers and extend storage duration to the
	// end of the program.
	for i := 0; i < m.NumPOs(); i++ {
		po := m.PO(i)
		pn := po.Node()
		if pn == 0 {
			continue
		}
		c.remaining[pn]++ // permanent pin: never decremented
		if c.foLevel[pn] < depth+1 {
			c.foLevel[pn] = depth + 1
		}
	}
	return c, nil
}

func (c *compiler) run() error {
	m := c.m

	// Primary inputs occupy the first devices, preloaded with data (no
	// write pulses). Unused inputs release after all assignments — not
	// during them, or the allocator would hand the same device to two
	// inputs.
	c.sc.piCells = grow(c.sc.piCells, m.NumPIs())
	c.piCells = c.sc.piCells
	for i := 0; i < m.NumPIs(); i++ {
		pn := m.PINode(i)
		addr := c.alloc.Acquire(0)
		c.piCells[i] = addr
		c.cell[pn] = addr
		c.computed[pn] = true
	}
	for i := 0; i < m.NumPIs(); i++ {
		pn := m.PINode(i)
		if c.remaining[pn] == 0 {
			c.alloc.Release(c.piCells[i])
		}
	}

	// Seed candidates: live majority nodes whose children are all PIs or
	// constants.
	c.heap.policy = c.opts.Selection
	m.ForEachMaj(func(n mig.NodeID, _ [3]mig.Signal) {
		if c.live[n] && c.pending[n] == 0 {
			c.push(n)
		}
	})

	compiledAny := true
	for compiledAny {
		compiledAny = false
		for c.heap.Len() > 0 {
			n, ok := c.popBest()
			if !ok {
				continue
			}
			if err := c.translate(n); err != nil {
				return err
			}
			compiledAny = true
			// Unblock parents.
			for _, p := range c.parentsOf(n) {
				c.pending[p]--
				if c.pending[p] == 0 && c.live[p] {
					c.push(p)
				}
			}
		}
	}

	// Every live majority node must have been computed.
	for i := 0; i < m.NumNodes(); i++ {
		n := mig.NodeID(i)
		if c.live[n] && m.IsMaj(n) && !c.computed[n] {
			return fmt.Errorf("compile: node %d never became computable (cycle or bug)", n)
		}
	}
	return c.finalizePOs()
}

// finalizePOs materializes primary outputs: constants get preset devices,
// complemented outputs get inverted copies (2 instructions and 1 device
// each, as the paper's cost model counts them).
func (c *compiler) finalizePOs() error {
	m := c.m
	c.sc.pos = grow(c.sc.pos, m.NumPOs())
	c.pos = c.sc.pos
	for i := 0; i < m.NumPOs(); i++ {
		po := m.PO(i)
		pn := po.Node()
		if pn == 0 {
			v := po.Complemented() // Const1 is the complement of node 0
			idx := 0
			if v {
				idx = 1
			}
			if c.constPOCells[idx] < 0 {
				addr := c.alloc.Acquire(1)
				c.emitPreset(addr, v)
				c.constPOCells[idx] = int64(addr)
			}
			c.pos[i] = isa.PORef{Addr: uint32(c.constPOCells[idx])}
			continue
		}
		if !c.computed[pn] {
			return fmt.Errorf("compile: PO %d driver %d not computed", i, pn)
		}
		src := c.cell[pn]
		if !po.Complemented() {
			c.pos[i] = isa.PORef{Addr: src}
			continue
		}
		addr, ok := c.invPOCells[pn]
		if !ok {
			addr = c.alloc.Acquire(2)
			c.emitPreset(addr, true)
			c.emit(isa.Instruction{A: isa.Zero, B: isa.Cell(src), Z: addr}) // ⟨0 v̄ 1⟩ = v̄
			if c.invPOCells == nil {
				//plim:alloc-ok lazy, at most once per compile, only for complemented POs
				c.invPOCells = make(map[mig.NodeID]uint32)
				c.sc.invPOCells = c.invPOCells
			}
			c.invPOCells[pn] = addr
		}
		c.pos[i] = isa.PORef{Addr: addr}
	}
	return nil
}

func (c *compiler) emit(ins isa.Instruction) {
	c.insts = append(c.insts, ins)
	c.alloc.NoteWrite(ins.Z, 1)
}

// emitPreset writes constant v into addr: RM3 #0,#1 (→0) or RM3 #1,#0 (→1).
func (c *compiler) emitPreset(addr uint32, v bool) {
	if v {
		c.emit(isa.Instruction{A: isa.One, B: isa.Zero, Z: addr})
	} else {
		c.emit(isa.Instruction{A: isa.Zero, B: isa.One, Z: addr})
	}
}
