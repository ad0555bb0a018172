package mig

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The binary MIG codec is the compact payload of the persistent cache
// (internal/diskcache); the .mig text format stays the interchange format.
// Every integer is an unsigned varint (encoding/binary's uvarint):
//
//	numPIs numMaj numPOs
//	len(model) len(pi_0) … len(pi_{numPIs-1}) len(po_0) … len(po_{numPOs-1})
//	names      the model, PI and PO names back to back, in the order above
//	majority nodes, in file order, three children each:
//	           (parent − child)<<1 | complement
//	primary outputs, in order: node<<1 | complement
//
// Node ids follow the .mig file numbering (see Write): the constant is
// node 0, PIs are 1..numPIs and majority nodes follow. A child is coded as
// its distance below its parent, so the small offsets of local structure
// fit in one or two bytes. The format carries no version of its own; the
// container that stores it (the disk cache's FormatVersion) does.

// Minimum encoded size of each element, used to bound counts by the
// bytes left before anything is allocated: a PI is at least its name
// length, a majority node three child offsets, a PO a signal plus a name
// length.
const (
	minPIBytes  = 1
	minMajBytes = 3
	minPOBytes  = 2
)

var (
	errTruncated = errors.New("mig: binary: truncated payload or malformed varint")
	errOversized = errors.New("mig: binary: count exceeds the bytes left")
)

// AppendBinary appends the binary encoding of m to dst and returns the
// extended slice. Like Write it renumbers nodes into file order (all PIs
// before the majority nodes) and keeps names exactly as stored, so for a
// canonically numbered graph ReadBinary(AppendBinary(nil)) reproduces m
// fingerprint-identically.
func (m *MIG) AppendBinary(dst []byte) []byte {
	fileID := m.fileIDs()
	dst = binary.AppendUvarint(dst, uint64(len(m.piNodes)))
	dst = binary.AppendUvarint(dst, uint64(m.NumMaj()))
	dst = binary.AppendUvarint(dst, uint64(len(m.pos)))
	dst = binary.AppendUvarint(dst, uint64(len(m.Name)))
	for _, s := range m.piNames {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
	}
	for _, s := range m.poNames {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
	}
	dst = append(dst, m.Name...)
	for _, s := range m.piNames {
		dst = append(dst, s...)
	}
	for _, s := range m.poNames {
		dst = append(dst, s...)
	}
	for i := range m.nodes {
		n := &m.nodes[i]
		if n.kind != KindMaj {
			continue
		}
		parent := fileID[i]
		for _, c := range n.children {
			off := uint64(parent-fileID[c.Node()]) << 1
			if c.Complemented() {
				off |= 1
			}
			dst = binary.AppendUvarint(dst, off)
		}
	}
	for _, po := range m.pos {
		dst = binary.AppendUvarint(dst, uint64(MakeSignal(NodeID(fileID[po.Node()]), po.Complemented())))
	}
	return dst
}

// ReadBinary decodes a graph written by AppendBinary. Every count is
// checked against the bytes left before anything is allocated, so a
// hostile payload cannot request more memory than its own size implies.
// Majority nodes are rebuilt through RawMaj, exactly like Read. A forward,
// self or out-of-range child reference, a duplicate majority node, a PO
// past the graph, a truncated payload and trailing bytes are all errors.
func ReadBinary(b []byte) (*MIG, error) {
	d := decoder{b: b}
	numPIs, err := d.count(0, minPIBytes)
	if err != nil {
		return nil, err
	}
	numMaj, err := d.count(0, minMajBytes)
	if err != nil {
		return nil, err
	}
	numPOs, err := d.count(0, minPOBytes)
	if err != nil {
		return nil, err
	}
	// All three together must fit too, plus the model name's length.
	if uint64(numPIs)*minPIBytes+uint64(numMaj)*minMajBytes+uint64(numPOs)*minPOBytes+1 > uint64(d.left()) {
		return nil, errOversized
	}
	numNodes := 1 + numPIs + numMaj
	if numNodes > math.MaxInt32 {
		return nil, errOversized
	}

	// Name lengths, then the names as one string the names slice into.
	lens := make([]int, 1+numPIs+numPOs)
	total := 0
	for i := range lens {
		// Every name still to come needs at least its length byte, and
		// the names so far must fit in what is left; checked after the
		// last length, that keeps the slice below in bounds.
		n, err := d.count(len(lens)-1-i, 1)
		if err != nil {
			return nil, err
		}
		lens[i] = n
		if total += n; total > d.left() {
			return nil, errTruncated
		}
	}
	names := string(d.b[d.off : d.off+total])
	d.off += total
	name := func(i int) string {
		s := names[:lens[i]]
		names = names[lens[i]:]
		return s
	}

	m := NewSized(name(0), numPIs+numMaj)
	m.piNodes = make([]NodeID, 0, numPIs)
	m.piNames = make([]string, 0, numPIs)
	for i := 0; i < numPIs; i++ {
		m.AddPI(name(1 + i))
	}
	for p := uint64(numPIs + 1); p < uint64(numNodes); p++ {
		var sig [3]Signal
		for j := range sig {
			v, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			off := v >> 1
			if off == 0 || off > p {
				return nil, fmt.Errorf("mig: binary: node %d: child offset %d is forward or out of range", p, off)
			}
			sig[j] = MakeSignal(NodeID(p-off), v&1 == 1)
		}
		// A duplicate would be merged by the structural hash and shift
		// every later node's id away from the file numbering.
		if s := m.RawMaj(sig[0], sig[1], sig[2]); uint64(s.Node()) != p {
			return nil, fmt.Errorf("mig: binary: node %d duplicates node %d", p, s.Node())
		}
	}
	m.pos = make([]Signal, 0, numPOs)
	m.poNames = make([]string, 0, numPOs)
	for i := 0; i < numPOs; i++ {
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if v>>1 >= uint64(numNodes) {
			return nil, fmt.Errorf("mig: binary: PO %d references node %d of %d", i, v>>1, numNodes)
		}
		m.AddPO(Signal(v), name(1+numPIs+i))
	}
	if d.left() != 0 {
		return nil, fmt.Errorf("mig: binary: %d trailing bytes", d.left())
	}
	return m, nil
}

// decoder reads uvarints off the front of a payload.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) left() int { return len(d.b) - d.off }

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, errTruncated
	}
	d.off += n
	return v, nil
}

// count reads a count whose elements take at least per bytes each, after
// which at least reserve more bytes must remain.
func (d *decoder) count(reserve, per int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	left := d.left() - reserve
	if left < 0 || v > uint64(left/per) {
		return 0, errOversized
	}
	return int(v), nil
}
