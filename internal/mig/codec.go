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
	h, err := readHeader(b)
	if err != nil {
		return nil, err
	}
	numPIs, numMaj, numPOs := h.numPIs, h.numMaj, h.numPOs
	numNodes := 1 + numPIs + numMaj

	// The names as one string the names slice into, in the order of their
	// lengths, which readHeader checked; lens re-reads them as they are
	// sliced.
	names := string(b[h.names : h.names+h.modelLen+h.pinBytes])
	lens := decoder{b: b, off: h.lens}
	name := func() string {
		n, _ := lens.uvarint()
		s := names[:n]
		names = names[n:]
		return s
	}
	d := decoder{b: b, off: h.names + h.modelLen + h.pinBytes}

	m := NewSized(name(), numPIs+numMaj)
	m.piNodes = make([]NodeID, 0, numPIs)
	m.piNames = make([]string, 0, numPIs)
	for i := 0; i < numPIs; i++ {
		m.AddPI(name())
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
		m.AddPO(Signal(v), name())
	}
	if d.left() != 0 {
		return nil, fmt.Errorf("mig: binary: %d trailing bytes", d.left())
	}
	return m, nil
}

// binaryHeader is what the front of a payload determines before any node
// is read: the element counts, where the name lengths and the names start,
// the model name's length and the PI and PO names' total length.
type binaryHeader struct {
	numPIs, numMaj, numPOs int
	lens, names            int
	modelLen, pinBytes     int
}

// readHeader parses a payload's counts and name lengths, checking every
// count against the bytes left, and allocates nothing.
func readHeader(b []byte) (binaryHeader, error) {
	var h binaryHeader
	d := decoder{b: b}
	var err error
	if h.numPIs, err = d.count(0, minPIBytes); err != nil {
		return h, err
	}
	if h.numMaj, err = d.count(0, minMajBytes); err != nil {
		return h, err
	}
	if h.numPOs, err = d.count(0, minPOBytes); err != nil {
		return h, err
	}
	// All three together must fit too, plus the model name's length.
	if uint64(h.numPIs)*minPIBytes+uint64(h.numMaj)*minMajBytes+uint64(h.numPOs)*minPOBytes+1 > uint64(d.left()) {
		return h, errOversized
	}
	if 1+h.numPIs+h.numMaj > math.MaxInt32 {
		return h, errOversized
	}
	h.lens = d.off
	n := 1 + h.numPIs + h.numPOs
	total := 0
	for i := 0; i < n; i++ {
		// Every name still to come needs at least its length byte, and
		// the names so far must fit in what is left; checked after the
		// last length, that keeps the names in bounds.
		l, err := d.count(n-1-i, 1)
		if err != nil {
			return h, err
		}
		if i == 0 {
			h.modelLen = l
		}
		if total += l; total > d.left() {
			return h, errTruncated
		}
	}
	h.names = d.off
	h.pinBytes = total - h.modelLen
	return h, nil
}

// memSize is MemSize's estimate for the graph the header describes, which
// is exactly ReadBinary's result's MemSize: both charge the structural hash
// 64 B per majority node, the rate that keeps a byte budget's meaning, not
// the size of the decoded graph's table.
func (h binaryHeader) memSize() int {
	return memSize(h.modelLen, h.pinBytes, 1+h.numPIs+h.numMaj, h.numPIs, h.numPOs, h.numMaj)
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
