package mig

import (
	"encoding/binary"
	"slices"
	"testing"
)

// refStrash is the reference FuzzStrash holds the structural hash to: a
// graph's node count and its majority nodes in a Go map keyed by their
// sorted children.
type refStrash struct {
	nodes int
	table map[[3]Signal]NodeID
}

func newRefStrash() *refStrash { return &refStrash{nodes: 1, table: map[[3]Signal]NodeID{}} }

func (r *refStrash) clone() *refStrash {
	c := &refStrash{nodes: r.nodes, table: make(map[[3]Signal]NodeID, len(r.table))}
	for k, id := range r.table {
		c.table[k] = id
	}
	return c
}

func refKey(a, b, c Signal) [3]Signal {
	k := [3]Signal{a, b, c}
	slices.Sort(k[:])
	return k
}

// add returns the node of key, appending one when there is none.
func (r *refStrash) add(key [3]Signal) Signal {
	id, ok := r.table[key]
	if !ok {
		id = NodeID(r.nodes)
		r.nodes++
		r.table[key] = id
	}
	return MakeSignal(id, false)
}

// checkStrash compares m's structural hash with ref: the node counts, every
// majority node's children, Validate's strash check, the table's shape,
// and what every key in keys probes to.
func checkStrash(t *testing.T, m *MIG, ref *refStrash, keys [][3]Signal) {
	t.Helper()
	if m.NumNodes() != ref.nodes || m.NumMaj() != len(ref.table) {
		t.Fatalf("%d nodes, %d majority, want %d and %d", m.NumNodes(), m.NumMaj(), ref.nodes, len(ref.table))
	}
	for k, id := range ref.table {
		if got := m.Children(id); got != k {
			t.Fatalf("node %d has children %v, want %v", id, got, k)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := len(m.strash); n != 0 && (n&(n-1) != 0 || 2*m.NumMaj() > n) {
		t.Fatalf("table of %d slots holds %d nodes: want a power of two at most half full", n, m.NumMaj())
	}
	for _, k := range keys {
		if got, _ := m.strashFind(k); got != ref.table[k] {
			t.Fatalf("key %v probes to node %d, want %d", k, got, ref.table[k])
		}
	}
}

// FuzzStrash decodes its input into a sequence of graph operations and
// checks each result, and the structural hash after the sequence, against
// a reference built on a Go map. The first byte starts the graph (even:
// New; odd: NewSized with a capacity of the byte's upper seven bits);
// then each operation is one byte, op%8 selecting AddPI (0 and 7), Maj
// (1 and 2), RawMaj (3), LookupMaj (4), Reset (5) or Clone (6), and a
// majority operation reads three more big-endian uint16s, each a signal
// whose low bit is the complement and whose rest picks a node modulo the
// node count. Clone continues on the copy and checks the original, at the
// end, against the reference as it stood when it was cloned.
func FuzzStrash(f *testing.F) {
	// New; three PIs a, b, c; Maj(a, b, c); RawMaj(a, a, b); LookupMaj(c,
	// b, a); Clone; Maj(a, b, !c) on the copy; Reset.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 0, 4, 0, 6, 3, 0, 2, 0, 2, 0, 4, 4, 0, 6, 0, 4, 0, 2, 6, 2, 0, 2, 0, 4, 0, 7, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := New("f")
		if data[0]&1 == 1 {
			m = NewSized("f", int(data[0]>>1))
		}
		ref := newRefStrash()
		type frozen struct {
			m   *MIG
			ref *refStrash
		}
		var clones []frozen
		var keys [][3]Signal
		signal := func(b []byte) Signal {
			v := binary.BigEndian.Uint16(b)
			return MakeSignal(NodeID(int(v>>1)%ref.nodes), v&1 == 1)
		}
	ops:
		for rest := data[1:]; len(rest) > 0; {
			op := rest[0] % 8
			rest = rest[1:]
			switch op {
			case 0, 7:
				if got, want := m.AddPI(""), MakeSignal(NodeID(ref.nodes), false); got != want {
					t.Fatalf("AddPI = %v, want %v", got, want)
				}
				ref.nodes++
			case 1, 2, 3, 4:
				if len(rest) < 6 {
					break ops
				}
				a, b, c := signal(rest), signal(rest[2:]), signal(rest[4:])
				rest = rest[6:]
				key := refKey(a, b, c)
				keys = append(keys, key)
				trivial, folds := TrivialMaj(a, b, c)
				switch op {
				case 1, 2:
					want := trivial
					if !folds {
						want = ref.add(key)
					}
					if got := m.Maj(a, b, c); got != want {
						t.Fatalf("Maj(%v, %v, %v) = %v, want %v", a, b, c, got, want)
					}
				case 3:
					if got, want := m.RawMaj(a, b, c), ref.add(key); got != want {
						t.Fatalf("RawMaj(%v, %v, %v) = %v, want %v", a, b, c, got, want)
					}
				case 4:
					want, ok := trivial, folds
					if id, found := ref.table[key]; !folds && found {
						want, ok = MakeSignal(id, false), true
					}
					if got, gotOK := m.LookupMaj(a, b, c); got != want || gotOK != ok {
						t.Fatalf("LookupMaj(%v, %v, %v) = %v, %v; want %v, %v", a, b, c, got, gotOK, want, ok)
					}
				}
			case 5:
				m.Reset("f")
				ref = newRefStrash()
			case 6:
				clones = append(clones, frozen{m, ref.clone()})
				m = m.Clone()
			}
			if m.NumNodes() != ref.nodes {
				t.Fatalf("%d nodes, want %d", m.NumNodes(), ref.nodes)
			}
		}
		checkStrash(t, m, ref, keys)
		for _, c := range clones {
			checkStrash(t, c.m, c.ref, keys)
		}
	})
}
