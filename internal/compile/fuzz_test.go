package compile

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"plim/internal/alloc"
	"plim/internal/mig"
)

// fuzzMIG decodes bytes into a small MIG: a PI count (at most 6), a node
// count (at most 48) and a PO count (1–8), then three child bytes per node
// and one byte per PO, each picking an earlier signal — constant, PI or node
// — with its low bit as the complement. Nodes are built with RawMaj, so
// duplicate-child and constant-child nodes survive. Missing bytes read as
// zero, so every input decodes.
func fuzzMIG(data []byte) *mig.MIG {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	m := mig.New("fuzz")
	numPIs, numNodes, numPOs := int(next()%7), int(next()%49), 1+int(next()%8)
	sigs := []mig.Signal{mig.Const0}
	for i := 0; i < numPIs; i++ {
		sigs = append(sigs, m.AddPI(""))
	}
	pick := func() mig.Signal {
		b := next()
		s := sigs[int(b>>1)%len(sigs)]
		if b&1 == 1 {
			s = s.Not()
		}
		return s
	}
	for i := 0; i < numNodes; i++ {
		sigs = append(sigs, m.RawMaj(pick(), pick(), pick()))
	}
	for i := 0; i < numPOs; i++ {
		m.AddPO(pick(), "")
	}
	return m
}

// resultDigest hashes a compile result's program bytes, per-device write
// counts, #I and #R.
func resultDigest(t *testing.T, res *Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Program.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for _, w := range res.WriteCounts {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(res.NumInstructions))
	b = binary.LittleEndian.AppendUint64(b, uint64(res.NumRRAMs))
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// FuzzCompile compiles arbitrary small graphs under every option set of
// allOptions plus a capped LIFO allocator. Every decoded graph is a valid
// MIG, so compilation must succeed without panicking, compute the graph's
// function with exact write counts, and give the same result from a reused
// scratch as from a fresh one.
func FuzzCompile(f *testing.F) {
	sc := new(compileScratch)
	optsList := append(allOptions(), Options{Selection: NodeOrder, Alloc: alloc.LIFO, MaxWrites: 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzMIG(data)
		for _, opts := range optsList {
			reused, err := compileOn(m, opts, sc)
			if err != nil {
				t.Fatalf("%+v: reused compile: %v", opts, err)
			}
			fresh, err := compileOn(m, opts, new(compileScratch))
			if err != nil {
				t.Fatalf("%+v: fresh compile: %v", opts, err)
			}
			verifyCompiled(t, m, reused)
			if a, b := resultDigest(t, reused), resultDigest(t, fresh); a != b {
				t.Fatalf("%+v: reused digest %s, fresh %s", opts, a, b)
			}
		}
	})
}
