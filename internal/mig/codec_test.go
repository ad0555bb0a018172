package mig

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// uv encodes a sequence of uvarints.
func uv(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// tinyBinary is a hand-assembled payload for ⟨0 a b⟩ driving one PO:
// counts, name lengths, the names "m", "a", "b", "f", one majority node
// (file id 3) with child offsets 3, 2 and 1, and the PO on node 3.
func tinyBinary() []byte {
	b := uv(2, 1, 1, 1, 1, 1, 1)
	b = append(b, "mabf"...)
	return append(b, uv(3<<1, 2<<1, 1<<1, 3<<1)...)
}

func TestReadBinaryHandAssembled(t *testing.T) {
	m, err := ReadBinary(tinyBinary())
	if err != nil {
		t.Fatal(err)
	}
	want := New("m")
	a := want.AddPI("a")
	b := want.AddPI("b")
	want.AddPO(want.RawMaj(Const0, a, b), "f")
	if m.Fingerprint() != want.Fingerprint() {
		t.Fatal("hand-assembled payload decoded to the wrong graph")
	}
	if !bytes.Equal(want.AppendBinary(nil), tinyBinary()) {
		t.Fatalf("AppendBinary = %x, want %x", want.AppendBinary(nil), tinyBinary())
	}
}

// TestReadBinaryRejectsHostileInput: every malformed payload is an error,
// never a panic and never a graph.
func TestReadBinaryRejectsHostileInput(t *testing.T) {
	names := func(b []byte) []byte { return append(b, "mabf"...) }
	cases := map[string][]byte{
		"empty":           nil,
		"self reference":  append(names(uv(2, 1, 1, 1, 1, 1, 1)), uv(3<<1, 2<<1, 0, 3<<1)...),
		"past the const":  append(names(uv(2, 1, 1, 1, 1, 1, 1)), uv(4<<1, 2<<1, 1<<1, 3<<1)...),
		"PO past graph":   append(names(uv(2, 1, 1, 1, 1, 1, 1)), uv(3<<1, 2<<1, 1<<1, 4<<1)...),
		"duplicate node":  append(names(uv(2, 2, 1, 1, 1, 1, 1)), uv(3<<1, 2<<1, 1<<1, 4<<1, 3<<1, 2<<1, 3<<1)...),
		"trailing bytes":  append(tinyBinary(), 0),
		"varint overflow": bytes.Repeat([]byte{0xff}, 11),
		"name past end":   append(uv(0, 0, 0, 9), "short"...),
		"names past end":  append(uv(2, 0, 0, 0, 3, 3), "abc"...),
	}
	full := tinyBinary()
	for n := 0; n < len(full); n++ {
		cases[fmt.Sprintf("truncated to %d bytes", n)] = full[:n]
	}
	for name, b := range cases {
		if m, err := ReadBinary(b); err == nil {
			t.Errorf("%s: decoded %d nodes from %x, want an error", name, m.NumNodes(), b)
		}
	}
}

// TestReadBinaryRejectsOversizedCountBeforeAllocating: a count the payload
// cannot possibly hold — 2^40 PIs, majority nodes or POs in a few bytes —
// is refused before the decoder allocates anything.
func TestReadBinaryRejectsOversizedCountBeforeAllocating(t *testing.T) {
	for _, b := range [][]byte{
		uv(1 << 40),
		uv(0, 1<<40),
		uv(0, 0, 1<<40),
		append(uv(2, 2, 2), make([]byte, 6)...), // each fits alone, not all three
	} {
		var err error
		allocs := testing.AllocsPerRun(50, func() { _, err = ReadBinary(b) })
		if !errors.Is(err, errOversized) {
			t.Errorf("%x: err = %v, want %v", b, err, errOversized)
		}
		if allocs != 0 {
			t.Errorf("%x: %.0f allocations before rejecting the count, want 0", b, allocs)
		}
	}
}

// checkDecoded is the contract both fuzz targets hold a decoded graph to:
// it validates, and it survives a re-encode and decode with the same
// fingerprint.
func checkDecoded(t *testing.T, cd codec, m *MIG) {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatalf("%s decoder accepted an invalid graph: %v", cd.name, err)
	}
	again, err := cd.decode(cd.encode(t, m))
	if err != nil {
		t.Fatalf("%s re-decode: %v", cd.name, err)
	}
	if again.Fingerprint() != m.Fingerprint() {
		t.Fatalf("%s round trip changed the fingerprint", cd.name)
	}
}

// FuzzReadBinary feeds arbitrary bytes to the binary decoder: it must
// return an error or a graph that validates and round-trips, and never
// panic. The seed corpus in testdata/fuzz holds real encodings, a
// truncated one, a forward reference and an oversized count.
func FuzzReadBinary(f *testing.F) {
	f.Add(tinyBinary())
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := ReadBinary(data); err == nil {
			checkDecoded(t, binaryCodec, m)
		}
	})
}

// FuzzRead holds the .mig text reader to the same contract.
func FuzzRead(f *testing.F) {
	f.Add([]byte(".model m\n.pi a\n.pi b\n.maj 0 1 !2\n.po !3 f\n.end\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := Read(bytes.NewReader(data)); err == nil {
			checkDecoded(t, textCodec, m)
		}
	})
}
