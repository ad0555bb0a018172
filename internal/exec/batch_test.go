package exec

import (
	"slices"
	"testing"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	vectors := [][]bool{
		{true, false, true},
		{false, false, false},
		{true, true, true},
		{false, true, false},
	}
	b, err := Pack(vectors)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 4 || b.Lines() != 3 || b.Chunks() != 1 {
		t.Fatalf("got %d vectors × %d lines in %d chunks", b.Len(), b.Lines(), b.Chunks())
	}
	got := b.Unpack()
	for v := range vectors {
		for i := range vectors[v] {
			if got[v][i] != vectors[v][i] {
				t.Fatalf("vector %d line %d: got %v", v, i, got[v][i])
			}
		}
	}
}

func TestPackRejectsRaggedVectors(t *testing.T) {
	if _, err := Pack([][]bool{{true}, {true, false}}); err == nil {
		t.Fatal("ragged Pack succeeded")
	}
}

func TestPackStrings(t *testing.T) {
	b, err := PackStrings([]string{"01", "10", "11"})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]bool{{false, true}, {true, false}, {true, true}}
	for v := range want {
		for i := range want[v] {
			if b.Get(v, i) != want[v][i] {
				t.Fatalf("vector %d line %d: got %v", v, i, b.Get(v, i))
			}
		}
	}
	if got := b.Strings(); got[0] != "01" || got[1] != "10" || got[2] != "11" {
		t.Fatalf("Strings round trip: %q", got)
	}
	if _, err := PackStrings([]string{"0x"}); err == nil {
		t.Fatal("bad character accepted")
	}
	if _, err := PackStrings([]string{"01", "011"}); err == nil {
		t.Fatal("ragged strings accepted")
	}
}

// TestAppendStringMatchesPackStrings: growing an empty batch one vector
// at a time is equivalent to the one-shot constructor across
// chunk-boundary sizes, including Hash (the coalescing key), so streamed
// and buffered requests coalesce.
func TestAppendStringMatchesPackStrings(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 200} {
		vecs := make([]string, n)
		for v := range vecs {
			buf := make([]byte, 7)
			for i := range buf {
				buf[i] = '0' + byte((v>>uint(i%3)+i*v)&1)
			}
			vecs[v] = string(buf)
		}
		want, err := PackStrings(vecs)
		if err != nil {
			t.Fatal(err)
		}
		got := NewBatch(0, 0)
		for _, vec := range vecs {
			if err := got.AppendString(vec); err != nil {
				t.Fatal(err)
			}
		}
		if got.Len() != n || got.Lines() != 7 || got.Chunks() != want.Chunks() {
			t.Fatalf("n=%d: dimensions %d×%d/%d", n, got.Lines(), got.Len(), got.Chunks())
		}
		if got.Hash() != want.Hash() || !slices.Equal(got.Strings(), want.Strings()) {
			t.Fatalf("n=%d: appended batch diverges from PackStrings", n)
		}
	}
}

// TestAppendStringRejectsBadInput: a ragged or non-binary vector is
// refused and leaves the batch as it was.
func TestAppendStringRejectsBadInput(t *testing.T) {
	b := NewBatch(0, 0)
	if err := b.AppendString("010"); err != nil {
		t.Fatal(err)
	}
	h := b.Hash()
	if err := b.AppendString("0101"); err == nil {
		t.Fatal("ragged vector accepted")
	}
	if err := b.AppendString("01x"); err == nil {
		t.Fatal("bad character accepted")
	}
	if b.Len() != 1 || b.Lines() != 3 || b.Hash() != h {
		t.Fatalf("refused vectors changed the batch: %d×%d", b.Lines(), b.Len())
	}
	b = NewBatch(0, 0)
	if err := b.AppendString("01x"); err == nil {
		t.Fatal("bad character accepted")
	}
	if b.Len() != 0 || b.Lines() != 0 {
		t.Fatalf("refused first vector changed the empty batch: %d×%d", b.Lines(), b.Len())
	}
}

// TestAppendStringEmpty: an empty batch has no chunks, and the first
// vector appended fixes its width whatever width it was made with.
func TestAppendStringEmpty(t *testing.T) {
	b := NewBatch(0, 0)
	if b.Len() != 0 || b.Lines() != 0 || b.Chunks() != 0 {
		t.Fatalf("empty batch: %d×%d", b.Lines(), b.Len())
	}
	b = NewBatch(5, 0)
	if err := b.AppendString("01"); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 || b.Lines() != 2 || b.Chunks() != 1 || b.Strings()[0] != "01" {
		t.Fatalf("first vector did not fix the width: %d×%d %q", b.Lines(), b.Len(), b.Strings())
	}
}

func TestActiveMask(t *testing.T) {
	b := NewBatch(1, 70)
	if b.Chunks() != 2 {
		t.Fatalf("chunks = %d", b.Chunks())
	}
	if m := b.ActiveMask(0); m != ^uint64(0) {
		t.Fatalf("full chunk mask = %x", m)
	}
	if m := b.ActiveMask(1); m != 1<<6-1 {
		t.Fatalf("partial chunk mask = %x", m)
	}
}

func TestSetWordMasksInactiveLanes(t *testing.T) {
	b := NewBatch(1, 3)
	b.SetWord(0, 0, ^uint64(0))
	if w := b.Word(0, 0); w != 0b111 {
		t.Fatalf("word = %b, want inactive lanes cleared", w)
	}
}

func TestExhaustiveEnumeratesAllVectors(t *testing.T) {
	const lines = 8
	b, err := Exhaustive(lines)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1<<lines {
		t.Fatalf("len = %d", b.Len())
	}
	for v := 0; v < b.Len(); v++ {
		for i := 0; i < lines; i++ {
			if b.Get(v, i) != (v>>i&1 == 1) {
				t.Fatalf("vector %d line %d wrong", v, i)
			}
		}
	}
	if _, err := Exhaustive(25); err == nil {
		t.Fatal("oversized exhaustive batch accepted")
	}
}

func TestHashIsContentHash(t *testing.T) {
	a := Random(5, 100, 42)
	b := Random(5, 100, 42)
	if a.Hash() != b.Hash() {
		t.Fatal("same content, different hash")
	}
	// Bit-by-bit reconstruction must hash identically (canonical form).
	c := NewBatch(5, 100)
	for v := 0; v < 100; v++ {
		for i := 0; i < 5; i++ {
			c.Set(v, i, a.Get(v, i))
		}
	}
	if a.Hash() != c.Hash() {
		t.Fatal("reconstruction hashes differently")
	}
	c.Set(99, 4, !c.Get(99, 4))
	if a.Hash() == c.Hash() {
		t.Fatal("flipped bit, same hash")
	}
	if Random(5, 100, 43).Hash() == a.Hash() {
		t.Fatal("different seed, same hash")
	}
}

func TestRandomIsDeterministicAndMasked(t *testing.T) {
	b := Random(3, 65, 7)
	if got := b.Word(0, 1) &^ b.ActiveMask(1); got != 0 {
		t.Fatalf("inactive lanes set: %x", got)
	}
	c := Random(3, 65, 7)
	for i := 0; i < 3; i++ {
		for ch := 0; ch < b.Chunks(); ch++ {
			if b.Word(i, ch) != c.Word(i, ch) {
				t.Fatal("same seed, different batch")
			}
		}
	}
}

func FuzzBatchRoundTrip(f *testing.F) {
	f.Add(uint8(3), []byte{0xa5, 0x5a})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(16), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, width uint8, data []byte) {
		lines := int(width%24) + 1
		n := len(data) * 8 / lines
		if n > 512 {
			n = 512
		}
		vectors := make([][]bool, n)
		bit := func(k int) bool { return data[k/8]>>(k%8)&1 == 1 }
		for v := range vectors {
			vec := make([]bool, lines)
			for i := range vec {
				vec[i] = bit(v*lines + i)
			}
			vectors[v] = vec
		}
		b, err := Pack(vectors)
		if err != nil {
			t.Fatalf("pack: %v", err)
		}
		got := b.Unpack()
		if len(got) != len(vectors) {
			t.Fatalf("unpacked %d vectors, want %d", len(got), len(vectors))
		}
		for v := range vectors {
			for i := range vectors[v] {
				if got[v][i] != vectors[v][i] {
					t.Fatalf("vector %d line %d mismatch", v, i)
				}
			}
		}
		// The string form must round-trip to an identical (hash-equal) batch.
		c, err := PackStrings(b.Strings())
		if err != nil {
			t.Fatalf("pack strings: %v", err)
		}
		if n > 0 && (c.Len() != b.Len() || c.Lines() != b.Lines() || c.Hash() != b.Hash()) {
			t.Fatal("string round trip changed the batch")
		}
	})
}

// TestStringsMatchesPerBit: Strings, which renders whole state words,
// equals the vector-by-vector, bit-by-bit rendering for partial, exact and
// multi-chunk batch lengths at every width from 0 to 130 lines.
func TestStringsMatchesPerBit(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 4097} {
		for lines := 0; lines <= 130; lines++ {
			b := Random(lines, n, int64(n*131+lines))
			got := b.Strings()
			if len(got) != n {
				t.Fatalf("n=%d lines=%d: %d strings", n, lines, len(got))
			}
			buf := make([]byte, lines)
			for v := range n {
				for i := range buf {
					buf[i] = '0'
					if b.Get(v, i) {
						buf[i] = '1'
					}
				}
				if got[v] != string(buf) {
					t.Fatalf("n=%d lines=%d: vector %d is %q, want %q", n, lines, v, got[v], buf)
				}
			}
		}
	}
}

// TestAppendVectorsMatchesPerBit: AppendVectors keeps what dst held and
// appends every vector, between its delimiters, exactly as the
// vector-by-vector, bit-by-bit rendering does.
func TestAppendVectorsMatchesPerBit(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		for _, lines := range []int{0, 1, 7, 64, 65} {
			b := Random(lines, n, int64(n*67+lines))
			want := []byte("[")
			for v := range n {
				want = append(want, '"')
				for i := range lines {
					want = append(want, '0')
					if b.Get(v, i) {
						want[len(want)-1] = '1'
					}
				}
				want = append(want, '"', ',')
			}
			if got := b.AppendVectors([]byte("["), `"`, `",`); string(got) != string(want) {
				t.Fatalf("n=%d lines=%d:\n got %s\nwant %s", n, lines, got, want)
			}
		}
	}
}
