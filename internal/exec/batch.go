// Package exec provides a bit-sliced executor for compiled PLiM programs:
// 64 input vectors are packed into each machine word, so one pass over the
// instruction stream evaluates 64 executions at once. Crossbar cells become
// uint64 state words, the RM3 majority becomes three logic ops per
// instruction, and wear accounting aggregates per-cell write and switch
// counts across all lanes (switches via popcount), keeping the results
// semantically identical to running internal/isa's scalar interpreter once
// per vector on a fresh crossbar.
package exec

import (
	"fmt"
	"math/rand"
	"slices"
)

// wordBits is the lane count: vectors per state word.
const wordBits = 64

// Batch is a bit-sliced block of boolean vectors: vector v's line i value is
// bit (v % 64) of words[i][v/64]. The same layout carries program inputs
// (lines = primary inputs) and outputs (lines = primary outputs). Lanes
// beyond Len() in the final chunk are inactive: they hold zeros and are
// excluded from wear accounting and unpacking.
type Batch struct {
	lines int
	n     int
	words [][]uint64 // [line][chunk]
}

// NewBatch returns an all-zero batch of n vectors of the given width.
func NewBatch(lines, n int) *Batch {
	if lines < 0 || n < 0 {
		panic("exec: negative batch dimensions")
	}
	chunks := (n + wordBits - 1) / wordBits
	words := make([][]uint64, lines)
	backing := make([]uint64, lines*chunks)
	for i := range words {
		words[i], backing = backing[:chunks:chunks], backing[chunks:]
	}
	return &Batch{lines: lines, n: n, words: words}
}

// Pack builds a batch from one []bool per vector; all vectors must share a
// width (width 0 is allowed only for an empty batch).
func Pack(vectors [][]bool) (*Batch, error) {
	if len(vectors) == 0 {
		return NewBatch(0, 0), nil
	}
	b := NewBatch(len(vectors[0]), len(vectors))
	for v, vec := range vectors {
		if len(vec) != b.lines {
			return nil, fmt.Errorf("exec: vector %d has %d lines, want %d", v, len(vec), b.lines)
		}
		for i, val := range vec {
			b.Set(v, i, val)
		}
	}
	return b, nil
}

// PackStrings builds a batch from "0101"-style vector strings (character i
// is line i), the format the CLIs and the server accept. It sizes the
// batch once and appends every vector with AppendString.
func PackStrings(vectors []string) (*Batch, error) {
	if len(vectors) == 0 {
		return NewBatch(0, 0), nil
	}
	b := NewBatch(len(vectors[0]), len(vectors))
	b.n = 0
	for i := range b.words {
		b.words[i] = b.words[i][:0]
	}
	for _, vec := range vectors {
		if err := b.AppendString(vec); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// AppendString appends one "0101"-style vector (character i is line i).
// The first vector appended to an empty batch fixes its width; every later
// one must match it. Word columns grow by one per 64 vectors (amortized
// append), so a batch built vector by vector — the server's streamed input
// — holds the packed size of what has arrived, never the raw text. On an
// error the batch is left as it was.
func (b *Batch) AppendString(vec string) error {
	for i := 0; i < len(vec); i++ {
		if vec[i] != '0' && vec[i] != '1' {
			return fmt.Errorf("exec: vector %d: bad character %q (want 0 or 1)", b.n, vec[i])
		}
	}
	if b.n == 0 && len(vec) != b.lines {
		b.lines = len(vec)
		b.words = make([][]uint64, b.lines)
	}
	if len(vec) != b.lines {
		return fmt.Errorf("exec: vector %d has %d lines, want %d", b.n, len(vec), b.lines)
	}
	chunk, bit := b.n/wordBits, uint(b.n%wordBits)
	for i := range b.words {
		if bit == 0 {
			b.words[i] = append(b.words[i], 0)
		}
		b.words[i][chunk] |= uint64(vec[i]-'0') << bit
	}
	b.n++
	return nil
}

// Random returns a batch of n uniformly random vectors, deterministic in
// seed.
func Random(lines, n int, seed int64) *Batch {
	b := NewBatch(lines, n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < lines; i++ {
		for c := range b.words[i] {
			b.words[i][c] = rng.Uint64() & b.ActiveMask(c)
		}
	}
	return b
}

// Exhaustive returns the full truth-table batch: 2^lines vectors where
// vector v's line i is bit i of v. lines is capped at 24 (16 Mi vectors).
func Exhaustive(lines int) (*Batch, error) {
	if lines > 24 {
		return nil, fmt.Errorf("exec: exhaustive batch over %d inputs is too large (max 24)", lines)
	}
	b := NewBatch(lines, 1<<lines)
	for i := 0; i < lines; i++ {
		for c := range b.words[i] {
			b.words[i][c] = exhaustiveWord(i, c) & b.ActiveMask(c)
		}
	}
	return b, nil
}

// basisWords[i] has bit l set iff bit i of l is set — the six alternating
// patterns that enumerate lane indices inside one 64-lane chunk.
var basisWords = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// exhaustiveWord returns the word of line i in chunk c of the exhaustive
// enumeration: bit l = bit i of vector index c*64+l. Below bit 6 that is a
// basis pattern; from bit 6 upward the bit is constant across a chunk.
func exhaustiveWord(i, c int) uint64 {
	if i < 6 {
		return basisWords[i]
	}
	if c>>(i-6)&1 == 1 {
		return ^uint64(0)
	}
	return 0
}

// Len reports the number of vectors in the batch.
func (b *Batch) Len() int { return b.n }

// Lines reports the vector width (bit-lines per vector).
func (b *Batch) Lines() int { return b.lines }

// Chunks reports the number of 64-lane word columns.
func (b *Batch) Chunks() int { return (b.n + wordBits - 1) / wordBits }

// ActiveMask returns the mask of in-range lanes for a chunk: all ones except
// on the final, possibly partial, chunk.
func (b *Batch) ActiveMask(chunk int) uint64 {
	if rem := b.n - chunk*wordBits; rem < wordBits {
		return 1<<uint(rem) - 1
	}
	return ^uint64(0)
}

// Word returns the state word of one line in one chunk.
func (b *Batch) Word(line, chunk int) uint64 { return b.words[line][chunk] }

// SetWord stores a state word; inactive lanes are masked off so every batch
// stays canonical (equal content ⇒ equal words, which Hash relies on).
func (b *Batch) SetWord(line, chunk int, w uint64) {
	b.words[line][chunk] = w & b.ActiveMask(chunk)
}

// Set assigns one bit.
func (b *Batch) Set(vector, line int, v bool) {
	if v {
		b.words[line][vector/wordBits] |= 1 << uint(vector%wordBits)
	} else {
		b.words[line][vector/wordBits] &^= 1 << uint(vector%wordBits)
	}
}

// Get reads one bit.
func (b *Batch) Get(vector, line int) bool {
	return b.words[line][vector/wordBits]>>uint(vector%wordBits)&1 == 1
}

// Vector unpacks one vector.
func (b *Batch) Vector(v int) []bool {
	out := make([]bool, b.lines)
	for i := range out {
		out[i] = b.Get(v, i)
	}
	return out
}

// Unpack expands the batch back into one []bool per vector.
func (b *Batch) Unpack() [][]bool {
	out := make([][]bool, b.n)
	for v := range out {
		out[v] = b.Vector(v)
	}
	return out
}

// Strings renders every vector in the "0101" format accepted by
// PackStrings. The vectors are written back to back by AppendVectors, and
// every string is a slice of that one text.
func (b *Batch) Strings() []string {
	all := string(b.AppendVectors(make([]byte, 0, b.n*b.lines), "", ""))
	out := make([]string, b.n)
	for v := range out {
		out[v] = all[v*b.lines : (v+1)*b.lines]
	}
	return out
}

// AppendVectors appends every vector to dst in the "0101" format, each
// one preceded by before and followed by after, and returns the extended
// slice; with before `"` and after `",` that is a JSON array's elements
// and a trailing comma. It is the one bit-to-text loop of the package:
// dst grows once, and each 64-lane chunk is delimited and then filled
// line by line straight from its state words, so every word is read once.
func (b *Batch) AppendVectors(dst []byte, before, after string) []byte {
	stride := len(before) + b.lines + len(after)
	start := len(dst)
	dst = slices.Grow(dst, b.n*stride)[:start+b.n*stride]
	text := dst[start:]
	for c := range b.Chunks() {
		lanes := min(wordBits, b.n-c*wordBits)
		chunk := text[c*wordBits*stride : (c*wordBits+lanes)*stride]
		if c == 0 {
			for v := range lanes {
				rec := chunk[v*stride : (v+1)*stride]
				copy(rec, before)
				copy(rec[len(before)+b.lines:], after)
			}
		} else {
			// Every chunk is delimited as the first, full one is: copy
			// it, bits and all, and overwrite the bits below.
			copy(chunk, text)
		}
		for i, line := range b.words {
			w := line[c]
			for k := len(before) + i; k < len(chunk); k += stride {
				chunk[k] = '0' + byte(w&1)
				w >>= 1
			}
		}
	}
	return dst
}

// Hash returns a 64-bit FNV-1a content hash over the batch's dimensions and
// words — the input component of serving-layer coalescing keys. SetWord
// keeps inactive lanes zero, so equal content hashes equally regardless of
// how the batch was built.
func (b *Batch) Hash() uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(b.lines))
	mix(uint64(b.n))
	for _, line := range b.words {
		for _, w := range line {
			mix(w)
		}
	}
	return h
}
