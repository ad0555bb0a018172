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
// is line i), the format the CLIs and the server accept.
func PackStrings(vectors []string) (*Batch, error) {
	if len(vectors) == 0 {
		return NewBatch(0, 0), nil
	}
	b := NewBatch(len(vectors[0]), len(vectors))
	for v, vec := range vectors {
		if len(vec) != b.lines {
			return nil, fmt.Errorf("exec: vector %d has %d lines, want %d", v, len(vec), b.lines)
		}
		for i := 0; i < len(vec); i++ {
			switch vec[i] {
			case '0':
			case '1':
				b.Set(v, i, true)
			default:
				return nil, fmt.Errorf("exec: vector %d: bad character %q (want 0 or 1)", v, vec[i])
			}
		}
	}
	return b, nil
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
// PackStrings.
func (b *Batch) Strings() []string {
	out := make([]string, b.n)
	buf := make([]byte, b.lines)
	for v := range out {
		for i := 0; i < b.lines; i++ {
			if b.Get(v, i) {
				buf[i] = '1'
			} else {
				buf[i] = '0'
			}
		}
		out[v] = string(buf)
	}
	return out
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
