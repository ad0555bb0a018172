package compile

import (
	"math/bits"
	"sync"

	"plim/internal/alloc"
	"plim/internal/isa"
	"plim/internal/mig"
)

// compileScratch is the reusable state of one compilation: every per-node
// table the compiler sweeps, the flattened parent adjacency, the candidate
// heap and instruction buffers, and a resettable device allocator. Compile
// draws a scratch sized for the graph from the package's pool, so compiling
// many functions (or one function under many configurations) performs O(1)
// graph-sized allocations per run instead of rebuilding every table.
//
// Nothing in a scratch outlives the compilation that used it: the emitted
// Result copies the instruction stream, PI/PO tables and write counts into
// exactly-sized private slices before the scratch returns to its pool.
type compileScratch struct {
	alloc alloc.Allocator

	cell      []uint32
	remaining []int32
	computed  []bool
	foLevel   []int32
	level     []int32
	live      []bool
	pending   []int32

	// Flattened parent adjacency: node n's distinct majority parents are
	// parentBuf[parentOff[n]:parentOff[n+1]]. parentCur holds the fill
	// cursors while the adjacency is built.
	parentOff []int32
	parentCur []int32
	parentBuf []mig.NodeID

	heapEntries []heapEntry
	insts       []isa.Instruction
	piCells     []uint32
	pos         []isa.PORef

	invPOCells map[mig.NodeID]uint32
}

// growClear returns buf resized to n with every element zeroed, reusing
// capacity when possible.
func growClear[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		s := buf[:n]
		clear(s)
		return s
	}
	return make([]T, n)
}

// grow returns buf resized to n without clearing; callers must overwrite
// every element before reading it.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// scratchPool recycles compile scratch state across compilations, bucketed
// by graph size so a tiny function never pins the tables of a huge one (and
// vice versa: a huge graph never churns through scratches grown for small
// ones). Every Compile call, on any goroutine, draws from it.
var scratchPool [poolClasses]sync.Pool

const (
	// Graphs below 2^poolMinBits nodes share the smallest class; beyond
	// 2^poolMaxBits they share the largest.
	poolMinBits = 8
	poolMaxBits = 24
	poolClasses = poolMaxBits - poolMinBits + 1
)

func sizeClass(n int) int {
	b := bits.Len(uint(n))
	if b < poolMinBits {
		b = poolMinBits
	}
	if b > poolMaxBits {
		b = poolMaxBits
	}
	return b - poolMinBits
}

// getScratch returns a scratch whose tables are (typically) already sized
// for a graph of n nodes. The caller must resize every table before use;
// getScratch guarantees nothing about the returned scratch's contents.
func getScratch(n int) *compileScratch {
	if sc, ok := scratchPool[sizeClass(n)].Get().(*compileScratch); ok {
		return sc
	}
	return &compileScratch{}
}

// putScratch returns a scratch to the pool bucket matching its grown
// capacity.
func putScratch(sc *compileScratch) {
	scratchPool[sizeClass(cap(sc.cell))].Put(sc)
}
