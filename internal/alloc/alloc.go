// Package alloc provides the RRAM device allocation strategies of the
// endurance-management scheme (Shirinzadeh et al., DATE 2017).
//
// The PLiM compiler requests a device whenever a value needs a fresh home
// and releases devices whose values are dead. How the free set answers a
// request is the first endurance lever:
//
//   - LIFO: a plain free stack. The most recently released device is reused
//     first, concentrating writes — this is the naive behaviour and also what
//     the baseline compiler [21] uses.
//   - MinWrite: the free device with the smallest write count is returned
//     (the paper's "minimum write count strategy").
//
// Independently, a maximum write cap can be set (the paper's "maximum write
// count strategy"): a device whose write count reaches the cap is retired
// instead of returning to the free set, forcing fresh allocations and
// trading area/latency for balance. The cap is enforced so no device ever
// exceeds MaxWrites writes; the compiler additionally consults CanWrite
// before overwriting a device in place.
package alloc

import (
	"fmt"
)

// Kind selects a free-set policy.
type Kind uint8

// Allocation policies.
const (
	LIFO Kind = iota
	MinWrite
)

// String names the policy.
func (k Kind) String() string {
	switch k {
	case LIFO:
		return "lifo"
	case MinWrite:
		return "minwrite"
	}
	return "?"
}

// Allocator hands out device addresses and tracks per-device write counts.
// It is the single bookkeeper for the paper's #R metric (NumCells) and for
// the write-count distribution the tables report.
type Allocator struct {
	kind Kind
	// maxWrites is the per-device cap; 0 = unlimited.
	maxWrites uint64

	writes  []uint64 // per allocated device
	inUse   []bool
	retired []bool

	// wear is the per-device cost-weighted wear (internal/cost), maintained
	// lazily by NoteWear: compilations without a cost model never touch it.
	// It annotates allocator decisions without influencing them — the free
	// set policies order by writes, so behaviour is unchanged by default.
	wear []uint64

	freeStack []uint32  // LIFO policy
	freeHeap  writeHeap // MinWrite policy

	// Acquire-time scratch for LIFO free-stack entries skipped because they
	// lack headroom for the current request. Reused across calls so a
	// cap-heavy compilation does not allocate per Acquire.
	skipStack []uint32
}

// New returns an allocator with the given policy and write cap (0 = none).
func New(kind Kind, maxWrites uint64) *Allocator {
	return &Allocator{kind: kind, maxWrites: maxWrites}
}

// Reset re-initializes the allocator for a new program under a (possibly
// different) policy and cap, keeping the capacity of every internal slice.
// A reset allocator behaves exactly like a fresh New(kind, maxWrites): all
// devices, write counts, retirements and free-set state are dropped. It is
// the reuse hook of the compile scratch pool — one Allocator serves many
// compilations without reallocating its tables.
func (a *Allocator) Reset(kind Kind, maxWrites uint64) {
	a.kind = kind
	a.maxWrites = maxWrites
	a.writes = a.writes[:0]
	a.inUse = a.inUse[:0]
	a.retired = a.retired[:0]
	a.wear = a.wear[:0]
	a.freeStack = a.freeStack[:0]
	a.freeHeap = a.freeHeap[:0]
}

// Kind returns the policy.
func (a *Allocator) Kind() Kind { return a.kind }

// MaxWrites returns the per-device cap (0 = unlimited).
func (a *Allocator) MaxWrites() uint64 { return a.maxWrites }

// NumCells returns the total number of devices ever allocated — the paper's
// #R metric.
func (a *Allocator) NumCells() int { return len(a.writes) }

// Writes returns the write count of device addr.
func (a *Allocator) Writes(addr uint32) uint64 { return a.writes[addr] }

// WriteCounts returns a copy of all per-device write counts.
func (a *Allocator) WriteCounts() []uint64 {
	//plim:alloc-ok one result copy per compile, not per operation
	return append([]uint64(nil), a.writes...)
}

// minNeed is the smallest number of writes any recycled device receives
// (a preset followed by the main RM3). Devices without even that headroom
// are retired on release; they can never serve a request again.
const minNeed = 2

func (a *Allocator) eligible(addr uint32, need uint64) bool {
	return a.maxWrites == 0 || a.writes[addr]+need <= a.maxWrites
}

// CanWrite reports whether device addr may take n more writes without
// violating the cap. The compiler uses it to decide whether a value's
// device can be overwritten in place.
func (a *Allocator) CanWrite(addr uint32, n uint64) bool {
	return a.maxWrites == 0 || a.writes[addr]+n <= a.maxWrites
}

// Acquire returns a device that can still absorb need more writes: a
// recycled one according to the policy when available, otherwise a fresh
// device. Free devices that lack headroom for this request but could serve
// a smaller one are skipped and kept in the free set.
func (a *Allocator) Acquire(need uint64) uint32 {
	switch a.kind {
	case LIFO:
		skipped := a.skipStack[:0]
		for len(a.freeStack) > 0 {
			addr := a.freeStack[len(a.freeStack)-1]
			a.freeStack = a.freeStack[:len(a.freeStack)-1]
			if a.eligible(addr, need) {
				// Restore skipped entries in their original order.
				for i := len(skipped) - 1; i >= 0; i-- {
					a.freeStack = append(a.freeStack, skipped[i])
				}
				a.skipStack = skipped[:0]
				a.inUse[addr] = true
				if DebugAcquireHook != nil {
					DebugAcquireHook(addr, a.writes[addr], len(a.freeStack))
				}
				return addr
			}
			skipped = append(skipped, addr)
		}
		for i := len(skipped) - 1; i >= 0; i-- {
			a.freeStack = append(a.freeStack, skipped[i])
		}
		a.skipStack = skipped[:0]
	case MinWrite:
		// The heap pops in write order and headroom only shrinks as writes
		// grow, so when the least-written free device cannot take need more
		// writes, no free device can.
		if a.freeHeap.Len() > 0 && a.eligible(a.freeHeap[0].addr, need) {
			addr := a.freeHeap.pop()
			if debugCheck {
				for _, e := range a.freeHeap {
					if a.writes[e.addr] < a.writes[addr] {
						panic(fmt.Sprintf("alloc: popped %d (w=%d) but %d (w=%d) is free",
							addr, a.writes[addr], e.addr, a.writes[e.addr]))
					}
				}
			}
			a.inUse[addr] = true
			if DebugAcquireHook != nil {
				DebugAcquireHook(addr, a.writes[addr], a.freeHeap.Len())
			}
			return addr
		}
	}
	addr := uint32(len(a.writes))
	a.writes = append(a.writes, 0)
	a.inUse = append(a.inUse, true)
	a.retired = append(a.retired, false)
	return addr
}

// Release returns a device to the free set (or retires it when it no longer
// has cap headroom).
func (a *Allocator) Release(addr uint32) {
	if !a.inUse[addr] {
		panic(fmt.Sprintf("alloc: double release of device %d", addr))
	}
	a.inUse[addr] = false
	if !a.eligible(addr, minNeed) {
		a.retired[addr] = true
		return
	}
	switch a.kind {
	case LIFO:
		a.freeStack = append(a.freeStack, addr)
	case MinWrite:
		a.freeHeap.push(heapEntry{addr: addr, writes: a.writes[addr]})
	}
}

// NoteWrite records n write pulses on device addr. It panics if the cap
// would be exceeded — the compiler must check CanWrite first, so a panic
// here is a compiler bug, not an input error.
func (a *Allocator) NoteWrite(addr uint32, n uint64) {
	if a.maxWrites > 0 && a.writes[addr]+n > a.maxWrites {
		panic(fmt.Sprintf("alloc: device %d would exceed cap %d (has %d, +%d)",
			addr, a.maxWrites, a.writes[addr], n))
	}
	a.writes[addr] += n
}

// NoteWear records w cost-weighted wear on device addr (see internal/cost:
// the model's per-class wear increment, 1 per write pulse by default). The
// wear table grows lazily to the current device count, so compilations that
// never call NoteWear pay nothing for it.
func (a *Allocator) NoteWear(addr uint32, w uint64) {
	if int(addr) >= len(a.wear) {
		a.wear = append(a.wear, make([]uint64, len(a.writes)-len(a.wear))...)
	}
	a.wear[addr] += w
}

// MaxWear returns the hottest device's cost-weighted wear — the quantity
// that bounds the compiled program's lifetime under a cost model. It is
// zero when NoteWear was never called.
func (a *Allocator) MaxWear() uint64 {
	var max uint64
	for _, w := range a.wear {
		if w > max {
			max = w
		}
	}
	return max
}

// WearCounts returns a copy of the per-device cost-weighted wear, padded to
// NumCells (devices allocated after the last NoteWear have zero wear).
func (a *Allocator) WearCounts() []uint64 {
	//plim:alloc-ok one result copy per compile, not per operation
	out := make([]uint64, len(a.writes))
	copy(out, a.wear)
	return out
}

// Retired reports whether addr was retired by the cap.
func (a *Allocator) Retired(addr uint32) bool { return a.retired[addr] }

// FreeCount returns the number of devices currently in the free set
// (possibly including devices that will be retired on their next pop).
func (a *Allocator) FreeCount() int {
	if a.kind == LIFO {
		return len(a.freeStack)
	}
	return a.freeHeap.Len()
}

// writeHeap is a min-heap of free devices ordered by write count with the
// address as a deterministic tie-break. Write counts of free devices never
// change (only in-use devices are written), so stored keys stay valid. A
// device is free at most once, so keys are unique and the pop order is fixed
// by key order alone, whatever the sift operations do.
//
// The sift operations are written out over the concretely-typed slice to
// avoid container/heap's per-Push interface boxing — one heap allocation
// per device release, which dominated allocation counts under the MinWrite
// policy.
type heapEntry struct {
	addr   uint32
	writes uint64
}

type writeHeap []heapEntry

func (h writeHeap) Len() int { return len(h) }
func (h writeHeap) less(i, j int) bool {
	if h[i].writes != h[j].writes {
		return h[i].writes < h[j].writes
	}
	return h[i].addr < h[j].addr
}
func (h writeHeap) swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *writeHeap) push(e heapEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *writeHeap) pop() uint32 {
	old := *h
	n := len(old) - 1
	old.swap(0, n)
	old.down(0, n)
	e := old[n]
	*h = old[:n]
	return e.addr
}

func (h writeHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h writeHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // = 2*i + 2, right child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
}

// debugCheck enables expensive internal invariant checks; tests and probes
// may flip it.
var debugCheck = false

// SetDebugCheck toggles the internal invariant checks.
func SetDebugCheck(v bool) { debugCheck = v }

// DebugAcquireHook, when non-nil, observes every successful recycled-device
// acquisition (debug/probing aid).
var DebugAcquireHook func(addr uint32, writes uint64, poolSize int)
