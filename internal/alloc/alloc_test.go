package alloc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLIFOReusesMostRecent(t *testing.T) {
	a := New(LIFO, 0)
	d0 := a.Acquire(2)
	d1 := a.Acquire(2)
	d2 := a.Acquire(2)
	if d0 != 0 || d1 != 1 || d2 != 2 {
		t.Fatalf("fresh devices must be sequential: %d %d %d", d0, d1, d2)
	}
	a.Release(d0)
	a.Release(d2)
	if got := a.Acquire(2); got != d2 {
		t.Fatalf("LIFO must return the most recently released (%d), got %d", d2, got)
	}
	if got := a.Acquire(2); got != d0 {
		t.Fatalf("then the earlier release (%d), got %d", d0, got)
	}
	if a.NumCells() != 3 {
		t.Fatalf("NumCells = %d, want 3", a.NumCells())
	}
}

func TestMinWriteReturnsColdest(t *testing.T) {
	a := New(MinWrite, 0)
	d0 := a.Acquire(2)
	d1 := a.Acquire(2)
	d2 := a.Acquire(2)
	a.NoteWrite(d0, 5)
	a.NoteWrite(d1, 1)
	a.NoteWrite(d2, 3)
	a.Release(d0)
	a.Release(d1)
	a.Release(d2)
	order := []uint32{a.Acquire(2), a.Acquire(2), a.Acquire(2)}
	if order[0] != d1 || order[1] != d2 || order[2] != d0 {
		t.Fatalf("MinWrite order = %v, want [%d %d %d]", order, d1, d2, d0)
	}
}

func TestMinWriteTieBreaksByAddress(t *testing.T) {
	a := New(MinWrite, 0)
	d0 := a.Acquire(2)
	d1 := a.Acquire(2)
	a.NoteWrite(d0, 2)
	a.NoteWrite(d1, 2)
	a.Release(d1)
	a.Release(d0)
	if got := a.Acquire(2); got != d0 {
		t.Fatalf("equal counts must break ties by address: got %d", got)
	}
}

func TestCapRetiresDevices(t *testing.T) {
	a := New(MinWrite, 4)
	d0 := a.Acquire(2)
	a.NoteWrite(d0, 3) // headroom 2 → 3+2 > 4, no longer eligible
	a.Release(d0)
	if !a.Retired(d0) {
		t.Fatalf("device at cap boundary must retire on release")
	}
	d1 := a.Acquire(2)
	if d1 == d0 {
		t.Fatalf("retired device recycled")
	}
}

func TestCapRetiresLazilyFromFreeSet(t *testing.T) {
	// A device released with headroom can still be skipped at Acquire time
	// if... it cannot: free devices are not written. This test pins that
	// assumption: write counts of free devices never change, so a device
	// eligible at release stays eligible at acquire.
	a := New(MinWrite, 10)
	d0 := a.Acquire(2)
	a.NoteWrite(d0, 8)
	a.Release(d0)
	if got := a.Acquire(2); got != d0 {
		t.Fatalf("eligible device must be recycled, got %d", got)
	}
}

func TestAcquireSkipsDevicesWithoutHeadroomForLargerNeed(t *testing.T) {
	// A device that can take 2 more writes but not 3 must be skipped for a
	// need-3 request yet stay available for a later need-2 request.
	a := New(MinWrite, 10)
	d0 := a.Acquire(2)
	a.NoteWrite(d0, 8) // 8+2 ≤ 10, 8+3 > 10
	a.Release(d0)
	d1 := a.Acquire(3)
	if d1 == d0 {
		t.Fatalf("need-3 request must not get a device with only 2 writes of headroom")
	}
	if got := a.Acquire(2); got != d0 {
		t.Fatalf("skipped device must remain in the free set: got %d, want %d", got, d0)
	}

	// Same behaviour for the LIFO stack, preserving stack order.
	l := New(LIFO, 10)
	e0 := l.Acquire(2)
	e1 := l.Acquire(2)
	l.NoteWrite(e1, 8)
	l.Release(e0)
	l.Release(e1) // e1 on top with only 2 writes of headroom
	if got := l.Acquire(3); got != e0 {
		t.Fatalf("LIFO need-3: got %d, want %d", got, e0)
	}
	if got := l.Acquire(2); got != e1 {
		t.Fatalf("LIFO skipped entry lost: got %d, want %d", got, e1)
	}
}

// TestMinWriteNoHeadroomKeepsFreeSet: when even the least-written free
// device lacks headroom for a request, Acquire hands out a fresh device and
// leaves the free set as it was — same size, same later pop order.
func TestMinWriteNoHeadroomKeepsFreeSet(t *testing.T) {
	build := func() *Allocator {
		a := New(MinWrite, 10)
		devs := make([]uint32, 6)
		for i := range devs {
			devs[i] = a.Acquire(2)
			a.NoteWrite(devs[i], uint64(6+i%3))
		}
		for _, i := range []int{4, 0, 5, 2, 1, 3} {
			a.Release(devs[i])
		}
		return a
	}
	a, ref := build(), build()
	free := a.FreeCount()
	if got := a.Acquire(5); got != 6 { // the coldest free device has 6 writes: 6+5 > 10
		t.Fatalf("no-headroom Acquire returned %d, want fresh device 6", got)
	}
	if a.FreeCount() != free {
		t.Fatalf("FreeCount %d after no-headroom Acquire, want %d", a.FreeCount(), free)
	}
	for i := 0; i < free; i++ {
		if got, want := a.Acquire(2), ref.Acquire(2); got != want {
			t.Fatalf("pop %d after no-headroom Acquire: got %d, want %d", i, got, want)
		}
	}
}

func TestCanWrite(t *testing.T) {
	a := New(LIFO, 5)
	d := a.Acquire(2)
	a.NoteWrite(d, 4)
	if !a.CanWrite(d, 1) {
		t.Fatalf("4+1 ≤ 5 must be allowed")
	}
	if a.CanWrite(d, 2) {
		t.Fatalf("4+2 > 5 must be rejected")
	}
	uncapped := New(LIFO, 0)
	d2 := uncapped.Acquire(2)
	if !uncapped.CanWrite(d2, 1<<40) {
		t.Fatalf("uncapped allocator must always allow writes")
	}
}

func TestNoteWritePanicsBeyondCap(t *testing.T) {
	a := New(LIFO, 2)
	d := a.Acquire(2)
	a.NoteWrite(d, 2)
	defer func() {
		if recover() == nil {
			t.Fatalf("NoteWrite beyond cap must panic")
		}
	}()
	a.NoteWrite(d, 1)
}

func TestDoubleReleasePanics(t *testing.T) {
	a := New(LIFO, 0)
	d := a.Acquire(2)
	a.Release(d)
	defer func() {
		if recover() == nil {
			t.Fatalf("double release must panic")
		}
	}()
	a.Release(d)
}

func TestFreeCount(t *testing.T) {
	for _, k := range []Kind{LIFO, MinWrite} {
		a := New(k, 0)
		d0 := a.Acquire(2)
		d1 := a.Acquire(2)
		a.Release(d0)
		a.Release(d1)
		if a.FreeCount() != 2 {
			t.Fatalf("%v: FreeCount = %d, want 2", k, a.FreeCount())
		}
	}
}

func TestKindString(t *testing.T) {
	if LIFO.String() != "lifo" || MinWrite.String() != "minwrite" || Kind(9).String() != "?" {
		t.Fatalf("Kind.String broken")
	}
}

// Property: under MinWrite, every Acquire that recycles returns a device
// whose write count is minimal among the free set at that moment.
func TestMinWriteIsMinimalQuick(t *testing.T) {
	f := func(ops []byte) bool {
		a := New(MinWrite, 0)
		free := map[uint32]bool{}
		inUse := map[uint32]bool{}
		rng := rand.New(rand.NewSource(int64(len(ops))))
		for _, op := range ops {
			switch op % 3 {
			case 0: // acquire
				// Compute expected minimum over the free set.
				var best uint32
				bestW := uint64(1 << 62)
				hasFree := false
				for addr := range free {
					w := a.Writes(addr)
					if !hasFree || w < bestW || (w == bestW && addr < best) {
						best, bestW, hasFree = addr, w, true
					}
				}
				got := a.Acquire(2)
				if hasFree {
					if got != best {
						return false
					}
					delete(free, got)
				}
				inUse[got] = true
			case 1: // write an in-use device
				for addr := range inUse {
					a.NoteWrite(addr, uint64(rng.Intn(4)))
					break
				}
			case 2: // release one in-use device
				for addr := range inUse {
					a.Release(addr)
					delete(inUse, addr)
					free[addr] = true
					break
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a cap, no device's write count ever exceeds the cap as
// long as callers respect CanWrite; Acquire never returns a device without
// headroom.
func TestCapInvariantQuick(t *testing.T) {
	f := func(ops []byte, capSeed uint8) bool {
		cap := uint64(capSeed%20) + 3
		a := New(MinWrite, cap)
		var inUse []uint32
		for _, op := range ops {
			switch op % 3 {
			case 0:
				d := a.Acquire(2)
				if a.Writes(d)+minNeed > cap {
					return false // no headroom
				}
				inUse = append(inUse, d)
			case 1:
				if len(inUse) > 0 {
					d := inUse[int(op)%len(inUse)]
					if a.CanWrite(d, 1) {
						a.NoteWrite(d, 1)
					}
				}
			case 2:
				if len(inUse) > 0 {
					i := int(op) % len(inUse)
					a.Release(inUse[i])
					inUse = append(inUse[:i], inUse[i+1:]...)
				}
			}
		}
		for addr := uint32(0); int(addr) < a.NumCells(); addr++ {
			if a.Writes(addr) > cap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDebugFacilities(t *testing.T) {
	SetDebugCheck(true)
	defer SetDebugCheck(false)
	var seen []uint32
	DebugAcquireHook = func(addr uint32, writes uint64, pool int) {
		seen = append(seen, addr)
	}
	defer func() { DebugAcquireHook = nil }()
	for _, k := range []Kind{LIFO, MinWrite} {
		seen = nil
		a := New(k, 0)
		d := a.Acquire(2)
		a.NoteWrite(d, 1)
		a.Release(d)
		if got := a.Acquire(2); got != d {
			t.Fatalf("%v: recycle expected", k)
		}
		if len(seen) != 1 || seen[0] != d {
			t.Fatalf("%v: hook saw %v", k, seen)
		}
	}
}

// TestResetMatchesFresh drives a deterministic acquire/write/release script
// against a freshly constructed allocator and against one that previously
// ran a different workload and was Reset — addresses, write counts, cell
// totals and retirements must match exactly. This pins the scratch pool's
// "reused allocator == fresh allocator" contract across both policies and
// the capped path.
func TestResetMatchesFresh(t *testing.T) {
	script := func(a *Allocator, seed int64) ([]uint32, []uint64, []bool) {
		rng := rand.New(rand.NewSource(seed))
		var addrs []uint32
		var inUse []uint32
		for i := 0; i < 300; i++ {
			switch rng.Intn(3) {
			case 0:
				d := a.Acquire(uint64(2 + rng.Intn(2)))
				addrs = append(addrs, d)
				inUse = append(inUse, d)
			case 1:
				if len(inUse) > 0 {
					d := inUse[rng.Intn(len(inUse))]
					if a.CanWrite(d, 1) {
						a.NoteWrite(d, 1)
					}
				}
			case 2:
				if len(inUse) > 0 {
					j := rng.Intn(len(inUse))
					a.Release(inUse[j])
					inUse = append(inUse[:j], inUse[j+1:]...)
				}
			}
		}
		retired := make([]bool, a.NumCells())
		for d := uint32(0); int(d) < a.NumCells(); d++ {
			retired[d] = a.Retired(d)
		}
		return addrs, a.WriteCounts(), retired
	}
	cases := []struct {
		kind Kind
		cap  uint64
	}{
		{LIFO, 0}, {LIFO, 8}, {MinWrite, 0}, {MinWrite, 8},
	}
	for _, tc := range cases {
		fresh := New(tc.kind, tc.cap)
		wantAddrs, wantWrites, wantRetired := script(fresh, 42)

		// Dirty a reusable allocator with a different policy, cap and
		// workload, then Reset it into the case under test.
		reused := New(MinWrite, 6)
		script(reused, 7)
		reused.Reset(tc.kind, tc.cap)
		if reused.Kind() != tc.kind || reused.MaxWrites() != tc.cap {
			t.Fatalf("%v/cap%d: Reset did not apply policy", tc.kind, tc.cap)
		}
		if reused.NumCells() != 0 || reused.FreeCount() != 0 {
			t.Fatalf("%v/cap%d: Reset left state behind", tc.kind, tc.cap)
		}
		gotAddrs, gotWrites, gotRetired := script(reused, 42)

		if len(gotAddrs) != len(wantAddrs) {
			t.Fatalf("%v/cap%d: %d acquisitions vs %d fresh", tc.kind, tc.cap, len(gotAddrs), len(wantAddrs))
		}
		for i := range wantAddrs {
			if gotAddrs[i] != wantAddrs[i] {
				t.Fatalf("%v/cap%d: acquisition %d returned %d, fresh returned %d",
					tc.kind, tc.cap, i, gotAddrs[i], wantAddrs[i])
			}
		}
		for i := range wantWrites {
			if gotWrites[i] != wantWrites[i] {
				t.Fatalf("%v/cap%d: device %d has %d writes, fresh has %d",
					tc.kind, tc.cap, i, gotWrites[i], wantWrites[i])
			}
		}
		for i := range wantRetired {
			if gotRetired[i] != wantRetired[i] {
				t.Fatalf("%v/cap%d: device %d retirement differs", tc.kind, tc.cap, i)
			}
		}
	}
}
