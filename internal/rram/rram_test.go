package rram

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRM3TruthTable(t *testing.T) {
	// Z ← ⟨P Q̄ Z⟩ for all 8 combinations.
	for row := 0; row < 8; row++ {
		p := row&1 == 1
		q := row>>1&1 == 1
		z := row>>2&1 == 1
		c := NewLinear(1)
		c.Preload(0, z)
		if err := c.RM3(p, q, 0); err != nil {
			t.Fatal(err)
		}
		nq := !q
		want := p && z || nq && z || p && nq
		if got := c.Read(0); got != want {
			t.Errorf("RM3(p=%v q=%v z=%v) = %v, want %v", p, q, z, got, want)
		}
	}
}

func TestRM3IsNotCommutative(t *testing.T) {
	// §II of the paper: RM3 loses commutativity in its first two operands
	// because the second is inverted. Find a witness.
	witness := false
	for row := 0; row < 8; row++ {
		p := row&1 == 1
		q := row>>1&1 == 1
		z := row>>2&1 == 1
		a := NewLinear(1)
		a.Preload(0, z)
		_ = a.RM3(p, q, 0)
		b := NewLinear(1)
		b.Preload(0, z)
		_ = b.RM3(q, p, 0)
		if a.Read(0) != b.Read(0) {
			witness = true
		}
	}
	if !witness {
		t.Fatal("RM3(p,q,·) and RM3(q,p,·) agree everywhere; operand inversion lost")
	}
}

func TestWriteAndSwitchCounting(t *testing.T) {
	c := NewLinear(2)
	if err := c.Write(0, true); err != nil { // 0→1: write + switch
		t.Fatal(err)
	}
	if err := c.Write(0, true); err != nil { // 1→1: write only
		t.Fatal(err)
	}
	d := c.Device(0)
	if d.Writes() != 2 || d.Switches() != 1 {
		t.Fatalf("writes=%d switches=%d, want 2/1", d.Writes(), d.Switches())
	}
	if c.Device(1).Writes() != 0 {
		t.Fatalf("untouched device has writes")
	}
}

func TestPreloadDoesNotCount(t *testing.T) {
	c := NewLinear(1)
	c.Preload(0, true)
	if c.Device(0).Writes() != 0 {
		t.Fatalf("preload counted as write")
	}
	if !c.Read(0) {
		t.Fatalf("preload did not store the value")
	}
}

func TestEnduranceFailure(t *testing.T) {
	c := NewLinear(1, WithEndurance(3))
	for i := 0; i < 3; i++ {
		if err := c.Write(0, i%2 == 0); err != nil {
			t.Fatalf("write %d failed early: %v", i, err)
		}
	}
	if err := c.Write(0, true); err != ErrWornOut {
		t.Fatalf("4th write: got %v, want ErrWornOut", err)
	}
	if !c.Device(0).Failed() {
		t.Fatalf("device should be marked failed")
	}
	// Subsequent writes keep failing.
	if err := c.RM3(true, false, 0); err != ErrWornOut {
		t.Fatalf("RM3 after failure: got %v, want ErrWornOut", err)
	}
}

func TestCycleAccounting(t *testing.T) {
	c := NewLinear(4)
	c.Read(0)
	_ = c.Write(1, true)
	_ = c.RM3(true, true, 2)
	reads, writes, cycles := c.Totals()
	if reads != 1 || writes != 2 {
		t.Fatalf("reads=%d writes=%d", reads, writes)
	}
	if cycles != 1+2 {
		t.Fatalf("cycles=%d, want one per read and per write", cycles)
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	cases := map[string]func(){
		"negative size":          func() { NewLinear(-1) },
		"out-of-range address":   func() { NewLinear(4).Read(4) },
		"address on empty array": func() { _ = NewLinear(0).Write(0, true) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			f()
		}()
	}
}

func TestWriteCountsSnapshot(t *testing.T) {
	c := NewLinear(4)
	_ = c.Write(1, true)
	_ = c.Write(1, false)
	_ = c.Write(3, true)
	got := c.WriteCounts(4)
	want := []uint64{0, 2, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("WriteCounts = %v, want %v", got, want)
		}
	}
	sw := c.SwitchCounts(4)
	if sw[1] != 2 || sw[3] != 1 {
		t.Fatalf("SwitchCounts = %v", sw)
	}
	if len(c.WriteCounts(99)) != 4 {
		t.Fatalf("WriteCounts must clamp n")
	}
}

func TestWearMap(t *testing.T) {
	c := NewLinear(130)
	for i := 0; i < 9; i++ {
		_ = c.Write(0, i%2 == 0)
	}
	_ = c.Write(129, true)
	m := c.WearMap(130)
	if !strings.HasPrefix(m, "9") {
		t.Fatalf("hottest device should render as 9: %q", m[:8])
	}
	if !strings.Contains(m, "\n") {
		t.Fatalf("wear map should wrap lines")
	}
	if !strings.Contains(m, ".") {
		t.Fatalf("cold devices should render as dots")
	}
}

// Property: RM3 equals majority of (P, ¬Q, Z) for arbitrary bit sequences.
func TestRM3MatchesMajorityQuick(t *testing.T) {
	f := func(ops []byte) bool {
		c := NewLinear(1)
		z := false
		for _, op := range ops {
			p := op&1 == 1
			q := op>>1&1 == 1
			if err := c.RM3(p, q, 0); err != nil {
				return false
			}
			nq := !q
			z = p && z || nq && z || p && nq
			if c.Read(0) != z {
				return false
			}
		}
		return c.Device(0).Writes() == uint64(len(ops))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
