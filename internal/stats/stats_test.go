package stats

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]uint64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Min != 2 || s.Max != 9 || s.Total != 40 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Mean != 5 {
		t.Fatalf("mean = %v", s.Mean)
	}
	// The classic example: population stddev is exactly 2.
	if math.Abs(s.StdDev-2) > 1e-12 {
		t.Fatalf("stdev = %v, want 2", s.StdDev)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.StdDev != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	s := Summarize([]uint64{7})
	if s.Min != 7 || s.Max != 7 || s.StdDev != 0 || s.Mean != 7 {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]uint64{1, 3})
	if !strings.Contains(s.String(), "1/3") {
		t.Fatalf("String = %q", s.String())
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(10, 5); got != 50 {
		t.Fatalf("Improvement(10,5) = %v", got)
	}
	if got := Improvement(10, 12); got != -20 {
		t.Fatalf("Improvement(10,12) = %v", got)
	}
	if got := Improvement(0, 0); got != 0 {
		t.Fatalf("Improvement(0,0) = %v", got)
	}
	if got := Improvement(0, 1); !math.IsInf(got, -1) {
		t.Fatalf("Improvement(0,1) = %v", got)
	}
}

func TestGini(t *testing.T) {
	if g := Gini([]uint64{5, 5, 5, 5}); math.Abs(g) > 1e-12 {
		t.Fatalf("uniform Gini = %v, want 0", g)
	}
	// All writes on one device out of many → close to 1.
	skew := make([]uint64, 100)
	skew[0] = 1000
	if g := Gini(skew); g < 0.95 {
		t.Fatalf("concentrated Gini = %v, want ≈1", g)
	}
	if g := Gini(nil); g != 0 {
		t.Fatalf("empty Gini = %v", g)
	}
	if g := Gini([]uint64{0, 0}); g != 0 {
		t.Fatalf("all-zero Gini = %v", g)
	}
}

func TestLifetime(t *testing.T) {
	if lt := Lifetime([]uint64{1, 5, 3}, 100); lt != 20 {
		t.Fatalf("lifetime = %d, want 20", lt)
	}
	if lt := Lifetime([]uint64{0, 0}, 100); lt != MaxLifetime {
		t.Fatalf("zero-write lifetime = %d", lt)
	}
}

// Property: StdDev is invariant under permutation and zero when all equal.
func TestStdDevPropertiesQuick(t *testing.T) {
	f := func(v []uint16, c uint16) bool {
		writes := make([]uint64, len(v))
		for i, x := range v {
			writes[i] = uint64(x)
		}
		s1 := Summarize(writes)
		// Reverse is a permutation.
		rev := make([]uint64, len(writes))
		for i, x := range writes {
			rev[len(writes)-1-i] = x
		}
		s2 := Summarize(rev)
		if math.Abs(s1.StdDev-s2.StdDev) > 1e-9 {
			return false
		}
		// Constant vectors have zero deviation.
		cons := make([]uint64, 5)
		for i := range cons {
			cons[i] = uint64(c)
		}
		return Summarize(cons).StdDev == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean is bounded by min and max; total = mean*n.
func TestSummaryBoundsQuick(t *testing.T) {
	f := func(v []uint16) bool {
		if len(v) == 0 {
			return true
		}
		writes := make([]uint64, len(v))
		for i, x := range v {
			writes[i] = uint64(x)
		}
		s := Summarize(writes)
		return float64(s.Min) <= s.Mean && s.Mean <= float64(s.Max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyBuckets(t *testing.T) {
	h := NewLatency([]float64{0.001, 0.01})
	for _, d := range []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 10 * time.Millisecond, time.Second} {
		h.Observe(d)
	}
	s := h.Snapshot()
	// A bound is inclusive: 1 ms lands in le=0.001 and 10 ms in le=0.01.
	if want := []uint64{2, 2, 1}; !reflect.DeepEqual(s.Buckets, want) {
		t.Fatalf("buckets = %v, want %v", s.Buckets, want)
	}
	if s.Count != 5 || math.Abs(s.SumSeconds-1.013) > 1e-12 {
		t.Fatalf("count = %d, sum = %v; want 5, 1.013", s.Count, s.SumSeconds)
	}
	if !reflect.DeepEqual(s.Bounds, []float64{0.001, 0.01}) {
		t.Fatalf("bounds = %v", s.Bounds)
	}
}

// TestLatencyConcurrent observes from several goroutines while another
// snapshots; run under -race it checks the histogram needs no lock.
func TestLatencyConcurrent(t *testing.T) {
	h := NewLatency([]float64{0.0005})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			h.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	// 0…500 µs land in le=0.0005: 501 of each goroutine's 1000.
	if s := h.Snapshot(); s.Count != 4000 || s.Buckets[0] != 4*501 {
		t.Fatalf("snapshot = %+v", s)
	}
}
