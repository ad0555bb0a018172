package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"plim"
)

func TestPercentileAndTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Error("empty samples must yield NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// Ten samples beyond the percentile, not nine.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{100, 0.9, true}, {99, 0.9, false}, {200, 0.95, true}, {199, 0.95, false}, {1000, 0.99, true}, {999, 0.99, false}, {0, 0.5, false}} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), the
// spread an external checker computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCoveredUnionsOverlaps(t *testing.T) {
	for _, c := range []struct {
		ivs    [][2]float64
		lo, hi float64
		want   float64
	}{
		{nil, 0, 10, 0},
		{[][2]float64{{1, 3}, {2, 5}, {7, 8}}, 0, 10, 5},   // overlap counts once
		{[][2]float64{{2, 5}, {1, 3}, {3, 4}}, 0, 10, 4},   // order-independent, nested
		{[][2]float64{{-5, 2}, {8, 20}}, 0, 10, 4},         // clipped to the parent
		{[][2]float64{{1, 2}, {2, 3}}, 0, 10, 2},           // touching
		{[][2]float64{{11, 12}, {-3, -1}}, 0, 10, 0},       // outside entirely
		{[][2]float64{{0, 10}, {1, 2}, {3, 4}}, 0, 10, 10}, // full cover
	} {
		if got := covered(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("covered(%v, %v, %v) = %v, want %v", c.ivs, c.lo, c.hi, got, c.want)
		}
	}
}

func TestSelfTimeAndClampedOpenSpans(t *testing.T) {
	// A program root [0, 10] with two overlapping workers' tasks and one
	// task left open at export, under a 12 ms client span.
	prog := []span{
		{parent: -1, kind: "call", start: 0, end: 10, worker: -1},
		{parent: 0, kind: "compile", start: 1, end: 6, worker: 0},
		{parent: 0, kind: "compile", start: 4, end: 8, worker: 1},
		{parent: 1, kind: "cache", outcome: "disk-hit", start: 2, end: 3, worker: -1},
		{parent: 0, kind: "rewrite", start: 9, end: -1, worker: 0}, // still open
	}
	spans := clientOp(12, prog)
	if spans[0].dur() != 12 || spans[1].start != 2 || spans[1].end != 12 {
		t.Fatalf("program not shifted under the client span: %+v", spans[:2])
	}
	if open := spans[5]; open.end != spans[1].end {
		t.Errorf("open span ends at %v, want its parent's end %v", open.end, spans[1].end)
	}
	self := selfTimes(spans)
	// client 12 − 10; call 10 − |[1,8] ∪ [9,10]| = 2; first compile 5 − 1.
	for i, want := range []float64{2, 2, 4, 4, 1, 1} {
		if self[i] != want {
			t.Errorf("self[%d] (%s) = %v, want %v", i, spans[i].kind, self[i], want)
		}
	}

	var l layers
	l.add(spans, 100, 0)
	if got := l.coverage(); got != 0.8 {
		t.Errorf("coverage = %v, want 0.8 (8 of 10 ms explained)", got)
	}
	if l.perOp("compile") != 8 || l.perOp("cache.disk-hit") != 1 || l.perOp("client") != 2 {
		t.Errorf("layer self times: %v", l.self)
	}
	if len(l.queueWaits) != 3 {
		t.Errorf("queue waits recorded for %d worker spans, want 3", len(l.queueWaits))
	}
}

func TestClosedLoopIndicesAndAccounting(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	seg := closedLoop(50*time.Millisecond, 2, 100, func(_, i int) outcome {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		time.Sleep(time.Millisecond)
		return outcome{ok: i%3 != 0, units: 2}
	})
	failed := 0
	for i := 100; i < 100+len(seen); i++ {
		if seen[i] != 1 {
			t.Errorf("index %d sent %d times, want once", i, seen[i])
		}
		if i%3 == 0 {
			failed++
		}
	}
	if seg.attempted != len(seen) || seg.failed != failed {
		t.Errorf("attempted %d, failed %d; want %d, %d", seg.attempted, seg.failed, len(seen), failed)
	}
	if len(seg.lat) != seg.attempted-seg.failed || seg.units != 2*float64(len(seg.lat)) {
		t.Errorf("%d latencies and %v units for %d successful ops", len(seg.lat), seg.units, seg.attempted-seg.failed)
	}
	if seg.wall < 50*time.Millisecond || slices.Min(seg.lat) < 1 {
		t.Errorf("wall %v, fastest op %v ms: the loop must run its whole window and time each op", seg.wall, slices.Min(seg.lat))
	}
}

func TestRequestsArePureFunctionsOfSeed(t *testing.T) {
	if hotSpecAt(3, 41) != hotSpecAt(3, 41) || splitmix(3, 41) == splitmix(4, 41) {
		t.Error("request specs must be pure functions of (seed, index)")
	}
	a, b, c := newColdTraffic(3, ""), newColdTraffic(3, ""), newColdTraffic(4, "")
	body := func(t *coldTraffic, i int) []byte {
		_, body, _ := t.request(i, false, nil)
		return body
	}
	if !bytes.Equal(body(a, 5), body(b, 5)) {
		t.Error("same seed and index, different netlists")
	}
	if bytes.Equal(body(a, 5), body(a, 5+coldBases)) || bytes.Equal(body(a, 5), body(c, 5)) {
		t.Error("another index or seed must give another netlist")
	}
}

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := slices.Clone(xs)
		for i := range out {
			out[i] += d
		}
		return out
	}
	for _, c := range []struct {
		name   string
		change []float64
		lower  bool
		bound  float64
		want   string
	}{
		{"same runs", base, true, 0.1, unchanged},
		{"faster everywhere", shift(base, -5), true, 0.1, improved},
		{"faster but too few pairs", shift(base, -5)[:9], true, 0.1, unchanged},
		{"slower beyond bound", shift(base, 15), true, 0.1, regressed},
		{"slower within bound", shift(base, 5), true, 0.1, unchanged},
		{"higher is better", shift(base, 5), false, 0.1, improved},
		{"spread wider than bound", shift(base, 1), true, 0.005, unresolved},
		{"all better despite spread", shift(base, -10), true, 0.005, improved},
	} {
		if got := judge(base, c.change, c.lower, c.bound); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

// fakeWorkload reports fixed per-layer metrics.
type fakeWorkload struct{ coverage float64 }

func (f *fakeWorkload) setup(context.Context) error      { return nil }
func (f *fakeWorkload) quality() quality                 { return quality{} }
func (f *fakeWorkload) endToEnd(time.Duration) []segment { return nil }
func (f *fakeWorkload) verify() int                      { return 0 }
func (f *fakeWorkload) close() error                     { return nil }
func (f *fakeWorkload) perLayer(time.Duration) (map[string]float64, []segment, *layers, error) {
	return map[string]float64{"trace.coverage": f.coverage}, []segment{{attempted: 3}}, &layers{}, nil
}

func TestLowCoverageFailsTheRun(t *testing.T) {
	for _, c := range []struct {
		coverage float64
		correct  bool
	}{{0.99, true}, {0.95, true}, {0.94, false}} {
		res, _, err := measure(&fakeWorkload{c.coverage}, config{traced: true, seconds: 1, setups: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct != c.correct {
			t.Errorf("coverage %v: correct = %v, want %v", c.coverage, res.Correct, c.correct)
		}
	}
}

// Every generated netlist must parse to exactly its own lines: a repeated
// fan-in triple would merge in the reader and renumber later nodes.
func TestColdNetlistsParse(t *testing.T) {
	c := newColdTraffic(3, "")
	for i := range 2 * coldBases {
		base := &c.bases[i%coldBases]
		text := appendTail(slices.Clone(base.text), c.seed, i, base.nodes, "\n")
		m, err := plim.ReadMIG(bytes.NewReader(text))
		if err != nil {
			t.Fatalf("netlist %d: %v", i, err)
		}
		if m.NumPIs() != coldPIs || m.NumPOs() != coldPOs || m.NumMaj() != base.nodes+coldTailNodes {
			t.Fatalf("netlist %d: %d PIs, %d POs, %d nodes", i, m.NumPIs(), m.NumPOs(), m.NumMaj())
		}
		var req struct{ Netlist string }
		if err := json.Unmarshal(appendColdBody(nil, base, c.seed, i, false), &req); err != nil || req.Netlist != string(text) {
			t.Fatalf("netlist %d: request body does not carry the netlist (%v)", i, err)
		}
	}
}
