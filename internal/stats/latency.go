package stats

import (
	"sync/atomic"
	"time"
)

// Latency is a lock-free fixed-bucket latency histogram, safe for
// concurrent Observe and Snapshot. The scheduler keeps one per task kind
// and the server one per route; /metrics renders both the same way.
type Latency struct {
	bounds  []float64       // bucket upper bounds in seconds, ascending
	buckets []atomic.Uint64 // one per bound, then the +Inf overflow
	sumNs   atomic.Uint64
}

// NewLatency returns an empty histogram over the given ascending upper
// bounds, in seconds. The bounds slice is shared, not copied.
func NewLatency(bounds []float64) *Latency {
	return &Latency{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one duration in the first bucket whose bound it does
// not exceed.
func (h *Latency) Observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sumNs.Add(uint64(d))
}

// LatencySnapshot is a point-in-time copy of a Latency. Buckets[i] counts
// observations ≤ Bounds[i] (not cumulative); the final extra bucket is the
// overflow. Count is the sum of Buckets, so it always equals the +Inf
// bucket of a rendered histogram.
type LatencySnapshot struct {
	Bounds     []float64
	Buckets    []uint64
	Count      uint64
	SumSeconds float64
}

// Snapshot copies the histogram's current counts.
func (h *Latency) Snapshot() LatencySnapshot {
	s := LatencySnapshot{
		Bounds:     h.bounds,
		Buckets:    make([]uint64, len(h.buckets)),
		SumSeconds: float64(h.sumNs.Load()) / 1e9,
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}
