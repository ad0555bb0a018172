package main

import (
	"context"
	"math"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// splitmix derives the i-th pseudo-random word of a seeded stream in O(1),
// so request i of a workload is a pure function of (seed, i) no matter how
// many requests a closed loop gets through.
func splitmix(seed int64, i uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + i*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// uniform maps a splitmix word onto [0, 1).
func uniform(w uint64) float64 { return float64(w>>11) / (1 << 53) }

// outcome is what one op reports back to the load generator.
type outcome struct {
	ok    bool
	units float64 // work completed (requests, table cells, sweep points)
}

// segment is one measured stretch of load.
type segment struct {
	lat       []float64 // ms per successful op
	units     float64   // work the successful ops completed
	attempted int
	failed    int
	wall      time.Duration
	rt        rtSample // runtime counters consumed by the segment
}

// closedLoop runs senders concurrent callers for d: each sends op(next index)
// as soon as its previous op completed. Indices start at first. A closed
// loop keeps the processors busy, so a slow spell on a shared host slows
// the ops it overlaps and no others; an open loop would queue the ops that
// fall due during it and charge the spell to each of them.
func closedLoop(d time.Duration, senders, first int, op func(sender, i int) outcome) segment {
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	var seg segment
	before := readRuntime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				o := op(s, int(next.Add(1)-1))
				mu.Lock()
				seg.attempted++
				seg.add(o, ms(time.Since(t0)))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	seg.wall = time.Since(start)
	seg.rt = readRuntime().sub(before)
	return seg
}

func (s *segment) add(o outcome, lat float64) {
	if !o.ok {
		s.failed++
		return
	}
	s.lat = append(s.lat, lat)
	s.units += o.units
}

// throughput is the segment's completed work per second.
func (s *segment) throughput() float64 { return s.units / s.wall.Seconds() }

// rtSample is a snapshot of the Go runtime counters the benchmark reports.
type rtSample struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU          float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return float64(s[i].Value.Uint64())
		}
		return s[i].Value.Float64()
	}
	return rtSample{v(0), v(1), v(2), v(3)}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// heapSampler samples the bytes of live and not-yet-swept heap objects at
// 10 Hz. The heap saws between collections, so its maximum is one lucky
// sample; the upper decile of many samples tracks the same envelope
// steadily.
type heapSampler struct {
	mb   []float64
	stop context.CancelFunc
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	ctx, cancel := context.WithCancel(context.Background())
	h := &heapSampler{stop: cancel, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.mb = append(h.mb, float64(s[0].Value.Uint64())/1e6)
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopMB stops the sampler and returns the samples in MB.
func (h *heapSampler) stopMB() []float64 {
	h.stop()
	<-h.done
	return h.mb
}

// nan0 maps an undefined ratio (no samples) to 0 for reporting.
func nan0(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
