// Package stats computes the write-distribution statistics the paper
// reports: population standard deviation, minimum and maximum per-device
// write counts, plus auxiliary uniformity and lifetime metrics used by the
// examples and ablation studies, and the latency histogram behind the
// scheduler's and server's timing series.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// Summary describes the distribution of per-device write counts.
type Summary struct {
	N      int
	Min    uint64
	Max    uint64
	Mean   float64
	StdDev float64 // population standard deviation, as in the paper
	Total  uint64
}

// Summarize computes a Summary over per-device write counts. An empty input
// yields the zero Summary.
func Summarize(writes []uint64) Summary {
	if len(writes) == 0 {
		return Summary{}
	}
	s := Summary{N: len(writes), Min: writes[0], Max: writes[0]}
	for _, w := range writes {
		s.Total += w
		if w < s.Min {
			s.Min = w
		}
		if w > s.Max {
			s.Max = w
		}
	}
	s.Mean = float64(s.Total) / float64(s.N)
	var ss float64
	for _, w := range writes {
		d := float64(w) - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(s.N))
	return s
}

// String renders the summary in the paper's min/max + STDEV style.
func (s Summary) String() string {
	return fmt.Sprintf("%d/%d stdev=%.2f (n=%d, total=%d)", s.Min, s.Max, s.StdDev, s.N, s.Total)
}

// Improvement returns the paper's "impr." column: the relative reduction of
// the candidate standard deviation versus the baseline, in percent. Positive
// means better (smaller deviation); negative values occur in the paper too
// (e.g. div, ctrl, dec).
func Improvement(baseline, candidate float64) float64 {
	if baseline == 0 {
		if candidate == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	return (baseline - candidate) / baseline * 100
}

// Gini computes the Gini coefficient of the write counts, an additional
// uniformity metric (0 = perfectly balanced, →1 = concentrated) used by the
// ablation studies. It is not part of the paper's tables.
func Gini(writes []uint64) float64 {
	n := len(writes)
	if n == 0 {
		return 0
	}
	sorted := append([]uint64(nil), writes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var cum, weighted float64
	for i, w := range sorted {
		weighted += float64(i+1) * float64(w)
		cum += float64(w)
	}
	if cum == 0 {
		return 0
	}
	return (2*weighted - float64(n+1)*cum) / (float64(n) * cum)
}

// MaxLifetime is the sentinel for an unbounded lifetime. The convention,
// shared by internal/verify and internal/cost: a run that writes no device
// never wears one out, and an endurance budget of zero means "no budget" —
// both live forever. Renderers print it as "unlimited" (FormatLifetime);
// JSON reports carry the raw sentinel.
const MaxLifetime = math.MaxUint64

// Lifetime estimates how many complete executions of a program a memory
// survives, given a per-device endurance budget: endurance divided by the
// hottest device's writes per run. A zero-write run or a zero (absent)
// endurance budget returns MaxLifetime.
func Lifetime(writesPerRun []uint64, endurance uint64) uint64 {
	var max uint64
	for _, w := range writesPerRun {
		if w > max {
			max = w
		}
	}
	if max == 0 || endurance == 0 {
		return MaxLifetime
	}
	return endurance / max
}

// FormatLifetime renders a lifetime for humans, spelling the MaxLifetime
// sentinel out as "unlimited" instead of printing 2^64-1.
func FormatLifetime(runs uint64) string {
	if runs == MaxLifetime {
		return "unlimited"
	}
	return strconv.FormatUint(runs, 10)
}
