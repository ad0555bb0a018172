// Package wearlevel implements start-gap wear leveling (Qureshi et al.,
// MICRO 2009 — reference [8] of the DATE 2017 paper) as an extension study:
// the paper balances writes within one compiled program, while start-gap
// rotates the logical→physical mapping across repeated executions, so the
// two compose.
//
// The memory owns one spare line. A gap position walks backwards through
// the physical lines, moving one step every psi writes; each move copies
// one line (one extra write). After a full sweep the start offset advances,
// so every logical line visits every physical line over time and per-line
// wear approaches the average instead of the maximum.
package wearlevel

import "fmt"

// StartGap maps n logical lines onto n+1 physical lines.
type StartGap struct {
	n     int
	start int
	gap   int
	psi   uint64 // gap moves one step every psi writes
	acc   uint64 // writes since the last gap movement
	moves uint64 // total gap movements (each costs one copy write)
}

// NewStartGap creates a mapper for n logical lines with gap period psi.
func NewStartGap(n int, psi uint64) *StartGap {
	if n < 1 || psi < 1 {
		panic(fmt.Sprintf("wearlevel: invalid start-gap config n=%d psi=%d", n, psi))
	}
	return &StartGap{n: n, gap: n, psi: psi}
}

// Moves returns how many gap movements (copy writes) have happened.
func (s *StartGap) Moves() uint64 { return s.moves }

// Map translates a logical line to its current physical line.
func (s *StartGap) Map(logical int) int {
	if logical < 0 || logical >= s.n {
		panic(fmt.Sprintf("wearlevel: logical line %d out of range %d", logical, s.n))
	}
	p := (logical + s.start) % s.n
	if p >= s.gap {
		p++
	}
	return p
}

// GapPosition returns the physical line currently holding no data.
func (s *StartGap) GapPosition() int { return s.gap }

// OnWrite accounts one data write and returns the physical line that
// received a copy write if the gap moved (-1 otherwise). Callers add that
// extra write to their wear accounting.
func (s *StartGap) OnWrite() int {
	s.acc++
	if s.acc < s.psi {
		return -1
	}
	s.acc = 0
	return s.moveGap()
}

// moveGap shifts the gap one step: the line before the gap moves into the
// gap position (one copy write to the old gap line), and the gap takes its
// place. A full sweep advances the start offset.
func (s *StartGap) moveGap() int {
	s.moves++
	dst := s.gap
	if s.gap == 0 {
		s.gap = s.n
		s.start = (s.start + 1) % s.n
		return dst
	}
	s.gap--
	return dst
}

// Result summarizes a rotation simulation.
type Result struct {
	// Runs is the number of complete program executions before the first
	// physical line exceeded the endurance budget.
	Runs uint64
	// MaxWear and MeanWear describe the final physical wear distribution.
	MaxWear  uint64
	MeanWear float64
	// CopyWrites is the total overhead spent moving the gap.
	CopyWrites uint64
}

// Simulate executes a program's per-logical-line write profile repeatedly
// through a start-gap mapping until some physical line would exceed
// endurance, and reports the achieved lifetime. psi is the gap period in
// writes. The baseline without rotation survives endurance/max(profile)
// runs; skewed profiles gain up to max/mean.
func Simulate(profile []uint64, endurance, psi uint64) Result {
	n := len(profile)
	sg := NewStartGap(n, psi)
	wear := make([]uint64, n+1)
	var res Result

	for {
		// Apply one run through the current mapping. The mapping can move
		// mid-run; per-write granularity keeps the accounting exact.
		for logical, w := range profile {
			for k := uint64(0); k < w; k++ {
				p := sg.Map(logical)
				wear[p]++
				if wear[p] > endurance {
					return res
				}
				if dst := sg.OnWrite(); dst >= 0 {
					wear[dst]++
					res.CopyWrites++
					if wear[dst] > endurance {
						return res
					}
				}
			}
		}
		res.Runs++
		res.MaxWear = 0
		var total uint64
		for _, w := range wear {
			total += w
			if w > res.MaxWear {
				res.MaxWear = w
			}
		}
		res.MeanWear = float64(total) / float64(len(wear))
	}
}

// Baseline returns the lifetime (runs) without rotation: endurance divided
// by the hottest line's per-run writes.
func Baseline(profile []uint64, endurance uint64) uint64 {
	var max uint64
	for _, w := range profile {
		if w > max {
			max = w
		}
	}
	if max == 0 {
		return ^uint64(0)
	}
	return endurance / max
}
