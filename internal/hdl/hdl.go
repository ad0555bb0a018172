// Package hdl is a small word-level hardware construction layer over MIGs.
// It provides the building blocks — adders with majority carries, muxes,
// shifters, comparators, multipliers, dividers, encoders, CORDIC — from
// which internal/suite assembles the paper's 18 benchmark circuits.
//
// Vectors are little-endian: Vec[0] is the least significant bit.
package hdl

import (
	"fmt"

	"plim/internal/mig"
)

// Vec is a bit vector of MIG signals, LSB first.
type Vec []mig.Signal

// Builder wraps an MIG under construction.
type Builder struct {
	M *mig.MIG
	// Netlist selects netlist-style construction: logic is expressed with
	// AND/OR/XOR decompositions (the shape in which RTL netlists such as
	// the EPFL benchmarks arrive), leaving genuine slack for majority
	// rewriting to recover. When false the builder emits the compact native
	// majority forms directly (e.g. the 3-node full adder).
	Netlist bool
}

// New returns a builder over a fresh MIG using native majority forms.
func New(name string) *Builder { return &Builder{M: mig.New(name)} }

// NewNetlist returns a builder that mimics unoptimized RTL netlists.
func NewNetlist(name string) *Builder { return &Builder{M: mig.New(name), Netlist: true} }

// Input declares a width-bit primary input named name[0..width-1].
func (b *Builder) Input(name string, width int) Vec {
	v := make(Vec, width)
	for i := range v {
		v[i] = b.M.AddPI(fmt.Sprintf("%s[%d]", name, i))
	}
	return v
}

// Output declares the bits of v as primary outputs named name[i].
func (b *Builder) Output(name string, v Vec) {
	for i, s := range v {
		b.M.AddPO(s, fmt.Sprintf("%s[%d]", name, i))
	}
}

// OutputBit declares a single-bit primary output.
func (b *Builder) OutputBit(name string, s mig.Signal) { b.M.AddPO(s, name) }

// Const builds a width-bit constant vector holding val.
func (b *Builder) Const(val uint64, width int) Vec {
	v := make(Vec, width)
	for i := range v {
		if val>>uint(i)&1 == 1 {
			v[i] = mig.Const1
		} else {
			v[i] = mig.Const0
		}
	}
	return v
}

// Repeat builds a vector of n copies of s.
func Repeat(s mig.Signal, n int) Vec {
	v := make(Vec, n)
	for i := range v {
		v[i] = s
	}
	return v
}

// Concat joins vectors LSB-first: the first argument provides the low bits.
func Concat(vs ...Vec) Vec {
	var out Vec
	for _, v := range vs {
		out = append(out, v...)
	}
	return out
}

// ZeroExt extends v to width bits with zeros (or truncates).
func ZeroExt(v Vec, width int) Vec {
	out := make(Vec, width)
	for i := range out {
		if i < len(v) {
			out[i] = v[i]
		} else {
			out[i] = mig.Const0
		}
	}
	return out
}

// SignExt extends v to width bits with its MSB (or truncates).
func SignExt(v Vec, width int) Vec {
	out := make(Vec, width)
	msb := mig.Const0
	if len(v) > 0 {
		msb = v[len(v)-1]
	}
	for i := range out {
		if i < len(v) {
			out[i] = v[i]
		} else {
			out[i] = msb
		}
	}
	return out
}

// NotV complements every bit.
func NotV(v Vec) Vec {
	out := make(Vec, len(v))
	for i, s := range v {
		out[i] = s.Not()
	}
	return out
}

// AndV, OrV and XorV apply bitwise operations; operands must have equal
// widths.
func (b *Builder) AndV(x, y Vec) Vec { return b.zipWith(x, y, b.M.And) }

// OrV is the bitwise OR of equal-width vectors.
func (b *Builder) OrV(x, y Vec) Vec { return b.zipWith(x, y, b.M.Or) }

// XorV is the bitwise XOR of equal-width vectors.
func (b *Builder) XorV(x, y Vec) Vec { return b.zipWith(x, y, b.M.Xor) }

func (b *Builder) zipWith(x, y Vec, f func(a, c mig.Signal) mig.Signal) Vec {
	if len(x) != len(y) {
		panic(fmt.Sprintf("hdl: width mismatch %d vs %d", len(x), len(y)))
	}
	out := make(Vec, len(x))
	for i := range x {
		out[i] = f(x[i], y[i])
	}
	return out
}

// AndBit masks every bit of v with s.
func (b *Builder) AndBit(v Vec, s mig.Signal) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = b.M.And(v[i], s)
	}
	return out
}

// MuxV selects t when sel is 1, else f.
func (b *Builder) MuxV(sel mig.Signal, t, f Vec) Vec {
	if len(t) != len(f) {
		panic(fmt.Sprintf("hdl: mux width mismatch %d vs %d", len(t), len(f)))
	}
	out := make(Vec, len(t))
	for i := range t {
		out[i] = b.M.Mux(sel, t[i], f[i])
	}
	return out
}

// ReduceOr returns the OR of all bits (0 for the empty vector).
func (b *Builder) ReduceOr(v Vec) mig.Signal { return b.reduce(v, b.M.Or, mig.Const0) }

// ReduceAnd returns the AND of all bits (1 for the empty vector).
func (b *Builder) ReduceAnd(v Vec) mig.Signal { return b.reduce(v, b.M.And, mig.Const1) }

func (b *Builder) reduce(v Vec, f func(a, c mig.Signal) mig.Signal, empty mig.Signal) mig.Signal {
	if len(v) == 0 {
		return empty
	}
	// Balanced tree keeps depth logarithmic.
	for len(v) > 1 {
		next := make(Vec, 0, (len(v)+1)/2)
		for i := 0; i+1 < len(v); i += 2 {
			next = append(next, f(v[i], v[i+1]))
		}
		if len(v)%2 == 1 {
			next = append(next, v[len(v)-1])
		}
		v = next
	}
	return v[0]
}

// ShlConst shifts left by k, filling with zeros (width preserved).
func ShlConst(v Vec, k int) Vec {
	out := make(Vec, len(v))
	for i := range out {
		if i >= k {
			out[i] = v[i-k]
		} else {
			out[i] = mig.Const0
		}
	}
	return out
}

// ShrConst shifts right by k, filling with fill (width preserved).
func ShrConst(v Vec, k int, fill mig.Signal) Vec {
	out := make(Vec, len(v))
	for i := range out {
		if i+k < len(v) {
			out[i] = v[i+k]
		} else {
			out[i] = fill
		}
	}
	return out
}

// RotlConst rotates left by k.
func RotlConst(v Vec, k int) Vec {
	n := len(v)
	if n == 0 {
		return v
	}
	k = ((k % n) + n) % n
	out := make(Vec, n)
	for i := range out {
		out[i] = v[(i-k+n)%n]
	}
	return out
}

// BarrelRotl rotates v left by the dynamic amount sh (log-depth mux
// layers). len(v) should be a power of two for a clean modulo semantics.
func (b *Builder) BarrelRotl(v Vec, sh Vec) Vec {
	out := v
	for j, s := range sh {
		out = b.MuxV(s, RotlConst(out, 1<<uint(j)), out)
	}
	return out
}

// BarrelShl shifts v left by sh, filling with zeros.
func (b *Builder) BarrelShl(v Vec, sh Vec) Vec {
	out := v
	for j, s := range sh {
		out = b.MuxV(s, ShlConst(out, 1<<uint(j)), out)
	}
	return out
}

// BarrelShr shifts v right by sh, filling with zeros.
func (b *Builder) BarrelShr(v Vec, sh Vec) Vec {
	out := v
	for j, s := range sh {
		out = b.MuxV(s, ShrConst(out, 1<<uint(j), mig.Const0), out)
	}
	return out
}

// EqV tests equality of equal-width vectors.
func (b *Builder) EqV(x, y Vec) mig.Signal {
	return b.ReduceAnd(NotV(b.XorV(x, y)))
}
