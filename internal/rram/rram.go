// Package rram models bipolar resistive switches (BRS) and the RRAM
// crossbar array underlying the PLiM computer (Gaillardon et al., DATE
// 2016). The model is behavioural: a device stores one bit as its
// resistance state (LRS = logic 1, HRS = logic 0), counts write and switch
// events, and optionally fails hard once a configurable endurance budget is
// exhausted — the failure mode that motivates the DATE 2017 endurance
// management paper.
//
// The characteristic operation is the intrinsic three-input resistive
// majority RM3: applying signals P and Q to the top and bottom electrodes
// of a device storing Z updates it to
//
//	Z ← ⟨P Q̄ Z⟩ = PZ ∨ Q̄Z ∨ PQ̄.
//
// (The DATE 2017 PDF drops the overline on Q in transcription; the inversion
// of the second operand is what breaks commutativity, as §II of the paper
// discusses, and is reproduced here.)
package rram

import (
	"errors"
	"fmt"
)

// ErrWornOut is returned when a write is attempted on a device whose
// endurance budget is exhausted.
var ErrWornOut = errors.New("rram: device worn out")

// Device is a single bipolar resistive switch.
type Device struct {
	value    bool
	writes   uint64
	switches uint64
	failed   bool
}

// Value returns the stored bit.
func (d *Device) Value() bool { return d.value }

// Writes returns the number of write pulses the device received. Every
// write pulse stresses the device whether or not the state changes; this is
// the quantity whose distribution the paper balances.
func (d *Device) Writes() uint64 { return d.writes }

// Switches returns the number of writes that actually toggled the state;
// it is tracked separately so ablation studies can compare both wear models.
func (d *Device) Switches() uint64 { return d.switches }

// Failed reports whether the device has worn out.
func (d *Device) Failed() bool { return d.failed }

// write applies a write pulse. endurance == 0 means unlimited.
func (d *Device) write(v bool, endurance uint64) error {
	if d.failed {
		return ErrWornOut
	}
	if endurance > 0 && d.writes >= endurance {
		d.failed = true
		return ErrWornOut
	}
	d.writes++
	if d.value != v {
		d.switches++
		d.value = v
	}
	return nil
}

// Crossbar is a linear array of devices with shared peripheral circuitry.
// The PLiM controller wraps a crossbar and executes RM3 instructions on it.
type Crossbar struct {
	devices   []Device
	endurance uint64 // per-device write budget; 0 = unlimited

	reads    uint64
	writeOps uint64
}

// Option configures a Crossbar.
type Option func(*Crossbar)

// WithEndurance sets the per-device write budget (0 = unlimited).
func WithEndurance(limit uint64) Option {
	return func(c *Crossbar) { c.endurance = limit }
}

// NewLinear allocates a crossbar of n devices, all reset to 0; the
// compiler's address space is linear. n may be 0: a program of no cells
// runs on an empty crossbar.
func NewLinear(n int, opts ...Option) *Crossbar {
	c := &Crossbar{devices: make([]Device, n)}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Size returns the number of devices.
func (c *Crossbar) Size() int { return len(c.devices) }

func (c *Crossbar) check(addr uint32) {
	if int(addr) >= len(c.devices) {
		panic(fmt.Sprintf("rram: address %d out of range (size %d)", addr, len(c.devices)))
	}
}

// Read returns the bit stored at addr. Reads are non-destructive and do not
// age the device.
func (c *Crossbar) Read(addr uint32) bool {
	c.check(addr)
	c.reads++
	return c.devices[addr].value
}

// Write stores v at addr, counting one write pulse.
func (c *Crossbar) Write(addr uint32, v bool) error {
	c.check(addr)
	c.writeOps++
	return c.devices[addr].write(v, c.endurance)
}

// Preload stores v at addr without counting a write pulse. It models data
// already resident in memory before in-memory computation starts (the PLiM
// assumption for primary inputs); the paper's `min = 0` write counts come
// from devices that are only ever preloaded.
func (c *Crossbar) Preload(addr uint32, v bool) {
	c.check(addr)
	d := &c.devices[addr]
	d.value = v
}

// RM3 applies the resistive majority operation with operand values p and q
// to the device at addr: Z ← ⟨p q̄ Z⟩. It counts one write pulse.
func (c *Crossbar) RM3(p, q bool, addr uint32) error {
	c.check(addr)
	z := c.devices[addr].value
	nq := !q
	res := p && z || nq && z || p && nq
	c.writeOps++
	return c.devices[addr].write(res, c.endurance)
}

// Device returns a read-only view of the device at addr.
func (c *Crossbar) Device(addr uint32) *Device {
	c.check(addr)
	return &c.devices[addr]
}

// WriteCounts snapshots per-device write counters for the first n devices
// (n ≤ Size). The compiler knows how many devices a program uses; passing
// that n restricts statistics to devices the program allocated.
func (c *Crossbar) WriteCounts(n int) []uint64 {
	if n > len(c.devices) {
		n = len(c.devices)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = c.devices[i].writes
	}
	return out
}

// SwitchCounts snapshots per-device switch counters, like WriteCounts.
func (c *Crossbar) SwitchCounts(n int) []uint64 {
	if n > len(c.devices) {
		n = len(c.devices)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = c.devices[i].switches
	}
	return out
}

// Totals returns aggregate operation counters; cycles counts one per read
// and one per write, the PLiM controller's fetch/read/read/write loop.
func (c *Crossbar) Totals() (reads, writes, cycles uint64) {
	return c.reads, c.writeOps, c.reads + c.writeOps
}

// WearMap renders an ASCII heat map of write counts (row-major), bucketing
// each device's writes into 0-9 relative to the maximum. It is a debugging
// and demo aid for the examples.
func (c *Crossbar) WearMap(n int) string {
	return RenderWearMap(c.WriteCounts(n))
}

// RenderWearMap renders any per-device write-count vector the way
// Crossbar.WearMap does — rows of 64 relative-wear digits, '.' for
// untouched devices. It lets wear gathered outside a Crossbar (the batched
// executor's aggregate counters, say) reuse the same visualization.
func RenderWearMap(writes []uint64) string {
	var max uint64
	for _, w := range writes {
		if w > max {
			max = w
		}
	}
	n := len(writes)
	buf := make([]byte, 0, n+n/64+1)
	for i, w := range writes {
		if i > 0 && i%64 == 0 {
			buf = append(buf, '\n')
		}
		switch {
		case max == 0 || w == 0:
			buf = append(buf, '.')
		default:
			buf = append(buf, byte('0'+(w*9)/max))
		}
	}
	return string(buf)
}
