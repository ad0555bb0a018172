package diskcache

import (
	"context"
	"errors"
	"os"
	"runtime"
	"slices"
	"testing"

	"plim/internal/compile"
	"plim/internal/cost"
	"plim/internal/isa"
	"plim/internal/mig"
)

// The keys FuzzDiskEntry stores and probes under, the graph its fallback
// recomputes and the model a program hit is priced under, whose per-class
// wear differs.
var (
	fuzzRewriteFP = uint64(0x00c0ffee00c0ffee)
	fuzzProgram   = ProgramKey{Graph: 0x1234, Selection: 2, Alloc: 1, MaxWrites: 10}
	fuzzFallback  = testMIG("recomputed", 9)
	fuzzModel     = &cost.Model{Name: "wear-1-2-3", Reset: cost.OpCost{LatencyCycles: 1, Wear: 1},
		Set: cost.OpCost{LatencyCycles: 1, Wear: 2}, RM3: cost.OpCost{LatencyCycles: 1, Wear: 3}}
)

// A probe plus the first use of its value may allocate fuzzEntryBound
// bytes per entry byte, plus fuzzEntrySlack. The graph decoder spends up
// to about a hundred bytes per payload byte: a one-byte PI name length
// becomes a node, a PI slot, a name and a structural-hash bucket. A
// program hit spends its per-cell counts and a hit's write counts, 32
// bytes per cell, and a program can declare at most one cell per PI or
// PO byte and three per two-byte instruction.
const (
	fuzzEntryBound = 256
	fuzzEntrySlack = 64 << 10
)

// fuzzKind is one entry kind as FuzzDiskEntry drives it: where its entry
// lives, the header a store writes, and a probe followed by the first use
// of a hit, which returns the check to run on what it read.
type fuzzKind struct {
	path, kind string
	key, extra []byte
	use        func() (check func() error)
}

// FuzzDiskEntry writes arbitrary bytes as an entry of each kind — a
// benchmark build, a rewrite result and a compiled program — once as the
// whole file and once as the payload under a well-formed header with its
// CRC, so the fuzzer reaches the graph and program decoders and not only
// the header checks. Every probe is a miss or a hit, never a panic. A
// graph hit is then read the way the engine reads it, through its handle:
// it is valid and matches the header the probe read, or, when the payload
// does not decode, it is the graph the handle's fallback recomputes. A
// program hit is used the way a compile hit uses it: its compile.Result is
// built from the counts the program kept, and must equal a walk over its
// instructions. A probe plus that first use allocates at most
// fuzzEntryBound bytes per entry byte, plus fuzzEntrySlack.
func FuzzDiskEntry(f *testing.F) {
	seed, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	m, p := testMIG("seed", 1), testProgram("seed", 1)
	if err := seed.StoreBenchmark("fz", 1, m); err != nil {
		f.Fatal(err)
	}
	if err := seed.StoreRewrite(fuzzRewriteFP, 2, 5, m, testStats()); err != nil {
		f.Fatal(err)
	}
	if err := seed.StoreProgram(fuzzProgram, p); err != nil {
		f.Fatal(err)
	}
	for _, path := range []string{BenchmarkKey{"fz", 1}.path(seed.Dir()), RewriteKey{fuzzRewriteFP, 2, 5}.path(seed.Dir()), fuzzProgram.path(seed.Dir())} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(m.AppendBinary(nil))
	f.Add(p.AppendBinary(nil))

	c, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	st := testStats()
	var bk, rk, pk, sb [128]byte
	bench := fuzzKind{path: BenchmarkKey{"fz", 1}.path(c.Dir()), kind: kindBenchmark, key: BenchmarkKey{"fz", 1}.line(bk[:0])}
	bench.use = func() func() error {
		r, out := c.ProbeBenchmark(BenchmarkKey{"fz", 1})
		return useGraph(bench, r, out)
	}
	rw := fuzzKind{path: RewriteKey{fuzzRewriteFP, 2, 5}.path(c.Dir()), kind: kindRewrite,
		key: RewriteKey{fuzzRewriteFP, 2, 5}.line(rk[:0]), extra: appendStats(sb[:0], &st)}
	rw.use = func() func() error {
		e, out := c.LoadRewrite(RewriteKey{fuzzRewriteFP, 2, 5})
		return useGraph(rw, e.Graph, out)
	}
	prog := fuzzKind{path: fuzzProgram.path(c.Dir()), kind: kindProgram, key: fuzzProgram.line(pk[:0])}
	prog.use = func() func() error {
		p, out := c.ProbeProgram(fuzzProgram)
		if out != ProbeHit {
			return func() error { return nil }
		}
		res := compile.ResultOf(p)
		return func() error { return checkResult(p, res) }
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, k := range []fuzzKind{bench, rw, prog} {
			for _, wrap := range []bool{false, true} {
				if wrap {
					if err := c.store(k.path, k.kind, k.key, 0, k.extra, data); err != nil {
						t.Fatal(err)
					}
				} else if err := os.WriteFile(k.path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				fi, err := os.Stat(k.path)
				if err != nil {
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				check := k.use()
				runtime.ReadMemStats(&after)
				if err := check(); err != nil {
					t.Fatalf("%s entry (wrapped %t): %v", k.kind, wrap, err)
				}
				if n := after.TotalAlloc - before.TotalAlloc; n > uint64(fuzzEntryBound*fi.Size()+fuzzEntrySlack) {
					t.Fatalf("%s entry (wrapped %t) of %d bytes: probe and first use allocated %d bytes", k.kind, wrap, fi.Size(), n)
				}
			}
		}
	})
}

// checkResult checks a compile hit's Result, built from the facts p kept,
// against a walk over p's instructions.
func checkResult(p *isa.Program, res *compile.Result) error {
	writes := make([]uint64, p.NumCells())
	for _, ins := range p.Insts() {
		writes[ins.Z]++
	}
	switch {
	case res.Program != p || res.NumInstructions != p.NumInstructions() || res.NumRRAMs != int(p.NumCells()):
		return errors.New("a hit's #I or #R differs from its program's")
	case !slices.Equal(res.WriteCounts, writes):
		return errors.New("a hit's write counts differ from a walk over its program")
	case fuzzModel.Program(p) != fuzzModel.Prefix(p, p.NumInstructions()):
		return errors.New("a hit's price differs from a walk over its program")
	}
	return nil
}

// useGraph reads a graph probe's hit through its handle, with a fallback
// that returns fuzzFallback, and returns the check of what it read: a
// valid graph matching the handle's header when the entry's payload
// decodes, fuzzFallback when it does not.
func useGraph(k fuzzKind, r *mig.Ref, out ProbeOutcome) func() error {
	if out != ProbeHit {
		return func() error { return nil }
	}
	r.Recompute(func(context.Context) (*mig.MIG, error) { return fuzzFallback, nil })
	g, err := r.Graph(context.Background())
	return func() error {
		if err != nil {
			return err
		}
		_, _, payload, _ := read(k.path, k.kind, k.key, k.extra != nil)
		_, decodeErr := mig.ReadBinary(payload)
		switch {
		case g == fuzzFallback && decodeErr == nil:
			return errors.New("a decodable payload was recomputed")
		case g == fuzzFallback:
			return nil
		case decodeErr != nil:
			return errors.New("an undecodable payload was served")
		case g.Validate() != nil || g.Name != r.Name() || g.NumPIs() != r.NumPIs() || g.NumPOs() != r.NumPOs() || g.MemSize() != r.MemSize():
			return errors.New("the decoded graph does not match the header its handle read")
		}
		return nil
	}
}
