package diskcache_test

import (
	"bytes"
	"context"
	"testing"

	"plim"
	"plim/internal/core"
	"plim/internal/diskcache"
	"plim/internal/mig"
	"plim/internal/suite"
)

// TestSuitePayloadsRoundTrip stores every evaluation benchmark at shrink 2
// and 4, plus its algorithm-1 and algorithm-2 rewrites, and loads each
// back: the binary payload must reproduce the graph with the same
// fingerprint and byte-identical .mig text.
func TestSuitePayloadsRoundTrip(t *testing.T) {
	c, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, want, got *mig.MIG) {
		t.Helper()
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("%s: fingerprint changed through the disk tier", what)
		}
		var a, b bytes.Buffer
		if err := want.Write(&a); err != nil {
			t.Fatal(err)
		}
		if err := got.Write(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: .mig text differs after the disk tier", what)
		}
	}
	for _, shrink := range []int{2, 4} {
		for _, name := range plim.Benchmarks() {
			m, err := suite.BuildScaled(name, shrink)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.StoreBenchmark(name, shrink, m); err != nil {
				t.Fatal(err)
			}
			r, out := c.ProbeBenchmark(diskcache.BenchmarkKey{Name: name, Shrink: shrink})
			if out != diskcache.ProbeHit {
				t.Fatalf("%s/%d: benchmark entry missed", name, shrink)
			}
			got, err := r.Graph(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			same(name, m, got)
			for _, kind := range []core.RewriteKind{core.RewriteAlgorithm1, core.RewriteAlgorithm2} {
				rw, st, err := core.Rewrite(context.Background(), m, kind, core.DefaultEffort, "")
				if err != nil {
					t.Fatal(err)
				}
				fp := m.Fingerprint()
				if err := c.StoreRewrite(fp, uint8(kind), core.DefaultEffort, rw, st); err != nil {
					t.Fatal(err)
				}
				got, gotSt, out := c.ProbeRewrite(fp, uint8(kind), core.DefaultEffort)
				if out != diskcache.ProbeHit || gotSt != st {
					t.Fatalf("%s/%d %v: rewrite entry missed or changed its stats", name, shrink, kind)
				}
				same(name+" "+kind.String(), rw, got)
			}
		}
	}
}
