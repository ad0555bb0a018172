package mig_test

import (
	"testing"

	"plim/internal/mig"
	"plim/internal/rewrite"
	"plim/internal/suite"
)

// TestBinaryRefChargedAsDecoded pins what a byte budget charges a graph
// it holds encoded: exactly the MemSize of the graph ReadBinary makes of
// the payload, which the payload's header determines. It is also the
// MemSize of the graph the payload was written from, so an encoded entry
// is charged what a computed one is. Checked for every benchmark at shrink
// 4 as built, as rewritten by Algorithm 2, and cleaned up (the graph
// Table I's naive configuration compiles).
func TestBinaryRefChargedAsDecoded(t *testing.T) {
	for _, name := range suite.Names() {
		built, err := suite.BuildScaled(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		rewritten, _ := rewrite.Run(built, rewrite.Algorithm2, 5)
		for _, g := range []struct {
			what string
			m    *mig.MIG
		}{{"built", built}, {"algorithm 2", rewritten}, {"cleaned up", built.Cleanup()}} {
			payload := g.m.AppendBinary(nil)
			r, err := mig.BinaryRef(payload, 0)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := mig.ReadBinary(payload)
			if err != nil {
				t.Fatal(err)
			}
			if r.MemSize() != decoded.MemSize() || r.MemSize() != g.m.MemSize() {
				t.Errorf("%s %s: charged %d, decoded %d, computed %d", name, g.what, r.MemSize(), decoded.MemSize(), g.m.MemSize())
			}
		}
	}
}
