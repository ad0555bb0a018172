package mig

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// refMIG is a canonically numbered random graph of pis inputs, up to maj
// majority nodes and pos outputs.
func refMIG(seed int64, maj, pis, pos int) *MIG {
	rng := rand.New(rand.NewSource(seed))
	m := New("ref")
	sigs := []Signal{Const0}
	for i := 0; i < pis; i++ {
		sigs = append(sigs, m.AddPI(string(rune('a'+i))))
	}
	for i := 0; i < maj; i++ {
		pick := func() Signal { return sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 1) }
		if s := m.Maj(pick(), pick(), pick()); !s.IsConst() {
			sigs = append(sigs, s)
		}
	}
	for i := 0; i < pos; i++ {
		m.AddPO(sigs[len(sigs)-1-i], string(rune('o'+i)))
	}
	return m.Cleanup()
}

// TestRefHeaderMatchesGraph: an encoded handle reports the name, counts
// and MemSize of the graph its payload decodes to, and the fingerprint it
// was given, without decoding.
func TestRefHeaderMatchesGraph(t *testing.T) {
	m := refMIG(7, 40, 5, 3)
	m.Name = "rnd"
	r, err := BinaryRef(m.AppendBinary(nil), 42)
	if err != nil {
		t.Fatal(err)
	}
	if r.Decoded() {
		t.Fatal("BinaryRef decoded its payload")
	}
	if r.Name() != m.Name || r.NumPIs() != m.NumPIs() || r.NumPOs() != m.NumPOs() || r.MemSize() != m.MemSize() || r.Fingerprint() != 42 {
		t.Fatalf("handle %q %d/%d %d, graph %q %d/%d %d", r.Name(), r.NumPIs(), r.NumPOs(), r.MemSize(), m.Name, m.NumPIs(), m.NumPOs(), m.MemSize())
	}
	n := NewRef(m)
	if !n.Decoded() || n.Fingerprint() != m.Fingerprint() || n.MemSize() != m.MemSize() || n.Name() != m.Name {
		t.Fatal("NewRef does not describe its graph")
	}
	if g, err := n.Graph(context.Background()); err != nil || g != m {
		t.Fatal("NewRef does not hand back its graph")
	}
	for _, bad := range [][]byte{nil, uv(1 << 40), append(uv(0, 0, 0, 9), "short"...)} {
		if _, err := BinaryRef(bad, 0); err == nil {
			t.Errorf("BinaryRef accepted the header of %x", bad)
		}
	}
}

// TestRefDecodesOnce: concurrent first uses share one decode, and every
// caller gets the same graph.
func TestRefDecodesOnce(t *testing.T) {
	m := refMIG(9, 200, 6, 4)
	r, err := BinaryRef(m.AppendBinary(nil), m.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	r.Recompute(func(context.Context) (*MIG, error) { calls++; return nil, errors.New("unreachable") })
	got := make([]*MIG, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := r.Graph(context.Background())
			if err != nil {
				t.Error(err)
			}
			got[i] = g
		}()
	}
	wg.Wait()
	for _, g := range got {
		if g != got[0] {
			t.Fatal("callers got different graphs")
		}
	}
	if got[0].Fingerprint() != m.Fingerprint() || calls != 0 {
		t.Fatalf("decoded fingerprint differs or the fallback ran %d times", calls)
	}
	if r.recompute.Load() != nil {
		t.Fatal("the fallback outlived the decode")
	}
}

// TestRefRecomputesUndecodablePayload: a payload whose header reads but
// whose body does not decode is an error without a fallback and the
// fallback's graph with one. A failing fallback leaves the handle to try
// again; the first fallback set is the one kept.
func TestRefRecomputesUndecodablePayload(t *testing.T) {
	m := refMIG(5, 60, 4, 2)
	payload := m.AppendBinary(nil)
	cut := payload[:len(payload)-2]
	ctx := context.Background()

	r, err := BinaryRef(cut, m.Fingerprint())
	if err != nil {
		t.Fatalf("header of a cut payload: %v", err)
	}
	if _, err := r.Graph(ctx); err == nil {
		t.Fatal("a cut payload decoded")
	}

	fail := errors.New("cancelled")
	attempts := 0
	r.Recompute(func(context.Context) (*MIG, error) {
		if attempts++; attempts == 1 {
			return nil, fail
		}
		return m, nil
	})
	r.Recompute(func(context.Context) (*MIG, error) { return nil, errors.New("second fallback kept") })
	if _, err := r.Graph(ctx); !errors.Is(err, fail) {
		t.Fatalf("first use: %v, want the fallback's error", err)
	}
	if g, err := r.Graph(ctx); err != nil || g != m {
		t.Fatalf("second use: %v, want the fallback's graph", err)
	}
	if g, _ := r.Graph(ctx); g != m || attempts != 2 {
		t.Fatalf("the recomputed graph was not kept (%d attempts)", attempts)
	}
}

// TestRefConcurrentRecompute: callers racing on an undecodable payload
// may each run the fallback, but all of them get the one graph published
// first.
func TestRefConcurrentRecompute(t *testing.T) {
	m := refMIG(3, 80, 5, 2)
	payload := m.AppendBinary(nil)
	r, err := BinaryRef(payload[:len(payload)-1], m.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	r.Recompute(func(context.Context) (*MIG, error) { return m.Clone(), nil })
	got := make([]*MIG, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := r.Graph(context.Background())
			if err != nil {
				t.Error(err)
			}
			got[i] = g
		}()
	}
	wg.Wait()
	for _, g := range got {
		if g != got[0] {
			t.Fatal("racing callers got different graphs")
		}
	}
	if got[0].Fingerprint() != m.Fingerprint() {
		t.Fatal("the recomputed graph differs")
	}
}
