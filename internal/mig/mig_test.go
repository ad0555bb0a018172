package mig

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSignalEncoding(t *testing.T) {
	s := MakeSignal(42, true)
	if s.Node() != 42 || !s.Complemented() {
		t.Fatalf("MakeSignal(42,true) = node %d comp %v", s.Node(), s.Complemented())
	}
	if s.Not().Complemented() {
		t.Fatalf("Not should clear the complement")
	}
	if s.Not().Node() != 42 {
		t.Fatalf("Not must not change the node")
	}
	if s.NotIf(false) != s || s.NotIf(true) != s.Not() {
		t.Fatalf("NotIf misbehaves")
	}
	if Const0.Not() != Const1 || Const1.Not() != Const0 {
		t.Fatalf("constant complements broken")
	}
	if !Const0.IsConst() || !Const1.IsConst() || MakeSignal(3, false).IsConst() {
		t.Fatalf("IsConst broken")
	}
}

func TestSignalString(t *testing.T) {
	cases := map[Signal]string{
		Const0:                "0",
		Const1:                "1",
		MakeSignal(7, false):  "7",
		MakeSignal(7, true):   "!7",
		MakeSignal(12, false): "12",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", s, got, want)
		}
	}
}

func TestTrivialMajorityRules(t *testing.T) {
	m := New("t")
	x := m.AddPI("x")
	y := m.AddPI("y")
	z := m.AddPI("z")

	if got := m.Maj(x, x, y); got != x {
		t.Errorf("<x x y> = %v, want x", got)
	}
	if got := m.Maj(x, x.Not(), y); got != y {
		t.Errorf("<x !x y> = %v, want y", got)
	}
	if got := m.Maj(y, x, x); got != x {
		t.Errorf("<y x x> = %v, want x", got)
	}
	if got := m.Maj(x, y, y.Not()); got != x {
		t.Errorf("<x y !y> = %v, want x", got)
	}
	if got := m.Maj(Const0, Const1, z); got != z {
		t.Errorf("<0 1 z> = %v, want z", got)
	}
	if got := m.Maj(Const0, Const0, z); got != Const0 {
		t.Errorf("<0 0 z> = %v, want 0", got)
	}
	if m.NumMaj() != 0 {
		t.Errorf("trivial rules must not create nodes, have %d", m.NumMaj())
	}
}

func TestStructuralHashing(t *testing.T) {
	m := New("t")
	x := m.AddPI("x")
	y := m.AddPI("y")
	z := m.AddPI("z")
	a := m.Maj(x, y, z)
	b := m.Maj(z, x, y) // commutative permutation
	c := m.Maj(y, z, x)
	if a != b || b != c {
		t.Fatalf("commutative permutations must hash to the same node: %v %v %v", a, b, c)
	}
	d := m.Maj(x.Not(), y, z)
	if d == a {
		t.Fatalf("different polarity must be a different node")
	}
	if m.NumMaj() != 2 {
		t.Fatalf("expected 2 nodes, got %d", m.NumMaj())
	}
}

func TestEvalMajorityTruthTable(t *testing.T) {
	m := New("t")
	x := m.AddPI("x")
	y := m.AddPI("y")
	z := m.AddPI("z")
	m.AddPO(m.Maj(x, y, z), "maj")
	m.AddPO(m.Maj(x, y.Not(), z), "majn")

	in := []uint64{ExhaustivePattern(0, 0), ExhaustivePattern(1, 0), ExhaustivePattern(2, 0)}
	out := m.Eval(in)
	mask := uint64(1<<8 - 1)
	// maj(x,y,z) truth table over (z y x) = 000..111: 0,0,0,1,0,1,1,1 → bits 3,5,6,7.
	if got, want := out[0]&mask, uint64(0b11101000); got != want {
		t.Errorf("maj truth table = %08b, want %08b", got, want)
	}
	// maj(x,!y,z): rows where x + !y + z >= 2.
	var want uint64
	for row := 0; row < 8; row++ {
		x, y, z := row&1, row>>1&1, row>>2&1
		if x+(1-y)+z >= 2 {
			want |= 1 << row
		}
	}
	if got := out[1] & mask; got != want {
		t.Errorf("maj(x,!y,z) = %08b, want %08b", got, want)
	}
}

func TestDerivedGates(t *testing.T) {
	m := New("t")
	a := m.AddPI("a")
	b := m.AddPI("b")
	s := m.AddPI("s")
	m.AddPO(m.And(a, b), "and")
	m.AddPO(m.Or(a, b), "or")
	m.AddPO(m.Xor(a, b), "xor")
	m.AddPO(m.Mux(s, a, b), "mux")

	in := []uint64{ExhaustivePattern(0, 0), ExhaustivePattern(1, 0), ExhaustivePattern(2, 0)}
	out := m.Eval(in)
	mask := uint64(1<<8 - 1)
	for row := 0; row < 8; row++ {
		av := row & 1
		bv := row >> 1 & 1
		sv := row >> 2 & 1
		checks := []struct {
			name string
			got  uint64
			want int
		}{
			{"and", out[0], av & bv},
			{"or", out[1], av | bv},
			{"xor", out[2], av ^ bv},
			{"mux", out[3], map[bool]int{true: av, false: bv}[sv == 1]},
		}
		for _, c := range checks {
			if int(c.got>>row&1) != c.want {
				t.Errorf("row %d: %s = %d, want %d", row, c.name, c.got>>row&1, c.want)
			}
		}
	}
	_ = mask
}

func TestLevels(t *testing.T) {
	m := New("t")
	x := m.AddPI("x")
	y := m.AddPI("y")
	z := m.AddPI("z")
	n1 := m.Maj(x, y, z)
	n2 := m.Maj(n1, x, Const1)
	n3 := m.Maj(n2, n1, y)
	m.AddPO(n3, "f")
	levels, depth := m.Levels()
	if levels[x.Node()] != 0 || levels[n1.Node()] != 1 || levels[n2.Node()] != 2 || levels[n3.Node()] != 3 {
		t.Fatalf("levels wrong: %v", levels)
	}
	if depth != 3 {
		t.Fatalf("depth = %d, want 3", depth)
	}
}

func TestFanoutCounts(t *testing.T) {
	m := New("t")
	x := m.AddPI("x")
	y := m.AddPI("y")
	z := m.AddPI("z")
	n1 := m.Maj(x, y, z)
	n2 := m.Maj(n1, x, Const1)
	m.AddPO(n2, "f")
	m.AddPO(n1, "g")
	fo := m.FanoutCounts()
	if fo[n1.Node()] != 2 { // one parent + one PO
		t.Errorf("fanout(n1) = %d, want 2", fo[n1.Node()])
	}
	if fo[x.Node()] != 2 {
		t.Errorf("fanout(x) = %d, want 2", fo[x.Node()])
	}
	if fo[0] != 1 { // constant used by n2
		t.Errorf("fanout(const) = %d, want 1", fo[0])
	}
}

func TestLiveNodesAndCleanup(t *testing.T) {
	m := New("t")
	x := m.AddPI("x")
	y := m.AddPI("y")
	z := m.AddPI("z")
	n1 := m.Maj(x, y, z)
	_ = m.Maj(x, y, Const0) // dangling
	n3 := m.Maj(n1, z, Const1)
	m.AddPO(n3.Not(), "f")

	live := m.LiveNodes()
	if live[2] != true { // PI y
		t.Errorf("PI must be live")
	}
	cl := m.Cleanup()
	if cl.NumMaj() != 2 {
		t.Fatalf("cleanup kept %d nodes, want 2", cl.NumMaj())
	}
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
	MustBeEquivalent(m, cl, 4, 1)
}

func TestComplementHistogram(t *testing.T) {
	m := New("t")
	x := m.AddPI("x")
	y := m.AddPI("y")
	z := m.AddPI("z")
	m.AddPO(m.Maj(x, y, z), "a")             // 0 complemented
	m.AddPO(m.Maj(x.Not(), y, z.Not()), "b") // 2 complemented
	m.AddPO(m.Maj(x.Not(), y, Const1), "c")  // 1 complemented (const doesn't count)
	hist := m.ComplementHistogram()
	if hist[0] != 1 || hist[1] != 1 || hist[2] != 1 || hist[3] != 0 {
		t.Fatalf("hist = %v", hist)
	}
	fanin, po := m.CountComplementedEdges()
	if fanin != 3 {
		t.Errorf("complemented fanins = %d, want 3", fanin)
	}
	if po != 0 {
		t.Errorf("complemented POs = %d, want 0", po)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New("t")
	x := m.AddPI("x")
	y := m.AddPI("y")
	m.AddPO(m.And(x, y), "f")
	c := m.Clone()
	c.AddPO(c.Or(x, y), "g")
	if m.NumPOs() != 1 || c.NumPOs() != 2 {
		t.Fatalf("clone not independent")
	}
	MustBeEquivalentPO0(t, m, c)
}

// MustBeEquivalentPO0 checks PO 0 of two MIGs with equal PI counts agrees.
func MustBeEquivalentPO0(t *testing.T, a, b *MIG) {
	t.Helper()
	in := make([]uint64, a.NumPIs())
	rng := rand.New(rand.NewSource(7))
	for i := range in {
		in[i] = rng.Uint64()
	}
	if a.Eval(in)[0] != b.Eval(in)[0] {
		t.Fatalf("PO0 differs")
	}
}

func TestValidate(t *testing.T) {
	m := New("t")
	x := m.AddPI("x")
	y := m.AddPI("y")
	z := m.AddPI("z")
	m.AddPO(m.Maj(x, y, z), "f")
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	m := New("rt")
	x := m.AddPI("x")
	y := m.AddPI("y")
	z := m.AddPI("z")
	n1 := m.Maj(x, y.Not(), z)
	n2 := m.Maj(n1, x, Const1)
	m.AddPO(n2.Not(), "f")
	m.AddPO(n1, "g")

	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "rt" || got.NumPIs() != 3 || got.NumPOs() != 2 || got.NumMaj() != 2 {
		t.Fatalf("round-trip mismatch: %s pi=%d po=%d maj=%d", got.Name, got.NumPIs(), got.NumPOs(), got.NumMaj())
	}
	MustBeEquivalent(m, got, 4, 2)
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		".maj 1 2",                          // arity
		".model m\n.maj 5 1 2\n.end",        // forward reference
		".model m\n.po 9\n.end",             // undefined signal
		".model m\n.pi a\n.frob\n.end",      // unknown directive
		".model m\n.pi a",                   // missing .end
		".model m\n.maj 0 0 0\n.pi a\n.end", // .pi after .maj
	}
	for _, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", src)
		}
	}
}

// TestReadLongLine pins the line cap: the scanner starts at bufio's
// default size and grows, so a line longer than 1 MiB still parses.
func TestReadLongLine(t *testing.T) {
	long := strings.Repeat("m", 2<<20)
	m, err := Read(strings.NewReader(".model " + long + "\n.pi a\n.po 1 f\n.end\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != long || m.NumPIs() != 1 || m.NumPOs() != 1 {
		t.Fatalf("long-line netlist parsed as name len %d, %d PIs, %d POs", len(m.Name), m.NumPIs(), m.NumPOs())
	}
}

func TestWriteDOT(t *testing.T) {
	m := New("dot")
	x := m.AddPI("x")
	y := m.AddPI("y")
	m.AddPO(m.And(x, y).Not(), "f")
	var buf bytes.Buffer
	if err := m.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "shape=box", "style=dashed", "invtriangle"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestExhaustivePattern(t *testing.T) {
	// For 8 variables the pattern enumerates all 256 assignments across 4 words.
	n := 8
	words := PatternWords(n)
	if words != 4 {
		t.Fatalf("PatternWords(8) = %d, want 4", words)
	}
	seen := make(map[int]bool)
	for w := 0; w < words; w++ {
		for bit := 0; bit < 64; bit++ {
			idx := 0
			for v := 0; v < n; v++ {
				if ExhaustivePattern(v, w)>>uint(bit)&1 == 1 {
					idx |= 1 << v
				}
			}
			if seen[idx] {
				t.Fatalf("assignment %d seen twice", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != 256 {
		t.Fatalf("enumerated %d assignments, want 256", len(seen))
	}
}

func TestEquivalentDetectsDifference(t *testing.T) {
	a := New("a")
	x := a.AddPI("x")
	y := a.AddPI("y")
	a.AddPO(a.And(x, y), "f")

	b := New("b")
	x2 := b.AddPI("x")
	y2 := b.AddPI("y")
	b.AddPO(b.Or(x2, y2), "f")

	res, err := Equivalent(a, b, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatalf("AND and OR reported equivalent")
	}
	if !res.Exhaustive {
		t.Fatalf("2-input check should be exhaustive")
	}
	if res.Counterexample == nil {
		t.Fatalf("missing counterexample")
	}
	// Verify the counterexample actually distinguishes.
	xa := res.Counterexample[0]
	ya := res.Counterexample[1]
	if (xa && ya) == (xa || ya) {
		t.Fatalf("counterexample %v does not distinguish AND from OR", res.Counterexample)
	}
}

func TestEquivalentErrorsOnShapeMismatch(t *testing.T) {
	a := New("a")
	a.AddPI("x")
	b := New("b")
	if _, err := Equivalent(a, b, 1, 1); err == nil {
		t.Fatal("want PI mismatch error")
	}
	b.AddPI("x")
	a.AddPO(Const0, "f")
	if _, err := Equivalent(a, b, 1, 1); err == nil {
		t.Fatal("want PO mismatch error")
	}
}

// Property: Maj agrees with the Boolean majority under arbitrary inputs and
// polarities (word-parallel).
func TestMajPropertyQuick(t *testing.T) {
	f := func(xa, ya, za uint64, cx, cy, cz bool) bool {
		m := New("q")
		x := m.AddPI("x").NotIf(cx)
		y := m.AddPI("y").NotIf(cy)
		z := m.AddPI("z").NotIf(cz)
		m.AddPO(m.Maj(x, y, z), "f")
		out := m.Eval([]uint64{xa, ya, za})[0]
		ax, ay, az := xa, ya, za
		if cx {
			ax = ^ax
		}
		if cy {
			ay = ^ay
		}
		if cz {
			az = ^az
		}
		want := ax&ay | ax&az | ay&az
		return out == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the self-duality of majority: ⟨x̄ ȳ z̄⟩ = ¬⟨x y z⟩.
func TestMajSelfDualQuick(t *testing.T) {
	f := func(xa, ya, za uint64) bool {
		m := New("q")
		x := m.AddPI("x")
		y := m.AddPI("y")
		z := m.AddPI("z")
		m.AddPO(m.Maj(x.Not(), y.Not(), z.Not()), "a")
		m.AddPO(m.Maj(x, y, z).Not(), "b")
		out := m.Eval([]uint64{xa, ya, za})
		return out[0] == out[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStatisticsString(t *testing.T) {
	m := New("s")
	x := m.AddPI("x")
	y := m.AddPI("y")
	m.AddPO(m.And(x, y.Not()), "f")
	st := m.Statistics()
	if st.MajNodes != 1 || st.PIs != 2 || st.POs != 1 || st.Depth != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if !strings.Contains(st.String(), "maj=1") {
		t.Fatalf("String() = %q", st.String())
	}
}

// TestReadNeverPanicsOnMutatedInput mutates a valid .mig file byte-by-byte
// and demands the parser either succeeds or returns an error — never
// panics and never accepts a graph that fails validation.
func TestReadNeverPanicsOnMutatedInput(t *testing.T) {
	m := New("fuzz")
	x := m.AddPI("x")
	y := m.AddPI("y")
	z := m.AddPI("z")
	n1 := m.Maj(x, y.Not(), z)
	m.AddPO(m.Maj(n1, x, Const1).Not(), "f")
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte(nil), orig...)
		for k := 0; k <= rng.Intn(3); k++ {
			pos := rng.Intn(len(mut))
			mut[pos] = byte(rng.Intn(128))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Read panicked on mutated input %q: %v", mut, r)
				}
			}()
			got, err := Read(bytes.NewReader(mut))
			if err != nil {
				return
			}
			if verr := got.Validate(); verr != nil {
				t.Fatalf("Read accepted an invalid graph: %v\ninput: %q", verr, mut)
			}
		}()
	}
}

// buildFpMIG is a small deterministic graph for fingerprint/reset tests.
func buildFpMIG(name string) *MIG {
	m := New(name)
	a := m.AddPI("a")
	b := m.AddPI("b")
	c := m.AddPI("c")
	x := m.Maj(a, b, c)
	y := m.And(x, a.Not())
	m.AddPO(m.Or(y, c), "o")
	m.AddPO(y.Not(), "p")
	return m
}

func TestFingerprintStableAndSensitive(t *testing.T) {
	m := buildFpMIG("f")
	if m.Fingerprint() != m.Fingerprint() {
		t.Fatal("fingerprint is not deterministic")
	}
	if m.Fingerprint() != buildFpMIG("f").Fingerprint() {
		t.Fatal("identical construction sequences must share a fingerprint")
	}
	if m.Fingerprint() == buildFpMIG("g").Fingerprint() {
		t.Fatal("fingerprint ignores the name")
	}
	bigger := buildFpMIG("f")
	bigger.AddPO(Const1, "q")
	if m.Fingerprint() == bigger.Fingerprint() {
		t.Fatal("fingerprint ignores an extra PO")
	}
	flipped := buildFpMIG("f")
	flipped.SetPO(0, flipped.PO(0).Not())
	if m.Fingerprint() == flipped.Fingerprint() {
		t.Fatal("fingerprint ignores PO polarity")
	}
}

// TestResetReuse empties a graph in place and rebuilds a different one; the
// result must be indistinguishable from a fresh build.
func TestResetReuse(t *testing.T) {
	m := buildFpMIG("first")
	m.Reset("f")
	if m.NumNodes() != 1 || m.NumPIs() != 0 || m.NumPOs() != 0 || m.NumMaj() != 0 {
		t.Fatalf("Reset left state behind: %v", m.Statistics())
	}
	// Rebuild the reference graph into the reused arena.
	a := m.AddPI("a")
	b := m.AddPI("b")
	c := m.AddPI("c")
	x := m.Maj(a, b, c)
	y := m.And(x, a.Not())
	m.AddPO(m.Or(y, c), "o")
	m.AddPO(y.Not(), "p")
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Fingerprint() != buildFpMIG("f").Fingerprint() {
		t.Fatal("rebuild into a Reset arena differs from a fresh build")
	}
}

func TestNewSizedMatchesNew(t *testing.T) {
	m := NewSized("f", 500)
	if m.NumNodes() != 1 || m.Kind(0) != KindConst {
		t.Fatal("NewSized must start with only the constant node")
	}
	a := m.AddPI("a")
	b := m.AddPI("b")
	m.AddPO(m.And(a, b), "o")
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	n := New("f")
	na := n.AddPI("a")
	nb := n.AddPI("b")
	n.AddPO(n.And(na, nb), "o")
	if m.Fingerprint() != n.Fingerprint() {
		t.Fatal("NewSized and New build different graphs")
	}
}

func TestLiveNodesIntoMatchesLiveNodes(t *testing.T) {
	m := buildFpMIG("f")
	// Add a dangling node so liveness is non-trivial.
	m.Maj(m.PO(0), m.PO(1), Const1)
	want := m.LiveNodes()
	buf := make([]bool, 2) // too small: must reallocate
	got := m.LiveNodesInto(buf)
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("live[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// A large dirty buffer must be cleared and reused.
	big := make([]bool, len(want)+32)
	for i := range big {
		big[i] = true
	}
	got2 := m.LiveNodesInto(big)
	if &got2[0] != &big[0] {
		t.Fatal("large buffer was not reused")
	}
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("reused buffer live[%d] = %v, want %v", i, got2[i], want[i])
		}
	}
}

// TestFingerprintCoversPinNames: structurally identical graphs with
// different PI/PO names must not collide (a rewrite-cache hit would
// otherwise return a graph carrying the first caller's names).
func TestFingerprintCoversPinNames(t *testing.T) {
	build := func(pi1, pi2, po string) *MIG {
		m := New("f")
		a := m.AddPI(pi1)
		b := m.AddPI(pi2)
		m.AddPO(m.And(a, b), po)
		return m
	}
	base := build("a", "b", "o").Fingerprint()
	if build("x", "b", "o").Fingerprint() == base {
		t.Fatal("fingerprint ignores PI names")
	}
	if build("a", "b", "p").Fingerprint() == base {
		t.Fatal("fingerprint ignores PO names")
	}
	// Shifting a name boundary must also be visible.
	if build("ab", "", "o").Fingerprint() == build("a", "b", "o").Fingerprint() {
		t.Fatal("fingerprint is ambiguous across name boundaries")
	}
}

// codec is one of the two serializations a graph round-trips through: the
// .mig text interchange format and the binary disk-cache payload.
type codec struct {
	name   string
	encode func(t *testing.T, m *MIG) []byte
	decode func(b []byte) (*MIG, error)
}

var (
	textCodec = codec{"text", func(t *testing.T, m *MIG) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}, func(b []byte) (*MIG, error) { return Read(bytes.NewReader(b)) }}
	binaryCodec = codec{"binary", func(_ *testing.T, m *MIG) []byte { return m.AppendBinary(nil) }, ReadBinary}
	codecs      = []codec{textCodec, binaryCodec}
)

// roundTrip serializes m with c and parses it back.
func roundTrip(t *testing.T, c codec, m *MIG) *MIG {
	t.Helper()
	got, err := c.decode(c.encode(t, m))
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return got
}

// TestWriteReadPreservesFingerprint: the persistent cache keys benchmark
// builds and rewrite results by Fingerprint(), so a Write/Read round trip
// of a canonically numbered graph — including nameless PIs and POs, which
// Write used to rename to x0/x1/… defaults — must reproduce the
// fingerprint exactly, or disk-served entries would silently never match
// freshly built graphs. The binary codec the disk cache stores must do the
// same.
func TestWriteReadPreservesFingerprint(t *testing.T) {
	named := New("named")
	a := named.AddPI("a[0]")
	b := named.AddPI("b[0]")
	c := named.AddPI("")
	n1 := named.Maj(a, b.Not(), c)
	named.AddPO(n1, "s[0]")
	named.AddPO(named.And(n1, a).Not(), "")

	anon := New("anon")
	x := anon.AddPI("")
	y := anon.AddPI("")
	anon.AddPO(anon.Or(x, y), "")

	// A RawMaj-built graph keeps trivially foldable nodes; they must
	// survive the round trip verbatim too.
	raw := New("raw")
	p := raw.AddPI("p")
	q := raw.AddPI("q")
	raw.AddPO(raw.RawMaj(p, p, q), "o")

	for _, cd := range codecs {
		for _, m := range []*MIG{named, anon, raw} {
			got := roundTrip(t, cd, m)
			if got.Fingerprint() != m.Fingerprint() {
				t.Errorf("%s %s: round trip changed fingerprint", cd.name, m.Name)
				for i := 0; i < m.NumPIs(); i++ {
					if m.PIName(i) != got.PIName(i) {
						t.Errorf("%s %s: PI %d name %q became %q", cd.name, m.Name, i, m.PIName(i), got.PIName(i))
					}
				}
			}
			MustBeEquivalent(m, got, 2, 7)
		}
	}
}

// TestWriteRenumbersInterleavedPIs: in-memory graphs may add a PI after a
// majority node, but the file format numbers all PIs first. Write must
// renumber signals into file order — emitting raw in-memory ids used to
// rebind edges silently — and the result must stabilize after one round
// trip (Write∘Read is then the identity on the serialized form). The
// binary codec renumbers the same way.
func TestWriteRenumbersInterleavedPIs(t *testing.T) {
	m := New("interleave")
	p := m.AddPI("p")
	q := m.AddPI("q")
	g := m.And(p, q)
	r := m.AddPI("r") // PI created after a majority node
	m.AddPO(m.Or(g, r), "o")

	for _, cd := range codecs {
		got := roundTrip(t, cd, m)
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if got.NumMaj() != m.NumMaj() || got.NumPIs() != m.NumPIs() {
			t.Fatalf("%s: round trip changed shape: maj %d→%d pi %d→%d",
				cd.name, m.NumMaj(), got.NumMaj(), m.NumPIs(), got.NumPIs())
		}
		MustBeEquivalent(m, got, 2, 7)

		// Once canonical, further round trips are fingerprint- and
		// byte-stable.
		again := roundTrip(t, cd, got)
		if again.Fingerprint() != got.Fingerprint() {
			t.Fatalf("%s: second round trip changed fingerprint", cd.name)
		}
		if !bytes.Equal(cd.encode(t, got), cd.encode(t, again)) {
			t.Fatalf("%s: serialized form not stable after one round trip", cd.name)
		}
	}
}

// TestLiveNodesIntoAllocationFree pins the satellite fix for the warm-suite
// allocation residue: with a caller-provided buffer, the liveness sweep
// performs zero allocations (the old implementation built a DFS stack per
// call).
func TestLiveNodesIntoAllocationFree(t *testing.T) {
	m := New("allocfree")
	sigs := []Signal{m.AddPI("a"), m.AddPI("b"), m.AddPI("c")}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		a := sigs[rng.Intn(len(sigs))]
		b := sigs[rng.Intn(len(sigs))].Not()
		c := sigs[rng.Intn(len(sigs))]
		if s := m.Maj(a, b, c); !s.IsConst() {
			sigs = append(sigs, s)
		}
	}
	m.AddPO(sigs[len(sigs)-1], "o")
	buf := make([]bool, m.NumNodes())
	if avg := testing.AllocsPerRun(20, func() {
		buf = m.LiveNodesInto(buf)
	}); avg != 0 {
		t.Fatalf("LiveNodesInto allocates %.1f times per call with a warm buffer, want 0", avg)
	}
}

// TestLiveNodesDeepChain: the reverse-sweep implementation must handle
// graphs far deeper than any recursion or fixed-size stack would.
func TestLiveNodesDeepChain(t *testing.T) {
	m := New("deep")
	a := m.AddPI("a")
	b := m.AddPI("b")
	cur := m.And(a, b)
	for i := 0; i < 200000; i++ {
		cur = m.Maj(cur, a.NotIf(i%2 == 0), b.NotIf(i%3 == 0))
	}
	m.AddPO(cur, "o")
	live := m.LiveNodes()
	n := 0
	for _, l := range live {
		if l {
			n++
		}
	}
	if n != m.NumNodes() {
		t.Fatalf("deep chain: %d/%d nodes live, want all", n, m.NumNodes())
	}
}
