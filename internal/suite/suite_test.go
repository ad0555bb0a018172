package suite

import (
	"context"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"plim/internal/diskcache"
	"plim/internal/memo"
	"plim/internal/mig"
)

func TestRegistryShapesMatchPaper(t *testing.T) {
	names := Names()
	if len(names) != 18 {
		t.Fatalf("paper evaluates 18 benchmarks, registry has %d", len(names))
	}
	// PI/PO counts from the paper's Table I.
	want := map[string][2]int{
		"adder": {256, 129}, "bar": {135, 128}, "div": {128, 128},
		"log2": {32, 32}, "max": {512, 130}, "multiplier": {128, 128},
		"sin": {24, 25}, "sqrt": {128, 64}, "square": {64, 128},
		"cavlc": {10, 11}, "ctrl": {7, 26}, "dec": {8, 256},
		"i2c": {147, 142}, "int2float": {11, 7}, "mem_ctrl": {1204, 1231},
		"priority": {128, 8}, "router": {60, 30}, "voter": {1001, 1},
	}
	for name, pipo := range want {
		info, ok := Get(name)
		if !ok {
			t.Fatalf("missing benchmark %q", name)
		}
		if info.PI != pipo[0] || info.PO != pipo[1] {
			t.Errorf("%s: registry says %d/%d, paper says %d/%d",
				name, info.PI, info.PO, pipo[0], pipo[1])
		}
	}
	if _, ok := Get("nonesuch"); ok {
		t.Fatal("Get must reject unknown names")
	}
	if _, err := BuildScaled("nonesuch", 1); err == nil {
		t.Fatal("BuildScaled must reject unknown names")
	}
	if _, err := BuildScaled("adder", 0); err == nil {
		t.Fatal("BuildScaled must reject shrink < 1")
	}
}

// TestAllBenchmarksBuildAtPaperScale builds every benchmark at full size and
// checks PI/PO counts, validity, and that all majority nodes are live.
func TestAllBenchmarksBuildAtPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale build in short mode")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			info, _ := Get(name)
			m, err := BuildScaled(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			if m.NumPIs() != info.PI || m.NumPOs() != info.PO {
				t.Fatalf("%s: built %d/%d, paper wants %d/%d",
					name, m.NumPIs(), m.NumPOs(), info.PI, info.PO)
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			live := m.LiveNodes()
			m.ForEachMaj(func(n mig.NodeID, _ [3]mig.Signal) {
				if !live[n] {
					t.Fatalf("%s: node %d is dead after generation", name, n)
				}
			})
			if m.NumMaj() == 0 {
				t.Fatalf("%s: empty graph", name)
			}
		})
	}
}

func TestBuildIsDeterministic(t *testing.T) {
	for _, name := range []string{"ctrl", "router", "cavlc", "dec", "int2float"} {
		a, err := BuildScaled(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := BuildScaled(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.NumMaj() != b.NumMaj() || a.NumPOs() != b.NumPOs() {
			t.Fatalf("%s: nondeterministic shape", name)
		}
		for i := 0; i < a.NumPOs(); i++ {
			if a.PO(i) != b.PO(i) {
				t.Fatalf("%s: PO %d differs across builds", name, i)
			}
		}
	}
}

// evalBits drives an MIG with one bit per PI and returns PO bits.
func evalBits(m *mig.MIG, in []bool) []bool {
	words := make([]uint64, len(in))
	for i, v := range in {
		if v {
			words[i] = 1
		}
	}
	out := m.Eval(words)
	res := make([]bool, len(out))
	for i, w := range out {
		res[i] = w&1 == 1
	}
	return res
}

func randBig(rng *rand.Rand, bits int) *big.Int {
	v := new(big.Int)
	for i := 0; i < bits; i++ {
		if rng.Intn(2) == 1 {
			v.SetBit(v, i, 1)
		}
	}
	return v
}

func bitsOf(v *big.Int, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = v.Bit(i) == 1
	}
	return out
}

func toBig(bits []bool) *big.Int {
	v := new(big.Int)
	for i, b := range bits {
		if b {
			v.SetBit(v, i, 1)
		}
	}
	return v
}

func TestAdderFunctionalAtPaperScale(t *testing.T) {
	m, err := BuildScaled("adder", 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		a := randBig(rng, 128)
		b := randBig(rng, 128)
		in := append(bitsOf(a, 128), bitsOf(b, 128)...)
		out := toBig(evalBits(m, in))
		want := new(big.Int).Add(a, b)
		if out.Cmp(want) != 0 {
			t.Fatalf("adder: %v + %v = %v, want %v", a, b, out, want)
		}
	}
}

func TestMultiplierFunctionalAtPaperScale(t *testing.T) {
	m, err := BuildScaled("multiplier", 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 4; trial++ {
		a := randBig(rng, 64)
		b := randBig(rng, 64)
		in := append(bitsOf(a, 64), bitsOf(b, 64)...)
		out := toBig(evalBits(m, in))
		want := new(big.Int).Mul(a, b)
		if out.Cmp(want) != 0 {
			t.Fatalf("multiplier: %v × %v = %v, want %v", a, b, out, want)
		}
	}
}

func TestDivFunctionalAtPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large divider in short mode")
	}
	m, err := BuildScaled("div", 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 3; trial++ {
		a := randBig(rng, 64)
		b := randBig(rng, 40) // nonzero with overwhelming probability
		if b.Sign() == 0 {
			b.SetInt64(7)
		}
		in := append(bitsOf(a, 64), bitsOf(b, 64)...)
		out := evalBits(m, in)
		q := toBig(out[:64])
		r := toBig(out[64:])
		wantQ := new(big.Int).Quo(a, b)
		wantR := new(big.Int).Rem(a, b)
		if q.Cmp(wantQ) != 0 || r.Cmp(wantR) != 0 {
			t.Fatalf("div: %v / %v = (%v, %v), want (%v, %v)", a, b, q, r, wantQ, wantR)
		}
	}
}

func TestSqrtFunctionalAtPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large square root in short mode")
	}
	m, err := BuildScaled("sqrt", 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 3; trial++ {
		x := randBig(rng, 128)
		out := toBig(evalBits(m, bitsOf(x, 128)))
		want := new(big.Int).Sqrt(x)
		if out.Cmp(want) != 0 {
			t.Fatalf("sqrt(%v) = %v, want %v", x, out, want)
		}
	}
}

func TestSquareFunctionalAtPaperScale(t *testing.T) {
	m, err := BuildScaled("square", 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 4; trial++ {
		x := randBig(rng, 64)
		out := toBig(evalBits(m, bitsOf(x, 64)))
		want := new(big.Int).Mul(x, x)
		if out.Cmp(want) != 0 {
			t.Fatalf("square(%v) = %v, want %v", x, out, want)
		}
	}
}

func TestBarFunctionalAtPaperScale(t *testing.T) {
	m, err := BuildScaled("bar", 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 6; trial++ {
		x := randBig(rng, 128)
		sh := rng.Intn(128)
		in := append(bitsOf(x, 128), bitsOf(big.NewInt(int64(sh)), 7)...)
		out := toBig(evalBits(m, in))
		want := new(big.Int).Lsh(x, uint(sh))
		hi := new(big.Int).Rsh(want, 128)
		want.SetBit(want, 255, 0) // avoid aliasing; mask below
		mask := new(big.Int).Lsh(big.NewInt(1), 128)
		mask.Sub(mask, big.NewInt(1))
		want.And(want, mask)
		want.Or(want, hi)
		if out.Cmp(want) != 0 {
			t.Fatalf("bar: rotl(%v, %d) = %v, want %v", x, sh, out, want)
		}
	}
}

func TestMaxFunctionalAtPaperScale(t *testing.T) {
	m, err := BuildScaled("max", 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		var vals [4]*big.Int
		var in []bool
		for i := range vals {
			vals[i] = randBig(rng, 128)
			in = append(in, bitsOf(vals[i], 128)...)
		}
		out := evalBits(m, in)
		got := toBig(out[:128])
		gotIdx := 0
		if out[128] {
			gotIdx |= 1
		}
		if out[129] {
			gotIdx |= 2
		}
		best := 0
		for i := 1; i < 4; i++ {
			if vals[i].Cmp(vals[best]) > 0 {
				best = i
			}
		}
		if got.Cmp(vals[best]) != 0 {
			t.Fatalf("max value wrong: %v, want %v", got, vals[best])
		}
		if vals[gotIdx].Cmp(vals[best]) != 0 {
			t.Fatalf("max index %d does not hold the maximum", gotIdx)
		}
	}
}

func TestDecFunctionalAtPaperScale(t *testing.T) {
	m, err := BuildScaled("dec", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 1, 5, 127, 200, 255} {
		out := evalBits(m, bitsOf(big.NewInt(int64(v)), 8))
		for i, bit := range out {
			if bit != (i == v) {
				t.Fatalf("dec(%d): output %d = %v", v, i, bit)
			}
		}
	}
}

func TestPriorityFunctionalAtPaperScale(t *testing.T) {
	m, err := BuildScaled("priority", 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		x := randBig(rng, 128)
		out := evalBits(m, bitsOf(x, 128))
		idx := int(toBig(out[:7]).Int64())
		valid := out[7]
		if x.Sign() == 0 {
			if valid {
				t.Fatal("priority: valid on zero input")
			}
			continue
		}
		if !valid || idx != x.BitLen()-1 {
			t.Fatalf("priority(%v) = %d (valid %v), want %d", x, idx, valid, x.BitLen()-1)
		}
	}
}

func TestVoterFunctionalAtPaperScale(t *testing.T) {
	m, err := BuildScaled("voter", 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		in := make([]bool, 1001)
		ones := 0
		for i := range in {
			in[i] = rng.Intn(2) == 1
			if in[i] {
				ones++
			}
		}
		out := evalBits(m, in)
		if out[0] != (ones >= 501) {
			t.Fatalf("voter with %d ones = %v", ones, out[0])
		}
	}
	// Boundary cases.
	in := make([]bool, 1001)
	for i := 0; i < 500; i++ {
		in[i] = true
	}
	if evalBits(m, in)[0] {
		t.Fatal("500 of 1001 must not be a majority")
	}
	in[500] = true
	if !evalBits(m, in)[0] {
		t.Fatal("501 of 1001 must be a majority")
	}
}

func TestScaledBuildsAreSmaller(t *testing.T) {
	for _, name := range []string{"adder", "div", "mem_ctrl", "voter"} {
		full, err := BuildScaled(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		paper, err := BuildScaled(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if full.NumMaj() >= paper.NumMaj() {
			t.Fatalf("%s: shrink 4 has %d nodes, paper scale %d", name, full.NumMaj(), paper.NumMaj())
		}
	}
}

func TestSyntheticBenchmarksUseEveryInput(t *testing.T) {
	for _, name := range []string{"cavlc", "ctrl", "i2c", "router"} {
		m, err := BuildScaled(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		fo := m.FanoutCounts()
		for i := 0; i < m.NumPIs(); i++ {
			if fo[m.PINode(i)] == 0 {
				t.Fatalf("%s: input %d unused", name, i)
			}
		}
	}
}

// TestCacheSharesDeterministicBuilds checks the benchmark cache: repeated
// builds return one shared instance, structurally identical to a fresh
// build, and distinct (name, shrink) keys get distinct entries.
func TestCacheSharesDeterministicBuilds(t *testing.T) {
	c := NewCache(nil, nil)
	a, err := c.BuildScaled(context.Background(), "ctrl", 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.BuildScaled(context.Background(), "ctrl", 4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache rebuilt instead of sharing")
	}
	fresh, err := BuildScaled("ctrl", 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != fresh.Fingerprint() {
		t.Fatal("cached build differs from a fresh build")
	}
	if _, err := c.BuildScaled(context.Background(), "ctrl", 2); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	if _, err := c.BuildScaled(context.Background(), "no-such-benchmark", 1); err == nil {
		t.Fatal("unknown benchmark must error")
	}
	if c.Len() != 2 {
		t.Fatal("errors must not be cached")
	}
}

// TestCacheConcurrentSingleflight hammers one key concurrently; all
// callers must see the same instance.
func TestCacheConcurrentSingleflight(t *testing.T) {
	c := NewCache(nil, nil)
	var wg sync.WaitGroup
	outs := make([]*mig.Ref, 8)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := c.BuildScaled(context.Background(), "router", 2)
			if err != nil {
				t.Error(err)
			}
			outs[i] = m
		}(i)
	}
	wg.Wait()
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
	for i := 1; i < len(outs); i++ {
		if outs[i] != outs[0] {
			t.Fatal("concurrent callers saw different instances")
		}
	}
}

// buildSize measures a benchmark's estimated byte size with an uncached
// build, so the byte-budget tests can derive budgets that hold exactly the
// entries they intend (generators are deterministic, so a cached build has
// the same size).
func buildSize(t *testing.T, name string, shrink int) int {
	t.Helper()
	m, err := BuildScaled(name, shrink)
	if err != nil {
		t.Fatal(err)
	}
	return m.MemSize()
}

// TestCacheBudgetEvictsLRU checks the size bound: with a byte budget that
// fits either build alone but not both, the least-recently-used build is
// dropped when a second key lands, and the evicted key rebuilds (a fresh
// instance) on the next request while the surviving key keeps its shared
// instance.
func TestCacheBudgetEvictsLRU(t *testing.T) {
	sA, sB := buildSize(t, "ctrl", 8), buildSize(t, "i2c", 8)
	budget := max(sA, sB)
	c := NewCache(memo.NewBudget(budget), nil)
	a1, err := c.BuildScaled(context.Background(), "ctrl", 8)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := c.BuildScaled(context.Background(), "i2c", 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1 (budget %d bytes)", c.Len(), budget)
	}
	// "i2c" is the survivor: it must still hit...
	b2, err := c.BuildScaled(context.Background(), "i2c", 8)
	if err != nil {
		t.Fatal(err)
	}
	if b2 != b1 {
		t.Fatal("survivor was evicted")
	}
	// ...and "ctrl" was evicted: it rebuilds into a fresh instance.
	a2, err := c.BuildScaled(context.Background(), "ctrl", 8)
	if err != nil {
		t.Fatal(err)
	}
	if a2 == a1 {
		t.Fatal("evicted entry still served the old instance")
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries after re-adding, want 1", c.Len())
	}
}

// TestCacheBudgetRespectsRecency: touching an entry protects it from the
// next eviction. The byte budget holds "ctrl" plus either of the other two
// builds, but not all three.
func TestCacheBudgetRespectsRecency(t *testing.T) {
	sCtrl, sI2c, sRouter := buildSize(t, "ctrl", 8), buildSize(t, "i2c", 8), buildSize(t, "router", 8)
	c := NewCache(memo.NewBudget(sCtrl+max(sI2c, sRouter)), nil)
	a1, err := c.BuildScaled(context.Background(), "ctrl", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.BuildScaled(context.Background(), "i2c", 8); err != nil {
		t.Fatal(err)
	}
	// Refresh "ctrl", then insert a third key: "i2c" must be the victim.
	if _, err := c.BuildScaled(context.Background(), "ctrl", 8); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BuildScaled(context.Background(), "router", 8); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	a2, err := c.BuildScaled(context.Background(), "ctrl", 8)
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a1 {
		t.Fatal("recently-used entry was evicted instead of the LRU one")
	}
}

// TestCacheDiskTier: a cold Cache over a warm directory serves the
// generator output from disk, fingerprint-identical to a fresh build —
// the property the fingerprint-keyed rewrite cache depends on.
func TestCacheDiskTier(t *testing.T) {
	disk, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildScaled("router", 2)
	if err != nil {
		t.Fatal(err)
	}

	warm := NewCache(nil, disk)
	if _, err := warm.BuildScaled(context.Background(), "router", 2); err != nil {
		t.Fatal(err)
	}
	if c := warm.Counters(); c.Stores != 1 || c.TierMisses != 1 {
		t.Fatalf("cold build counters: %+v", c)
	}

	cold := NewCache(nil, disk)
	r, err := cold.BuildScaled(context.Background(), "router", 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Graph(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if c := cold.Counters(); c.TierHits != 1 {
		t.Fatalf("warm build counters: %+v", c)
	}
	if got.Fingerprint() != fresh.Fingerprint() {
		t.Fatal("disk-served benchmark fingerprint differs from a fresh build")
	}
	mig.MustBeEquivalent(fresh, got, 2, 9)
}
