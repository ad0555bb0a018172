package diskcache

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"plim/internal/isa"
)

// testProgram is a small valid program whose shape varies with seed.
func testProgram(name string, seed int) *isa.Program {
	parts := isa.Parts{Name: name, NumCells: 6, PICells: []uint32{0, 1}, POs: []isa.PORef{{Addr: 5}, {Addr: 4, Neg: true}}}
	for i := 0; i < 8+seed; i++ {
		parts.Insts = append(parts.Insts, isa.Instruction{A: isa.Cell(uint32(i % 2)), B: isa.Cell(uint32((i + seed) % 4)), Z: uint32(2 + (i+seed)%4)})
	}
	p, err := isa.NewProgram(parts)
	if err != nil {
		panic(err)
	}
	return p
}

func TestProgramRoundTrip(t *testing.T) {
	c := open(t)
	p := testProgram("prog", 1)
	k := ProgramKey{Graph: 0x1234, Selection: 2, Alloc: 1, MaxWrites: 50}
	if _, out := c.ProbeProgram(k); out != ProbeMiss {
		t.Fatalf("empty cache probed %d", out)
	}
	if err := c.StoreProgram(k, p); err != nil {
		t.Fatal(err)
	}
	q, out := c.ProbeProgram(k)
	if out != ProbeHit {
		t.Fatalf("stored entry probed %d", out)
	}
	if !bytes.Equal(q.Binary(), p.Binary()) || q.Fingerprint() != p.Fingerprint() {
		t.Fatal("loaded entry differs from the stored program")
	}
	for _, other := range []ProgramKey{
		{Graph: 0x1235, Selection: 2, Alloc: 1, MaxWrites: 50},
		{Graph: 0x1234, Selection: 1, Alloc: 1, MaxWrites: 50},
		{Graph: 0x1234, Selection: 2, Alloc: 0, MaxWrites: 50},
		{Graph: 0x1234, Selection: 2, Alloc: 1, MaxWrites: 0},
	} {
		if _, out := c.ProbeProgram(other); out != ProbeMiss {
			t.Fatalf("%+v probed %d: not every key component is part of the key", other, out)
		}
	}
}

// TestProgramEntryBytesPinned pins the exact bytes of one program entry,
// in the style of TestEntryBytesPinned.
func TestProgramEntryBytesPinned(t *testing.T) {
	c := open(t)
	k := ProgramKey{Graph: 0x0123456789abcdef, Selection: 2, Alloc: 1, MaxWrites: 10}
	if err := c.StoreProgram(k, testProgram("pin", 2)); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, c)
	if want := "prog-0123456789abcdef-s2-a1-w10.plimcache"; !strings.HasSuffix(path, string(os.PathSeparator)+want) {
		t.Fatalf("entry %s, want %s", path, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, _, _ := strings.Cut(string(data), "PLIM")
	if want := "plimcache 3 prog\nkey 0123456789abcdef 2 1 10\nout 1561d0fe90d460f9\npayload 57 12208ee8\n"; head != want {
		t.Errorf("header %q, want %q", head, want)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256(data)), "e046be7b4700cd9c46d1424faa09fd791b9331761fa31c4be0e41da01be0dcc3"; got != want {
		t.Errorf("sha256 %s, want %s", got, want)
	}
}

// TestVerifyOnLoadProgram: a program entry whose payload was swapped for
// a different valid program under a matching checksum is served without
// SetVerify (the CRC was "right") and rejected as a verify-miss with it.
// A payload that does not decode is a plain miss either way.
func TestVerifyOnLoadProgram(t *testing.T) {
	k := ProgramKey{Graph: 7, Selection: 2, Alloc: 1}
	victim, imposter := testProgram("victim", 1), testProgram("victim", 2)
	forge := func(t *testing.T, c *Cache, payload []byte) {
		t.Helper()
		if err := c.StoreProgram(k, victim); err != nil {
			t.Fatal(err)
		}
		path := entryFile(t, c)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		head, _, _ := strings.Cut(string(data), "payload ")
		forged := fmt.Sprintf("%spayload %d %08x\n%s", head, len(payload), crc32ieee(payload), payload)
		if err := os.WriteFile(path, []byte(forged), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, verify := range []bool{false, true} {
		c := open(t)
		c.SetVerify(verify)
		forge(t, c, imposter.AppendBinary(nil))
		p, out := c.ProbeProgram(k)
		switch {
		case !verify && (out != ProbeHit || p.Fingerprint() != imposter.Fingerprint()):
			t.Fatalf("unverified probe %d, want the imposter served", out)
		case verify && out != ProbeVerifyMiss:
			t.Fatalf("verified probe %d, want a verify-miss", out)
		}
		forge(t, c, []byte("PLIM\x01garbage"))
		if _, out := c.ProbeProgram(k); out != ProbeMiss {
			t.Fatalf("verify=%t: undecodable payload probed %d, want a plain miss", verify, out)
		}
	}
}

// TestProbeHitAllocations pins the allocations of a disk hit of each kind
// at their measured counts. Eight go to the path, opening and reading the
// file — its header into one buffer and its payload into another — and
// the modification-time refresh; the header parse allocates nothing. A
// graph hit decodes nothing: its handle and the model name are the last
// two. A program hit's scan decodes no instruction either: it allocates
// the program and its per-cell counts, and a name of two or more bytes
// would add one more.
func TestProbeHitAllocations(t *testing.T) {
	c := open(t)
	k := ProgramKey{Graph: 1}
	if err := c.StoreProgram(k, testProgram("a", 1)); err != nil {
		t.Fatal(err)
	}
	m := testMIG("ctrl", 2)
	if err := c.StoreBenchmark("ctrl", 2, m); err != nil {
		t.Fatal(err)
	}
	if err := c.StoreRewrite(m.Fingerprint(), 2, 5, m, testStats()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		max   float64
		probe func() ProbeOutcome
	}{
		{"program", 10, func() ProbeOutcome { _, out := c.ProbeProgram(k); return out }},
		{"benchmark", 10, func() ProbeOutcome { _, out := c.ProbeBenchmark(BenchmarkKey{"ctrl", 2}); return out }},
		{"rewrite", 10, func() ProbeOutcome { _, out := c.LoadRewrite(RewriteKey{m.Fingerprint(), 2, 5}); return out }},
	} {
		var out ProbeOutcome
		if n := testing.AllocsPerRun(20, func() { out = tc.probe() }); n > tc.max || out != ProbeHit {
			t.Errorf("%s probe: %v allocations (outcome %d), want a hit in at most %v", tc.name, n, out, tc.max)
		}
	}
}
