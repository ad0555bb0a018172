package plim

import (
	"context"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"plim/internal/suite"
)

// lazySubset is the Table I subset the lazy-decode tests prime: two
// synthetic benchmarks and one arithmetic one.
var lazySubset = []string{"ctrl", "router", "sin"}

// primeLazyDir runs Table I over lazySubset at persistShrink into a fresh
// cache directory and returns the directory and the table's CSV.
func primeLazyDir(t *testing.T) (dir, csv string) {
	t.Helper()
	dir = t.TempDir()
	eng := NewEngine(WithShrink(persistShrink), WithPersistentCache(dir))
	return dir, lazyCSV(t, eng)
}

func lazyCSV(t *testing.T, eng *Engine) string {
	t.Helper()
	sr, err := eng.RunSuite(context.Background(), TableIConfigs(), lazySubset...)
	if err != nil {
		t.Fatal(err)
	}
	d, err := TableI(sr)
	if err != nil {
		t.Fatal(err)
	}
	return d.Grid().CSV()
}

// cutGraphPayloads cuts the last two bytes off the payload of every
// benchmark and rewrite entry in dir and rewrites its payload line with
// the new length and CRC, so every header check still passes and only a
// decode can tell.
func cutGraphPayloads(t *testing.T, dir string) {
	t.Helper()
	cut := 0
	for _, pattern := range []string{"bench-*.plimcache", "rw-*.plimcache"} {
		paths, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			head, rest, ok := strings.Cut(string(data), "payload ")
			_, payload, ok2 := strings.Cut(rest, "\n")
			if !ok || !ok2 || len(payload) < 2 {
				t.Fatalf("%s: no payload", path)
			}
			payload = payload[:len(payload)-2]
			entry := fmt.Sprintf("%spayload %d %08x\n%s", head, len(payload), crc32.ChecksumIEEE([]byte(payload)), payload)
			if err := os.WriteFile(path, []byte(entry), 0o644); err != nil {
				t.Fatal(err)
			}
			cut++
		}
	}
	if want := 4 * len(lazySubset); cut != want {
		t.Fatalf("cut %d graph entries, want %d (a benchmark and three rewrites each)", cut, want)
	}
}

// cycleCounter counts the rewrite-cycle events an engine emits.
func cycleCounter() (Option, func() int) {
	var mu sync.Mutex
	n := 0
	return WithProgress(func(ev Event) {
			if _, ok := ev.(EventRewriteCycle); ok {
				mu.Lock()
				n++
				mu.Unlock()
			}
		}), func() int {
			mu.Lock()
			defer mu.Unlock()
			return n
		}
}

// TestWarmDiskRunDecodesNoGraph: when every compile hits, a warm Table I
// run reads no benchmark or rewritten graph, so graph payloads that no
// longer decode go unnoticed. Their probes still hit on the header, the
// table is byte-identical and nothing is rewritten.
func TestWarmDiskRunDecodesNoGraph(t *testing.T) {
	dir, want := primeLazyDir(t)
	cutGraphPayloads(t, dir)
	progressOpt, cycles := cycleCounter()
	eng := NewEngine(WithShrink(persistShrink), WithPersistentCache(dir), progressOpt)
	if got := lazyCSV(t, eng); got != want {
		t.Fatalf("warm table differs:\n--- cold ---\n%s\n--- warm ---\n%s", want, got)
	}
	st, _ := eng.PersistentCacheStats()
	if st.BenchmarkHits != 3 || st.RewriteHits != 9 || st.BenchmarkMisses != 0 || st.RewriteMisses != 0 || st.CompileMisses != 0 {
		t.Fatalf("probes %+v, want 3 benchmark and 9 rewrite hits and no misses", st)
	}
	if n := cycles(); n != 0 {
		t.Fatalf("warm run emitted %d rewrite cycles, want 0", n)
	}
}

// TestUndecodableGraphIsRecomputed: a graph whose payload passed every
// header check but does not decode is rebuilt or re-rewritten where it is
// first needed, never reported as an error, and stored again, so only the
// first engine to read it pays. With the programs gone every compile
// misses and reads its rewritten graph.
func TestUndecodableGraphIsRecomputed(t *testing.T) {
	ctx := context.Background()
	dir, want := primeLazyDir(t)
	cutGraphPayloads(t, dir)
	progs, err := filepath.Glob(filepath.Join(dir, "prog-*.plimcache"))
	if err != nil || len(progs) == 0 {
		t.Fatalf("no program entries (%v)", err)
	}
	for _, p := range progs {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	progressOpt, cycles := cycleCounter()
	eng := NewEngine(WithShrink(persistShrink), WithPersistentCache(dir), progressOpt)
	if got := lazyCSV(t, eng); got != want {
		t.Fatalf("recomputed table differs:\n--- cold ---\n%s\n--- recomputed ---\n%s", want, got)
	}
	if cycles() == 0 {
		t.Fatal("no rewrite ran for the undecodable rewrite entries")
	}
	// Four graph entries and, one per Table I configuration, the
	// programs of each benchmark; callers racing on one cut entry may
	// each recompute and store it.
	if st, _ := eng.PersistentCacheStats(); st.Stores < uint64((4+len(TableIConfigs()))*len(lazySubset)) {
		t.Fatalf("%+v: want every cut entry and every program stored again", st)
	}
	// A second engine decodes and re-hashes every graph it probes: each
	// cut entry now decodes.
	verifying := NewEngine(WithShrink(persistShrink), WithPersistentCache(dir), WithVerify(true))
	if got := lazyCSV(t, verifying); got != want {
		t.Fatal("the table over the rewritten entries differs from the cold one")
	}
	if st, _ := verifying.PersistentCacheStats(); st.BenchmarkHits != 3 || st.RewriteHits != 9 || st.BenchmarkMisses != 0 || st.RewriteMisses != 0 {
		t.Fatalf("probes %+v, want every rewritten entry to decode", st)
	}

	// The facade's graph accessors recover the same way, on an engine
	// that has only the cut entries to go on.
	cutGraphPayloads(t, dir)
	fresh := NewEngine(WithShrink(persistShrink))
	eng = NewEngine(WithShrink(persistShrink), WithPersistentCache(dir))
	for _, name := range lazySubset {
		built, err := suite.BuildScaled(name, persistShrink)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Benchmark(ctx, name, persistShrink)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != built.Fingerprint() {
			t.Fatalf("%s: Benchmark over a cut entry differs from a fresh build", name)
		}
		for _, kind := range []RewriteKind{RewriteNone, RewriteAlgorithm1, RewriteAlgorithm2} {
			rw, _, err := eng.Rewrite(ctx, built, kind)
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := fresh.Rewrite(ctx, built, kind)
			if err != nil {
				t.Fatal(err)
			}
			if rw.Fingerprint() != ref.Fingerprint() {
				t.Fatalf("%s %v: Rewrite over a cut entry differs from a fresh rewrite", name, kind)
			}
		}
	}
	if st, _ := eng.PersistentCacheStats(); st.BenchmarkHits != 3 || st.RewriteHits != 9 {
		t.Fatalf("probes %+v, want every cut entry to hit on its header", st)
	}
}

// TestVerifyingEngineMissesUndecodableGraphs: WithVerify decodes and
// re-hashes every graph at the probe, so the same cut entries are plain
// misses there, recomputed and stored again.
func TestVerifyingEngineMissesUndecodableGraphs(t *testing.T) {
	dir, want := primeLazyDir(t)
	cutGraphPayloads(t, dir)
	eng := NewEngine(WithShrink(persistShrink), WithPersistentCache(dir), WithVerify(true))
	if got := lazyCSV(t, eng); got != want {
		t.Fatal("verified table differs from the cold one")
	}
	st, _ := eng.PersistentCacheStats()
	if st.BenchmarkHits != 0 || st.RewriteHits != 0 || st.BenchmarkMisses != 3 || st.RewriteMisses != 9 || st.VerifyMisses != 0 {
		t.Fatalf("probes %+v, want 3 benchmark and 9 rewrite plain misses", st)
	}
}
