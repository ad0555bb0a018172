package diskcache

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// storeN stores n distinct benchmark entries and returns their paths in
// store order.
func storeN(t *testing.T, c *Cache, n int) []string {
	t.Helper()
	paths := make([]string, n)
	for i := 0; i < n; i++ {
		m := testMIG("gc", i)
		if err := c.StoreBenchmark("gc", i+1, m); err != nil {
			t.Fatal(err)
		}
		paths[i] = BenchmarkKey{"gc", i + 1}.path(c.Dir())
	}
	return paths
}

// backdate moves an entry's modification time into the past.
func backdate(t *testing.T, path string, age time.Duration) {
	t.Helper()
	old := time.Now().Add(-age)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
}

func TestGCNoLimitsOnlyReports(t *testing.T) {
	c := open(t)
	paths := storeN(t, c, 3)
	st, err := c.GC(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scanned != 3 || st.Removed != 0 || st.Entries != 3 || st.Bytes <= 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("entry %s vanished: %v", p, err)
		}
	}
}

func TestGCMaxAgeDeletesOldEntries(t *testing.T) {
	c := open(t)
	paths := storeN(t, c, 3)
	backdate(t, paths[0], 48*time.Hour)
	backdate(t, paths[1], 2*time.Hour)
	st, err := c.GC(24*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Removed != 1 || st.Entries != 2 {
		t.Fatalf("want exactly the 48h entry removed, got %+v", st)
	}
	if _, err := os.Stat(paths[0]); !os.IsNotExist(err) {
		t.Fatalf("old entry survived: %v", err)
	}
	for _, p := range paths[1:] {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("young entry removed: %v", err)
		}
	}
}

func TestGCMaxBytesEvictsOldestFirst(t *testing.T) {
	c := open(t)
	paths := storeN(t, c, 4)
	// Stamp distinct ages: paths[0] oldest … paths[3] youngest.
	for i, p := range paths {
		backdate(t, p, time.Duration(len(paths)-i)*time.Hour)
	}
	size := func(p string) int64 {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	var total int64
	for _, p := range paths {
		total += size(p)
	}
	// A budget the two youngest entries fit under but adding half of the
	// second-oldest would bust: exactly the two oldest must go.
	budget := total - size(paths[0]) - size(paths[1])/2
	st, err := c.GC(0, budget)
	if err != nil {
		t.Fatal(err)
	}
	if st.Removed != 2 {
		t.Fatalf("want 2 evictions, got %+v", st)
	}
	if st.Bytes > budget {
		t.Fatalf("still over budget: %+v", st)
	}
	for _, p := range paths[:2] {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("oldest entry %s survived", p)
		}
	}
	for _, p := range paths[2:] {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("youngest entry %s evicted: %v", p, err)
		}
	}
}

func TestGCLoadRefreshesRecency(t *testing.T) {
	c := open(t)
	paths := storeN(t, c, 2)
	backdate(t, paths[0], 3*time.Hour)
	backdate(t, paths[1], 2*time.Hour)
	// A hit on the older entry must move it to the young end.
	if _, out := c.ProbeBenchmark(BenchmarkKey{"gc", 1}); out != ProbeHit {
		t.Fatal("load miss on stored entry")
	}
	var one int64
	if fi, err := os.Stat(paths[0]); err != nil {
		t.Fatal(err)
	} else {
		one = fi.Size()
	}
	st, err := c.GC(0, one+one/2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Removed != 1 {
		t.Fatalf("want 1 eviction, got %+v", st)
	}
	if _, err := os.Stat(paths[0]); err != nil {
		t.Fatal("recently loaded entry was evicted")
	}
	if _, err := os.Stat(paths[1]); !os.IsNotExist(err) {
		t.Fatal("stale entry survived the size sweep")
	}
}

// TestGCSparesConcurrentlyRefreshedEntry pins the load/GC race: an entry
// whose recency a load refreshes after GC's directory scan but before its
// deletion must survive the sweep — the stale scan-time age no longer
// describes it.
func TestGCSparesConcurrentlyRefreshedEntry(t *testing.T) {
	c := open(t)
	paths := storeN(t, c, 1)
	backdate(t, paths[0], 48*time.Hour)
	gcTestHookBeforeRemove = func(path string) {
		// A concurrent load hits the entry right now.
		if _, out := c.ProbeBenchmark(BenchmarkKey{"gc", 1}); out != ProbeHit {
			t.Error("load miss on stored entry")
		}
	}
	defer func() { gcTestHookBeforeRemove = nil }()
	st, err := c.GC(24*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Removed != 0 {
		t.Fatalf("refreshed entry evicted: %+v", st)
	}
	if _, err := os.Stat(paths[0]); err != nil {
		t.Fatalf("refreshed entry vanished: %v", err)
	}
}

// TestGCToleratesConcurrentlyDeletedEntry: an entry deleted between the
// scan and the eviction (another janitor) is not an error and not counted.
func TestGCToleratesConcurrentlyDeletedEntry(t *testing.T) {
	c := open(t)
	paths := storeN(t, c, 1)
	backdate(t, paths[0], 48*time.Hour)
	gcTestHookBeforeRemove = func(path string) { os.Remove(path) }
	defer func() { gcTestHookBeforeRemove = nil }()
	st, err := c.GC(24*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Removed != 0 || st.RemovedBytes != 0 {
		t.Fatalf("disappeared entry counted as removed: %+v", st)
	}
}

// TestGCConcurrentWithLoads hammers one cache directory with loads (each
// refreshing recency via Chtimes) racing aggressive GC sweeps; run under
// -race this pins the sweep's tolerance of concurrent refreshes and
// deletions. Loads may miss (GC evicts), but nothing may error.
func TestGCConcurrentWithLoads(t *testing.T) {
	c := open(t)
	const entries = 8
	storeN(t, c, entries)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.ProbeBenchmark(BenchmarkKey{"gc", i%entries + 1})
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		if _, err := c.GC(time.Nanosecond, 1); err != nil {
			t.Errorf("sweep %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestGCReapsStaleTemps(t *testing.T) {
	c := open(t)
	stale := filepath.Join(c.Dir(), ".tmp-stale")
	fresh := filepath.Join(c.Dir(), ".tmp-fresh")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	backdate(t, stale, 2*staleTempAge)
	st, err := c.GC(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.TempsRemoved != 1 {
		t.Fatalf("want 1 temp reaped, got %+v", st)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp survived")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("fresh temp (possibly a live writer) was reaped")
	}
}

func TestGCIgnoresForeignFiles(t *testing.T) {
	c := open(t)
	storeN(t, c, 1)
	foreign := filepath.Join(c.Dir(), "README.txt")
	if err := os.WriteFile(foreign, []byte("not a cache entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	backdate(t, foreign, 1000*time.Hour)
	st, err := c.GC(time.Hour, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scanned != 1 {
		t.Fatalf("foreign file scanned as entry: %+v", st)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatal("foreign file deleted")
	}
}
