package diskcache

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestEntryBytesPinned pins the exact bytes of one rewrite entry and two
// benchmark entries, one stored under a name that needs hex-escaping in its
// file name. A change to the layout must bump FormatVersion and re-pin.
func TestEntryBytesPinned(t *testing.T) {
	c := open(t)
	rw := testMIG("rt", 1)
	if err := c.StoreRewrite(rw.Fingerprint(), 2, 5, rw, testStats()); err != nil {
		t.Fatal(err)
	}
	if err := c.StoreBenchmark("ctrl", 2, testMIG("ctrl", 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.StoreBenchmark("w x", 3, testMIG("wx", 3)); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		fmt.Sprintf("rw-%016x-k2-e5.plimcache", rw.Fingerprint()): "3567eebff0738b751955b3af41906e57b54f9b36d5d902b06425fe4f5c78b0a4",
		"bench-ctrl-s2.plimcache":                                 "e99e7fa4c28d75881db6a645b11b4b36dfef53a4b9e462816b7037bdab9fb5b5",
		"bench-x772078-s3.plimcache":                              "b1aeeeeb35e687d6c79123a9f5a1231e6c655b2b1e975634a31280cc15ae1539",
	}
	entries, err := filepath.Glob(filepath.Join(c.Dir(), "*.plimcache"))
	if err != nil || len(entries) != len(want) {
		t.Fatalf("entries %v (%v), want %d", entries, err, len(want))
	}
	for name, sum := range want {
		data, err := os.ReadFile(filepath.Join(c.Dir(), name))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != sum {
			t.Errorf("%s: sha256 %s, want %s", name, got, sum)
		}
	}
}
