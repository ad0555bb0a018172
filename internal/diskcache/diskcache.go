// Package diskcache is the persistent second tier below the engine's
// in-memory caches: a content-addressed on-disk store for MIG rewrite
// results and benchmark generator output. Separate CLI invocations
// (plimtab, then plimc) start with cold processes but share a cache
// directory, so the second invocation skips every rewrite the first one
// already performed.
//
// Two entry kinds are stored, mirroring the in-memory tiers they back:
//
//   - rewrite results, keyed by (input-MIG fingerprint, rewrite kind,
//     effort) exactly like core.RewriteCache, holding the rewritten MIG in
//     the compact binary MIG encoding (mig.AppendBinary) plus its
//     rewrite.Stats;
//   - benchmark builds, keyed by (benchmark name, shrink) exactly like
//     suite.Cache, holding the generated MIG.
//
// Every entry is one file: a small text header (magic, format version, the
// full key, payload length and CRC-32) followed by the binary MIG payload.
// Writes go through a temp file in the cache directory and an atomic
// rename, so concurrent processes sharing a directory never observe a
// partially written entry and the last writer simply wins. Reads verify
// the header, the key, the payload length and the checksum; any mismatch —
// a corrupt file, a torn write left by a crash, an entry from an older
// format version — is treated as a cache miss, never as an error. A miss
// merely costs a recomputation, and the fresh store overwrites the bad
// entry.
//
// Invalidation is by construction: keys are content-addressed (a different
// input graph, algorithm or effort is a different file) and FormatVersion
// is bumped whenever the MIG encoding, the stats layout or the fingerprint
// function changes, which orphans every old entry at once.
package diskcache

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
	"unicode"

	"plim/internal/mig"
	"plim/internal/rewrite"
)

// FormatVersion is written into every entry header and checked on load.
// Bump it whenever the entry layout, the binary MIG encoding,
// rewrite.Stats or mig.Fingerprint changes incompatibly; all existing
// entries then read as misses and are rewritten on the next store.
//
// Version history: 1 = initial layout; 2 = entries additionally record the
// stored graph's own fingerprint (the "out" header line), enabling
// load-time re-verification under SetVerify; 3 = binary MIG payload
// (mig.AppendBinary) in place of .mig text.
const FormatVersion = 3

const magic = "plimcache"

// Entry kind tags inside the header.
const (
	kindRewrite   = "rewrite"
	kindBenchmark = "bench"
)

// ProbeOutcome classifies one disk probe for trace spans and metrics:
// ProbeVerifyMiss is the subset of misses where a structurally readable
// entry was rejected solely by SetVerify fingerprint re-verification.
// The cache keeps no counters of its own; memo.Cache counts each outcome
// where it labels the probe's span.
type ProbeOutcome uint8

// Probe outcomes.
const (
	ProbeMiss ProbeOutcome = iota
	ProbeHit
	ProbeVerifyMiss
)

// ErrNotStorable is returned by a store skipped because its graph cannot
// round-trip faithfully (see Storable). Nothing was written, and nothing
// failed: callers do not count it as a store error.
var ErrNotStorable = errors.New("diskcache: graph not storable")

// Cache is an open persistent cache directory. It is safe for concurrent
// use by multiple goroutines and by multiple processes sharing the same
// directory.
type Cache struct {
	dir string

	// verify arms load-time re-verification: a hit must also reproduce the
	// fingerprint recorded at store time (see SetVerify).
	verify atomic.Bool
}

// Open creates (if needed) and opens a cache directory. Stale temp files
// left behind by crashed writers are swept on open.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("diskcache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	sweepStaleTemps(dir)
	return &Cache{dir: dir}, nil
}

// staleTempAge is how old a .tmp-* file must be before Open reclaims it.
// Stores buffer the whole entry in memory first, so a healthy writer holds
// its temp file for milliseconds; an hour leaves a huge margin for slow
// filesystems while still bounding the garbage a crashy fleet can leave in
// a shared directory.
const staleTempAge = time.Hour

func sweepStaleTemps(dir string) {
	tmps, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-staleTempAge)
	for _, p := range tmps {
		if fi, err := os.Stat(p); err == nil && fi.Mode().IsRegular() && fi.ModTime().Before(cutoff) {
			os.Remove(p) // best-effort; a concurrent writer's rename already moved its file away
		}
	}
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// SetVerify toggles load-time re-verification (default off; plim.Engine
// arms it under WithVerify). Every entry records the fingerprint of the
// graph it stores; with verification on, a load additionally recomputes
// the parsed graph's fingerprint and treats any mismatch as a miss. The
// CRC already catches torn writes and random corruption; the fingerprint
// closes the residual gap — a corrupted-but-CRC-colliding payload, or an
// entry written by a build whose serialization drifted without a
// FormatVersion bump — so a verifying engine can never be served a graph
// that is not byte-for-byte the one that was stored.
func (c *Cache) SetVerify(enabled bool) { c.verify.Store(enabled) }

func rewritePath(dir string, fp uint64, kind uint8, effort int) string {
	return filepath.Join(dir, fmt.Sprintf("rw-%016x-k%d-e%d.plimcache", fp, kind, effort))
}

func benchPath(dir, name string, shrink int) string {
	return filepath.Join(dir, fmt.Sprintf("bench-%s-s%d.plimcache", sanitize(name), shrink))
}

// sanitize keeps benchmark-derived file names path-safe. Registry names
// are plain identifiers already; anything else is hex-escaped.
func sanitize(name string) string {
	ok := true
	for i := 0; i < len(name); i++ {
		ch := name[i]
		if !(ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z' || ch >= '0' && ch <= '9' || ch == '_' || ch == '-' || ch == '.') {
			ok = false
			break
		}
	}
	if ok && name != "" {
		return name
	}
	return fmt.Sprintf("x%x", name)
}

// Storable reports whether m round-trips faithfully through the MIG
// serializations, which a persisted entry must (a disk hit is
// contractually byte-identical to a fresh computation). Two properties
// are required:
//
//   - canonical numbering: both the binary payload and the .mig text
//     format put all PIs before any majority node, so a graph that
//     interleaves them would come back renumbered — structurally
//     equivalent but not fingerprint- or node-order-identical;
//   - token-safe names: the binary payload carries any name, but the .mig
//     text interchange format is line- and whitespace-delimited, where a
//     model/PI/PO name containing whitespace would be truncated (or, with
//     a newline, reparsed as a directive). Requiring them keeps every
//     cached graph exportable as .mig text unchanged.
//
// Both are only violable by hand-built MIGs — every generator, Cleanup and
// rewrite output is canonical with identifier-style names — and such
// graphs are simply not persisted.
func Storable(m *mig.MIG) bool {
	for i := 0; i < m.NumPIs(); i++ {
		if m.PINode(i) != mig.NodeID(i+1) {
			return false
		}
	}
	if !tokenSafe(m.Name) {
		return false
	}
	for i := 0; i < m.NumPIs(); i++ {
		if !tokenSafe(m.PIName(i)) {
			return false
		}
	}
	for i := 0; i < m.NumPOs(); i++ {
		if !tokenSafe(m.POName(i)) {
			return false
		}
	}
	return true
}

// tokenSafe reports whether a name survives the whitespace-delimited .mig
// text format unchanged ("" is fine: nameless pins serialize as bare
// directives).
func tokenSafe(name string) bool {
	return !strings.ContainsFunc(name, unicode.IsSpace)
}

// StoreRewrite persists a rewrite result under (fp, kind, effort). Graphs
// that cannot round-trip faithfully (see Storable) are skipped with
// ErrNotStorable. Stores are best-effort: the caller already holds the
// computed result.
func (c *Cache) StoreRewrite(fp uint64, kind uint8, effort int, m *mig.MIG, st rewrite.Stats) error {
	return c.store(rewritePath(c.dir, fp, kind, effort), kindRewrite, rewriteKey(fp, kind, effort), m,
		fmt.Sprintf(statsFormat, st.Cycles, st.NodesBefore, st.NodesAfter, st.DepthBefore, st.DepthAfter,
			st.CompHistBefore[0], st.CompHistBefore[1], st.CompHistBefore[2], st.CompHistBefore[3],
			st.CompHistAfter[0], st.CompHistAfter[1], st.CompHistAfter[2], st.CompHistAfter[3]))
}

// ProbeRewrite loads the rewrite result stored under (fp, kind, effort)
// and reports how the probe resolved; the graph is nil unless it hit. An
// entry whose stats line does not parse is a plain miss.
func (c *Cache) ProbeRewrite(fp uint64, kind uint8, effort int) (*mig.MIG, rewrite.Stats, ProbeOutcome) {
	var st rewrite.Stats
	m, extra, out := c.probe(rewritePath(c.dir, fp, kind, effort), kindRewrite, rewriteKey(fp, kind, effort), 1)
	if out == ProbeMiss {
		return nil, st, out
	}
	if _, err := fmt.Sscanf(extra[0], statsFormat,
		&st.Cycles, &st.NodesBefore, &st.NodesAfter, &st.DepthBefore, &st.DepthAfter,
		&st.CompHistBefore[0], &st.CompHistBefore[1], &st.CompHistBefore[2], &st.CompHistBefore[3],
		&st.CompHistAfter[0], &st.CompHistAfter[1], &st.CompHistAfter[2], &st.CompHistAfter[3]); err != nil {
		return nil, rewrite.Stats{}, ProbeMiss
	}
	return m, st, out
}

const statsFormat = "stats %d %d %d %d %d %d %d %d %d %d %d %d %d"

func rewriteKey(fp uint64, kind uint8, effort int) string {
	return fmt.Sprintf("key %016x %d %d", fp, kind, effort)
}

// StoreBenchmark persists a benchmark build under (name, shrink).
func (c *Cache) StoreBenchmark(name string, shrink int, m *mig.MIG) error {
	return c.store(benchPath(c.dir, name, shrink), kindBenchmark, benchKey(name, shrink), m)
}

// ProbeBenchmark loads the benchmark build stored under (name, shrink) and
// reports how the probe resolved.
func (c *Cache) ProbeBenchmark(name string, shrink int) (*mig.MIG, ProbeOutcome) {
	m, _, out := c.probe(benchPath(c.dir, name, shrink), kindBenchmark, benchKey(name, shrink), 0)
	return m, out
}

func benchKey(name string, shrink int) string { return fmt.Sprintf("key %q %d", name, shrink) }

// store writes one entry atomically: serialize into memory, write a temp
// file in the cache directory, rename over the final path. Concurrent
// writers race benignly (both write complete files; the last rename wins)
// and a crash mid-write leaves only a temp file or a truncated temp file,
// never a truncated entry under the final name. The header is the magic
// line, the key line, the stored graph's fingerprint ("out") and the
// kind's extra lines, then the payload's length and CRC-32.
func (c *Cache) store(path, entryKind, key string, m *mig.MIG, extra ...string) error {
	if !Storable(m) {
		return ErrNotStorable
	}
	payload := m.AppendBinary(nil)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s %d %s\n%s\nout %016x\n", magic, FormatVersion, entryKind, key, m.Fingerprint())
	for _, line := range extra {
		buf.WriteString(line)
		buf.WriteByte('\n')
	}
	fmt.Fprintf(&buf, "payload %d %08x\n", len(payload), crc32.ChecksumIEEE(payload))
	buf.Write(payload)

	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return fmt.Errorf("diskcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	return nil
}

// probe reads the entry at path and classifies it. A hit needs the magic
// line with this FormatVersion and entry kind, exactly the key line a
// store writes, an "out" line, exactly extra more header lines (returned
// for the caller to parse), a payload of the recorded length and checksum
// that decodes to a valid graph and — under SetVerify — reproduces the
// recorded fingerprint; a failed fingerprint alone is ProbeVerifyMiss, any
// other problem ProbeMiss. An intact file refreshes its modification time.
func (c *Cache) probe(path, entryKind, key string, extra int) (*mig.MIG, []string, ProbeOutcome) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, ProbeMiss
	}
	line, rest, found := bytes.Cut(data, []byte{'\n'})
	if !found {
		return nil, nil, ProbeMiss
	}
	var ver int
	var gotMagic, gotKind string
	if _, err := fmt.Sscanf(string(line), "%s %d %s", &gotMagic, &ver, &gotKind); err != nil ||
		gotMagic != magic || ver != FormatVersion || gotKind != entryKind {
		return nil, nil, ProbeMiss
	}
	var header []string
	for {
		line, rest, found = bytes.Cut(rest, []byte{'\n'})
		if !found {
			return nil, nil, ProbeMiss
		}
		if bytes.HasPrefix(line, []byte("payload ")) {
			break
		}
		header = append(header, string(line))
		if len(header) > 8 {
			return nil, nil, ProbeMiss // runaway header: not one of ours
		}
	}
	var n int
	var sum uint32
	if _, err := fmt.Sscanf(string(line), "payload %d %x", &n, &sum); err != nil ||
		len(rest) != n || crc32.ChecksumIEEE(rest) != sum {
		return nil, nil, ProbeMiss
	}
	// Mark the entry recently used so GC's oldest-first eviction
	// approximates LRU rather than FIFO. Best-effort: a concurrent writer
	// may just have renamed a fresh file over path, which only makes the
	// entry look even younger.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	if len(header) != 2+extra || header[0] != key {
		return nil, nil, ProbeMiss
	}
	var fp uint64
	if _, err := fmt.Sscanf(header[1], "out %x", &fp); err != nil {
		return nil, nil, ProbeMiss
	}
	m, err := mig.ReadBinary(rest)
	if err != nil || m.Validate() != nil {
		return nil, nil, ProbeMiss
	}
	if c.verify.Load() && m.Fingerprint() != fp {
		return nil, header[2:], ProbeVerifyMiss
	}
	return m, header[2:], ProbeHit
}
