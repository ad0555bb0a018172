// Package diskcache is the persistent second tier below the engine's
// in-memory caches: a content-addressed on-disk store for MIG rewrite
// results, benchmark generator output and compiled programs. Separate CLI
// invocations (plimtab, then plimc) start with cold processes but share a
// cache directory, so the second invocation skips every rewrite and every
// compilation the first one already performed.
//
// Three entry kinds are stored, one per in-memory cache they back. Each
// kind's key is declared here once, as a struct the in-memory cache keys
// on too, and a cache's tier is the pair of methods that load and store
// its kind:
//
//   - rewrite results, keyed by RewriteKey (input-MIG fingerprint, rewrite
//     kind, effort) for core.RewriteCache, holding the rewritten MIG in
//     the compact binary MIG encoding (mig.AppendBinary) plus its
//     rewrite.Stats (LoadRewrite, SaveRewrite);
//   - benchmark builds, keyed by BenchmarkKey (benchmark name, shrink) for
//     suite.Cache, holding the generated MIG (ProbeBenchmark,
//     SaveBenchmark);
//   - compiled programs, keyed by ProgramKey (rewritten-MIG fingerprint,
//     selection, allocator, write cap) for core.CompileCache, holding the
//     program's isa binary encoding, isa.Program.Binary (ProbeProgram,
//     StoreProgram).
//
// Every entry is one file, whose name its key renders: a small text header
// (magic, format version, the key line its key renders, the stored value's
// fingerprint, payload length and CRC-32) followed by the binary payload.
// Writes go through a temp file in the cache directory and an atomic
// rename, so concurrent processes sharing a directory never observe a
// partially written entry and the last writer simply wins. Reads verify
// the header, the key, the payload length and the checksum; any mismatch —
// a corrupt file, a torn write left by a crash, an entry from an older
// format version — is treated as a cache miss, never as an error. A miss
// merely costs a recomputation, and the fresh store overwrites the bad
// entry.
//
// A program payload is validated by its probe, in the one scan with which
// isa.DecodeBinary reads it into a program: the program keeps the payload
// as its encoding, with its per-cell write counts, and no instruction is
// decoded. A graph payload is not validated by its probe: the probe
// checks the payload's header (mig.BinaryRef) and returns a mig.Ref
// carrying the fingerprint the entry records, which decodes the graph
// when a caller first reads it. Either way the payload is read into an
// allocation of its own, so a cached value holds nothing else of the
// file. The tier thus trusts an intact entry to hold what was stored: the
// CRC guards the payload, and the recorded fingerprint is taken as it
// stands. SetVerify withdraws that trust: every probe then decodes its
// payload and re-hashes it against the recorded fingerprint.
//
// Invalidation is by construction: keys are content-addressed (a different
// input graph, algorithm or effort is a different file) and FormatVersion
// is bumped whenever the MIG or program encoding, the stats layout or a
// fingerprint function changes, which orphans every old entry at once.
package diskcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode"

	"plim/internal/isa"
	"plim/internal/mig"
	"plim/internal/rewrite"
)

// FormatVersion is written into every entry header and checked on load.
// Bump it whenever the entry layout, the binary MIG or program encoding,
// rewrite.Stats, mig.Fingerprint or isa.Program.Fingerprint changes
// incompatibly; all existing entries then read as misses and are
// rewritten on the next store.
//
// Version history: 1 = initial layout; 2 = entries additionally record the
// stored graph's own fingerprint (the "out" header line), enabling
// load-time re-verification under SetVerify; 3 = binary MIG payload
// (mig.AppendBinary) in place of .mig text. Program entries were added
// under version 3: a new kind leaves the layout of the others unchanged.
const FormatVersion = 3

const magic = "plimcache"

// Entry kind tags inside the header.
const (
	kindRewrite   = "rewrite"
	kindBenchmark = "bench"
	kindProgram   = "prog"
)

// versionTag opens every entry's first line, before the kind tag.
var versionTag = magic + " " + strconv.Itoa(FormatVersion) + " "

// ext is the file extension of every entry.
const ext = ".plimcache"

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
// Stores hold the whole entry in memory before they create it, so a
// healthy writer holds its temp file for milliseconds; an hour leaves a huge margin for slow
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
// graph or program it stores; with verification on, a load decodes its
// payload, graphs included, recomputes the decoded value's fingerprint
// and treats any mismatch as a miss. The CRC already catches torn writes
// and random corruption; the fingerprint closes the residual gap — a
// corrupted-but-CRC-colliding payload, or an entry written by a build
// whose serialization drifted without a FormatVersion bump — so a
// verifying engine can never be served a graph or program that is not the
// one that was stored.
func (c *Cache) SetVerify(enabled bool) { c.verify.Store(enabled) }

// RewriteKey is a rewrite entry's key and core.RewriteCache's: the input
// graph's fingerprint, the rewrite kind and the effort.
type RewriteKey struct {
	Graph  uint64
	Kind   uint8
	Effort int
}

// BenchmarkKey is a benchmark entry's key and suite.Cache's: the
// benchmark's name and its shrink factor.
type BenchmarkKey struct {
	Name   string
	Shrink int
}

// ProgramKey is a program entry's key and core.CompileCache's: the
// rewritten graph's fingerprint, the selection policy, the allocator and
// the write cap the program was compiled under.
type ProgramKey struct {
	Graph            uint64
	Selection, Alloc uint8
	MaxWrites        uint64
}

// Each key renders its entry's file in a cache directory (path) and the
// key line the entry's header records (line); a read accepts only the
// entry whose key line is the one of the key that named its file.

func (k RewriteKey) path(dir string) string {
	var buf [128]byte
	b := append(appendDir(buf[:0], dir), "rw-"...)
	b = appendHex(b, k.Graph, 16)
	b = strconv.AppendUint(append(b, "-k"...), uint64(k.Kind), 10)
	b = strconv.AppendInt(append(b, "-e"...), int64(k.Effort), 10)
	return string(append(b, ext...))
}

func (k RewriteKey) line(b []byte) []byte {
	b = appendHex(append(b, "key "...), k.Graph, 16)
	b = strconv.AppendUint(append(b, ' '), uint64(k.Kind), 10)
	return strconv.AppendInt(append(b, ' '), int64(k.Effort), 10)
}

func (k BenchmarkKey) path(dir string) string {
	var buf [128]byte
	b := append(appendDir(buf[:0], dir), "bench-"...)
	b = append(b, sanitize(k.Name)...)
	b = strconv.AppendInt(append(b, "-s"...), int64(k.Shrink), 10)
	return string(append(b, ext...))
}

func (k BenchmarkKey) line(b []byte) []byte {
	b = strconv.AppendQuote(append(b, "key "...), k.Name)
	return strconv.AppendInt(append(b, ' '), int64(k.Shrink), 10)
}

func (k ProgramKey) path(dir string) string {
	var buf [128]byte
	b := append(appendDir(buf[:0], dir), "prog-"...)
	b = appendHex(b, k.Graph, 16)
	b = strconv.AppendUint(append(b, "-s"...), uint64(k.Selection), 10)
	b = strconv.AppendUint(append(b, "-a"...), uint64(k.Alloc), 10)
	b = strconv.AppendUint(append(b, "-w"...), k.MaxWrites, 10)
	return string(append(b, ext...))
}

func (k ProgramKey) line(b []byte) []byte {
	b = appendHex(append(b, "key "...), k.Graph, 16)
	b = strconv.AppendUint(append(b, ' '), uint64(k.Selection), 10)
	b = strconv.AppendUint(append(b, ' '), uint64(k.Alloc), 10)
	return strconv.AppendUint(append(b, ' '), k.MaxWrites, 10)
}

func appendDir(b []byte, dir string) []byte {
	return append(append(b, dir...), filepath.Separator)
}

// appendHex appends v as exactly digits lowercase hex digits, the %0*x
// form the header and file names use.
func appendHex(b []byte, v uint64, digits int) []byte {
	for i := digits - 1; i >= 0; i-- {
		b = append(b, "0123456789abcdef"[v>>(4*uint(i))&0xf])
	}
	return b
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

// RewriteEntry is the content of a rewrite entry: the rewritten graph,
// whose handle carries its fingerprint, and its rewriting statistics.
type RewriteEntry struct {
	Graph *mig.Ref
	Stats rewrite.Stats
}

// StoreRewrite persists a rewrite result under RewriteKey{fp, kind,
// effort}; it is SaveRewrite with the graph's fingerprint computed here.
func (c *Cache) StoreRewrite(fp uint64, kind uint8, effort int, m *mig.MIG, st rewrite.Stats) error {
	return c.SaveRewrite(RewriteKey{fp, kind, effort}, RewriteEntry{mig.NewRef(m), st})
}

// SaveRewrite persists a rewrite entry under k, recording the fingerprint
// its graph's handle carries. Graphs that cannot round-trip faithfully
// (see Storable) are skipped with ErrNotStorable. Stores are best-effort:
// the caller already holds the computed result.
func (c *Cache) SaveRewrite(k RewriteKey, e RewriteEntry) error {
	var kb, sb [128]byte
	return c.storeGraph(k.path(c.dir), kindRewrite, k.line(kb[:0]), e.Graph, appendStats(sb[:0], &e.Stats))
}

// ProbeRewrite loads the rewrite result stored under RewriteKey{fp, kind,
// effort} and reports how the probe resolved; it is LoadRewrite with the
// graph decoded, so a payload that does not decode is a miss.
func (c *Cache) ProbeRewrite(fp uint64, kind uint8, effort int) (*mig.MIG, rewrite.Stats, ProbeOutcome) {
	e, out := c.LoadRewrite(RewriteKey{fp, kind, effort})
	if out != ProbeHit {
		return nil, rewrite.Stats{}, out
	}
	m, err := e.Graph.Graph(context.Background())
	if err != nil {
		return nil, rewrite.Stats{}, ProbeMiss
	}
	return m, e.Stats, ProbeHit
}

// LoadRewrite loads the rewrite entry stored under k and reports how the
// probe resolved; the entry is zero unless it hit. An entry whose stats
// line does not parse is a plain miss. The graph is read as graphRef
// reads it: undecoded, unless SetVerify is on.
func (c *Cache) LoadRewrite(k RewriteKey) (RewriteEntry, ProbeOutcome) {
	var kb [128]byte
	out, stats, payload, ok := read(k.path(c.dir), kindRewrite, k.line(kb[:0]), true)
	if !ok {
		return RewriteEntry{}, ProbeMiss
	}
	var e RewriteEntry
	if e.Stats, ok = parseStats(stats); !ok {
		return RewriteEntry{}, ProbeMiss
	}
	var res ProbeOutcome
	if e.Graph, res = c.graphRef(payload, out); res != ProbeHit {
		return RewriteEntry{}, res
	}
	return e, ProbeHit
}

// appendStats appends the stats line of a rewrite entry.
func appendStats(b []byte, st *rewrite.Stats) []byte {
	b = append(b, "stats"...)
	for _, v := range [...]int{st.Cycles, st.NodesBefore, st.NodesAfter, int(st.DepthBefore), int(st.DepthAfter),
		st.CompHistBefore[0], st.CompHistBefore[1], st.CompHistBefore[2], st.CompHistBefore[3],
		st.CompHistAfter[0], st.CompHistAfter[1], st.CompHistAfter[2], st.CompHistAfter[3]} {
		b = strconv.AppendInt(append(b, ' '), int64(v), 10)
	}
	return b
}

// parseStats parses a stats line written by appendStats: "stats" and
// thirteen integers, each after one space.
func parseStats(line []byte) (rewrite.Stats, bool) {
	var v [13]int
	rest, more := bytes.CutPrefix(line, []byte("stats "))
	for i := range v {
		var tok []byte
		if !more {
			return rewrite.Stats{}, false
		}
		tok, rest, more = bytes.Cut(rest, []byte{' '})
		n, err := strconv.Atoi(string(tok))
		if err != nil {
			return rewrite.Stats{}, false
		}
		v[i] = n
	}
	if more || v[3] != int(int32(v[3])) || v[4] != int(int32(v[4])) {
		return rewrite.Stats{}, false
	}
	return rewrite.Stats{
		Cycles: v[0], NodesBefore: v[1], NodesAfter: v[2], DepthBefore: int32(v[3]), DepthAfter: int32(v[4]),
		CompHistBefore: [4]int{v[5], v[6], v[7], v[8]},
		CompHistAfter:  [4]int{v[9], v[10], v[11], v[12]},
	}, true
}

// StoreBenchmark persists a benchmark build under BenchmarkKey{name,
// shrink}; it is SaveBenchmark with the graph's fingerprint computed here.
func (c *Cache) StoreBenchmark(name string, shrink int, m *mig.MIG) error {
	return c.SaveBenchmark(BenchmarkKey{name, shrink}, mig.NewRef(m))
}

// SaveBenchmark persists a benchmark build under k, recording the
// fingerprint its handle carries.
func (c *Cache) SaveBenchmark(k BenchmarkKey, r *mig.Ref) error {
	var kb [128]byte
	return c.storeGraph(k.path(c.dir), kindBenchmark, k.line(kb[:0]), r, nil)
}

// ProbeBenchmark loads the benchmark build stored under k and reports how
// the probe resolved. The graph is read as graphRef reads it: undecoded,
// unless SetVerify is on.
func (c *Cache) ProbeBenchmark(k BenchmarkKey) (*mig.Ref, ProbeOutcome) {
	var kb [128]byte
	out, _, payload, ok := read(k.path(c.dir), kindBenchmark, k.line(kb[:0]), false)
	if !ok {
		return nil, ProbeMiss
	}
	return c.graphRef(payload, out)
}

// storeGraph writes a graph entry: the graph r holds, its fingerprint and
// the kind's extra line. A graph that cannot round-trip faithfully is
// skipped with ErrNotStorable.
func (c *Cache) storeGraph(path, entryKind string, key []byte, r *mig.Ref, extra []byte) error {
	m, err := r.Graph(context.Background())
	if err != nil {
		return err
	}
	if !Storable(m) {
		return ErrNotStorable
	}
	return c.store(path, entryKind, key, r.Fingerprint(), extra, m.AppendBinary(nil))
}

// graphRef returns a handle on a MIG payload whose entry records
// fingerprint out. It reads only the payload's header (mig.BinaryRef) and
// takes the fingerprint from the entry; a payload the header check passes
// decodes on first use. Under SetVerify the payload is decoded and hashed
// here instead, and must reproduce out.
func (c *Cache) graphRef(payload []byte, out uint64) (*mig.Ref, ProbeOutcome) {
	r, err := mig.BinaryRef(payload, out)
	if err != nil {
		return nil, ProbeMiss
	}
	if c.verify.Load() {
		m, err := r.Graph(context.Background())
		if err != nil {
			return nil, ProbeMiss
		}
		if m.Fingerprint() != out {
			return nil, ProbeVerifyMiss
		}
	}
	return r, ProbeHit
}

// StoreProgram persists a compiled program entry under k: the program's
// encoding, recording its fingerprint.
func (c *Cache) StoreProgram(k ProgramKey, p *isa.Program) error {
	var kb [128]byte
	return c.store(k.path(c.dir), kindProgram, k.line(kb[:0]), p.Fingerprint(), nil, p.Binary())
}

// ProbeProgram loads the program entry stored under k and reports how the
// probe resolved; the program is nil unless it hit. A hit's payload is a
// valid encoding, read into a program by isa.DecodeBinary's one scan, which
// decodes no instruction; under SetVerify the program must also reproduce
// the recorded fingerprint, or the probe is a verify-miss.
func (c *Cache) ProbeProgram(k ProgramKey) (*isa.Program, ProbeOutcome) {
	var kb [128]byte
	out, _, payload, ok := read(k.path(c.dir), kindProgram, k.line(kb[:0]), false)
	if !ok {
		return nil, ProbeMiss
	}
	p, err := isa.DecodeBinary(payload)
	if err != nil {
		return nil, ProbeMiss
	}
	if c.verify.Load() && p.Fingerprint() != out {
		return nil, ProbeVerifyMiss
	}
	return p, ProbeHit
}

// store writes one entry atomically: write the header and the payload to
// a temp file in the cache directory, rename it over the final path.
// Concurrent writers race benignly (both write complete files; the last
// rename wins) and a crash mid-write leaves only a temp file or a
// truncated temp file, never a truncated entry under the final name. The
// header is the magic line, the key line, the stored value's fingerprint
// ("out"), the kind's extra line when it has one, then the payload's
// length and CRC-32.
func (c *Cache) store(path, entryKind string, key []byte, out uint64, extra, payload []byte) error {
	h := make([]byte, 0, 96+len(key)+len(extra))
	h = append(append(append(h, versionTag...), entryKind...), '\n')
	h = append(append(h, key...), "\nout "...)
	h = append(appendHex(h, out, 16), '\n')
	if extra != nil {
		h = append(append(h, extra...), '\n')
	}
	h = strconv.AppendInt(append(h, "payload "...), int64(len(payload)), 10)
	h = append(appendHex(append(h, ' '), uint64(crc32.ChecksumIEEE(payload)), 8), '\n')

	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(h); err != nil {
		tmp.Close()
		return fmt.Errorf("diskcache: %w", err)
	}
	if _, err := tmp.Write(payload); err != nil {
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

// maxHeader bounds an entry's header, the lines before its payload; the
// longest a store writes, a rewrite entry's, is under 400 bytes.
const maxHeader = 1024

// read reads the entry at path and checks its layout: the magic line with
// this FormatVersion and entry kind, exactly the key line a store writes,
// an "out" line, the kind's extra line when extra is set and nothing
// else, and a payload of the recorded length and checksum. It returns the
// recorded fingerprint, the extra line and the payload; ok is false on any
// mismatch. The payload is read into an allocation of its own, so a value
// that keeps it retains nothing else of the file. An intact file refreshes
// its modification time.
func read(path, entryKind string, key []byte, extra bool) (out uint64, extraLine, payload []byte, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, nil, false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, nil, nil, false
	}
	head := make([]byte, min(fi.Size(), maxHeader))
	if _, err := io.ReadFull(f, head); err != nil {
		return 0, nil, nil, false
	}
	line, rest, found := bytes.Cut(head, []byte{'\n'})
	if !found || len(line) != len(versionTag)+len(entryKind) ||
		string(line[:len(versionTag)]) != versionTag || string(line[len(versionTag):]) != entryKind {
		return 0, nil, nil, false
	}
	var header [3][]byte // key, out and at most one extra line
	n := 0
	for {
		line, rest, found = bytes.Cut(rest, []byte{'\n'})
		if !found {
			return 0, nil, nil, false
		}
		if bytes.HasPrefix(line, []byte("payload ")) {
			break
		}
		if n == len(header) {
			return 0, nil, nil, false // runaway header: not one of ours
		}
		header[n] = line
		n++
	}
	size, sum, found := bytes.Cut(line[len("payload "):], []byte{' '})
	length, err1 := strconv.ParseUint(string(size), 10, 64)
	crc, err2 := strconv.ParseUint(string(sum), 16, 32)
	if !found || err1 != nil || err2 != nil || uint64(fi.Size())-uint64(len(head)-len(rest)) != length {
		return 0, nil, nil, false
	}
	payload = make([]byte, length)
	if _, err := io.ReadFull(f, payload[copy(payload, rest):]); err != nil || uint64(crc32.ChecksumIEEE(payload)) != crc {
		return 0, nil, nil, false
	}
	// Mark the entry recently used so GC's oldest-first eviction
	// approximates LRU rather than FIFO. Best-effort: a concurrent writer
	// may just have renamed a fresh file over path, which only makes the
	// entry look even younger.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	want := 2
	if extra {
		want = 3
	}
	if n != want || !bytes.Equal(header[0], key) {
		return 0, nil, nil, false
	}
	hex, found := bytes.CutPrefix(header[1], []byte("out "))
	out, err = strconv.ParseUint(string(hex), 16, 64)
	if !found || err != nil {
		return 0, nil, nil, false
	}
	return out, header[2], payload, true
}
