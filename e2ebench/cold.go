package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"time"

	"plim"
)

// The serve-cold netlists: coldPIs inputs, coldBases shared random bodies of
// coldMinNodes to coldMaxNodes majority nodes, and per request a unique tail
// of coldTailNodes nodes plus coldPOs outputs, so every request is a
// function no cache tier has seen.
const (
	coldPIs       = 64
	coldPOs       = 32
	coldTailNodes = 8
	coldBases     = 16
	coldMinNodes  = 4000
	coldMaxNodes  = 8000
	coldWindow    = 128      // fan-ins come from the previous coldWindow signals
	coldRefs      = 4        // reference netlists compiled in set-up
	coldRefSeed   = -1       // seeds the reference netlists, apart from any run seed
	coldBudget    = 64 << 20 // in-memory cache budget per tier (plimserve -cache-budget)
)

// netBase is the shared body of a family of netlists: the .model, .pi and
// .maj lines, plain and JSON-escaped.
type netBase struct {
	text, esc []byte
	nodes     int
}

// newNetBase draws a random netlist body. Each majority node takes its
// fan-ins from the coldWindow signals before it, so nearly every node feeds
// a later one and stays live through cleanup. Fan-in triples never repeat:
// the reader hashes nodes structurally, and a repeated triple would merge
// into its twin and renumber every later node.
func newNetBase(seed int64, nodes int) netBase {
	rng := rand.New(rand.NewSource(seed))
	b := []byte(".model cold\n")
	for range coldPIs {
		b = append(b, ".pi\n"...)
	}
	seen := make(map[[3]int]bool, nodes)
	for k := range nodes {
		id := coldPIs + 1 + k
		var fanin [3]int // signal id × 2 + complement
		for {
			for j := range fanin {
				fanin[j] = 2*(id-1-rng.Intn(min(id-1, coldWindow))) + rng.Intn(3)/2
			}
			slices.Sort(fanin[:])
			if !seen[fanin] {
				break
			}
		}
		seen[fanin] = true
		b = append(b, ".maj"...)
		for _, f := range fanin {
			b = appendSignal(b, f/2, f%2 == 1)
		}
		b = append(b, '\n')
	}
	return netBase{text: b, esc: bytes.ReplaceAll(b, []byte("\n"), []byte(`\n`)), nodes: nodes}
}

func appendSignal(b []byte, id int, complemented bool) []byte {
	b = append(b, ' ')
	if complemented {
		b = append(b, '!')
	}
	return strconv.AppendInt(b, int64(id), 10)
}

// appendTail appends netlist i's unique tail to a base of the given size:
// coldTailNodes nodes over the base's top signals, the base's top nodes and
// the tail nodes as outputs, and .end. nl is the line separator ("\n", or
// `\n` inside a JSON string). Each tail node takes the node just before it
// as a fan-in, which no earlier node can, so no tail node repeats a triple.
func appendTail(b []byte, seed int64, i int, nodes int, nl string) []byte {
	top := coldPIs + 1 + nodes // id of the first tail node
	for t := range coldTailNodes {
		id := top + t
		w := splitmix(seed, uint64(i)<<3|uint64(t))
		b = append(b, ".maj"...)
		b = appendSignal(b, id-1, w&1 == 1)
		b = appendSignal(b, id-2-int(w>>8%63), w&2 == 2)
		b = appendSignal(b, id-2-int(w>>16%63), w&4 == 4)
		b = append(b, nl...)
	}
	for p := range coldPOs - coldTailNodes {
		b = fmt.Appendf(b, ".po %d%s", top-1-p, nl)
	}
	for t := range coldTailNodes {
		b = fmt.Appendf(b, ".po %d%s", top+t, nl)
	}
	return append(b, ".end"+nl...)
}

// coldTraffic is serve-cold: every request compiles, verifies and stores a
// netlist no cache tier holds.
type coldTraffic struct {
	seed    int64
	scratch string // parent of the persistent cache directories
	dir     string // the current server's persistent cache
	bases   []netBase
	refs    []netBase
	q       quality
}

// newColdTraffic draws the run's netlist bases from seed and the reference
// netlists from a fixed seed. Base sizes are evenly spread over the node
// range, so only the structure, not the total work, depends on the seed.
func newColdTraffic(seed int64, scratch string) *coldTraffic {
	t := &coldTraffic{seed: seed, scratch: scratch}
	size := func(k, n int) int { return coldMinNodes + (2*k+1)*(coldMaxNodes-coldMinNodes)/(2*n) }
	for k := range coldBases {
		t.bases = append(t.bases, newNetBase(seed*coldBases+int64(k), size(k, coldBases)))
	}
	for k := range coldRefs {
		t.refs = append(t.refs, newNetBase(coldRefSeed-int64(k), size(k, coldRefs)))
	}
	return t
}

// engine builds a server engine over a fresh persistent cache directory,
// deleting the previous server's.
func (t *coldTraffic) engine() (*plim.Engine, error) {
	if err := t.close(); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(t.scratch, "serve-cold-")
	if err != nil {
		return nil, err
	}
	t.dir = dir
	return plim.NewEngine(plim.WithWorkers(nproc), plim.WithPersistentCache(dir), plim.WithCacheBudget(coldBudget)), nil
}

func appendColdBody(buf []byte, base *netBase, seed int64, i int, traced bool) []byte {
	buf = append(buf, `{"config":"full","verify":true,`...)
	if traced {
		buf = append(buf, `"trace":true,`...)
	}
	buf = append(buf, `"netlist":"`...)
	buf = append(buf, base.esc...)
	buf = appendTail(buf, seed, i, base.nodes, `\n`)
	return append(buf, `"}`...)
}

// warm compiles the reference netlists, the source of the quality metrics.
func (t *coldTraffic) warm(w *serveWorkload) error {
	bodies := make([][]byte, len(t.refs))
	err := w.parallel(len(t.refs), func(s, k int) error {
		body, err := w.postOK(s, "/v1/compile", appendColdBody(nil, &t.refs[k], coldRefSeed, k, false))
		if err == nil {
			err = t.checkBody(body)
		}
		bodies[k] = bytes.Clone(body)
		return err
	})
	if err != nil {
		return fmt.Errorf("warm reference netlists: %w", err)
	}
	t.q = quality{}
	for _, body := range bodies {
		var st compileStats
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
		t.q.add("full", st.Instructions, st.RRAMs, st.Writes.StdDev, st.Writes.Max)
	}
	return nil
}

func (t *coldTraffic) request(i int, traced bool, buf []byte) (string, []byte, bool) {
	return "/v1/compile", appendColdBody(buf, &t.bases[i%coldBases], t.seed, i, traced), false
}

func (t *coldTraffic) check(_ int, body []byte) error { return t.checkBody(body) }

// checkBody demands a passing static verification whose write total
// matches the compile's own wear accounting.
func (t *coldTraffic) checkBody(body []byte) error {
	var st compileStats
	if err := json.Unmarshal(body, &st); err != nil {
		return err
	}
	switch v := st.Verification; {
	case v == nil:
		return fmt.Errorf("no verification block")
	case !v.OK:
		return fmt.Errorf("verification failed")
	case v.TotalWrites != st.Writes.Total:
		return fmt.Errorf("verification total_writes %d != writes.total %d", v.TotalWrites, st.Writes.Total)
	}
	return nil
}

// parseMS times plim.ReadMIG over n of the run's netlists from index first.
func (t *coldTraffic) parseMS(first, n int) (float64, error) {
	var total time.Duration
	var text []byte
	for i := first; i < first+n; i++ {
		base := &t.bases[i%coldBases]
		text = appendTail(append(text[:0], base.text...), t.seed, i, base.nodes, "\n")
		t0 := time.Now()
		_, err := plim.ReadMIG(bytes.NewReader(text))
		total += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("parse netlist %d: %w", i, err)
		}
	}
	return ms(total) / float64(max(n, 1)), nil
}

func (t *coldTraffic) verify(*serveWorkload) int { return 0 }
func (t *coldTraffic) quality() quality          { return t.q }

// close deletes the current persistent cache directory.
func (t *coldTraffic) close() error {
	if t.dir == "" {
		return nil
	}
	err := os.RemoveAll(t.dir)
	t.dir = ""
	return err
}
