package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"plim"
)

// hotBenchmarks are serve-hot's benchmarks in Zipf rank order: a few small
// control circuits take most of the traffic, arithmetic ones the tail.
var hotBenchmarks = []string{"ctrl", "router", "cavlc", "int2float", "sin", "adder", "dec", "priority", "bar", "multiplier"}

// configNames are the five Table I policies as the server names them.
var configNames = []string{"naive", "compiler21", "minwrite", "rewriting", "full"}

// serveShrink is the datapath divisor of the serving workloads' engine.
const serveShrink = 2

// zipfCDF is the cumulative Zipf(1.1) distribution over hotBenchmarks.
var zipfCDF = func() []float64 {
	cdf := make([]float64, len(hotBenchmarks))
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -1.1)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}()

// hotSpec is one serve-hot request.
type hotSpec struct {
	execute bool
	sse     bool
	bench   int
	config  int
	vectors int   // execute: random vectors
	vseed   int64 // execute: vector seed
	packed  bool  // execute: packed output instead of strings
}

// hotSpecAt draws request i of the serve-hot mix: 45% compile, 45% execute
// (1024 or 4096 random vectors, seeds 1–4, strings:packed 3:1) and 10%
// either endpoint as a server-sent-event stream; benchmarks Zipf(1.1),
// configurations uniform.
func hotSpecAt(seed int64, i int) hotSpec {
	u := func(k uint64) float64 { return uniform(splitmix(seed, uint64(i)<<3|k)) }
	var s hotSpec
	switch x := u(0); {
	case x < 0.45:
	case x < 0.90:
		s.execute = true
	default:
		s.sse = true
		s.execute = u(1) < 0.5
	}
	s.bench = len(zipfCDF) - 1
	for k, c := range zipfCDF {
		if u(2) < c {
			s.bench = k
			break
		}
	}
	s.config = int(u(3) * float64(len(configNames)))
	if s.execute {
		s.vectors = 1024
		if u(4) < 0.5 {
			s.vectors = 4096
		}
		s.vseed = 1 + int64(u(5)*4)
		s.packed = u(6) < 0.25
	}
	return s
}

func (s hotSpec) appendBody(buf []byte, traced bool) []byte {
	buf = fmt.Appendf(buf, `{"benchmark":%q,"config":%q`, hotBenchmarks[s.bench], configNames[s.config])
	if s.execute {
		buf = fmt.Appendf(buf, `,"random":%d,"seed":%d`, s.vectors, s.vseed)
		if s.packed {
			buf = append(buf, `,"output":"packed"`...)
		}
	}
	if traced {
		buf = append(buf, `,"trace":true`...)
	}
	return append(buf, '}')
}

func (s hotSpec) path() string {
	if s.execute {
		return "/v1/execute"
	}
	return "/v1/compile"
}

// hotTraffic is serve-hot: a warm shared service answering compile and
// execute requests for a hot set of benchmarks.
type hotTraffic struct {
	seed   int64
	expect map[[3]int]*plim.Batch // (bench, vectors, vseed) → outputs by mig.Eval
	want   map[hotSpec]uint64     // compile request → body hash of the set-up response
	q      quality

	mu   sync.Mutex
	seen map[hotSpec]uint64 // execute request → body hash first seen
}

// newHotTraffic computes every execute request's expected outputs with
// mig.Eval on the generator's MIG, independent of the compiler under test.
func newHotTraffic(seed int64) (*hotTraffic, error) {
	t := &hotTraffic{seed: seed, expect: map[[3]int]*plim.Batch{}}
	for b, name := range hotBenchmarks {
		m, err := plim.BenchmarkScaled(name, serveShrink)
		if err != nil {
			return nil, err
		}
		for _, n := range []int{1024, 4096} {
			for vs := 1; vs <= 4; vs++ {
				in := plim.RandomBatch(m.NumPIs(), n, int64(vs))
				out := plim.NewBatch(m.NumPOs(), n)
				words := make([]uint64, m.NumPIs())
				for c := 0; c < in.Chunks(); c++ {
					for i := range words {
						words[i] = in.Word(i, c)
					}
					for po, w := range m.Eval(words) {
						out.SetWord(po, c, w)
					}
				}
				t.expect[[3]int{b, n, vs}] = out
			}
		}
	}
	return t, nil
}

func (t *hotTraffic) engine() (*plim.Engine, error) {
	return plim.NewEngine(plim.WithWorkers(nproc), plim.WithShrink(serveShrink)), nil
}

// compileStats is the part of a compile response the quality metrics read.
type compileStats struct {
	Instructions int `json:"instructions"`
	RRAMs        int `json:"rrams"`
	Writes       struct {
		Max    uint64  `json:"max"`
		StdDev float64 `json:"stdev"`
		Total  uint64  `json:"total"`
	} `json:"writes"`
	Verification *struct {
		OK          bool   `json:"ok"`
		TotalWrites uint64 `json:"total_writes"`
	} `json:"verification"`
}

// warm compiles the whole hot set (every benchmark under every policy),
// recording each body as the oracle for later warm compiles, and runs one
// small execute per program so execution plans are cached too.
func (t *hotTraffic) warm(w *serveWorkload) error {
	nc := len(configNames)
	n := len(hotBenchmarks) * nc
	bodies := make([][]byte, n)
	err := w.parallel(n, func(s, i int) error {
		spec := hotSpec{bench: i / nc, config: i % nc}
		body, err := w.postOK(s, spec.path(), spec.appendBody(nil, false))
		bodies[i] = slices.Clone(body)
		if err != nil {
			return err
		}
		exec := hotSpec{execute: true, bench: spec.bench, config: spec.config, vectors: 64, vseed: 1}
		_, err = w.postOK(s, exec.path(), exec.appendBody(nil, false))
		return err
	})
	if err != nil {
		return fmt.Errorf("warm hot set: %w", err)
	}
	t.want = make(map[hotSpec]uint64, n)
	t.seen = map[hotSpec]uint64{}
	t.q = quality{}
	for i, body := range bodies {
		spec := hotSpec{bench: i / nc, config: i % nc}
		t.want[spec] = maphash.Bytes(hashSeed, body)
		var st compileStats
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("warm %v: %w", spec, err)
		}
		t.q.add(configNames[spec.config], st.Instructions, st.RRAMs, st.Writes.StdDev, st.Writes.Max)
	}
	return nil
}

func (t *hotTraffic) request(i int, traced bool, buf []byte) (string, []byte, bool) {
	s := hotSpecAt(t.seed, i)
	return s.path(), s.appendBody(buf, traced), s.sse
}

// check holds warm compile bodies to the set-up response byte for byte, and
// every execute body to the first body seen for the same request; verify
// later checks that first body against mig.Eval.
func (t *hotTraffic) check(i int, body []byte) error {
	s := hotSpecAt(t.seed, i)
	s.sse = false
	h := maphash.Bytes(hashSeed, body)
	if !s.execute {
		if t.want[s] != h {
			return fmt.Errorf("compile %v: body differs from the set-up response", s)
		}
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if first, ok := t.seen[s]; ok && first != h {
		return fmt.Errorf("execute %v: body differs from an earlier identical request", s)
	} else if !ok {
		t.seen[s] = h
	}
	return nil
}

// verify re-sends one request per distinct execute seen during the run and
// checks its outputs against mig.Eval and its bytes against the run's.
func (t *hotTraffic) verify(w *serveWorkload) int {
	t.mu.Lock()
	specs := make([]hotSpec, 0, len(t.seen))
	for s := range t.seen {
		specs = append(specs, s)
	}
	t.mu.Unlock()
	var failed atomic.Int64
	_ = w.parallel(len(specs), func(snd, i int) error {
		s := specs[i]
		body, err := w.postOK(snd, s.path(), s.appendBody(nil, false))
		if err == nil && maphash.Bytes(hashSeed, body) != t.seen[s] {
			err = errors.New("body differs from the run's")
		}
		if err == nil {
			err = t.checkOutputs(s, body)
		}
		if err != nil {
			w.logf("verify execute %v: %v", s, err)
			failed.Add(1)
		}
		return nil
	})
	return int(failed.Load())
}

// checkOutputs compares an execute body's outputs with mig.Eval's.
func (t *hotTraffic) checkOutputs(s hotSpec, body []byte) error {
	var eb struct {
		Outputs       []string `json:"outputs"`
		OutputsPacked *struct {
			N     int    `json:"n"`
			Lines int    `json:"lines"`
			Words []byte `json:"words"`
		} `json:"outputs_packed"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		return err
	}
	want := t.expect[[3]int{s.bench, s.vectors, int(s.vseed)}]
	if !s.packed {
		if !slices.Equal(eb.Outputs, want.Strings()) {
			return errors.New("outputs differ from mig.Eval")
		}
		return nil
	}
	p := eb.OutputsPacked
	if p == nil || p.N != want.Len() || p.Lines != want.Lines() || len(p.Words) != 8*want.Lines()*want.Chunks() {
		return errors.New("packed outputs have the wrong shape")
	}
	k := 0
	for line := 0; line < want.Lines(); line++ {
		for c := 0; c < want.Chunks(); c++ {
			if binary.LittleEndian.Uint64(p.Words[k:])&want.ActiveMask(c) != want.Word(line, c) {
				return fmt.Errorf("packed output line %d chunk %d differs from mig.Eval", line, c)
			}
			k += 8
		}
	}
	return nil
}

func (t *hotTraffic) quality() quality { return t.q }
func (t *hotTraffic) close() error     { return nil }
