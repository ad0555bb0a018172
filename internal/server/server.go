package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"plim"
	"plim/internal/core"
	"plim/internal/trace"
	"plim/internal/verify"
)

// Options configures a Server. The zero value derives everything from the
// engine: a wait queue of 4 × its workers, a 60 s default request deadline
// capped at 10 min. Request bodies are capped at maxBodyBytes.
//
// The engine's worker count (WithWorkers) is the number of in-flight
// computations regarded as running. Flights submit task graphs to the
// engine's shared scheduler, which owns the actual CPU parallelism; the
// worker count only anchors the running/queued gauge split and the
// Retry-After fallback.
type Options struct {
	// QueueDepth bounds how many computations beyond the engine's workers
	// may be in flight at once (default 4 × workers). Beyond workers +
	// QueueDepth requests are answered 429 immediately.
	QueueDepth int
	// DefaultTimeout is the per-request deadline applied when a request
	// names none (default 60 s; negative = no default deadline).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (default 10 min).
	MaxTimeout time.Duration
	// Logger receives structured access and flight logs (default: discard).
	// Access lines log every request with route/status/duration; flight
	// lines are keyed by the flight's coalescing key, so the lifecycle of a
	// computation shared by many requests reads as one story.
	Logger *slog.Logger
}

func (o Options) withDefaults(eng *plim.Engine) Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * eng.Workers()
	}
	if o.DefaultTimeout == 0 {
		o.DefaultTimeout = 60 * time.Second
	}
	if o.MaxTimeout == 0 {
		o.MaxTimeout = 10 * time.Minute
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return o
}

// statusClientClosed is the non-standard code (nginx convention) recorded
// when a client disconnects before its response exists.
const statusClientClosed = 499

// maxBodyBytes bounds buffered request bodies; netlists beyond it are
// rejected with 400.
const maxBodyBytes = 8 << 20

// Server serves one shared plim.Engine over HTTP. It implements
// http.Handler; see the package comment for the endpoint list and the
// serving machinery.
type Server struct {
	eng      *plim.Engine
	opts     Options
	mux      *http.ServeMux
	adm      *admission
	flights  *flightGroup
	met      *metrics
	log      *slog.Logger
	traces   *traceRing
	draining atomic.Bool
}

// New builds a Server over eng. The engine must be valid (an engine
// carrying a construction error answers every request 500).
func New(eng *plim.Engine, opts Options) *Server {
	opts = opts.withDefaults(eng)
	s := &Server{
		eng:     eng,
		opts:    opts,
		mux:     http.NewServeMux(),
		adm:     newAdmission(eng.Workers(), opts.QueueDepth),
		flights: newFlightGroup(),
		met:     newMetrics(),
		log:     opts.Logger,
		traces:  &traceRing{},
	}
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /v1/benchmarks", s.instrument("benchmarks", s.handleBenchmarks))
	s.mux.HandleFunc("POST /v1/compile", s.instrument("compile", s.handleCompile))
	s.mux.HandleFunc("POST /v1/execute", s.instrument("execute", s.handleExecute))
	s.mux.HandleFunc("POST /v1/rewrite", s.instrument("rewrite", s.handleRewrite))
	s.mux.HandleFunc("POST /v1/suite", s.instrument("suite", s.handleSuite))
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SetDraining flips the health endpoint to 503 so load balancers stop
// routing new traffic while in-flight requests finish (cmd/plimserve sets
// it on SIGTERM before calling http.Server.Shutdown).
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// statusRecorder captures the response code for metrics while forwarding
// Flush, which the SSE path requires.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Unwrap exposes the wrapped writer so flusherOf (and
// http.ResponseController) can find the real Flusher. statusRecorder
// deliberately does not implement Flush itself: claiming the interface
// unconditionally would make the SSE path believe every writer can stream.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// flusherOf finds the genuine http.Flusher behind any chain of wrappers
// exposing Unwrap.
func flusherOf(w http.ResponseWriter) (http.Flusher, bool) {
	for {
		if f, ok := w.(http.Flusher); ok {
			return f, true
		}
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok {
			return nil, false
		}
		w = u.Unwrap()
	}
}

func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	// Probe routes (health checks, scrapes) log at debug so an idle but
	// monitored server stays quiet at the default info level.
	level := slog.LevelInfo
	if route == "healthz" || route == "metrics" {
		level = slog.LevelDebug
	}
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		h(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		elapsed := time.Since(start)
		s.met.observeRequest(route, rec.status, elapsed)
		s.log.LogAttrs(r.Context(), level, "request",
			slog.String("route", route),
			slog.String("method", r.Method),
			slog.Int("status", rec.status),
			slog.Duration("elapsed", elapsed),
			slog.String("remote", r.RemoteAddr))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, s.met.render(s))
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	names := plim.Benchmarks()
	out := make([]benchmarkJSON, 0, len(names))
	for _, n := range names {
		info, _ := plim.LookupBenchmark(n)
		out = append(out, benchmarkJSON{Name: n, PI: info.PI, PO: info.PO, Synthetic: info.Synthetic})
	}
	writeJSON(w, http.StatusOK, out)
}

// badRequest is a request-validation failure answered before any
// computation is planned.
type badRequest struct{ msg string }

func (e badRequest) Error() string { return e.msg }

func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (computeRequest, error) {
	var req computeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		if errors.Is(err, io.EOF) {
			return req, nil // empty body: all defaults
		}
		return req, badRequest{fmt.Sprintf("invalid request body: %s", err)}
	}
	return req, req.validate()
}

// validate checks the fields every compute request shares, whether it
// arrives as a JSON body or as the first line of an NDJSON execute stream.
func (req computeRequest) validate() error {
	switch {
	case req.TimeoutMS < 0:
		return badRequest{"timeout_ms must be ≥ 0"}
	case req.Shrink < 0:
		return badRequest{"shrink must be ≥ 1 (or 0 for the server default)"}
	}
	return nil
}

// sourceMIG resolves the request's function source. Benchmark sources
// return a loader (so cache-served flights never build eagerly); netlist
// sources parse immediately — the fingerprint is the coalescing key.
func (s *Server) sourceMIG(req computeRequest) (key string, shrink int, load func(ctx context.Context) (*plim.MIG, error), err error) {
	shrink = req.Shrink
	if shrink == 0 {
		shrink = s.eng.Shrink()
	}
	switch {
	case req.Benchmark != "" && req.Netlist != "":
		return "", 0, nil, badRequest{"set either benchmark or netlist, not both"}
	case req.Benchmark != "":
		if _, ok := plim.LookupBenchmark(req.Benchmark); !ok {
			return "", 0, nil, badRequest{fmt.Sprintf("unknown benchmark %q", req.Benchmark)}
		}
		name := req.Benchmark
		return fmt.Sprintf("bench:%s@%d", name, shrink), shrink,
			func(ctx context.Context) (*plim.MIG, error) { return s.eng.Benchmark(ctx, name, shrink) }, nil
	case req.Netlist != "":
		if req.Shrink != 0 {
			return "", 0, nil, badRequest{"shrink applies to benchmark sources only"}
		}
		m, err := plim.ReadMIG(strings.NewReader(req.Netlist))
		if err != nil {
			return "", 0, nil, badRequest{fmt.Sprintf("invalid netlist: %s", err)}
		}
		return fmt.Sprintf("mig:%016x", m.Fingerprint()), 0,
			func(context.Context) (*plim.MIG, error) { return m, nil }, nil
	}
	return "", 0, nil, badRequest{"need benchmark or netlist"}
}

// parseConfig is core.ParseConfig with its error as a bad request.
func parseConfig(name string, cap uint64) (plim.Config, error) {
	cfg, err := core.ParseConfig(name, cap)
	if err != nil {
		return cfg, badRequest{err.Error()}
	}
	return cfg, nil
}

func parseKind(kind string) (plim.RewriteKind, error) {
	switch kind {
	case "none":
		return plim.RewriteNone, nil
	case "alg1", "algorithm1":
		return plim.RewriteAlgorithm1, nil
	case "alg2", "algorithm2", "":
		return plim.RewriteAlgorithm2, nil
	}
	return 0, badRequest{fmt.Sprintf("unknown rewrite kind %q (want none, alg1 or alg2)", kind)}
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeRequest(w, r)
	if err == nil && req.Emit != "" && req.Emit != "asm" && req.Emit != "binary" {
		err = badRequest{fmt.Sprintf("unknown emit %q (want asm or binary)", req.Emit)}
	}
	var cfg plim.Config
	if err == nil {
		cfg, err = parseConfig(req.Config, req.Cap)
	}
	var srcKey string
	var shrink int
	var load func(ctx context.Context) (*plim.MIG, error)
	if err == nil {
		srcKey, shrink, load, err = s.sourceMIG(req)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	// The cost model name joins the key: responses embed priced totals, so
	// requests served by engines priced differently must never coalesce.
	key := fmt.Sprintf("compile|%s|%s|%s|verify=%t|cm=%s|trace=%t", srcKey, cfg.Name, req.Emit, req.Verify, s.eng.CostModelName(), req.Trace)
	s.dispatch(w, r, req.TimeoutMS, key, req.Trace, func(ctx context.Context, publish func(plim.Event)) response {
		m, err := load(ctx)
		if err != nil {
			return errorResult(err)
		}
		rep, err := s.eng.Run(plim.ContextWithProgress(ctx, publish), m, cfg)
		if err != nil {
			return errorResult(err)
		}
		// The tail — verify, program emission, JSON encoding — is wall time
		// too; the span keeps traced flights accounted end to end.
		esp := trace.StartNoCtx(ctx, "encode", "response")
		defer esp.End()
		out := compileResponse{
			Function:     m.Name,
			Config:       cfg.Name,
			Shrink:       shrink,
			Effort:       s.eng.Effort(),
			Rewrite:      rewriteStats(rep.Rewrite),
			Instructions: rep.NumInstructions(),
			RRAMs:        rep.NumRRAMs(),
			Writes:       summarizeWrites(rep.Writes),
			Lifetime1e10: rep.Lifetime(1e10),
			Cost:         rep.Cost,
		}
		if req.Verify {
			vr := rep.Verify // already computed when the engine runs WithVerify
			if vr == nil {
				vr = plim.Verify(rep.Result.Program, plim.VerifyOptions{MaxWrites: cfg.MaxWrites})
				verify.CheckWriteParity(vr, rep.Result.WriteCounts, "allocator")
			}
			out.Verification = verifyReport(vr)
		}
		switch req.Emit {
		case "asm":
			var b bytes.Buffer
			if err := rep.Result.Program.WriteAsm(&b); err != nil {
				return errorResult(err)
			}
			out.ProgramAsm = b.String()
		case "binary":
			var b bytes.Buffer
			if err := rep.Result.Program.WriteBinary(&b); err != nil {
				return errorResult(err)
			}
			out.ProgramBinary = b.Bytes()
		}
		return jsonResult(http.StatusOK, out)
	})
}

// maxExecuteVectors bounds one /v1/execute batch (explicit, random or
// exhaustive): 2^20 vectors keep the packed state of even wide programs in
// the tens of megabytes.
const maxExecuteVectors = 1 << 20

// maxBatchWords bounds the packed words one execution sizes from request
// data: (input lines + output lines) × max(1, ⌈n/64⌉). The widest built-in
// benchmark, mem_ctrl (1204 PIs + 1231 POs), needs 39,895,040 words for
// maxExecuteVectors vectors.
const maxBatchWords = 1 << 26

// checkBatchWords rejects a batch of n vectors over lines lines whose
// packed words would exceed maxBatchWords.
func checkBatchWords(lines, n int) error {
	if lines > maxBatchWords/max(1, (n+63)/64) {
		return badRequest{fmt.Sprintf("batch too large: %d lines × %d vectors exceed %d packed words", lines, n, maxBatchWords)}
	}
	return nil
}

// unpackVectors decodes the bit-sliced wire form into a batch. Inactive
// lanes are masked off (SetWord), so equal vector sets coalesce regardless
// of junk beyond N. An empty batch executes nothing and is refused: with
// n ≥ 1 the words-length check ties lines to the body size, with n = 0 it
// would not, and the batch still holds a slice header per line.
func unpackVectors(pv *packedVectors) (*plim.Batch, error) {
	if pv.Lines <= 0 || pv.N < 1 || pv.N > maxExecuteVectors {
		return nil, badRequest{fmt.Sprintf("vectors_packed: need 1 ≤ lines and 1 ≤ n ≤ %d", maxExecuteVectors)}
	}
	if err := checkBatchWords(pv.Lines, pv.N); err != nil {
		return nil, err
	}
	chunks := (pv.N + 63) / 64
	if want := pv.Lines * chunks * 8; len(pv.Words) != want {
		return nil, badRequest{fmt.Sprintf("vectors_packed.words: got %d bytes, want %d (lines × ⌈n/64⌉ × 8)", len(pv.Words), want)}
	}
	b := plim.NewBatch(pv.Lines, pv.N)
	k := 0
	for i := 0; i < pv.Lines; i++ {
		for c := 0; c < chunks; c++ {
			b.SetWord(i, c, binary.LittleEndian.Uint64(pv.Words[k:]))
			k += 8
		}
	}
	return b, nil
}

// packVectors is the inverse wire encoding, used for "output": "packed".
func packVectors(b *plim.Batch) *packedVectors {
	words := make([]byte, b.Lines()*b.Chunks()*8)
	k := 0
	for i := 0; i < b.Lines(); i++ {
		for c := 0; c < b.Chunks(); c++ {
			binary.LittleEndian.PutUint64(words[k:], b.Word(i, c))
			k += 8
		}
	}
	return &packedVectors{N: b.Len(), Lines: b.Lines(), Words: words}
}

// decoded is the batch constructor of vectors the request carried: the
// input batch exists already; the program's widths bound the output batch.
func decoded(b *plim.Batch) func(pis, pos int) (*plim.Batch, error) {
	return func(pis, pos int) (*plim.Batch, error) {
		if err := checkBatchWords(pis+pos, b.Len()); err != nil {
			return nil, err
		}
		return b, nil
	}
}

// vectorSource resolves the request's input vectors into a coalescing key
// component and a constructor. Explicit vectors pack (and content-hash)
// immediately; random and exhaustive batches are generated inside the
// flight, once the program's input count is known. The constructor takes
// the program's input and output counts and refuses a batch beyond
// maxBatchWords.
func vectorSource(req computeRequest) (key string, mk func(pis, pos int) (*plim.Batch, error), err error) {
	sources := 0
	for _, set := range []bool{len(req.Vectors) > 0, req.VectorsPacked != nil, req.Random != 0, req.Exhaustive} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return "", nil, badRequest{"set exactly one of vectors, vectors_packed, random, exhaustive"}
	}
	if req.Seed != 0 && req.Random == 0 {
		return "", nil, badRequest{"seed applies to random vectors only"}
	}
	switch {
	case len(req.Vectors) > 0:
		if len(req.Vectors) > maxExecuteVectors {
			return "", nil, badRequest{fmt.Sprintf("at most %d vectors per request", maxExecuteVectors)}
		}
		b, err := plim.PackBatchStrings(req.Vectors)
		if err != nil {
			return "", nil, badRequest{fmt.Sprintf("invalid vectors: %s", err)}
		}
		return fmt.Sprintf("v:%016x", b.Hash()), decoded(b), nil
	case req.VectorsPacked != nil:
		b, err := unpackVectors(req.VectorsPacked)
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("v:%016x", b.Hash()), decoded(b), nil
	case req.Random != 0:
		if req.Random < 0 || req.Random > maxExecuteVectors {
			return "", nil, badRequest{fmt.Sprintf("random must be between 1 and %d", maxExecuteVectors)}
		}
		n, seed := req.Random, req.Seed
		return fmt.Sprintf("rand:%d:%d", n, seed), func(pis, pos int) (*plim.Batch, error) {
			if err := checkBatchWords(pis+pos, n); err != nil {
				return nil, err
			}
			return plim.RandomBatch(pis, n, seed), nil
		}, nil
	default: // exhaustive
		return "exh", func(pis, pos int) (*plim.Batch, error) {
			if pis > 20 { // 2^20 = maxExecuteVectors
				return nil, badRequest{fmt.Sprintf("exhaustive execution needs ≤ 20 inputs, program has %d", pis)}
			}
			if err := checkBatchWords(pis+pos, 1<<pis); err != nil {
				return nil, err
			}
			return plim.ExhaustiveBatch(pis)
		}, nil
	}
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/x-ndjson") {
		s.handleExecuteStream(w, r)
		return
	}
	req, err := s.decodeRequest(w, r)
	if err == nil {
		err = validateExecute(req)
	}
	var cfg plim.Config
	if err == nil {
		cfg, err = parseConfig(req.Config, req.Cap)
	}
	var vecKey string
	var mkBatch func(pis, pos int) (*plim.Batch, error)
	if err == nil {
		vecKey, mkBatch, err = vectorSource(req)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	s.dispatchExecute(w, r, req, cfg, vecKey, mkBatch)
}

// validateExecute checks the execute-only request fields shared by the JSON
// and NDJSON input forms.
func validateExecute(req computeRequest) error {
	if req.Output != "" && req.Output != "strings" && req.Output != "packed" {
		return badRequest{fmt.Sprintf("unknown output %q (want strings or packed)", req.Output)}
	}
	return nil
}

// handleExecuteStream is the streaming input form of /v1/execute
// (Content-Type: application/x-ndjson): the first line is the JSON request
// — without a vector source, and with vectors following as one raw "0101"
// line each. Vectors are packed into 64-lane chunks as they arrive, so the
// body is never buffered whole; it bypasses the maxBodyBytes cap and is
// bounded by the vector cap times the width fixed by the first vector.
// The packed batch content-hashes into the same coalescing key as the
// buffered forms, so a streamed request coalesces with (and answers
// byte-identically to) an equivalent JSON one.
func (s *Server) handleExecuteStream(w http.ResponseWriter, r *http.Request) {
	fail := func(msg string) { writeJSON(w, http.StatusBadRequest, errorResponse{Error: msg}) }
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			fail(fmt.Sprintf("reading request line: %s", err))
		} else {
			fail("ndjson body: missing request line")
		}
		return
	}
	var req computeRequest
	dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		fail(fmt.Sprintf("invalid request line: %s", err))
		return
	}
	err := req.validate()
	if err == nil && (len(req.Vectors) > 0 || req.VectorsPacked != nil || req.Random != 0 || req.Seed != 0 || req.Exhaustive) {
		err = badRequest{"ndjson execute: vectors are the body lines; remove the vector-source fields"}
	}
	if err == nil {
		err = validateExecute(req)
	}
	var cfg plim.Config
	if err == nil {
		cfg, err = parseConfig(req.Config, req.Cap)
	}
	if err != nil {
		fail(err.Error())
		return
	}
	b := plim.NewBatch(0, 0)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue // tolerate blank lines and trailing newlines
		}
		if b.Len() >= maxExecuteVectors {
			fail(fmt.Sprintf("at most %d vectors per request", maxExecuteVectors))
			return
		}
		if err := b.AppendString(line); err != nil {
			fail(fmt.Sprintf("invalid vector: %s", err))
			return
		}
	}
	if err := sc.Err(); err != nil {
		fail(fmt.Sprintf("reading vectors: %s", err))
		return
	}
	if b.Len() == 0 {
		fail("ndjson body carries no vectors")
		return
	}
	vecKey := fmt.Sprintf("v:%016x", b.Hash())
	s.dispatchExecute(w, r, req, cfg, vecKey, decoded(b))
}

// dispatchExecute is the request path shared by the JSON and NDJSON input
// forms of /v1/execute, from function-source resolution onward.
func (s *Server) dispatchExecute(w http.ResponseWriter, r *http.Request, req computeRequest, cfg plim.Config, vecKey string, mkBatch func(pis, pos int) (*plim.Batch, error)) {
	srcKey, shrink, load, err := s.sourceMIG(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	key := fmt.Sprintf("execute|%s|%s|e%d|%s|%s|cm=%s|trace=%t", srcKey, cfg.Name, req.Endurance, vecKey, req.Output, s.eng.CostModelName(), req.Trace)
	endurance, packedOut := req.Endurance, req.Output == "packed"
	s.dispatch(w, r, req.TimeoutMS, key, req.Trace, func(ctx context.Context, publish func(plim.Event)) response {
		m, err := load(ctx)
		if err != nil {
			return errorResult(err)
		}
		pctx := plim.ContextWithProgress(ctx, publish)
		rep, err := s.eng.Run(pctx, m, cfg)
		if err != nil {
			return errorResult(err)
		}
		p := rep.Result.Program
		// Random and exhaustive batches are generated here, once the
		// program's input count is known: the span accounts for that time.
		vsp := trace.StartNoCtx(ctx, "generate", "vectors")
		b, err := mkBatch(p.NumPIs(), p.NumPOs())
		vsp.End()
		if err != nil {
			var br badRequest
			if errors.As(err, &br) {
				return response{status: http.StatusBadRequest, body: mustJSON(errorResponse{Error: br.msg})}
			}
			return errorResult(err)
		}
		res, err := s.eng.ExecuteBatch(pctx, p, b, plim.ExecOptions{Endurance: endurance})
		var fault *plim.ExecFaultError
		if err != nil && !errors.As(err, &fault) {
			return errorResult(err)
		}
		esp := trace.StartNoCtx(ctx, "encode", "response")
		defer esp.End()
		out := executeResponse{
			Function:     m.Name,
			Config:       cfg.Name,
			Shrink:       shrink,
			Fingerprint:  fmt.Sprintf("%016x", p.Fingerprint()),
			Instructions: p.NumInstructions(),
			RRAMs:        int(p.NumCells()),
			Vectors:      b.Len(),
			Chunks:       b.Chunks(),
			Writes:       summarizeWrites(plim.SummarizeWrites(res.Writes)),
			Switches:     total(res.Switches),
			Cost:         res.Cost,
		}
		switch {
		case fault != nil:
			out.Fault = &executeFaultJSON{Inst: fault.Inst, Error: fault.Error()}
		case packedOut:
			out.OutputsPack = packVectors(res.Outputs)
		default:
			out.Outputs = res.Outputs.Strings()
		}
		return jsonResult(http.StatusOK, out)
	})
}

// total sums a per-cell counter vector.
func total(counts []uint64) uint64 {
	var t uint64
	for _, c := range counts {
		t += c
	}
	return t
}

func (s *Server) handleRewrite(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeRequest(w, r)
	var kind plim.RewriteKind
	if err == nil {
		kind, err = parseKind(req.Kind)
	}
	var srcKey string
	var shrink int
	var load func(ctx context.Context) (*plim.MIG, error)
	if err == nil {
		srcKey, shrink, load, err = s.sourceMIG(req)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	key := fmt.Sprintf("rewrite|%s|%s|trace=%t", srcKey, kind, req.Trace)
	s.dispatch(w, r, req.TimeoutMS, key, req.Trace, func(ctx context.Context, publish func(plim.Event)) response {
		m, err := load(ctx)
		if err != nil {
			return errorResult(err)
		}
		out, st, err := s.eng.Rewrite(plim.ContextWithProgress(ctx, publish), m, kind)
		if err != nil {
			return errorResult(err)
		}
		esp := trace.StartNoCtx(ctx, "encode", "response")
		defer esp.End()
		var mig bytes.Buffer
		if err := out.Write(&mig); err != nil {
			return errorResult(err)
		}
		return jsonResult(http.StatusOK, rewriteResponse{
			Function: m.Name,
			Kind:     kind.String(),
			Effort:   s.eng.Effort(),
			Shrink:   shrink,
			Stats:    rewriteStats(st),
			MIG:      mig.String(),
		})
	})
}

func (s *Server) handleSuite(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeRequest(w, r)
	if err == nil {
		switch {
		case req.Benchmark != "" || req.Netlist != "":
			err = badRequest{"suite requests take a benchmarks list, not benchmark/netlist"}
		case req.Shrink != 0 && req.Shrink != s.eng.Shrink():
			err = badRequest{fmt.Sprintf("suite runs at the server's shrink (%d)", s.eng.Shrink())}
		}
	}
	if err == nil {
		for _, b := range req.Benchmarks {
			if _, ok := plim.LookupBenchmark(b); !ok {
				err = badRequest{fmt.Sprintf("unknown benchmark %q", b)}
				break
			}
		}
	}
	var cfgs []plim.Config
	if err == nil {
		if len(req.Configs) == 0 {
			cfgs = plim.TableIConfigs()
		} else {
			cfgs = make([]plim.Config, len(req.Configs))
			for i, name := range req.Configs {
				if cfgs[i], err = parseConfig(name, 0); err != nil {
					break
				}
			}
		}
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	cfgNames := make([]string, len(cfgs))
	for i, c := range cfgs {
		cfgNames[i] = c.Name
	}
	key := fmt.Sprintf("suite|%s|%s|cm=%s|trace=%t", strings.Join(req.Benchmarks, ","), strings.Join(cfgNames, ","), s.eng.CostModelName(), req.Trace)
	benchmarks := req.Benchmarks
	s.dispatch(w, r, req.TimeoutMS, key, req.Trace, func(ctx context.Context, publish func(plim.Event)) response {
		sr, err := s.eng.RunSuite(plim.ContextWithProgress(ctx, publish), cfgs, benchmarks...)
		if err != nil {
			return errorResult(err)
		}
		esp := trace.StartNoCtx(ctx, "encode", "response")
		defer esp.End()
		out := suiteResponse{
			Shrink:  s.eng.Shrink(),
			Effort:  s.eng.Effort(),
			Configs: cfgNames,
		}
		for _, info := range sr.Benchmarks {
			out.Benchmarks = append(out.Benchmarks, benchmarkJSON{
				Name: info.Name, PI: info.PI, PO: info.PO, Synthetic: info.Synthetic,
			})
		}
		out.Reports = make([][]suiteReportJSON, len(sr.Reports))
		for b, row := range sr.Reports {
			out.Reports[b] = make([]suiteReportJSON, len(row))
			for c, rep := range row {
				out.Reports[b][c] = suiteReportJSON{
					Instructions: rep.NumInstructions(),
					RRAMs:        rep.NumRRAMs(),
					Writes:       summarizeWrites(rep.Writes),
					Rewrite:      rewriteStats(rep.Rewrite),
					Cost:         rep.Cost,
				}
			}
		}
		return jsonResult(http.StatusOK, out)
	})
}

// effectiveTimeout maps a request's timeout_ms onto the server's policy.
func (s *Server) effectiveTimeout(ms int64) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if ms == 0 {
		if s.opts.DefaultTimeout < 0 {
			return 0
		}
		d = s.opts.DefaultTimeout
	}
	if s.opts.MaxTimeout > 0 && d > s.opts.MaxTimeout {
		d = s.opts.MaxTimeout
	}
	return d
}

// dispatch is the shared serving path of the three compute endpoints:
// apply the request deadline, coalesce onto (or start) the flight for key,
// then either stream progress (SSE) or wait for the shared response. With
// traced set, the leader opens a per-flight trace whose root "request" span
// carries the flight key and the leader role, and an "admit" child span
// covering the flight goroutine's start and admission; coalesced followers
// receive the shared trace (their coalescing is visible as the
// X-Plim-Coalesced header plus the follower's own access-log line).
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, timeoutMS int64, key string, traced bool, fn func(context.Context, func(plim.Event)) response) {
	reqCtx := r.Context()
	if d := s.effectiveTimeout(timeoutMS); d > 0 {
		var cancel context.CancelFunc
		reqCtx, cancel = context.WithTimeout(reqCtx, d)
		defer cancel()
	}
	f, leader := s.flights.join(key)
	defer s.flights.leave(f)
	if leader {
		s.met.flightStarted()
		// The computation context deliberately does NOT descend from this
		// request: coalesced followers must survive the leader's disconnect.
		// It carries the leader's deadline and is cancelled when the last
		// subscriber leaves (flightGroup.leave).
		cctx := context.Background()
		var cancel context.CancelFunc
		if d := s.effectiveTimeout(timeoutMS); d > 0 {
			cctx, cancel = context.WithTimeout(cctx, d)
		} else {
			cctx, cancel = context.WithCancel(cctx)
		}
		var tr *trace.Trace
		var root, admit trace.Handle
		if traced {
			tr = trace.New()
			endpoint, _, _ := strings.Cut(key, "|")
			cctx, root = trace.Start(trace.NewContext(cctx, tr), "request", endpoint)
			admit = trace.StartNoCtx(cctx, "admit", endpoint)
			root.Attr("flight", key)
			root.Attr("role", "leader")
		}
		s.flights.setCancel(f, cancel)
		s.log.LogAttrs(reqCtx, slog.LevelInfo, "flight start",
			slog.String("flight", key), slog.Bool("trace", traced))
		go s.runFlight(cctx, cancel, f, tr, root, admit, fn)
	} else {
		s.met.requestCoalesced()
		w.Header().Set("X-Plim-Coalesced", "1")
	}
	if wantsSSE(r) {
		s.streamSSE(w, reqCtx, f)
		return
	}
	resp, err := f.wait(reqCtx)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "request deadline exceeded"})
		} else {
			// The client is gone; nobody reads the body, but the status
			// must still reach the metrics (499, nginx's client-closed
			// convention) so disconnects don't count as successes.
			w.WriteHeader(statusClientClosed)
		}
		return
	}
	writeResponse(w, resp)
}

// runFlight executes one coalesced computation: admission first (the whole
// flight holds exactly one in-flight seat no matter how many requests share
// it), which closes the admit span dispatch opened, then the engine call,
// whose work the engine's scheduler multiplexes with every other flight's
// by request deadline.
func (s *Server) runFlight(ctx context.Context, cancel context.CancelFunc, f *flight, tr *trace.Trace, root, admit trace.Handle, fn func(context.Context, func(plim.Event)) response) {
	defer cancel()
	start := time.Now()
	var resp response
	release, err := s.adm.admit()
	admit.End()
	if err != nil {
		s.met.admissionRejected()
		resp = response{
			status:     http.StatusTooManyRequests,
			retryAfter: s.retryAfter(),
			body:       mustJSON(errorResponse{Error: "server at capacity, retry later"}),
		}
	} else {
		resp = s.safeCompute(ctx, f, fn)
		release()
	}
	if tr != nil {
		root.Attr("status", strconv.Itoa(resp.status))
		root.End()
		blob, serverTiming, wallMS := buildTrace(tr)
		resp.body = spliceTrace(resp.body, blob)
		resp.serverTiming = serverTiming
		resp.trace = blob
		s.traces.record(f.key, wallMS, blob)
	}
	s.flights.forget(f)
	f.finish(resp)
	s.log.LogAttrs(ctx, slog.LevelInfo, "flight done",
		slog.String("flight", f.key),
		slog.Int("status", resp.status),
		slog.Duration("elapsed", time.Since(start)))
}

// retryAfter estimates when a rejected client should try again. The
// estimate is scheduler-aware: the tasks queued in the engine's scheduler,
// per kind, times that kind's observed mean task latency, divided across
// the workers draining them — how long the current backlog actually needs,
// rather than a guess from whole-flight wall-clocks. Kinds without latency
// history contribute nothing, so a warm scheduler with nothing of known
// cost queued answers the 1s floor. Before the scheduler has timed any
// task it answers ⌈in-flight flights ÷ engine workers⌉ seconds. Clamped
// to [1s, 60s].
func (s *Server) retryAfter() time.Duration {
	st := s.eng.SchedulerStats()
	var secs float64
	for k, h := range st.Latency {
		secs += float64(st.RunnableByKind[k]) * (h.SumSeconds / float64(h.Count))
	}
	if len(st.Latency) == 0 {
		secs = s.adm.backlog()
	} else if st.Workers > 0 {
		secs /= float64(st.Workers)
	}
	secs = math.Ceil(secs)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return time.Duration(secs) * time.Second
}

// safeCompute runs the computation with a panic barrier: runFlight executes
// on a bare goroutine, outside net/http's per-request recovery, so without
// this one adversarial netlist tripping a compiler invariant would take
// down the whole daemon instead of failing one flight.
func (s *Server) safeCompute(ctx context.Context, f *flight, fn func(context.Context, func(plim.Event)) response) (resp response) {
	defer func() {
		if r := recover(); r != nil {
			resp = response{
				status: http.StatusInternalServerError,
				body:   mustJSON(errorResponse{Error: fmt.Sprintf("computation panicked: %v", r)}),
			}
		}
	}()
	return fn(ctx, func(ev plim.Event) {
		s.met.countEvent(ev)
		f.publish(ev)
	})
}

func wantsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// streamSSE renders the flight as a server-sent-event stream: every
// progress event as it happens (replayed from the start for coalesced
// followers), then one final "result" (or "error") event carrying the
// response body.
func (s *Server) streamSSE(w http.ResponseWriter, ctx context.Context, f *flight) {
	fl, ok := flusherOf(w)
	if !ok {
		// No streaming support (unusual): degrade to the plain JSON path.
		resp, err := f.wait(ctx)
		if err == nil {
			writeResponse(w, resp)
		}
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	resp, err := f.stream(ctx, func(ev plim.Event) error {
		name, data := eventPayload(ev)
		b, err := json.Marshal(data)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, b); err != nil {
			return err
		}
		fl.Flush()
		return nil
	})
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(w, "event: error\ndata: %s\n", mustJSON(errorResponse{Error: "request deadline exceeded"}))
			fl.Flush()
		}
		return
	}
	if resp.trace != nil {
		// Traced flights get their own frame before the result, so SSE
		// consumers can render the trace without parsing the result body.
		fmt.Fprintf(w, "event: trace\ndata: %s\n\n", resp.trace)
		fl.Flush()
	}
	final := "result"
	if resp.status >= 400 {
		final = "error"
	}
	// resp.body is newline-terminated already; one more newline ends the
	// SSE frame.
	fmt.Fprintf(w, "event: %s\ndata: %s\n", final, resp.body)
	fl.Flush()
}

// errorResult maps a computation error onto a response: deadline → 504,
// cancellation → 503 (drain/abandonment), anything else → 500.
func errorResult(err error) response {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = http.StatusServiceUnavailable
	}
	return response{status: status, body: mustJSON(errorResponse{Error: err.Error()})}
}

func jsonResult(status int, v any) response {
	b, err := json.Marshal(v)
	if err != nil {
		return errorResult(fmt.Errorf("encode response: %w", err))
	}
	return response{status: status, body: append(b, '\n')}
}

// mustJSON marshals a value that cannot fail (plain structs of strings).
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(`{"error":"internal encoding failure"}`)
	}
	return append(b, '\n')
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(mustJSON(v))
}

func writeResponse(w http.ResponseWriter, resp response) {
	w.Header().Set("Content-Type", "application/json")
	if resp.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(resp.retryAfter/time.Second)))
	}
	if resp.serverTiming != "" {
		w.Header().Set("Server-Timing", resp.serverTiming)
	}
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}
