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
	s.mux.HandleFunc("POST /v1/compile", s.instrument("compile", s.serve(readBody, s.compile)))
	s.mux.HandleFunc("POST /v1/execute", s.instrument("execute", s.serve(readExecute, s.execute)))
	s.mux.HandleFunc("POST /v1/rewrite", s.instrument("rewrite", s.serve(readBody, s.rewrite)))
	s.mux.HandleFunc("POST /v1/suite", s.instrument("suite", s.serve(readBody, s.suite)))
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

// badRequest is a refusal of the request: answered 400 before the flight
// starts, or by the flight once the program's widths are known (see
// errorResult).
type badRequest struct{ msg string }

func (e badRequest) Error() string { return e.msg }

// A computation is one flight's work. Its context carries the flight's
// deadline, its trace when traced, and its progress observer.
type computation func(ctx context.Context) response

// An endpoint checks the fields of a compute request that its route reads
// and plans the request's flight: the flight key, less the trace flag, and
// the computation.
type endpoint func(req computeRequest) (key string, fn computation, err error)

// serve is the one request path of the compute endpoints: read decodes the
// request, ep checks it and plans its flight, any refusal is answered 400,
// and the flight is dispatched under its key with the trace flag appended.
func (s *Server) serve(read func(http.ResponseWriter, *http.Request) (computeRequest, error), ep endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, err := read(w, r)
		var key string
		var fn computation
		if err == nil {
			key, fn, err = ep(req)
		}
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		s.dispatch(w, r, req.TimeoutMS, key+"|trace="+strconv.FormatBool(req.Trace), req.Trace, fn)
	}
}

// decodeRequest decodes one JSON compute request, refusing unknown fields,
// and checks the fields every compute request shares. what names the input
// in the refusal.
func decodeRequest(in io.Reader, what string) (computeRequest, error) {
	var req computeRequest
	dec := json.NewDecoder(in)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("invalid %s: %w", what, err)
	}
	switch {
	case req.TimeoutMS < 0:
		return req, badRequest{"timeout_ms must be ≥ 0"}
	case req.Shrink < 0:
		return req, badRequest{"shrink must be ≥ 1 (or 0 for the server default)"}
	}
	return req, nil
}

// readBody reads a JSON request body of at most maxBodyBytes. An empty body
// asks for all defaults.
func readBody(w http.ResponseWriter, r *http.Request) (computeRequest, error) {
	req, err := decodeRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes), "request body")
	if errors.Is(err, io.EOF) {
		return computeRequest{}, nil
	}
	return req, err
}

// readExecute reads either input form of /v1/execute. The streaming form
// (Content-Type: application/x-ndjson) opens with the JSON request line —
// without a vector source — and carries one raw "0101" vector on each
// following line. Only the request line is read here: vectorSource packs
// the vector lines once the request's other fields have passed, into
// 64-lane chunks as they arrive, so the body is never buffered whole. It
// bypasses the maxBodyBytes cap and is bounded by the vector cap times the
// width fixed by the first vector. The packed batch content-hashes into
// the same flight key as the buffered forms, so a streamed request
// coalesces with (and answers byte-identically to) an equivalent JSON one.
func readExecute(w http.ResponseWriter, r *http.Request) (computeRequest, error) {
	if !strings.HasPrefix(r.Header.Get("Content-Type"), "application/x-ndjson") {
		return readBody(w, r)
	}
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return computeRequest{}, badRequest{fmt.Sprintf("reading request line: %s", err)}
		}
		return computeRequest{}, badRequest{"ndjson body: missing request line"}
	}
	req, err := decodeRequest(bytes.NewReader(sc.Bytes()), "request line")
	if err == nil && (len(req.Vectors) > 0 || req.VectorsPacked != nil || req.Random != 0 || req.Seed != 0 || req.Exhaustive) {
		err = badRequest{"ndjson execute: vectors are the body lines; remove the vector-source fields"}
	}
	req.vectorLines = sc
	return req, err
}

// source is a request's resolved function source: a benchmark name at a
// shrink, or a parsed netlist.
type source struct {
	key    string // the flight-key component: bench:<name>@<shrink> or mig:<fingerprint>
	shrink int    // the benchmark's shrink; 0 for a netlist
	bench  string
	m      *plim.MIG
}

// sourceMIG resolves the request's function source. A benchmark source is
// only named here, so a cache-served flight never builds it; a netlist
// source is parsed at once, because its fingerprint is the coalescing key.
// A flight then compiles the source through run or takes a private copy of
// its graph through graph.
func (s *Server) sourceMIG(req computeRequest) (source, error) {
	shrink := req.Shrink
	if shrink == 0 {
		shrink = s.eng.Shrink()
	}
	switch {
	case req.Benchmark != "" && req.Netlist != "":
		return source{}, badRequest{"set either benchmark or netlist, not both"}
	case req.Benchmark != "":
		if _, ok := plim.LookupBenchmark(req.Benchmark); !ok {
			return source{}, badRequest{fmt.Sprintf("unknown benchmark %q", req.Benchmark)}
		}
		return source{key: fmt.Sprintf("bench:%s@%d", req.Benchmark, shrink), shrink: shrink, bench: req.Benchmark}, nil
	case req.Netlist != "":
		if req.Shrink != 0 {
			return source{}, badRequest{"shrink applies to benchmark sources only"}
		}
		m, err := plim.ReadMIG(strings.NewReader(req.Netlist))
		if err != nil {
			return source{}, badRequest{fmt.Sprintf("invalid netlist: %s", err)}
		}
		return source{key: fmt.Sprintf("mig:%016x", m.Fingerprint()), m: m}, nil
	}
	return source{}, badRequest{"need benchmark or netlist"}
}

// run rewrites and compiles src under cfg: a benchmark on the engine's
// cached build (Engine.RunBenchmark), which is neither copied nor hashed,
// a netlist through Engine.Run. The compiled program carries the name of
// the graph it was compiled from, the cached handle's or the netlist's,
// and responses name the function by it.
func (s *Server) run(ctx context.Context, src source, cfg plim.Config) (*plim.Report, error) {
	if src.m != nil {
		return s.eng.Run(ctx, src.m, cfg)
	}
	return s.eng.RunBenchmark(ctx, src.bench, src.shrink, cfg)
}

// graph returns src's graph for a flight that needs the graph itself: a
// benchmark as a private copy (Engine.Benchmark), a netlist as parsed.
func (s *Server) graph(ctx context.Context, src source) (*plim.MIG, error) {
	if src.m != nil {
		return src.m, nil
	}
	return s.eng.Benchmark(ctx, src.bench, src.shrink)
}

// parseConfig is core.ParseConfig with its error as a bad request.
func parseConfig(name string, cap uint64) (plim.Config, error) {
	cfg, err := core.ParseConfig(name, cap)
	if err != nil {
		return cfg, badRequest{err.Error()}
	}
	return cfg, nil
}

// compile plans a /v1/compile flight.
func (s *Server) compile(req computeRequest) (string, computation, error) {
	if req.Emit != "" && req.Emit != "asm" && req.Emit != "binary" {
		return "", nil, badRequest{fmt.Sprintf("unknown emit %q (want asm or binary)", req.Emit)}
	}
	cfg, err := parseConfig(req.Config, req.Cap)
	if err != nil {
		return "", nil, err
	}
	src, err := s.sourceMIG(req)
	if err != nil {
		return "", nil, err
	}
	// The cost model name joins the key: responses embed priced totals, so
	// requests served by engines priced differently must never coalesce.
	key := fmt.Sprintf("compile|%s|%s|%s|verify=%t|cm=%s", src.key, cfg.Name, req.Emit, req.Verify, s.eng.CostModelName())
	return key, func(ctx context.Context) response {
		rep, err := s.run(ctx, src, cfg)
		if err != nil {
			return errorResult(err)
		}
		// The tail — verify, program emission, JSON encoding — is wall time
		// too; the span keeps traced flights accounted end to end.
		esp := trace.StartNoCtx(ctx, "encode", "response")
		defer esp.End()
		out := compileResponse{
			Function:     rep.Result.Program.Name(),
			Config:       cfg.Name,
			Shrink:       src.shrink,
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
				vr = core.Verify(rep, s.eng.CostModel())
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
	}, nil
}

// maxExecuteVectors bounds one /v1/execute batch (explicit, streamed,
// random or exhaustive): 2^20 vectors keep the packed state of even wide
// programs in the tens of megabytes.
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

// packLines packs the vector lines of a streamed execute body, skipping
// blank ones.
func packLines(sc *bufio.Scanner) (*plim.Batch, error) {
	b := plim.NewBatch(0, 0)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue // tolerate blank lines and trailing newlines
		}
		if b.Len() >= maxExecuteVectors {
			return nil, badRequest{fmt.Sprintf("at most %d vectors per request", maxExecuteVectors)}
		}
		if err := b.AppendString(line); err != nil {
			return nil, badRequest{fmt.Sprintf("invalid vector: %s", err)}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, badRequest{fmt.Sprintf("reading vectors: %s", err)}
	}
	if b.Len() == 0 {
		return nil, badRequest{"ndjson body carries no vectors"}
	}
	return b, nil
}

// decoded is the batch constructor of vectors the request carried: the
// input batch exists already and must be as wide as the program's inputs;
// the program's widths bound the output batch.
func decoded(b *plim.Batch) func(pis, pos int) (*plim.Batch, error) {
	return func(pis, pos int) (*plim.Batch, error) {
		if b.Lines() != pis {
			return nil, badRequest{fmt.Sprintf("vector width %d does not match the program's %d inputs", b.Lines(), pis)}
		}
		if err := checkBatchWords(pis+pos, b.Len()); err != nil {
			return nil, err
		}
		return b, nil
	}
}

// vectorSource resolves the request's input vectors into a coalescing key
// component and a constructor. Explicit and streamed vectors pack (and
// content-hash) immediately; random and exhaustive batches are generated
// inside the flight, once the program's input count is known. The
// constructor takes the program's input and output counts and refuses a
// batch beyond maxBatchWords.
func vectorSource(req computeRequest) (key string, mk func(pis, pos int) (*plim.Batch, error), err error) {
	sources := 0
	for _, set := range []bool{req.vectorLines != nil, len(req.Vectors) > 0, req.VectorsPacked != nil, req.Random != 0, req.Exhaustive} {
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
	var b *plim.Batch
	switch {
	case req.vectorLines != nil:
		b, err = packLines(req.vectorLines)
	case len(req.Vectors) > 0:
		if len(req.Vectors) > maxExecuteVectors {
			return "", nil, badRequest{fmt.Sprintf("at most %d vectors per request", maxExecuteVectors)}
		}
		if b, err = plim.PackBatchStrings(req.Vectors); err != nil {
			err = badRequest{fmt.Sprintf("invalid vectors: %s", err)}
		}
	case req.VectorsPacked != nil:
		b, err = unpackVectors(req.VectorsPacked)
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
	if err != nil {
		return "", nil, err
	}
	return fmt.Sprintf("v:%016x", b.Hash()), decoded(b), nil
}

// execute plans a /v1/execute flight: compile the program, then run the
// request's batch on it.
func (s *Server) execute(req computeRequest) (string, computation, error) {
	if req.Output != "" && req.Output != "strings" && req.Output != "packed" {
		return "", nil, badRequest{fmt.Sprintf("unknown output %q (want strings or packed)", req.Output)}
	}
	cfg, err := parseConfig(req.Config, req.Cap)
	if err != nil {
		return "", nil, err
	}
	vecKey, mkBatch, err := vectorSource(req)
	if err != nil {
		return "", nil, err
	}
	src, err := s.sourceMIG(req)
	if err != nil {
		return "", nil, err
	}
	key := fmt.Sprintf("execute|%s|%s|e%d|%s|%s|cm=%s", src.key, cfg.Name, req.Endurance, vecKey, req.Output, s.eng.CostModelName())
	endurance, packedOut := req.Endurance, req.Output == "packed"
	return key, func(ctx context.Context) response {
		rep, err := s.run(ctx, src, cfg)
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
			return errorResult(err)
		}
		res, err := s.eng.ExecuteBatch(ctx, p, b, plim.ExecOptions{Endurance: endurance})
		var fault *plim.ExecFaultError
		if err != nil && !errors.As(err, &fault) {
			return errorResult(err)
		}
		esp := trace.StartNoCtx(ctx, "encode", "response")
		defer esp.End()
		out := executeResponse{
			Function:     p.Name(),
			Config:       cfg.Name,
			Shrink:       src.shrink,
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
			return outputsResult(out, res.Outputs)
		}
		return jsonResult(http.StatusOK, out)
	}, nil
}

// outputsResult is jsonResult of out with Outputs set to the vectors of
// outs, each as a "0101" string. Only the other fields go through
// encoding/json. The array is written from outs' words straight into the
// body (Batch.AppendVectors) where encoding/json puts the field, before
// "writes": no string in out can contain `,"` unescaped, so the first
// `,"writes":` is that field's boundary. The body is byte-identical to
// jsonResult's; like omitempty, an empty batch adds no field.
func outputsResult(out executeResponse, outs *plim.Batch) response {
	resp := jsonResult(http.StatusOK, out)
	if resp.status != http.StatusOK || outs.Len() == 0 {
		return resp
	}
	at := bytes.Index(resp.body, []byte(`,"writes":`))
	const field = `,"outputs":[`
	body := make([]byte, 0, len(resp.body)+len(field)+outs.Len()*(outs.Lines()+3))
	body = append(body, resp.body[:at]...)
	body = append(body, field...)
	body = outs.AppendVectors(body, `"`, `",`)
	body[len(body)-1] = ']' // the last element's comma
	resp.body = append(body, resp.body[at:]...)
	return resp
}

// total sums a per-cell counter vector.
func total(counts []uint64) uint64 {
	var t uint64
	for _, c := range counts {
		t += c
	}
	return t
}

// rewrite plans a /v1/rewrite flight.
func (s *Server) rewrite(req computeRequest) (string, computation, error) {
	kind, err := core.ParseRewriteKind(req.Kind)
	if err != nil {
		return "", nil, badRequest{err.Error()}
	}
	src, err := s.sourceMIG(req)
	if err != nil {
		return "", nil, err
	}
	return fmt.Sprintf("rewrite|%s|%s", src.key, kind), func(ctx context.Context) response {
		m, err := s.graph(ctx, src)
		if err != nil {
			return errorResult(err)
		}
		out, st, err := s.eng.Rewrite(ctx, m, kind)
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
			Shrink:   src.shrink,
			Stats:    rewriteStats(st),
			MIG:      mig.String(),
		})
	}, nil
}

// suite plans a /v1/suite flight over the server's shrink.
func (s *Server) suite(req computeRequest) (string, computation, error) {
	switch {
	case req.Benchmark != "" || req.Netlist != "":
		return "", nil, badRequest{"suite requests take a benchmarks list, not benchmark/netlist"}
	case req.Shrink != 0 && req.Shrink != s.eng.Shrink():
		return "", nil, badRequest{fmt.Sprintf("suite runs at the server's shrink (%d)", s.eng.Shrink())}
	}
	for _, b := range req.Benchmarks {
		if _, ok := plim.LookupBenchmark(b); !ok {
			return "", nil, badRequest{fmt.Sprintf("unknown benchmark %q", b)}
		}
	}
	cfgs := plim.TableIConfigs()
	if len(req.Configs) > 0 {
		cfgs = make([]plim.Config, len(req.Configs))
		for i, name := range req.Configs {
			var err error
			if cfgs[i], err = parseConfig(name, 0); err != nil {
				return "", nil, err
			}
		}
	}
	cfgNames := make([]string, len(cfgs))
	for i, c := range cfgs {
		cfgNames[i] = c.Name
	}
	key := fmt.Sprintf("suite|%s|%s|cm=%s", strings.Join(req.Benchmarks, ","), strings.Join(cfgNames, ","), s.eng.CostModelName())
	benchmarks := req.Benchmarks
	return key, func(ctx context.Context) response {
		sr, err := s.eng.RunSuite(ctx, cfgs, benchmarks...)
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
	}, nil
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

// dispatch is the flight half of serve, shared by the four compute
// endpoints: apply the request deadline, coalesce onto (or start) the
// flight for key, then either stream progress (SSE) or wait for the shared
// response. With traced set, the leader opens a per-flight trace whose root
// "request" span carries the flight key and the leader role, and an
// "admit" child span covering the flight goroutine's start and admission;
// coalesced followers receive the shared trace (their coalescing is
// visible as the X-Plim-Coalesced header plus the follower's own
// access-log line).
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, timeoutMS int64, key string, traced bool, fn computation) {
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
func (s *Server) runFlight(ctx context.Context, cancel context.CancelFunc, f *flight, tr *trace.Trace, root, admit trace.Handle, fn computation) {
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

// safeCompute runs the computation with the flight's progress observer on
// its context, which counts each event for /metrics and publishes it to the
// flight's subscribers, behind a panic barrier: runFlight executes on a
// bare goroutine, outside net/http's per-request recovery, so without this
// one adversarial netlist tripping a compiler invariant would take down the
// whole daemon instead of failing one flight.
func (s *Server) safeCompute(ctx context.Context, f *flight, fn computation) (resp response) {
	defer func() {
		if r := recover(); r != nil {
			resp = response{
				status: http.StatusInternalServerError,
				body:   mustJSON(errorResponse{Error: fmt.Sprintf("computation panicked: %v", r)}),
			}
		}
	}()
	return fn(plim.ContextWithProgress(ctx, func(ev plim.Event) {
		s.met.countEvent(ev)
		f.publish(ev)
	}))
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
		b, err := json.Marshal(eventPayload(ev))
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Name(), b); err != nil {
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

// errorResult maps a computation error onto a response: a refusal
// (badRequest, such as a batch too large for the program's widths) → 400,
// deadline → 504, cancellation → 503 (drain/abandonment), anything else →
// 500.
func errorResult(err error) response {
	status := http.StatusInternalServerError
	switch {
	case errors.As(err, new(badRequest)):
		status = http.StatusBadRequest
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
