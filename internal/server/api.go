// Package server exposes a plim.Engine over HTTP/JSON as a long-lived
// shared service: POST /v1/compile, /v1/rewrite and /v1/suite run the
// engine, POST /v1/execute compiles and then evaluates a program over a
// batch of input vectors with the 64-wide bit-sliced executor, GET
// /v1/benchmarks lists the paper's benchmarks, and /healthz and /metrics
// make the daemon operable. Beyond handler glue the package
// provides the serving machinery a shared compiler needs:
//
//   - admission control: a bounded in-flight budget sized from the engine's
//     worker count; beyond it requests are rejected with 429 + Retry-After
//     instead of accepting unboundedly. Admitted flights submit task graphs
//     to the engine's shared work-stealing scheduler, which multiplexes all
//     flights over one worker pool ordered by request deadline (timeout_ms
//     → graph priority), so a flight never occupies a serving slot for its
//     full wall-clock and per-request deadlines map onto context
//     cancellation end to end;
//   - request coalescing: identical in-flight requests share one
//     computation (and one admission slot) on top of the engine's
//     singleflight caches, so a thundering herd compiles once and every
//     client receives the byte-identical response;
//   - live progress: any compute request with Accept: text/event-stream
//     receives the engine's typed progress events as server-sent events,
//     fanned out per request via plim.ContextWithProgress — coalesced
//     followers replay the full stream of the shared computation;
//   - operability: /metrics exposes request counts, latency histograms,
//     coalescing/admission counters, scheduler depth/steal/task-latency
//     series and both cache tiers in Prometheus text format.
//
// POST /v1/execute additionally accepts a streamed NDJSON body
// (Content-Type: application/x-ndjson): the first line is the JSON request
// without a vector source, each following line one "0101" input vector,
// packed incrementally so the body is never buffered whole.
//
// cmd/plimserve wraps the package as a daemon with graceful drain and a
// periodic disk-cache janitor.
package server

import (
	"bufio"
	"fmt"
	"time"

	"plim"
)

// computeRequest is the body shared by the four compute endpoints; each
// endpoint ignores the fields it has no use for.
type computeRequest struct {
	// Benchmark names one of the paper's benchmarks; Netlist inlines a .mig
	// netlist. Exactly one must be set on /v1/compile and /v1/rewrite;
	// /v1/suite takes the Benchmarks list instead.
	Benchmark string `json:"benchmark,omitempty"`
	Netlist   string `json:"netlist,omitempty"`

	// Config names an endurance configuration (naive, compiler21, minwrite,
	// rewriting, full; default full) for /v1/compile; Configs is the
	// /v1/suite variant (default: the five Table I configurations). A
	// "+capN" suffix (e.g. "full+cap20") applies the maximum-write cap.
	Config  string   `json:"config,omitempty"`
	Configs []string `json:"configs,omitempty"`

	// Cap is the per-device maximum write count (0 = unlimited); an
	// alternative to the "+capN" config suffix on /v1/compile.
	Cap uint64 `json:"cap,omitempty"`

	// Kind selects the rewriting algorithm on /v1/rewrite: none, alg1, alg2.
	Kind string `json:"kind,omitempty"`

	// Shrink divides benchmark datapath widths (0 = the server's default).
	// /v1/suite runs at the server's shrink only.
	Shrink int `json:"shrink,omitempty"`

	// Benchmarks is the /v1/suite benchmark subset (default: all 18).
	Benchmarks []string `json:"benchmarks,omitempty"`

	// Emit adds the compiled program to a /v1/compile response: "asm" for
	// assembly text, "binary" for the base64-encoded binary encoding.
	Emit string `json:"emit,omitempty"`

	// Verify adds a static verification report to a /v1/compile response:
	// def-before-use, footprint range, output liveness, dead writes, the
	// policy's wear cap and static-vs-allocator write parity, proven
	// without executing the program. Violations come back as structured
	// JSON (verification.ok=false), not as an HTTP error.
	Verify bool `json:"verify,omitempty"`

	// Vectors lists /v1/execute input vectors as "0101" strings (character
	// i is primary input i); VectorsPacked is the compact bit-sliced
	// alternative. Random asks the server to generate that many uniformly
	// random vectors from Seed; Exhaustive executes the whole truth table
	// (input count ≤ 20). Exactly one vector source must be set.
	Vectors       []string       `json:"vectors,omitempty"`
	VectorsPacked *packedVectors `json:"vectors_packed,omitempty"`
	Random        int            `json:"random,omitempty"`
	Seed          int64          `json:"seed,omitempty"`
	Exhaustive    bool           `json:"exhaustive,omitempty"`

	// Endurance is the /v1/execute per-device write budget (0 = unlimited);
	// a worn-out device faults the whole batch, reported in the response.
	Endurance uint64 `json:"endurance,omitempty"`

	// Output selects the /v1/execute outputs encoding: "strings" (default)
	// or "packed".
	Output string `json:"output,omitempty"`

	// vectorLines scans the vector lines of a streamed (NDJSON) /v1/execute
	// body, whose first line was the request; vectorSource packs them.
	vectorLines *bufio.Scanner

	// TimeoutMS caps this request's total time (queue wait included);
	// 0 uses the server default. Coalesced requests share the deadline of
	// the request that started the computation.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Trace records a span-per-task execution trace of the flight and
	// returns it as the response's "trace" block (plus a Server-Timing
	// header with per-stage totals and, on SSE requests, a final "trace"
	// frame). Traced responses embed timings, so the flag joins the
	// coalescing key: traced and untraced requests never share a flight and
	// the untraced warm path stays byte-identical.
	Trace bool `json:"trace,omitempty"`
}

// packedVectors is the bit-sliced wire form of a plim.Batch: line-major
// little-endian uint64 words, base64-encoded ([]byte JSON), with explicit
// dimensions. Lanes beyond N in the last word of each line must be zero.
type packedVectors struct {
	N     int    `json:"n"`
	Lines int    `json:"lines"`
	Words []byte `json:"words"`
}

// writesJSON is the paper's write-distribution summary on the wire.
type writesJSON struct {
	Devices int     `json:"devices"`
	Min     uint64  `json:"min"`
	Max     uint64  `json:"max"`
	Mean    float64 `json:"mean"`
	StdDev  float64 `json:"stdev"`
	Total   uint64  `json:"total"`
}

func summarizeWrites(s plim.WriteSummary) writesJSON {
	return writesJSON{Devices: s.N, Min: s.Min, Max: s.Max, Mean: s.Mean, StdDev: s.StdDev, Total: s.Total}
}

// rewriteStatsJSON is rewrite.Stats on the wire.
type rewriteStatsJSON struct {
	Cycles      int   `json:"cycles"`
	NodesBefore int   `json:"nodes_before"`
	NodesAfter  int   `json:"nodes_after"`
	DepthBefore int32 `json:"depth_before"`
	DepthAfter  int32 `json:"depth_after"`
}

func rewriteStats(st plim.RewriteStats) rewriteStatsJSON {
	return rewriteStatsJSON{
		Cycles: st.Cycles, NodesBefore: st.NodesBefore, NodesAfter: st.NodesAfter,
		DepthBefore: st.DepthBefore, DepthAfter: st.DepthAfter,
	}
}

// compileResponse is the /v1/compile response body.
type compileResponse struct {
	Function      string           `json:"function"`
	Config        string           `json:"config"`
	Shrink        int              `json:"shrink,omitempty"` // set for benchmark sources
	Effort        int              `json:"effort"`
	Rewrite       rewriteStatsJSON `json:"rewrite"`
	Instructions  int              `json:"instructions"`
	RRAMs         int              `json:"rrams"`
	Writes        writesJSON       `json:"writes"`
	Lifetime1e10  uint64           `json:"lifetime_1e10"`
	ProgramAsm    string           `json:"program_asm,omitempty"`
	ProgramBinary []byte           `json:"program_binary,omitempty"` // base64 in JSON
	Verification  *verifyJSON      `json:"verification,omitempty"`   // set when the request asked for verify
	// Cost prices the compiled program under the server's cost model
	// (plimserve -cost-model; static == allocator parity holds whenever
	// verification ran). Unlimited lifetimes carry the raw sentinel value.
	Cost *plim.Cost `json:"cost,omitempty"`
}

// verifyJSON is a static verification report on the wire (verify=true on
// /v1/compile). Violation entries are hard findings; dead writes are
// wasted-endurance warnings.
type verifyJSON struct {
	OK            bool                   `json:"ok"`
	Clean         bool                   `json:"clean"` // ok and no dead writes
	Fingerprint   string                 `json:"program_fingerprint"`
	TotalWrites   uint64                 `json:"total_writes"`
	MaxCellWrites uint64                 `json:"max_cell_writes"`
	CellsWritten  int                    `json:"cells_written"`
	Violations    []plim.VerifyViolation `json:"violations,omitempty"`
	DeadWrites    []plim.VerifyViolation `json:"dead_writes,omitempty"`
}

func verifyReport(r *plim.VerifyReport) *verifyJSON {
	return &verifyJSON{
		OK:            r.OK(),
		Clean:         r.Clean(),
		Fingerprint:   fmt.Sprintf("%016x", r.Fingerprint),
		TotalWrites:   r.TotalWrites,
		MaxCellWrites: r.MaxCellWrites,
		CellsWritten:  r.CellsWritten,
		Violations:    r.Violations,
		DeadWrites:    r.DeadWrites,
	}
}

// rewriteResponse is the /v1/rewrite response body.
type rewriteResponse struct {
	Function string           `json:"function"`
	Kind     string           `json:"kind"`
	Effort   int              `json:"effort"`
	Shrink   int              `json:"shrink,omitempty"`
	Stats    rewriteStatsJSON `json:"stats"`
	MIG      string           `json:"mig"` // the rewritten netlist, .mig text format
}

// suiteReportJSON is one benchmark × configuration cell of a suite result.
type suiteReportJSON struct {
	Instructions int              `json:"instructions"`
	RRAMs        int              `json:"rrams"`
	Writes       writesJSON       `json:"writes"`
	Rewrite      rewriteStatsJSON `json:"rewrite"`
	Cost         *plim.Cost       `json:"cost,omitempty"` // priced under the server's cost model
}

// benchmarkJSON is one entry of /v1/benchmarks.
type benchmarkJSON struct {
	Name      string `json:"name"`
	PI        int    `json:"pi"`
	PO        int    `json:"po"`
	Synthetic bool   `json:"synthetic"`
}

// suiteResponse is the /v1/suite response body. Reports[b][c] pairs
// Benchmarks[b] with Configs[c].
type suiteResponse struct {
	Shrink     int                 `json:"shrink"`
	Effort     int                 `json:"effort"`
	Benchmarks []benchmarkJSON     `json:"benchmarks"`
	Configs    []string            `json:"configs"`
	Reports    [][]suiteReportJSON `json:"reports"`
}

// executeFaultJSON reports an endurance fault of a batched execution.
type executeFaultJSON struct {
	Inst  int    `json:"inst"`
	Error string `json:"error"`
}

// executeResponse is the /v1/execute response body. It carries no timing,
// so warm repeats of the same request are byte-identical (a property the CI
// smoke test pins).
type executeResponse struct {
	Function     string            `json:"function"`
	Config       string            `json:"config"`
	Shrink       int               `json:"shrink,omitempty"`
	Fingerprint  string            `json:"program_fingerprint"`
	Instructions int               `json:"instructions"`
	RRAMs        int               `json:"rrams"`
	Vectors      int               `json:"vectors"`
	Chunks       int               `json:"chunks"`
	Outputs      []string          `json:"outputs,omitempty"`
	OutputsPack  *packedVectors    `json:"outputs_packed,omitempty"`
	Writes       writesJSON        `json:"writes"`
	Switches     uint64            `json:"switches_total"`
	Fault        *executeFaultJSON `json:"fault,omitempty"`
	// Cost prices the executed batch (all lanes of the executed prefix)
	// under the server's cost model; LifetimeRuns stays the per-run bound.
	Cost *plim.Cost `json:"cost,omitempty"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

// eventPayload maps a typed progress event onto the JSON payload of its
// SSE frame; the frame's event line is ev.Name().
func eventPayload(ev plim.Event) any {
	switch ev := ev.(type) {
	case plim.EventRewriteCycle:
		return struct {
			Function string `json:"function"`
			Config   string `json:"config,omitempty"`
			Cycle    int    `json:"cycle"`
			Effort   int    `json:"effort"`
			Nodes    int    `json:"nodes"`
		}{ev.Function, ev.Config, ev.Cycle, ev.Effort, ev.Nodes}
	case plim.EventCompileStart:
		return struct {
			Function string `json:"function"`
			Config   string `json:"config"`
		}{ev.Function, ev.Config}
	case plim.EventCompileDone:
		return struct {
			Function     string  `json:"function"`
			Config       string  `json:"config"`
			ElapsedMS    float64 `json:"elapsed_ms"`
			Instructions int     `json:"instructions"`
			RRAMs        int     `json:"rrams"`
			Error        string  `json:"error,omitempty"`
		}{ev.Function, ev.Config, ms(ev.Elapsed), ev.Instructions, ev.RRAMs, errString(ev.Err)}
	case plim.EventBenchmarkStart:
		return struct {
			Benchmark string `json:"benchmark"`
			Index     int    `json:"index"`
			Total     int    `json:"total"`
		}{ev.Benchmark, ev.Index, ev.Total}
	case plim.EventExecuteChunk:
		return struct {
			Program string `json:"program"`
			Done    int    `json:"done"`
			Total   int    `json:"total"`
			Vectors int    `json:"vectors"`
		}{ev.Program, ev.Done, ev.Total, ev.Vectors}
	case plim.EventBenchmarkDone:
		return struct {
			Benchmark string  `json:"benchmark"`
			Index     int     `json:"index"`
			Total     int     `json:"total"`
			ElapsedMS float64 `json:"elapsed_ms"`
			Error     string  `json:"error,omitempty"`
		}{ev.Benchmark, ev.Index, ev.Total, ms(ev.Elapsed), errString(ev.Err)}
	case plim.EventTaskStart:
		return struct {
			Kind  string `json:"kind"`
			Label string `json:"label"`
		}{ev.Kind, ev.Label}
	case plim.EventTaskDone:
		return struct {
			Kind      string  `json:"kind"`
			Label     string  `json:"label"`
			ElapsedMS float64 `json:"elapsed_ms"`
		}{ev.Kind, ev.Label, ms(ev.Elapsed)}
	}
	return ev
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
