package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"

	"plim"
)

// A span is one timed region of a traced op, in milliseconds from the op's
// start. Span 0 of every op is the benchmark's own client span around the
// call; the program's root spans (the server's "request" flight or the
// engine's "call") hang beneath it. Parents precede their children.
type span struct {
	parent     int // index of the enclosing span, -1 for the client span
	kind, name string
	start, end float64
	worker     int     // scheduler worker, -1 off the pool
	queueWait  float64 // ms a scheduler task sat runnable
	outcome    string  // cache probes: memory-hit, disk-hit, verify-miss, compute
	lanes      int     // exec chunks: occupied lanes
}

func (s *span) dur() float64 { return s.end - s.start }

// covered returns how much of [lo, hi] the union of the intervals covers.
// Overlapping intervals (children run on parallel workers) count once.
func covered(ivs [][2]float64, lo, hi float64) float64 {
	clipped := make([][2]float64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]float64{a, b})
		}
	}
	slices.SortFunc(clipped, func(x, y [2]float64) int { return cmp.Compare(x[0], y[0]) })
	var total, curA, curB float64
	open := false
	for _, iv := range clipped {
		if open && iv[0] <= curB {
			curB = max(curB, iv[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = iv[0], iv[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// children lists each span's child intervals.
func children(spans []span) [][][2]float64 {
	kids := make([][][2]float64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]float64{s.start, s.end})
		}
	}
	return kids
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) []float64 {
	kids := children(spans)
	out := make([]float64, len(spans))
	for i := range spans {
		s := &spans[i]
		out[i] = s.dur() - covered(kids[i], s.start, s.end)
	}
	return out
}

// clientOp wraps program spans (timed from the program's own origin, parent
// -1 for its roots) under a client span of the given wall time. The program
// spans are shifted to end with the client span: the client's own share —
// HTTP transport, request decoding, the wait for a coalesced flight — comes
// before the program's answer is ready. Spans the program left open (end <
// start) are clamped to their parent's end.
func clientOp(wall float64, prog []span) []span {
	progEnd := 0.0
	for _, s := range prog {
		if s.parent < 0 {
			progEnd = max(progEnd, s.end)
		}
	}
	shift := max(wall-progEnd, 0)
	out := make([]span, 1, len(prog)+1)
	out[0] = span{parent: -1, kind: "client", name: "op", end: max(wall, progEnd), worker: -1}
	for _, s := range prog {
		s.parent++ // index 0 is now the client span
		s.start += shift
		s.end += shift
		if s.end < s.start {
			s.end = max(out[s.parent].end, s.start)
		}
		out = append(out, s)
	}
	return out
}

// engineSpans converts an engine trace (Engine.TakeTrace) into spans.
// Open spans keep end < start for clientOp to clamp.
func engineSpans(t *plim.Trace) []span {
	if t == nil {
		return nil
	}
	raw := t.Spans()
	out := make([]span, len(raw))
	for i, sp := range raw {
		s := span{
			parent:    int(sp.Parent),
			kind:      sp.Kind,
			name:      sp.Name,
			start:     ms(sp.Start),
			end:       ms(sp.Start + sp.Dur),
			worker:    sp.Worker,
			queueWait: ms(sp.QueueWait),
		}
		if sp.Dur < 0 {
			s.end = -1
		}
		for _, a := range sp.Attrs {
			s.setAttr(a.Key, a.Value)
		}
		out[i] = s
	}
	return out
}

// serverTrace is the "trace" block a plimserve response carries when the
// request asked for one.
type serverTrace struct {
	Spans []struct {
		ID          int               `json:"id"`
		Parent      int               `json:"parent"`
		Kind        string            `json:"kind"`
		Name        string            `json:"name"`
		StartMS     float64           `json:"start_ms"`
		DurMS       float64           `json:"dur_ms"`
		Worker      int               `json:"worker"`
		QueueWaitMS float64           `json:"queue_wait_ms"`
		Attrs       map[string]string `json:"attrs"`
	} `json:"spans"`
}

// serverSpans converts a response's trace block into spans.
func serverSpans(blob []byte) ([]span, error) {
	var tj serverTrace
	if err := json.Unmarshal(blob, &tj); err != nil {
		return nil, fmt.Errorf("trace block: %w", err)
	}
	out := make([]span, len(tj.Spans))
	for i, sp := range tj.Spans {
		if sp.ID != i || sp.Parent >= i {
			return nil, fmt.Errorf("trace block: span %d out of order", i)
		}
		s := span{
			parent:    sp.Parent,
			kind:      sp.Kind,
			name:      sp.Name,
			start:     sp.StartMS,
			end:       sp.StartMS + sp.DurMS,
			worker:    sp.Worker,
			queueWait: sp.QueueWaitMS,
		}
		for k, v := range sp.Attrs {
			s.setAttr(k, v)
		}
		out[i] = s
	}
	return out, nil
}

func (s *span) setAttr(key, value string) {
	switch key {
	case "outcome":
		s.outcome = value
	case "lanes":
		s.lanes, _ = strconv.Atoi(value) // a malformed attr only loses the lane count
	}
}

// layerOf maps a span onto the layer its self time is charged to.
func layerOf(s *span) string {
	switch s.kind {
	case "client":
		return "client"
	case "request", "encode":
		return "server." + s.kind
	case "call":
		return "engine.call"
	case "exec_chunk":
		return "exec"
	case "cache":
		return "cache." + s.outcome
	}
	return s.kind // generate, rewrite, compile, join
}

// layers accumulates the per-layer totals of a traced segment; add may be
// called from several senders at once.
type layers struct {
	mu         sync.Mutex
	ops        int
	self       map[string]float64 // ms of self time by layer
	count      map[string]int     // spans by layer
	queueWaits []float64          // ms, one per scheduler task
	covered    float64            // ms of program root time covered by its children
	rootWall   float64            // ms of program root time
	compileIns float64            // instructions emitted by compiles
	laneIns    float64            // lanes × instructions executed
	chunks     int                // executed 64-lane chunks
	slowest    []tracedOp         // kept for the Chrome export
}

// A tracedOp is one op's span tree, kept for the Chrome export.
type tracedOp struct {
	wall  float64
	spans []span
}

// keepSlowest bounds the Chrome export to the slowest traced ops.
const keepSlowest = 32

// add folds one op's spans (from clientOp) into the totals. compiled is the
// number of instructions the op's compiles emitted and execIns the
// instruction count of the program its exec chunks ran.
func (l *layers) add(spans []span, compiled, execIns int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.self == nil {
		l.self = map[string]float64{}
		l.count = map[string]int{}
	}
	l.ops++
	l.compileIns += float64(compiled)
	kids := children(spans)
	self := selfTimes(spans)
	for i := range spans {
		s := &spans[i]
		layer := layerOf(s)
		l.self[layer] += self[i]
		l.count[layer]++
		if s.worker >= 0 {
			l.queueWaits = append(l.queueWaits, s.queueWait)
		}
		if s.kind == "exec_chunk" && s.lanes > 0 {
			l.chunks++
			l.laneIns += float64(s.lanes * execIns)
		}
		if s.parent == 0 {
			l.covered += covered(kids[i], s.start, s.end)
			l.rootWall += s.dur()
		}
	}
	l.slowest = append(l.slowest, tracedOp{wall: spans[0].dur(), spans: spans})
	slices.SortFunc(l.slowest, func(a, b tracedOp) int { return cmp.Compare(b.wall, a.wall) })
	if len(l.slowest) > keepSlowest {
		l.slowest = l.slowest[:keepSlowest]
	}
}

// coverage is the share of the program roots' wall time their child spans
// explain; NaN before any traced op.
func (l *layers) coverage() float64 { return l.covered / l.rootWall }

// perOp returns the layer's mean self time per op in ms.
func (l *layers) perOp(layer string) float64 { return l.self[layer] / float64(max(l.ops, 1)) }

// countPerOp returns the layer's mean span count per op.
func (l *layers) countPerOp(layer string) float64 {
	return float64(l.count[layer]) / float64(max(l.ops, 1))
}

// writeChrome writes the kept ops as Chrome trace-event JSON (loadable in
// Perfetto or chrome://tracing): one process per op, slowest first, one
// thread per scheduler worker.
func (l *layers) writeChrome(path string) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	var events []event
	for rank, op := range l.slowest {
		for _, s := range op.spans {
			ev := event{Name: s.kind + " " + s.name, Cat: layerOf(&s), Ph: "X",
				TS: s.start * 1e3, Dur: s.dur() * 1e3, PID: rank + 1, TID: s.worker + 1}
			if s.outcome != "" {
				ev.Args = map[string]string{"outcome": s.outcome}
			}
			events = append(events, ev)
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
