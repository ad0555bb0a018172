package plim

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestEngineTraceRecordsPipeline drives one compile through a tracing
// engine and checks the facade contract: TakeTrace harvests a span tree
// with the pipeline stages, exports valid Chrome trace-event JSON, renders
// a non-empty text tree and resets the accumulator.
func TestEngineTraceRecordsPipeline(t *testing.T) {
	eng := NewEngine(WithShrink(8), WithEffort(2), WithTrace(true))
	m, err := eng.Benchmark(context.Background(), "ctrl", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), m, Full); err != nil {
		t.Fatal(err)
	}

	tr := eng.TakeTrace()
	if tr == nil {
		t.Fatal("TakeTrace returned nil after a traced run")
	}
	spans := tr.Spans()
	kinds := map[string]int{}
	for _, sp := range spans {
		kinds[sp.Kind]++
		if sp.Dur < 0 {
			t.Fatalf("span %d (%s/%s) still open at export", sp.ID, sp.Kind, sp.Name)
		}
		if sp.Parent >= int32(len(spans)) {
			t.Fatalf("span %d has out-of-range parent %d", sp.ID, sp.Parent)
		}
	}
	for _, want := range []string{"call", "generate", "rewrite", "compile", "cache"} {
		if kinds[want] == 0 {
			t.Fatalf("no %s span recorded; got %v", want, kinds)
		}
	}

	// The Chrome export is the object form: traceEvents holds one complete
	// ("ph":"X") event per span.
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &chrome); err != nil {
		t.Fatalf("Chrome export does not parse: %v", err)
	}
	if len(chrome.TraceEvents) != len(spans) {
		t.Fatalf("Chrome export has %d events for %d spans", len(chrome.TraceEvents), len(spans))
	}
	for _, ev := range chrome.TraceEvents {
		if ev["ph"] != "X" || ev["name"] == "" {
			t.Fatalf("malformed Chrome event: %v", ev)
		}
	}

	if txt := tr.RenderString(); !strings.Contains(txt, "rewrite") || !strings.Contains(txt, "compile") {
		t.Fatalf("rendered tree misses pipeline stages:\n%s", txt)
	}
	if tot := tr.Totals(); len(tot) == 0 {
		t.Fatal("Totals is empty for a traced run")
	}

	// Harvesting resets: a second TakeTrace with no traced work is nil.
	if tr2 := eng.TakeTrace(); tr2 != nil {
		t.Fatalf("second TakeTrace returned %d spans, want nil", len(tr2.Spans()))
	}
}

// TestEngineUntracedStaysInert pins WithTrace's default: no trace is
// accumulated, and TakeTrace stays nil however much work runs.
func TestEngineUntracedStaysInert(t *testing.T) {
	eng := NewEngine(WithShrink(8), WithEffort(2))
	m, err := eng.Benchmark(context.Background(), "ctrl", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), m, Full); err != nil {
		t.Fatal(err)
	}
	if tr := eng.TakeTrace(); tr != nil {
		t.Fatalf("untraced engine accumulated %d spans", len(tr.Spans()))
	}
}

// TestEngineTraceExploreProbesCaches: a traced sweep records its cache
// probes like the suite runner does, one benchmark-probe per (benchmark,
// shrink) generate task beside the rewrite probes.
func TestEngineTraceExploreProbesCaches(t *testing.T) {
	eng := NewEngine(WithTrace(true))
	_, err := eng.Explore(context.Background(), ExploreOptions{
		Benchmarks: []string{"ctrl", "router"},
		Shrinks:    []int{4, 8},
		Efforts:    []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	probes := map[string]int{}
	benchProbes := map[string]int{}
	for _, sp := range eng.TakeTrace().Spans() {
		if sp.Kind != "cache" {
			continue
		}
		probes[sp.Name]++
		if sp.Name == "benchmark-probe" {
			for _, a := range sp.Attrs {
				if a.Key == "benchmark" {
					benchProbes[a.Value]++
				}
			}
		}
	}
	if benchProbes["ctrl"] != 2 || benchProbes["router"] != 2 || probes["benchmark-probe"] != 4 {
		t.Fatalf("benchmark probes %v (by benchmark %v), want 2 per benchmark over 2 shrinks", probes, benchProbes)
	}
	// 2 benchmarks × 2 shrinks × 3 distinct Table I pipelines.
	if probes["rewrite-probe"] != 12 {
		t.Fatalf("rewrite probes %d, want 12", probes["rewrite-probe"])
	}
}
