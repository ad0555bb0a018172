package plim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strings"
	"testing"
)

// streamLine renders ev with its wall-clock field zeroed, so a rendered
// stream depends only on what ran and in which order.
func streamLine(ev Event) string {
	switch e := ev.(type) {
	case EventCompileDone:
		e.Elapsed = 0
		ev = e
	case EventBenchmarkDone:
		e.Elapsed = 0
		ev = e
	case EventTaskDone:
		e.Elapsed = 0
		ev = e
	}
	return FormatEvent(ev)
}

// streamEngine is an engine at shrink 8, effort 1 whose WithProgress
// callback records every event it delivers.
type streamEngine struct {
	eng    *Engine
	global []string
}

func newStreamEngine(workers int) *streamEngine {
	s := &streamEngine{}
	s.eng = NewEngine(WithEffort(1), WithShrink(8), WithWorkers(workers),
		WithProgress(func(ev Event) { s.global = append(s.global, streamLine(ev)) }))
	return s
}

// call runs fn with a per-call ContextWithProgress observer and returns
// the rendered events, failing unless the engine-wide callback saw exactly
// the same sequence.
func (s *streamEngine) call(t *testing.T, name string, fn func(ctx context.Context, eng *Engine) error) []string {
	t.Helper()
	s.global = nil
	var perCall []string
	ctx := ContextWithProgress(context.Background(), func(ev Event) { perCall = append(perCall, streamLine(ev)) })
	if err := fn(ctx, s.eng); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !slices.Equal(s.global, perCall) {
		t.Fatalf("%s: WithProgress saw %d events, ContextWithProgress %d, or in another order", name, len(s.global), len(perCall))
	}
	return perCall
}

// streamDigest is the first 16 hex digits of the SHA-256 of the stream.
func streamDigest(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])[:16]
}

// TestEventStreamsPinned pins the normalized progress-event stream of
// every engine entry point: its length and digest, as delivered both to
// the engine-wide WithProgress callback and to a per-call
// ContextWithProgress observer. Single-worker engines run their graphs in
// depth-first creation order, so these streams are exact sequences; the
// two-worker sharded execution interleaves its task events and is
// compared as a sorted multiset.
func TestEventStreamsPinned(t *testing.T) {
	m, err := BenchmarkScaled("ctrl", 8)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewEngine(WithEffort(1)).Run(context.Background(), m, Full)
	if err != nil {
		t.Fatal(err)
	}
	prog := rep.Result.Program
	batch := RandomBatch(len(prog.PICells), 200, 1) // 4 chunks
	if batch.Chunks() < 2 {
		t.Fatalf("batch spans %d chunks, want several", batch.Chunks())
	}
	execute := func(ctx context.Context, eng *Engine) error {
		_, err := eng.ExecuteBatch(ctx, prog, batch, ExecOptions{})
		return err
	}

	got := map[string][]string{}
	runFull := func(ctx context.Context, eng *Engine) error {
		_, err := eng.Run(ctx, m, Full)
		return err
	}
	warm := newStreamEngine(1)
	got["run-cold"] = warm.call(t, "run-cold", runFull)
	got["run-warm"] = warm.call(t, "run-warm", runFull)
	got["run-all"] = newStreamEngine(1).call(t, "run-all", func(ctx context.Context, eng *Engine) error {
		_, err := eng.RunAll(ctx, m, TableIConfigs())
		return err
	})
	got["run-suite"] = newStreamEngine(1).call(t, "run-suite", func(ctx context.Context, eng *Engine) error {
		_, err := eng.RunSuite(ctx, TableIConfigs(), "ctrl", "dec")
		return err
	})
	got["explore"] = newStreamEngine(1).call(t, "explore", func(ctx context.Context, eng *Engine) error {
		_, err := eng.Explore(ctx, ExploreOptions{Benchmarks: []string{"ctrl", "dec"}, Efforts: []int{0, 1}})
		return err
	})
	got["rewrite"] = newStreamEngine(1).call(t, "rewrite", func(ctx context.Context, eng *Engine) error {
		_, _, err := eng.Rewrite(ctx, m, RewriteAlgorithm2)
		return err
	})
	got["execute"] = newStreamEngine(1).call(t, "execute", execute)
	sharded := newStreamEngine(2).call(t, "execute-sharded", execute)
	slices.Sort(sharded)
	got["execute-sharded"] = sharded

	want := map[string]struct {
		n      int
		digest string
	}{
		"run-cold":        {7, "8166a8c2f913c067"},
		"run-warm":        {6, "444f63c55222c758"},
		"run-all":         {28, "4e32be9dfd37181f"},
		"run-suite":       {68, "5f5294ac6c2c34e4"},
		"explore":         {112, "7140b1ec6b38b649"},
		"rewrite":         {1, "cb6dad7b0391d854"},
		"execute":         {4, "d908840ec24655f8"},
		"execute-sharded": {8, "1517e63f8af3ceb8"},
	}
	for name, w := range want {
		lines := got[name]
		if n, d := len(lines), streamDigest(lines); n != w.n || d != w.digest {
			t.Errorf("%s: %d events, digest %s; want %d, %s\n%s", name, n, d, w.n, w.digest, strings.Join(lines, "\n"))
		}
	}
}
