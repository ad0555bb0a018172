package cli

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"plim"
)

// stderrOf runs f with os.Stderr redirected to a file and returns what f
// wrote there.
func stderrOf(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stderr
	os.Stderr = tmp
	defer func() { os.Stderr = saved }()
	f()
	b, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSplitList(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"ctrl", []string{"ctrl"}},
		{"ctrl,dec", []string{"ctrl", "dec"}},
		{" ctrl , dec ", []string{"ctrl", "dec"}},
		{"ctrl,,dec,", []string{"ctrl", "dec"}},
		{" , ,", nil},
	} {
		if got := SplitList(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SplitList(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestGraphLoadsEitherSource(t *testing.T) {
	ctx := context.Background()
	run := Run{Tool: "tool"}
	eng := run.Engine()
	m, err := run.Graph(ctx, eng, "ctrl", 8, "")
	if err != nil || m.Name != "ctrl" {
		t.Fatalf("benchmark: %v, %v", m, err)
	}
	path := filepath.Join(t.TempDir(), "ctrl.mig")
	if err := WriteFile(path, m.Write); err != nil {
		t.Fatal(err)
	}
	n, err := run.Graph(ctx, eng, "", 0, path)
	if err != nil || n.Fingerprint() != m.Fingerprint() {
		t.Fatalf("netlist: %v, %v", n, err)
	}
}

func TestGraphRefusals(t *testing.T) {
	ctx := context.Background()
	run := Run{Tool: "tool"}
	eng := run.Engine()
	missing := filepath.Join(t.TempDir(), "missing.mig")
	for _, tc := range []struct {
		name, bench, path, want string
	}{
		{"both sources", "ctrl", missing, "tool: use either -bench or -in, not both"},
		{"neither source", "", "", "tool: need -bench or -in"},
		{"unknown benchmark", "nope", "", `unknown benchmark "nope"`},
		{"unreadable file", "", missing, missing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := run.Graph(ctx, eng, tc.bench, 8, tc.path)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, %v; want an error containing %q", m, err, tc.want)
			}
		})
	}
	if _, err := run.Graph(ctx, eng, "", 0, missing); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("unreadable file: %v, want fs.ErrNotExist", err)
	}
}

// TestPrinterFilter drives a compile through the -v printer: every event
// the filter keeps is one FormatEvent line, the rest are dropped, and -q
// silences the printer altogether.
func TestPrinterFilter(t *testing.T) {
	skipTasks := func(ev plim.Event) bool {
		switch ev.(type) {
		case plim.EventTaskStart, plim.EventTaskDone:
			return true
		}
		return false
	}
	compile := func(run Run) string {
		return stderrOf(t, func() {
			eng := run.Engine(plim.WithEffort(1), plim.WithWorkers(1))
			ctx := context.Background()
			m, err := eng.Benchmark(ctx, "ctrl", 8)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(ctx, m, plim.Full); err != nil {
				t.Fatal(err)
			}
		})
	}

	all := compile(Run{Verbose: true})
	for _, want := range []string{"rewrite ctrl/full: cycle 1/1", "compile ctrl/full: start", "task compile full: done"} {
		if !strings.Contains(all, want) {
			t.Errorf("unfiltered -v output lacks %q:\n%s", want, all)
		}
	}
	filtered := compile(Run{Verbose: true, Skip: skipTasks})
	if strings.Contains(filtered, "task ") || !strings.Contains(filtered, "compile ctrl/full: start") {
		t.Errorf("filtered -v output keeps a task event or drops the rest:\n%s", filtered)
	}
	var kept []string
	for _, line := range strings.Split(all, "\n") {
		if !strings.HasPrefix(line, "task ") {
			kept = append(kept, line)
		}
	}
	if got := maskTimes(filtered); got != maskTimes(strings.Join(kept, "\n")) {
		t.Errorf("filtered output is not the unfiltered output minus task lines:\n%s", got)
	}
	if out := compile(Run{Verbose: true, Quiet: true}) + compile(Run{}); out != "" {
		t.Errorf("-v -q or no -v printed events:\n%s", out)
	}
}

// maskTimes blanks the elapsed times FormatEvent prints.
func maskTimes(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(s, "\n") {
		if i := strings.LastIndex(line, " in "); i >= 0 {
			line = line[:i]
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}

// TestFinishSummary: the epilogue prints the persistent cache's summary
// line over a temp cache directory, and nothing under -q or without a
// cache directory.
func TestFinishSummary(t *testing.T) {
	dir := t.TempDir()
	finish := func(run Run) string {
		eng := run.Engine()
		if _, err := eng.Benchmark(context.Background(), "ctrl", 8); err != nil {
			t.Fatal(err)
		}
		return stderrOf(t, func() {
			if err := run.Finish(eng); err != nil {
				t.Fatal(err)
			}
		})
	}
	want := "persistent cache: rewrite 0 hits / 0 misses, benchmark 0 hits / 1 misses, compile 0 hits / 0 misses, 1 stores (dir " + dir + ")\n"
	if got := finish(Run{CacheDir: dir}); got != want {
		t.Errorf("cold summary %q, want %q", got, want)
	}
	want = "persistent cache: rewrite 0 hits / 0 misses, benchmark 1 hits / 0 misses, compile 0 hits / 0 misses, 0 stores (dir " + dir + ")\n"
	if got := finish(Run{CacheDir: dir}); got != want {
		t.Errorf("warm summary %q, want %q", got, want)
	}
	if got := finish(Run{CacheDir: dir, Quiet: true}); got != "" {
		t.Errorf("-q printed %q", got)
	}
	if got := finish(Run{}); got != "" {
		t.Errorf("no cache directory, yet printed %q", got)
	}
}

// TestFinishTrace: the epilogue writes -trace as Chrome trace-event JSON,
// adds the span tree under -v (not with -q), and refuses a trace that
// recorded nothing.
func TestFinishTrace(t *testing.T) {
	for _, tc := range []struct {
		name     string
		verbose  bool
		quiet    bool
		wantTree bool
	}{
		{"plain", false, false, false},
		{"verbose", true, false, true},
		{"verbose quiet", true, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := Run{Tool: "tool", Trace: filepath.Join(t.TempDir(), "trace.json"), Verbose: tc.verbose, Quiet: tc.quiet}
			eng := run.Engine()
			if _, err := eng.Benchmark(context.Background(), "ctrl", 8); err != nil {
				t.Fatal(err)
			}
			out := stderrOf(t, func() {
				if err := run.Finish(eng); err != nil {
					t.Fatal(err)
				}
			})
			if got := strings.HasPrefix(out, "trace:\n"); got != tc.wantTree {
				t.Errorf("span tree printed %v, want %v:\n%s", got, tc.wantTree, out)
			}
			b, err := os.ReadFile(run.Trace)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct{ TraceEvents []struct{ Cat string } }
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatalf("trace is not JSON: %v", err)
			}
			generate := false
			for _, ev := range doc.TraceEvents {
				generate = generate || ev.Cat == "generate"
			}
			if !generate {
				t.Errorf("trace has no generate span: %s", b)
			}
		})
	}
	run := Run{Tool: "tool", Trace: filepath.Join(t.TempDir(), "empty.json")}
	if err := run.Finish(run.Engine()); err == nil || err.Error() != "tool: -trace: no spans recorded" {
		t.Fatalf("empty trace: %v", err)
	}
}
