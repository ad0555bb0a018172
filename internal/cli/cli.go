// Package cli is the front end the plim commands share: the -cache-dir
// flag, a command's engine built from its flags with the -v event printer,
// the -bench/-in graph loader and the run epilogue that writes -trace and
// prints the cache summary line; plus the fatal exit, comma lists, cost
// models, program files and output files.
package cli

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"plim"
)

// Fatal prints err to stderr and exits with status 1.
func Fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// CacheDirFlag defines the -cache-dir flag of the engine commands.
func CacheDirFlag() *string {
	return flag.String("cache-dir", os.Getenv("PLIM_CACHE_DIR"),
		"persistent cache directory shared by the plim commands (default $PLIM_CACHE_DIR; empty = off)")
}

// Run is a command's engine front end: its shared flags as parsed, and the
// steps before and after the command's own work.
type Run struct {
	Tool     string // command name, prefixing the refusals below
	CacheDir string // -cache-dir ("" = no persistent cache)
	Trace    string // -trace output file ("" = tracing off)
	Verbose  bool   // -v: print progress events, and the span tree with -trace
	Quiet    bool   // -q: overrides -v and drops the cache summary line
	// Skip drops the events -v does not print; nil prints them all.
	Skip func(plim.Event) bool
}

// Engine builds the command's engine: opts plus the persistent cache,
// tracing when -trace is set and, under -v, the event printer, which
// writes each event Skip keeps to stderr as its FormatEvent line.
func (r Run) Engine(opts ...plim.Option) *plim.Engine {
	opts = append(opts, plim.WithPersistentCache(r.CacheDir), plim.WithTrace(r.Trace != ""))
	if r.Verbose && !r.Quiet {
		opts = append(opts, plim.WithProgress(func(ev plim.Event) {
			if r.Skip == nil || !r.Skip(ev) {
				fmt.Fprintln(os.Stderr, plim.FormatEvent(ev))
			}
		}))
	}
	return plim.NewEngine(opts...)
}

// Graph loads the graph a command works on: benchmark bench at shrink,
// through eng's caches, or the .mig netlist at path. Exactly one of them
// must be set; a command with a -list flag points to it when neither is.
func (r Run) Graph(ctx context.Context, eng *plim.Engine, bench string, shrink int, path string) (*plim.MIG, error) {
	switch {
	case bench != "" && path != "":
		return nil, fmt.Errorf("%s: use either -bench or -in, not both", r.Tool)
	case bench != "":
		return eng.Benchmark(ctx, bench, shrink)
	case path != "":
		return ReadNetlist(path)
	case flag.Lookup("list") != nil:
		return nil, fmt.Errorf("%s: need -bench or -in (try -list)", r.Tool)
	}
	return nil, fmt.Errorf("%s: need -bench or -in", r.Tool)
}

// ReadNetlist reads the .mig netlist at path.
func ReadNetlist(path string) (*plim.MIG, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return plim.ReadMIG(f)
}

// Finish is the run epilogue: it writes the -trace file (under -v also the
// span tree, on stderr) and prints the persistent cache's summary line.
// -q drops the tree and the summary, not the file.
func (r Run) Finish(eng *plim.Engine) error {
	if r.Trace != "" {
		tr := eng.TakeTrace()
		if tr == nil {
			return fmt.Errorf("%s: -trace: no spans recorded", r.Tool)
		}
		if err := WriteFile(r.Trace, tr.WriteChrome); err != nil {
			return err
		}
		if r.Verbose && !r.Quiet {
			fmt.Fprintln(os.Stderr, "trace:")
			tr.Render(os.Stderr)
		}
	}
	if s, ok := eng.CacheSummary(); ok && !r.Quiet {
		fmt.Fprintln(os.Stderr, s)
	}
	return nil
}

// SplitList splits a comma-separated flag value, trimming blanks and
// dropping empty elements.
func SplitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// CostModel reads the JSON cost model a -cost-model flag names, or returns
// the built-in model when path is empty.
func CostModel(path string) (*plim.CostModel, error) {
	if path == "" {
		return plim.DefaultCostModel(), nil
	}
	return plim.LoadCostModel(path)
}

// ReadProgram reads the compiled program at path. format "bin" or "asm"
// forces the binary encoding or assembly text; "auto" tells them apart by
// the binary encoding's "PLIM" magic, whatever the file is named. The
// bytes may come from anywhere: the codecs refuse a malformed program with
// an error.
func ReadProgram(path, format string) (*plim.Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if format == "auto" {
		format = "asm"
		if bytes.HasPrefix(data, []byte("PLIM")) {
			format = "bin"
		}
	}
	var p *plim.Program
	switch format {
	case "bin":
		p, err = plim.ReadProgram(bytes.NewReader(data))
	case "asm":
		p, err = plim.ReadProgramAsm(bytes.NewReader(data))
	default:
		return nil, fmt.Errorf("unknown -format %q (want auto, bin or asm)", format)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// Output opens what an -o or -out flag names: the file at path, created
// or truncated, or stdout when path is empty.
func Output(path string) (io.WriteCloser, error) {
	if path == "" {
		return os.Stdout, nil
	}
	return os.Create(path)
}

// WriteFile creates path and fills it with write, returning the first
// error of the create, the write or the close.
func WriteFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
