// Package cli holds what the plim command-line tools share: the fatal
// exit, program-file input, file output and -trace export.
package cli

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"plim"
)

// Fatal prints err to stderr and exits with status 1.
func Fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
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

// WriteTrace exports the spans eng recorded (see plim.WithTrace) to path
// as Chrome trace-event JSON, loadable in Perfetto or chrome://tracing.
// With tree set it also renders the span tree to stderr below a "trace:"
// line. tool names the command in the error for a trace with no spans.
func WriteTrace(eng *plim.Engine, tool, path string, tree bool) error {
	tr := eng.TakeTrace()
	if tr == nil {
		return fmt.Errorf("%s: -trace: no spans recorded", tool)
	}
	if err := WriteFile(path, tr.WriteChrome); err != nil {
		return err
	}
	if tree {
		fmt.Fprintln(os.Stderr, "trace:")
		tr.Render(os.Stderr)
	}
	return nil
}
