package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdicts of a comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge compares the change's runs of one metric with the parent's, paired
// by index (run i of each side forms pair i; alternate which side runs
// first). A metric whose parent spread (quartile distance over median)
// exceeds its bound is unresolved unless every change run beats every
// parent run. It regressed when the change's median is worse than the
// parent's by more than bound. It improved when at least ten pairs were run,
// the change wins nine tenths of them (ties count for neither) and the
// medians differ by more than the parent's quartile distance.
func judge(base, change []float64, lowerBetter bool, bound float64) string {
	n := min(len(base), len(change))
	if n < 2 {
		return unresolved
	}
	base, change = base[:n], change[:n]
	better := func(c, b float64) bool {
		if lowerBetter {
			return c < b
		}
		return c > b
	}
	mb, mc := median(base), median(change)
	spread := iqr(base)
	worse := (mc - mb) / math.Abs(mb)
	if mb == 0 {
		worse = mc - mb
	}
	if !lowerBetter {
		worse = -worse
	}
	if spread > bound*math.Abs(mb) {
		allBetter := true
		for _, c := range change {
			for _, b := range base {
				allBetter = allBetter && better(c, b)
			}
		}
		if allBetter {
			return improved
		}
		return unresolved
	}
	if worse > bound {
		return regressed
	}
	wins := 0
	for i := range n {
		if better(change[i], base[i]) {
			wins++
		}
	}
	if n >= 10 && 10*wins >= 9*n && math.Abs(mc-mb) > spread && worse < 0 {
		return improved
	}
	return unchanged
}

// readRuns reads one recorded run per line: the JSON result line the
// benchmark prints last.
func readRuns(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// runCompare compares the recorded runs in two directories, "base,change",
// each holding <workload>.jsonl files of trace-0 results, under the bounds
// of the BENCHMARK.json at specPath. It prints one row per workload and
// end-to-end metric and returns 1 when any metric regressed or a run was
// incorrect.
func runCompare(dirs, specPath string, out io.Writer) int {
	baseDir, changeDir, ok := strings.Cut(dirs, ",")
	spec, err := readSpec(specPath)
	if err == nil && !ok {
		err = errors.New("--compare wants two directories: base,change")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	status := 0
	fmt.Fprintf(out, "%-18s %-18s %14s %14s %9s %5s  %s\n", "workload", "metric", "base median", "change median", "delta", "pairs", "verdict")
	for _, w := range spec.Workloads {
		base, err1 := readRuns(filepath.Join(baseDir, w.Name+".jsonl"))
		change, err2 := readRuns(filepath.Join(changeDir, w.Name+".jsonl"))
		if err := errors.Join(err1, err2); err != nil {
			fmt.Fprintf(out, "%-18s %v\n", w.Name, err)
			status = 1
			continue
		}
		for _, r := range append(append([]result(nil), base...), change...) {
			if !r.Correct || r.Failed > 0 {
				fmt.Fprintf(out, "%-18s incorrect run: %d of %d operations failed\n", w.Name, r.Failed, r.Attempted)
				status = 1
			}
		}
		for _, m := range spec.EndToEnd {
			b, c := values(base, m.Name), values(change, m.Name)
			v := judge(b, c, m.Better == "lower", m.Bound)
			if v == regressed {
				status = 1
			}
			mb, mc := median(b), median(c)
			fmt.Fprintf(out, "%-18s %-18s %14.6g %14.6g %+8.2f%% %5d  %s\n",
				w.Name, m.Name, mb, mc, 100*(mc-mb)/math.Abs(mb), min(len(b), len(c)), v)
		}
	}
	return status
}

func values(runs []result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
