package main

import (
	"testing"
)

// TestWorkloadsSmoke runs every workload for about a second, untraced and
// traced, and checks that each declares exactly the metrics BENCHMARK.json
// declares, with their units, and that nothing failed.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", names, workloadNames)
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			res, _, err := run(config{workload: name, seed: 3, seconds: 1, traced: traced, setups: 1, scratch: t.TempDir()})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			want := e2e
			if traced {
				want = layer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, BENCHMARK.json declares %d", name, traced, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				if got, ok := res.Metrics[m]; !ok || got.Unit != unit {
					t.Errorf("%s (traced %v): metric %s = %+v, want unit %q", name, traced, m, got, unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if !traced {
				for _, m := range []string{"setup_s", "p50_ms", "throughput_per_s", "sim_instructions", "sim_max_writes"} {
					if res.Metrics[m].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, m, res.Metrics[m].Value)
					}
				}
			}
		}
	}
}
