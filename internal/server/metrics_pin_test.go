package server

import (
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"plim"
)

// TestMetricsSeriesPinned pins what /metrics reports after a fixed
// workload on a one-worker engine: a compile, a 100-vector random execute
// and an endurance-faulting exhaustive execute. It pins the set of series
// (name plus label names, label values dropped), every histogram bucket
// bound in rendered order, and the exact values of the counters the
// workload determines, so moving where a quantity is recorded cannot
// change what /metrics reports.
func TestMetricsSeriesPinned(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{}, plim.WithWorkers(1))
	for _, rq := range []struct{ path, body string }{
		{"/v1/compile", `{"benchmark":"ctrl"}`},
		{"/v1/execute", `{"benchmark":"ctrl","random":100}`},
		{"/v1/execute", `{"benchmark":"ctrl","exhaustive":true,"endurance":1}`},
	} {
		if resp, b := postJSON(t, ts.URL+rq.path, rq.body, nil); resp.StatusCode != 200 {
			t.Fatalf("%s %s: %d %s", rq.path, rq.body, resp.StatusCode, b)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	samples, _, _ := parseExposition(t, string(b))

	series := map[string]bool{}
	bounds := map[string][]string{} // series without its le label → le values in order
	values := map[string]float64{}
	for _, s := range samples {
		var names, pairs []string
		for k, v := range s.labels {
			names = append(names, k)
			if k != "le" {
				pairs = append(pairs, k+"="+v)
			}
		}
		sort.Strings(names)
		sort.Strings(pairs)
		series[s.name+"{"+strings.Join(names, ",")+"}"] = true
		id := s.name + "{" + strings.Join(pairs, ",") + "}"
		if le, ok := s.labels["le"]; ok {
			bounds[id] = append(bounds[id], le)
		}
		switch s.name {
		case "plimserve_execute_vectors_total", "plimserve_execute_chunks_total", "plimserve_execute_lane_slots_total",
			"plimserve_progress_events_total", "plimserve_flights_total",
			"plimserve_request_seconds_count", "plimserve_sched_task_seconds_count":
			values[id] = s.value
		}
	}

	gotSeries := make([]string, 0, len(series))
	for k := range series {
		gotSeries = append(gotSeries, k)
	}
	sort.Strings(gotSeries)
	wantSeries := []string{
		"plimserve_admission_rejected_total{}",
		"plimserve_build_info{go_version,version}",
		"plimserve_cache_memory_entries{kind}",
		"plimserve_cache_probe_total{outcome,tier}",
		"plimserve_coalesced_requests_total{}",
		"plimserve_execute_chunks_total{}",
		"plimserve_execute_lane_slots_total{}",
		"plimserve_execute_vectors_total{}",
		"plimserve_flights_total{}",
		"plimserve_inflight_computations{}",
		"plimserve_progress_events_total{type}",
		"plimserve_queued_computations{}",
		"plimserve_request_seconds_bucket{le,route}",
		"plimserve_request_seconds_count{route}",
		"plimserve_request_seconds_sum{route}",
		"plimserve_requests_total{code,route}",
		"plimserve_sched_injector_max_wait_seconds{}",
		"plimserve_sched_runnable_tasks{}",
		"plimserve_sched_task_seconds_bucket{kind,le}",
		"plimserve_sched_task_seconds_count{kind}",
		"plimserve_sched_task_seconds_sum{kind}",
		"plimserve_sched_worker_steals_total{worker}",
	}
	if !reflect.DeepEqual(gotSeries, wantSeries) {
		t.Errorf("series set:\ngot  %q\nwant %q", gotSeries, wantSeries)
	}

	requestLE := []string{"0.001", "0.005", "0.01", "0.025", "0.05", "0.1", "0.25", "0.5", "1", "2.5", "5", "10", "30", "60", "120", "+Inf"}
	taskLE := []string{"0.0001", "0.0005", "0.001", "0.005", "0.01", "0.05", "0.1", "0.5", "1", "5", "30", "+Inf"}
	wantBounds := map[string][]string{
		"plimserve_request_seconds_bucket{route=compile}":   requestLE,
		"plimserve_request_seconds_bucket{route=execute}":   requestLE,
		"plimserve_sched_task_seconds_bucket{kind=compile}": taskLE,
		"plimserve_sched_task_seconds_bucket{kind=rewrite}": taskLE,
	}
	if !reflect.DeepEqual(bounds, wantBounds) {
		t.Errorf("bucket bounds:\ngot  %q\nwant %q", bounds, wantBounds)
	}

	// 100 random vectors in 2 chunks plus ctrl's 2^7 exhaustive vectors in
	// 2 chunks; the faulting batch still evaluates every chunk.
	wantValues := map[string]float64{
		"plimserve_execute_vectors_total{}":                   228,
		"plimserve_execute_chunks_total{}":                    4,
		"plimserve_execute_lane_slots_total{}":                256,
		"plimserve_flights_total{}":                           3,
		"plimserve_progress_events_total{type=compile_start}": 3,
		"plimserve_progress_events_total{type=compile_done}":  3,
		"plimserve_progress_events_total{type=execute_chunk}": 4,
		"plimserve_progress_events_total{type=rewrite_cycle}": 2,
		"plimserve_progress_events_total{type=task_start}":    6,
		"plimserve_progress_events_total{type=task_done}":     6,
		"plimserve_request_seconds_count{route=compile}":      1,
		"plimserve_request_seconds_count{route=execute}":      2,
		"plimserve_sched_task_seconds_count{kind=compile}":    3,
		"plimserve_sched_task_seconds_count{kind=rewrite}":    3,
	}
	if !reflect.DeepEqual(values, wantValues) {
		t.Errorf("pinned values:\ngot  %v\nwant %v", values, wantValues)
	}
}

// TestCountEventAllocatesNothing pins event counting at zero allocations:
// countEvent reads the event's name and, for a batch's last chunk, its
// sizes, and builds no SSE payload. A 4096-vector execute publishes 64
// chunk events, and every scheduler task two more.
func TestCountEventAllocatesNothing(t *testing.T) {
	m := newMetrics()
	for _, ev := range []plim.Event{
		plim.EventExecuteChunk{Program: "ctrl", Done: 1, Total: 2, Vectors: 100},
		plim.EventExecuteChunk{Program: "ctrl", Done: 2, Total: 2, Vectors: 100},
		plim.EventTaskStart{Kind: "compile", Label: "full"},
		plim.EventTaskDone{Kind: "compile", Label: "full", Elapsed: time.Millisecond},
		plim.EventCompileDone{Function: "ctrl", Config: "full", Instructions: 81, RRAMs: 21},
	} {
		m.countEvent(ev) // the first count of a type adds its map entry
		if n := testing.AllocsPerRun(100, func() { m.countEvent(ev) }); n != 0 {
			t.Errorf("countEvent(%s) allocates %v times per event, want 0", ev.Name(), n)
		}
	}
}
