package server

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"plim"
	"plim/internal/sched"
	"plim/internal/stats"
)

// latencyBuckets are the upper bounds (seconds) of the request-latency
// histogram, spanning sub-millisecond cache hits to multi-minute paper-scale
// rewrites.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}

// metrics aggregates the server's operational counters. All mutation goes
// through the mutex; gauges (queue depth, cache sizes) are read live at
// render time.
type metrics struct {
	mu        sync.Mutex
	requests  map[string]uint64         // "route|code" → count
	latency   map[string]*stats.Latency // route → latency histogram
	events    map[string]uint64         // progress event type → count
	flights   uint64                    // computations started (coalescing leaders)
	coalesced uint64                    // requests attached to an in-flight computation
	rejected  uint64                    // admission rejections (429)

	// Batched-execution throughput, counted from each batch's last chunk
	// event: vectors evaluated and 64-lane chunks processed (lane slots
	// offered are chunks × 64). vectors/lane slots is the batch occupancy;
	// rate(vectors) is the serving vectors/sec.
	execVectors uint64
	execChunks  uint64
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[string]uint64),
		latency:  make(map[string]*stats.Latency),
		events:   make(map[string]uint64),
	}
}

func (m *metrics) observeRequest(route string, code int, elapsed time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[fmt.Sprintf("%s|%d", route, code)]++
	h := m.latency[route]
	if h == nil {
		h = stats.NewLatency(latencyBuckets)
		m.latency[route] = h
	}
	h.Observe(elapsed)
}

// countEvent counts one flight progress event by type. A batch's last
// chunk event (Done == Total) also adds the batch to the execute counters,
// so they come from the same stream as the execute_chunk count.
func (m *metrics) countEvent(ev plim.Event) {
	name, _ := eventPayload(ev)
	m.mu.Lock()
	m.events[name]++
	if c, ok := ev.(plim.EventExecuteChunk); ok && c.Done == c.Total {
		m.execVectors += uint64(c.Vectors)
		m.execChunks += uint64(c.Total)
	}
	m.mu.Unlock()
}

func (m *metrics) flightStarted() {
	m.mu.Lock()
	m.flights++
	m.mu.Unlock()
}

func (m *metrics) requestCoalesced() {
	m.mu.Lock()
	m.coalesced++
	m.mu.Unlock()
}

func (m *metrics) admissionRejected() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

// buildVersion resolves the module version stamped into the binary
// ("(devel)" for plain go build/test).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// header writes the HELP/TYPE preamble of one metric family. Every family
// rendered below goes through it, which is what the exposition-format test
// relies on to assert HELP/TYPE pairing.
func header(b *strings.Builder, name, kind, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// render produces the Prometheus text exposition of every counter plus the
// live gauges supplied by the server (admission occupancy, cache state).
// Output is deterministically ordered so scrapes and tests are stable.
func (m *metrics) render(s *Server) string {
	var b strings.Builder

	header(&b, "plimserve_build_info", "gauge", "Build metadata carried in labels; the value is always 1.")
	fmt.Fprintf(&b, "plimserve_build_info{go_version=%q,version=%q} 1\n", runtime.Version(), buildVersion())

	m.mu.Lock()
	writeSorted := func(rows map[string]string) {
		keys := make([]string, 0, len(rows))
		for k := range rows {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, rows[k])
		}
	}

	reqRows := make(map[string]string, len(m.requests))
	for k, v := range m.requests {
		route, code, _ := strings.Cut(k, "|")
		reqRows[fmt.Sprintf("plimserve_requests_total{route=%q,code=%q}", route, code)] = fmt.Sprint(v)
	}
	header(&b, "plimserve_requests_total", "counter", "Requests served, by route and HTTP status code.")
	writeSorted(reqRows)

	header(&b, "plimserve_request_seconds", "histogram", "Request latency, by route.")
	routes := make([]string, 0, len(m.latency))
	for r := range m.latency {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, route := range routes {
		writeHistogram(&b, "plimserve_request_seconds", "route", route, m.latency[route].Snapshot())
	}

	evRows := make(map[string]string, len(m.events))
	for k, v := range m.events {
		evRows[fmt.Sprintf("plimserve_progress_events_total{type=%q}", k)] = fmt.Sprint(v)
	}
	header(&b, "plimserve_progress_events_total", "counter", "Engine progress events published to flights, by event type.")
	writeSorted(evRows)

	header(&b, "plimserve_flights_total", "counter", "Computations started (coalescing leaders).")
	fmt.Fprintf(&b, "plimserve_flights_total %d\n", m.flights)
	header(&b, "plimserve_coalesced_requests_total", "counter", "Requests that attached to an already in-flight computation.")
	fmt.Fprintf(&b, "plimserve_coalesced_requests_total %d\n", m.coalesced)
	header(&b, "plimserve_admission_rejected_total", "counter", "Flights rejected by admission control (HTTP 429).")
	fmt.Fprintf(&b, "plimserve_admission_rejected_total %d\n", m.rejected)
	header(&b, "plimserve_execute_vectors_total", "counter", "Input vectors evaluated by /v1/execute.")
	fmt.Fprintf(&b, "plimserve_execute_vectors_total %d\n", m.execVectors)
	header(&b, "plimserve_execute_chunks_total", "counter", "64-lane execution chunks processed by /v1/execute.")
	fmt.Fprintf(&b, "plimserve_execute_chunks_total %d\n", m.execChunks)
	header(&b, "plimserve_execute_lane_slots_total", "counter", "Lane slots offered by processed chunks (chunks times 64).")
	fmt.Fprintf(&b, "plimserve_execute_lane_slots_total %d\n", 64*m.execChunks)
	m.mu.Unlock()

	// Live gauges: admission occupancy, the engine's task scheduler and the
	// two cache tiers.
	header(&b, "plimserve_inflight_computations", "gauge", "Flights currently computing (admission running set).")
	fmt.Fprintf(&b, "plimserve_inflight_computations %d\n", s.adm.running())
	header(&b, "plimserve_queued_computations", "gauge", "Flights admitted beyond the running set, waiting in the queue.")
	fmt.Fprintf(&b, "plimserve_queued_computations %d\n", s.adm.queuedWaiting())
	st := s.eng.SchedulerStats()
	header(&b, "plimserve_sched_runnable_tasks", "gauge", "Tasks runnable in the engine scheduler.")
	fmt.Fprintf(&b, "plimserve_sched_runnable_tasks %d\n", st.Runnable)
	header(&b, "plimserve_sched_runnable_tasks_by_kind", "gauge", "Tasks runnable in the engine scheduler, by task kind.")
	for _, k := range sched.Kinds() {
		if n, ok := st.RunnableByKind[k]; ok {
			fmt.Fprintf(&b, "plimserve_sched_runnable_tasks_by_kind{kind=%q} %d\n", k.String(), n)
		}
	}
	header(&b, "plimserve_sched_injector_max_wait_seconds", "gauge", "Age of the oldest task waiting in the scheduler injector.")
	fmt.Fprintf(&b, "plimserve_sched_injector_max_wait_seconds %g\n", st.MaxInjectorWaitSeconds)
	header(&b, "plimserve_sched_worker_steals_total", "counter", "Tasks stolen by each scheduler worker.")
	for i, n := range st.Steals {
		fmt.Fprintf(&b, "plimserve_sched_worker_steals_total{worker=\"%d\"} %d\n", i, n)
	}
	header(&b, "plimserve_sched_task_seconds", "histogram", "Scheduler task run time, by task kind.")
	for _, k := range sched.Kinds() {
		if h, ok := st.Latency[k]; ok { // a kind never executed renders no empty series
			writeHistogram(&b, "plimserve_sched_task_seconds", "kind", k.String(), h)
		}
	}
	rw, bench, comp := s.eng.MemoryCacheLens()
	header(&b, "plimserve_cache_memory_entries", "gauge", "Entries held by the in-memory cache tier, by kind.")
	fmt.Fprintf(&b, "plimserve_cache_memory_entries{kind=\"benchmark\"} %d\n", bench)
	fmt.Fprintf(&b, "plimserve_cache_memory_entries{kind=\"compile\"} %d\n", comp)
	fmt.Fprintf(&b, "plimserve_cache_memory_entries{kind=\"rewrite\"} %d\n", rw)

	// Probe outcomes across both tiers under one family, so hit ratios per
	// tier are a single PromQL expression. The disk tier's verify_miss is
	// the subset of probes rejected by fingerprint re-verification alone;
	// it is split out of miss so the outcomes partition the probes.
	diskStats, hasDisk := s.eng.PersistentCacheStats()
	header(&b, "plimserve_cache_probe_total", "counter", "Cache probes, by tier (memory, disk) and outcome (hit, miss, verify_miss).")
	mh, mm := s.eng.MemoryCacheProbes()
	fmt.Fprintf(&b, "plimserve_cache_probe_total{tier=\"memory\",outcome=\"hit\"} %d\n", mh)
	fmt.Fprintf(&b, "plimserve_cache_probe_total{tier=\"memory\",outcome=\"miss\"} %d\n", mm)
	if hasDisk {
		miss := diskStats.RewriteMisses + diskStats.BenchmarkMisses + diskStats.CompileMisses
		vm := diskStats.VerifyMisses
		if vm > miss { // racy snapshots: never render a negative miss count
			vm = miss
		}
		fmt.Fprintf(&b, "plimserve_cache_probe_total{tier=\"disk\",outcome=\"hit\"} %d\n", diskStats.RewriteHits+diskStats.BenchmarkHits+diskStats.CompileHits)
		fmt.Fprintf(&b, "plimserve_cache_probe_total{tier=\"disk\",outcome=\"miss\"} %d\n", miss-vm)
		fmt.Fprintf(&b, "plimserve_cache_probe_total{tier=\"disk\",outcome=\"verify_miss\"} %d\n", vm)
	}

	if hasDisk {
		st := diskStats
		header(&b, "plimserve_cache_disk_hits_total", "counter", "Persistent cache loads served, by kind.")
		fmt.Fprintf(&b, "plimserve_cache_disk_hits_total{kind=\"benchmark\"} %d\n", st.BenchmarkHits)
		fmt.Fprintf(&b, "plimserve_cache_disk_hits_total{kind=\"compile\"} %d\n", st.CompileHits)
		fmt.Fprintf(&b, "plimserve_cache_disk_hits_total{kind=\"rewrite\"} %d\n", st.RewriteHits)
		header(&b, "plimserve_cache_disk_misses_total", "counter", "Persistent cache loads that missed (including verification failures), by kind.")
		fmt.Fprintf(&b, "plimserve_cache_disk_misses_total{kind=\"benchmark\"} %d\n", st.BenchmarkMisses)
		fmt.Fprintf(&b, "plimserve_cache_disk_misses_total{kind=\"compile\"} %d\n", st.CompileMisses)
		fmt.Fprintf(&b, "plimserve_cache_disk_misses_total{kind=\"rewrite\"} %d\n", st.RewriteMisses)
		header(&b, "plimserve_cache_disk_stores_total", "counter", "Persistent cache entries written.")
		fmt.Fprintf(&b, "plimserve_cache_disk_stores_total %d\n", st.Stores)
		header(&b, "plimserve_cache_disk_store_errors_total", "counter", "Persistent cache writes that failed.")
		fmt.Fprintf(&b, "plimserve_cache_disk_store_errors_total %d\n", st.StoreErrors)
	}
	return b.String()
}

// writeHistogram renders the series of histogram family name whose one
// label is label=value: cumulative buckets ending in +Inf, then sum and
// count.
func writeHistogram(b *strings.Builder, name, label, value string, h stats.LatencySnapshot) {
	var cum uint64
	for i, n := range h.Buckets {
		le := "+Inf"
		if i < len(h.Bounds) {
			le = trimFloat(h.Bounds[i])
		}
		cum += n
		fmt.Fprintf(b, "%s_bucket{%s=%q,le=%q} %d\n", name, label, value, le, cum)
	}
	fmt.Fprintf(b, "%s_sum{%s=%q} %g\n", name, label, value, h.SumSeconds)
	fmt.Fprintf(b, "%s_count{%s=%q} %d\n", name, label, value, h.Count)
}

// trimFloat renders a bucket bound the way Prometheus clients expect
// (no trailing zeros: 0.0001, 0.25, 1, 30).
func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
