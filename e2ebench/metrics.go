package main

import (
	"plim"
)

// endToEndUnits names every end-to-end metric with its unit, as declared in
// BENCHMARK.json.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"p50_ms":           "ms",
	"p75_ms":           "ms",
	"throughput_per_s": "1/s",
	"alloc_mb_per_op":  "MB",
	"heap_p90_mb":      "MB",
	"sim_instructions": "count",
	"sim_rrams":        "count",
	"sim_write_stdev":  "writes",
	"sim_max_writes":   "writes",
}

// perLayerUnits names every per-layer metric with its unit, as declared in
// BENCHMARK.json. Span-derived times and counts are means per traced op;
// counter deltas are totals over the untraced segment.
var perLayerUnits = map[string]string{
	"client.p99_ms":           "ms",
	"client.sent":             "count",
	"client.ok":               "count",
	"client.failed":           "count",
	"server.http_ms":          "ms",
	"server.encode_ms":        "ms",
	"server.request_self_ms":  "ms",
	"server.coalesced_ratio":  "ratio",
	"server.rejected":         "count",
	"sched.queue_wait_ms":     "ms",
	"sched.queue_wait_p95_ms": "ms",
	"sched.busy_ratio":        "ratio",
	"sched.steals":            "count",
	"engine.call_self_ms":     "ms",
	"generate.self_ms":        "ms",
	"generate.count":          "count/op",
	"cache.memory_hit_ratio":  "ratio",
	"cache.disk_hit_ms":       "ms",
	"cache.compute_self_ms":   "ms",
	"diskcache.hit_ratio":     "ratio",
	"diskcache.stores":        "count",
	"diskcache.verify_misses": "count",
	"rewrite.self_ms":         "ms",
	"rewrite.count":           "count/op",
	"rewrite.cycles":          "count/op",
	"compile.self_ms":         "ms",
	"compile.count":           "count/op",
	"compile.ns_per_inst":     "ns",
	"exec.self_ms":            "ms",
	"exec.chunks":             "count/op",
	"exec.ns_per_lane_inst":   "ns",
	"mig.parse_ms":            "ms",
	"runtime.allocs_per_op":   "count/op",
	"runtime.gc_cpu_ratio":    "ratio",
	"trace.coverage":          "ratio",
	"trace.overhead_ratio":    "ratio",
}

// minCoverage is the share of the program's root span time its child spans
// must explain; below it the layer breakdown does not add up and the traced
// run fails.
const minCoverage = 0.95

// counters are monotone program counters, differenced around a segment.
type counters map[string]float64

// engineCounters snapshots an engine's cache probes, persistent-tier
// accounting and scheduler totals.
func engineCounters(e *plim.Engine) counters {
	c := counters{}
	hits, misses := e.MemoryCacheProbes()
	c["mem_hits"], c["mem_misses"] = float64(hits), float64(misses)
	if d, ok := e.PersistentCacheStats(); ok {
		c["disk_hits"] = float64(d.RewriteHits + d.BenchmarkHits)
		c["disk_misses"] = float64(d.RewriteMisses + d.BenchmarkMisses)
		c["stores"] = float64(d.Stores)
		c["verify_misses"] = float64(d.VerifyMisses)
	}
	st := e.SchedulerStats()
	for _, h := range st.Latency {
		c["busy_s"] += h.SumSeconds
	}
	for _, n := range st.Steals {
		c["steals"] += float64(n)
	}
	return c
}

func (c counters) sub(b counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - b[k]
	}
	return out
}

func (c counters) add(b counters) {
	for k, v := range b {
		c[k] += v
	}
}

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b float64) float64 { return nan0(a / (a + b)) }

// quality is the paper's outcome on a workload's reference functions: total
// #I and #R over every compiled cell, and the mean write STDEV and maximum
// writes per device over the cells compiled under the full policy.
type quality struct {
	instructions, rrams int
	stdev, maxWrites    float64
	full                int
}

func (q *quality) add(config string, instructions, rrams int, stdev float64, maxWrites uint64) {
	q.instructions += instructions
	q.rrams += rrams
	if config == plim.Full.Name {
		q.stdev += stdev
		q.maxWrites += float64(maxWrites)
		q.full++
	}
}

func (q *quality) addSuite(sr *plim.SuiteResult) {
	for _, row := range sr.Reports {
		for _, rep := range row {
			q.add(rep.Config.Name, rep.NumInstructions(), rep.NumRRAMs(), rep.Writes.StdDev, rep.Writes.Max)
		}
	}
}

// layerMetrics computes the per-layer metrics from an untraced segment u
// with its counter deltas cu and a traced segment t with its spans l and
// counter deltas ct.
func layerMetrics(u, t segment, l *layers, cu, ct counters, workers int) map[string]float64 {
	ops := float64(max(l.ops, 1))
	return map[string]float64{
		"client.p99_ms":           nan0(percentile(u.lat, 0.99)),
		"client.sent":             float64(u.attempted),
		"client.ok":               float64(u.attempted - u.failed),
		"client.failed":           float64(u.failed),
		"server.http_ms":          l.perOp("client"),
		"server.encode_ms":        l.perOp("server.encode"),
		"server.request_self_ms":  l.perOp("server.request"),
		"server.coalesced_ratio":  ratio(cu["coalesced"], cu["flights"]),
		"server.rejected":         cu["rejected"],
		"sched.queue_wait_ms":     nan0(mean(l.queueWaits)),
		"sched.queue_wait_p95_ms": nan0(percentile(l.queueWaits, 0.95)),
		"sched.busy_ratio":        nan0(cu["busy_s"] / (u.wall.Seconds() * float64(workers))),
		"sched.steals":            cu["steals"],
		"engine.call_self_ms":     l.perOp("engine.call"),
		"generate.self_ms":        l.perOp("generate"),
		"generate.count":          l.countPerOp("generate"),
		"cache.memory_hit_ratio":  ratio(cu["mem_hits"], cu["mem_misses"]),
		"cache.disk_hit_ms":       l.perOp("cache.disk-hit"),
		"cache.compute_self_ms":   l.perOp("cache.compute"),
		"diskcache.hit_ratio":     ratio(cu["disk_hits"], cu["disk_misses"]),
		"diskcache.stores":        cu["stores"],
		"diskcache.verify_misses": cu["verify_misses"],
		"rewrite.self_ms":         l.perOp("rewrite"),
		"rewrite.count":           l.countPerOp("rewrite"),
		"rewrite.cycles":          ct["rewrite_cycles"] / ops,
		"compile.self_ms":         l.perOp("compile"),
		"compile.count":           l.countPerOp("compile"),
		"compile.ns_per_inst":     nan0(l.self["compile"] * 1e6 / l.compileIns),
		"exec.self_ms":            l.perOp("exec"),
		"exec.chunks":             float64(l.chunks) / ops,
		"exec.ns_per_lane_inst":   nan0(l.self["exec"] * 1e6 / l.laneIns),
		"mig.parse_ms":            0,
		"runtime.allocs_per_op":   nan0(u.rt.allocObjects / float64(u.attempted)),
		"runtime.gc_cpu_ratio":    nan0(u.rt.gcCPU / u.rt.totalCPU),
		"trace.coverage":          nan0(l.coverage()),
		"trace.overhead_ratio":    nan0(median(t.lat) / median(u.lat)),
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
