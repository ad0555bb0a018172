package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plim"
	"plim/internal/trace"
)

// testServer builds a small fast engine (shrink 8) behind a Server and an
// httptest listener. The returned probe counts rewrite cycles and can gate
// the first one to hold a computation open while a test attaches more
// requests.
type testProbe struct {
	cycles   atomic.Int64
	compiles atomic.Int64
	gateOnce sync.Once
	started  chan struct{} // closed when the first gated cycle is reached
	release  chan struct{} // closing it lets the gated computation continue
	gated    atomic.Bool
}

func (p *testProbe) observe(ev plim.Event) {
	switch ev.(type) {
	case plim.EventRewriteCycle:
		p.cycles.Add(1)
		if p.gated.Load() {
			// Every gated cycle blocks (holding its scheduler worker) until
			// the test releases; the first one signals arrival.
			p.gateOnce.Do(func() { close(p.started) })
			<-p.release
		}
	case plim.EventCompileStart:
		p.compiles.Add(1)
	}
}

func newTestServer(t *testing.T, opts Options, engOpts ...plim.Option) (*Server, *httptest.Server, *testProbe) {
	t.Helper()
	p := &testProbe{started: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(func() {
		// Unblock a still-gated computation so no goroutine outlives the test.
		p.gateOnce.Do(func() {})
		select {
		case <-p.release:
		default:
			close(p.release)
		}
	})
	all := append([]plim.Option{
		plim.WithShrink(8),
		plim.WithEffort(2),
		plim.WithWorkers(2),
		plim.WithProgress(p.observe),
	}, engOpts...)
	eng := plim.NewEngine(all...)
	s := New(eng, opts)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, p
}

func postJSON(t *testing.T, url string, body string, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestHealthzAndDraining(t *testing.T) {
	s, ts, _ := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	s.SetDraining(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: want 503, got %d", resp.StatusCode)
	}
}

func TestBenchmarksEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []benchmarkJSON
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != len(plim.Benchmarks()) {
		t.Fatalf("want %d benchmarks, got %d", len(plim.Benchmarks()), len(list))
	}
	if list[0].Name == "" || list[0].PI == 0 {
		t.Fatalf("benchmark entry not populated: %+v", list[0])
	}
}

func TestCompileWarmPathByteIdentical(t *testing.T) {
	_, ts, p := newTestServer(t, Options{})
	body := `{"benchmark":"ctrl","config":"full"}`
	resp1, b1 := postJSON(t, ts.URL+"/v1/compile", body, nil)
	if resp1.StatusCode != 200 {
		t.Fatalf("cold: %d %s", resp1.StatusCode, b1)
	}
	if p.cycles.Load() == 0 {
		t.Fatal("cold compile ran no rewrite cycles")
	}
	cold := p.cycles.Load()
	resp2, b2 := postJSON(t, ts.URL+"/v1/compile", body, nil)
	if resp2.StatusCode != 200 {
		t.Fatalf("warm: %d %s", resp2.StatusCode, b2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("warm response differs:\ncold: %s\nwarm: %s", b1, b2)
	}
	if got := p.cycles.Load(); got != cold {
		t.Fatalf("warm compile re-ran rewriting: %d cycles after cold's %d", got, cold)
	}
	if resp2.Header.Get("X-Plim-Coalesced") != "" {
		t.Fatal("sequential request marked coalesced")
	}
	var out compileResponse
	if err := json.Unmarshal(b1, &out); err != nil {
		t.Fatal(err)
	}
	if out.Instructions == 0 || out.RRAMs == 0 || out.Writes.Devices == 0 {
		t.Fatalf("implausible compile response: %+v", out)
	}
}

func TestCompileEmitsProgram(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	_, bAsm := postJSON(t, ts.URL+"/v1/compile", `{"benchmark":"ctrl","emit":"asm"}`, nil)
	var outAsm compileResponse
	if err := json.Unmarshal(bAsm, &outAsm); err != nil {
		t.Fatal(err)
	}
	if outAsm.ProgramAsm == "" || len(outAsm.ProgramBinary) != 0 {
		t.Fatal("emit=asm did not return assembly only")
	}
	_, bBin := postJSON(t, ts.URL+"/v1/compile", `{"benchmark":"ctrl","emit":"binary"}`, nil)
	var outBin compileResponse
	if err := json.Unmarshal(bBin, &outBin); err != nil {
		t.Fatal(err)
	}
	if len(outBin.ProgramBinary) == 0 {
		t.Fatal("emit=binary returned no program")
	}
	prog, err := plim.ReadProgram(bytes.NewReader(outBin.ProgramBinary))
	if err != nil {
		t.Fatalf("emitted binary does not parse: %v", err)
	}
	if prog2, err := plim.ReadProgramAsm(strings.NewReader(outAsm.ProgramAsm)); err != nil {
		t.Fatalf("emitted asm does not parse: %v", err)
	} else if prog2.NumInstructions() != prog.NumInstructions() {
		t.Fatal("asm and binary emissions disagree")
	}
}

func TestCoalescingSharesOneComputation(t *testing.T) {
	s, ts, p := newTestServer(t, Options{})
	p.gated.Store(true)
	body := `{"benchmark":"router","config":"full"}`

	const clients = 4
	type result struct {
		status    int
		body      []byte
		coalesced bool
	}
	results := make(chan result, clients)
	issue := func() {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/compile", strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			results <- result{status: -1}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		results <- result{resp.StatusCode, b, resp.Header.Get("X-Plim-Coalesced") == "1"}
	}
	go issue()
	<-p.started // the leader is mid-rewrite, holding the flight open
	for i := 1; i < clients; i++ {
		go issue()
	}
	// Wait until all followers have joined the flight, then let it finish.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.met.mu.Lock()
		joined := s.met.coalesced
		s.met.mu.Unlock()
		if joined == clients-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers never coalesced (%d joined)", joined)
		}
		time.Sleep(time.Millisecond)
	}
	close(p.release)

	var first []byte
	var coalesced int
	for i := 0; i < clients; i++ {
		r := <-results
		if r.status != 200 {
			t.Fatalf("client got %d: %s", r.status, r.body)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Fatal("coalesced clients received different bodies")
		}
		if r.coalesced {
			coalesced++
		}
	}
	if coalesced != clients-1 {
		t.Fatalf("want %d coalesced responses, got %d", clients-1, coalesced)
	}
	if got := p.compiles.Load(); got != 1 {
		t.Fatalf("thundering herd compiled %d times, want 1", got)
	}
	s.met.mu.Lock()
	flights := s.met.flights
	s.met.mu.Unlock()
	if flights != 1 {
		t.Fatalf("want 1 flight, got %d", flights)
	}
}

func TestAdmissionQueueFullReturns429(t *testing.T) {
	// One engine worker: the gated flight blocks the whole scheduler, so the
	// second admitted flight starves deterministically instead of finishing.
	s, ts, p := newTestServer(t, Options{QueueDepth: 1}, plim.WithWorkers(1))
	p.gated.Store(true)

	type result struct {
		status int
		retry  string
	}
	results := make(chan result, 2)
	issue := func(cfg string) {
		resp, _ := postJSON(t, ts.URL+"/v1/compile", fmt.Sprintf(`{"benchmark":"router","config":%q}`, cfg), nil)
		results <- result{resp.StatusCode, resp.Header.Get("Retry-After")}
	}
	go issue("full") // occupies the single running seat, gated mid-rewrite
	<-p.started
	go issue("compiler21") // occupies the single queued seat
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.queuedWaiting() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second computation never counted as queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: a third distinct computation must be rejected immediately.
	resp, body := postJSON(t, ts.URL+"/v1/compile", `{"benchmark":"router","config":"minwrite"}`, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 without usable Retry-After (%q)", ra)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("429 body not an error JSON: %s", body)
	}

	close(p.release) // drain: both admitted computations must finish fine
	for i := 0; i < 2; i++ {
		if r := <-results; r.status != 200 {
			t.Fatalf("admitted request failed with %d", r.status)
		}
	}
}

func TestRequestDeadlineMapsTo504(t *testing.T) {
	_, ts, p := newTestServer(t, Options{})
	p.gated.Store(true)
	done := make(chan struct{})
	var status int
	go func() {
		defer close(done)
		resp, _ := postJSON(t, ts.URL+"/v1/compile", `{"benchmark":"router","timeout_ms":150}`, nil)
		status = resp.StatusCode
	}()
	<-p.started
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadline never fired")
	}
	if status != http.StatusGatewayTimeout {
		t.Fatalf("want 504, got %d", status)
	}
	close(p.release)
}

func TestFollowerSurvivesLeaderDisconnect(t *testing.T) {
	s, ts, p := newTestServer(t, Options{})
	p.gated.Store(true)
	body := `{"benchmark":"router","config":"full"}`

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(leaderCtx, "POST", ts.URL+"/v1/compile", strings.NewReader(body))
		_, err := http.DefaultClient.Do(req)
		leaderDone <- err
	}()
	<-p.started

	followerDone := make(chan result2, 1)
	go func() {
		resp, b := postJSON(t, ts.URL+"/v1/compile", body, nil)
		followerDone <- result2{resp.StatusCode, b}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.met.mu.Lock()
		joined := s.met.coalesced
		s.met.mu.Unlock()
		if joined == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never joined")
		}
		time.Sleep(time.Millisecond)
	}

	cancelLeader() // the client that started the computation goes away
	if err := <-leaderDone; err == nil {
		t.Fatal("leader request unexpectedly succeeded after cancel")
	}
	// The computation is still gated, so the leader's handler can only exit
	// through its cancelled context — which must be metered as a
	// client-closed request (499), not a success.
	deadline = time.Now().Add(5 * time.Second)
	for {
		s.met.mu.Lock()
		closed := s.met.requests["compile|499"]
		s.met.mu.Unlock()
		if closed == 1 {
			break
		}
		if time.Now().After(deadline) {
			s.met.mu.Lock()
			t.Fatalf("leader disconnect was not metered as 499; requests=%v", s.met.requests)
		}
		time.Sleep(time.Millisecond)
	}
	close(p.release)
	r := <-followerDone
	if r.status != 200 {
		t.Fatalf("follower got %d after leader disconnect: %s", r.status, r.body)
	}
}

func TestComputationPanicFailsOneFlightNotTheServer(t *testing.T) {
	s, ts, _ := newTestServer(t, Options{})
	f, leader := s.flights.join("panic-key")
	if !leader {
		t.Fatal("unexpected existing flight")
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.flights.setCancel(f, cancel)
	go s.runFlight(ctx, cancel, f, nil, trace.Handle{}, trace.Handle{}, func(context.Context) response {
		panic("compiler invariant violated")
	})
	resp, err := f.wait(context.Background())
	s.flights.leave(f)
	if err != nil {
		t.Fatal(err)
	}
	if resp.status != http.StatusInternalServerError {
		t.Fatalf("want 500 from panicking flight, got %d", resp.status)
	}
	var e errorResponse
	if err := json.Unmarshal(resp.body, &e); err != nil || !strings.Contains(e.Error, "panicked") {
		t.Fatalf("panic not surfaced in body: %s", resp.body)
	}
	// The daemon survived: a normal request still works.
	if resp, b := postJSON(t, ts.URL+"/v1/compile", `{"benchmark":"ctrl"}`, nil); resp.StatusCode != 200 {
		t.Fatalf("server unusable after flight panic: %d %s", resp.StatusCode, b)
	}
}

type result2 struct {
	status int
	body   []byte
}

func TestSSEStreamsProgressAndResult(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	body := `{"benchmark":"ctrl","config":"full"}`

	req, _ := http.NewRequest("POST", ts.URL+"/v1/compile", strings.NewReader(body))
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("SSE request: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	events := map[string]int{}
	var resultData []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var current string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			current = strings.TrimPrefix(line, "event: ")
			events[current]++
		case strings.HasPrefix(line, "data: ") && current == "result":
			resultData = []byte(strings.TrimPrefix(line, "data: "))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events["rewrite_cycle"] == 0 || events["compile_start"] != 1 || events["compile_done"] != 1 {
		t.Fatalf("unexpected event mix: %v", events)
	}
	if events["result"] != 1 {
		t.Fatalf("want exactly one result event, got %v", events)
	}

	// The streamed result must equal the plain JSON response (served warm
	// now, hence byte-identical by the caching contract).
	respPlain, plain := postJSON(t, ts.URL+"/v1/compile", body, nil)
	if respPlain.StatusCode != 200 {
		t.Fatalf("plain request: %d", respPlain.StatusCode)
	}
	if !bytes.Equal(bytes.TrimSpace(resultData), bytes.TrimSpace(plain)) {
		t.Fatalf("SSE result differs from JSON response:\nsse:  %s\njson: %s", resultData, plain)
	}
}

func TestRewriteEndpointRoundTrips(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	eng := plim.NewEngine(plim.WithShrink(8))
	m, err := eng.Benchmark(context.Background(), "ctrl", 8)
	if err != nil {
		t.Fatal(err)
	}
	var netlist bytes.Buffer
	if err := m.Write(&netlist); err != nil {
		t.Fatal(err)
	}
	reqBody, _ := json.Marshal(computeRequest{Netlist: netlist.String(), Kind: "alg1"})
	resp, b := postJSON(t, ts.URL+"/v1/rewrite", string(reqBody), nil)
	if resp.StatusCode != 200 {
		t.Fatalf("rewrite: %d %s", resp.StatusCode, b)
	}
	var out rewriteResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != "algorithm1" || out.Stats.NodesBefore == 0 {
		t.Fatalf("implausible rewrite response: %+v", out.Stats)
	}
	rm, err := plim.ReadMIG(strings.NewReader(out.MIG))
	if err != nil {
		t.Fatalf("returned netlist does not parse: %v", err)
	}
	eq, err := plim.Equivalent(m, rm, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !eq.Equivalent {
		t.Fatal("rewritten netlist is not equivalent to the input")
	}
}

func TestSuiteEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	resp, b := postJSON(t, ts.URL+"/v1/suite", `{"benchmarks":["ctrl","router"],"configs":["naive","full"]}`, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("suite: %d %s", resp.StatusCode, b)
	}
	var out suiteResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Benchmarks) != 2 || len(out.Configs) != 2 || len(out.Reports) != 2 {
		t.Fatalf("wrong matrix shape: %d benchmarks, %d configs, %d rows",
			len(out.Benchmarks), len(out.Configs), len(out.Reports))
	}
	for b, row := range out.Reports {
		if len(row) != 2 {
			t.Fatalf("row %d has %d cells", b, len(row))
		}
		for c, cell := range row {
			if cell.Instructions == 0 || cell.RRAMs == 0 {
				t.Fatalf("empty report at [%d][%d]", b, c)
			}
		}
	}
	// The naive column must not have rewritten; the full column must have.
	if out.Reports[0][0].Rewrite.Cycles != 0 {
		t.Fatal("naive config reports rewrite cycles")
	}
	if out.Reports[0][1].Rewrite.Cycles == 0 {
		t.Fatal("full config reports no rewrite cycles")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	cases := []struct {
		name, path, body string
	}{
		{"no source", "/v1/compile", `{}`},
		{"both sources", "/v1/compile", `{"benchmark":"ctrl","netlist":"model x\n"}`},
		{"unknown benchmark", "/v1/compile", `{"benchmark":"nope"}`},
		{"unknown config", "/v1/compile", `{"benchmark":"ctrl","config":"turbo"}`},
		{"bad cap suffix", "/v1/compile", `{"benchmark":"ctrl","config":"full+capx"}`},
		{"conflicting caps", "/v1/compile", `{"benchmark":"ctrl","config":"full+cap10","cap":20}`},
		{"unknown emit", "/v1/compile", `{"benchmark":"ctrl","emit":"hex"}`},
		{"negative timeout", "/v1/compile", `{"benchmark":"ctrl","timeout_ms":-1}`},
		{"bad netlist", "/v1/compile", `{"netlist":"not a netlist"}`},
		{"netlist with shrink", "/v1/compile", `{"netlist":"model x\n","shrink":4}`},
		{"unknown field", "/v1/compile", `{"benchmark":"ctrl","frobnicate":1}`},
		{"bad json", "/v1/compile", `{"benchmark"`},
		{"unknown kind", "/v1/rewrite", `{"benchmark":"ctrl","kind":"alg9"}`},
		{"suite with netlist", "/v1/suite", `{"netlist":"model x\n"}`},
		{"suite unknown bench", "/v1/suite", `{"benchmarks":["nope"]}`},
		{"suite foreign shrink", "/v1/suite", `{"shrink":3}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.path, tc.body, nil)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("want 400, got %d: %s", resp.StatusCode, body)
			}
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error body not JSON: %s", body)
			}
		})
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	if resp, b := postJSON(t, ts.URL+"/v1/compile", `{"benchmark":"ctrl"}`, nil); resp.StatusCode != 200 {
		t.Fatalf("compile: %d %s", resp.StatusCode, b)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	text := string(b)
	for _, want := range []string{
		`plimserve_requests_total{route="compile",code="200"} 1`,
		`plimserve_request_seconds_count{route="compile"} 1`,
		`plimserve_flights_total 1`,
		`plimserve_coalesced_requests_total 0`,
		`plimserve_admission_rejected_total 0`,
		`plimserve_progress_events_total{type="compile_done"} 1`,
		`plimserve_cache_memory_entries{kind="benchmark"} 1`,
		`plimserve_cache_memory_entries{kind="rewrite"} 1`,
		`plimserve_inflight_computations 0`,
		`plimserve_sched_runnable_tasks 0`,
		`plimserve_sched_worker_steals_total{worker="0"}`,
		`plimserve_sched_task_seconds_count{kind="rewrite"} 1`,
		`plimserve_sched_task_seconds_count{kind="compile"} 1`,
		`plimserve_sched_task_seconds_bucket{kind="compile",le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestMetricsIncludeDiskTier(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{}, plim.WithPersistentCache(t.TempDir()))
	if resp, b := postJSON(t, ts.URL+"/v1/compile", `{"benchmark":"ctrl"}`, nil); resp.StatusCode != 200 {
		t.Fatalf("compile: %d %s", resp.StatusCode, b)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	text := string(b)
	for _, want := range []string{
		`plimserve_cache_disk_misses_total{kind="rewrite"} 1`,
		`plimserve_cache_disk_stores_total`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestCompileVerifyFlag(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{}, plim.WithVerify(true))

	// Without the flag the report is absent.
	_, plain := postJSON(t, ts.URL+"/v1/compile", `{"benchmark":"ctrl","config":"full"}`, nil)
	var outPlain compileResponse
	if err := json.Unmarshal(plain, &outPlain); err != nil {
		t.Fatal(err)
	}
	if outPlain.Verification != nil {
		t.Fatal("verification present without verify=true")
	}

	resp, b := postJSON(t, ts.URL+"/v1/compile", `{"benchmark":"ctrl","config":"full","verify":true}`, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("verify=true: %d %s", resp.StatusCode, b)
	}
	var out compileResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	v := out.Verification
	if v == nil {
		t.Fatalf("no verification in response: %s", b)
	}
	if !v.OK || len(v.Violations) != 0 {
		t.Fatalf("compiler output must verify clean: %+v", v)
	}
	if v.TotalWrites == 0 || v.MaxCellWrites == 0 || v.CellsWritten == 0 || v.Fingerprint == "" {
		t.Fatalf("implausible verification report: %+v", v)
	}
	// Static parity with the allocator's summary in the same response.
	if v.TotalWrites != out.Writes.Total || v.MaxCellWrites != out.Writes.Max {
		t.Fatalf("static counts diverge from allocator summary: %+v vs %+v", v, out.Writes)
	}

	// verify=true and verify=false must not coalesce into one response
	// shape: the flag is part of the flight key, so the warm path stays
	// byte-identical per variant.
	_, b2 := postJSON(t, ts.URL+"/v1/compile", `{"benchmark":"ctrl","config":"full","verify":true}`, nil)
	if !bytes.Equal(b, b2) {
		t.Fatalf("warm verified response differs:\n%s\nvs\n%s", b, b2)
	}
}

// TestCompileVerifyWithoutEngineVerify covers the handler-side fallback:
// the engine did not verify (rep.Verify == nil), so the handler runs the
// checker itself, including allocator write parity.
func TestCompileVerifyWithoutEngineVerify(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	resp, b := postJSON(t, ts.URL+"/v1/compile", `{"benchmark":"ctrl","config":"full+cap50","verify":true}`, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("%d %s", resp.StatusCode, b)
	}
	var out compileResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Verification == nil || !out.Verification.OK {
		t.Fatalf("expected a clean fallback verification: %s", b)
	}
}

// TestWarmCompileAllocations: a warm /v1/compile of a named benchmark runs
// on the engine's cached build, so it neither clones nor hashes the graph
// (the multiplier at shrink 2 has about 5,000 nodes) and allocates little
// beyond the request and response.
func TestWarmCompileAllocations(t *testing.T) {
	s := New(plim.NewEngine(plim.WithShrink(2), plim.WithWorkers(1)), Options{})
	serve := func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/compile", strings.NewReader(`{"benchmark":"multiplier","config":"full"}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("compile: %d %s", rec.Code, rec.Body)
		}
	}
	serve() // cold: generate, rewrite and compile
	serve()
	const reqs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range reqs {
		serve()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reqs; per >= 64<<10 {
		t.Fatalf("a warm compile allocates %d bytes, want < 64 KiB", per)
	}
}
