package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"plim"
)

// referenceProgram compiles a benchmark exactly as the test server does
// (shrink 8, effort 2) so expectations can be computed with the library.
func referenceProgram(t *testing.T, name, config string) (*plim.MIG, *plim.Program) {
	t.Helper()
	eng := plim.NewEngine(plim.WithShrink(8), plim.WithEffort(2))
	m, err := eng.Benchmark(context.Background(), name, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := parseConfig(config, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, rep.Result.Program
}

func TestExecuteEndpointMatchesLibrary(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	m, p := referenceProgram(t, "ctrl", "full")
	batch := plim.RandomBatch(m.NumPIs(), 100, 7)
	want, err := plim.ExecuteBatch(p, batch, plim.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(computeRequest{Benchmark: "ctrl", Config: "full", Vectors: batch.Strings()})
	resp, b := postJSON(t, ts.URL+"/v1/execute", string(body), nil)
	if resp.StatusCode != 200 {
		t.Fatalf("execute: %d %s", resp.StatusCode, b)
	}
	var out executeResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Vectors != 100 || out.Chunks != batch.Chunks() {
		t.Fatalf("dimensions: %+v", out)
	}
	if out.Fingerprint != fmt.Sprintf("%016x", p.Fingerprint()) {
		t.Fatalf("fingerprint %s, want the locally compiled program's", out.Fingerprint)
	}
	wantOut := want.Outputs.Strings()
	if len(out.Outputs) != len(wantOut) {
		t.Fatalf("got %d output vectors, want %d", len(out.Outputs), len(wantOut))
	}
	for i := range wantOut {
		if out.Outputs[i] != wantOut[i] {
			t.Fatalf("output %d: server %q, library %q", i, out.Outputs[i], wantOut[i])
		}
	}
	var writes, switches uint64
	for z, w := range want.Writes {
		writes += w
		switches += want.Switches[z]
	}
	if out.Writes.Total != writes || out.Switches != switches {
		t.Fatalf("wear: server %d/%d, library %d/%d", out.Writes.Total, out.Switches, writes, switches)
	}
}

func TestExecuteWarmRepeatByteIdentical(t *testing.T) {
	_, ts, probe := newTestServer(t, Options{})
	body := `{"benchmark":"ctrl","config":"full","random":128,"seed":3}`
	resp1, b1 := postJSON(t, ts.URL+"/v1/execute", body, nil)
	if resp1.StatusCode != 200 {
		t.Fatalf("cold: %d %s", resp1.StatusCode, b1)
	}
	cold := probe.cycles.Load()
	resp2, b2 := postJSON(t, ts.URL+"/v1/execute", body, nil)
	if resp2.StatusCode != 200 {
		t.Fatalf("warm: %d %s", resp2.StatusCode, b2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("warm response differs:\ncold: %s\nwarm: %s", b1, b2)
	}
	if got := probe.cycles.Load(); got != cold {
		t.Fatalf("warm execute re-ran rewriting: %d cycles after cold's %d", got, cold)
	}
}

func TestExecutePackedVectorsRoundTrip(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	m, _ := referenceProgram(t, "ctrl", "full")
	batch := plim.RandomBatch(m.NumPIs(), 70, 11) // 2 chunks, partial last

	asStrings, _ := json.Marshal(computeRequest{Benchmark: "ctrl", Vectors: batch.Strings()})
	respS, bs := postJSON(t, ts.URL+"/v1/execute", string(asStrings), nil)
	asPacked, _ := json.Marshal(computeRequest{Benchmark: "ctrl", VectorsPacked: packVectors(batch), Output: "packed"})
	respP, bp := postJSON(t, ts.URL+"/v1/execute", string(asPacked), nil)
	if respS.StatusCode != 200 || respP.StatusCode != 200 {
		t.Fatalf("status %d / %d: %s %s", respS.StatusCode, respP.StatusCode, bs, bp)
	}
	var outS, outP executeResponse
	if err := json.Unmarshal(bs, &outS); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bp, &outP); err != nil {
		t.Fatal(err)
	}
	if outP.Outputs != nil || outP.OutputsPack == nil {
		t.Fatalf("packed output shape: %+v", outP)
	}
	decoded, err := unpackVectors(outP.OutputsPack)
	if err != nil {
		t.Fatal(err)
	}
	got := decoded.Strings()
	if len(got) != len(outS.Outputs) {
		t.Fatalf("packed run returned %d vectors, strings run %d", len(got), len(outS.Outputs))
	}
	for i := range got {
		if got[i] != outS.Outputs[i] {
			t.Fatalf("vector %d: packed %q, strings %q", i, got[i], outS.Outputs[i])
		}
	}
}

func TestExecuteExhaustive(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	m, _ := referenceProgram(t, "ctrl", "full")
	resp, b := postJSON(t, ts.URL+"/v1/execute", `{"benchmark":"ctrl","exhaustive":true}`, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("execute: %d %s", resp.StatusCode, b)
	}
	var out executeResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Vectors != 1<<m.NumPIs() {
		t.Fatalf("exhaustive over %d inputs returned %d vectors", m.NumPIs(), out.Vectors)
	}
	if len(out.Outputs) != out.Vectors {
		t.Fatalf("outputs %d, vectors %d", len(out.Outputs), out.Vectors)
	}
}

func TestExecuteEnduranceFault(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	resp, b := postJSON(t, ts.URL+"/v1/execute", `{"benchmark":"ctrl","random":64,"endurance":1}`, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("execute: %d %s", resp.StatusCode, b)
	}
	var out executeResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Fault == nil {
		t.Fatalf("endurance 1 did not fault: %s", b)
	}
	if out.Fault.Inst < 0 || !strings.Contains(out.Fault.Error, "worn out") {
		t.Fatalf("fault: %+v", out.Fault)
	}
	if out.Outputs != nil || out.OutputsPack != nil {
		t.Fatal("faulted execution must not report outputs")
	}
	if out.Writes.Total == 0 {
		t.Fatal("faulted execution must still report partial wear")
	}
}

func TestExecuteBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	cases := []struct {
		name, body string
	}{
		{"no vector source", `{"benchmark":"ctrl"}`},
		{"two vector sources", `{"benchmark":"ctrl","random":4,"exhaustive":true}`},
		{"seed without random", `{"benchmark":"ctrl","exhaustive":true,"seed":9}`},
		{"negative random", `{"benchmark":"ctrl","random":-1}`},
		{"oversized random", `{"benchmark":"ctrl","random":1048577}`},
		{"bad vector chars", `{"benchmark":"ctrl","vectors":["01x"]}`},
		{"ragged vectors", `{"benchmark":"ctrl","vectors":["01","011"]}`},
		{"bad packed dims", `{"benchmark":"ctrl","vectors_packed":{"n":70,"lines":2,"words":"AAAAAAAAAAA="}}`},
		{"unknown output", `{"benchmark":"ctrl","random":4,"output":"hex"}`},
		{"no function source", `{"random":4}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/execute", tc.body, nil)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("want 400, got %d: %s", resp.StatusCode, body)
			}
		})
	}
	// Vector width mismatches surface from inside the flight as a
	// computation error, not a 400: the PI count is only known post-compile.
	resp, body := postJSON(t, ts.URL+"/v1/execute", `{"benchmark":"ctrl","vectors":["0"]}`, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("width mismatch: want 500, got %d: %s", resp.StatusCode, body)
	}
}

func TestExecuteSSEStreamsChunkProgress(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/execute",
		strings.NewReader(`{"benchmark":"ctrl","random":256,"seed":1}`))
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
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
	if events["execute_chunk"] != 4 { // 256 vectors = 4 chunks
		t.Fatalf("want 4 execute_chunk events, got %v", events)
	}
	if events["result"] != 1 {
		t.Fatalf("want one result event, got %v", events)
	}
	var out executeResponse
	if err := json.Unmarshal(resultData, &out); err != nil {
		t.Fatal(err)
	}
	if out.Vectors != 256 {
		t.Fatalf("streamed result reports %d vectors", out.Vectors)
	}
}

func TestExecuteMetrics(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	if resp, b := postJSON(t, ts.URL+"/v1/execute", `{"benchmark":"ctrl","random":100}`, nil); resp.StatusCode != 200 {
		t.Fatalf("execute: %d %s", resp.StatusCode, b)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	text := string(b)
	for _, want := range []string{
		`plimserve_execute_vectors_total 100`,
		`plimserve_execute_chunks_total 2`,
		`plimserve_execute_lane_slots_total 128`,
		`plimserve_requests_total{route="execute",code="200"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// postNDJSON issues a streamed /v1/execute request: reqLine is the JSON
// request line, vectors follow one per line.
func postNDJSON(t *testing.T, url, reqLine string, vectors []string) (*http.Response, []byte) {
	t.Helper()
	body := reqLine + "\n" + strings.Join(vectors, "\n") + "\n"
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
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

// TestExecuteNDJSONMatchesJSON: a streamed request answers byte-identically
// to the buffered JSON form with the same vectors — they share one
// coalescing key, so the warm repeat is a flight-cache/engine-cache hit.
func TestExecuteNDJSONMatchesJSON(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	m, _ := referenceProgram(t, "ctrl", "full")
	batch := plim.RandomBatch(m.NumPIs(), 100, 21)
	vectors := batch.Strings()

	jsonBody, _ := json.Marshal(computeRequest{Benchmark: "ctrl", Config: "full", Vectors: vectors})
	respJ, bj := postJSON(t, ts.URL+"/v1/execute", string(jsonBody), nil)
	if respJ.StatusCode != 200 {
		t.Fatalf("json form: %d %s", respJ.StatusCode, bj)
	}
	respN, bn := postNDJSON(t, ts.URL+"/v1/execute", `{"benchmark":"ctrl","config":"full"}`, vectors)
	if respN.StatusCode != 200 {
		t.Fatalf("ndjson form: %d %s", respN.StatusCode, bn)
	}
	if !bytes.Equal(bj, bn) {
		t.Fatalf("streamed response differs from buffered:\njson:   %s\nndjson: %s", bj, bn)
	}
}

func TestExecuteNDJSONBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	cases := []struct {
		name, reqLine string
		vectors       []string
	}{
		{"vector source in request line", `{"benchmark":"ctrl","random":4}`, []string{"0101010"}},
		{"exhaustive in request line", `{"benchmark":"ctrl","exhaustive":true}`, []string{"0101010"}},
		{"no vectors", `{"benchmark":"ctrl"}`, nil},
		{"bad vector chars", `{"benchmark":"ctrl"}`, []string{"01x"}},
		{"ragged vectors", `{"benchmark":"ctrl"}`, []string{"01", "011"}},
		{"bad request line", `{"benchmark"`, []string{"01"}},
		{"unknown field", `{"benchmark":"ctrl","frobnicate":1}`, []string{"01"}},
		{"unknown output", `{"benchmark":"ctrl","output":"hex"}`, []string{"01"}},
		{"no function source", `{}`, []string{"01"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postNDJSON(t, ts.URL+"/v1/execute", tc.reqLine, tc.vectors)
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

// TestExecuteConcurrentBatches hammers one shared engine with parallel
// /v1/execute requests — distinct batches, configs and endurance budgets
// interleaved with identical (coalescable) requests. Run under -race this
// pins down the thread safety of the plan cache and the executor.
func TestExecuteConcurrentBatches(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Concurrency: 4})
	configs := []string{"naive", "full"}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"benchmark":"ctrl","config":%q,"random":128,"seed":%d,"endurance":%d}`,
				configs[i%len(configs)], i%4, 1000000*uint64(i%2))
			req, err := http.NewRequest("POST", ts.URL+"/v1/execute", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs <- err
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("request %d: %d %s", i, resp.StatusCode, b)
				return
			}
			var out executeResponse
			if err := json.Unmarshal(b, &out); err != nil {
				errs <- fmt.Errorf("request %d: %v", i, err)
				return
			}
			if out.Vectors != 128 {
				errs <- fmt.Errorf("request %d: %d vectors", i, out.Vectors)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
