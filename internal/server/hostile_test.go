package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"plim"
)

// postCut sends a streamed /v1/execute request whose Content-Length
// announces all of body but which stops after its first cut bytes, closes
// its write side — the server reads a body that ends early — and returns
// the response.
func postCut(t *testing.T, addr, body string, cut int) (int, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/execute HTTP/1.1\r\nHost: plim\r\nContent-Type: application/x-ndjson\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body[:cut])
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// waitFor polls cond until it holds, failing with what() after 10 s.
func waitFor(t *testing.T, cond func() bool, what func() string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(what())
		}
		time.Sleep(time.Millisecond)
	}
}

// flightsAndSeats reads the flight table's size and admission's in-flight
// count.
func flightsAndSeats(s *Server) (flights, inflight int) {
	s.flights.mu.Lock()
	flights = len(s.flights.flights)
	s.flights.mu.Unlock()
	s.adm.mu.Lock()
	inflight = s.adm.inflight
	s.adm.mu.Unlock()
	return flights, inflight
}

// waitSettled waits until no flight is registered and admission holds no
// seat: whatever a hostile request started has ended and let go of both.
func waitSettled(t *testing.T, s *Server) {
	t.Helper()
	waitFor(t, func() bool {
		flights, inflight := flightsAndSeats(s)
		return flights == 0 && inflight == 0
	}, func() string {
		flights, inflight := flightsAndSeats(s)
		return fmt.Sprintf("server never settled: %d flights registered, %d in flight", flights, inflight)
	})
}

// requestCount reads one route|code request counter.
func requestCount(s *Server, key string) uint64 {
	s.met.mu.Lock()
	defer s.met.mu.Unlock()
	return s.met.requests[key]
}

// TestExecuteHostileInputs: a body cut short, a client gone mid-stream and
// a leader gone before its flight ran each end in a 4xx or a clean cancel —
// no 5xx, no batch executed for a cancelled flight — and leave no flight
// registered and no admission seat held.
func TestExecuteHostileInputs(t *testing.T) {
	const reqLine = `{"benchmark":"ctrl","config":"full"}`
	ndjson := reqLine + "\n0101010\n0110011\n1110000\n"
	cuts := []struct {
		name string
		cut  int
	}{
		{"ndjson cut inside the request line", len(reqLine) / 2},
		{"ndjson cut inside a vector", strings.Index(ndjson, "0110011") + 3},
	}
	for _, tc := range cuts {
		t.Run(tc.name, func(t *testing.T) {
			s, ts, _ := newTestServer(t, Options{})
			status, body := postCut(t, ts.Listener.Addr().String(), ndjson, tc.cut)
			if status != http.StatusBadRequest {
				t.Fatalf("want 400, got %d: %s", status, body)
			}
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error body not JSON: %s", body)
			}
			waitSettled(t, s)
		})
	}

	t.Run("client disconnects mid-SSE", func(t *testing.T) {
		s, ts, p := newTestServer(t, Options{})
		p.gated.Store(true)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/execute",
			strings.NewReader(`{"benchmark":"router","config":"full","random":64}`))
		req.Header.Set("Accept", "text/event-stream")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "text/event-stream" {
			t.Fatalf("stream not open: %d %q", resp.StatusCode, ct)
		}
		<-p.started // mid-rewrite: the stream is open and carries no result
		cancel()
		resp.Body.Close()
		// The handler's leave unregisters the abandoned flight and cancels
		// its computation, which stops once the gate lets it go on.
		waitFor(t, func() bool { f, _ := flightsAndSeats(s); return f == 0 },
			func() string { return "abandoned flight still registered" })
		close(p.release)
		waitSettled(t, s)
		s.met.mu.Lock()
		defer s.met.mu.Unlock()
		if s.met.execVectors != 0 {
			t.Fatalf("the cancelled flight executed %d vectors", s.met.execVectors)
		}
	})

	t.Run("lone leader disconnects while its tasks wait", func(t *testing.T) {
		// One engine worker: the gated compile holds it, so the execute
		// flight's tasks queue behind it and cannot start.
		s, ts, p := newTestServer(t, Options{}, plim.WithWorkers(1))
		p.gated.Store(true)
		gatedDone := make(chan int, 1)
		go func() {
			resp, _ := postJSON(t, ts.URL+"/v1/compile", `{"benchmark":"router","config":"full"}`, nil)
			gatedDone <- resp.StatusCode
		}()
		<-p.started
		before := s.eng.SchedulerStats().Runnable

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		leaderDone := make(chan error, 1)
		go func() {
			req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/execute",
				strings.NewReader(`{"benchmark":"ctrl","config":"full","random":64}`))
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			leaderDone <- err
		}()
		waitFor(t, func() bool { return s.eng.SchedulerStats().Runnable > before },
			func() string { return "the execute flight's tasks never queued" })
		cancel()
		if err := <-leaderDone; err == nil {
			t.Fatal("leader request succeeded after its client left")
		}
		waitFor(t, func() bool { return requestCount(s, "execute|499") == 1 },
			func() string { return "leader disconnect was not metered as 499" })
		close(p.release)
		if status := <-gatedDone; status != http.StatusOK {
			t.Fatalf("gated compile got %d", status)
		}
		waitSettled(t, s)
		s.met.mu.Lock()
		defer s.met.mu.Unlock()
		if s.met.execVectors != 0 {
			t.Fatalf("the cancelled flight executed %d vectors", s.met.execVectors)
		}
		for key, n := range s.met.requests {
			if strings.Contains(key, "|5") {
				t.Fatalf("%d request(s) answered %s", n, key)
			}
		}
	})
}
