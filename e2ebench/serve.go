package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plim"
	"plim/internal/server"
)

// liveServer is plimserve's handler running in-process on a loopback
// listener, the same stack cmd/plimserve runs minus signal handling.
type liveServer struct {
	eng  *plim.Engine
	hs   *http.Server
	url  string
	done chan error
}

func startServer(eng *plim.Engine) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &liveServer{
		eng:  eng,
		hs:   &http.Server{Handler: server.New(eng, server.Options{})},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// scrape reads the server's /metrics counters the benchmark reports.
func (s *liveServer) scrape(c counters) error {
	resp, err := http.Get(s.url + "/metrics")
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	series := map[string]string{
		"plimserve_flights_total":                               "flights",
		"plimserve_coalesced_requests_total":                    "coalesced",
		"plimserve_admission_rejected_total":                    "rejected",
		`plimserve_progress_events_total{type="rewrite_cycle"}`: "rewrite_cycles",
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if key, want := series[name]; ok && want {
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return fmt.Errorf("scrape %s: %w", name, err)
			}
			c[key] = v
		}
	}
	return sc.Err()
}

// A sender owns one keep-alive connection to the server.
type sender struct {
	client *http.Client
	req    []byte
	resp   bytes.Buffer
}

func newSenders(n int) []*sender {
	out := make([]*sender, n)
	for i := range out {
		out[i] = &sender{client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}}
	}
	return out
}

func closeSenders(ss []*sender) {
	for _, s := range ss {
		s.client.CloseIdleConnections()
	}
}

// reply is one response as the benchmark checks it.
type reply struct {
	status    int
	coalesced bool   // served by another request's flight
	body      []byte // the JSON body, trace block removed; valid until the sender's next post
	trace     []byte // the trace block of a traced response
}

// post sends one request and reads the whole response. An SSE response is
// reduced to its final result frame, which carries the same body bytes as
// the plain JSON response.
func (s *sender) post(url string, body []byte, sse bool) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if sse {
		req.Header.Set("Accept", "text/event-stream")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	s.resp.Reset()
	if _, err := s.resp.ReadFrom(resp.Body); err != nil {
		return reply{}, fmt.Errorf("read response: %w", err)
	}
	r := reply{status: resp.StatusCode, coalesced: resp.Header.Get("X-Plim-Coalesced") != "", body: s.resp.Bytes()}
	if sse {
		const final = "event: result\ndata: "
		i := bytes.LastIndex(r.body, []byte(final))
		if i < 0 {
			return r, errors.New("event stream without a result frame")
		}
		r.body = bytes.TrimSuffix(r.body[i+len(final):], []byte("\n")) // the frame's blank line
	}
	r.body, r.trace = splitTrace(r.body)
	return r, nil
}

// splitTrace separates the "trace" member the server splices into the
// body of a traced response; what remains is byte-identical to the
// untraced response.
func splitTrace(body []byte) (plain, blob []byte) {
	i := bytes.LastIndex(body, []byte(`,"trace":`))
	end := bytes.LastIndexByte(body, '}')
	if i < 0 || end < i {
		return body, nil
	}
	blob = body[i+len(`,"trace":`) : end]
	plain = append(append(make([]byte, 0, len(body)), body[:i]...), body[end:]...)
	return plain, blob
}

// jsonInt reads the first integer member named key from a JSON body without
// decoding the rest (execute bodies carry thousands of output vectors).
func jsonInt(body []byte, key string) int {
	pat := []byte(`"` + key + `":`)
	i := bytes.Index(body, pat)
	if i < 0 {
		return 0
	}
	rest := body[i+len(pat):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, _ := strconv.Atoi(string(rest[:j])) // digits only: cannot fail short of overflow
	return n
}

var hashSeed = maphash.MakeSeed()

// traffic is one serving workload's request mix and its correctness oracle.
type traffic interface {
	// engine builds the engine of a fresh server.
	engine() (*plim.Engine, error)
	// warm sends the workload's set-up requests to a freshly started server.
	warm(w *serveWorkload) error
	// request builds request i; traced asks the server for a trace block.
	request(i int, traced bool, buf []byte) (path string, body []byte, sse bool)
	// check validates the (untraced-equivalent) body of request i.
	check(i int, body []byte) error
	// verify runs the checks deferred past the measurement and returns
	// how many failed.
	verify(w *serveWorkload) int
	quality() quality
	close() error
}

// serveWorkload drives one traffic mix against an in-process server.
type serveWorkload struct {
	t       traffic
	senders []*sender
	srv     *liveServer
	parse   func(first, n int) (float64, error) // mig.parse_ms probe, nil when the mix sends no netlists
	errs    atomic.Int64                        // failures logged so far
}

func (w *serveWorkload) setup(context.Context) error {
	if w.srv != nil {
		if err := w.srv.stop(); err != nil {
			return err
		}
		w.srv = nil
	}
	eng, err := w.t.engine()
	if err != nil {
		return err
	}
	if w.srv, err = startServer(eng); err != nil {
		return err
	}
	return w.t.warm(w)
}

func (w *serveWorkload) quality() quality { return w.t.quality() }

func (w *serveWorkload) close() error {
	var err error
	if w.srv != nil {
		err = w.srv.stop()
	}
	closeSenders(w.senders)
	return errors.Join(err, w.t.close())
}

// send posts request i from sender s and checks it. With l non-nil the
// request asks for a trace, which is folded into l.
func (w *serveWorkload) send(s, i int, l *layers) outcome {
	snd := w.senders[s]
	path, body, sse := w.t.request(i, l != nil, snd.req[:0])
	snd.req = body
	t0 := time.Now()
	r, err := snd.post(w.srv.url+path, body, sse)
	wall := ms(time.Since(t0))
	if err == nil && r.status != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %.200s", r.status, r.body)
	}
	if err == nil {
		err = w.t.check(i, r.body)
	}
	if err != nil {
		w.logf("request %d: %v", i, err)
		return outcome{}
	}
	if l != nil && !r.coalesced {
		prog, err := serverSpans(r.trace)
		if err != nil {
			w.logf("request %d: %v", i, err)
			return outcome{}
		}
		ins := jsonInt(r.body, "instructions")
		execIns := 0
		if strings.HasSuffix(path, "execute") {
			execIns = ins
		}
		l.add(clientOp(wall, prog), ins, execIns)
	}
	return outcome{ok: true, units: 1}
}

// logf reports the first few failures on stderr.
func (w *serveWorkload) logf(format string, args ...any) {
	if w.errs.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	}
}

// Request indices of the segments of a run. The ranges are disjoint, so a
// cold mix never replays a netlist the caches already hold.
const (
	warmOffset   = 1 << 23
	tracedOffset = 1 << 24
)

// warmUp is how long the senders run before a measurement of d starts, so
// that connections, execution plans, buffers and the GC pacer reach the
// state the measurement runs in: a second, or a quarter of a shorter run.
func warmUp(d time.Duration) time.Duration { return min(time.Second, d/4) }

// run is the closed loop every segment of a serving workload uses: each
// sender keeps one request in flight and sends the next as soon as the
// reply arrives.
func (w *serveWorkload) run(d time.Duration, first int, l *layers) segment {
	return closedLoop(d, len(w.senders), first, func(s, i int) outcome { return w.send(s, i, l) })
}

// endToEnd warms up, then measures the closed loop for d. Latency and
// throughput come from the same requests.
func (w *serveWorkload) endToEnd(d time.Duration) []segment {
	warm := w.run(warmUp(d), warmOffset, nil)
	return []segment{w.run(d, 0, nil), warm}
}

// perLayer warms up, then runs half of d untraced (counters, runtime and
// client metrics) and half with every request traced (span metrics).
func (w *serveWorkload) perLayer(d time.Duration) (map[string]float64, []segment, *layers, error) {
	warm := w.run(warmUp(d), warmOffset, nil)
	c0, err := w.counters()
	if err != nil {
		return nil, nil, nil, err
	}
	u := w.run(d/2, 0, nil)
	c1, err := w.counters()
	if err != nil {
		return nil, nil, nil, err
	}
	var l layers
	t := w.run(d/2, tracedOffset, &l)
	c2, err := w.counters()
	if err != nil {
		return nil, nil, nil, err
	}
	m := layerMetrics(u, t, &l, c1.sub(c0), c2.sub(c1), w.srv.eng.Workers())
	if w.parse != nil {
		if m["mig.parse_ms"], err = w.parse(tracedOffset, min(t.attempted, 64)); err != nil {
			return nil, nil, nil, err
		}
	}
	return m, []segment{u, t, warm}, &l, nil
}

// counters snapshots the engine's and the server's counters.
func (w *serveWorkload) counters() (counters, error) {
	c := engineCounters(w.srv.eng)
	return c, w.srv.scrape(c)
}

func (w *serveWorkload) verify() int { return w.t.verify(w) }

// parallel runs fn(sender, i) for i in [0, n) over every sender.
func (w *serveWorkload) parallel(n int, fn func(s, i int) error) error {
	var next atomic.Int64
	errs := make([]error, len(w.senders))
	var wg sync.WaitGroup
	for s := range w.senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if err := fn(s, i); err != nil {
					errs[s] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// postOK posts from sender s and insists on HTTP 200.
func (w *serveWorkload) postOK(s int, path string, body []byte) ([]byte, error) {
	r, err := w.senders[s].post(w.srv.url+path, body, false)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %.200s", path, r.status, r.body)
	}
	return r.body, nil
}
