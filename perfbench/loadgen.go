package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one timed request. lat runs from the send (closed loop) or
// from the due time (open loop) to the end of the response; late is how
// far behind its due time an open-loop request was sent; end is when the
// response ended, from the start of the loop.
type sample struct {
	lat  time.Duration
	late time.Duration
	end  time.Duration
	ok   bool
}

// latencies returns sample latencies in milliseconds, failed requests as
// +Inf so that they miss every latency limit.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.lat)
		if !s.ok {
			out[i] = inf
		}
	}
	return out
}

// endpoint is a handler served on a loopback socket. It counts the client
// connections open at once, so a workload can prove it stayed within its
// connection budget.
type endpoint struct {
	url          string
	srv          *http.Server
	done         chan struct{}
	active, peak atomic.Int64
}

func serve(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	e.srv = &http.Server{Handler: h, ConnState: e.track, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(e.done)
		e.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return e, nil
}

func (e *endpoint) track(_ net.Conn, s http.ConnState) {
	switch s {
	case http.StateNew:
		n := e.active.Add(1)
		for {
			p := e.peak.Load()
			if n <= p || e.peak.CompareAndSwap(p, n) {
				break
			}
		}
	case http.StateClosed, http.StateHijacked:
		e.active.Add(-1)
	}
}

// close stops the server and waits for its accept loop to end.
func (e *endpoint) close() {
	e.srv.Close()
	<-e.done
}

// client sends requests over at most conns connections. When tr is set it
// records a "loadgen.request" span per request and tells the server side
// the request and span IDs in traceHeader.
type client struct {
	base string
	tr   *Tracer
	hc   *http.Client
}

func newClient(base string, conns int, tr *Tracer) *client {
	t := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: t, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// exchange sends one request and returns the body and header of a 200
// response.
func (c *client) exchange(method, path string, body []byte) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	id, span := c.tr.NewID(), c.tr.NewID()
	if span != 0 {
		req.Header.Set(traceHeader, fmt.Sprintf("%d/%d", id, span))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.Record(span, 0, id, "loadgen.request", start, time.Now())
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, resp.Header, nil
}

func (c *client) get(path string) ([]byte, error) {
	body, _, err := c.exchange(http.MethodGet, path, nil)
	return body, err
}

// stopRule ends a closed loop: at the deadline, or later if fewer than
// minSamples requests have completed, but never after the hard limit.
type stopRule struct {
	deadline, hard time.Time
	minSamples     int
}

// stopAfter is the rule of a loop that runs for d, or up to 3d until
// minSamples requests have completed.
func stopAfter(d time.Duration, minSamples int) stopRule {
	now := time.Now()
	return stopRule{deadline: now.Add(d), hard: now.Add(3 * d), minSamples: minSamples}
}

func (r stopRule) done(n int64, now time.Time) bool {
	if now.After(r.hard) {
		return true
	}
	return now.After(r.deadline) && n >= int64(r.minSamples)
}

// closedLoop runs clients senders; each sends its next request only after
// the previous one completed. send performs the workload's next request
// and reports success. It returns the samples and the time the loop ran.
func closedLoop(clients int, rule stopRule, send func() bool) ([]sample, time.Duration) {
	var (
		finished atomic.Int64
		mu       sync.Mutex
		out      []sample
		wg       sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for !rule.done(finished.Load(), time.Now()) {
				t0 := time.Now()
				ok := send()
				t1 := time.Now()
				mine = append(mine, sample{lat: t1.Sub(t0), end: t1.Sub(start), ok: ok})
				finished.Add(1)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// dueClock is an open loop's schedule: request i is due at start + i·every,
// whether or not earlier requests have completed.
type dueClock struct {
	start time.Time
	every time.Duration
}

func (c dueClock) due(i int) time.Time { return c.start.Add(time.Duration(i) * c.every) }

// openLoop sends request i at clock.due(i) from senders goroutines (one
// connection each) until a request would be due after stop. Latency runs
// from the due time, so a stall also delays every request queued behind
// it, and late records how far behind schedule each send went out.
func openLoop(senders int, clock dueClock, stop time.Time, send func(i int) bool) []sample {
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  []sample
		wg   sync.WaitGroup
	)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for {
				i := int(next.Add(1) - 1)
				due := clock.due(i)
				if !due.Before(stop) {
					break
				}
				sleepUntil(due)
				late := time.Since(due)
				ok := send(i)
				now := time.Now()
				mine = append(mine, sample{lat: now.Sub(due), late: late, end: now.Sub(clock.start), ok: ok})
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// scrape reads a handler's Prometheus text in-process, without a client
// connection, and returns the unlabelled samples by name.
func scrape(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := make(map[string]float64)
	for _, line := range bytes.Split(rec.Body.Bytes(), []byte("\n")) {
		var name string
		var v float64
		if len(line) == 0 || line[0] == '#' || bytes.ContainsRune(line, '{') {
			continue
		}
		if _, err := fmt.Sscanf(string(line), "%s %g", &name, &v); err == nil {
			out[name] = v
		}
	}
	return out
}
