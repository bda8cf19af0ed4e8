package main

import (
	"net/http"
	"runtime"
	"testing"
	"time"
)

func TestDueClock(t *testing.T) {
	start := time.Unix(100, 0)
	c := dueClock{start: start, every: 125 * time.Microsecond}
	if got := c.due(0); !got.Equal(start) {
		t.Errorf("due(0) = %v", got)
	}
	if got := c.due(8000); !got.Equal(start.Add(time.Second)) {
		t.Errorf("due(8000) at 8000/s = %v, want one second in", got)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One sender, a request due every 5ms, and a 30ms stall on the first:
	// the requests queued behind it are late, and their latency counts the
	// wait from their due time, not from when they were finally sent.
	clock := dueClock{start: time.Now(), every: 5 * time.Millisecond}
	ss := openLoop(1, clock, clock.due(4), func(i int) bool {
		if i == 0 {
			time.Sleep(30 * time.Millisecond)
		}
		return true
	})
	if len(ss) != 4 {
		t.Fatalf("%d samples, want 4", len(ss))
	}
	if ss[0].lat < 30*time.Millisecond {
		t.Errorf("stalled request latency %v, want >= 30ms", ss[0].lat)
	}
	for i := 1; i < 4; i++ {
		lateBy := 30*time.Millisecond - time.Duration(i)*5*time.Millisecond
		if ss[i].late < lateBy || ss[i].lat < lateBy {
			t.Errorf("request %d: late %v, latency %v; want both >= %v", i, ss[i].late, ss[i].lat, lateBy)
		}
	}
}

func TestClosedLoopRunsPastDeadlineForSamples(t *testing.T) {
	now := time.Now()
	rule := stopRule{deadline: now, hard: now.Add(10 * time.Second), minSamples: 50}
	ss, _ := closedLoop(2, rule, func() bool { return true })
	if len(ss) < 50 {
		t.Errorf("%d samples, want at least 50", len(ss))
	}
	rule = stopRule{deadline: now.Add(time.Hour), hard: now.Add(20 * time.Millisecond), minSamples: 1 << 30}
	start := time.Now()
	closedLoop(1, rule, func() bool { time.Sleep(time.Millisecond); return true })
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("loop ran %v past its hard limit", took)
	}
}

func TestClientStaysWithinConnectionBudget(t *testing.T) {
	for _, conns := range []int{1, 2} {
		ep, err := serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(time.Millisecond)
			w.Write([]byte("ok"))
		}))
		if err != nil {
			t.Fatal(err)
		}
		cl := newClient(ep.url, conns, nil)
		rule := stopRule{deadline: time.Now().Add(200 * time.Millisecond), hard: time.Now().Add(time.Second)}
		// Twice as many senders as connections: the extra senders must
		// queue for a connection, not open one.
		ss, _ := closedLoop(2*conns, rule, func() bool { _, err := cl.get("/"); return err == nil })
		cl.close()
		ep.close()
		if okCount(ss) == 0 {
			t.Fatalf("%d connections: no request succeeded", conns)
		}
		if p := ep.peak.Load(); p > int64(conns) {
			t.Errorf("%d-connection client: server saw %d connections at once", conns, p)
		}
	}
}

func TestWorkloadsStayWithinNproc(t *testing.T) {
	for _, nproc := range []int{1, 2, runtime.NumCPU()} {
		rc := runConfig{nproc: nproc}
		for _, w := range workloads {
			if c := rc.clients(w.clients); c > nproc || c < 1 {
				t.Errorf("%s on %d CPUs: %d clients", w.name, nproc, c)
			}
		}
	}
}

// TestWorkloadsEndToEnd sets every workload up, drives it briefly and
// checks its answers; measure itself fails when the load generator opened
// more connections than the workload's budget.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("boots every workload")
	}
	rc := runConfig{seed: 3, seconds: time.Second, nproc: runtime.NumCPU()}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			f, err := w.setup(rc, t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer f.close()
			m, err := f.measure(1500*time.Millisecond, 0)
			if err != nil {
				t.Fatal(err)
			}
			if m.attempted == 0 || m.failed != 0 {
				t.Errorf("attempted %d, failed %d", m.attempted, m.failed)
			}
			if wrong, errs := f.verify(); wrong != 0 {
				t.Errorf("%d wrong answers: %v", wrong, errs)
			}
		})
	}
}
