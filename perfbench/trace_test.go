package main

import (
	"io"
	"os"
	"runtime"
	"testing"
	"time"
)

func span(id, parent, req int64, start, end int64) Span {
	return Span{ID: id, Parent: parent, Req: req, Name: "s", Start: start, End: end}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	// root [0,100] > a [10,40] > a1 [20,25]; root > b [50,70].
	spans := []Span{
		span(1, 0, 1, 0, 100),
		span(2, 1, 1, 10, 40),
		span(3, 2, 1, 20, 25),
		span(4, 1, 1, 50, 70),
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 50, 2: 25, 3: 5, 4: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, self[id], w)
		}
	}
	if err := checkSelfSums(spans); err != nil {
		t.Errorf("nested spans: %v", err)
	}
}

func TestSelfTimeCountsOverlapOnceAndClips(t *testing.T) {
	// Two children overlapping each other, one running past its parent.
	spans := []Span{
		span(1, 0, 1, 0, 100),
		span(2, 1, 1, 10, 40),
		span(3, 1, 1, 30, 120),
	}
	if got := selfTimes(spans)[1]; got != 10 {
		t.Errorf("self(root) = %v, want 10 (covered: 10..100)", got)
	}
	// 10 + 30 + 90 exceeds the request's 120 of wall time: the split is
	// invalid and the check must say so.
	if err := checkSelfSums(spans); err == nil {
		t.Error("overlapping siblings of one request: want an error")
	}
}

func TestSelfTimeAcrossRequests(t *testing.T) {
	// A coordinator call whose two shard sub-requests run in parallel,
	// each a request of its own.
	spans := []Span{
		span(1, 0, 1, 0, 100),
		span(2, 1, 2, 10, 50),
		span(3, 1, 3, 20, 60),
	}
	self := selfTimes(spans)
	if self[1] != 50 || self[2] != 40 || self[3] != 40 {
		t.Errorf("self times %v, want coordinator 50 and shards 40 each", self)
	}
	if err := checkSelfSums(spans); err != nil {
		t.Errorf("sub-requests: %v", err)
	}
}

func TestTracerRecordsOnlyWhenOn(t *testing.T) {
	var none *Tracer
	none.Record(none.NewID(), 0, 1, "x", time.Now(), time.Now())
	if none.Call("x", func() {}) < 0 || len(none.Spans()) != 0 {
		t.Error("nil tracer recorded a span")
	}
	tr := newTracer()
	tr.SetOn(false)
	tr.Call("paused", func() {})
	tr.SetOn(true)
	tr.Call("on", func() {})
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Name != "on" || spans[0].Req != spans[0].ID {
		t.Errorf("spans = %+v, want one request-rooted span named on", spans)
	}
	dur, self := byName(spans)
	if len(dur["on"]) != 1 || self["on"][0] != dur["on"][0] {
		t.Errorf("leaf span: self %v, duration %v", self["on"], dur["on"])
	}
}

// TestTracedRunReportsEveryLayer runs the traced cluster workload, whose
// shard sub-requests are requests of their own, briefly in a scratch
// directory: it must pass its answer and self-time checks and report
// every per-layer metric.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the layer replay")
	}
	t.Chdir(t.TempDir())
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("cluster-cold")
	res, err := run(w, runConfig{seed: 5, seconds: 2 * time.Second, trace: true, nproc: runtime.NumCPU()}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	for _, d := range layerDefs {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("%s: got %+v, present %v", d.name, m, ok)
		}
	}
	if len(res.Metrics) != len(layerDefs) {
		t.Errorf("%d metrics, want the %d per-layer ones", len(res.Metrics), len(layerDefs))
	}
}
