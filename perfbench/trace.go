package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one call at a layer boundary, recorded by the benchmark around
// the call into the layer. Spans of one request share Req; Parent is the
// span that caused this one, possibly in another request (a shard
// sub-request's parent is the coordinator call that scattered it).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pass nil and pay one branch per call site.
type Tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

// newTracer returns a tracer that is recording.
func newTracer() *Tracer {
	t := &Tracer{epoch: time.Now()}
	t.on.Store(true)
	return t
}

// SetOn starts or pauses recording.
func (t *Tracer) SetOn(on bool) { t.on.Store(on) }

// NewID allocates a span or request ID, or returns 0 when the tracer is
// nil or paused.
func (t *Tracer) NewID() int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	return t.ids.Add(1)
}

// Record stores one finished span; a span whose ID is 0 was begun while
// the tracer recorded nothing and is dropped.
func (t *Tracer) Record(id, parent, req int64, name string, start, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	s := Span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Call runs f as a request of its own with a single span, and returns the
// span's duration.
func (t *Tracer) Call(name string, f func()) time.Duration {
	id := t.NewID()
	start := time.Now()
	f()
	end := time.Now()
	t.Record(id, 0, id, name, start, end)
	return end.Sub(start)
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes maps each span ID to its self time: its duration minus the
// part of its interval that its children cover. Children are clipped to
// the parent and overlapping children are counted once.
func selfTimes(spans []Span) map[int64]time.Duration {
	byID := make(map[int64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if s.Parent == 0 || !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if lo < hi {
			kids[p.ID] = append(kids[p.ID], [2]int64{lo, hi})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - time.Duration(unionLen(kids[s.ID]))
	}
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	first := true
	for _, x := range iv {
		switch {
		case first || x[0] >= end:
			total += x[1] - x[0]
			end, first = x[1], false
		case x[1] > end:
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// checkSelfSums verifies that on every request the self times of its
// spans sum to no more than the request's wall time (first start to last
// end). A violation means a span escaped its parent or two spans of one
// request overlapped without nesting, and the per-layer split is invalid.
func checkSelfSums(spans []Span) error {
	self := selfTimes(spans)
	type acc struct {
		lo, hi int64
		sum    time.Duration
		seen   bool
	}
	reqs := make(map[int64]*acc)
	for _, s := range spans {
		a := reqs[s.Req]
		if a == nil {
			a = &acc{}
			reqs[s.Req] = a
		}
		if !a.seen || s.Start < a.lo {
			a.lo = s.Start
		}
		if !a.seen || s.End > a.hi {
			a.hi = s.End
		}
		a.seen = true
		a.sum += self[s.ID]
	}
	for id, a := range reqs {
		if wall := time.Duration(a.hi - a.lo); a.sum > wall {
			return fmt.Errorf("request %d: span self times sum to %v, wall time %v", id, a.sum, wall)
		}
	}
	return nil
}

// byName groups span durations and self times by span name.
func byName(spans []Span) (dur, self map[string][]time.Duration) {
	st := selfTimes(spans)
	dur = make(map[string][]time.Duration)
	self = make(map[string][]time.Duration)
	for _, s := range spans {
		dur[s.Name] = append(dur[s.Name], s.dur())
		self[s.Name] = append(self[s.Name], st[s.ID])
	}
	return dur, self
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
