// Package stream provides exact online δ-temporal motif counting for edge
// streams — the "frequently updated dynamic systems" the paper's
// introduction motivates. Edges arrive in non-decreasing time order; after
// every arrival the counter holds the exact cumulative counts of all motif
// instances completed so far and, in sliding mode, the exact counts of the
// instances lying entirely inside the last δ window.
//
// The algorithm inverts FAST's loop structure: instead of fixing the first
// edge and scanning forward (Algorithm 1), the newest edge is the *last*
// edge of every newly completed instance, and one backward scan over each
// endpoint's δ-window counts the completed star/pair triples while a
// shared-neighbor join between the two windows counts the completed
// triangles. Per-edge cost is O(d^δ) for stars, pairs and triangles alike,
// paid incrementally. Sliding mode additionally retires instances when an edge
// expires: the expiring edge is the *first* edge of every instance leaving
// the window, so Algorithm 1 run for that one first edge retires them
// exactly.
//
// The scans count on batch FAST's dense scratch (fast.Scratch). Each node
// gets a dense slot on first sight, and windows, scratch counters and the
// expiry queue are all indexed by slot, so state is bounded by the distinct
// nodes seen rather than by the node-ID range. AddBatch fans a batch of
// edges out over worker goroutines (engine.Dispatch) with private
// per-worker counters merged at the end, so ingest throughput and state
// maintenance both scale across cores while results stay bit-identical to
// sequential Add and to batch hare.Count.
package stream

import (
	"fmt"
	"math"
	"runtime"

	"hare/internal/motif"
	"hare/internal/temporal"
)

// Mode selects what Counter.Matrix-family accessors can report.
type Mode int

const (
	// Cumulative counts every instance completed since the stream began.
	// This is the cheapest mode: expired edges are forgotten, never
	// re-examined.
	Cumulative Mode = iota
	// Sliding additionally retires instances as their first edge leaves the
	// δ window, so WindowMatrix reports exactly the instances whose edges
	// all lie in [t_latest-δ, t_latest]. Roughly doubles per-edge work.
	Sliding
)

// Options configures a Counter. The zero value of everything but Delta is
// usable: cumulative mode, GOMAXPROCS batch workers.
type Options struct {
	// Delta is the motif window δ (>= 0).
	Delta temporal.Timestamp
	// Mode selects cumulative-only or sliding-window counting.
	Mode Mode
	// Workers is the goroutine count for AddBatch fan-out. <= 0 selects
	// runtime.GOMAXPROCS(0). Sequential Add ignores it.
	Workers int
}

// Counter is an exact online motif counter. The zero value is not usable;
// call New or NewCounter.
type Counter struct {
	opts Options
	// slots gives each node its dense slot on first sight; windows is
	// indexed by slot. Only slot resolution touches the map.
	slots   map[temporal.NodeID]temporal.NodeID
	windows []nodeWindow

	counts  motif.Counts // completed instances (cumulative)
	retired motif.Counts // expired instances (sliding mode only)
	fifo    edgeFIFO     // live edges pending expiry (sliding mode only)

	nextID  temporal.EdgeID
	lastT   temporal.Timestamp
	started bool
	loops   uint64

	kerns []*kernel // per-worker scratch sets, grown on demand; Add uses kerns[0]
}

// New returns an empty cumulative Counter with the given window δ.
func New(delta temporal.Timestamp) (*Counter, error) {
	return NewCounter(Options{Delta: delta})
}

// NewSliding returns an empty sliding-window Counter with window δ.
func NewSliding(delta temporal.Timestamp) (*Counter, error) {
	return NewCounter(Options{Delta: delta, Mode: Sliding})
}

// NewCounter returns an empty Counter with the given options.
func NewCounter(opts Options) (*Counter, error) {
	if opts.Delta < 0 {
		return nil, fmt.Errorf("stream: negative δ (%d)", opts.Delta)
	}
	if opts.Mode != Cumulative && opts.Mode != Sliding {
		return nil, fmt.Errorf("stream: unknown mode (%d)", opts.Mode)
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	return &Counter{
		opts:    opts,
		slots:   make(map[temporal.NodeID]temporal.NodeID),
		counts:  motif.Counts{TriMultiplicity: 1},
		retired: motif.Counts{TriMultiplicity: 1},
		kerns:   []*kernel{newKernel()},
	}, nil
}

// Delta returns the counter's window.
func (c *Counter) Delta() temporal.Timestamp { return c.opts.Delta }

// Mode returns the counter's counting mode.
func (c *Counter) Mode() Mode { return c.opts.Mode }

// Edges returns the number of edges ingested (self-loops excluded).
func (c *Counter) Edges() int { return int(c.nextID) }

// SelfLoopsDropped returns how many self-loop edges were ignored.
func (c *Counter) SelfLoopsDropped() uint64 { return c.loops }

// Matrix returns the cumulative exact per-motif counts over everything
// ingested so far, in every mode.
func (c *Counter) Matrix() motif.Matrix { return c.counts.ToMatrix() }

// WindowMatrix returns the exact per-motif counts of the instances whose
// edges all lie in the current window [t-δ, t], where t is the largest
// timestamp seen (via Add, AddBatch, or Advance). Only sliding-mode
// counters track the retirements this needs.
func (c *Counter) WindowMatrix() (motif.Matrix, error) {
	if c.opts.Mode != Sliding {
		return motif.Matrix{}, fmt.Errorf("stream: WindowMatrix requires Sliding mode")
	}
	live := c.counts
	live.Sub(&c.retired)
	return live.ToMatrix(), nil
}

// slot returns node u's slot, assigning the next one (and an empty window)
// on first sight. It may reallocate c.windows.
func (c *Counter) slot(u temporal.NodeID) temporal.NodeID {
	s, ok := c.slots[u]
	if !ok {
		s = temporal.NodeID(len(c.windows))
		c.slots[u] = s
		c.windows = append(c.windows, nodeWindow{})
	}
	return s
}

// arrive adds the instances the edge r completes to counts.
func (c *Counter) arrive(k *kernel, counts *motif.Counts, r edgeRec) {
	cutoff := temporal.WindowStart(r.t, c.opts.Delta)
	k.countArrival(counts, c.windows[r.u].before(cutoff, r.id), c.windows[r.v].before(cutoff, r.id), r.u, r.v)
}

// retire adds the still-live instances the expiring edge r leads to counts.
// r is still in both endpoint windows: trim only drops edges older than a
// cutoff the expiry queue has already popped.
func (c *Counter) retire(k *kernel, counts *motif.Counts, r edgeRec) {
	k.countRetire(counts, c.opts.Delta, c.windows[r.u].from(r.id), c.windows[r.v].from(r.id))
}

// Add ingests the directed edge u -> v at time t. Times must be
// non-decreasing; equal timestamps are ordered by arrival, matching the
// batch algorithms' tie convention. Self-loops are counted and dropped.
func (c *Counter) Add(u, v temporal.NodeID, t temporal.Timestamp) error {
	if u < 0 || v < 0 {
		return fmt.Errorf("stream: negative node id (%d,%d)", u, v)
	}
	if c.started && t < c.lastT {
		return fmt.Errorf("stream: out-of-order edge at t=%d (last %d)", t, c.lastT)
	}
	if c.nextID >= math.MaxInt32 {
		// EdgeIDs are int32 and every window scan relies on their monotonic
		// order; wrapping would corrupt counts silently, so refuse instead.
		return fmt.Errorf("stream: edge id space exhausted after %d edges", c.nextID)
	}
	c.addValidated(u, v, t)
	return nil
}

func (c *Counter) addValidated(u, v temporal.NodeID, t temporal.Timestamp) {
	c.started, c.lastT = true, t
	cutoff := temporal.WindowStart(t, c.opts.Delta)
	if c.opts.Mode == Sliding {
		c.retireExpired(cutoff)
	}
	if u == v {
		c.loops++
		return
	}
	r := edgeRec{id: c.nextID, u: c.slot(u), v: c.slot(v), t: t}
	c.nextID++
	c.arrive(c.kerns[0], &c.counts, r)

	wu, wv := &c.windows[r.u], &c.windows[r.v]
	wu.push(r.id, t, r.v, true)
	wv.push(r.id, t, r.u, false)
	wu.trim(cutoff)
	wv.trim(cutoff)
	if c.opts.Mode == Sliding {
		c.fifo.push(r)
	}
}

// retireExpired pops every live edge older than cutoff and subtracts the
// instances it leads. Pops happen in EdgeID order, so each expiring edge is
// the chronologically first edge of every instance it still participates
// in; its companions are exactly the in-window edges that follow it
// (ID greater, time within δ) — see kernel.countRetire.
func (c *Counter) retireExpired(cutoff temporal.Timestamp) {
	for _, r := range c.fifo.popExpired(cutoff) {
		c.retire(c.kerns[0], &c.retired, r)
	}
	c.fifo.compact()
}

// Advance moves the sliding window's right edge to time t without ingesting
// an edge, expiring everything older than t-δ — e.g. to drain a quiet
// stream for a dashboard. Subsequent edges must not be older than t.
// In cumulative mode it only enforces the time watermark.
func (c *Counter) Advance(t temporal.Timestamp) error {
	if c.started && t < c.lastT {
		return fmt.Errorf("stream: Advance to t=%d behind watermark %d", t, c.lastT)
	}
	c.started, c.lastT = true, t
	if c.opts.Mode == Sliding {
		c.retireExpired(temporal.WindowStart(t, c.opts.Delta))
	}
	return nil
}
