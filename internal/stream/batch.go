package stream

import (
	"fmt"
	"math"

	"hare/internal/engine"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// MinParallelBatch is the batch size below which fan-out overhead outweighs
// the parallel scans and AddBatch falls back to the sequential path.
// Callers tuning snapshot granularity against ingest parallelism (e.g.
// cmd/harestream) can use it to tell which side of the trade they are on.
const MinParallelBatch = 256

// batchChunk is the number of edges per engine.Dispatch work unit in the
// scan phases.
const batchChunk = 256

// AddBatch ingests a batch of edges, equivalent to calling Add for each in
// order but fanned out over the counter's workers: windows are appended
// in parallel, then every batch edge's arrival scan (and, in sliding
// mode, every expiry's retirement scan) runs concurrently into per-worker
// private counters that are merged at the end. Because each edge's scans
// are bounded by explicit (EdgeID, time) predicates rather than by mutable
// window state, the merged tallies are bit-identical to sequential Add.
//
// The batch is validated up front and rejected atomically: on error no edge
// of the batch has been ingested. Self-loops are counted and dropped, as in
// Add.
func (c *Counter) AddBatch(edges []temporal.Edge) error {
	if len(edges) >= 1<<30 {
		// The phase bucketing packs rec indices into int32s (index<<1|side);
		// larger batches would overflow them silently. Split at the caller.
		return fmt.Errorf("stream: batch of %d edges exceeds the %d limit; split it", len(edges), 1<<30-1)
	}
	last, started := c.lastT, c.started
	nonLoops := 0
	for i, e := range edges {
		if e.From < 0 || e.To < 0 {
			return fmt.Errorf("stream: batch edge %d: negative node id (%d,%d)", i, e.From, e.To)
		}
		if started && e.Time < last {
			return fmt.Errorf("stream: batch edge %d: out-of-order edge at t=%d (last %d)", i, e.Time, last)
		}
		started, last = true, e.Time
		if e.From != e.To {
			nonLoops++
		}
	}
	if int64(c.nextID) > math.MaxInt32-int64(nonLoops) {
		// See the matching guard in Add: int32 EdgeIDs must not wrap.
		return fmt.Errorf("stream: batch of %d edges would exhaust the edge id space (%d ingested)", nonLoops, c.nextID)
	}
	if len(edges) == 0 {
		return nil
	}
	workers := c.opts.Workers
	if workers > len(edges)/(MinParallelBatch/4) {
		workers = len(edges) / (MinParallelBatch / 4)
	}
	if workers <= 1 || len(edges) < MinParallelBatch {
		for _, e := range edges {
			c.addValidated(e.From, e.To, e.Time)
		}
		return nil
	}

	// Assign IDs and resolve node slots up front, sequentially; the
	// parallel phases below then only read c.windows' backing array.
	recs := make([]edgeRec, 0, len(edges))
	id := c.nextID
	for _, e := range edges {
		if e.From == e.To {
			c.loops++
			continue
		}
		recs = append(recs, edgeRec{id: id, u: c.slot(e.From), v: c.slot(e.To), t: e.Time})
		id++
	}
	c.nextID = id
	c.started, c.lastT = true, last
	cutoff := temporal.WindowStart(last, c.opts.Delta)
	if len(recs) == 0 {
		// Nothing to count, but the watermark still advanced: expire what
		// fell out of the window, as a loop of Add calls would have.
		if c.opts.Mode == Sliding {
			c.retireExpired(cutoff)
		}
		return nil
	}

	// Bucket the batch's half-edges by slot mod workers in one O(n) pass:
	// a bucket entry names a rec index plus which endpoint's half it holds.
	// Buckets partition the nodes and are filled in batch order, so per-node
	// append order (= EdgeID order) in the phases below is deterministic.
	buckets := make([][]int32, workers)
	for i, r := range recs {
		gu := int(r.u) % workers
		buckets[gu] = append(buckets[gu], int32(i)<<1)
		gv := int(r.v) % workers
		buckets[gv] = append(buckets[gv], int32(i)<<1|1)
	}

	// Phase 1: append both half-edges of every batch edge.
	c.eachHalf(workers, buckets, recs, func(w *nodeWindow, r edgeRec, out bool) {
		if out {
			w.push(r.id, r.t, r.v, true)
		} else {
			w.push(r.id, r.t, r.u, false)
		}
	})

	// Phase 2: arrival scans over the batch, worker-private counters. The
	// (ID < id, Time >= t-δ) window predicate reconstructs each edge's
	// exact as-of-arrival state from the already-appended arrays, so scan
	// order across workers cannot change the sums.
	c.scanPhase(workers, recs, false)

	// Phase 3 (sliding): queue the batch, pop everything now expired, and
	// run the retirement scans concurrently too — each expiring edge's
	// companions are fixed by the (ID > id, Time <= t+δ) predicate.
	if c.opts.Mode == Sliding {
		for _, r := range recs {
			c.fifo.push(r)
		}
		if popped := c.fifo.popExpired(cutoff); len(popped) > 0 {
			c.scanPhase(workers, popped, true)
		}
		c.fifo.compact()
	}

	// Phase 4: reclaim expired window prefixes. Purely a memory operation:
	// the scans above never look behind the cutoff.
	c.eachHalf(workers, buckets, recs, func(w *nodeWindow, _ edgeRec, _ bool) { w.trim(cutoff) })
	return nil
}

// eachHalf runs fn on the window of every half-edge in buckets, one bucket
// per work unit, so no window is touched by two goroutines. out tells which
// endpoint's half it is (the source's when true).
func (c *Counter) eachHalf(workers int, buckets [][]int32, recs []edgeRec, fn func(w *nodeWindow, r edgeRec, out bool)) {
	engine.Dispatch(workers, 1, len(buckets), func(_, lo, hi int) {
		for _, bucket := range buckets[lo:hi] {
			for _, ref := range bucket {
				r := recs[ref>>1]
				if ref&1 == 0 {
					fn(&c.windows[r.u], r, true)
				} else {
					fn(&c.windows[r.v], r, false)
				}
			}
		}
	})
}

// scanPhase fans the per-edge scans of recs out over workers with private
// counters, then merges them into the counter's tallies (retire selects the
// retirement kernels and the retired accumulator).
func (c *Counter) scanPhase(workers int, recs []edgeRec, retire bool) {
	for len(c.kerns) < workers {
		c.kerns = append(c.kerns, newKernel())
	}
	perWorker := make([]motif.Counts, workers)
	engine.Dispatch(workers, batchChunk, len(recs), func(w, lo, hi int) {
		k, counts := c.kerns[w], &perWorker[w]
		for _, r := range recs[lo:hi] {
			if retire {
				c.retire(k, counts, r)
			} else {
				c.arrive(k, counts, r)
			}
		}
	})
	total := &c.counts
	if retire {
		total = &c.retired
	}
	for w := range perWorker {
		total.Add(&perWorker[w])
	}
}
