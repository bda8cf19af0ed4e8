package stream

import (
	"sort"

	"hare/internal/temporal"
)

// nodeWindow is one node's edge history in the same columnar layout as the
// batch graph's CSR spans, with the far endpoint stored as its node slot:
// four parallel arrays sorted by EdgeID (equivalently by time, since
// ingestion is chronological). Expired edges are trimmed lazily; the backing
// columns are compacted once the live region falls below half the capacity,
// keeping amortised O(1) appends and O(d^δ) memory.
//
// All counting scans slice the window by explicit (EdgeID, Timestamp)
// predicates rather than by the head pointer, so trimming is pure memory
// reclamation and can run at any point where no scan is in flight.
type nodeWindow struct {
	id    []temporal.EdgeID
	time  []temporal.Timestamp
	other []temporal.NodeID
	out   []bool
	head  int // first live (non-expired) index
}

func (w *nodeWindow) trim(cutoff temporal.Timestamp) {
	for w.head < len(w.id) && w.time[w.head] < cutoff {
		w.head++
	}
	if w.head > len(w.id)/2 && w.head > 32 {
		n := copy(w.id, w.id[w.head:])
		copy(w.time, w.time[w.head:])
		copy(w.other, w.other[w.head:])
		copy(w.out, w.out[w.head:])
		w.id = w.id[:n]
		w.time = w.time[:n]
		w.other = w.other[:n]
		w.out = w.out[:n]
		w.head = 0
	}
}

func (w *nodeWindow) push(id temporal.EdgeID, t temporal.Timestamp, other temporal.NodeID, out bool) {
	w.id = append(w.id, id)
	w.time = append(w.time, t)
	w.other = append(w.other, other)
	w.out = append(w.out, out)
}

// live returns the non-trimmed region as a columnar view.
func (w *nodeWindow) live() temporal.Seq {
	return temporal.Seq{
		ID:    w.id[w.head:],
		Time:  w.time[w.head:],
		Other: w.other[w.head:],
		Out:   w.out[w.head:],
	}
}

// before returns the window edges with Time >= minTime and ID < id: the
// δ-window an arriving edge with that (id, time) sees. The result aliases
// the backing columns and is invalidated by the next push or trim.
func (w *nodeWindow) before(minTime temporal.Timestamp, id temporal.EdgeID) temporal.Seq {
	live := w.live()
	lo := live.LowerBoundTime(minTime)
	hi := sort.Search(live.Len(), func(i int) bool { return live.ID[i] >= id })
	if lo >= hi {
		return temporal.Seq{}
	}
	return live.Slice(lo, hi)
}

// from returns the live window starting at the edge with EdgeID id, which
// must not have been trimmed yet. Same aliasing caveat as before.
func (w *nodeWindow) from(id temporal.EdgeID) temporal.Seq {
	return w.live().After(id - 1)
}

// edgeRec is one edge of the batch or expiry queue, its endpoints given as
// node slots.
type edgeRec struct {
	id   temporal.EdgeID
	u, v temporal.NodeID
	t    temporal.Timestamp
}

// edgeFIFO is the sliding-window expiry queue, in EdgeID (= time) order.
type edgeFIFO struct {
	recs []edgeRec
	head int
}

func (f *edgeFIFO) push(r edgeRec) { f.recs = append(f.recs, r) }

// popExpired removes and returns every queued edge with Time < cutoff.
// The result aliases the queue and is invalidated by the next push or
// compact call, so retire the popped edges before touching the queue again.
func (f *edgeFIFO) popExpired(cutoff temporal.Timestamp) []edgeRec {
	lo := f.head
	for f.head < len(f.recs) && f.recs[f.head].t < cutoff {
		f.head++
	}
	return f.recs[lo:f.head]
}

// compact reclaims the popped prefix once no popExpired result is live.
func (f *edgeFIFO) compact() {
	if f.head > len(f.recs)/2 && f.head > 1024 {
		n := copy(f.recs, f.recs[f.head:])
		f.recs = f.recs[:n]
		f.head = 0
	}
}
