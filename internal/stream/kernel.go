package stream

import (
	"hare/internal/fast"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// kernel is one worker's scratch set: two of batch FAST's dense,
// epoch-versioned counters, indexed by node slot. star serves the star/pair
// scans and the triangle join's running tally; tally holds the join's
// per-window totals. A kernel must not be shared between goroutines.
type kernel struct {
	star, tally *fast.Scratch
}

func newKernel() *kernel {
	return &kernel{star: fast.NewScratch(), tally: fast.NewScratch()}
}

// countArrival tallies every motif instance completed by the edge
// (id, u->v, t): the arriving edge is the chronologically last edge of each
// instance. uw and vw are columnar views of the endpoints' δ-windows as of
// the arrival — edges with ID < id and Time >= t-δ.
func (k *kernel) countArrival(counts *motif.Counts, uw, vw temporal.Seq, u, v temporal.NodeID) {
	k.scanStarPair(counts, uw, v, true)
	k.scanStarPair(counts, vw, u, false)
	k.joinTriangles(&counts.Tri, true, uw, vw)
}

// countRetire tallies every still-live motif instance whose chronologically
// first edge is the expiring edge: us and vs are its endpoints' windows
// starting at that edge. Every such instance was counted at arrival time
// (all three edges span <= δ), so subtracting these tallies retires exactly
// the instances that drop out of the sliding window. The star/pair half is
// Algorithm 1 for exactly one first edge.
func (k *kernel) countRetire(counts *motif.Counts, delta temporal.Timestamp, us, vs temporal.Seq) {
	fast.CountStarPairRange(us, delta, counts, k.star, 0, 1)
	fast.CountStarPairRange(vs, delta, counts, k.star, 0, 1)
	end := temporal.WindowEnd(us.Time[0], delta)
	k.joinTriangles(&counts.Tri, false,
		us.Slice(1, us.UpperBoundTime(end)), vs.Slice(1, vs.UpperBoundTime(end)))
}

// scanStarPair counts the star/pair triples whose last edge is the arriving
// edge, centered at the window's owner. other is the arriving edge's far
// endpoint and out its direction relative to the owner.
//
// One forward pass over the window with running totals: at each candidate
// middle edge e2, the number of valid first edges of each class is known
// from the running counters, split by whether the first edge goes to the
// same neighbor as e2 / as the arriving edge.
func (k *kernel) scanStarPair(counts *motif.Counts, win temporal.Seq, other temporal.NodeID, out bool) {
	if win.Len() < 2 {
		return
	}
	s := k.star
	s.Reset()
	d3 := motif.DirOf(out)
	var nIn, nOut uint64
	for i, e2Other := range win.Other {
		e2Out := win.Out[i]
		d2 := motif.DirOf(e2Out)
		cin, cout := s.Vals(other)
		if e2Other == other {
			// e2 pairs with the arriving edge (both to `other`): a first
			// edge to `other` completes a 2-node pair; elsewhere it is the
			// isolated first edge of a Star-I.
			counts.Pair[motif.PairIndex(motif.In, d2, d3)] += cin
			counts.Pair[motif.PairIndex(motif.Out, d2, d3)] += cout
			counts.Star[motif.StarIndex(motif.StarI, motif.In, d2, d3)] += nIn - cin
			counts.Star[motif.StarIndex(motif.StarI, motif.Out, d2, d3)] += nOut - cout
		} else {
			// e2 goes to some n != other: a first edge to n pairs with e2
			// (Star-III); a first edge to `other` pairs with the arriving
			// edge (Star-II).
			cin2, cout2 := s.Vals(e2Other)
			counts.Star[motif.StarIndex(motif.StarIII, motif.In, d2, d3)] += cin2
			counts.Star[motif.StarIndex(motif.StarIII, motif.Out, d2, d3)] += cout2
			counts.Star[motif.StarIndex(motif.StarII, motif.In, d2, d3)] += cin
			counts.Star[motif.StarIndex(motif.StarII, motif.Out, d2, d3)] += cout
		}
		s.Bump(e2Other, e2Out)
		if e2Out {
			nOut++
		} else {
			nIn++
		}
	}
}

// joinTriangles counts the triangles in which the fixed edge u->v is the
// chronologically extreme edge of the instance: its two companions are one
// window edge u<->w and one window edge v<->w. With arrival == true the
// fixed edge is the newest (last) edge and the windows look backward;
// otherwise it is a retiring (first) edge and the windows look forward.
//
// Both cases record the instance in the cell its *arrival* classification
// uses — Triangle-III from the perspective of the vertex not on the last
// edge — so the sliding window's retired tallies subtract cell-exactly from
// the cumulative ones: di/dj are the center-incident edges' directions in
// chronological order, dk the last edge's direction relative to the first
// edge's far endpoint.
//
// The join counts rather than enumerates: one pass tallies the u-window by
// (neighbor, direction), then an EdgeID-ordered merge walk over the
// v-window keeps a running tally of the u-edges before the current v-edge,
// so each v-edge to w reads how many u-edges to w precede and follow it.
// Work is O(|uWin| + |vWin|).
func (k *kernel) joinTriangles(tri *motif.TriCounter, arrival bool, uWin, vWin temporal.Seq) {
	if uWin.Len() == 0 || vWin.Len() == 0 {
		return
	}
	total, before := k.tally, k.star
	total.Reset()
	before.Reset()
	for i, w := range uWin.Other {
		total.Bump(w, uWin.Out[i])
	}
	j := 0
	for i, w := range vWin.Other {
		for ; j < uWin.Len() && uWin.ID[j] < vWin.ID[i]; j++ {
			before.Bump(uWin.Other[j], uWin.Out[j])
		}
		tin, tout := total.Vals(w)
		if tin == 0 && tout == 0 {
			continue
		}
		bin, bout := before.Vals(w)
		ain, aout := tin-bin, tout-bout
		db := motif.DirOf(vWin.Out[i])
		if arrival {
			// The fixed edge is last; the center is the shared vertex w,
			// so the window edges' directions flip to w's perspective. An
			// earlier u-edge is ei (dk = Out: u->v leaves u); a later one
			// is ej with the v-edge as ei (dk = In: u->v enters v).
			dbW := db.Flip()
			tri[motif.TriIndex(motif.TriIII, motif.Out, dbW, motif.Out)] += bin
			tri[motif.TriIndex(motif.TriIII, motif.In, dbW, motif.Out)] += bout
			tri[motif.TriIndex(motif.TriIII, dbW, motif.Out, motif.In)] += ain
			tri[motif.TriIndex(motif.TriIII, dbW, motif.In, motif.In)] += aout
		} else {
			// The fixed edge is first (ei); the last edge is the later of
			// the pair and the center its non-endpoint, so every direction
			// is already stored center-relative. A later u-edge is last:
			// center v, ej = the v-edge. An earlier one: center u, ej = the
			// u-edge, dk = the v-edge relative to v.
			tri[motif.TriIndex(motif.TriIII, motif.In, db, motif.In)] += ain
			tri[motif.TriIndex(motif.TriIII, motif.In, db, motif.Out)] += aout
			tri[motif.TriIndex(motif.TriIII, motif.Out, motif.In, db)] += bin
			tri[motif.TriIndex(motif.TriIII, motif.Out, motif.Out, db)] += bout
		}
	}
}
