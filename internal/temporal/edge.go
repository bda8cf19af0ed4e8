// Package temporal provides the temporal-graph substrate used by every
// algorithm in this repository: directed timestamped multigraphs with
// per-node time-ordered edge sequences and per-pair edge indexes.
//
// The representation is tuned for the access patterns of δ-temporal motif
// counting (Gao et al., ICDE 2022):
//
//   - Seq(u) returns the edge sequence S_u of a center node u, sorted
//     chronologically, with each entry carrying the neighbor, the direction
//     relative to u, and the global edge ID;
//   - Between(v, w) returns E(v,w), all edges between two nodes regardless
//     of direction, sorted chronologically, with directions relative to v.
//
// Tie-breaking: after a stable sort by timestamp every edge receives an
// EdgeID equal to its sorted position. All chronological-order comparisons in
// this module tree use EdgeID (a total order), while δ-window checks use raw
// timestamps. This makes instance counting deterministic and consistent
// across all algorithms even when timestamps collide.
package temporal

import (
	"fmt"
	"math"
)

// NodeID identifies a node. Nodes are dense integers in [0, NumNodes).
type NodeID = int32

// EdgeID identifies an edge by its position in the chronologically sorted
// edge list. EdgeIDs define the total temporal order used for motif
// instances.
type EdgeID = int32

// Timestamp is an edge's time in arbitrary integer units (seconds in all of
// the paper's datasets).
type Timestamp = int64

// WindowStart returns t-δ saturated at the smallest Timestamp, so that
// "s >= WindowStart(t, δ)" is exactly "t-s <= δ" for s <= t, without
// overflow. δ must be >= 0.
func WindowStart(t, delta Timestamp) Timestamp {
	if t < math.MinInt64+delta {
		return math.MinInt64
	}
	return t - delta
}

// WindowEnd returns t+δ saturated at the largest Timestamp, so that
// "s > WindowEnd(t, δ)" is exactly "s-t > δ", without overflow. δ must be
// >= 0.
func WindowEnd(t, delta Timestamp) Timestamp {
	if t > math.MaxInt64-delta {
		return math.MaxInt64
	}
	return t + delta
}

// Edge is a directed temporal edge From -> To at time Time.
type Edge struct {
	From NodeID
	To   NodeID
	Time Timestamp
}

// String renders the edge in "(u,v,t)" paper notation.
func (e Edge) String() string {
	return fmt.Sprintf("(%d,%d,%d)", e.From, e.To, e.Time)
}

// HalfEdge is an edge viewed from one of its endpoints ("w.r.t. the center
// node u" in the paper's terminology: e = (t, v, dir)).
type HalfEdge struct {
	ID    EdgeID    // global chronological edge ID
	Time  Timestamp // edge timestamp
	Other NodeID    // the node on the other side
	Out   bool      // true if the edge points away from the owning node
}

// Dir returns 1 for outward edges and 0 for inward edges, matching the
// direction index used by the motif counters.
func (h HalfEdge) Dir() int {
	if h.Out {
		return 1
	}
	return 0
}

// Seq is a columnar (struct-of-arrays) view of a chronologically ordered
// half-edge sequence: four parallel slices, one per HalfEdge field, all the
// same length. Hot loops iterate the columns directly; cold paths can use
// At. A Seq aliases the graph's (or window's) backing arrays — callers must
// not modify the slices, and a view into mutable storage (package stream's
// windows) is invalidated by the owner's next mutation.
//
// Entries are sorted by EdgeID, which for graph-backed views means sorted by
// timestamp with ties broken by input order.
type Seq struct {
	ID    []EdgeID
	Time  []Timestamp
	Other []NodeID
	Out   []bool
}

// Len returns the number of half-edges in the view.
func (s Seq) Len() int { return len(s.ID) }

// At gathers the i-th half-edge from the columns.
func (s Seq) At(i int) HalfEdge {
	return HalfEdge{ID: s.ID[i], Time: s.Time[i], Other: s.Other[i], Out: s.Out[i]}
}

// Slice returns the sub-view [lo, hi).
func (s Seq) Slice(lo, hi int) Seq {
	return Seq{ID: s.ID[lo:hi], Time: s.Time[lo:hi], Other: s.Other[lo:hi], Out: s.Out[lo:hi]}
}

// After returns the suffix with EdgeID strictly greater than id (binary
// search; the view is EdgeID-sorted).
func (s Seq) After(id EdgeID) Seq {
	lo, hi := 0, len(s.ID)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.ID[mid] <= id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return s.Slice(lo, s.Len())
}

// LowerBoundTime returns the first index with Time >= t (== Len() when none).
func (s Seq) LowerBoundTime(t Timestamp) int {
	lo, hi := 0, len(s.Time)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.Time[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// UpperBoundTime returns the first index with Time > t (== Len() when none).
func (s Seq) UpperBoundTime(t Timestamp) int {
	lo, hi := 0, len(s.Time)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.Time[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
