package temporal

import (
	"math"
	"testing"
)

func TestEdgeString(t *testing.T) {
	e := Edge{From: 3, To: 7, Time: 42}
	if got := e.String(); got != "(3,7,42)" {
		t.Fatalf("String = %q", got)
	}
}

func TestHalfEdgeDir(t *testing.T) {
	out := HalfEdge{Out: true}
	in := HalfEdge{Out: false}
	if out.Dir() != 1 || in.Dir() != 0 {
		t.Fatalf("Dir: out=%d in=%d", out.Dir(), in.Dir())
	}
}

func TestBuilderLen(t *testing.T) {
	b := NewBuilder(4)
	if b.Len() != 0 {
		t.Fatal("fresh builder not empty")
	}
	_ = b.AddEdge(0, 1, 5)
	_ = b.AddEdge(1, 1, 6) // self-loop: dropped
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1", b.Len())
	}
}

// Isolated high node IDs must size the graph correctly even with no edges
// touching the intermediate IDs.
func TestSparseNodeIDs(t *testing.T) {
	g := FromEdges([]Edge{{From: 0, To: 999, Time: 1}})
	if g.NumNodes() != 1000 {
		t.Fatalf("NumNodes = %d, want 1000", g.NumNodes())
	}
	if g.Degree(500) != 0 {
		t.Fatal("untouched node should have degree 0")
	}
	if g.Seq(500).Len() != 0 {
		t.Fatal("untouched node should have an empty sequence")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeTimestampsAllowed(t *testing.T) {
	g := FromEdges([]Edge{{From: 0, To: 1, Time: -100}, {From: 1, To: 0, Time: -50}})
	min, max, ok := g.TimeSpan()
	if !ok || min != -100 || max != -50 {
		t.Fatalf("span = (%d,%d,%v)", min, max, ok)
	}
}

func TestWindowBoundsSaturate(t *testing.T) {
	cases := []struct{ t, delta, start, end Timestamp }{
		{100, 10, 90, 110},
		{0, 0, 0, 0},
		{math.MinInt64 + 3, 10, math.MinInt64, math.MinInt64 + 13},
		{math.MaxInt64 - 3, 10, math.MaxInt64 - 13, math.MaxInt64},
		{-1, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1},
		{1, math.MaxInt64, math.MinInt64 + 2, math.MaxInt64},
	}
	for _, c := range cases {
		if got := WindowStart(c.t, c.delta); got != c.start {
			t.Errorf("WindowStart(%d, %d) = %d, want %d", c.t, c.delta, got, c.start)
		}
		if got := WindowEnd(c.t, c.delta); got != c.end {
			t.Errorf("WindowEnd(%d, %d) = %d, want %d", c.t, c.delta, got, c.end)
		}
	}
}
