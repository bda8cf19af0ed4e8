package stream

import (
	"math/rand"
	"sort"
	"testing"

	"hare/internal/brute"
	"hare/internal/fast"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// sortedRandomEdges yields a random edge list in non-decreasing time order.
func sortedRandomEdges(r *rand.Rand, nodes, edges int, span int64) []temporal.Edge {
	out := make([]temporal.Edge, 0, edges)
	for i := 0; i < edges; i++ {
		u := temporal.NodeID(r.Intn(nodes))
		v := temporal.NodeID(r.Intn(nodes))
		if u == v {
			v = (v + 1) % temporal.NodeID(nodes)
		}
		out = append(out, temporal.Edge{From: u, To: v, Time: r.Int63n(span)})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

func feed(t *testing.T, c *Counter, edges []temporal.Edge) {
	t.Helper()
	for _, e := range edges {
		if err := c.Add(e.From, e.To, e.Time); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStreamMatchesBatch(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for trial := 0; trial < 40; trial++ {
		nodes := 2 + r.Intn(12)
		edges := sortedRandomEdges(r, nodes, 1+r.Intn(150), 1+int64(r.Intn(50)))
		delta := int64(r.Intn(30))
		c, err := New(delta)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, c, edges)
		want := brute.Count(temporal.FromEdges(edges), delta)
		got := c.Matrix()
		if !got.Equal(&want) {
			t.Fatalf("trial %d (δ=%d, %d edges): diff %v", trial, delta, len(edges), got.Diff(&want))
		}
	}
}

// Every prefix of the stream must agree with a batch run over that prefix —
// the defining property of an online exact counter.
func TestStreamPrefixConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	edges := sortedRandomEdges(r, 8, 120, 40)
	delta := int64(12)
	c, err := New(delta)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range edges {
		if err := c.Add(e.From, e.To, e.Time); err != nil {
			t.Fatal(err)
		}
		if i%10 != 9 {
			continue
		}
		want := fast.Count(temporal.FromEdges(edges[:i+1]), delta).ToMatrix()
		got := c.Matrix()
		if !got.Equal(&want) {
			t.Fatalf("after %d edges: diff %v", i+1, got.Diff(&want))
		}
	}
}

func TestStreamTieHeavy(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for trial := 0; trial < 25; trial++ {
		edges := sortedRandomEdges(r, 2+r.Intn(6), 1+r.Intn(120), 1+int64(r.Intn(4)))
		delta := int64(r.Intn(4))
		c, _ := New(delta)
		feed(t, c, edges)
		want := brute.Count(temporal.FromEdges(edges), delta)
		got := c.Matrix()
		if !got.Equal(&want) {
			t.Fatalf("trial %d: diff %v", trial, got.Diff(&want))
		}
	}
}

func TestStreamErrors(t *testing.T) {
	if _, err := New(-1); err == nil {
		t.Fatal("want error for negative δ")
	}
	c, _ := New(10)
	if err := c.Add(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(1, 2, 99); err == nil {
		t.Fatal("want error for out-of-order edge")
	}
	if err := c.Add(-1, 2, 200); err == nil {
		t.Fatal("want error for negative node")
	}
	// Equal timestamps are fine.
	if err := c.Add(1, 2, 100); err != nil {
		t.Fatal(err)
	}
}

func TestStreamSelfLoops(t *testing.T) {
	c, _ := New(10)
	_ = c.Add(0, 0, 1)
	_ = c.Add(0, 1, 2)
	if c.SelfLoopsDropped() != 1 || c.Edges() != 1 {
		t.Fatalf("loops=%d edges=%d", c.SelfLoopsDropped(), c.Edges())
	}
}

func TestStreamAccessors(t *testing.T) {
	c, _ := New(42)
	if c.Delta() != 42 || c.Edges() != 0 {
		t.Fatal("accessors wrong on empty counter")
	}
	m := c.Matrix()
	if m.Total() != 0 {
		t.Fatal("empty counter has counts")
	}
}

// The window must actually trim: after a long quiet gap, per-node state
// shrinks back to the live suffix.
func TestStreamWindowTrim(t *testing.T) {
	c, _ := New(10)
	for i := 0; i < 1000; i++ {
		if err := c.Add(0, 1, int64(i)*100); err != nil {
			t.Fatal(err)
		}
	}
	w := &c.windows[c.slots[0]]
	if live := w.live().Len(); live > 2 {
		t.Fatalf("window kept %d live edges, want <= 2", live)
	}
	if len(w.id) > 64 {
		t.Fatalf("backing columns not compacted: %d", len(w.id))
	}
	// Widely spaced edges produce no motifs.
	m := c.Matrix()
	if m.Total() != 0 {
		t.Fatalf("spaced stream counted %d motifs", m.Total())
	}
}

func TestStreamKnownInstances(t *testing.T) {
	c, _ := New(100)
	// A cycle completes one M26 exactly when the closing edge arrives.
	_ = c.Add(0, 1, 1)
	_ = c.Add(1, 2, 2)
	before := c.Matrix()
	if before.Total() != 0 {
		t.Fatal("premature counts")
	}
	_ = c.Add(2, 0, 3)
	after := c.Matrix()
	if after.At(motif.Label{Row: 2, Col: 6}) != 1 || after.Total() != 1 {
		t.Fatalf("matrix after cycle:\n%v", &after)
	}
	// Ping-pong pair: u->v, v->u, u->v is M65.
	c2, _ := New(100)
	_ = c2.Add(5, 6, 10)
	_ = c2.Add(6, 5, 20)
	_ = c2.Add(5, 6, 30)
	m := c2.Matrix()
	if m.At(motif.Label{Row: 6, Col: 5}) != 1 || m.Total() != 1 {
		t.Fatalf("pair matrix:\n%v", &m)
	}
}

func TestStreamSkewedGraph(t *testing.T) {
	// Hub-heavy stream exercises the larger-window join path.
	r := rand.New(rand.NewSource(54))
	var edges []temporal.Edge
	for i := 0; i < 400; i++ {
		hub := temporal.NodeID(r.Intn(2))
		other := temporal.NodeID(2 + r.Intn(10))
		if r.Intn(2) == 0 {
			edges = append(edges, temporal.Edge{From: hub, To: other, Time: int64(i)})
		} else {
			edges = append(edges, temporal.Edge{From: other, To: hub, Time: int64(i)})
		}
	}
	delta := int64(25)
	c, _ := New(delta)
	feed(t, c, edges)
	want := brute.Count(temporal.FromEdges(edges), delta)
	got := c.Matrix()
	if !got.Equal(&want) {
		t.Fatalf("diff %v", got.Diff(&want))
	}
}
