package stream

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hare/internal/brute"
	"hare/internal/fast"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// relabel maps node IDs to 0..n-1 in order of first appearance, the dense
// graph the brute-force oracle counts on.
func relabel(edges []temporal.Edge) []temporal.Edge {
	ids := make(map[temporal.NodeID]temporal.NodeID)
	id := func(u temporal.NodeID) temporal.NodeID {
		d, ok := ids[u]
		if !ok {
			d = temporal.NodeID(len(ids))
			ids[u] = d
		}
		return d
	}
	out := make([]temporal.Edge, len(edges))
	for i, e := range edges {
		out[i] = temporal.Edge{From: id(e.From), To: id(e.To), Time: e.Time}
	}
	return out
}

// TestSparseAndExtremeNodeIDs: per-node state is keyed by dense slots, so
// streams over sparse IDs and IDs up to MaxInt32 count exactly like their
// dense relabelling through Add, AddBatch and sliding mode.
func TestSparseAndExtremeNodeIDs(t *testing.T) {
	sparseIDs := []temporal.NodeID{
		math.MaxInt32, math.MaxInt32 - 1, math.MaxInt32 - 17, 1 << 30,
		123_456_789, 7_000_003, 1 << 20, 65_537, 42, 0,
	}
	r := rand.New(rand.NewSource(97))
	edges := sortedRandomEdges(r, len(sparseIDs), 3*MinParallelBatch, 2000)
	for i := range edges {
		edges[i].From, edges[i].To = sparseIDs[edges[i].From], sparseIDs[edges[i].To]
	}
	const delta = 120
	last := edges[len(edges)-1].Time
	wantAll := brute.Count(temporal.FromEdges(relabel(edges)), delta)
	wantWin := brute.Count(temporal.FromEdges(relabel(liveSubset(edges, last, delta))), delta)

	check := func(name string, c *Counter) {
		t.Helper()
		if got := c.Matrix(); !got.Equal(&wantAll) {
			t.Fatalf("%s: cumulative diff %v", name, got.Diff(&wantAll))
		}
		if c.Mode() != Sliding {
			return
		}
		got, err := c.WindowMatrix()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(&wantWin) {
			t.Fatalf("%s: window diff %v", name, got.Diff(&wantWin))
		}
	}
	for _, mode := range []Mode{Cumulative, Sliding} {
		c, _ := NewCounter(Options{Delta: delta, Mode: mode})
		feed(t, c, edges)
		check("Add", c)

		c, _ = NewCounter(Options{Delta: delta, Mode: mode, Workers: 3})
		feedBatches(t, c, edges, MinParallelBatch+7)
		check("AddBatch", c)
	}
}

// TestExtremeNodeIDMemory: a few edges touching ID MaxInt32-1 must cost
// memory for the nodes seen, not for the ID range — the guard against any
// per-node array indexed by raw node ID.
func TestExtremeNodeIDMemory(t *testing.T) {
	const hi = math.MaxInt32 - 1
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, _ := NewCounter(Options{Delta: 100, Mode: Sliding, Workers: 2})
	// Two triangles and a star through the extreme IDs, then enough time
	// for every edge to expire through the retirement kernels.
	for i, e := range []temporal.Edge{
		{From: hi, To: hi - 1}, {From: hi - 1, To: 5}, {From: 5, To: hi},
		{From: hi, To: hi - 1}, {From: hi - 1, To: 5}, {From: 5, To: hi},
		{From: hi, To: 0}, {From: hi, To: 1},
	} {
		if err := c.Add(e.From, e.To, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Advance(1000); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if used := after.TotalAlloc - before.TotalAlloc; used > 1<<20 {
		t.Fatalf("8 edges near MaxInt32 allocated %d B, want < 1 MiB", used)
	}
	if got := c.Matrix(); got.At(motif.Label{Row: 2, Col: 6}) == 0 {
		t.Fatalf("cycles through extreme IDs not counted:\n%v", &got)
	}
	if w, _ := c.WindowMatrix(); w.Total() != 0 {
		t.Fatalf("drained window still holds %d instances", w.Total())
	}
}

// TestExtremeTimestamps: window bounds must not overflow. A stream shifted
// to either end of the int64 range counts exactly like the unshifted one,
// through Add, AddBatch and sliding retirement.
func TestExtremeTimestamps(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	const delta, span = 40, 3000
	edges := sortedRandomEdges(r, 15, 3*MinParallelBatch, span)
	last := edges[len(edges)-1].Time
	wantAll := fast.Count(temporal.FromEdges(edges), delta).ToMatrix()
	wantWin := fast.Count(temporal.FromEdges(liveSubset(edges, last, delta)), delta).ToMatrix()
	for _, shift := range []int64{math.MinInt64, math.MaxInt64 - span} {
		shifted := make([]temporal.Edge, len(edges))
		for i, e := range edges {
			shifted[i] = temporal.Edge{From: e.From, To: e.To, Time: e.Time + shift}
		}
		for _, batch := range []int{1, MinParallelBatch + 3} {
			c, _ := NewCounter(Options{Delta: delta, Mode: Sliding, Workers: 3})
			feedBatches(t, c, shifted, batch)
			got := c.Matrix()
			gotWin, _ := c.WindowMatrix()
			if !got.Equal(&wantAll) || !gotWin.Equal(&wantWin) {
				t.Fatalf("shift %d, batch %d: cumulative diff %v, window diff %v",
					shift, batch, got.Diff(&wantAll), gotWin.Diff(&wantWin))
			}
		}
	}
}
