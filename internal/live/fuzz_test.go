package live

import (
	"strings"
	"testing"

	"hare/internal/fast"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// denseGraph relabels node IDs to 0..n-1 in order of first appearance and
// builds the graph, so the oracle's cost never depends on the ID range.
func denseGraph(edges []temporal.Edge) *temporal.Graph {
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
	return temporal.FromEdges(out)
}

// FuzzIngestText drives two /v1/ingest bodies into one dataset. Each body
// must either be rejected with the version, edge count and both matrices
// unchanged, or be accepted with both matrices equal to batch FAST over the
// (densely relabelled) log. Graph() is never called: its snapshot build is
// O(max node ID).
func FuzzIngestText(f *testing.F) {
	for _, seed := range [][2]string{
		{"# header\n0 1 10\n1 2 12\n% note\n\n2 0 14\n", "0 2 15\n2 1 16\n"},
		{"0 1 10\n1 2 5\n", "3 4 1\n"},
		{"5 6 1\n6 5 2\n", "-1 2 3\n"},
		{"2147483647 2147483646 1\n2147483646 5 2\n5 2147483647 3\n", "2147483647 5 4\n"},
		{"2147483648 0 1\n", "0 1 2 extra\n1 0 3\n"},
		{"1 1 1\n0 1 1\n1 0 1\n", "0 0 2\n"},
		{"a b c\n", "0 1\n"},
		{"0 1 -5\n1 2 -3\n2 0 -1\n", "0 1 100\n"},
		{"0 1 -9223372036854775808\n1 0 -9223372036854775807\n0 1 -9223372036854775806\n", "1 0 9223372036854775807\n"},
	} {
		f.Add(seed[0], seed[1])
	}
	const delta = 8
	f.Fuzz(func(t *testing.T, first, second string) {
		d, err := New("fuzz", Options{Delta: delta, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range []string{first, second} {
			version, edges := d.Version(), d.Edges()
			m, wm := d.Matrix(), d.WindowMatrix()
			if _, err := d.IngestText(strings.NewReader(body)); err != nil {
				if d.Version() != version || d.Edges() != edges {
					t.Fatalf("rejected body moved version %d->%d or edges %d->%d: %v",
						version, d.Version(), edges, d.Edges(), err)
				}
				if got, gotW := d.Matrix(), d.WindowMatrix(); !got.Equal(&m) || !gotW.Equal(&wm) {
					t.Fatalf("rejected body changed the matrices: %v", err)
				}
				continue
			}
			d.mu.Lock()
			log := append([]temporal.Edge(nil), d.log...)
			lastT := d.lastT
			d.mu.Unlock()
			want := fast.Count(denseGraph(log), delta).ToMatrix()
			if got := d.Matrix(); !got.Equal(&want) {
				t.Fatalf("accepted body: cumulative diff %v", got.Diff(&want))
			}
			var live []temporal.Edge
			for _, e := range log {
				if e.Time >= temporal.WindowStart(lastT, delta) {
					live = append(live, e)
				}
			}
			var wantW motif.Matrix
			if len(live) > 0 {
				wantW = fast.Count(denseGraph(live), delta).ToMatrix()
			}
			if got := d.WindowMatrix(); !got.Equal(&wantW) {
				t.Fatalf("accepted body: window diff %v", got.Diff(&wantW))
			}
		}
	})
}
