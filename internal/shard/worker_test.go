package shard

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"hare/internal/server"
)

// TestWorkerClampsWorkersHint: the workers hint is untrusted wire input
// that never changes the partial. A hint far beyond the machine's CPUs
// must answer the byte-identical partial of the clamped hint and allocate
// about as much, instead of starting that many goroutines with per-worker
// state.
func TestWorkerClampsWorkersHint(t *testing.T) {
	g := shardTestGraph(t)
	h := (&Worker{Graphs: &fakeSource{name: "d", g: g}, Backend: countBackend{}, Version: "test"}).Handler()
	post := func(sub SubRequest) ([]byte, uint64) {
		t.Helper()
		body, err := json.Marshal(sub)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathCompute, bytes.NewReader(body)))
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", sub.Kind, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes(), after.TotalAlloc - before.TotalAlloc
	}

	const hint = 1 << 14
	procs := runtime.GOMAXPROCS(0)
	base := SubRequest{
		Proto: ProtoVersion, Dataset: "d", Delta: 600, Shards: 1,
		Nodes: g.NumNodes(), Edges: g.NumEdges(),
	}
	cases := []SubRequest{
		{Kind: server.KindCount},
		{Kind: server.KindStar4, Hi: g.NumNodes()},
		{Kind: server.KindPath4, Hi: g.NumNodes()},
		{Kind: server.KindQuery, Spec: "x->y, y->z, z->x", Hi: g.NumEdges()},
		{Kind: server.KindSig, Model: "time-shuffle", Seed: 3, Hi: 2},
	}
	for _, tc := range cases {
		t.Run(string(tc.Kind), func(t *testing.T) {
			sub := base
			sub.Kind, sub.Spec, sub.Model, sub.Seed, sub.Hi = tc.Kind, tc.Spec, tc.Model, tc.Seed, tc.Hi
			sub.Workers = procs
			want, wantAlloc := post(sub)
			sub.Workers = hint
			got, gotAlloc := post(sub)
			if !bytes.Equal(got, want) {
				t.Fatalf("workers=%d partial differs from workers=%d:\n%s\nvs\n%s", hint, procs, got, want)
			}
			if limit := 2*wantAlloc + 1<<20; gotAlloc > limit {
				t.Fatalf("workers=%d allocated %d B, clamped run %d B (limit %d)", hint, gotAlloc, wantAlloc, limit)
			}
		})
	}
}
