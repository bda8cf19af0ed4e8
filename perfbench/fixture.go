package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hare"
	"hare/internal/approx"
	"hare/internal/buildinfo"
	"hare/internal/gen"
	"hare/internal/higher"
	"hare/internal/nullmodel"
	"hare/internal/server"
	"hare/internal/shard"
	"hare/internal/temporal"
)

// graphSpec names one generated input: a dataset of the built-in
// synthetic suite at a scale, registered with the server under name.
// Copies of one spec differ only in their generator seed.
type graphSpec struct {
	name  string
	base  string
	scale float64
	copy  int
}

// graphCopies is how many differently seeded copies of each graph the
// cold workloads spread their requests over, and live-mixed its rounds,
// so that one run's figures average over several inputs rather than
// riding on one graph's hubs.
const graphCopies = 4

// copies returns n copies of s named name-0 ... name-(n-1).
func copies(s graphSpec, n int) []graphSpec {
	out := make([]graphSpec, n)
	for i := range out {
		out[i] = s
		out[i].name = fmt.Sprintf("%s-%d", s.name, i)
		out[i].copy = i
	}
	return out
}

// The inputs. small is dense and collegemsg-like; hub is hub-skewed
// (wikitalk-like) and about 5x larger. The cluster graph is the same
// hub-skewed family, sized so a closed loop with one client completes
// enough requests in a run to resolve p99. The live stream is a
// hub-skewed edge sequence replayed through /v1/ingest.
var (
	smallSpec   = graphSpec{name: "small", base: "collegemsg", scale: 0.125}
	hubSpec     = graphSpec{name: "hub", base: "wikitalk", scale: 0.05}
	clusterSpec = graphSpec{name: "hub", base: "wikitalk", scale: 0.03}
	streamSpec  = graphSpec{name: "events", base: "wikitalk", scale: 0.1}
)

// baseDelta is the motif window δ every workload centres on.
const baseDelta = 600

// generate builds the spec's graph from the benchmark seed. The seed is
// mixed with the base name and copy so the inputs differ from one another.
func (s graphSpec) generate(seed int64) (*temporal.Graph, error) {
	cfg, err := gen.DatasetByName(s.base)
	if err != nil {
		return nil, err
	}
	cfg = gen.Scaled(cfg, s.scale)
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", s.base, seed, s.copy)
	cfg.Seed = int64(h.Sum64() >> 1)
	return gen.Generate(cfg)
}

// input is one generated graph and the text file it was written to.
type input struct {
	spec graphSpec
	g    *temporal.Graph
	path string
}

// writeInputs generates each spec's graph and writes it as a text edge
// list under dir.
func writeInputs(dir string, seed int64, specs ...graphSpec) ([]input, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	out := make([]input, len(specs))
	for i, s := range specs {
		g, err := s.generate(seed)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, s.name+".txt")
		if err := hare.SaveFile(path, g); err != nil {
			return nil, err
		}
		out[i] = input{spec: s, g: g, path: path}
	}
	return out, nil
}

// register registers each input with srv from its file, the way hared
// -data does, and loads it now, the way -preload does.
func register(srv *hare.Server, ins []input) error {
	for _, in := range ins {
		load := hare.FileLoader(in.path, hare.LoadOptions{}, nil)
		if err := srv.RegisterSourced(in.spec.name, "generated "+in.spec.base, load); err != nil {
			return err
		}
		if _, err := srv.Preload(in.spec.name); err != nil {
			return err
		}
	}
	return nil
}

// node is one hared service on a loopback socket.
type node struct {
	srv *hare.Server
	ep  *endpoint
}

// bootNode starts a single-node hared over the inputs.
func bootNode(tr *Tracer, ins []input) (*node, error) {
	opts := hare.ServerOptions{Version: buildinfo.Version()}
	if tr != nil {
		opts.Backend = &tracedBackend{tr: tr, inner: hare.LocalBackend()}
	}
	srv, err := hare.NewServer(opts)
	if err != nil {
		return nil, err
	}
	if err := register(srv, ins); err != nil {
		return nil, err
	}
	ep, err := serve(traceHandler(tr, srv.Handler()))
	if err != nil {
		return nil, err
	}
	return &node{srv: srv, ep: ep}, nil
}

func (n *node) close() { n.ep.close() }

// cluster is a coordinator scattering over shard workers, each on its own
// loopback socket.
type cluster struct {
	coord   *node
	workers []*endpoint
	client  *shard.Client
	wire    *wireTap
}

// bootCluster starts nWorkers single-threaded shard workers and a
// coordinator over them, all loading the same input files. Each worker
// computes one sub-request at a time, like a single-core machine: the
// in-process stand-ins share this host's CPUs, and without the lock a
// worker would run concurrent sub-requests in parallel.
func bootCluster(tr *Tracer, ins []input, nWorkers int) (*cluster, error) {
	c := &cluster{wire: &wireTap{tr: tr}}
	peers := make([]string, nWorkers)
	for i := range peers {
		wsrv, err := hare.NewServer(hare.ServerOptions{Role: "worker", WorkerBudget: 1, Version: buildinfo.Version()})
		if err != nil {
			c.close()
			return nil, err
		}
		if err := register(wsrv, ins); err != nil {
			c.close()
			return nil, err
		}
		w := &shard.Worker{Graphs: wsrv, Backend: hare.LocalBackend(), Version: buildinfo.Version()}
		var core sync.Mutex
		compute := w.Handler()
		mux := http.NewServeMux()
		mux.Handle(shard.PathCompute, c.wire.wrap(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			core.Lock()
			defer core.Unlock()
			compute.ServeHTTP(rw, r)
		})))
		mux.Handle(shard.PathInfo, compute)
		ep, err := serve(mux)
		if err != nil {
			c.close()
			return nil, err
		}
		c.workers = append(c.workers, ep)
		peers[i] = ep.url
	}
	client, err := shard.NewClient(peers, shard.Policy{}, nil)
	if err != nil {
		c.close()
		return nil, err
	}
	c.client = client
	var backend server.Backend = shard.NewCoordinator(client)
	if tr != nil {
		backend = &tracedBackend{tr: tr, inner: backend, scatter: &c.wire.parent}
	}
	srv, err := hare.NewServer(hare.ServerOptions{Backend: backend, Role: "coordinator", Version: buildinfo.Version()})
	if err != nil {
		c.close()
		return nil, err
	}
	if err := register(srv, ins); err != nil {
		c.close()
		return nil, err
	}
	ep, err := serve(traceHandler(tr, srv.Handler()))
	if err != nil {
		c.close()
		return nil, err
	}
	c.coord = &node{srv: srv, ep: ep}
	return c, nil
}

func (c *cluster) close() {
	if c.coord != nil {
		c.coord.close()
	}
	for _, w := range c.workers {
		w.close()
	}
}

// wireTap wraps the shard workers' compute handler. It counts the bytes
// each sub-request moves and, when tracing, records a "shard.worker" span
// per sub-request: a request of its own whose parent is the coordinator
// call that scattered it. Scatter calls are attributed through parent,
// which holds the open coordinator span; the workloads that trace a
// cluster keep one coordinator call in flight at a time.
type wireTap struct {
	tr       *Tracer
	parent   atomic.Int64
	bytes    atomic.Int64
	captured func(body []byte) // optional: receives each response body
}

func (t *wireTap) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.tr.NewID()
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w, keep: t.captured != nil}
		h.ServeHTTP(cw, r)
		t.tr.Record(id, t.parent.Load(), id, "shard.worker", start, time.Now())
		t.bytes.Add(r.ContentLength + cw.n)
		if t.captured != nil {
			t.captured(cw.body)
		}
	})
}

type countingWriter struct {
	http.ResponseWriter
	n    int64
	keep bool
	body []byte
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	if w.keep {
		w.body = append(w.body, p[:n]...)
	}
	return n, err
}

// traceHeader carries "<request id>/<span id>" from the load generator to
// the handler wrapper, which removes it before the service sees the
// request.
const traceHeader = "X-Perfbench-Trace"

type spanKey struct{}

// spanRef is the request and span a call runs under.
type spanRef struct{ req, span int64 }

func parseTraceHeader(v string) spanRef {
	a, b, ok := strings.Cut(v, "/")
	if !ok {
		return spanRef{}
	}
	req, err1 := strconv.ParseInt(a, 10, 64)
	span, err2 := strconv.ParseInt(b, 10, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}
	}
	return spanRef{req, span}
}

// traceHandler records a "server.handler" span around the service's
// handler, as a child of the load generator's span. With a nil tracer it
// returns h itself.
func traceHandler(tr *Tracer, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref := parseTraceHeader(r.Header.Get(traceHeader))
		r.Header.Del(traceHeader)
		id := tr.NewID()
		if ref.req == 0 || id == 0 {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{ref.req, id})))
		tr.Record(id, ref.span, ref.req, "server.handler", start, time.Now())
	})
}

// tracedBackend records a "backend" span around each counting job, as a
// child of the handler span whose request started the job (the server's
// job context keeps the first requester's values). When scatter is set,
// it holds the open span so shard sub-requests can name it as parent.
type tracedBackend struct {
	tr      *Tracer
	inner   server.Backend
	scatter *atomic.Int64
}

func traced[T any](b *tracedBackend, ctx context.Context, f func() (T, error)) (T, error) {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	id := b.tr.NewID()
	if ref.req == 0 {
		id = 0 // a job no traced request started: leave it out
	}
	if b.scatter != nil {
		b.scatter.Store(id)
	}
	start := time.Now()
	v, err := f()
	b.tr.Record(id, ref.span, ref.req, "backend", start, time.Now())
	return v, err
}

func (b *tracedBackend) Count(ctx context.Context, g *temporal.Graph, req server.Request) (server.CountAnswer, error) {
	return traced(b, ctx, func() (server.CountAnswer, error) { return b.inner.Count(ctx, g, req) })
}

func (b *tracedBackend) Star4(ctx context.Context, g *temporal.Graph, req server.Request) (higher.Star4Counter, error) {
	return traced(b, ctx, func() (higher.Star4Counter, error) { return b.inner.Star4(ctx, g, req) })
}

func (b *tracedBackend) Path4(ctx context.Context, g *temporal.Graph, req server.Request) (higher.PathCounter, error) {
	return traced(b, ctx, func() (higher.PathCounter, error) { return b.inner.Path4(ctx, g, req) })
}

func (b *tracedBackend) Significance(ctx context.Context, g *temporal.Graph, req server.Request) (*nullmodel.Report, error) {
	return traced(b, ctx, func() (*nullmodel.Report, error) { return b.inner.Significance(ctx, g, req) })
}

func (b *tracedBackend) Query(ctx context.Context, g *temporal.Graph, req server.Request) (uint64, error) {
	return traced(b, ctx, func() (uint64, error) { return b.inner.Query(ctx, g, req) })
}

func (b *tracedBackend) Star4Approx(ctx context.Context, g *temporal.Graph, req server.Request) (*approx.Result, error) {
	return traced(b, ctx, func() (*approx.Result, error) { return b.inner.Star4Approx(ctx, g, req) })
}

func (b *tracedBackend) Path4Approx(ctx context.Context, g *temporal.Graph, req server.Request) (*approx.Result, error) {
	return traced(b, ctx, func() (*approx.Result, error) { return b.inner.Path4Approx(ctx, g, req) })
}

func (b *tracedBackend) QueryApprox(ctx context.Context, g *temporal.Graph, req server.Request) (*approx.Result, error) {
	return traced(b, ctx, func() (*approx.Result, error) { return b.inner.QueryApprox(ctx, g, req) })
}

// freshDir creates an empty directory for one set-up's files.
func freshDir(parent, name string) (string, error) {
	dir := filepath.Join(parent, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
