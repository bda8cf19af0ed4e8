package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hare"
	"hare/internal/buildinfo"
	"hare/internal/temporal"
)

// workload is one traffic mix driven against the service.
type workload struct {
	name    string
	loop    string
	clients int // client connections; never more than nproc
	why     string
	setup   func(rc runConfig, dir string, tr *Tracer) (fixture, error)
}

// The workloads. BENCHMARK.json repeats each name and why.
var workloads = []workload{
	{
		name: "serve-cold", loop: "closed", clients: 2, setup: setupCold,
		why: "closed loop, 2 clients; every key distinct so every request misses the cache and the counting kernels do the work",
	},
	{
		name: "serve-hot", loop: "closed, then open at a fixed rate", clients: 2, setup: setupHot,
		why: "closed loop, 2 clients, then open loop at a fixed rate; Zipf repeats of warmed keys so only routing, cache hits and render work",
	},
	{
		name: "live-mixed", loop: "closed writer, open reader", clients: 2, setup: setupLive,
		why: "1 closed-loop ingest writer beside 1 open-loop reader on one live dataset, so ingest and snapshot rebuilds contend",
	},
	{
		name: "cluster-cold", loop: "closed", clients: 1, setup: setupCluster,
		why: "closed loop, 1 client; distinct keys through a coordinator and 2 single-threaded shard workers, the only scatter/gather path",
	},
}

// Workload sizing.
const (
	// hotOpenRate is serve-hot's open-loop rate in requests per second,
	// about half the closed-loop rate measured on a 2-CPU host.
	hotOpenRate = 8000
	// liveBatch is the edge count of one /v1/ingest POST.
	liveBatch = 2000
	// liveReadEvery is the live reader's open-loop interval.
	liveReadEvery = 80 * time.Millisecond
)

// measurement is what one timed phase of a workload produced.
type measurement struct {
	primary   []sample      // the latency reported as latency_p50/p99
	closed    []sample      // the closed loop's requests, for req_per_s
	closedFor time.Duration // how long the closed loop ran
	attempted int
	failed    int
	late      []time.Duration // open-loop send lateness
	notes     []note          // workload-specific figures printed beside the metrics
}

// note is one figure the summary prints but the result line leaves out.
type note struct {
	name    string
	value   float64
	unit    string
	samples int
}

// fixture is one workload's set-up: the generated inputs and the services
// booted over them.
type fixture interface {
	// measure drives the workload for d, longer if fewer than minSamples
	// primary samples completed (up to 3d).
	measure(d time.Duration, minSamples int) (*measurement, error)
	// verify checks, off the clock, every answer collected so far against
	// the library, and returns the number of wrong answers.
	verify() (wrong int, errs []error)
	// cacheStats are the service's result-cache counters.
	cacheStats() (hits, misses, coalesced float64)
	// readCounts counts live reads and those that recomputed their answer.
	readCounts() (total, recomputed int)
	inputs() []input
	close()
}

// answerLog keeps one copy of every distinct response body per request,
// with how many requests returned it, for checking after the run.
type answerLog struct {
	mu     sync.Mutex
	reqs   map[string]request
	bodies map[string]map[uint64]*loggedBody
}

type loggedBody struct {
	body []byte
	n    int
}

func newAnswerLog() *answerLog {
	return &answerLog{reqs: make(map[string]request), bodies: make(map[string]map[uint64]*loggedBody)}
}

func (l *answerLog) add(path string, r request, body []byte) {
	h := fnv.New64a()
	h.Write(body)
	sum := h.Sum64()
	l.mu.Lock()
	defer l.mu.Unlock()
	byHash := l.bodies[path]
	if byHash == nil {
		byHash = make(map[uint64]*loggedBody)
		l.bodies[path] = byHash
		l.reqs[path] = r
	}
	if b := byHash[sum]; b != nil {
		b.n++
		return
	}
	byHash[sum] = &loggedBody{body: append([]byte(nil), body...), n: 1}
}

// verify checks every logged body against the library's answer on the
// dataset's generated graph, on workers goroutines.
func (l *answerLog) verify(graphs map[string]*temporal.Graph, workers int) (wrong int, errs []error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	paths := make([]string, 0, len(l.reqs))
	for p := range l.reqs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var mu sync.Mutex
	parallel(len(paths), workers, func(i int) {
		p := paths[i]
		r := l.reqs[p]
		want, refErr := reference(graphs[r.dataset], r)
		for _, b := range l.bodies[p] {
			err := refErr
			if err == nil {
				err = check(b.body, want)
			}
			if err != nil {
				mu.Lock()
				wrong += b.n
				errs = append(errs, fmt.Errorf("%s: %w", p, err))
				mu.Unlock()
			}
		}
	})
	return wrong, errs
}

// deckSeq is a seeded request sequence: the deck is dealt in a fresh
// shuffle per pass, and with drift each request's δ moves by one second
// per earlier request of its kind and dataset, alternating above and below
// the base (0, +1, -1, +2, ...), so every key is new while the mean work
// stays that of the base δ.
type deckSeq struct {
	mu      sync.Mutex
	rng     *rand.Rand
	deck    []request
	drift   bool
	pending []request
	seen    map[string]int
}

func newDeckSeq(seed int64, deck []request, drift bool) *deckSeq {
	return &deckSeq{rng: rand.New(rand.NewSource(seed)), deck: deck, drift: drift, seen: make(map[string]int)}
}

func (s *deckSeq) take() request {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		for _, j := range s.rng.Perm(len(s.deck)) {
			s.pending = append(s.pending, s.deck[j])
		}
	}
	r := s.pending[0]
	s.pending = s.pending[1:]
	if s.drift {
		class := fmt.Sprintf("%s|%s|%v", r.endpoint, r.dataset, r.approx)
		r.delta += zigzag(s.seen[class])
		s.seen[class]++
	}
	return r
}

// zigzag maps 0, 1, 2, 3, 4, ... to 0, +1, -1, +2, -2, ...
func zigzag(n int) int64 {
	v := int64(n+1) / 2
	if n%2 == 0 {
		v = -v
	}
	return v
}

// share is how many cards of a deck carry one request.
type share struct {
	r request
	n int
}

func deal(shares ...share) []request {
	var deck []request
	for _, s := range shares {
		for k := 0; k < s.n; k++ {
			deck = append(deck, s.r)
		}
	}
	return deck
}

func graphsOf(ins []input) map[string]*temporal.Graph {
	out := make(map[string]*temporal.Graph, len(ins))
	for _, in := range ins {
		out[in.spec.name] = in.g
	}
	return out
}

// queryFixture sends a deck of queries to one service, single-node or
// coordinator. With distinct keys it is serve-cold.
type queryFixture struct {
	rc      runConfig
	ins     []input
	handler http.Handler // the service's own handler, for /metrics
	ep      *endpoint
	closer  func()
	seq     *deckSeq
	log     *answerLog
	clients int
	cl      *client // the load generator's only client, from set-up to the end
}

func newQueryFixture(rc runConfig, tr *Tracer, ins []input, n *node, closer func(), seq *deckSeq, clients int) queryFixture {
	clients = rc.clients(clients)
	return queryFixture{
		rc: rc, ins: ins, handler: n.srv.Handler(), ep: n.ep, closer: closer, seq: seq,
		log: newAnswerLog(), clients: clients, cl: newClient(n.ep.url, clients, tr),
	}
}

func (f *queryFixture) inputs() []input { return f.ins }

func (f *queryFixture) close() {
	f.cl.close()
	f.closer()
}

func (f *queryFixture) readCounts() (int, int) { return 0, 0 }

func (f *queryFixture) cacheStats() (hits, misses, coalesced float64) {
	m := scrape(f.handler)
	return m["hared_cache_hits_total"], m["hared_cache_misses_total"], m["hared_dedup_coalesced_total"]
}

func (f *queryFixture) verify() (int, []error) { return f.log.verify(graphsOf(f.ins), f.rc.nproc) }

// send issues one request and logs its answer.
func (f *queryFixture) send(r request) bool {
	path := r.path()
	body, err := f.cl.get(path)
	if err != nil {
		return false
	}
	f.log.add(path, r, body)
	return true
}

// measure runs a closed loop of f.clients over the deck.
func (f *queryFixture) measure(d time.Duration, minSamples int) (*measurement, error) {
	ss, took := closedLoop(f.clients, stopAfter(d, minSamples), func() bool { return f.send(f.seq.take()) })
	m := &measurement{primary: ss, closed: ss, closedFor: took}
	tally(m, ss)
	return m, connCheck(f.ep, f.clients)
}

// connCheck fails when the load generator had more connections open to ep
// at once than its budget.
func connCheck(ep *endpoint, budget int) error {
	if p := ep.peak.Load(); p > int64(budget) {
		return fmt.Errorf("load generator opened %d connections at once, budget %d", p, budget)
	}
	return nil
}

func tally(m *measurement, ss []sample) {
	for _, s := range ss {
		m.attempted++
		if !s.ok {
			m.failed++
		}
	}
}

// setupCold boots one node over copies of the small and hub graphs. Most
// requests go to small graphs; a fifth go to hub graphs, whose kernels
// then take most of the time.
func setupCold(rc runConfig, dir string, tr *Tracer) (fixture, error) {
	ins, err := writeInputs(dir, rc.seed, append(copies(smallSpec, graphCopies), copies(hubSpec, graphCopies)...)...)
	if err != nil {
		return nil, err
	}
	n, err := bootNode(tr, ins)
	if err != nil {
		return nil, err
	}
	var deck []request
	for c := 0; c < graphCopies; c++ {
		small := func(ep string, n int) share {
			return share{request{endpoint: ep, dataset: fmt.Sprintf("small-%d", c), delta: baseDelta, seed: 1}, n}
		}
		hub := func(ep string, n int) share {
			return share{request{endpoint: ep, dataset: fmt.Sprintf("hub-%d", c), delta: baseDelta}, n}
		}
		approx := small("path4", 5)
		approx.r.approx = true
		deck = append(deck, deal(
			small("count", 7), small("star4", 7), small("path4", 5), small("query", 7), approx, small("sig", 1),
			hub("count", 2), hub("star4", 2), hub("path4", 2), hub("query", 2),
		)...)
	}
	f := newQueryFixture(rc, tr, ins, n, n.close, newDeckSeq(rc.seed, deck, true), 2)
	return &f, nil
}

// setupCluster boots a coordinator and two single-threaded shard workers
// over copies of the cluster graph. Requests carry workers=1, so each
// shard sub-request runs on one thread.
func setupCluster(rc runConfig, dir string, tr *Tracer) (fixture, error) {
	ins, err := writeInputs(dir, rc.seed, copies(clusterSpec, graphCopies)...)
	if err != nil {
		return nil, err
	}
	c, err := bootCluster(tr, ins, 2)
	if err != nil {
		return nil, err
	}
	var deck []request
	for _, in := range ins {
		for _, ep := range []string{"star4", "path4", "query", "count"} {
			deck = append(deck, request{endpoint: ep, dataset: in.spec.name, delta: baseDelta, workers: 1})
		}
	}
	seq := newDeckSeq(rc.seed, deck, true)
	return &clusterFixture{newQueryFixture(rc, tr, ins, c.coord, c.close, seq, 1), c}, nil
}

type clusterFixture struct {
	queryFixture
	c *cluster
}

func (f *clusterFixture) measure(d time.Duration, minSamples int) (*measurement, error) {
	m, err := f.queryFixture.measure(d, minSamples)
	if err != nil {
		return nil, err
	}
	retries, hedges, failures := f.c.client.Metrics().Snapshot()
	m.notes = append(m.notes,
		note{name: "shard.retries", value: float64(retries), unit: "count"},
		note{name: "shard.hedges", value: float64(hedges), unit: "count"},
		note{name: "shard.failures", value: float64(failures), unit: "count"})
	return m, nil
}

// setupHot boots one node over the small and hub graphs and warms a small
// key set, which the timed phases then repeat with Zipf popularity.
func setupHot(rc runConfig, dir string, tr *Tracer) (fixture, error) {
	ins, err := writeInputs(dir, rc.seed, smallSpec, hubSpec)
	if err != nil {
		return nil, err
	}
	n, err := bootNode(tr, ins)
	if err != nil {
		return nil, err
	}
	keys := hotKeys()
	f := &hotFixture{
		queryFixture: newQueryFixture(rc, tr, ins, n, n.close, nil, 2),
		keys:         keys,
		zipf:         rand.NewZipf(rand.New(rand.NewSource(rc.seed)), 1.1, 1, uint64(len(keys)-1)),
	}
	for _, k := range keys {
		if !f.send(k) {
			f.close()
			return nil, fmt.Errorf("warming %s failed", k.path())
		}
	}
	return f, nil
}

// hotKeys is serve-hot's key set, most popular first: every kind of
// serve-cold on both graphs at two windows, plus one significance query.
func hotKeys() []request {
	var keys []request
	for _, delta := range []int64{baseDelta, 2 * baseDelta} {
		for _, ds := range []string{"small", "hub"} {
			for _, ep := range []string{"count", "star4", "path4", "query"} {
				keys = append(keys, request{endpoint: ep, dataset: ds, delta: delta})
			}
			keys = append(keys, request{endpoint: "path4", dataset: ds, delta: delta, approx: true})
		}
	}
	return append(keys, request{endpoint: "sig", dataset: "small", delta: baseDelta, seed: 1})
}

// hotFixture draws keys by Zipf rank. The rank order is fixed, not
// seeded: the keys' render costs differ several-fold (a 48-interval
// approximate answer against an 8-pattern star count), and a seeded order
// would make the seed, not the service, set the mix's cost.
type hotFixture struct {
	queryFixture
	keys []request
	mu   sync.Mutex
	zipf *rand.Zipf
}

func (f *hotFixture) take() request {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.keys[f.zipf.Uint64()]
}

// measure runs a closed phase for the first half of d, which gives
// req_per_s, then an open phase at hotOpenRate for the second, whose
// latencies, timed from due times, are the reported ones. The closed
// phase's latencies are printed beside them. The open phase's rate fixes
// its sample count, so the minimum is not needed.
func (f *hotFixture) measure(d time.Duration, _ int) (*measurement, error) {
	closed, took := closedLoop(f.clients, stopAfter(d/2, 0), func() bool { return f.send(f.take()) })
	clock := dueClock{start: time.Now(), every: time.Second / hotOpenRate}
	open := openLoop(f.clients, clock, clock.start.Add(d/2), func(int) bool { return f.send(f.take()) })
	m := &measurement{primary: open, closed: closed, closedFor: took}
	tally(m, closed)
	tally(m, open)
	for _, s := range open {
		m.late = append(m.late, s.late)
	}
	m.notes = append(m.notes, note{name: "open_rate_per_s", value: hotOpenRate, unit: "1/s", samples: len(open)})
	if v, _, err := percentile(latencies(closed), 50); err == nil {
		m.notes = append(m.notes, note{name: "closed_p50_ms", value: v, unit: "ms", samples: len(closed)})
	}
	if v, _, err := blockPercentile(closed, 99); err == nil {
		m.notes = append(m.notes, note{name: "closed_p99_ms", value: v, unit: "ms", samples: len(closed)})
	}
	late := msAll(m.late)
	for _, p := range []float64{50, 99} {
		if v, _, err := percentile(late, p); err == nil {
			m.notes = append(m.notes, note{name: fmt.Sprintf("open_late_p%g_ms", p), value: v, unit: "ms", samples: len(late)})
		}
	}
	return m, connCheck(f.ep, f.clients)
}

// setupLive generates copies of the hub-skewed event stream, cuts each
// into ingest batches and boots the first round: a fresh server with an
// empty live dataset. When the writer has posted a whole stream, the next
// round starts over on a new server with the next stream, so every round
// does the same work however fast the service ingests.
func setupLive(rc runConfig, dir string, tr *Tracer) (fixture, error) {
	f := &liveFixture{rc: rc, tr: tr, refs: make(map[[2]int]answer)}
	for _, spec := range copies(streamSpec, graphCopies) {
		g, err := spec.generate(rc.seed)
		if err != nil {
			return nil, err
		}
		st := liveStream{in: input{spec: spec, g: g}, edges: g.Edges()}
		for lo := 0; lo < len(st.edges); lo += liveBatch {
			var b strings.Builder
			for _, e := range st.edges[lo:min(lo+liveBatch, len(st.edges))] {
				fmt.Fprintf(&b, "%d %d %d\n", e.From, e.To, e.Time)
			}
			st.batches = append(st.batches, []byte(b.String()))
		}
		f.streams = append(f.streams, st)
	}
	if err := f.newRound(); err != nil {
		return nil, err
	}
	// The switch stands in for whichever server holds the current round,
	// and names the round's stream so that reads can be checked.
	ep, err := serve(traceHandler(tr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rd := f.cur.Load()
		w.Header().Set(streamHeader, strconv.Itoa(rd.stream))
		rd.srv.Handler().ServeHTTP(w, r)
	})))
	if err != nil {
		return nil, err
	}
	f.ep = ep
	f.cl = newClient(ep.url, rc.clients(2), tr)
	return f, nil
}

// streamHeader tells the live reader which stream its answer came from.
const streamHeader = "X-Perfbench-Stream"

type liveStream struct {
	in      input
	edges   []temporal.Edge
	batches [][]byte
}

type liveRound struct {
	srv    *hare.Server
	stream int
	next   int // next batch to post
}

type liveFixture struct {
	rc      runConfig
	tr      *Tracer
	streams []liveStream
	rounds  int
	ep      *endpoint
	cl      *client
	cur     atomic.Pointer[liveRound]

	mu    sync.Mutex
	past  [3]float64 // cache counters of finished rounds
	reads []liveRead
	refs  map[[2]int]answer // reference answers by stream and prefix length
}

type liveRead struct {
	stream int
	body   []byte
}

func (f *liveFixture) newRound() error {
	if old := f.cur.Load(); old != nil {
		m := scrape(old.srv.Handler())
		f.mu.Lock()
		f.past[0] += m["hared_cache_hits_total"]
		f.past[1] += m["hared_cache_misses_total"]
		f.past[2] += m["hared_dedup_coalesced_total"]
		f.mu.Unlock()
	}
	opts := hare.ServerOptions{Version: buildinfo.Version()}
	if f.tr != nil {
		opts.Backend = &tracedBackend{tr: f.tr, inner: hare.LocalBackend()}
	}
	srv, err := hare.NewServer(opts)
	if err != nil {
		return err
	}
	d, err := hare.NewLiveDataset("events", hare.LiveOptions{Delta: baseDelta})
	if err != nil {
		return err
	}
	if err := srv.RegisterLive(d, "live events"); err != nil {
		return err
	}
	f.cur.Store(&liveRound{srv: srv, stream: f.rounds % len(f.streams)})
	f.rounds++
	return nil
}

func (f *liveFixture) inputs() []input {
	out := make([]input, len(f.streams))
	for i, st := range f.streams {
		out[i] = st.in
	}
	return out
}

func (f *liveFixture) close() {
	f.cl.close()
	f.ep.close()
}

func (f *liveFixture) cacheStats() (hits, misses, coalesced float64) {
	m := scrape(f.cur.Load().srv.Handler())
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.past[0] + m["hared_cache_hits_total"], f.past[1] + m["hared_cache_misses_total"],
		f.past[2] + m["hared_dedup_coalesced_total"]
}

func (f *liveFixture) readCounts() (total, recomputed int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.reads {
		total++
		if s, err := decode(r.body); err == nil && !s.Cached {
			recomputed++
		}
	}
	return total, recomputed
}

// post sends the round's next batch and checks the acknowledgement: every
// edge accepted, and the version one past the batch's position.
func (f *liveFixture) post() bool {
	rd := f.cur.Load()
	st, k := f.streams[rd.stream], rd.next
	body, _, err := f.cl.exchange(http.MethodPost, "/v1/ingest?dataset=events", st.batches[k])
	if err != nil {
		return false
	}
	var ack struct {
		Accepted int    `json:"accepted"`
		Version  uint64 `json:"version"`
	}
	want := min(liveBatch, len(st.edges)-k*liveBatch)
	ok := json.Unmarshal(body, &ack) == nil && ack.Accepted == want && ack.Version == uint64(k+2)
	rd.next++
	if rd.next == len(st.batches) {
		if err := f.newRound(); err != nil {
			return false
		}
	}
	return ok
}

// read polls the count on the live dataset and keeps the answer with the
// stream it came from.
func (f *liveFixture) read(path string) bool {
	body, hdr, err := f.cl.exchange(http.MethodGet, path, nil)
	if err != nil {
		return false
	}
	stream, err := strconv.Atoi(hdr.Get(streamHeader))
	if err != nil {
		return false
	}
	f.mu.Lock()
	f.reads = append(f.reads, liveRead{stream: stream, body: body})
	f.mu.Unlock()
	return true
}

// measure runs the writer as a closed loop beside the reader's open loop.
func (f *liveFixture) measure(d time.Duration, minSamples int) (*measurement, error) {
	var open []sample
	done := make(chan struct{})
	clock := dueClock{start: time.Now(), every: liveReadEvery}
	go func() {
		defer close(done)
		path := request{endpoint: "count", dataset: "events", delta: baseDelta}.path()
		open = openLoop(1, clock, clock.start.Add(d), func(int) bool { return f.read(path) })
	}()
	writes, took := closedLoop(1, stopAfter(d, minSamples), f.post)
	<-done
	m := &measurement{primary: writes, closed: writes, closedFor: took}
	tally(m, writes)
	tally(m, open)
	for _, s := range open {
		m.late = append(m.late, s.late)
	}
	m.notes = append(m.notes, note{name: "ingest_edges_per_s", value: liveBatch * windowRate(writes, took, rateWindow), unit: "1/s", samples: len(writes)})
	reads := latencies(open)
	for _, p := range []float64{50, 90} {
		if v, _, err := percentile(reads, p); err == nil {
			m.notes = append(m.notes, note{name: fmt.Sprintf("read_p%g_ms", p), value: v, unit: "ms", samples: len(reads)})
		}
	}
	return m, connCheck(f.ep, f.rc.clients(2))
}

// verify checks each read against hare.Count on the prefix of its stream
// that the read's snapshot held, one reference per stream prefix.
func (f *liveFixture) verify() (wrong int, errs []error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var keys [][2]int
	for _, r := range f.reads {
		s, err := decode(r.body)
		if err != nil || r.stream < 0 || r.stream >= len(f.streams) {
			continue // checkRead reports it
		}
		if key := [2]int{r.stream, s.Edges}; s.Edges <= len(f.streams[r.stream].edges) {
			if _, ok := f.refs[key]; !ok {
				f.refs[key] = answer{}
				keys = append(keys, key)
			}
		}
	}
	refs := make([]answer, len(keys))
	parallel(len(keys), f.rc.nproc, func(i int) {
		edges := f.streams[keys[i][0]].edges[:keys[i][1]]
		refs[i], _ = reference(hare.FromEdges(edges), request{endpoint: "count", delta: baseDelta})
	})
	for i, key := range keys {
		f.refs[key] = refs[i]
	}
	for _, r := range f.reads {
		if err := f.checkRead(r); err != nil {
			wrong++
			errs = append(errs, err)
		}
	}
	return wrong, errs
}

func (f *liveFixture) checkRead(r liveRead) error {
	s, err := decode(r.body)
	if err != nil {
		return err
	}
	if r.stream < 0 || r.stream >= len(f.streams) {
		return fmt.Errorf("live read names stream %d", r.stream)
	}
	edges, n := f.streams[r.stream].edges, s.Edges
	if n > len(edges) || (n%liveBatch != 0 && n != len(edges)) {
		return fmt.Errorf("live read saw %d edges, not a batch boundary of stream %d", n, r.stream)
	}
	if err := check(r.body, f.refs[[2]int{r.stream, n}]); err != nil {
		return fmt.Errorf("live read of stream %d at %d edges: %w", r.stream, n, err)
	}
	return nil
}
