package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"hare/internal/approx"
	"hare/internal/engine"
	"hare/internal/fast"
	"hare/internal/higher"
	"hare/internal/live"
	"hare/internal/nullmodel"
	"hare/internal/query"
	"hare/internal/server"
	"hare/internal/shard"
	"hare/internal/stream"
	"hare/internal/temporal"
)

// layerDef is one per-layer metric and the end-to-end metric and workload
// it should move. "count" units repeat exactly from run to run.
type layerDef struct {
	name, unit, better string
	moves              string // end-to-end metric, or a summary figure
	on                 string // workload(s)
}

// layerDefs are the metrics a traced run reports. BENCHMARK.json repeats
// name, unit and better; interactions.json repeats moves and on.
var layerDefs = []layerDef{
	{"temporal.load_s", "s", "lower", "setup_s", "serve-cold serve-hot cluster-cold"},
	{"temporal.load_edges_per_s", "1/s", "higher", "setup_s", "serve-cold serve-hot cluster-cold"},
	{"temporal.snapshot_build_ms", "ms", "lower", "read_p50_ms", "live-mixed"},
	{"server.http_floor_us", "us", "lower", "req_per_s latency_p50_ms", "serve-hot"},
	{"server.parse_us", "us", "lower", "req_per_s latency_p50_ms", "serve-hot"},
	{"server.registry_us", "us", "lower", "req_per_s latency_p50_ms", "serve-hot"},
	{"server.cache_hit_us", "us", "lower", "req_per_s latency_p50_ms", "serve-hot"},
	{"server.unattributed_us", "us", "lower", "req_per_s latency_p50_ms", "serve-hot"},
	{"server.cache_hit_ratio", "ratio", "higher", "req_per_s", "serve-hot"},
	{"server.coalesced", "count", "higher", "latency_p50_ms", "serve-cold"},
	{"server.admission_wait_ms", "ms", "lower", "latency_p99_ms", "serve-cold"},
	{"server.handler_self_us", "us", "lower", "latency_p50_ms", "serve-hot"},
	{"engine.count_small_ms", "ms", "lower", "latency_p50_ms", "serve-cold"},
	{"engine.count_large_ms", "ms", "lower", "req_per_s", "serve-cold"},
	{"engine.speedup_vs_fast_small", "ratio", "higher", "latency_p50_ms", "serve-cold"},
	{"engine.speedup_vs_fast_large", "ratio", "higher", "req_per_s", "serve-cold"},
	{"engine.workers", "count", "higher", "req_per_s", "serve-cold"},
	{"engine.degree_threshold", "count", "lower", "req_per_s", "serve-cold"},
	{"fast.starpair_large_ms", "ms", "lower", "req_per_s", "serve-cold"},
	{"fast.tri_large_ms", "ms", "lower", "req_per_s", "serve-cold"},
	{"fast.allocs_per_center", "count", "lower", "req_per_s", "serve-cold"},
	{"higher.star4_large_ms", "ms", "lower", "req_per_s", "serve-cold"},
	{"higher.path4_large_ms", "ms", "lower", "req_per_s", "serve-cold"},
	{"query.compile_us", "us", "lower", "latency_p50_ms req_per_s", "serve-cold"},
	{"query.exec_ms", "ms", "lower", "latency_p50_ms req_per_s", "serve-cold"},
	{"approx.path4_small_ms", "ms", "lower", "latency_p50_ms", "serve-cold"},
	{"approx.speedup_vs_exact_small", "ratio", "higher", "latency_p50_ms", "serve-cold"},
	{"approx.strata", "count", "lower", "latency_p50_ms", "serve-cold"},
	{"approx.saturated_strata", "count", "lower", "latency_p50_ms", "serve-cold"},
	{"nullmodel.sample_ms", "ms", "lower", "latency_p99_ms", "serve-cold"},
	{"stream.add_batch_ms", "ms", "lower", "req_per_s latency_p50_ms", "live-mixed"},
	{"stream.edges_per_s", "1/s", "higher", "req_per_s latency_p50_ms", "live-mixed"},
	{"stream.allocs_per_edge", "count", "lower", "req_per_s latency_p50_ms", "live-mixed"},
	{"live.ingest_text_ms", "ms", "lower", "latency_p50_ms", "live-mixed"},
	{"live.parse_ms", "ms", "lower", "latency_p50_ms", "live-mixed"},
	{"live.read_recompute_ratio", "ratio", "lower", "read_p50_ms", "live-mixed"},
	{"live.alerts", "count", "lower", "latency_p50_ms", "live-mixed"},
	{"shard.star4_ms", "ms", "lower", "req_per_s", "cluster-cold"},
	{"shard.overhead_ratio", "ratio", "lower", "req_per_s", "cluster-cold"},
	{"shard.merge_us", "us", "lower", "latency_p50_ms", "cluster-cold"},
	{"shard.wire_bytes_per_req", "B", "lower", "latency_p50_ms", "cluster-cold"},
	{"shard.retries", "count", "lower", "failed", "cluster-cold"},
	{"shard.hedges", "count", "lower", "failed", "cluster-cold"},
	{"shard.failures", "count", "lower", "failed", "cluster-cold"},
	{"loadgen.late_ms", "ms", "lower", "harness health", "all"},
	{"trace.overhead_pct", "%", "lower", "harness health", "all"},
}

// Replay repetitions: kernels on the larger graphs are timed reps times,
// kernels on the small graph smallReps times and microsecond calls
// fastReps times; every figure is the median self time of its spans.
const (
	reps      = 9
	smallReps = 25
	fastReps  = 300
)

// streamPasses is how many times the replay feeds the live-mixed stream.
const streamPasses = 3

// replay drives each layer's public functions with the seeded inputs of
// every workload, one span per call, and returns the per-layer figures
// the replay alone determines, and how late each send of its open-loop
// probe went out.
func replay(rc runConfig, dir string, tr *Tracer) (map[string]float64, []time.Duration, error) {
	ins, err := writeInputs(dir, rc.seed, smallSpec, hubSpec)
	if err != nil {
		return nil, nil, err
	}
	cins, err := writeInputs(filepath.Join(dir, "cluster"), rc.seed, clusterSpec)
	if err != nil {
		return nil, nil, err
	}
	sg, err := streamSpec.generate(rc.seed)
	if err != nil {
		return nil, nil, err
	}
	small, large := ins[0].g, ins[1].g
	delta := temporal.Timestamp(baseDelta)
	v := make(map[string]float64)
	times := func(name string, n int, f func()) {
		for i := 0; i < n; i++ {
			tr.Call(name, f)
		}
	}
	// alternate interleaves the calls of two kernels a speed-up compares,
	// so that both see the same host conditions.
	alternate := func(n int, name1 string, f1 func(), name2 string, f2 func()) {
		for i := 0; i < n; i++ {
			tr.Call(name1, f1)
			tr.Call(name2, f2)
		}
	}

	// temporal: text loads of each dataset file.
	for i, name := range []string{"small", "large"} {
		times("temporal.load."+name, reps, func() {
			if _, e := temporal.LoadFile(ins[i].path, temporal.LoadOptions{}); e != nil {
				err = e
			}
		})
	}
	if err != nil {
		return nil, nil, err
	}

	// engine against sequential fast, both graphs.
	eo := engine.Options{Workers: 2}
	for _, c := range []struct {
		name string
		g    *temporal.Graph
		n    int
	}{{"small", small, smallReps}, {"large", large, reps}} {
		o := eo
		o.DegreeThreshold = engine.EffectiveDegreeThreshold(c.g, eo)
		alternate(c.n, "engine.count."+c.name, func() { engine.Count(c.g, delta, o) },
			"fast.count."+c.name, func() { fast.Count(c.g, delta) })
	}
	v["engine.workers"] = float64(eo.EffectiveWorkers())
	v["engine.degree_threshold"] = float64(engine.EffectiveDegreeThreshold(large, eo))
	times("fast.starpair.large", reps, func() { fast.CountStarPair(large, delta) })
	times("fast.tri.large", reps, func() { fast.CountTri(large, delta) })
	v["fast.allocs_per_center"] = allocsPer(large.NumNodes(), func() { fast.CountStarPair(large, delta) })

	// higher-order kernels and the compiled query.
	ho := higher.Options{Workers: 2}
	times("higher.star4.large", reps, func() { higher.CountStar4(large, delta, ho) })
	times("higher.path4.large", reps, func() { higher.CountPath4(large, delta, ho) })
	var plan *query.Plan
	times("query.compile", fastReps, func() {
		spec, e := query.ParseSpec(triangle)
		if e != nil {
			err = e
			return
		}
		spec.Canonical()
		plan = query.Compile(spec)
	})
	if err != nil {
		return nil, nil, err
	}
	times("query.exec", reps, func() { plan.Execute(large, delta, query.Options{Workers: 2}) })

	// approx against exact on the small graph, and null-model samples.
	var ares *approx.Result
	alternate(smallReps, "approx.path4.small", func() {
		ares, err = approx.Path4(small, delta, approx.Options{Epsilon: approxEpsilon, Confidence: approxConf, Seed: approxSeed, Workers: 2})
	}, "higher.path4.small", func() { higher.CountPath4(small, delta, ho) })
	if err != nil {
		return nil, nil, err
	}
	v["approx.strata"] = float64(ares.Strata)
	v["approx.saturated_strata"] = float64(ares.ExactStrata)
	const nullSamples = 4
	times("nullmodel.significance", reps, func() {
		if _, e := nullmodel.Significance(small, delta, nullmodel.Options{Trials: nullSamples, Seed: 1, Workers: 2}); e != nil {
			err = e
		}
	})
	if err != nil {
		return nil, nil, err
	}

	// stream and live over the ingest batches of live-mixed.
	if err := replayStream(v, sg.Edges(), tr); err != nil {
		return nil, nil, err
	}

	// server: the hot path's pieces, and the admission queue.
	late, err := replayServer(v, ins, tr)
	if err != nil {
		return nil, nil, err
	}
	// shard: scatter/gather against the in-process kernel.
	if err := replayShard(v, cins[0], tr); err != nil {
		return nil, nil, err
	}

	dur, self := byName(tr.Spans())
	med := func(name string) time.Duration { return medianDur(self[name]) }
	loadS := med("temporal.load.small") + med("temporal.load.large")
	v["temporal.load_s"] = loadS.Seconds()
	v["temporal.load_edges_per_s"] = float64(small.NumEdges()+large.NumEdges()) / loadS.Seconds()
	v["engine.count_small_ms"] = ms(med("engine.count.small"))
	v["engine.count_large_ms"] = ms(med("engine.count.large"))
	v["engine.speedup_vs_fast_small"] = ratio(float64(med("fast.count.small")), float64(med("engine.count.small")))
	v["engine.speedup_vs_fast_large"] = ratio(float64(med("fast.count.large")), float64(med("engine.count.large")))
	v["fast.starpair_large_ms"] = ms(med("fast.starpair.large"))
	v["fast.tri_large_ms"] = ms(med("fast.tri.large"))
	v["higher.star4_large_ms"] = ms(med("higher.star4.large"))
	v["higher.path4_large_ms"] = ms(med("higher.path4.large"))
	v["query.compile_us"] = us(med("query.compile"))
	v["query.exec_ms"] = ms(med("query.exec"))
	v["approx.path4_small_ms"] = ms(med("approx.path4.small"))
	v["approx.speedup_vs_exact_small"] = ratio(float64(med("higher.path4.small")), float64(med("approx.path4.small")))
	v["nullmodel.sample_ms"] = ms(med("nullmodel.significance")) / nullSamples
	v["temporal.snapshot_build_ms"] = ms(med("temporal.snapshot_build"))
	v["stream.add_batch_ms"] = ms(med("stream.add_batch"))
	v["live.ingest_text_ms"] = ms(med("live.ingest_text"))
	// What IngestText adds to AddBatch, batch by batch: parsing and the
	// live bookkeeping.
	var extra []float64
	for i, d := range self["live.ingest_text.one_thread"] {
		extra = append(extra, ms(d-self["stream.add_batch.one_thread"][i]))
	}
	v["live.parse_ms"] = medianOr0(extra)
	var batchTotal time.Duration
	for _, d := range self["stream.add_batch"] {
		batchTotal += d
	}
	v["stream.edges_per_s"] = rate(streamPasses*len(sg.Edges()), batchTotal)
	floor, parse, reg, hit := med("server.healthz"), med("server.parse"), med("server.registry_get"), med("server.cache_hit")
	v["server.http_floor_us"] = us(floor)
	v["server.parse_us"] = us(parse)
	v["server.registry_us"] = us(reg)
	v["server.cache_hit_us"] = us(hit)
	v["server.unattributed_us"] = us(med("server.hot_request") - floor - parse - reg - hit)
	var wait time.Duration
	for _, d := range self["server.admission_wait"] {
		wait += d
	}
	v["server.admission_wait_ms"] = ms(wait) / float64(max(1, len(self["server.admission_wait"])))
	v["shard.star4_ms"] = ms(medianDur(dur["shard.star4"]))
	v["shard.overhead_ratio"] = ratio(float64(medianDur(dur["shard.star4"])), float64(med("higher.star4.cluster")))
	v["shard.merge_us"] = us(med("shard.merge"))
	return v, late, nil
}

func medianDur(ds []time.Duration) time.Duration {
	ns := make([]float64, len(ds))
	for i, d := range ds {
		ns[i] = float64(d)
	}
	return time.Duration(medianOr0(ns))
}

// allocsPer runs f once on this goroutine and returns its heap
// allocations divided by n.
func allocsPer(n int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// replayStream feeds the live-mixed stream in its ingest batches through
// the stream counter (pre-parsed) and through a live dataset (as text),
// then times snapshot builds after version bumps.
func replayStream(v map[string]float64, edges []temporal.Edge, tr *Tracer) error {
	var batches [][]temporal.Edge
	var texts [][]byte
	for lo := 0; lo < len(edges); lo += liveBatch {
		b := edges[lo:min(lo+liveBatch, len(edges))]
		batches = append(batches, b)
		var sb strings.Builder
		for _, e := range b {
			fmt.Fprintf(&sb, "%d %d %d\n", e.From, e.To, e.Time)
		}
		texts = append(texts, []byte(sb.String()))
	}
	delta := temporal.Timestamp(baseDelta)

	// Each batch goes to the counter live datasets use (sliding mode)
	// pre-parsed and to a live dataset as text, back to back and in
	// alternating order, so that the two timings of a batch see the same
	// host conditions and the same window state. The stream is fed
	// streamPasses times, each pass to a fresh counter and dataset. Default
	// workers give the figures of the service's own configuration. A
	// single-threaded feed gives live.parse_ms, a small difference of two
	// larger times: parallel fan-out jitters AddBatch by more than that
	// difference.
	feed := func(workers int, suffix string) (*live.Dataset, error) {
		var d *live.Dataset
		for pass := 0; pass < streamPasses; pass++ {
			c, err := stream.NewCounter(stream.Options{Delta: delta, Mode: stream.Sliding, Workers: workers})
			if err != nil {
				return nil, err
			}
			if d, err = live.New("events", live.Options{Delta: delta, Workers: workers}); err != nil {
				return nil, err
			}
			add := func(b []temporal.Edge) func() {
				return func() {
					if e := c.AddBatch(b); e != nil {
						err = e
					}
				}
			}
			ingest := func(text []byte) func() {
				return func() {
					if _, e := d.IngestText(bytes.NewReader(text)); e != nil {
						err = e
					}
				}
			}
			for i, b := range batches {
				if i%2 == 0 {
					tr.Call("stream.add_batch"+suffix, add(b))
					tr.Call("live.ingest_text"+suffix, ingest(texts[i]))
				} else {
					tr.Call("live.ingest_text"+suffix, ingest(texts[i]))
					tr.Call("stream.add_batch"+suffix, add(b))
				}
			}
			if err != nil {
				return nil, err
			}
		}
		return d, nil
	}
	d, err := feed(0, "")
	if err != nil {
		return err
	}
	if _, err := feed(1, ".one_thread"); err != nil {
		return err
	}
	// Allocations per edge, single-threaded.
	c1, err := stream.NewCounter(stream.Options{Delta: delta, Mode: stream.Sliding, Workers: 1})
	if err != nil {
		return err
	}
	v["stream.allocs_per_edge"] = allocsPer(len(edges), func() {
		for _, b := range batches {
			if e := c1.AddBatch(b); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	v["live.alerts"] = float64(d.Stats().Alerts)
	// Snapshot builds of the full stream, each after a one-edge batch
	// bumps the version.
	last := edges[len(edges)-1]
	for i := 0; i < reps; i++ {
		if _, err := d.Ingest([]temporal.Edge{{From: last.From, To: last.To, Time: last.Time}}); err != nil {
			return err
		}
		tr.Call("temporal.snapshot_build", func() { d.Graph() })
	}
	return nil
}

// probeRate and probeFor shape the replay's open-loop probe of /healthz.
const (
	probeRate = 1000
	probeFor  = time.Second
)

// replayServer times the pieces of a cached request: the HTTP round trip
// of /healthz, parse and key, registry lookup and cache hit, then whole
// hot requests over loopback, whose remainder is the unattributed time.
// It also queues jobs through the admission controller, and runs an open
// loop of /healthz at probeRate, whose send lateness it returns.
func replayServer(v map[string]float64, ins []input, tr *Tracer) ([]time.Duration, error) {
	n, err := bootNode(nil, ins)
	if err != nil {
		return nil, err
	}
	defer n.close()
	cl := newClient(n.ep.url, 1, nil)
	defer cl.close()
	keys := hotKeys()
	for _, k := range keys {
		if _, err := cl.get(k.path()); err != nil {
			return nil, err
		}
	}
	get := func(path string) {
		if _, e := cl.get(path); e != nil {
			err = e
		}
	}
	times := func(name string, n int, f func(i int)) {
		for i := 0; i < n; i++ {
			tr.Call(name, func() { f(i) })
		}
	}
	times("server.healthz", fastReps, func(int) { get("/healthz") })
	times("server.hot_request", fastReps, func(i int) { get(keys[i%len(keys)].path()) })
	clock := dueClock{start: time.Now(), every: time.Second / probeRate}
	probe := openLoop(1, clock, clock.start.Add(probeFor), func(int) bool {
		_, e := cl.get("/healthz")
		return e == nil
	})
	if err != nil {
		return nil, err
	}
	late := make([]time.Duration, len(probe))
	for i, s := range probe {
		if !s.ok {
			return nil, fmt.Errorf("open-loop probe of /healthz failed")
		}
		late[i] = s.late
	}
	raw := make([]string, len(keys))
	for i, k := range keys {
		_, raw[i], _ = strings.Cut(k.path(), "?")
	}
	times("server.parse", fastReps, func(i int) {
		k := keys[i%len(keys)]
		q, e := url.ParseQuery(raw[i%len(keys)])
		if e == nil {
			var req server.Request
			req, _, e = server.ParseRequest(server.Kind(k.endpoint), q)
			req.Key()
		}
		if e != nil {
			err = e
		}
	})
	if err != nil {
		return nil, err
	}
	reg := server.NewRegistry(0)
	if err := reg.RegisterGraph("small", "replay", ins[0].g); err != nil {
		return nil, err
	}
	times("server.registry_get", fastReps, func(int) { reg.Get("small") })
	cache := server.NewCache(1024)
	ctx := context.Background()
	fill := func(context.Context) (any, error) { return 1, nil }
	cache.Do(ctx, "count|small|600|", fill)
	times("server.cache_hit", fastReps, func(int) { cache.Do(ctx, "count|small|600|", fill) })

	// Two clients at full-budget weight queue behind each other's jobs.
	adm := server.NewAdmission(2)
	small := ins[0].g
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				var w int
				var e error
				tr.Call("server.admission_wait", func() { w, e = adm.Acquire(ctx, 2) })
				if e != nil {
					continue
				}
				engine.Count(small, baseDelta, engine.Options{Workers: 2})
				adm.Release(w)
			}
		}()
	}
	wg.Wait()
	return late, nil
}

// replayShard times Coordinator.Star4 over two single-threaded workers
// against in-process CountStar4 on the same cores, merges the captured
// partials alone, and reads the wire and retry counters.
func replayShard(v map[string]float64, in input, tr *Tracer) error {
	c, err := bootCluster(tr, []input{in}, 2)
	if err != nil {
		return err
	}
	defer c.close()
	var (
		mu     sync.Mutex
		bodies [][]byte
	)
	c.wire.captured = func(b []byte) {
		mu.Lock()
		bodies = append(bodies, b)
		mu.Unlock()
	}
	coord := shard.NewCoordinator(c.client)
	req := server.Request{Kind: server.KindStar4, Dataset: in.spec.name, Delta: baseDelta, Workers: 1}
	want := higher.CountStar4(in.g, baseDelta, higher.Options{Workers: 1})
	const calls = 15
	for i := 0; i < calls; i++ {
		id := tr.NewID()
		c.wire.parent.Store(id)
		start := time.Now()
		got, err := coord.Star4(context.Background(), in.g, req)
		tr.Record(id, 0, id, "shard.star4", start, time.Now())
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("shard star4 differs from in-process CountStar4")
		}
		tr.Call("higher.star4.cluster", func() { higher.CountStar4(in.g, baseDelta, higher.Options{Workers: 2}) })
	}
	c.wire.parent.Store(0)
	v["shard.wire_bytes_per_req"] = float64(c.wire.bytes.Load()) / calls
	retries, hedges, failures := c.client.Metrics().Snapshot()
	v["shard.retries"], v["shard.hedges"], v["shard.failures"] = float64(retries), float64(hedges), float64(failures)

	mu.Lock()
	parts := make([]*shard.Partial, 2)
	for _, b := range bodies {
		var p shard.Partial
		if err := json.Unmarshal(b, &p); err == nil && p.Shard < 2 && parts[p.Shard] == nil {
			parts[p.Shard] = &p
		}
	}
	mu.Unlock()
	if parts[0] == nil || parts[1] == nil {
		return fmt.Errorf("shard replay captured no partial for both shards")
	}
	for i := 0; i < fastReps; i++ {
		tr.Call("shard.merge", func() {
			g := shard.NewGather(server.KindStar4, 2)
			g.Add(parts[0])
			g.Add(parts[1])
			if got, e := g.MergeStar4(); e != nil || got != want {
				err = fmt.Errorf("merging captured partials: %v", e)
			}
		})
	}
	return err
}
