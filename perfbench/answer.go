package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"reflect"
	"strconv"
	"sync"

	"hare"
	"hare/internal/approx"
	"hare/internal/higher"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// triangle is the motif spec the /v1/query requests count.
const triangle = "x->y, y->z, z->x"

// Approximate-mode knobs of the /v1/path4?epsilon= requests.
const (
	approxEpsilon = 0.05
	approxConf    = 0.95
	approxSeed    = 7
)

// sigSamples is the null-sample count of the /v1/sig requests.
const sigSamples = 2

// request is one service query a workload sends.
type request struct {
	endpoint string // count, star4, path4, query or sig
	dataset  string
	delta    int64
	approx   bool  // path4 in approximate mode
	seed     int64 // sig seed
	workers  int   // workers= hint, 0 to leave it to the server
}

// path is the request's URL path and query string.
func (r request) path() string {
	q := url.Values{}
	q.Set("dataset", r.dataset)
	q.Set("delta", strconv.FormatInt(r.delta, 10))
	switch {
	case r.endpoint == "query":
		q.Set("spec", triangle)
	case r.endpoint == "sig":
		q.Set("samples", strconv.Itoa(sigSamples))
		q.Set("seed", strconv.FormatInt(r.seed, 10))
	case r.approx:
		q.Set("epsilon", strconv.FormatFloat(approxEpsilon, 'g', -1, 64))
		q.Set("conf", strconv.FormatFloat(approxConf, 'g', -1, 64))
		q.Set("seed", strconv.Itoa(approxSeed))
	}
	if r.workers > 0 {
		q.Set("workers", strconv.Itoa(r.workers))
	}
	return "/v1/" + r.endpoint + "?" + q.Encode()
}

// answer is the answer-bearing part of a /v1 query response. Scheduling
// fields (workers, elapsed, cached) are left out: they may differ between
// equal answers.
type answer struct {
	Nodes             int                        `json:"nodes"`
	Edges             int                        `json:"edges"`
	Matrix            map[string]uint64          `json:"matrix"`
	Patterns          map[string]uint64          `json:"patterns"`
	Paths             map[string]uint64          `json:"paths"`
	Total             uint64                     `json:"total"`
	Estimate          *float64                   `json:"estimate"`
	CILow             *float64                   `json:"ci_low"`
	CIHigh            *float64                   `json:"ci_high"`
	Intervals         map[string]approx.Interval `json:"intervals"`
	ApproxSamples     int                        `json:"approx_samples"`
	ApproxStrata      int                        `json:"approx_strata"`
	ApproxExactStrata int                        `json:"approx_exact_strata"`
	Motifs            []sigMotif                 `json:"motifs"`
}

type sigMotif struct {
	Label  string   `json:"label"`
	Real   uint64   `json:"real"`
	Mean   float64  `json:"mean"`
	Std    float64  `json:"std"`
	Z      *float64 `json:"z"`
	ZInf   string   `json:"z_inf"`
	PUpper float64  `json:"p_upper"`
	PLower float64  `json:"p_lower"`
}

// served is a decoded response plus the one scheduling flag the per-layer
// metrics need.
type served struct {
	answer
	Cached bool `json:"cached"`
}

func decode(body []byte) (served, error) {
	var s served
	err := json.Unmarshal(body, &s)
	return s, err
}

// reference computes r's answer with direct library calls on g: the exact
// kinds with the public counting API, approximate path4 with
// CountPath4Approx under the same knobs, sig with Significance. Each call
// runs on one thread, the sequential code paths, so that the check also
// holds the service's parallel answers to the sequential ones, and so
// that checks can run side by side.
func reference(g *temporal.Graph, r request) (answer, error) {
	a := answer{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	delta := hare.Timestamp(r.delta)
	one := hare.WithWorkers(1)
	switch {
	case r.endpoint == "count":
		res, err := hare.Count(g, delta, one)
		if err != nil {
			return a, err
		}
		a.Matrix = matrixCells(res.Matrix)
		a.Total = res.Matrix.Total()
	case r.endpoint == "star4":
		c, err := hare.CountStar4(g, delta, one)
		if err != nil {
			return a, err
		}
		a.Patterns = make(map[string]uint64, 8)
		for i, v := range c {
			d1, d2, d3 := motif.PairDirs(i)
			a.Patterns[fmt.Sprintf("%s,%s,%s", d1, d2, d3)] = v
		}
		a.Total = c.Total()
	case r.endpoint == "path4" && r.approx:
		res, err := hare.CountPath4Approx(g, delta, hare.ApproxOptions{Epsilon: approxEpsilon, Confidence: approxConf, Seed: approxSeed, Workers: 1})
		if err != nil {
			return a, err
		}
		t := res.Total
		a.Estimate, a.CILow, a.CIHigh = &t.Estimate, &t.Low, &t.High
		a.Total = uint64(math.Round(t.Estimate))
		a.ApproxSamples, a.ApproxStrata, a.ApproxExactStrata = res.Draws, res.Strata, res.ExactStrata
		a.Intervals = make(map[string]approx.Interval)
		for _, l := range higher.AllPathLabels() {
			a.Intervals[l.String()] = res.Cells[int(l)]
		}
	case r.endpoint == "path4":
		c, err := hare.CountPath4(g, delta, one)
		if err != nil {
			return a, err
		}
		a.Paths = make(map[string]uint64)
		for _, lc := range c.Labels() {
			a.Paths[lc.Label.String()] = lc.Count
		}
		a.Total = c.Total()
	case r.endpoint == "query":
		spec, err := hare.ParseSpec(triangle)
		if err != nil {
			return a, err
		}
		if a.Total, err = hare.CountMotif(g, spec, delta, one); err != nil {
			return a, err
		}
	case r.endpoint == "sig":
		rep, err := hare.Significance(g, delta, hare.SignificanceOptions{Model: hare.NullTimeShuffle, Trials: sigSamples, Seed: r.seed, Workers: 1})
		if err != nil {
			return a, err
		}
		a.Total = rep.Real.Total()
		for _, l := range motif.AllLabels() {
			m := sigMotif{Label: l.String(), Real: rep.Real.At(l), Mean: rep.MeanAt(l), Std: rep.StdAt(l),
				PUpper: rep.PUpperAt(l), PLower: rep.PLowerAt(l)}
			switch z := rep.ZScore(l); {
			case math.IsInf(z, 1):
				m.ZInf = "+"
			case math.IsInf(z, -1):
				m.ZInf = "-"
			default:
				m.Z = &z
			}
			a.Motifs = append(a.Motifs, m)
		}
	default:
		return a, fmt.Errorf("no reference for endpoint %q", r.endpoint)
	}
	return a, nil
}

func matrixCells(m hare.Matrix) map[string]uint64 {
	out := make(map[string]uint64, 36)
	for _, l := range motif.AllLabels() {
		out[l.String()] = m.At(l)
	}
	return out
}

// check compares a response body with the reference answer, bit for bit.
func check(body []byte, want answer) error {
	got, err := decode(body)
	if err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if !reflect.DeepEqual(got.answer, want) {
		return fmt.Errorf("answer differs from the library's (total %d, want %d)", got.Total, want.Total)
	}
	return nil
}

// parallel runs f(0) ... f(n-1) on up to workers goroutines and waits for
// them.
func parallel(n, workers int, f func(i int)) {
	var (
		wg   sync.WaitGroup
		next = make(chan int)
	)
	for w := 0; w < max(1, workers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
