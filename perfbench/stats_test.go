package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		want   float64
		beyond int
		ok     bool
	}{
		{1000, 99, 990, 10, true},
		{999, 99, 990, 9, false},
		{2000, 99, 1980, 20, true},
		{100, 90, 90, 10, true},
		{99, 90, 90, 9, false},
		{20, 50, 10, 10, true},
		{19, 50, 10, 9, false},
	}
	for _, c := range cases {
		v, beyond, err := percentile(seq(c.n), c.p)
		if v != c.want || beyond != c.beyond || (err == nil) != c.ok {
			t.Errorf("p%g of %d: got %v, %d beyond, err %v; want %v, %d beyond, ok %v", c.p, c.n, v, beyond, err, c.want, c.beyond, c.ok)
		}
	}
	if _, _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples: want an error")
	}
}

func TestSamplesFor(t *testing.T) {
	for p, want := range map[float64]int{99: 1000, 90: 100, 50: 20} {
		if got := samplesFor(p); got != want {
			t.Errorf("samplesFor(%g) = %d, want %d", p, got, want)
		}
		if _, _, err := percentile(seq(want), p); err != nil {
			t.Errorf("p%g of samplesFor(%g) samples: %v", p, p, err)
		}
	}
}

func TestFailuresMissEveryLimit(t *testing.T) {
	ss := make([]sample, 1000)
	for i := range ss {
		ss[i] = sample{lat: time.Millisecond, ok: true}
	}
	for i := 0; i < 11; i++ {
		ss[i].ok = false
	}
	v, _, err := percentile(latencies(ss), 99)
	if err != nil || !math.IsInf(v, 1) {
		t.Errorf("p99 with 11 failures in 1000 = %v, %v; want +Inf", v, err)
	}
}

func TestBlockPercentile(t *testing.T) {
	// Three blocks of 1000; the middle one stalls for its last 5%.
	var ss []sample
	for i := 0; i < 3000; i++ {
		lat := time.Duration(1+i%1000) * time.Microsecond
		if i >= 1950 && i < 2000 {
			lat = time.Second
		}
		ss = append(ss, sample{lat: lat, end: time.Duration(i) * time.Millisecond, ok: true})
	}
	v, blocks, err := blockPercentile(ss, 99)
	if err != nil || blocks != 3 || v != 0.990 {
		t.Errorf("blockPercentile = %v over %d blocks, %v; want 0.99 ms over 3", v, blocks, err)
	}
	// A partial last block joins the one before it.
	if _, blocks, err := blockPercentile(ss[:2500], 99); err != nil || blocks != 2 {
		t.Errorf("2500 samples: %d blocks, %v; want 2", blocks, err)
	}
	if _, _, err := blockPercentile(ss[:999], 99); err == nil {
		t.Error("999 samples: want the ten-beyond error")
	}
}

func TestRates(t *testing.T) {
	if got := rate(100, 2*time.Second); got != 50 {
		t.Errorf("rate(100, 2s) = %v, want 50", got)
	}
	if got := rate(5, 0); got != 0 {
		t.Errorf("rate over no time = %v, want 0", got)
	}
	// Ten one-second windows of 10 completions, except a stalled window
	// with none and a burst of 100: the interquartile mean ignores both.
	var ss []sample
	for w := 0; w < 10; w++ {
		n := 10
		switch w {
		case 3:
			n = 0
		case 7:
			n = 100
		}
		for i := 0; i < n; i++ {
			ss = append(ss, sample{end: time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond, ok: true})
		}
	}
	ss = append(ss, sample{end: 5 * time.Second, ok: false})         // failures do not count
	ss = append(ss, sample{end: 10500 * time.Millisecond, ok: true}) // nor the partial window
	if got := windowRate(ss, 10500*time.Millisecond, time.Second); got != 10 {
		t.Errorf("windowRate = %v, want 10", got)
	}
	// Shorter than four windows: the plain mean.
	short := []sample{{end: time.Second, ok: true}, {end: 2 * time.Second, ok: true}, {ok: false}}
	if got := windowRate(short, 2*time.Second, time.Second); got != 1 {
		t.Errorf("short windowRate = %v, want 1", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}
