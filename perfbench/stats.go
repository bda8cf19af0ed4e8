package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure read off fewer samples than this is one or two outliers,
// not a percentile.
const minBeyond = 10

// inf stands in for the latency of a failed request.
var inf = math.Inf(1)

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs
// and the number of samples ranked above it. It fails when fewer than
// minBeyond samples lie beyond, so p99 needs at least 1000 samples and p90
// at least 100. Failed requests enter xs as +Inf, which makes them miss
// every latency limit.
func percentile(xs []float64, p float64) (v float64, beyond int, err error) {
	if len(xs) == 0 {
		return 0, 0, fmt.Errorf("percentile p%g of no samples", p)
	}
	if !(p > 0 && p < 100) {
		return 0, 0, fmt.Errorf("percentile p%g outside (0, 100)", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	beyond = len(s) - rank
	if beyond < minBeyond {
		return s[rank-1], beyond, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, len(s), beyond, minBeyond)
	}
	return s[rank-1], beyond, nil
}

// samplesFor is the smallest sample count whose p-th percentile has
// minBeyond samples beyond it.
func samplesFor(p float64) int {
	n := 1
	for {
		if n-int(math.Ceil(p/100*float64(n))) >= minBeyond {
			return n
		}
		n++
	}
}

// blockPercentile is the median, over consecutive blocks of the samples
// in completion order, of each block's p-th percentile. A block holds
// samplesFor(p) samples, so each block's percentile has minBeyond samples
// beyond it; a last partial block joins the one before it. The tail then
// reads what the service did in a typical stretch of the run rather than
// in the one stretch a busy host stalled the process. It also returns the
// number of blocks.
func blockPercentile(ss []sample, p float64) (float64, int, error) {
	size := samplesFor(p)
	if len(ss) < size {
		_, _, err := percentile(latencies(ss), p)
		return 0, 0, err
	}
	s := append([]sample(nil), ss...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].end < s[j].end })
	var tails []float64
	for lo := 0; lo < len(s); lo += size {
		hi := lo + size
		if len(s)-hi < size {
			hi = len(s)
		}
		v, _, err := percentile(latencies(s[lo:hi]), p)
		if err != nil {
			return 0, 0, err
		}
		tails = append(tails, v)
		if hi == len(s) {
			break
		}
	}
	return median(tails), len(tails), nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rate is count per second of elapsed time.
func rate(count int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(count) / elapsed.Seconds()
}

// rateWindow is the window windowRate counts completions in.
const rateWindow = time.Second

// windowRate is the interquartile mean, over the loop's whole windows, of
// the successful requests completed per second in each. Leaving out the
// fastest and slowest quarter of the windows drops the seconds in which
// the host stalled the process, which the overall mean would fold in. A
// loop shorter than four windows reports its overall mean.
func windowRate(ss []sample, took time.Duration, window time.Duration) float64 {
	n := int(took / window)
	if n < 4 {
		return rate(okCount(ss), took)
	}
	counts := make([]float64, n)
	for _, s := range ss {
		if k := int(s.end / window); s.ok && k < n {
			counts[k]++
		}
	}
	return interquartileMean(counts) / window.Seconds()
}

// interquartileMean is the mean of the values ranked between the first and
// third quartiles.
func interquartileMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	var sum float64
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

func okCount(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.ok {
			n++
		}
	}
	return n
}

// ms and us convert durations to float milliseconds and microseconds with
// every digit kept.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// msAll converts a duration list to milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
