package serve

import (
	"sort"
	"sync"
)

// windowSize is how many recent samples a latency window keeps.
const windowSize = 1024

// window keeps the most recent samples of one kind and reports
// nearest-rank percentiles over them. A fixed ring bounds memory for a
// long-lived server while staying responsive to workload shifts; the
// histograms in the metrics registry keep the lifetime view.
type window[T any] struct {
	mu    sync.Mutex
	buf   []T
	next  int
	count uint64
}

func newWindow[T any]() *window[T] {
	return &window[T]{buf: make([]T, 0, windowSize)}
}

// Record adds one sample.
func (w *window[T]) Record(v T) {
	w.mu.Lock()
	if len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, v)
	} else {
		w.buf[w.next] = v
	}
	w.next = (w.next + 1) % cap(w.buf)
	w.count++
	w.mu.Unlock()
}

// sorted returns the window's samples ordered by less, and the lifetime
// sample count.
func (w *window[T]) sorted(less func(a, b T) bool) ([]T, uint64) {
	w.mu.Lock()
	s := append([]T(nil), w.buf...)
	count := w.count
	w.mu.Unlock()
	sort.Slice(s, func(i, j int) bool { return less(s[i], s[j]) })
	return s, count
}

// nearestRank returns the p-quantile of the non-empty ascending s by
// the nearest-rank rule.
func nearestRank[T any](s []T, p float64) T {
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// SolveLatencyStats is the /v1/stats view of recent solve-only latency:
// the time spent inside the triangular sweeps, excluding cache waits
// and batcher windows.
type SolveLatencyStats struct {
	// Count is the lifetime number of recorded solves; the percentiles
	// cover only the window (the most recent samples).
	Count uint64  `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// solveLatencyStats computes the percentiles of a window of
// substitution-only latencies in milliseconds.
func solveLatencyStats(w *window[float64]) SolveLatencyStats {
	s, count := w.sorted(func(a, b float64) bool { return a < b })
	out := SolveLatencyStats{Count: count}
	if len(s) > 0 {
		out.P50MS, out.P95MS, out.P99MS = nearestRank(s, 0.50), nearestRank(s, 0.95), nearestRank(s, 0.99)
	}
	return out
}

// RequestLatencyStats is the /v1/stats view of recent end-to-end
// request latency. Each percentile row is the breakdown of the actual
// request at that rank (carrying its trace id, so a spiking p99 leads
// straight to /v1/trace/<id>), not an aggregate of components:
// averages of phases do not sum to percentiles of totals.
type RequestLatencyStats struct {
	Count uint64      `json:"count"`
	P50   BreakdownMS `json:"p50"`
	P95   BreakdownMS `json:"p95"`
	P99   BreakdownMS `json:"p99"`
}

// requestLatencyStats computes the percentiles of a window of request
// breakdowns, ranked by end-to-end latency.
func requestLatencyStats(w *window[BreakdownMS]) RequestLatencyStats {
	s, count := w.sorted(func(a, b BreakdownMS) bool { return a.E2EMS < b.E2EMS })
	out := RequestLatencyStats{Count: count}
	if len(s) > 0 {
		out.P50, out.P95, out.P99 = nearestRank(s, 0.50), nearestRank(s, 0.95), nearestRank(s, 0.99)
	}
	return out
}
