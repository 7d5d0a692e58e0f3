package obs

import (
	"fmt"
	"math"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// The metrics half of the observability layer: counters, gauges and
// histograms whose hot-path updates are single atomic operations into
// cache-line-padded per-worker shards, merged only at read time. A
// factorization hands each metric the worker index it already knows and
// pays no lock, no map lookup and no allocation per increment.

// cacheLine is the padding unit separating shards so concurrent
// incrementers on different workers never contend on one line.
const cacheLine = 64

type counterShard struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// Counter is a monotonically increasing sharded counter. The shard
// index is typically the worker id; any int works — it is masked into
// range (shard counts are powers of two).
type Counter struct {
	shards []counterShard
}

// Add increments the counter by n on the given shard. Zero-allocation.
func (c *Counter) Add(shard int, n uint64) {
	c.shards[shard&(len(c.shards)-1)].v.Add(n)
}

// Value merges all shards.
func (c *Counter) Value() uint64 {
	var s uint64
	for i := range c.shards {
		s += c.shards[i].v.Load()
	}
	return s
}

// Gauge is a last-value metric that also tracks its high-water mark.
type Gauge struct {
	v, max atomic.Int64
}

// Set stores v and folds it into the high-water mark. Zero-allocation.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	for m := g.max.Load(); v > m; m = g.max.Load() {
		if g.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// Value returns the last stored value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return g.max.Load() }

type histShard struct {
	counts []atomic.Uint64 // len(bounds)+1, last bucket is +Inf
	sum    atomic.Uint64   // integer-valued observations summed
	_      [cacheLine - 8]byte
}

// Histogram counts observations into fixed buckets (upper-bound
// inclusive, with an implicit +Inf overflow bucket), sharded like
// Counter so concurrent workers never contend.
type Histogram struct {
	bounds []float64
	shards []histShard
}

// Observe records v. Zero-allocation; safe for concurrent use across
// (and within) shards.
func (h *Histogram) Observe(shard int, v float64) {
	s := &h.shards[shard&(len(h.shards)-1)]
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	s.counts[i].Add(1)
	if v > 0 {
		s.sum.Add(uint64(v))
	}
}

// HistSnapshot is a merged, read-only view of a histogram.
type HistSnapshot struct {
	Name   string
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    uint64
}

// Mean returns the average observed value.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

func (h *Histogram) snapshot(name string) HistSnapshot {
	s := HistSnapshot{Name: name, Bounds: h.bounds, Counts: make([]uint64, len(h.bounds)+1)}
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.counts {
			s.Counts[b] += sh.counts[b].Load()
		}
		s.Sum += sh.sum.Load()
	}
	for _, c := range s.Counts {
		s.Count += c
	}
	return s
}

// Registry names and owns a set of metrics. Lookup (get-or-create) is
// mutex-guarded and meant for setup paths; hot paths hold the returned
// metric pointers and never touch the registry again.
type Registry struct {
	mu       sync.Mutex
	shards   int
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns a registry whose metrics carry the given number
// of shards, rounded up to a power of two (≤ 0 selects GOMAXPROCS).
func NewRegistry(shards int) *Registry {
	if shards <= 0 {
		shards = goruntime.GOMAXPROCS(0)
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	return &Registry{
		shards:   n,
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Default is the process-wide registry. Package-level instrumentation
// (the dense workspace pool, the TLR compression kernels) registers
// here at init; per-run registries are available through NewRegistry
// when isolation matters.
var Default = NewRegistry(0)

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{shards: make([]counterShard, r.shards)}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls keep the first bounds).
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		h = &Histogram{bounds: bs, shards: make([]histShard, r.shards)}
		for i := range h.shards {
			h.shards[i].counts = make([]atomic.Uint64, len(bs)+1)
		}
		r.hists[name] = h
	}
	return h
}

// GaugeValue is one gauge row of a snapshot.
type GaugeValue struct {
	Name       string
	Value, Max int64
}

// CounterValue is one counter row of a snapshot.
type CounterValue struct {
	Name  string
	Value uint64
}

// MetricsSnapshot is a merged, sorted, read-only view of a registry.
type MetricsSnapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistSnapshot
}

// Snapshot merges every metric's shards into a deterministic (sorted
// by name) view.
func (r *Registry) Snapshot() MetricsSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s MetricsSnapshot
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Value(), Max: g.Max()})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, h.snapshot(name))
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Merge sums snapshots by metric name: the whole-process view of a
// server whose parts record into registries of their own. Counters,
// gauge values and histogram buckets add. A merged gauge's Max is the
// sum of the parts' high-water marks, an upper bound on the true
// high-water mark of the sum. A histogram whose bucket count differs
// from the first one seen under its name is left out of the sum.
func Merge(snaps ...MetricsSnapshot) MetricsSnapshot {
	counters := map[string]uint64{}
	gauges := map[string]GaugeValue{}
	hists := map[string]HistSnapshot{}
	for _, s := range snaps {
		for _, c := range s.Counters {
			counters[c.Name] += c.Value
		}
		for _, g := range s.Gauges {
			m := gauges[g.Name]
			gauges[g.Name] = GaugeValue{Name: g.Name, Value: m.Value + g.Value, Max: m.Max + g.Max}
		}
		for _, h := range s.Histograms {
			m, ok := hists[h.Name]
			if !ok {
				m = HistSnapshot{Name: h.Name, Bounds: h.Bounds, Counts: make([]uint64, len(h.Counts))}
			} else if len(m.Counts) != len(h.Counts) {
				continue
			}
			for b, c := range h.Counts {
				m.Counts[b] += c
			}
			m.Count += h.Count
			m.Sum += h.Sum
			hists[h.Name] = m
		}
	}
	var out MetricsSnapshot
	for name, v := range counters {
		out.Counters = append(out.Counters, CounterValue{Name: name, Value: v})
	}
	for _, g := range gauges {
		out.Gauges = append(out.Gauges, g)
	}
	for _, h := range hists {
		out.Histograms = append(out.Histograms, h)
	}
	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	sort.Slice(out.Gauges, func(i, j int) bool { return out.Gauges[i].Name < out.Gauges[j].Name })
	sort.Slice(out.Histograms, func(i, j int) bool { return out.Histograms[i].Name < out.Histograms[j].Name })
	return out
}

// CounterMap returns the snapshot's counters keyed by name.
func (s MetricsSnapshot) CounterMap() map[string]uint64 {
	out := make(map[string]uint64, len(s.Counters))
	for _, c := range s.Counters {
		out[c.Name] = c.Value
	}
	return out
}

// Delta returns the per-metric difference s − prev: the window view a
// long-lived process needs. Counters and histograms accumulate forever
// across jobs; taking a snapshot at each reporting boundary and
// subtracting the previous one yields correct per-window rates after
// thousands of requests, without the races a destructive Reset would
// invite (concurrent incrementers would lose updates between read and
// clear). Matching is by name; a metric absent from prev (created
// during the window) reports its full value. Subtraction saturates at
// zero, so a caller pairing snapshots from different registries cannot
// underflow. Gauges are last-value metrics and are passed through
// unchanged — note their Max remains the process-lifetime high-water
// mark, not the window's.
func (s MetricsSnapshot) Delta(prev MetricsSnapshot) MetricsSnapshot {
	sub := func(a, b uint64) uint64 {
		if b > a {
			return 0
		}
		return a - b
	}
	pc := make(map[string]uint64, len(prev.Counters))
	for _, c := range prev.Counters {
		pc[c.Name] = c.Value
	}
	ph := make(map[string]HistSnapshot, len(prev.Histograms))
	for _, h := range prev.Histograms {
		ph[h.Name] = h
	}
	out := MetricsSnapshot{
		Counters:   make([]CounterValue, len(s.Counters)),
		Gauges:     append([]GaugeValue(nil), s.Gauges...),
		Histograms: make([]HistSnapshot, len(s.Histograms)),
	}
	for i, c := range s.Counters {
		out.Counters[i] = CounterValue{Name: c.Name, Value: sub(c.Value, pc[c.Name])}
	}
	for i, h := range s.Histograms {
		d := HistSnapshot{Name: h.Name, Bounds: h.Bounds, Counts: append([]uint64(nil), h.Counts...)}
		if p, ok := ph[h.Name]; ok && len(p.Counts) == len(h.Counts) {
			for b := range d.Counts {
				d.Counts[b] = sub(h.Counts[b], p.Counts[b])
			}
			d.Sum = sub(h.Sum, p.Sum)
		} else {
			d.Sum = h.Sum
		}
		for _, c := range d.Counts {
			d.Count += c
		}
		out.Histograms[i] = d
	}
	return out
}

// Map renders the snapshot as plain values for expvar publication.
func (s MetricsSnapshot) Map() map[string]any {
	out := make(map[string]any, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for _, c := range s.Counters {
		out[c.Name] = c.Value
	}
	for _, g := range s.Gauges {
		out[g.Name] = map[string]int64{"value": g.Value, "max": g.Max}
	}
	for _, h := range s.Histograms {
		out[h.Name] = map[string]any{"count": h.Count, "sum": h.Sum, "buckets": h.Counts}
	}
	return out
}

// String renders the snapshot as the human-readable metrics dump the
// CLI prints under -metrics.
func (s MetricsSnapshot) String() string { return s.StringPrefix("") }

// StringPrefix renders the snapshot with every metric name prefixed —
// how a sharded server lists each shard's registry in one scrape
// ("shard0.serve.cache.hits ...") without name collisions.
func (s MetricsSnapshot) StringPrefix(prefix string) string {
	var sb strings.Builder
	sb.WriteString("metrics:\n")
	for _, c := range s.Counters {
		fmt.Fprintf(&sb, "  %-28s %d\n", prefix+c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(&sb, "  %-28s %d (max %d)\n", prefix+g.Name, g.Value, g.Max)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(&sb, "  %-28s count %d mean %.1f\n", prefix+h.Name, h.Count, h.Mean())
		if h.Count == 0 {
			continue
		}
		for b, c := range h.Counts {
			if c == 0 {
				continue
			}
			lo, hi := 0.0, math.Inf(1)
			if b > 0 {
				lo = h.Bounds[b-1]
			}
			if b < len(h.Bounds) {
				hi = h.Bounds[b]
			}
			bar := strings.Repeat("#", int(1+19*c/h.Count))
			if math.IsInf(hi, 1) {
				fmt.Fprintf(&sb, "    (%3.0f,  inf] %8d %s\n", lo, c, bar)
			} else {
				fmt.Fprintf(&sb, "    (%3.0f, %4.0f] %8d %s\n", lo, hi, c, bar)
			}
		}
	}
	return sb.String()
}
