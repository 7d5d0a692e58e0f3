package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterShardMerge(t *testing.T) {
	reg := NewRegistry(3) // rounds up to 4
	c := reg.Counter("flops")
	c.Add(0, 10)
	c.Add(1, 20)
	c.Add(5, 30) // masks onto shard 1
	c.Add(-1, 1) // negative shards mask into range rather than panic
	if got := c.Value(); got != 61 {
		t.Fatalf("merged counter = %d, want 61", got)
	}
	if reg.Counter("flops") != c {
		t.Fatalf("get-or-create must return the same counter")
	}
}

func TestGaugeHighWater(t *testing.T) {
	g := NewRegistry(1).Gauge("depth")
	for _, v := range []int64{3, 9, 2, 7} {
		g.Set(v)
	}
	if g.Value() != 7 || g.Max() != 9 {
		t.Fatalf("gauge value/max = %d/%d, want 7/9", g.Value(), g.Max())
	}
}

// TestHistogramConcurrentMerge drives many goroutines into overlapping
// shards and checks the merged snapshot is exact — run under -race by
// the check.sh gate to prove the shard scheme has no write races.
func TestHistogramConcurrentMerge(t *testing.T) {
	reg := NewRegistry(4)
	h := reg.Histogram("rank", 8, 16, 32)
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(g, float64(i%40)) // buckets: ≤8, ≤16, ≤32, +Inf
			}
		}(g)
	}
	wg.Wait()
	s := h.snapshot("rank")
	if s.Count != goroutines*per {
		t.Fatalf("merged count = %d, want %d", s.Count, goroutines*per)
	}
	// i%40 over 1000 iterations per goroutine: exact bucket populations.
	perCycle := map[int]uint64{0: 9, 1: 8, 2: 16, 3: 7} // values 0..8 | 9..16 | 17..32 | 33..39
	for b, want := range perCycle {
		if got := s.Counts[b]; got != want*goroutines*per/40 {
			t.Fatalf("bucket %d = %d, want %d", b, got, want*goroutines*per/40)
		}
	}
	var wantSum uint64
	for i := 0; i < 40; i++ {
		wantSum += uint64(i)
	}
	if s.Sum != wantSum*goroutines*per/40 {
		t.Fatalf("merged sum = %d, want %d", s.Sum, wantSum*goroutines*per/40)
	}
}

func TestSnapshotDeterministicAndRendered(t *testing.T) {
	reg := NewRegistry(2)
	reg.Counter("b.count").Add(0, 2)
	reg.Counter("a.count").Add(0, 1)
	reg.Gauge("queue").Set(5)
	reg.Histogram("ranks", 4, 8).Observe(0, 6)
	s := reg.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a.count" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	text := s.String()
	for _, want := range []string{"a.count", "b.count", "queue", "ranks", "count 1 mean 6.0"} {
		if !strings.Contains(text, want) {
			t.Fatalf("dump missing %q:\n%s", want, text)
		}
	}
	m := reg.Snapshot().Map()
	if m["a.count"] != uint64(1) {
		t.Fatalf("expvar map wrong: %+v", m)
	}
}
