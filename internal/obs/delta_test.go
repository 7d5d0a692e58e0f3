package obs

import "testing"

// TestSnapshotDelta covers the window semantics a long-lived server
// needs: counters and histograms report per-window increments, new
// metrics report fully, gauges pass through.
func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry(4)
	c := r.Counter("req.total")
	h := r.Histogram("req.width", 1, 4, 16)
	g := r.Gauge("inflight")

	c.Add(0, 10)
	h.Observe(0, 1)
	h.Observe(1, 8)
	g.Set(3)
	snap1 := r.Snapshot()

	c.Add(1, 5)
	h.Observe(2, 2)
	h.Observe(3, 100)
	g.Set(1)
	r.Counter("req.late").Add(0, 7) // created mid-window
	snap2 := r.Snapshot()

	d := snap2.Delta(snap1)
	want := map[string]uint64{"req.total": 5, "req.late": 7}
	for _, cv := range d.Counters {
		if cv.Value != want[cv.Name] {
			t.Fatalf("counter %s delta = %d, want %d", cv.Name, cv.Value, want[cv.Name])
		}
	}
	if len(d.Counters) != 2 {
		t.Fatalf("want 2 counters, got %d", len(d.Counters))
	}
	if len(d.Histograms) != 1 {
		t.Fatalf("want 1 histogram, got %d", len(d.Histograms))
	}
	hd := d.Histograms[0]
	if hd.Count != 2 {
		t.Fatalf("histogram window count = %d, want 2", hd.Count)
	}
	if hd.Sum != 102 {
		t.Fatalf("histogram window sum = %d, want 102", hd.Sum)
	}
	// Buckets: bounds are (≤1, ≤4, ≤16, +Inf); window saw 2 and 100.
	wantCounts := []uint64{0, 1, 0, 1}
	for i, c := range hd.Counts {
		if c != wantCounts[i] {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, c, wantCounts[i], hd.Counts)
		}
	}
	if len(d.Gauges) != 1 || d.Gauges[0].Value != 1 || d.Gauges[0].Max != 3 {
		t.Fatalf("gauge should pass through last value and lifetime max: %+v", d.Gauges)
	}

	// Delta against an empty snapshot is the full view.
	full := snap2.Delta(MetricsSnapshot{})
	for _, cv := range full.Counters {
		switch cv.Name {
		case "req.total":
			if cv.Value != 15 {
				t.Fatalf("full delta req.total = %d", cv.Value)
			}
		case "req.late":
			if cv.Value != 7 {
				t.Fatalf("full delta req.late = %d", cv.Value)
			}
		}
	}

	// Saturating: deltas never underflow even with mismatched snapshots.
	rev := snap1.Delta(snap2)
	for _, cv := range rev.Counters {
		if cv.Value != 0 {
			t.Fatalf("reverse delta must saturate at 0, got %s=%d", cv.Name, cv.Value)
		}
	}
	if rev.Histograms[0].Count != 0 || rev.Histograms[0].Sum != 0 {
		t.Fatalf("reverse histogram delta must saturate: %+v", rev.Histograms[0])
	}
}

// TestMerge covers the whole-server view of several registries:
// same-named counters, gauges and histogram buckets add, names seen in
// one part only pass through, and the result is sorted by name.
func TestMerge(t *testing.T) {
	a, b := NewRegistry(2), NewRegistry(2)
	a.Counter("runs").Add(0, 2)
	b.Counter("runs").Add(1, 3)
	b.Counter("only.b").Add(0, 7)
	a.Gauge("inflight").Set(4)
	b.Gauge("inflight").Set(1)
	a.Histogram("width", 1, 4).Observe(0, 3)
	b.Histogram("width", 1, 4).Observe(0, 9)

	m := Merge(a.Snapshot(), b.Snapshot())
	got := m.CounterMap()
	if got["runs"] != 5 || got["only.b"] != 7 || len(got) != 2 {
		t.Fatalf("merged counters: %v", got)
	}
	if m.Counters[0].Name != "only.b" {
		t.Fatalf("merged counters not sorted: %+v", m.Counters)
	}
	if len(m.Gauges) != 1 || m.Gauges[0].Value != 5 || m.Gauges[0].Max != 5 {
		t.Fatalf("merged gauges: %+v", m.Gauges)
	}
	h := m.Histograms[0]
	if h.Count != 2 || h.Sum != 12 || h.Counts[1] != 1 || h.Counts[2] != 1 {
		t.Fatalf("merged histogram: %+v", h)
	}
}
