package serving

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v", q)
	}
	// 90 fast samples, 10 slow ones: p50 in the fast bucket, p99 slow.
	for i := 0; i < 90; i++ {
		h.Observe(80 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(400 * time.Millisecond)
	}
	if p50 := h.Quantile(0.50); p50 != 0.1 {
		t.Fatalf("p50 = %v ms, want 0.1 (100µs bucket)", p50)
	}
	if p99 := h.Quantile(0.99); p99 != 500 {
		t.Fatalf("p99 = %v ms, want 500 (500ms bucket)", p99)
	}
	// The latencies the server is good at fall into buckets of their
	// own: a 4µs cache hit, an 8µs one, a 20µs and a 45µs decode.
	for _, c := range []struct {
		d    time.Duration
		want float64
	}{
		{4 * time.Microsecond, 0.005}, {5 * time.Microsecond, 0.005}, {8 * time.Microsecond, 0.01},
		{20 * time.Microsecond, 0.025}, {45 * time.Microsecond, 0.05}, {110 * time.Microsecond, 0.25},
	} {
		var hs Histogram
		hs.Observe(c.d)
		if q := hs.Quantile(0.5); q != c.want {
			t.Fatalf("one %v sample: p50 = %v ms, want %v", c.d, q, c.want)
		}
	}
	// Samples beyond the last bound land in +Inf and report the last
	// bound.
	var h2 Histogram
	h2.Observe(time.Hour)
	if q := h2.Quantile(0.5); q != 5000 {
		t.Fatalf("overflow quantile = %v ms", q)
	}
}

func TestMetricsSnapshot(t *testing.T) {
	m := NewMetrics("reformulate", "search")
	em := m.Endpoint("reformulate")
	if em == nil {
		t.Fatal("registered endpoint missing")
	}
	if m.Endpoint("nope") != nil {
		t.Fatal("unregistered endpoint returned non-nil")
	}
	em.Requests.Add(3)
	em.Hits.Add(2)
	em.Misses.Add(1)
	em.Latency.Observe(time.Millisecond)
	s := m.Snapshot()
	es, ok := s.Endpoints["reformulate"]
	if !ok {
		t.Fatal("snapshot missing endpoint")
	}
	if es.Requests != 3 || es.Hits != 2 || es.Misses != 1 {
		t.Fatalf("snapshot counters %+v", es)
	}
	if es.P50Millis != 1 {
		t.Fatalf("p50 = %v, want 1", es.P50Millis)
	}
	if es.MeanMicro != 1000 {
		t.Fatalf("mean = %v µs, want 1000", es.MeanMicro)
	}
	if _, ok := s.Endpoints["search"]; !ok {
		t.Fatal("idle endpoint missing from snapshot")
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics("e")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			em := m.Endpoint("e")
			for i := 0; i < 1000; i++ {
				em.Requests.Add(1)
				em.Latency.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if got := s.Endpoints["e"].Requests; got != 8000 {
		t.Fatalf("requests = %d, want 8000", got)
	}
	if m.Endpoint("e").Latency.count.Load() != 8000 {
		t.Fatal("histogram lost samples")
	}
}

// Observe is on every request's path: one search, three atomic adds, no
// allocation.
func TestHistogramObserveZeroAllocs(t *testing.T) {
	var h Histogram
	d := 3 * time.Microsecond
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(d)
		d = d * 3 / 2 % (10 * time.Second)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f times", allocs)
	}
}
