package serving

import (
	"sort"
	"sync/atomic"
	"time"
)

// bucketBounds are the fixed histogram bucket upper bounds. The range
// covers a 5µs cache-hit handler up to multi-second decodes; the last
// implicit bucket is +Inf.
var bucketBounds = [...]time.Duration{
	5 * time.Microsecond,
	10 * time.Microsecond,
	25 * time.Microsecond,
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
}

const numBuckets = len(bucketBounds) + 1 // +1 for +Inf

// Histogram is a fixed-bucket latency histogram safe for concurrent
// observation. Quantiles are estimated as the upper bound of the
// bucket containing the quantile rank — coarse but allocation-free and
// monotone, which is what an operations dashboard needs. The 1-2.5-5
// ladder is a stopgap: ROADMAP item 2(a)'s log-linear type (bench/hist.go's
// design, < 1 % error) still replaces it.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	i := sort.Search(len(bucketBounds), func(i int) bool { return d <= bucketBounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Quantile estimates the p-quantile (0 < p <= 1) in milliseconds,
// returning 0 when no samples have been observed. Samples beyond the
// last bound report that bound (the histogram cannot resolve further).
func (h *Histogram) Quantile(p float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(float64(p*float64(total)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < numBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			if i < len(bucketBounds) {
				return float64(bucketBounds[i]) / float64(time.Millisecond)
			}
			return float64(bucketBounds[len(bucketBounds)-1]) / float64(time.Millisecond)
		}
	}
	return float64(bucketBounds[len(bucketBounds)-1]) / float64(time.Millisecond)
}

// EndpointMetrics holds the per-endpoint counters and latency
// histogram. All fields are updated atomically.
type EndpointMetrics struct {
	Requests atomic.Int64
	Hits     atomic.Int64
	Misses   atomic.Int64
	Shed     atomic.Int64
	Errors   atomic.Int64
	Latency  Histogram
}

// Metrics is the instrumentation core: a fixed set of endpoints
// registered at construction, each with its own counters and
// histogram. The fixed set keeps the hot path lock-free (plain map
// reads are safe because the map is never written after New).
type Metrics struct {
	endpoints map[string]*EndpointMetrics
	started   time.Time
}

// NewMetrics registers the given endpoint names.
func NewMetrics(endpoints ...string) *Metrics {
	m := &Metrics{endpoints: make(map[string]*EndpointMetrics, len(endpoints)), started: time.Now()}
	for _, e := range endpoints {
		m.endpoints[e] = &EndpointMetrics{}
	}
	return m
}

// Endpoint returns the metrics cell for name, or nil when the name was
// not registered (callers may use the nil-tolerant helpers below).
func (m *Metrics) Endpoint(name string) *EndpointMetrics {
	if m == nil {
		return nil
	}
	return m.endpoints[name]
}

// EndpointSnapshot is the JSON-friendly point-in-time view of one
// endpoint.
type EndpointSnapshot struct {
	Requests  int64   `json:"requests"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Shed      int64   `json:"shed"`
	Errors    int64   `json:"errors"`
	P50Millis float64 `json:"p50_ms"`
	P95Millis float64 `json:"p95_ms"`
	P99Millis float64 `json:"p99_ms"`
	MeanMicro float64 `json:"mean_us"`
}

// Snapshot is the full point-in-time view returned by /api/metrics.
type Snapshot struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	CacheEntries  int                         `json:"cache_entries"`
	CacheBytes    int64                       `json:"cache_bytes"`
	Endpoints     map[string]EndpointSnapshot `json:"endpoints"`
}

// Snapshot captures every endpoint's counters and quantiles. The
// counters are read without a global lock, so a snapshot taken under
// load is consistent per-counter, not across counters — fine for
// monitoring.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		UptimeSeconds: time.Since(m.started).Seconds(),
		Endpoints:     make(map[string]EndpointSnapshot, len(m.endpoints)),
	}
	for name, em := range m.endpoints {
		es := EndpointSnapshot{
			Requests:  em.Requests.Load(),
			Hits:      em.Hits.Load(),
			Misses:    em.Misses.Load(),
			Shed:      em.Shed.Load(),
			Errors:    em.Errors.Load(),
			P50Millis: em.Latency.Quantile(0.50),
			P95Millis: em.Latency.Quantile(0.95),
			P99Millis: em.Latency.Quantile(0.99),
		}
		if n := em.Latency.count.Load(); n > 0 {
			es.MeanMicro = float64(em.Latency.sum.Load()) / float64(n) / float64(time.Microsecond)
		}
		s.Endpoints[name] = es
	}
	return s
}
