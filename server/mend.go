package server

import (
	"fmt"
	"net/url"
	"sync/atomic"
)

// Query mending over HTTP. /api/reformulate accepts mend=on|off|auto
// (default auto): "off" reformulates the raw terms exactly as before
// mending existed, "auto" repairs the query first when the engine was
// opened with kqr.Options.Mend, and "on" insists on mending — a 400
// when the engine cannot. A repaired query is echoed back in the
// response's corrected_query field with per-token provenance in the
// mend block; a query that mends to nothing answers 422 with
// nearest-candidate hints. Mending runs on a cache miss, ahead of the
// decode: the raw terms, the mode and the epoch already determine the
// mended query, so the cache key carries no trace of it and a hit never
// mends. /api/metrics gains a "mend" block.

// mendCounters tracks how mending engaged across requests. All fields
// are atomics; the struct is embedded in Server and never copied.
type mendCounters struct {
	engaged     atomic.Int64
	passThrough atomic.Int64
	mended      atomic.Int64
	rejected    atomic.Int64
}

// mendMetrics is the "mend" block of /api/metrics. Its counters count
// mends, and a request mends only on a cache miss: a hit is served
// without one and counted by none of them.
type mendMetrics struct {
	// Enabled reports whether the engine mends queries.
	Enabled bool `json:"enabled"`
	// Engaged counts the mends reformulate misses ran.
	Engaged int64 `json:"engaged"`
	// PassThrough counts engaged mends whose query was already fully
	// vocabulary-resident and passed through byte-identically.
	PassThrough int64 `json:"pass_through"`
	// Mended counts engaged mends that repaired the query.
	Mended int64 `json:"mended"`
	// Rejected counts engaged mends no token of which could be mapped
	// onto the vocabulary (answered 422).
	Rejected int64 `json:"rejected"`
	// IndexTerms, IndexKeys and IndexBytes describe the current
	// generation's deletion-neighbourhood index.
	IndexTerms int   `json:"index_terms"`
	IndexKeys  int   `json:"index_keys"`
	IndexBytes int64 `json:"index_bytes"`
}

// mendMetricsBlock builds the /api/metrics "mend" block, or nil when
// the engine does not mend.
func (s *Server) mendMetricsBlock() *mendMetrics {
	stats, ok := s.eng.MendStats()
	if !ok {
		return nil
	}
	return &mendMetrics{
		Enabled:     true,
		Engaged:     s.mendCount.engaged.Load(),
		PassThrough: s.mendCount.passThrough.Load(),
		Mended:      s.mendCount.mended.Load(),
		Rejected:    s.mendCount.rejected.Load(),
		IndexTerms:  stats.Terms,
		IndexKeys:   stats.Keys,
		IndexBytes:  stats.Bytes,
	}
}

// mendModeParam parses ?mend= into "auto" (default), "on", or "off".
func mendModeParam(q url.Values) (string, error) {
	switch m := q.Get("mend"); m {
	case "", "auto":
		return "auto", nil
	case "on", "off":
		return m, nil
	default:
		return "", badRequest{fmt.Errorf("bad mend parameter %q (want on, off, or auto)", m)}
	}
}

// mendEnabled reports whether the engine was opened with query
// mending.
func (s *Server) mendEnabled() bool {
	_, ok := s.eng.MendStats()
	return ok
}
