// Package serving is the production serving layer between the HTTP
// surface and the reformulation engine: a sharded LRU response cache
// with TTL, byte-bounded capacity and admission on a key's second
// sighting, a concurrency limiter with a bounded wait queue that sheds
// load when saturated, and an instrumentation core (atomic counters plus
// fixed-bucket latency histograms) behind a Snapshot API.
//
// Query-suggestion traffic is heavily skewed — the same popular
// queries repeat — which is the property offline/online rewrite
// caching exploits (Gollapudi et al., "Efficient Query Rewrite for
// Structured Web Queries"): keep what the head of the distribution
// asks for again, compute the tail and forget it. The paper's §VI-B
// interface ("Ajax or dialogue based") implies exactly this workload.
//
// Everything here is stdlib-only and safe for concurrent use.
package serving

import "errors"

// ErrSaturated is returned by Limiter.Acquire when both the inflight
// slots and the wait queue are full; HTTP servers should map it to
// 503 with a Retry-After hint.
var ErrSaturated = errors.New("serving: saturated, load shed")
