// Package server exposes a kqr.Engine over HTTP as a small JSON API —
// the backend the paper's Figure 6 interface would call ("such query
// suggestions … in an Ajax or dialogue based query interface", §VI-B).
//
// The root path serves a built-in single-page interface reproducing the
// paper's Figure 6 layout; the JSON endpoints back it (all GET):
//
//	/api/reformulate?q=<query>&k=<n>   ranked substitutive queries
//	    &mend=on|off|auto              repair typos/segmentation first
//	                                   (default auto: mend when the engine
//	                                   can; corrected_query + mend block
//	                                   echo a repair; 422 + hints when no
//	                                   token maps onto the vocabulary)
//	/api/search?q=<query>              keyword-search result trees
//	/api/similar?term=<t>&k=<n>        offline similarity relation
//	/api/close?term=<t>&k=<n>&field=   offline closeness relation
//	/api/facets?q=<query>&k=<n>        related terms grouped by field
//	/api/stats                         dataset and graph statistics
//	/api/metrics                       serving-layer counters and latency quantiles
//
// Health probes (always registered, never cached, never shed):
//
//	/healthz                           liveness: the process answers
//	/readyz                            readiness: engine open, warm/restore
//	                                   finished, current generation promoted
//
// Admin endpoints for live-generation management (enabled by engines
// opened with kqr.Options.Live; they bypass cache and limiter):
//
//	POST /api/admin/ingest             stage tuple deltas (JSON body, 8 MiB cap → 413)
//	POST /api/admin/promote            build + swap in the next generation
//	                                   (response includes per-phase timings)
//	GET  /api/admin/generation         current generation provenance
//
// Replication (see internal/repl): WithReplicationLeader mounts the
// leader protocol under /repl/ (snapshot bootstrap, log stream,
// status); WithReplicationFollower marks a read-only replica — admin
// writes answer 409, /readyz requires replication lag within the
// configured bound, and /api/metrics gains a "replication" block with
// the epoch delta, last-applied offset and bytes behind.
//
// CDC ingestion (see internal/cdc): WithCDC mounts POST /cdc/stream, a
// long-lived binary change-data-capture stream with exactly-once
// staging, withheld-ack backpressure and resume-from-ack; /api/metrics
// gains a "cdc" block with per-source stream, lag and sequence stats.
//
// Queries use the engine's syntax: whitespace-separated terms, double
// quotes around multi-word terms.
//
// # Serving layer
//
// With WithCache the engine sits behind a sharded LRU response cache
// keyed on a canonical fingerprint of the parsed request (so
// whitespace and quoting variants of the same query share an entry).
// A response earns its entry on the request's second sighting
// (serving.Cache.Put): tail queries that never come back are computed
// and forgotten, head queries pay one extra miss. Concurrent identical
// misses each compute their own response. With WithMaxInflight a
// concurrency limiter with a bounded wait queue sheds excess load as
// 503 + Retry-After instead of letting goroutines pile up. Both are off
// by default: a bare New(eng) serves exactly as before.
//
// A response body is built once, appended to a pooled buffer —
// /api/reformulate's straight from the engine's visitor, suggestion by
// suggestion (encode.go) — and copied only when the cache admits it.
//
// Every request is logged, one line each, through a buffer in front of
// the WithLogger sink: request lines reach the sink in batches (when
// 32 KiB have gathered, after a quarter of a second at the latest, and
// before Serve returns), lifecycle and error lines at once and in order
// (accesslog.go).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"kqr"
	"kqr/internal/cdc"
	"kqr/internal/repl"
	"kqr/internal/serving"
)

// Server wraps an engine with HTTP handlers. It is safe for concurrent
// use (the engine is read-only once opened).
type Server struct {
	eng *kqr.Engine
	// Stats line shown by /api/stats alongside graph stats.
	datasetStats string
	mux          *http.ServeMux
	// log is where the server writes its lines: the WithLogger sink's
	// prefix and flags over logBuf, the buffer in front of the sink's
	// writer (see accesslog.go).
	log    *log.Logger
	logBuf logBuffer

	cache   *serving.Cache   // nil = response caching disabled
	limiter *serving.Limiter // nil = no concurrency bound
	metrics *serving.Metrics

	// ready, when set, gates /readyz beyond the built-in checks (e.g.
	// "warm finished" in cmd/kqr-server).
	ready func() bool

	// replLeader, when set, mounts the replication protocol and reports
	// leader status in metrics; replFollower marks a read-only replica
	// whose /readyz requires replication lag within replMaxLag.
	replLeader   *repl.Leader
	replFollower *repl.Follower
	replMaxLag   uint64

	// cdcRecv, when set, mounts POST /cdc/stream and reports CDC
	// ingestion status in metrics.
	cdcRecv *cdc.Receiver

	// mendCount tracks how query mending engaged across reformulate
	// requests (the "mend" block of /api/metrics).
	mendCount mendCounters
}

// Option customizes a Server.
type Option func(*Server)

// WithLogger sets the logger whose writer, prefix and flags the
// server's log lines use (default: log.Default()). Request lines reach
// it in batches, at most a quarter of a second late; Serve flushes the
// last of them before it returns.
func WithLogger(l *log.Logger) Option { return func(s *Server) { s.logBuf.sink = l } }

// WithDatasetStats records a human-readable dataset summary for
// /api/stats.
func WithDatasetStats(stats string) Option {
	return func(s *Server) { s.datasetStats = stats }
}

// WithCache enables the sharded response cache: up to maxBytes of
// encoded response bodies, each entry valid for ttl (ttl <= 0 means no
// expiry).
func WithCache(maxBytes int64, ttl time.Duration) Option {
	return func(s *Server) { s.cache = serving.NewCache(maxBytes, ttl) }
}

// WithMaxInflight bounds concurrent request execution: maxInflight
// requests run at once, maxQueue more wait for a slot, and anything
// beyond that is shed with 503 + Retry-After.
func WithMaxInflight(maxInflight, maxQueue int) Option {
	return func(s *Server) { s.limiter = serving.NewLimiter(maxInflight, maxQueue) }
}

// WithReadiness adds a readiness condition to /readyz on top of the
// built-in checks (engine open, initial generation promoted). Use it to
// hold a replica out of rotation until its warm or snapshot restore has
// finished. The probe must be safe for concurrent use.
func WithReadiness(probe func() bool) Option {
	return func(s *Server) { s.ready = probe }
}

// New builds a server around an opened engine.
func New(eng *kqr.Engine, opts ...Option) (*Server, error) {
	if eng == nil {
		return nil, errors.New("server: nil engine")
	}
	s := &Server{eng: eng, logBuf: logBuffer{sink: log.Default()}}
	for _, o := range opts {
		o(s)
	}
	s.log = log.New(&s.logBuf, s.logBuf.sink.Prefix(), s.logBuf.sink.Flags())
	s.metrics = serving.NewMetrics("reformulate", "search", "similar", "close", "facets", "stats")
	mux := http.NewServeMux()
	// Health probes first: they must answer even when the serving stack
	// (limiter, cache) is saturated, so they bypass it entirely.
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /api/reformulate", s.wrap("reformulate", s.parseReformulate))
	mux.HandleFunc("GET /api/search", s.wrap("search", s.parseSearch))
	mux.HandleFunc("GET /api/similar", s.wrap("similar", s.parseSimilar))
	mux.HandleFunc("GET /api/close", s.wrap("close", s.parseClose))
	mux.HandleFunc("GET /api/facets", s.wrap("facets", s.parseFacets))
	mux.HandleFunc("GET /api/stats", s.wrap("stats", s.parseStats))
	mux.HandleFunc("GET /api/metrics", s.handleMetrics)
	mux.HandleFunc("POST /api/admin/ingest", s.admin("ingest", s.rejectFollowerWrites(s.handleAdminIngest)))
	mux.HandleFunc("POST /api/admin/promote", s.admin("promote", s.rejectFollowerWrites(s.handleAdminPromote)))
	mux.HandleFunc("GET /api/admin/generation", s.admin("generation", s.handleAdminGeneration))
	if s.replLeader != nil {
		// The replication protocol bypasses cache and limiter like the
		// health probes: followers must reach a saturated leader.
		mux.Handle("GET /repl/", s.replLeader.Handler())
	}
	if s.cdcRecv != nil {
		if !eng.Live() {
			return nil, errors.New("server: CDC ingestion requires an engine opened with Options.Live")
		}
		if s.replFollower != nil {
			return nil, errors.New("server: a follower cannot accept CDC streams; feed the leader")
		}
		// Long-lived binary streams: bypass cache and limiter, which are
		// sized for request/response traffic.
		mux.HandleFunc("POST /cdc/stream", s.cdcRecv.ServeStream)
	}
	mux.HandleFunc("GET /", s.handleUI)
	s.mux = mux
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns a point-in-time snapshot of the serving-layer
// counters — the programmatic form of /api/metrics.
func (s *Server) Metrics() serving.Snapshot {
	snap := s.metrics.Snapshot()
	if s.cache != nil {
		snap.CacheEntries = s.cache.Len()
		snap.CacheBytes = s.cache.Bytes()
	}
	return snap
}

// Serve runs the server on addr, with the standard timeouts, until ctx
// is cancelled, then drains in-flight requests via http.Server.Shutdown
// under a 10-second timeout and flushes the access log. It returns nil
// after a clean drain.
func (s *Server) Serve(ctx context.Context, addr string) error {
	defer s.logBuf.Flush()
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	s.logf("kqr server listening on %s", addr)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.logf("kqr server draining (10s grace)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(shutdownCtx)
}

// apiError is the JSON error envelope. Hints carries the
// nearest-candidate suggestions of a 422 "no known terms" rejection.
type apiError struct {
	Error string         `json:"error"`
	Hints []kqr.MendHint `json:"hints,omitempty"`
}

// badRequest marks handler errors caused by the request (400 rather
// than 500).
type badRequest struct{ err error }

// Error is the cause's message, unadorned.
func (b badRequest) Error() string { return b.err.Error() }

// Unwrap exposes the cause so the status mapping can recognize wrapped
// sentinel errors (e.g. http.MaxBytesError inside a decode failure).
func (b badRequest) Unwrap() error { return b.err }

// errorResponse maps a handler error to its status and JSON envelope,
// for the read and the admin endpoints alike: a query mending mapped
// onto no vocabulary term is well-formed but unanswerable (422, with the
// nearest-candidate hints); ErrLiveDisabled and ErrFollowerReadOnly are
// 409; an oversized body is 413 (checked before the badRequest its
// decode failure is wrapped in); a badRequest is 400; the rest is 500.
func errorResponse(err error) (int, []byte) {
	status, errBody := http.StatusInternalServerError, apiError{Error: err.Error()}
	var br badRequest
	var nk *kqr.NoKnownTermsError
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &nk):
		status, errBody.Hints = http.StatusUnprocessableEntity, nk.Hints
	case errors.Is(err, kqr.ErrLiveDisabled), errors.Is(err, ErrFollowerReadOnly):
		status = http.StatusConflict
	case errors.As(err, &mbe):
		status = http.StatusRequestEntityTooLarge
	case errors.As(err, &br):
		status = http.StatusBadRequest
	}
	body, _ := encodeBody(errBody)
	return status, body
}

// encodeBody marshals a response the way json.Encoder would (trailing
// newline included) so cached and freshly computed bodies are
// byte-identical.
func encodeBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// request is a parsed API request — what an endpoint's one parse
// function returns from the URL's (once-decoded) query values. The
// parameters are read exactly once: terms and
// opts are their canonical form, from which the cache key is rendered
// (whitespace and quoting variants of a query parse to identical term
// slices, k is clamped to its effective value), and respond computes
// the response body from the same parsed values, appending it to dst
// (trailing newline included, as json.Encoder would write it). An
// endpoint that is never cached (stats) leaves terms empty.
type request struct {
	terms   []string
	opts    []string
	respond func(dst []byte) ([]byte, error)
}

// encoded adapts an endpoint that builds a payload value to
// request.respond: the value goes through json.Marshal.
func encoded(payload func() (any, error)) func([]byte) ([]byte, error) {
	return func(dst []byte) ([]byte, error) {
		v, err := payload()
		if err != nil {
			return dst, err
		}
		b, err := encodeBody(v)
		return append(dst, b...), err
	}
}

// bodyPool recycles the buffers response bodies are built in. A body is
// built once, in one of these, and the buffer goes back to the pool once
// the body is written; the response cache copies what it keeps.
var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 16<<10)
	return &b
}}

// maxPooledBody keeps an unusually large body's buffer out of the pool.
const maxPooledBody = 256 << 10

func putBody(buf *[]byte) {
	if cap(*buf) <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// preChunkingBytes is the response buffer net/http fills before it
// commits to a framing: a handler that has written no more than this
// when it returns gets a Content-Length from net/http itself, and one
// that writes more without declaring a length is sent chunked.
const preChunkingBytes = 2048

// jsonContentType is the Content-Type value of every API response,
// shared rather than allocated per request; nothing appends to it.
var jsonContentType = []string{"application/json"}

// cacheKey renders a parsed request's cache key, tagged with the
// engine's current generation epoch (serving.EpochKey): a promotion
// bumps the epoch, so entries computed against the old corpus stop
// matching and age out of the LRU — no flush, no serving of stale
// results.
func (s *Server) cacheKey(endpoint string, req request) string {
	return serving.EpochKey(s.eng.Epoch(), endpoint, req.terms, req.opts...)
}

// wrap adapts an endpoint's parse function into the full serving stack:
// concurrency limiting (shed with 503 + Retry-After when saturated),
// one parse of the parameters, response-cache lookup on the parsed
// request's canonical key, error-to-status mapping, metrics, and one
// access-log line per request (buffered, see accesslog.go). Every
// request that is not a hit takes the same path: respond into a pooled
// buffer, offer a successful cacheable body to Cache.Put, write, return
// the buffer. A body too large for net/http's pre-chunking buffer is
// sent with its Content-Length declared (see preChunkingBytes). A
// request whose parameters do not parse is answered with its 400 and
// touches neither cache nor engine.
func (s *Server) wrap(name string, parse func(q url.Values) (request, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		em := s.metrics.Endpoint(name)
		em.Requests.Add(1)
		w.Header()["Content-Type"] = jsonContentType

		if s.limiter != nil {
			if err := s.limiter.Acquire(r.Context()); err != nil {
				if !errors.Is(err, serving.ErrSaturated) {
					// The client went away while queued: nobody to
					// answer, and not load the server refused. 499 is
					// the access log's "client closed request".
					em.Errors.Add(1)
					s.logRequest(r, 499, "cancelled", start)
					return
				}
				em.Shed.Add(1)
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusServiceUnavailable)
				body, _ := encodeBody(apiError{Error: "server saturated, retry later"})
				w.Write(body)
				s.logRequest(r, http.StatusServiceUnavailable, "shed", start)
				return
			}
			defer s.limiter.Release()
		}

		var body []byte
		var ck string // the cache key; empty when the response is not cached
		var hit bool
		var pooled *[]byte // the buffer body was built in
		req, err := parse(r.URL.Query())
		if err == nil && s.cache != nil && len(req.terms) > 0 {
			ck = s.cacheKey(name, req)
			body, hit = s.cache.Get(ck)
		}
		switch {
		case err != nil:
		case hit:
			em.Hits.Add(1)
		default:
			if ck != "" {
				em.Misses.Add(1)
			}
			pooled = bodyPool.Get().(*[]byte)
			*pooled, err = req.respond((*pooled)[:0])
			body = *pooled
			if err == nil && ck != "" {
				s.cache.Put(ck, body)
			}
		}

		status := http.StatusOK
		if err != nil {
			em.Errors.Add(1)
			status, body = errorResponse(err)
		}
		if len(body) > preChunkingBytes {
			// Declared, a large body leaves as header plus body in two
			// writes; undeclared, net/http would chunk it in three.
			w.Header()["Content-Length"] = []string{strconv.Itoa(len(body))}
		}
		if status != http.StatusOK {
			w.WriteHeader(status)
		}
		if _, werr := w.Write(body); werr != nil {
			s.logf("%s %s: write: %v", r.Method, r.URL.Path, werr)
		}
		if pooled != nil {
			putBody(pooled)
		}
		em.Latency.Observe(time.Since(start))
		s.logRequest(r, status, "", start)
	}
}

// metricsResponse is the /api/metrics payload: the serving-layer
// snapshot plus, on replicated deployments, the replica's replication
// state.
type metricsResponse struct {
	serving.Snapshot
	Replication *replicationMetrics `json:"replication,omitempty"`
	CDC         *cdc.ReceiverStatus `json:"cdc,omitempty"`
	// Disk reports page-cache hit/miss/eviction counters and resident
	// bytes when the engine serves paged tables from disk
	// (kqr.Options.DiskMode); absent otherwise.
	Disk *kqr.DiskStats `json:"disk,omitempty"`
	// Mend reports query-mending engagement counters and index size
	// when the engine mends queries (kqr.Options.Mend); absent
	// otherwise.
	Mend *mendMetrics `json:"mend,omitempty"`
}

// handleMetrics serves the serving-layer snapshot. It deliberately
// bypasses the limiter and cache: a saturated server must still answer
// its own health questions.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	resp := metricsResponse{Snapshot: s.Metrics(), Replication: s.replication(), CDC: s.cdcStatus(), Mend: s.mendMetricsBlock()}
	if ds, ok := s.eng.DiskTables(); ok {
		resp.Disk = &ds
	}
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		s.logf("%s %s: encode: %v", r.Method, r.URL.Path, err)
	}
}

// queryParam parses the ?q= query string into terms.
func queryParam(q url.Values) ([]string, error) {
	query := strings.TrimSpace(q.Get("q"))
	if query == "" {
		return nil, badRequest{fmt.Errorf("missing q parameter")}
	}
	terms, err := kqr.ParseQuery(query)
	if err != nil {
		return nil, badRequest{err}
	}
	return terms, nil
}

// kParam parses ?k= with a default and bounds.
func kParam(q url.Values, def, max int) (int, error) {
	raw := q.Get("k")
	if raw == "" {
		return def, nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k < 1 {
		return 0, badRequest{fmt.Errorf("bad k parameter %q", raw)}
	}
	if k > max {
		k = max
	}
	return k, nil
}

// queryAndK parses the ?q= and ?k= pair of the query endpoints; the
// returned option is k's canonical cache-key form.
func queryAndK(q url.Values, def, max int) (terms []string, k int, kOpt string, err error) {
	if terms, err = queryParam(q); err != nil {
		return nil, 0, "", err
	}
	if k, err = kParam(q, def, max); err != nil {
		return nil, 0, "", err
	}
	return terms, k, "k=" + strconv.Itoa(k), nil
}

// parseReformulate reads /api/reformulate's parameters: the query
// terms, k and the mend mode, which together with the epoch determine
// the response and so are its cache key. Mending runs on a miss only,
// ahead of the decode; a hit serves the body without it.
func (s *Server) parseReformulate(q url.Values) (request, error) {
	terms, k, kOpt, err := queryAndK(q, 5, 50)
	if err != nil {
		return request{}, err
	}
	mode, err := mendModeParam(q)
	if err != nil {
		return request{}, err
	}
	mending := s.mendEnabled()
	if mode == "on" && !mending {
		return request{}, badRequest{fmt.Errorf("mend=on requires a mending-enabled engine (start kqr-server with -mend)")}
	}
	// Every mode is its own key: mend=on echoes the mended form for
	// clean queries where auto omits it, so the two must never share a
	// body.
	req := request{terms: terms, opts: []string{kOpt, "mendmode=" + mode}}
	if mode == "off" || !mending {
		req.respond = func(dst []byte) ([]byte, error) { return s.appendReformulate(dst, terms, terms, k, nil, mode) }
		return req, nil
	}
	req.respond = func(dst []byte) ([]byte, error) {
		res, err := s.eng.Mend(terms)
		if err != nil {
			return dst, err
		}
		return s.appendReformulate(dst, terms, res.Terms, k, &res, mode)
	}
	return req, nil
}

// appendReformulate answers a parsed /api/reformulate request: it
// decodes suggestions for terms — the mended terms when mended is
// non-nil, the query as given otherwise — and appends the response body
// to dst, each suggestion encoded where the engine's visitor presents
// it (see encode.go). The body carries "query", then — when mending
// changed the query, and always under mend=on, where the caller asked to
// see the mended form — "corrected_query" (the repaired query as one
// parseable string) and "mend" (its per-token provenance), then
// "suggestions".
func (s *Server) appendReformulate(dst []byte, query, terms []string, k int, mended *kqr.MendResult, mode string) ([]byte, error) {
	if mended != nil {
		s.mendCount.engaged.Add(1)
		if len(terms) == 0 {
			s.mendCount.rejected.Add(1)
			// wrap maps this to 422 + hints.
			return dst, &kqr.NoKnownTermsError{Query: query, Hints: mended.Hints(3)}
		}
	}
	dst = append(dst, `{"query":`...)
	dst, _ = appendJSONTerms(dst, query)
	if mended != nil && (mended.Changed || mode == "on") {
		dst = append(dst, `,"corrected_query":`...)
		dst = appendJSONQuery(dst, terms, false)
		// The provenance block is small, nested and present on the
		// repaired minority of requests only: it stays reflective.
		block, err := json.Marshal(mended)
		if err != nil {
			return dst, err
		}
		dst = append(append(dst, `,"mend":`...), block...)
	}
	dst = append(dst, `,"suggestions":[`...)
	var encErr error
	err := s.eng.VisitReformulations(terms, k, func(i, _ int, sg kqr.Suggestion) {
		if encErr == nil {
			dst, encErr = appendSuggestion(dst, i, sg)
		}
	})
	if err != nil {
		return dst, badRequest{err}
	}
	if encErr != nil {
		return dst, encErr
	}
	if mended != nil {
		if mended.Changed {
			s.mendCount.mended.Add(1)
		} else {
			s.mendCount.passThrough.Add(1)
		}
	}
	return append(dst, "]}\n"...), nil
}

// searchResponse is the /api/search payload.
type searchResponse struct {
	Query   []string           `json:"query"`
	Total   int                `json:"total"`
	Results []kqr.SearchResult `json:"results"`
}

// parseSearch reads /api/search's parameters. Search takes no k, but a
// malformed one is still a client error rather than silently ignored.
func (s *Server) parseSearch(q url.Values) (request, error) {
	terms, _, _, err := queryAndK(q, 1, 1)
	if err != nil {
		return request{}, err
	}
	return request{terms: terms, respond: encoded(func() (any, error) {
		results, total, err := s.eng.Search(terms)
		if err != nil {
			return nil, badRequest{err}
		}
		if results == nil {
			results = []kqr.SearchResult{}
		}
		return searchResponse{Query: terms, Total: total, Results: results}, nil
	})}, nil
}

// termsResponse is the payload of /api/similar and /api/close.
type termsResponse struct {
	Term  string           `json:"term"`
	Terms []kqr.RankedTerm `json:"terms"`
}

// parseTerms reads the ?term= and ?k= pair shared by /api/similar and
// /api/close and binds lookup — the engine relation the endpoint
// serves — to them; extra are the endpoint's further key options.
func parseTerms(q url.Values, lookup func(term string, k int) ([]kqr.RankedTerm, error), extra ...string) (request, error) {
	term := strings.TrimSpace(q.Get("term"))
	if term == "" {
		return request{}, badRequest{fmt.Errorf("missing term parameter")}
	}
	k, err := kParam(q, 10, 64)
	if err != nil {
		return request{}, err
	}
	return request{
		terms: []string{term},
		opts:  append([]string{"k=" + strconv.Itoa(k)}, extra...),
		respond: encoded(func() (any, error) {
			terms, err := lookup(term, k)
			if err != nil {
				return nil, badRequest{err}
			}
			if terms == nil {
				terms = []kqr.RankedTerm{}
			}
			return termsResponse{Term: term, Terms: terms}, nil
		}),
	}, nil
}

// parseSimilar reads /api/similar's parameters.
func (s *Server) parseSimilar(q url.Values) (request, error) {
	return parseTerms(q, s.eng.SimilarTerms)
}

// parseClose reads /api/close's parameters: term, k and the optional
// field restriction.
func (s *Server) parseClose(q url.Values) (request, error) {
	field := q.Get("field")
	return parseTerms(q, func(term string, k int) ([]kqr.RankedTerm, error) {
		return s.eng.CloseTerms(term, k, field)
	}, "field="+field)
}

// facetsResponse is the /api/facets payload.
type facetsResponse struct {
	Query  []string    `json:"query"`
	Facets []kqr.Facet `json:"facets"`
}

// parseFacets reads /api/facets's parameters.
func (s *Server) parseFacets(q url.Values) (request, error) {
	terms, k, kOpt, err := queryAndK(q, 5, 20)
	if err != nil {
		return request{}, err
	}
	return request{terms: terms, opts: []string{kOpt}, respond: encoded(func() (any, error) {
		facets, err := s.eng.Facets(terms, k)
		if err != nil {
			return nil, badRequest{err}
		}
		if facets == nil {
			facets = []kqr.Facet{}
		}
		return facetsResponse{Query: terms, Facets: facets}, nil
	})}, nil
}

// statsResponse is the /api/stats payload.
type statsResponse struct {
	Dataset string `json:"dataset,omitempty"`
	Graph   string `json:"graph"`
}

// parseStats takes no parameters; the stats line is never cached.
func (s *Server) parseStats(url.Values) (request, error) {
	return request{respond: encoded(func() (any, error) {
		return statsResponse{Dataset: s.datasetStats, Graph: s.eng.GraphStats()}, nil
	})}, nil
}
