package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unicode"

	"kqr"
	"kqr/synthetic"
)

// servingServer builds a test server with the full serving stack on.
func servingServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	corpus, err := synthetic.Bibliography(synthetic.Config{Seed: 11, Topics: 4, Confs: 8, Authors: 60, Papers: 400})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kqr.Open(corpus.Dataset, kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]Option{WithLogger(log.New(io.Discard, "", 0))}, opts...)
	srv, err := New(eng, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestCacheHitsAcrossEquivalentSpellings(t *testing.T) {
	srv, ts := servingServer(t, WithCache(1<<20, time.Minute))
	// The same query in four spellings: plain, extra whitespace, quoted
	// single-word terms. All share one cache entry — earned by the
	// second spelling, served to the third and fourth.
	spellings := []string{
		"probabilistic ranking",
		"  probabilistic \t ranking ",
		`"probabilistic" "ranking"`,
		`probabilistic "ranking"`,
	}
	var bodies []string
	for _, q := range spellings {
		resp, err := http.Get(ts.URL + "/api/reformulate?q=" + url.QueryEscape(q) + "&k=5")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q -> %d: %s", q, resp.StatusCode, b)
		}
		bodies = append(bodies, string(b))
	}
	if bodies[0] != bodies[1] || bodies[0] != bodies[2] || bodies[0] != bodies[3] {
		t.Fatal("equivalent spellings returned different bodies")
	}
	snap := srv.Metrics()
	em := snap.Endpoints["reformulate"]
	if em.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (the two sightings that earn four spellings their one entry)", em.Misses)
	}
	if em.Hits != 2 {
		t.Fatalf("hits = %d, want 2", em.Hits)
	}
	if snap.CacheEntries != 1 {
		t.Fatalf("cache entries = %d, want 1", snap.CacheEntries)
	}
}

func TestCacheDistinguishesOptions(t *testing.T) {
	srv, ts := servingServer(t, WithCache(1<<20, time.Minute))
	for _, u := range []string{
		"/api/reformulate?q=probabilistic&k=3",
		"/api/reformulate?q=probabilistic&k=5",
		"/api/similar?term=probabilistic&k=5",
		"/api/close?term=probabilistic&k=5",
		"/api/close?term=probabilistic&k=5&field=conferences.name",
	} {
		for range 2 { // the second request earns the entry
			resp, err := http.Get(ts.URL + u)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s -> %d", u, resp.StatusCode)
			}
		}
	}
	snap := srv.Metrics()
	if n := snap.CacheEntries; n != 5 {
		t.Fatalf("cache entries = %d, want 5 distinct", n)
	}
	for _, name := range []string{"reformulate", "similar", "close"} {
		if em := snap.Endpoints[name]; em.Hits != 0 {
			t.Fatalf("%s: %d hits — two requests differing in an option shared an entry", name, em.Hits)
		}
	}
}

func TestErrorsNotCached(t *testing.T) {
	srv, ts := servingServer(t, WithCache(1<<20, time.Minute))
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/api/reformulate?q=zzznotaword")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	}
	if n := srv.Metrics().CacheEntries; n != 0 {
		t.Fatalf("error responses cached: %d entries", n)
	}
}

// TestConcurrentIdenticalMisses holds n identical first-sighting
// requests inside their computations at once, then lets them finish:
// nothing coalesces them — n computations, n misses — and their n Puts
// admit the key once (the first is a sighting, the second admits, the
// rest replace); the next request is a hit with the same bytes. Run
// with -race this also exercises the whole stack's concurrency safety.
func TestConcurrentIdenticalMisses(t *testing.T) {
	srv, _ := servingServer(t, WithCache(1<<20, time.Minute))
	real, err := srv.parseReformulate(url.Values{"q": {"probabilistic ranking"}, "k": {"5"}})
	if err != nil {
		t.Fatal(err)
	}
	var computations atomic.Int64
	release := make(chan struct{})
	h := srv.wrap("reformulate", func(url.Values) (request, error) {
		req := real
		req.respond = func(dst []byte) ([]byte, error) {
			computations.Add(1)
			<-release
			return real.respond(dst)
		}
		return req, nil
	})
	get := func() string {
		w := httptest.NewRecorder()
		h(w, httptest.NewRequest("GET", "/api/reformulate?q=probabilistic+ranking&k=5", nil))
		if w.Code != http.StatusOK {
			t.Errorf("status %d: %s", w.Code, w.Body)
		}
		return w.Body.String()
	}

	const n = 24
	bodies := make([]string, n)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i] = get()
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); computations.Load() != n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests computing", computations.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, b := range bodies {
		if b != bodies[0] || b == "" {
			t.Fatalf("request %d got %q, request 0 %q", i, b, bodies[0])
		}
	}
	snap := srv.Metrics()
	em := snap.Endpoints["reformulate"]
	if em.Misses != n || em.Hits != 0 || em.Requests != n || snap.CacheEntries != 1 {
		t.Fatalf("%d concurrent identical misses: counters %+v, %d cache entries", n, em, snap.CacheEntries)
	}
	cached := get()
	if em = srv.Metrics().Endpoints["reformulate"]; computations.Load() != n || em.Hits != 1 {
		t.Fatalf("after the burst: %d computations, counters %+v", computations.Load(), em)
	}
	if cached != bodies[0] {
		t.Fatalf("cached body differs from the computed one:\n%q\n%q", cached, bodies[0])
	}
}

// The cache keeps its own copy of a body: the pooled buffer the body was
// built in goes back to the pool when the request ends, the next request
// builds another body in it, and the hit still serves the first bytes.
func TestCachedBodyOutlivesItsBuffer(t *testing.T) {
	srv, _ := servingServer(t, WithCache(1<<20, time.Minute))
	get := func(u string) string {
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", u, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("%s -> %d: %s", u, w.Code, w.Body)
		}
		return w.Body.String()
	}
	const q = "/api/reformulate?q=probabilistic+ranking&k=5"
	want := get(q) // first sighting
	get(q)         // second sighting: admitted
	get("/api/reformulate?q=xml+indexing&k=5")
	if got := get(q); got != want || srv.Metrics().Endpoints["reformulate"].Hits != 1 {
		t.Fatalf("hit served %q, want %q", got, want)
	}
}

// TestOverloadShedsWithoutWaiting drives the limiter past its bound
// with every admitted request held inside its computation: two run, two
// queue, and the next four are shed — 503, Retry-After, the JSON
// envelope — while the gate is still closed, so shedding never waits
// behind admitted work. Released, the four admitted requests answer 200
// with one body, and nothing is left behind: no slot, no waiter, no
// goroutine.
func TestOverloadShedsWithoutWaiting(t *testing.T) {
	srv, _ := servingServer(t, WithMaxInflight(2, 2))
	real, err := srv.parseReformulate(url.Values{"q": {"probabilistic ranking"}, "k": {"5"}})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	h := srv.wrap("reformulate", func(url.Values) (request, error) {
		req := real
		req.respond = func(dst []byte) ([]byte, error) {
			<-gate
			return real.respond(dst)
		}
		return req, nil
	})
	serve := func(n int) ([]*httptest.ResponseRecorder, *sync.WaitGroup) {
		ws := make([]*httptest.ResponseRecorder, n)
		var wg sync.WaitGroup
		for i := range ws {
			ws[i] = httptest.NewRecorder()
			wg.Add(1)
			go func() {
				defer wg.Done()
				h(ws[i], httptest.NewRequest("GET", "/api/reformulate?q=probabilistic+ranking&k=5", nil))
			}()
		}
		return ws, &wg
	}
	baseline := runtime.NumGoroutine()

	admitted, admittedDone := serve(4)
	for deadline := time.Now().Add(10 * time.Second); srv.limiter.Inflight() != 2 || srv.limiter.Waiting() != 2; {
		if time.Now().After(deadline) {
			t.Fatalf("limiter at %d in flight, %d waiting; want 2 and 2", srv.limiter.Inflight(), srv.limiter.Waiting())
		}
		time.Sleep(time.Millisecond)
	}
	shed, shedDone := serve(4)
	finished := make(chan struct{})
	go func() { shedDone.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("excess requests were not answered while the admitted ones held the gate")
	}
	for i, w := range shed {
		var envelope struct {
			Error string `json:"error"`
		}
		if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" ||
			json.Unmarshal(w.Body.Bytes(), &envelope) != nil || envelope.Error == "" {
			t.Fatalf("excess request %d: status %d, Retry-After %q, body %q", i, w.Code, w.Header().Get("Retry-After"), w.Body)
		}
	}

	close(gate)
	admittedDone.Wait()
	for i, w := range admitted {
		if w.Code != http.StatusOK || w.Body.String() != admitted[0].Body.String() {
			t.Fatalf("admitted request %d: status %d, body %q; request 0 %q", i, w.Code, w.Body, admitted[0].Body)
		}
	}
	em := srv.Metrics().Endpoints["reformulate"]
	if em.Requests != 8 || em.Shed != 4 || em.Errors != 0 {
		t.Fatalf("counters %+v, want 8 requests, 4 shed, 0 errors", em)
	}
	if srv.limiter.Inflight() != 0 || srv.limiter.Waiting() != 0 {
		t.Fatalf("limiter left at %d in flight, %d waiting", srv.limiter.Inflight(), srv.limiter.Waiting())
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the burst", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// A promotion changes every cache key (the epoch tag), so sightings
// start afresh: a query seen once before the promotion is a first
// sighting again after it.
func TestEpochBumpRestartsSightings(t *testing.T) {
	ts, eng := liveServer(t)
	const q = "/api/similar?term=clustering"
	entries := func() int {
		var m struct {
			CacheEntries int `json:"cache_entries"`
		}
		getJSON(t, ts.URL+"/api/metrics", &m)
		return m.CacheEntries
	}
	if code := getJSON(t, ts.URL+q, new(struct{})); code != http.StatusOK {
		t.Fatalf("status %d for a vocabulary term", code)
	}
	ingest := map[string]any{"deltas": []map[string]any{{
		"op": "insert", "table": "papers", "values": []any{999997, "ocarina paper", 1},
	}}}
	if code := postJSON(t, ts.URL+"/api/admin/ingest", ingest, nil); code != http.StatusOK {
		t.Fatal("ingest failed")
	}
	if code := postJSON(t, ts.URL+"/api/admin/promote", nil, nil); code != http.StatusOK || eng.Epoch() != 2 {
		t.Fatalf("promote failed (status %d, epoch %d)", code, eng.Epoch())
	}
	getJSON(t, ts.URL+q, new(struct{}))
	if n := entries(); n != 0 {
		t.Fatalf("%d entries: the sighting at epoch 1 counted at epoch 2", n)
	}
	getJSON(t, ts.URL+q, new(struct{}))
	if n := entries(); n != 1 {
		t.Fatalf("%d entries after two sightings at epoch 2", n)
	}
}

// TestLoadShedding fills the limiter from inside (tests live in
// package server) and verifies an incoming request is shed with 503
// and a Retry-After hint, then admitted again after release.
func TestLoadShedding(t *testing.T) {
	srv, ts := servingServer(t, WithMaxInflight(1, 0))
	// Occupy the only execution slot.
	if err := srv.limiter.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/api/reformulate?q=probabilistic")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 missing Retry-After header")
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("503 content type %q", ct)
	}
	var envelope struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error == "" {
		t.Fatalf("503 body not a JSON error envelope: %v", err)
	}
	if got := srv.Metrics().Endpoints["reformulate"].Shed; got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	// After releasing the slot requests flow again.
	srv.limiter.Release()
	resp2, err := http.Get(ts.URL + "/api/reformulate?q=probabilistic")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d", resp2.StatusCode)
	}
	// /api/metrics bypasses the limiter: re-saturate and probe it.
	if err := srv.limiter.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.limiter.Release()
	resp3, err := http.Get(ts.URL + "/api/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("metrics under saturation = %d, want 200", resp3.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := servingServer(t, WithCache(1<<20, time.Minute))
	// Two misses — the second earns the cache entry — and one hit.
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/api/reformulate?q=probabilistic&k=3")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/api/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var snap struct {
		UptimeSeconds float64 `json:"uptime_seconds"`
		CacheEntries  int     `json:"cache_entries"`
		Endpoints     map[string]struct {
			Requests  int64   `json:"requests"`
			Hits      int64   `json:"hits"`
			Misses    int64   `json:"misses"`
			P50Millis float64 `json:"p50_ms"`
			P99Millis float64 `json:"p99_ms"`
		} `json:"endpoints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	em, ok := snap.Endpoints["reformulate"]
	if !ok {
		t.Fatalf("metrics missing reformulate endpoint: %+v", snap)
	}
	if em.Requests != 3 || em.Misses != 2 || em.Hits != 1 {
		t.Fatalf("metrics counters %+v", em)
	}
	if em.P50Millis <= 0 || em.P99Millis < em.P50Millis {
		t.Fatalf("quantiles p50=%v p99=%v", em.P50Millis, em.P99Millis)
	}
	if snap.CacheEntries != 1 {
		t.Fatalf("cache entries = %d", snap.CacheEntries)
	}
	// Every registered endpoint appears even when idle.
	for _, name := range []string{"search", "similar", "close", "facets", "stats"} {
		if _, ok := snap.Endpoints[name]; !ok {
			t.Fatalf("metrics missing idle endpoint %q", name)
		}
	}
}

// TestBadParams is the table-driven sweep of malformed k/q/term over
// every endpoint: all must answer 400 with a JSON error envelope, and
// every response carries the JSON Content-Type.
func TestBadParams(t *testing.T) {
	_, ts := servingServer(t)
	cases := []struct {
		path string
		want int
	}{
		{"/api/reformulate", http.StatusBadRequest},
		{"/api/reformulate?q=%22unbalanced", http.StatusBadRequest},
		{"/api/reformulate?q=probabilistic&k=junk", http.StatusBadRequest},
		{"/api/reformulate?q=probabilistic&k=0", http.StatusBadRequest},
		{"/api/reformulate?q=probabilistic&k=-3", http.StatusBadRequest},
		{"/api/reformulate?q=probabilistic&k=99999999999999999999", http.StatusBadRequest},
		{"/api/search", http.StatusBadRequest},
		{"/api/search?q=%22unbalanced", http.StatusBadRequest},
		{"/api/search?q=probabilistic&k=junk", http.StatusBadRequest},
		{"/api/search?q=probabilistic&k=0", http.StatusBadRequest},
		{"/api/similar", http.StatusBadRequest},
		{"/api/similar?term=", http.StatusBadRequest},
		{"/api/similar?term=probabilistic&k=junk", http.StatusBadRequest},
		{"/api/similar?term=probabilistic&k=-1", http.StatusBadRequest},
		{"/api/close", http.StatusBadRequest},
		{"/api/close?term=probabilistic&k=junk", http.StatusBadRequest},
		{"/api/close?term=probabilistic&k=0", http.StatusBadRequest},
		{"/api/facets", http.StatusBadRequest},
		{"/api/facets?q=%22unbalanced", http.StatusBadRequest},
		{"/api/facets?q=probabilistic&k=junk", http.StatusBadRequest},
		{"/api/facets?q=probabilistic&k=0", http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.path, func(t *testing.T) {
			resp, err := http.Get(ts.URL + c.path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Fatalf("%s -> %d, want %d", c.path, resp.StatusCode, c.want)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s content type %q", c.path, ct)
			}
			var envelope struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error == "" {
				t.Fatalf("%s: error envelope = %+v, %v", c.path, envelope, err)
			}
		})
	}
}

func TestServeGracefulShutdown(t *testing.T) {
	srv, _ := servingServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, "127.0.0.1:0") }()
	// Give the listener a moment to come up, then trigger shutdown.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
	// A bad address surfaces the listen error.
	if err := srv.Serve(context.Background(), "256.256.256.256:bad"); err == nil {
		t.Fatal("bad address accepted")
	}
}

// FuzzCacheKeyCanonical asserts the canonicalization contract of the
// cache fingerprint: query spellings that parse to the same terms
// (whitespace runs, tab separators, quoted single words) produce the
// same key, different k produces a different key, and appending a term
// produces a different key.
func FuzzCacheKeyCanonical(f *testing.F) {
	f.Add("probabilistic", "ranking", 5)
	f.Add("xml", "semi-structured", 10)
	f.Add("a", "b", 1)
	// Keys carry the engine's generation epoch, so even this key-only
	// fuzz target needs a (tiny) real engine behind the server.
	corpus, err := synthetic.Bibliography(synthetic.Config{Seed: 1, Topics: 2, Confs: 4, Authors: 5, Papers: 20})
	if err != nil {
		f.Fatal(err)
	}
	eng, err := kqr.Open(corpus.Dataset, kqr.Options{})
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(eng, WithLogger(log.New(io.Discard, "", 0)))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, t1, t2 string, k int) {
		// Strip quotes and every whitespace rune so the fuzzed terms
		// are single tokens under the engine's query syntax.
		clean := func(x string) string {
			return strings.Map(func(r rune) rune {
				if r == '"' || unicode.IsSpace(r) {
					return -1
				}
				return r
			}, x)
		}
		t1, t2 = clean(t1), clean(t2)
		if t1 == "" || t2 == "" {
			t.Skip()
		}
		if k < 1 {
			k = -k + 1
		}
		keyFor := func(q string, k int) string {
			u := "/api/reformulate?q=" + url.QueryEscape(q) + "&k=" + fmt.Sprint(k)
			req, err := s.parseReformulate(httptest.NewRequest("GET", u, nil).URL.Query())
			if err != nil {
				return ""
			}
			return s.cacheKey("reformulate", req)
		}
		base := keyFor(t1+" "+t2, k)
		if base == "" {
			t.Skip() // k overflowed int parsing
		}
		for _, variant := range []string{
			t1 + "  " + t2,
			" " + t1 + "\t" + t2 + " ",
			`"` + t1 + `" ` + t2,
			t1 + ` "` + t2 + `"`,
		} {
			if got := keyFor(variant, k); got != base {
				t.Fatalf("spelling %q key %q != base %q", variant, got, base)
			}
		}
		// Distinct options and distinct structure never collide.
		if k < 50 { // below the clamp, k is part of the key
			if keyFor(t1+" "+t2, k+1) == base {
				t.Fatal("different k collided")
			}
		}
		if keyFor(t1+" "+t2+" "+t2, k) == base {
			t.Fatal("extra term collided")
		}
		if keyFor(t1+t2, k) == base && t1+t2 != t1+" "+t2 {
			// Joined terms must differ from the two-term form.
			t.Fatal("joined terms collided")
		}
	})
}
