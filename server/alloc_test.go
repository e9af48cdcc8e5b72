package server

import (
	"context"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"kqr"
	"kqr/synthetic"
)

// discardWriter is the least a handler needs of a ResponseWriter; what
// it allocates is the handler's doing, not the recorder's. It counts the
// body bytes written.
type discardWriter struct {
	h       http.Header
	written int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) {
	w.written += len(b)
	return len(b), nil
}
func (w *discardWriter) WriteHeader(int) {}

// TestReformulateHandlerAllocs bounds what the shell around the decoder
// allocates per request, so it cannot silently grow back: a warmed
// 6-term k=50 /api/reformulate miss — parse, key, mend, decode, encode
// into the pooled buffer, a first sighting offered to the cache, log
// line — through server.Handler() in kqr-server's posture (mending
// engine, 64 MiB cache, request log to a file), and a hit of head
// traffic's shape (3 terms, k=5), which mends nothing. This test read
// 531 and 30 when suggestions went through two slices, a struct and
// json.Marshal, and the hit 26 while every request mended before its
// cache lookup. The miss must also allocate fewer bytes than the body
// it serves: the body is built in a pooled buffer and a first sighting
// keeps no copy of it.
func TestReformulateHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Put items under the race detector by design")
	}
	corpus, err := synthetic.Bibliography(synthetic.Config{Seed: 11, Topics: 4, Confs: 8, Authors: 60, Papers: 400})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kqr.Open(corpus.Dataset, kqr.Options{Mend: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "requests.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv, err := New(eng, WithCache(64<<20, 5*time.Minute), WithLogger(log.New(f, "", log.LstdFlags)))
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	w := &discardWriter{h: http.Header{}}
	request := func(k string, terms ...string) *http.Request {
		q := kqr.Suggestion{Terms: terms}.String()
		return httptest.NewRequest("GET", "/api/reformulate?q="+url.QueryEscape(q)+"&k="+k, nil)
	}
	// Never-repeating 6-term queries, built before anything is counted:
	// each key is sighted once, so every one of them is a miss.
	base := []string{"probabilistic", "ranking", "uncertain", "mining", "query", "evaluation", "indexing", "xml"}
	var misses []*http.Request
	for a := range base {
		for b := range base {
			for c := range base {
				if a != b && b != c && a != c {
					misses = append(misses, request("50", base[a], base[b], base[c], "clustering", "aggregation", "pattern"))
				}
			}
		}
	}
	next := 0
	serveMiss := func() {
		h.ServeHTTP(w, misses[next%len(misses)])
		next++
	}
	hit := request("5", base[:3]...) // head traffic: 2–3 terms, k=5
	serveHit := func() { h.ServeHTTP(w, hit) }
	for range 3 { // tables, pools and log buffer warm; hit's entry earned
		serveMiss()
		serveHit()
	}

	// measure counts as testing.AllocsPerRun does (one warm-up call, then
	// 100 on one P) the allocations, bytes allocated and body bytes
	// written per call, twice, and keeps the lower reading of each: a GC
	// emptying the pools mid-run must not flake a bound.
	measure := func(serve func()) (allocs, allocBytes, bodyBytes float64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const runs = 100
		allocs, allocBytes = math.Inf(1), math.Inf(1)
		for range 2 {
			serve()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			written := w.written
			for range runs {
				serve()
			}
			runtime.ReadMemStats(&after)
			allocs = min(allocs, float64((after.Mallocs-before.Mallocs)/runs))
			allocBytes = min(allocBytes, float64((after.TotalAlloc-before.TotalAlloc)/runs))
			bodyBytes = float64((w.written - written) / runs)
		}
		return allocs, allocBytes, bodyBytes
	}
	before := srv.Metrics().Endpoints["reformulate"]
	missAllocs, missBytes, missBody := measure(serveMiss)
	if next > len(misses) {
		t.Fatalf("%d miss requests for %d runs", len(misses), next)
	}
	hitAllocs, _, _ := measure(serveHit)
	after := srv.Metrics().Endpoints["reformulate"]
	if m, h := after.Misses-before.Misses, after.Hits-before.Hits; m != 202 || h != 202 || after.Errors != 0 {
		t.Fatalf("measured %d misses and %d hits (want 202 each), %d errors", m, h, after.Errors)
	}
	if n := srv.mendCount.mended.Load(); n != 0 {
		t.Fatalf("%d of the measured queries were repaired: the budget is for clean ones", n)
	}
	t.Logf("miss %.0f allocations of %.0f bytes for a %.0f-byte body, hit %.0f allocations", missAllocs, missBytes, missBody, hitAllocs)
	if missAllocs > 64 {
		t.Errorf("a warmed 6-term k=50 miss allocates %.0f times, budget 64", missAllocs)
	}
	if missBytes >= missBody {
		t.Errorf("a first-sighting miss allocates %.0f bytes for a %.0f-byte body: a copy of the body is back on the miss path", missBytes, missBody)
	}
	if hitAllocs > 18 {
		t.Errorf("a hit allocates %.0f times, budget 18", hitAllocs)
	}
}
