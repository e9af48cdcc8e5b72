package server

import (
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kqr"
	"kqr/internal/mend"
	"kqr/synthetic"
)

// testMendServer builds a server over a mending-enabled engine, with
// the response cache on so mended cache keys are exercised.
func testMendServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	corpus, err := synthetic.Bibliography(synthetic.Config{Seed: 11, Topics: 4, Confs: 8, Authors: 60, Papers: 400})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kqr.Open(corpus.Dataset, kqr.Options{Mend: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng,
		WithLogger(log.New(io.Discard, "", 0)),
		WithCache(1<<20, time.Minute),
	)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

type mendReformulateResp struct {
	Query          []string `json:"query"`
	CorrectedQuery string   `json:"corrected_query"`
	Mend           *struct {
		Terms   []string `json:"terms"`
		Changed bool     `json:"changed"`
		Tokens  []struct {
			Original string `json:"original"`
			Action   string `json:"action"`
		} `json:"tokens"`
	} `json:"mend"`
	Suggestions []struct {
		Terms []string `json:"terms"`
	} `json:"suggestions"`
}

func TestReformulateMendsTypo(t *testing.T) {
	ts, _ := testMendServer(t)
	var resp mendReformulateResp
	code := getJSON(t, ts.URL+"/api/reformulate?q="+url.QueryEscape("probabilistc ranking")+"&k=3", &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.CorrectedQuery != "probabilistic ranking" {
		t.Fatalf("corrected_query = %q", resp.CorrectedQuery)
	}
	if resp.Mend == nil || !resp.Mend.Changed {
		t.Fatalf("mend block = %+v", resp.Mend)
	}
	if resp.Mend.Tokens[0].Action != "spell" || resp.Mend.Tokens[0].Original != "probabilistc" {
		t.Fatalf("token provenance = %+v", resp.Mend.Tokens)
	}
	if len(resp.Suggestions) == 0 {
		t.Fatal("no suggestions for mended query")
	}
}

func TestReformulateCleanQueryOmitsMendBlock(t *testing.T) {
	ts, _ := testMendServer(t)
	var resp mendReformulateResp
	code := getJSON(t, ts.URL+"/api/reformulate?q="+url.QueryEscape("probabilistic ranking")+"&k=3", &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.CorrectedQuery != "" || resp.Mend != nil {
		t.Fatalf("clean query grew mend fields: %q %+v", resp.CorrectedQuery, resp.Mend)
	}
	// mend=on always echoes the (unchanged) mended form.
	code = getJSON(t, ts.URL+"/api/reformulate?q="+url.QueryEscape("probabilistic ranking")+"&k=3&mend=on", &resp)
	if code != http.StatusOK {
		t.Fatalf("mend=on status %d", code)
	}
	if resp.CorrectedQuery != "probabilistic ranking" || resp.Mend == nil || resp.Mend.Changed {
		t.Fatalf("mend=on echo: %q %+v", resp.CorrectedQuery, resp.Mend)
	}
}

func TestReformulateMendOff(t *testing.T) {
	ts, _ := testMendServer(t)
	var errResp struct {
		Error string `json:"error"`
	}
	// With mending switched off a typo'd term is a plain 400, as
	// before mending existed.
	code := getJSON(t, ts.URL+"/api/reformulate?q=probabilistc&mend=off", &errResp)
	if code != http.StatusBadRequest {
		t.Fatalf("mend=off typo status %d (%+v)", code, errResp)
	}
	// Unknown mode values are rejected.
	code = getJSON(t, ts.URL+"/api/reformulate?q=ranking&mend=sometimes", &errResp)
	if code != http.StatusBadRequest || !strings.Contains(errResp.Error, "mend parameter") {
		t.Fatalf("bad mode: %d %+v", code, errResp)
	}
}

func TestReformulateMendOnRequiresEngine(t *testing.T) {
	ts := testServer(t) // engine without Options.Mend
	var errResp struct {
		Error string `json:"error"`
	}
	code := getJSON(t, ts.URL+"/api/reformulate?q=ranking&mend=on", &errResp)
	if code != http.StatusBadRequest || !strings.Contains(errResp.Error, "mend=on") {
		t.Fatalf("mend=on without engine support: %d %+v", code, errResp)
	}
	// auto degrades to the plain path on a non-mending engine.
	var resp mendReformulateResp
	code = getJSON(t, ts.URL+"/api/reformulate?q=ranking&mend=auto", &resp)
	if code != http.StatusOK || resp.Mend != nil {
		t.Fatalf("mend=auto without engine support: %d %+v", code, resp.Mend)
	}
}

func TestReformulateNoKnownTerms422(t *testing.T) {
	ts, _ := testMendServer(t)
	var errResp struct {
		Error string `json:"error"`
		Hints []struct {
			Token      string   `json:"token"`
			Candidates []string `json:"candidates"`
		} `json:"hints"`
	}
	code := getJSON(t, ts.URL+"/api/reformulate?q="+url.QueryEscape("zzqzzwxq vvqvvwxv"), &errResp)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d (%+v)", code, errResp)
	}
	if !strings.Contains(errResp.Error, "occurs in the data") {
		t.Fatalf("error = %q", errResp.Error)
	}
	if len(errResp.Hints) != 2 || errResp.Hints[0].Token != "zzqzzwxq" {
		t.Fatalf("hints = %+v", errResp.Hints)
	}
}

func TestMendMetricsBlock(t *testing.T) {
	ts, _ := testMendServer(t)
	getJSON(t, ts.URL+"/api/reformulate?q="+url.QueryEscape("probabilistic ranking"), new(mendReformulateResp))
	getJSON(t, ts.URL+"/api/reformulate?q=probabilistc", new(mendReformulateResp))
	getJSON(t, ts.URL+"/api/reformulate?q=zzqzzwxq", new(struct{}))
	var metrics struct {
		Mend *mendMetrics `json:"mend"`
	}
	code := getJSON(t, ts.URL+"/api/metrics", &metrics)
	if code != http.StatusOK || metrics.Mend == nil {
		t.Fatalf("metrics: %d %+v", code, metrics)
	}
	m := metrics.Mend
	if !m.Enabled || m.Engaged != 3 || m.PassThrough != 1 || m.Mended != 1 || m.Rejected != 1 {
		t.Fatalf("mend counters = %+v", m)
	}
	if m.IndexTerms == 0 || m.IndexKeys == 0 || m.IndexBytes == 0 {
		t.Fatalf("mend index stats empty: %+v", m)
	}
	// The non-mending server omits the block entirely.
	plain := testServer(t)
	var plainMetrics struct {
		Mend *mendMetrics `json:"mend"`
	}
	getJSON(t, plain.URL+"/api/metrics", &plainMetrics)
	if plainMetrics.Mend != nil {
		t.Fatalf("non-mending engine grew a mend block: %+v", plainMetrics.Mend)
	}
}

// TestMendCacheKeyDistinguishesModes proves a mended response and a
// raw one never share a cache entry: the same typo'd query under
// mend=auto (corrected) and mend=off (error, uncached) behave
// independently, and identical mended requests share one entry (earned
// on the second request, served from on the third).
func TestMendCacheKeyDistinguishesModes(t *testing.T) {
	ts, srv := testMendServer(t)
	q := "/api/reformulate?q=" + url.QueryEscape("probabilistc ranking")
	var a, b, c mendReformulateResp
	if code := getJSON(t, ts.URL+q, &a); code != http.StatusOK {
		t.Fatalf("first status %d", code)
	}
	if code := getJSON(t, ts.URL+q, &b); code != http.StatusOK {
		t.Fatalf("second status %d", code)
	}
	if code := getJSON(t, ts.URL+q, &c); code != http.StatusOK {
		t.Fatalf("third status %d", code)
	}
	if a.CorrectedQuery != b.CorrectedQuery || a.CorrectedQuery != c.CorrectedQuery {
		t.Fatalf("cached divergence: %q vs %q vs %q", a.CorrectedQuery, b.CorrectedQuery, c.CorrectedQuery)
	}
	snap := srv.Metrics()
	if em := snap.Endpoints["reformulate"]; em.Hits != 1 || em.Misses != 2 || snap.CacheEntries != 1 {
		t.Fatalf("identical mended requests did not share one cache entry: %+v, %d entries", em, snap.CacheEntries)
	}
	// mend=off on the same query must not be served the mended body.
	var errResp struct {
		Error string `json:"error"`
	}
	if code := getJSON(t, ts.URL+q+"&mend=off", &errResp); code != http.StatusBadRequest {
		t.Fatalf("mend=off served from mended cache? status %d", code)
	}
}

// countResolves swaps the serving generation's mender for one over the
// same index whose Resolve hook counts its calls, so a test can see how
// often a request mends.
func countResolves(t *testing.T, srv *Server) *atomic.Int64 {
	t.Helper()
	mgr, _ := srv.eng.Replication()
	g := mgr.Current()
	var calls atomic.Int64
	g.Mender = mend.New(g.Mender.Index(), mend.Options{Resolve: func(tok string) bool {
		calls.Add(1)
		return len(g.TG.FindTerm(tok)) > 0
	}})
	return &calls
}

// TestColdReformulateMendsOnce: a cold /api/reformulate of a typo'd
// query runs the mender exactly once — as many Resolve calls as one
// direct Mend of the same terms on an identical cold engine, where the
// key-then-handler path of earlier revisions mended twice — counts one
// engagement, and answers the body it always has.
func TestColdReformulateMendsOnce(t *testing.T) {
	_, direct := testMendServer(t)
	calls := countResolves(t, direct)
	if _, err := direct.eng.Mend([]string{"probabilistc", "rankng"}); err != nil {
		t.Fatal(err)
	}
	perMend := calls.Load()
	if perMend == 0 {
		t.Fatal("the counting hook never ran")
	}

	ts, srv := testMendServer(t)
	calls = countResolves(t, srv)
	resp, err := http.Get(ts.URL + "/api/reformulate?q=" + url.QueryEscape("probabilistc rankng") + "&k=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != perMend {
		t.Errorf("cold request made %d Resolve calls, one Mend makes %d", got, perMend)
	}
	if got := srv.mendCount.engaged.Load(); got != 1 {
		t.Errorf("mend.engaged = %d, want 1", got)
	}
	// The body served by the revision before requests were parsed once
	// (ba9eb09), byte for byte.
	const want = `{"query":["probabilistc","rankng"],"corrected_query":"probabilistic ranking","mend":{"terms":["probabilistic","ranking"],"tokens":[{"original":"probabilistc","terms":["probabilistic"],"action":"spell","confidence":0.4375933077118841,"candidates":[{"term":"probabilistic","dist":1,"freq":24,"score":0.4375933077118841}]},{"original":"rankng","terms":["ranking"],"action":"spell","confidence":0.43113613078409585,"candidates":[{"term":"ranking","dist":1,"freq":21,"score":0.43113613078409585}]}],"changed":true,"confidence":0.43113613078409585},"suggestions":[{"terms":["scalable","topk"],"query":"scalable topk","score":0.0005090632708507741},{"terms":["riazeon","rusadiam"],"query":"riazeon rusadiam","score":0.00046937237523478337}]}` + "\n"
	if string(body) != want {
		t.Errorf("body changed:\n got %s\nwant %s", body, want)
	}
}

// TestCacheHitDoesNotMend: mending runs on a miss only. Of three
// identical typo'd requests the first two miss and mend (a response is
// admitted on its second sighting); the third is a hit and makes no
// Resolve call, yet answers the same mended body.
func TestCacheHitDoesNotMend(t *testing.T) {
	ts, srv := testMendServer(t)
	calls := countResolves(t, srv)
	u := ts.URL + "/api/reformulate?q=" + url.QueryEscape("probabilistc rankng") + "&k=2"
	var resps [3]mendReformulateResp
	var before int64
	for i := range resps {
		before = calls.Load()
		if code := getJSON(t, u, &resps[i]); code != http.StatusOK {
			t.Fatalf("request %d: status %d", i+1, code)
		}
	}
	if got := calls.Load() - before; got != 0 {
		t.Errorf("the cache hit made %d Resolve calls, want 0", got)
	}
	if em := srv.Metrics().Endpoints["reformulate"]; em.Misses != 2 || em.Hits != 1 {
		t.Fatalf("misses %d, hits %d: want 2 and 1", em.Misses, em.Hits)
	}
	if got := srv.mendCount.engaged.Load(); got != 2 {
		t.Errorf("mend.engaged = %d, want 2 (one per miss)", got)
	}
	if resps[2].CorrectedQuery != "probabilistic ranking" || resps[2].Mend == nil {
		t.Fatalf("hit served %q %+v, not the mended body", resps[2].CorrectedQuery, resps[2].Mend)
	}
}
