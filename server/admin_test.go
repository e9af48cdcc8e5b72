package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"kqr"
	"kqr/synthetic"
)

// liveServer builds a server over a live-mode engine with caching on,
// returning the engine too so tests can cross-check state.
func liveServer(t *testing.T, opts ...Option) (*httptest.Server, *kqr.Engine) {
	t.Helper()
	corpus, err := synthetic.Bibliography(synthetic.Config{Seed: 7, Topics: 3, Confs: 6, Authors: 40, Papers: 200})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kqr.Open(corpus.Dataset, kqr.Options{Live: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	opts = append([]Option{
		WithLogger(log.New(io.Discard, "", 0)),
		WithCache(1<<20, time.Minute),
	}, opts...)
	srv, err := New(eng, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, eng
}

// postJSON posts a JSON body and decodes the response.
func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	ts, _ := liveServer(t)
	var resp map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &resp); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if resp["status"] != "ok" {
		t.Errorf("healthz body %v", resp)
	}
}

func TestReadyzReady(t *testing.T) {
	ts, _ := liveServer(t)
	var resp struct {
		Ready bool   `json:"ready"`
		Epoch uint64 `json:"epoch"`
	}
	if code := getJSON(t, ts.URL+"/readyz", &resp); code != http.StatusOK {
		t.Fatalf("readyz status %d", code)
	}
	if !resp.Ready || resp.Epoch != 1 {
		t.Errorf("readyz = %+v", resp)
	}
}

func TestReadyzGatedByProbe(t *testing.T) {
	var warm atomic.Bool
	ts, _ := liveServer(t, WithReadiness(warm.Load))
	var resp struct {
		Ready   bool     `json:"ready"`
		Reasons []string `json:"reasons"`
	}
	if code := getJSON(t, ts.URL+"/readyz", &resp); code != http.StatusServiceUnavailable {
		t.Fatalf("not-warm readyz status %d, want 503", code)
	}
	if resp.Ready || len(resp.Reasons) == 0 {
		t.Errorf("not-warm readyz = %+v", resp)
	}
	warm.Store(true)
	if code := getJSON(t, ts.URL+"/readyz", &resp); code != http.StatusOK {
		t.Fatalf("warm readyz status %d", code)
	}
}

func TestAdminGeneration(t *testing.T) {
	ts, _ := liveServer(t)
	var resp struct {
		Epoch         uint64 `json:"epoch"`
		Mode          string `json:"mode"`
		PendingDeltas int    `json:"pending_deltas"`
	}
	if code := getJSON(t, ts.URL+"/api/admin/generation", &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Epoch != 1 || resp.Mode != "initial" || resp.PendingDeltas != 0 {
		t.Errorf("generation = %+v", resp)
	}
}

func TestAdminIngestAndPromote(t *testing.T) {
	ts, eng := liveServer(t)
	ingest := map[string]any{"deltas": []map[string]any{{
		"op":     "insert",
		"table":  "papers",
		"values": []any{999999, "zeppelin aerodynamics survey", 1},
	}}}
	var ir struct {
		Staged  int    `json:"staged"`
		Pending int    `json:"pending"`
		Epoch   uint64 `json:"epoch"`
	}
	if code := postJSON(t, ts.URL+"/api/admin/ingest", ingest, &ir); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	if ir.Staged != 1 || ir.Pending != 1 || ir.Epoch != 1 {
		t.Errorf("ingest = %+v", ir)
	}

	var pr struct {
		Epoch   uint64 `json:"epoch"`
		Mode    string `json:"mode"`
		Inserts int    `json:"inserts"`
	}
	if code := postJSON(t, ts.URL+"/api/admin/promote", nil, &pr); code != http.StatusOK {
		t.Fatalf("promote status %d", code)
	}
	if pr.Epoch != 2 || pr.Inserts != 1 {
		t.Errorf("promote = %+v", pr)
	}
	if pr.Mode != "full" {
		t.Errorf("promote mode %q", pr.Mode)
	}
	if eng.Epoch() != 2 {
		t.Errorf("engine epoch = %d", eng.Epoch())
	}

	// The new term must now be queryable through the cached read path.
	var sr struct {
		Terms []kqr.RankedTerm `json:"terms"`
	}
	if code := getJSON(t, ts.URL+"/api/similar?term=zeppelin", &sr); code != http.StatusOK {
		t.Fatalf("similar status %d after promote", code)
	}
}

func TestEpochTagInvalidatesCache(t *testing.T) {
	ts, _ := liveServer(t)
	// Prime the cache: /api/stats is uncached but /api/search is cached,
	// from the second request on.
	var before struct {
		Total int `json:"total"`
	}
	if code := getJSON(t, ts.URL+"/api/search?q=paper", &before); code != http.StatusOK {
		t.Skip("no searchable term in corpus for this seed")
	}
	getJSON(t, ts.URL+"/api/search?q=paper", &before)
	// Insert a paper whose title contains a brand-new word, promote, and
	// query again: a stale cache hit would miss the new result.
	ingest := map[string]any{"deltas": []map[string]any{{
		"op": "insert", "table": "papers",
		"values": []any{999998, "xylophone paper", 1},
	}}}
	if code := postJSON(t, ts.URL+"/api/admin/ingest", ingest, nil); code != http.StatusOK {
		t.Fatalf("ingest failed")
	}
	if code := postJSON(t, ts.URL+"/api/admin/promote", nil, nil); code != http.StatusOK {
		t.Fatalf("promote failed")
	}
	var after struct {
		Total int `json:"total"`
	}
	if code := getJSON(t, ts.URL+"/api/search?q=paper", &after); code != http.StatusOK {
		t.Fatalf("post-promote search failed")
	}
	if after.Total != before.Total+1 {
		t.Errorf("post-promote total = %d, want %d (stale cache entry served?)",
			after.Total, before.Total+1)
	}
}

func TestAdminIngestRejectsBadBodies(t *testing.T) {
	ts, _ := liveServer(t)
	for name, body := range map[string]any{
		"empty batch": map[string]any{"deltas": []any{}},
		"bad op":      map[string]any{"deltas": []map[string]any{{"op": "upsert", "table": "papers"}}},
		"float value": map[string]any{"deltas": []map[string]any{{
			"op": "insert", "table": "papers", "values": []any{1.5, "t", 1}}}},
		"unknown table": map[string]any{"deltas": []map[string]any{{
			"op": "insert", "table": "nope", "values": []any{1}}}},
		"delete without key": map[string]any{"deltas": []map[string]any{{
			"op": "delete", "table": "papers"}}},
	} {
		if code := postJSON(t, ts.URL+"/api/admin/ingest", body, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
}

func TestAdminRequiresLiveMode(t *testing.T) {
	corpus, err := synthetic.Bibliography(synthetic.Config{Seed: 7, Topics: 3, Confs: 6, Authors: 40, Papers: 100})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kqr.Open(corpus.Dataset, kqr.Options{}) // Live off
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, WithLogger(log.New(io.Discard, "", 0)))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ingest := map[string]any{"deltas": []map[string]any{{
		"op": "insert", "table": "papers", "values": []any{1, "t", 1}}}}
	if code := postJSON(t, ts.URL+"/api/admin/ingest", ingest, nil); code != http.StatusConflict {
		t.Errorf("ingest without live mode: status %d, want 409", code)
	}
	if code := postJSON(t, ts.URL+"/api/admin/promote", nil, nil); code != http.StatusConflict {
		t.Errorf("promote without live mode: status %d, want 409", code)
	}
	// Probes and provenance still work.
	var g struct {
		Epoch uint64 `json:"epoch"`
	}
	if code := getJSON(t, ts.URL+"/api/admin/generation", &g); code != http.StatusOK || g.Epoch != 1 {
		t.Errorf("generation without live mode: status %d epoch %d", code, g.Epoch)
	}
}
