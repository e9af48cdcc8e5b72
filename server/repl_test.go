package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kqr"
	"kqr/internal/repl"
	"kqr/synthetic"
)

// leaderServer builds a live engine with a replication leader mounted
// on its server.
func leaderServer(t *testing.T) (*httptest.Server, *kqr.Engine, *repl.Leader) {
	t.Helper()
	corpus, err := synthetic.Bibliography(synthetic.Config{Seed: 11, Topics: 3, Confs: 6, Authors: 20, Papers: 60})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kqr.Open(corpus.Dataset, kqr.Options{Live: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	mgr, _ := eng.Replication()
	leader, err := repl.NewLeader(mgr, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leader.Close() })
	srv, err := New(eng,
		WithLogger(log.New(io.Discard, "", 0)),
		WithReplicationLeader(leader))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, eng, leader
}

// followerServer bootstraps a follower from the leader server and
// builds a follower-mode server around it. It returns the follower so
// tests can drive Run.
func followerServer(t *testing.T, leaderURL string) (*httptest.Server, *kqr.Engine, *repl.Follower) {
	t.Helper()
	f := repl.NewFollower(leaderURL, repl.FollowerOptions{})
	snap, err := f.Bootstrap(context.Background())
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	eng, err := kqr.Open(kqr.WrapDatabase(snap.DB), kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	mgr, _ := eng.Replication()
	if err := f.Attach(mgr, snap); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	srv, err := New(eng,
		WithLogger(log.New(io.Discard, "", 0)),
		WithReplicationFollower(f))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, eng, f
}

func TestAdminIngestBodyTooLarge(t *testing.T) {
	ts, _ := liveServer(t)
	body := `{"deltas":[{"op":"insert","table":"papers","values":["` +
		strings.Repeat("x", maxIngestBody) + `"]}]}`
	resp, err := http.Post(ts.URL+"/api/admin/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized ingest body: status %d, want 413", resp.StatusCode)
	}
}

func TestAdminPromoteReportsTimings(t *testing.T) {
	ts, _ := liveServer(t)
	ingest := map[string]any{"deltas": []map[string]any{{
		"op": "insert", "table": "conferences", "values": []any{9999, "NEWCONF"},
	}}}
	if code := postJSON(t, ts.URL+"/api/admin/ingest", ingest, nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	var resp struct {
		Epoch   uint64 `json:"epoch"`
		Mode    string `json:"mode"`
		TotalNS int64  `json:"total_ns"`
		Timings struct {
			ApplyDeltas string `json:"apply_deltas"`
			BuildGraph  string `json:"build_graph"`
			Precompute  string `json:"precompute"`
			Total       string `json:"total"`
		} `json:"timings"`
	}
	if code := postJSON(t, ts.URL+"/api/admin/promote", nil, &resp); code != http.StatusOK {
		t.Fatalf("promote status %d", code)
	}
	if resp.Epoch != 2 {
		t.Errorf("promoted epoch %d, want 2", resp.Epoch)
	}
	for name, v := range map[string]string{
		"apply_deltas": resp.Timings.ApplyDeltas,
		"build_graph":  resp.Timings.BuildGraph,
		"total":        resp.Timings.Total,
	} {
		if v == "" {
			t.Errorf("timings.%s is empty", name)
		}
		if _, err := time.ParseDuration(v); err != nil {
			t.Errorf("timings.%s = %q is not a duration: %v", name, v, err)
		}
	}
	if resp.TotalNS <= 0 {
		t.Errorf("total_ns = %d, want > 0", resp.TotalNS)
	}
}

func TestLeaderServerServesReplProtocol(t *testing.T) {
	ts, _, leader := leaderServer(t)
	resp, err := http.Get(ts.URL + "/repl/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/repl/status via server mux: %d", resp.StatusCode)
	}
	var st repl.LeaderStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Epoch != leader.Status().Epoch {
		t.Errorf("status epoch %d, leader %d", st.Epoch, leader.Status().Epoch)
	}

	var metrics struct {
		Replication *struct {
			Role   string             `json:"role"`
			Leader *repl.LeaderStatus `json:"leader"`
		} `json:"replication"`
	}
	if code := getJSON(t, ts.URL+"/api/metrics", &metrics); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if metrics.Replication == nil || metrics.Replication.Role != "leader" || metrics.Replication.Leader == nil {
		t.Errorf("metrics replication block: %+v", metrics.Replication)
	}
}

func TestFollowerServerEndToEnd(t *testing.T) {
	lts, leng, _ := leaderServer(t)
	fts, feng, f := followerServer(t, lts.URL)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	defer func() { cancel(); <-done }()

	// Follower rejects admin writes with 409.
	ingest := map[string]any{"deltas": []map[string]any{{
		"op": "insert", "table": "conferences", "values": []any{9999, "NEWCONF"},
	}}}
	if code := postJSON(t, fts.URL+"/api/admin/ingest", ingest, nil); code != http.StatusConflict {
		t.Errorf("follower ingest status %d, want 409", code)
	}
	if code := postJSON(t, fts.URL+"/api/admin/promote", nil, nil); code != http.StatusConflict {
		t.Errorf("follower promote status %d, want 409", code)
	}

	// Writes to the leader replicate to the follower.
	if code := postJSON(t, lts.URL+"/api/admin/ingest", ingest, nil); code != http.StatusOK {
		t.Fatalf("leader ingest status %d", code)
	}
	if code := postJSON(t, lts.URL+"/api/admin/promote", nil, nil); code != http.StatusOK {
		t.Fatalf("leader promote status %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && feng.Epoch() < leng.Epoch() {
		time.Sleep(5 * time.Millisecond)
	}
	if feng.Epoch() != leng.Epoch() {
		t.Fatalf("follower epoch %d, leader %d", feng.Epoch(), leng.Epoch())
	}

	// Follower metrics report the replication block with zero lag.
	var metrics struct {
		Replication *struct {
			Role     string               `json:"role"`
			Follower *repl.FollowerStatus `json:"follower"`
		} `json:"replication"`
	}
	if code := getJSON(t, fts.URL+"/api/metrics", &metrics); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if metrics.Replication == nil || metrics.Replication.Role != "follower" {
		t.Fatalf("metrics replication block: %+v", metrics.Replication)
	}
	if st := metrics.Replication.Follower; st == nil || st.BytesBehind != 0 || st.SnapshotFetches != 1 {
		t.Errorf("follower metrics: %+v", metrics.Replication.Follower)
	}

	// Caught up ⇒ ready; the replicated corpus answers queries.
	var ready struct {
		Ready bool `json:"ready"`
	}
	if code := getJSON(t, fts.URL+"/readyz", &ready); code != http.StatusOK || !ready.Ready {
		t.Errorf("caught-up follower readyz: code %d ready %v", code, ready.Ready)
	}
	resp, err := http.Get(fts.URL + "/api/search?q=NEWCONF")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("follower search status %d: %s", resp.StatusCode, b)
	}
	if !bytes.Contains(bytes.ToLower(b), []byte("newconf")) {
		t.Errorf("replicated term not searchable on follower: %s", b)
	}
}

func TestFollowerReadyzGatedBeforeBootstrap(t *testing.T) {
	// A follower that has never reached its leader (no bootstrap, no
	// stream) must not be ready, whatever its local engine looks like.
	corpus, err := synthetic.Bibliography(synthetic.Config{Seed: 12, Topics: 2, Confs: 4, Authors: 10, Papers: 30})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kqr.Open(corpus.Dataset, kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	f := repl.NewFollower("http://127.0.0.1:0", repl.FollowerOptions{})
	srv, err := New(eng,
		WithLogger(log.New(io.Discard, "", 0)),
		WithReplicationFollower(f))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var ready struct {
		Ready   bool     `json:"ready"`
		Reasons []string `json:"reasons"`
	}
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != http.StatusServiceUnavailable {
		t.Fatalf("unreplicated follower readyz status %d, want 503", code)
	}
	if ready.Ready {
		t.Error("unreplicated follower reports ready")
	}
	found := false
	for _, r := range ready.Reasons {
		if strings.Contains(r, "replication lag") {
			found = true
		}
	}
	if !found {
		t.Errorf("readyz reasons %v lack a replication entry", ready.Reasons)
	}
}
