package server

import (
	"bytes"
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kqr"
	"kqr/internal/cdc"
	"kqr/internal/live"
	"kqr/internal/relstore"
	"kqr/internal/repl"
	"kqr/synthetic"
)

// sliceSource replays a fixed batch list, implementing cdc.Source.
type sliceSource [][]live.Delta

func (s sliceSource) Batch(seq uint64) ([]live.Delta, bool, error) {
	if seq == 0 || seq > uint64(len(s)) {
		return nil, false, nil
	}
	return s[seq-1], true, nil
}

func TestAdminIngestRejectsUnknownField(t *testing.T) {
	ts, _ := liveServer(t)
	// The classic typo: "delats" must be a 400, not a silently staged
	// empty batch.
	body := `{"delats": [{"op": "insert", "table": "papers", "values": [1, "x", 1]}]}`
	resp, err := http.Post(ts.URL+"/api/admin/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	msg, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(msg, []byte("unknown field")) {
		t.Fatalf("error body %q does not name the unknown field", msg)
	}
}

func TestAdminIngestReportsBadDeltaIndex(t *testing.T) {
	ts, eng := liveServer(t)
	body := `{"deltas": [
		{"op": "insert", "table": "papers", "values": [987654, "valid row", 1]},
		{"op": "insert", "table": "no_such_table", "values": [1]}
	]}`
	resp, err := http.Post(ts.URL+"/api/admin/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	msg, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(msg, []byte("delta 1")) {
		t.Fatalf("error body %q does not index the bad delta", msg)
	}
	if eng.PendingDeltas() != 0 {
		t.Fatalf("%d deltas staged from a rejected batch", eng.PendingDeltas())
	}
}

// cdcServer builds a live engine with a CDC receiver mounted.
func cdcServer(t *testing.T) (*httptest.Server, *kqr.Engine, *cdc.Receiver) {
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
	mgr, _ := eng.Replication()
	recv := cdc.NewReceiver(mgr, cdc.ReceiverOptions{})
	srv, err := New(eng,
		WithLogger(log.New(io.Discard, "", 0)),
		WithCDC(recv))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, eng, recv
}

func TestCDCStreamThroughServer(t *testing.T) {
	ts, eng, _ := cdcServer(t)

	const n = 4
	src := sliceSource{
		{{Op: live.OpInsert, Table: "papers", Values: []relstore.Value{
			relstore.Int(880_001), relstore.String("streamed one"), relstore.Int(1)}}},
		{{Op: live.OpInsert, Table: "papers", Values: []relstore.Value{
			relstore.Int(880_002), relstore.String("streamed two"), relstore.Int(2)}}},
		{{Op: live.OpInsert, Table: "papers", Values: []relstore.Value{
			relstore.Int(880_003), relstore.String("streamed three"), relstore.Int(3)}}},
		{{Op: live.OpDelete, Table: "papers", Key: relstore.Int(880_002)}},
	}
	f := cdc.NewFeeder(ts.URL, cdc.FeederOptions{Source: "srv-test"})
	if err := f.Run(context.Background(), src); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := eng.PendingDeltas(); got != n {
		t.Fatalf("pending = %d, want %d", got, n)
	}
	if _, err := eng.Promote(context.Background()); err != nil {
		t.Fatalf("Promote: %v", err)
	}

	// The metrics payload gains a cdc block with the stream stats.
	var metrics struct {
		CDC *struct {
			Batches uint64 `json:"batches"`
			Deltas  uint64 `json:"deltas"`
			Sources []struct {
				Source  string `json:"source"`
				LastSeq uint64 `json:"last_seq"`
			} `json:"sources"`
		} `json:"cdc"`
	}
	if code := getJSON(t, ts.URL+"/api/metrics", &metrics); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if metrics.CDC == nil || metrics.CDC.Batches != n || metrics.CDC.Deltas != n {
		t.Fatalf("metrics cdc block = %+v, want %d batches", metrics.CDC, n)
	}
	if len(metrics.CDC.Sources) != 1 || metrics.CDC.Sources[0].LastSeq != n {
		t.Fatalf("metrics cdc sources = %+v", metrics.CDC.Sources)
	}
}

func TestWithCDCRequiresLiveEngine(t *testing.T) {
	corpus, err := synthetic.Bibliography(synthetic.Config{Seed: 7, Topics: 3, Confs: 6, Authors: 40, Papers: 200})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kqr.Open(corpus.Dataset, kqr.Options{}) // Live off
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	mgr, _ := eng.Replication()
	if _, err := New(eng, WithCDC(cdc.NewReceiver(mgr, cdc.ReceiverOptions{}))); err == nil {
		t.Fatal("New accepted CDC on a non-live engine")
	}
}

func TestWithCDCRejectedOnFollower(t *testing.T) {
	corpus, err := synthetic.Bibliography(synthetic.Config{Seed: 7, Topics: 3, Confs: 6, Authors: 40, Papers: 200})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kqr.Open(corpus.Dataset, kqr.Options{Live: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	mgr, _ := eng.Replication()
	f := repl.NewFollower("http://127.0.0.1:0", repl.FollowerOptions{})
	_, err = New(eng,
		WithReplicationFollower(f),
		WithCDC(cdc.NewReceiver(mgr, cdc.ReceiverOptions{})))
	if err == nil {
		t.Fatal("New accepted CDC on a follower")
	}
}
