package server

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"testing"
	"time"

	"kqr"
	"kqr/internal/cdc"
	"kqr/internal/live"
	"kqr/internal/relstore"
	"kqr/internal/repl"
	"kqr/synthetic"
)

// endlessSource yields one fresh papers row per batch, forever.
type endlessSource struct{}

func (endlessSource) Batch(seq uint64) ([]live.Delta, bool, error) {
	return []live.Delta{{Op: live.OpInsert, Table: "papers", Values: []relstore.Value{
		relstore.Int(int64(890_000 + seq)), relstore.String(fmt.Sprintf("long stream %d", seq)), relstore.Int(1)}}}, true, nil
}

// TestStreamsOutliveServerTimeouts: the replication log stream and the
// CDC stream are long-lived, so the server's read and write timeouts
// must bound one stuck read or write, not the stream. Under 200 ms
// timeouts a follower and a rate-limited feeder each keep their first
// connection for 2 s, and the follower still replicates over it.
func TestStreamsOutliveServerTimeouts(t *testing.T) {
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
	srv, err := New(eng, WithLogger(log.New(io.Discard, "", 0)),
		WithReplicationLeader(leader), WithCDC(cdc.NewReceiver(mgr, cdc.ReceiverOptions{})))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ReadTimeout = 200 * time.Millisecond
	ts.Config.WriteTimeout = 200 * time.Millisecond
	ts.Start()
	t.Cleanup(ts.Close)

	_, feng, f := followerServer(t, ts.URL)
	feeder := cdc.NewFeeder(ts.URL, cdc.FeederOptions{Source: "timeouts", BatchesPerSec: 4})
	ctx, cancel := context.WithCancel(context.Background())
	followed, fed := make(chan error, 1), make(chan error, 1)
	go func() { followed <- f.Run(ctx) }()
	go func() { fed <- feeder.Run(ctx, endlessSource{}) }()

	time.Sleep(time.Second)
	if _, err := eng.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Second)
	fs, ds := f.Status(), feeder.Status()
	cancel()
	<-followed
	<-fed
	if fs.Connects != 1 || ds.Connects != 1 {
		t.Fatalf("after 2 s under 200 ms server timeouts: follower %d connects, feeder %d, want 1 each", fs.Connects, ds.Connects)
	}
	if fs.Epoch != eng.Epoch() || feng.Epoch() != eng.Epoch() {
		t.Fatalf("follower at epoch %d (engine %d), leader at %d", fs.Epoch, feng.Epoch(), eng.Epoch())
	}
	if ds.LastAcked < 4 {
		t.Fatalf("feeder acked %d batches in 2 s at 4/s", ds.LastAcked)
	}
}
