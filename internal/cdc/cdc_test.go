package cdc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"kqr/internal/live"
	"kqr/internal/relstore"
	"kqr/internal/testcorpus"
)

func mustBibDB(t testing.TB) *relstore.Database {
	t.Helper()
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mustManager(t testing.TB) *live.Manager {
	t.Helper()
	m, err := live.NewManager(mustBibDB(t), live.Config{}, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func newStreamServer(t testing.TB, recv *Receiver) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cdc/stream", recv.ServeStream)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// funcSource adapts a function to the Source interface.
type funcSource func(seq uint64) ([]live.Delta, bool, error)

func (f funcSource) Batch(seq uint64) ([]live.Delta, bool, error) { return f(seq) }

// paperSource yields n single-insert batches of fresh papers rows.
func paperSource(n uint64, basePID int64) funcSource {
	return func(seq uint64) ([]live.Delta, bool, error) {
		if seq > n {
			return nil, false, nil
		}
		pid := basePID + int64(seq)
		return []live.Delta{{
			Op:    live.OpInsert,
			Table: "papers",
			Values: []relstore.Value{
				relstore.Int(pid),
				relstore.String(fmt.Sprintf("streamed paper %d", pid)),
				relstore.Int(1),
			},
		}}, true, nil
	}
}

func paperCount(t testing.TB, mgr *live.Manager) int {
	t.Helper()
	tab, err := mgr.Current().DB.Table("papers")
	if err != nil {
		t.Fatal(err)
	}
	return tab.Len()
}

func waitUntil(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestFeedBasic(t *testing.T) {
	mgr := mustManager(t)
	base := paperCount(t, mgr)
	recv := NewReceiver(mgr, ReceiverOptions{})
	srv := newStreamServer(t, recv)

	const n = 8
	f := NewFeeder(srv.URL, FeederOptions{Source: "basic"})
	if err := f.Run(context.Background(), paperSource(n, 600_000)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := f.Status()
	if !st.Done || st.LastAcked != n || st.Connects != 1 {
		t.Fatalf("feeder status %+v, want Done, LastAcked=%d, Connects=1", st, n)
	}
	rs := recv.Status()
	if rs.Batches != n || rs.Deltas != n || rs.Duplicates != 0 {
		t.Fatalf("receiver status %+v, want %d batches, 0 dups", rs, n)
	}
	if _, err := mgr.Promote(context.Background()); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if got := paperCount(t, mgr); got != base+n {
		t.Fatalf("papers = %d after promote, want %d", got, base+n)
	}
	// The stream must have reached the index, not just the table: a
	// word only the streamed titles carry resolves and has a row.
	g := mgr.Current()
	nodes := g.TG.FindTerm("streamed")
	if len(nodes) == 0 {
		t.Fatal(`"streamed" not in the promoted generation's vocabulary`)
	}
	if _, err := g.Sim.SimilarNodes(nodes[0], 5); err != nil {
		t.Fatalf(`"streamed" not answerable after promote: %v`, err)
	}
}

func TestFeedResumesOnFreshFeeder(t *testing.T) {
	// A second feeder claiming the same source resumes past everything
	// the first shipped: the welcome carries the high-water mark.
	mgr := mustManager(t)
	recv := NewReceiver(mgr, ReceiverOptions{})
	srv := newStreamServer(t, recv)

	const n = 5
	src := paperSource(n, 610_000)
	if err := NewFeeder(srv.URL, FeederOptions{Source: "re"}).Run(context.Background(), src); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	f2 := NewFeeder(srv.URL, FeederOptions{Source: "re"})
	if err := f2.Run(context.Background(), src); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if st := f2.Status(); st.ResumedFrom != n {
		t.Fatalf("second feeder resumed from %d, want %d", st.ResumedFrom, n)
	}
	if rs := recv.Status(); rs.Batches != n || rs.Duplicates != 0 {
		t.Fatalf("receiver status %+v, want %d batches staged once", rs, n)
	}
}

// manualConn is a hand-driven stream for protocol-level tests.
type manualConn struct {
	pw     *io.PipeWriter
	br     *bufio.Reader
	resp   *http.Response
	cancel context.CancelFunc
}

func dialStream(t *testing.T, base, source, fp string) *manualConn {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/cdc/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		writeStreamHeader(pw)
		writeFrame(pw, frame{kind: kindHello, source: source, fingerprint: fp})
	}()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() { cancel(); resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	if err := readStreamHeader(br); err != nil {
		t.Fatal(err)
	}
	return &manualConn{pw: pw, br: br, resp: resp, cancel: cancel}
}

func (c *manualConn) send(t *testing.T, f frame) {
	t.Helper()
	if err := writeFrame(c.pw, f); err != nil {
		t.Fatalf("send: %v", err)
	}
}

func (c *manualConn) recv(t *testing.T) frame {
	t.Helper()
	f, err := readFrame(c.br)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	return f
}

func TestDuplicateBatchAckedButDropped(t *testing.T) {
	mgr := mustManager(t)
	base := paperCount(t, mgr)
	recv := NewReceiver(mgr, ReceiverOptions{})
	srv := newStreamServer(t, recv)

	c := dialStream(t, srv.URL, "dup", "")
	if w := c.recv(t); w.kind != kindWelcome || w.seq != 0 {
		t.Fatalf("welcome %+v, want kindWelcome seq 0", w)
	}
	batch := frame{kind: kindBatch, seq: 1, deltas: []live.Delta{{
		Op: live.OpInsert, Table: "papers",
		Values: []relstore.Value{relstore.Int(620_001), relstore.String("dup probe"), relstore.Int(1)},
	}}}
	c.send(t, batch)
	if a := c.recv(t); a.kind != kindAck || a.seq != 1 {
		t.Fatalf("first ack %+v, want seq 1", a)
	}
	// The retransmit a reconnecting feeder would issue: acked, dropped.
	c.send(t, batch)
	if a := c.recv(t); a.kind != kindAck || a.seq != 1 {
		t.Fatalf("duplicate ack %+v, want seq 1", a)
	}
	rs := recv.Status()
	if rs.Batches != 1 || rs.Duplicates != 1 || rs.Deltas != 1 {
		t.Fatalf("receiver status %+v, want 1 batch, 1 duplicate", rs)
	}
	if _, err := mgr.Promote(context.Background()); err != nil {
		t.Fatalf("Promote: %v", err) // a double-staged insert would fail here
	}
	if got := paperCount(t, mgr); got != base+1 {
		t.Fatalf("papers = %d, want %d (staged exactly once)", got, base+1)
	}
}

func TestSequenceGapIsTerminal(t *testing.T) {
	mgr := mustManager(t)
	recv := NewReceiver(mgr, ReceiverOptions{})
	srv := newStreamServer(t, recv)

	c := dialStream(t, srv.URL, "gap", "")
	c.recv(t) // welcome
	c.send(t, frame{kind: kindBatch, seq: 5, deltas: []live.Delta{{
		Op: live.OpInsert, Table: "papers",
		Values: []relstore.Value{relstore.Int(630_001), relstore.String("gap probe"), relstore.Int(1)},
	}}})
	if e := c.recv(t); e.kind != kindError {
		t.Fatalf("gap answer %+v, want kindError", e)
	}
	if rs := recv.Status(); rs.Batches != 0 || rs.Deltas != 0 {
		t.Fatalf("gapped batch staged: %+v", rs)
	}
}

func TestFingerprintMismatchRejected(t *testing.T) {
	mgr := mustManager(t)
	recv := NewReceiver(mgr, ReceiverOptions{})
	srv := newStreamServer(t, recv)

	f := NewFeeder(srv.URL, FeederOptions{Source: "fp", Fingerprint: "some other corpus"})
	err := f.Run(context.Background(), paperSource(1, 640_000))
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("Run = %v, want ErrRejected", err)
	}
	// The matching fingerprint is accepted.
	f2 := NewFeeder(srv.URL, FeederOptions{Source: "fp", Fingerprint: SchemaFingerprint(mgr.Current().DB)})
	if err := f2.Run(context.Background(), paperSource(1, 640_000)); err != nil {
		t.Fatalf("matching fingerprint rejected: %v", err)
	}
}

func TestBackpressureThrottlesUntilPromotion(t *testing.T) {
	mgr := mustManager(t)
	base := paperCount(t, mgr)
	recv := NewReceiver(mgr, ReceiverOptions{MaxPending: 2, PollInterval: time.Millisecond})
	srv := newStreamServer(t, recv)

	// Drain the backlog with periodic promotions, as the staleness
	// auto-promoter would in production.
	pctx, pcancel := context.WithCancel(context.Background())
	defer pcancel()
	var pwg sync.WaitGroup
	pwg.Add(1)
	go func() {
		defer pwg.Done()
		for {
			select {
			case <-pctx.Done():
				return
			case <-time.After(5 * time.Millisecond):
				mgr.Promote(context.Background())
			}
		}
	}()

	const n = 10
	f := NewFeeder(srv.URL, FeederOptions{Source: "bp"})
	if err := f.Run(context.Background(), paperSource(n, 650_000)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	pcancel()
	pwg.Wait()
	if _, err := mgr.Promote(context.Background()); err != nil {
		t.Fatalf("final Promote: %v", err)
	}
	rs := recv.Status()
	if rs.ThrottleEvents == 0 || rs.ThrottleWait <= 0 {
		t.Fatalf("no throttling despite MaxPending=2 and %d batches: %+v", n, rs)
	}
	// A batch is staged only below the bound, so the backlog can overshoot
	// it by at most the batch that crossed it (paperSource's are single
	// inserts).
	const largestBatch = 1
	if limit := rs.MaxPending - 1 + largestBatch; rs.MaxPendingSeen > limit {
		t.Fatalf("backlog reached %d, bound %d allows at most %d", rs.MaxPendingSeen, rs.MaxPending, limit)
	}
	if rs.Duplicates != 0 {
		t.Fatalf("%d duplicate batches on an uninterrupted stream", rs.Duplicates)
	}
	if got := paperCount(t, mgr); got != base+n {
		t.Fatalf("papers = %d, want %d", got, base+n)
	}
}

func TestInvalidDeltaRejectsStream(t *testing.T) {
	mgr := mustManager(t)
	recv := NewReceiver(mgr, ReceiverOptions{})
	srv := newStreamServer(t, recv)

	src := funcSource(func(seq uint64) ([]live.Delta, bool, error) {
		return []live.Delta{{Op: live.OpInsert, Table: "no_such_table",
			Values: []relstore.Value{relstore.Int(1)}}}, true, nil
	})
	err := NewFeeder(srv.URL, FeederOptions{Source: "bad"}).Run(context.Background(), src)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("Run = %v, want ErrRejected", err)
	}
}

// TestResumeAfterKillBeforeAck is the staged-but-ack-lost race: the
// feeder dies after the receiver staged batch 3 but before the ack
// reached it. The replacement feeder must resume past 3 without the
// batch being staged twice.
func TestResumeAfterKillBeforeAck(t *testing.T) {
	mgr := mustManager(t)
	base := paperCount(t, mgr)
	recv := NewReceiver(mgr, ReceiverOptions{})

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	released := make(chan struct{})
	var once sync.Once
	recv.testBeforeAck = func(source string, seq uint64) {
		if seq == 3 {
			once.Do(func() {
				cancel1() // the feeder dies with the ack in flight
				<-released
			})
		}
	}
	srv := newStreamServer(t, recv)

	const n = 6
	src := paperSource(n, 660_000)
	err := NewFeeder(srv.URL, FeederOptions{Source: "kill"}).Run(ctx1, src)
	if err == nil {
		t.Fatal("killed feeder reported success")
	}
	close(released)

	f2 := NewFeeder(srv.URL, FeederOptions{Source: "kill"})
	if err := f2.Run(context.Background(), src); err != nil {
		t.Fatalf("resume Run: %v", err)
	}
	waitUntil(t, "receiver to settle", func() bool { return recv.Status().Streams == 0 })
	rs := recv.Status()
	if rs.Batches != n {
		t.Fatalf("staged %d batches, want exactly %d (status %+v)", rs.Batches, n, rs)
	}
	if f2.Status().ResumedFrom < 3 {
		t.Fatalf("resume started at %d, want >= 3 (ack was staged)", f2.Status().ResumedFrom)
	}
	if _, err := mgr.Promote(context.Background()); err != nil {
		t.Fatalf("Promote: %v", err) // double-staged pid would be a duplicate key
	}
	if got := paperCount(t, mgr); got != base+n {
		t.Fatalf("papers = %d, want %d: deltas lost or duplicated", got, base+n)
	}
}

// TestResumeRacesLateStage kills the feeder before batch 3 is staged,
// then lets the replacement connect while the dying stream is still
// inside the staging critical section. Whatever the interleaving, the
// batch must be staged exactly once (the per-source stage mutex plus
// sequence dedup is the mechanism; run under -race).
func TestResumeRacesLateStage(t *testing.T) {
	mgr := mustManager(t)
	base := paperCount(t, mgr)
	recv := NewReceiver(mgr, ReceiverOptions{})

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	released := make(chan struct{})
	var once sync.Once
	recv.testBeforeStage = func(source string, seq uint64) {
		if seq == 3 {
			once.Do(func() {
				cancel1() // die before staging; the frame was sent, not acked
				<-released
			})
		}
	}
	srv := newStreamServer(t, recv)

	const n = 6
	src := paperSource(n, 670_000)
	if err := NewFeeder(srv.URL, FeederOptions{Source: "race"}).Run(ctx1, src); err == nil {
		t.Fatal("killed feeder reported success")
	}

	// Start the replacement while the first stream is frozen mid-stage,
	// so its replay of batch 3 contends with the late original.
	done := make(chan error, 1)
	go func() {
		done <- NewFeeder(srv.URL, FeederOptions{Source: "race"}).Run(context.Background(), src)
	}()
	waitUntil(t, "replacement stream to connect", func() bool { return recv.Status().Streams >= 2 })
	close(released)
	if err := <-done; err != nil {
		t.Fatalf("resume Run: %v", err)
	}
	waitUntil(t, "receiver to settle", func() bool { return recv.Status().Streams == 0 })

	if _, err := mgr.Promote(context.Background()); err != nil {
		t.Fatalf("Promote: %v", err) // a double-stage surfaces as duplicate pid here
	}
	if got := paperCount(t, mgr); got != base+n {
		t.Fatalf("papers = %d, want %d: deltas lost or duplicated", got, base+n)
	}
	rs := recv.Status()
	if rs.Sources[0].LastSeq != n {
		t.Fatalf("high-water mark %d, want %d", rs.Sources[0].LastSeq, n)
	}
}

// A duplicate's ack carries the receiver's high-water mark, which can
// run ahead of what a resumed session has sent: a dead stream's
// buffered batches may be staged after the new stream's welcome. The
// feeder must resume after that mark, not wait for an ack of a batch it
// will never send. The receiver here welcomes at 2, answers batch 3
// with an ack of 5 and acks the rest as they come.
func TestFeederResumesAfterAckAhead(t *testing.T) {
	var mu sync.Mutex
	var got []uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctrl := http.NewResponseController(w)
		if err := ctrl.EnableFullDuplex(); err != nil {
			t.Error(err)
			return
		}
		br := bufio.NewReader(r.Body)
		if err := readStreamHeader(br); err != nil {
			t.Error(err)
			return
		}
		if _, err := readFrame(br); err != nil { // hello
			t.Error(err)
			return
		}
		send := func(f frame) {
			if err := writeFrame(w, f); err == nil {
				ctrl.Flush()
			}
		}
		w.WriteHeader(http.StatusOK)
		writeStreamHeader(w)
		send(frame{kind: kindWelcome, seq: 2})
		for {
			f, err := readFrame(br)
			if err != nil {
				return
			}
			if f.kind != kindBatch {
				continue
			}
			mu.Lock()
			got = append(got, f.seq)
			mu.Unlock()
			ack := f.seq
			if f.seq == 3 {
				ack = 5
			}
			send(frame{kind: kindAck, seq: ack})
		}
	}))
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f := NewFeeder(srv.URL, FeederOptions{Source: "ahead", Window: 1})
	err := f.Run(ctx, paperSource(6, 680_000))
	mu.Lock()
	defer mu.Unlock()
	if err != nil {
		t.Fatalf("Run: %v (sent %v)", err, got)
	}
	if len(got) != 2 || got[0] != 3 || got[1] != 6 {
		t.Fatalf("sent batches %v, want [3 6]", got)
	}
}
