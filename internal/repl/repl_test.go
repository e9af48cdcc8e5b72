package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"kqr/internal/artifact"
	"kqr/internal/closeness"
	"kqr/internal/live"
	"kqr/internal/randomwalk"
	"kqr/internal/relstore"
	"kqr/internal/testcorpus"
)

// ---- wire format --------------------------------------------------------

func sampleRecords() []Record {
	return []Record{
		{Index: 0, Epoch: 2, Kind: kindDeltas, Deltas: []live.Delta{
			{Op: live.OpInsert, Table: "papers", Values: []relstore.Value{
				relstore.Int(100), relstore.String("stream processing"), relstore.Int(1),
			}},
			{Op: live.OpDelete, Table: "papers", Key: relstore.Int(3)},
		}},
		{Index: 1, Epoch: 3, Kind: kindEpoch, Mode: "reload"},
		{Index: 7, Epoch: 3, Kind: kindHeartbeat, LogBytes: 4242},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, want := range sampleRecords() {
		var buf bytes.Buffer
		n, err := writeRecord(&buf, want)
		if err != nil {
			t.Fatalf("writeRecord: %v", err)
		}
		if n != buf.Len() {
			t.Fatalf("writeRecord reported %d bytes, wrote %d", n, buf.Len())
		}
		got, rn, err := readRecord(&buf)
		if err != nil {
			t.Fatalf("readRecord: %v", err)
		}
		if rn != n {
			t.Errorf("readRecord consumed %d bytes, frame is %d", rn, n)
		}
		if got.Index != want.Index || got.Epoch != want.Epoch || got.Kind != want.Kind ||
			got.Mode != want.Mode || got.LogBytes != want.LogBytes ||
			len(got.Deltas) != len(want.Deltas) {
			t.Errorf("round trip mismatch: got %+v want %+v", got, want)
		}
		for i := range want.Deltas {
			w, g := want.Deltas[i], got.Deltas[i]
			if g.Op != w.Op || g.Table != w.Table || !g.Key.Equal(w.Key) || len(g.Values) != len(w.Values) {
				t.Errorf("delta %d mismatch: got %+v want %+v", i, g, w)
			}
			for j := range w.Values {
				if !g.Values[j].Equal(w.Values[j]) {
					t.Errorf("delta %d value %d mismatch", i, j)
				}
			}
		}
	}
}

// ---- delta log ----------------------------------------------------------

func appendAll(t *testing.T, l *Log, recs []Record) {
	t.Helper()
	for i, rec := range recs {
		idx, err := l.Append(rec)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if want := uint64(i); idx != want && l.End() != idx+1 {
			t.Fatalf("Append assigned index %d, end %d", idx, l.End())
		}
	}
}

func readAll(t *testing.T, l *Log, from uint64) []Record {
	t.Helper()
	cur := l.Cursor(from)
	defer cur.Close()
	var recs []Record
	for cur.Next() {
		recs = append(recs, cur.Record())
	}
	if cur.Err() != nil {
		t.Fatalf("cursor: %v", cur.Err())
	}
	return recs
}

func logRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Epoch: uint64(i + 2), Kind: kindDeltas, Deltas: []live.Delta{
			{Op: live.OpInsert, Table: "papers", Values: []relstore.Value{
				relstore.Int(int64(1000 + i)), relstore.String(fmt.Sprintf("title %d", i)), relstore.Int(1),
			}},
		}}
	}
	return recs
}

func TestLogAppendReopenCursor(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs := logRecords(5)
	appendAll(t, l, recs)
	if l.End() != 5 {
		t.Fatalf("End = %d, want 5", l.End())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if l2.End() != 5 {
		t.Fatalf("reopened End = %d, want 5", l2.End())
	}
	got := readAll(t, l2, 0)
	if len(got) != 5 {
		t.Fatalf("cursor read %d records, want 5", len(got))
	}
	for i, rec := range got {
		if rec.Index != uint64(i) || rec.Epoch != uint64(i+2) {
			t.Errorf("record %d: index %d epoch %d", i, rec.Index, rec.Epoch)
		}
	}
	// A cursor can also start mid-log and pick up later appends.
	if got := readAll(t, l2, 3); len(got) != 2 {
		t.Fatalf("cursor from 3 read %d records, want 2", len(got))
	}
	cur := l2.Cursor(5)
	if cur.Next() {
		t.Fatal("cursor at end returned a record")
	}
	if _, err := l2.Append(logRecords(1)[0]); err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatalf("cursor did not see post-append record: %v", cur.Err())
	}
	cur.Close()
}

func TestLogRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{SegmentBytes: 1}) // rotate after every record
	if err != nil {
		t.Fatal(err)
	}
	recs := logRecords(4)
	appendAll(t, l, recs)
	if segs := l.Segments(); segs != 4 {
		t.Fatalf("Segments = %d, want 4", segs)
	}
	if got := readAll(t, l, 0); len(got) != 4 {
		t.Fatalf("read %d records across segments, want 4", len(got))
	}
	l.Close()

	l2, err := OpenLog(dir, LogOptions{SegmentBytes: 1})
	if err != nil {
		t.Fatalf("reopen rotated log: %v", err)
	}
	defer l2.Close()
	if l2.End() != 4 {
		t.Fatalf("reopened End = %d, want 4", l2.End())
	}
	if got := readAll(t, l2, 2); len(got) != 2 {
		t.Fatalf("cursor from 2 read %d, want 2", len(got))
	}
}

func TestLogTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, logRecords(3))
	l.Close()

	// Tear the last record: chop a few bytes off the segment tail.
	path := filepath.Join(dir, segmentName(0))
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatalf("reopen torn log: %v", err)
	}
	defer l2.Close()
	if l2.End() != 2 {
		t.Fatalf("torn log End = %d, want 2 (last record dropped)", l2.End())
	}
	// The next append reuses the truncated index.
	idx, err := l2.Append(logRecords(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("append after truncation got index %d, want 2", idx)
	}
	if got := readAll(t, l2, 0); len(got) != 3 {
		t.Fatalf("read %d records, want 3", len(got))
	}
}

func TestLogCorruptionBeforeTailIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, logRecords(3))
	l.Close()

	// Flip a byte inside the first (non-last) segment's record body.
	path := filepath.Join(dir, segmentName(0))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[segHeaderSize+10] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(dir, LogOptions{SegmentBytes: 1}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt non-last segment: got %v, want ErrCorrupt", err)
	}
}

// ---- snapshot -----------------------------------------------------------

func mustManager(t *testing.T) *live.Manager {
	t.Helper()
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	return managerOver(t, db)
}

// managerOver opens a default-config manager over db.
func managerOver(t *testing.T, db *relstore.Database) *live.Manager {
	t.Helper()
	m, err := live.NewManager(db, live.Config{}, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestSnapshotRoundTrip(t *testing.T) {
	mgr := mustManager(t)
	g := mgr.Current()
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, mgr, g, position{next: 7, bytes: 123}); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	snap, err := readSnapshot(&buf)
	if err != nil {
		t.Fatalf("readSnapshot: %v", err)
	}
	if snap.Epoch != g.Provenance.Epoch || snap.NextIndex != 7 || snap.LogBytes != 123 {
		t.Errorf("header: %+v", snap)
	}
	if snap.DB.Stats().String() != g.DB.Stats().String() {
		t.Errorf("corpus stats: got %s want %s", snap.DB.Stats(), g.DB.Stats())
	}
	// A generation rebuilt over the restored corpus must reproduce the
	// fingerprint — the property lockstep replication rests on.
	mgr2 := managerOver(t, snap.DB)
	g2 := mgr2.Current()
	if fp := Fingerprint(mgr2, g2); fp != snap.Fingerprint {
		t.Errorf("rebuilt fingerprint %q != leader %q", fp, snap.Fingerprint)
	}
	if err := live.RestoreArtifact(g2, snap.Artifact); err != nil {
		t.Errorf("RestoreArtifact: %v", err)
	}
}

// A leader and a follower whose tables hold different bits must not
// pair up: the follower recomputes every promotion itself and is held
// to the leader's bytes. Two solvers agree to their tolerance, not in
// the low bits; term-only and node-level closeness rows answer alike
// but are other rows. The handshake fingerprint carries the solver tag
// and the row tag, so either side being a build without one of them
// (the power-iteration build; the build that kept tuple entries) is
// ErrDiverged — the follower gets the error, not rows.
func TestBootstrapRefusedAcrossSolvers(t *testing.T) {
	mgr := mustManager(t)
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, mgr, mgr.Current(), position{}); err != nil {
		t.Fatal(err)
	}
	snap, err := readSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	follower := func() (*Follower, *live.Manager) {
		return NewFollower("http://unused", FollowerOptions{}), managerOver(t, snap.DB)
	}
	for _, tag := range []string{" solver=" + randomwalk.Solver, " closrows=" + closeness.Rows} {
		if strings.Count(snap.Fingerprint, tag) != 1 {
			t.Fatalf("bootstrap fingerprint %q does not carry %q", snap.Fingerprint, tag)
		}
		// Old leader, this follower: the bootstrap arrives untagged.
		old := *snap
		old.Fingerprint = strings.Replace(snap.Fingerprint, tag, "", 1)
		f, m := follower()
		if err := f.Attach(m, &old); !errors.Is(err, ErrDiverged) {
			t.Fatalf("attach to a leader without%s: err = %v, want ErrDiverged", tag, err)
		}
		if g := m.Current(); g.Clos.Rows() != nil || g.Sim.Rows() != nil {
			t.Fatalf("refused bootstrap without%s left a table behind", tag)
		}
	}
	// (This leader, old follower is the same string comparison run on
	// the other side.) Same tags on both sides still attach.
	f, m := follower()
	if err := f.Attach(m, snap); err != nil {
		t.Fatalf("attach to a same-build leader: %v", err)
	}
}

// A lazy leader's bootstrap carries the vocabulary and no tables, even
// after a query has filled some of its rows, and yields a lazy follower
// that answers like the leader.
func TestLazyBootstrapStaysLazy(t *testing.T) {
	mgr := mustManager(t)
	query := []string{"uncertain", "data"}
	want, err := mgr.Current().Core.Reformulate(query, 5)
	if err != nil || len(want) == 0 {
		t.Fatalf("leader answered %v, %v", want, err)
	}
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, mgr, mgr.Current(), position{}); err != nil {
		t.Fatal(err)
	}
	snap, err := readSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for kind, rows := range snap.Artifact.Tables {
		if rows != nil {
			t.Fatalf("a lazy leader's bootstrap carries table %d with %d rows", kind, len(rows.Src))
		}
	}
	m := managerOver(t, snap.DB)
	if err := NewFollower("http://unused", FollowerOptions{}).Attach(m, snap); err != nil {
		t.Fatal(err)
	}
	g := m.Current()
	got, err := g.Core.Reformulate(query, 5)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("lazy follower answered %v (%v), leader %v", got, err, want)
	}
	if g.Sim.Rows() != nil || g.Clos.Rows() != nil {
		t.Fatal("a lazy bootstrap left the follower with a published table")
	}
}

// ---- leader + follower end to end --------------------------------------

// startFollower bootstraps a follower from the leader URL and returns
// it attached and ready to Run.
func startFollower(t *testing.T, url string) *Follower {
	t.Helper()
	f := NewFollower(url, FollowerOptions{})
	f.timing.MinBackoff = 10 * time.Millisecond
	snap, err := f.Bootstrap(context.Background())
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if err := f.Attach(managerOver(t, snap.DB), snap); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	return f
}

func waitCaughtUp(t *testing.T, f *Follower, epoch uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := f.Status(); st.Epoch >= epoch {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower stuck at %+v, want epoch %d", f.Status(), epoch)
}

// freshTerm is the word only leaderDeltas(i) brings into the corpus.
func freshTerm(i int) string { return fmt.Sprintf("replterm%d", i) }

func leaderDeltas(i int) []live.Delta {
	return []live.Delta{{Op: live.OpInsert, Table: "papers", Values: []relstore.Value{
		relstore.Int(int64(500 + i)), relstore.String(fmt.Sprintf("replicated paper %s", freshTerm(i))), relstore.Int(1),
	}}}
}

func TestLeaderFollowerLockstep(t *testing.T) {
	for _, followers := range []int{1, 3} {
		t.Run(fmt.Sprintf("followers=%d", followers), func(t *testing.T) { lockstep(t, followers) })
	}
}

func lockstep(t *testing.T, followers int) {
	mgr := mustManager(t)
	leader, err := NewLeader(mgr, t.TempDir(), LeaderOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	leader.timing.Heartbeat = 50 * time.Millisecond
	defer leader.Close()
	srv := httptest.NewServer(leader.Handler())
	defer srv.Close()

	// One promotion before the followers exist: it must arrive via the
	// snapshot, not the log.
	if err := mgr.Ingest(leaderDeltas(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fs := make([]*Follower, followers)
	done := make(chan error, followers)
	for i := range fs {
		fs[i] = startFollower(t, srv.URL)
		if st := fs[i].Status(); st.Epoch != 2 || st.NextIndex != 1 {
			t.Fatalf("follower %d bootstrap state: %+v", i, st)
		}
		assertAnswerable(t, fs[i], freshTerm(0))
		f := fs[i]
		go func() { done <- f.Run(ctx) }()
	}

	// Three more promotions plus one deltaless advance while tailing.
	// Lockstep means each promotion's new term is answerable on every
	// follower, not just that epoch numbers match.
	for i := 1; i <= 3; i++ {
		if err := mgr.Ingest(leaderDeltas(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Promote(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			waitCaughtUp(t, f, mgr.Epoch())
			assertAnswerable(t, f, freshTerm(i))
		}
	}
	if _, err := mgr.Advance("reload"); err != nil {
		t.Fatal(err)
	}
	for i, f := range fs {
		waitCaughtUp(t, f, mgr.Epoch())

		st := f.Status()
		if st.Epoch != mgr.Epoch() {
			t.Errorf("follower %d epoch %d, leader %d", i, st.Epoch, mgr.Epoch())
		}
		if st.NextIndex != leader.Log().End() {
			t.Errorf("follower %d next index %d, log end %d", i, st.NextIndex, leader.Log().End())
		}
		if st.BytesBehind != 0 {
			t.Errorf("caught-up follower %d is %d bytes behind", i, st.BytesBehind)
		}
		if st.SnapshotFetches != 1 {
			t.Errorf("follower %d SnapshotFetches = %d, want 1", i, st.SnapshotFetches)
		}
		if !f.CaughtUp(0) {
			t.Errorf("CaughtUp(0) = false for caught-up follower %d", i)
		}

		// The follower's tables must be bit-identical to the leader's.
		assertIdenticalArtifacts(t, mgr, f)
	}

	cancel()
	for range fs {
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Errorf("Run returned %v, want context.Canceled", err)
		}
	}
}

// assertAnswerable checks the follower's current generation resolves
// the term and serves a similar-term row for it.
func assertAnswerable(t *testing.T, f *Follower, term string) {
	t.Helper()
	g := f.mgr.Current()
	nodes := g.TG.FindTerm(term)
	if len(nodes) == 0 {
		t.Fatalf("term %q not in the follower's vocabulary at epoch %d", term, g.Provenance.Epoch)
	}
	if _, err := g.Sim.SimilarNodes(nodes[0], 5); err != nil {
		t.Fatalf("term %q not answerable on the follower at epoch %d: %v", term, g.Provenance.Epoch, err)
	}
}

// fullArtifact computes and packs every term's rows on the generation
// (nothing, if it is complete already) and returns its offline state:
// vocabulary plus complete similarity and closeness tables.
func fullArtifact(t *testing.T, g *live.Generation) *artifact.Snapshot {
	t.Helper()
	nodes := g.TG.TermNodeIDs()
	if err := g.Sim.Precompute(context.Background(), nodes); err != nil {
		t.Fatal(err)
	}
	if err := g.Clos.Precompute(context.Background(), nodes); err != nil {
		t.Fatal(err)
	}
	g.Sim.Pack()
	g.Clos.Pack()
	return live.ArtifactSnapshot(g, "cmp")
}

func artifactBytes(t *testing.T, snap *artifact.Snapshot) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := snap.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// assertIdenticalArtifacts compares, byte for byte, the complete
// offline state leader and follower derive from their corpora right
// now — every term's rows are computed on both sides first, since the
// lazily filled tables of two cold managers are equal only by being
// empty.
func assertIdenticalArtifacts(t *testing.T, leaderMgr *live.Manager, f *Follower) {
	t.Helper()
	lg, fg := leaderMgr.Current(), f.mgr.Current()
	lsnap, fsnap := fullArtifact(t, lg), fullArtifact(t, fg)
	lb := artifactBytes(t, lsnap)
	if !bytes.Equal(lb, artifactBytes(t, fsnap)) {
		t.Fatalf("follower tables differ from the leader's (%d vocabulary terms vs %d)",
			len(fsnap.Vocabulary), len(lsnap.Vocabulary))
	}
	// The comparison must be able to fail: nudge one follower score by
	// one float32 step and the serialisations must part.
	scores := fsnap.Tables[artifact.TableWalk].Scores
	if len(scores) == 0 {
		t.Fatal("follower similarity table is empty after a full precompute")
	}
	at := len(scores) / 2
	scores[at] = math.Nextafter32(scores[at], 2)
	if bytes.Equal(lb, artifactBytes(t, fsnap)) {
		t.Fatal("a perturbed follower row still compares equal: the identity check is blind")
	}
	if Fingerprint(leaderMgr, lg) != Fingerprint(f.mgr, fg) {
		t.Fatal("fingerprints diverged after replication")
	}
}

func TestFollowerKillAndResume(t *testing.T) {
	mgr := mustManager(t)
	leader, err := NewLeader(mgr, t.TempDir(), LeaderOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	leader.timing.Heartbeat = 50 * time.Millisecond
	defer leader.Close()
	srv := httptest.NewServer(leader.Handler())
	defer srv.Close()

	f := startFollower(t, srv.URL)
	ctx1, cancel1 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx1) }()

	if err := mgr.Ingest(leaderDeltas(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, 2)

	// Kill the follower mid-run.
	cancel1()
	<-done
	offset := f.Status().NextIndex

	// The leader keeps promoting while the follower is down.
	for i := 2; i <= 3; i++ {
		if err := mgr.Ingest(leaderDeltas(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Promote(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// Resume: same Follower, no new Bootstrap.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() { done <- f.Run(ctx2) }()
	waitCaughtUp(t, f, mgr.Epoch())
	st := f.Status()
	if st.SnapshotFetches != 1 {
		t.Errorf("resume re-downloaded the snapshot (%d fetches)", st.SnapshotFetches)
	}
	if st.NextIndex <= offset {
		t.Errorf("resume did not advance past offset %d: %+v", offset, st)
	}
	if st.Epoch != mgr.Epoch() {
		t.Errorf("resumed follower epoch %d, leader %d", st.Epoch, mgr.Epoch())
	}
	cancel2()
	<-done
}

func TestFollowerReconnectsAfterLeaderRestart(t *testing.T) {
	dir := t.TempDir()
	mgr := mustManager(t)
	leader, err := NewLeader(mgr, dir, LeaderOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	leader.timing.Heartbeat = 20 * time.Millisecond
	srv := httptest.NewServer(leader.Handler())

	f := startFollower(t, srv.URL)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	if err := mgr.Ingest(leaderDeltas(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, 2)

	// Drop every open connection; the follower must reconnect to the
	// same leader and keep tailing.
	srv.CloseClientConnections()

	if err := mgr.Ingest(leaderDeltas(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, 3)
	// Stop the follower before the server: httptest's Close waits for
	// the long-lived log stream to end.
	cancel()
	<-done
	srv.Close()
	leader.Close()
}

func TestNewLeaderRefusesStaleLog(t *testing.T) {
	dir := t.TempDir()
	mgr := mustManager(t)
	leader, err := NewLeader(mgr, dir, LeaderOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Ingest(leaderDeltas(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	leader.Close()

	// A fresh manager (epoch 1) over the old log (ends at epoch 2) is a
	// stale-journal hazard and must be refused.
	mgr2 := mustManager(t)
	if _, err := NewLeader(mgr2, dir, LeaderOptions{NoSync: true}); err == nil {
		t.Fatal("NewLeader accepted a log from a different corpus history")
	}
}

func TestLeaderResumesOwnLog(t *testing.T) {
	dir := t.TempDir()
	mgr := mustManager(t)
	leader, err := NewLeader(mgr, dir, LeaderOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Ingest(leaderDeltas(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	leader.Close()

	// Same manager state, same log: reopening must succeed and keep the
	// log end.
	leader2, err := NewLeader(mgr, dir, LeaderOptions{NoSync: true})
	if err != nil {
		t.Fatalf("reopening own log: %v", err)
	}
	defer leader2.Close()
	if leader2.Log().End() != 1 {
		t.Errorf("resumed log end %d, want 1", leader2.Log().End())
	}
}

func TestJournalFailureAbortsPromotion(t *testing.T) {
	mgr := mustManager(t)
	dir := t.TempDir()
	leader, err := NewLeader(mgr, dir, LeaderOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(leader.Handler())
	defer srv.Close()

	// Close the log out from under the journal: the next promotion must
	// fail and leave the epoch unchanged.
	leader.Log().Close()
	before := mgr.Epoch()
	if err := mgr.Ingest(leaderDeltas(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Promote(context.Background()); err == nil {
		t.Fatal("promotion succeeded with a dead journal")
	}
	if mgr.Epoch() != before {
		t.Errorf("epoch moved to %d despite journal failure", mgr.Epoch())
	}
	leader.Close()
}
