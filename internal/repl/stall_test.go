package repl

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kqr/internal/stream"
)

// stall is one stream's silent peer: once trigger closes, the stalled
// body stops delivering at its next Read — the peer neither sends nor
// closes — until release closes. began and ended bracket the wait.
type stall struct {
	trigger      chan struct{}
	mu           sync.Mutex
	began, ended time.Time
}

func newStall() *stall { return &stall{trigger: make(chan struct{})} }

func (s *stall) span() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.began.IsZero() || s.ended.IsZero() {
		return -1
	}
	return s.ended.Sub(s.began)
}

// stalledBody is a response body that goes silent on s's trigger.
type stalledBody struct {
	io.ReadCloser
	s       *stall
	release <-chan struct{}
}

func (b *stalledBody) Read(p []byte) (int, error) {
	select {
	case <-b.s.trigger:
	default:
		return b.ReadCloser.Read(p)
	}
	b.s.mu.Lock()
	if b.s.began.IsZero() {
		b.s.began = time.Now()
	}
	b.s.mu.Unlock()
	<-b.release
	b.s.mu.Lock()
	if b.s.ended.IsZero() {
		b.s.ended = time.Now()
	}
	b.s.mu.Unlock()
	return 0, io.ErrUnexpectedEOF
}

// silentLeader is a follower's transport whose first log stream goes
// silent on its stall: the follower must notice and end the session.
type silentLeader struct {
	s    *stall
	used atomic.Bool
}

func (t *silentLeader) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && req.URL.Path == "/repl/log" && !t.used.Swap(true) {
		resp.Body = &stalledBody{ReadCloser: resp.Body, s: t.s, release: req.Context().Done()}
	}
	return resp, err
}

// deafFollower is a follower's transport that serves each request
// in-process over a net.Pipe — unbuffered, with deadlines — so when the
// first log stream's reader goes deaf on its stall, the leader's next
// write blocks: the leader must notice and end the session. The stalled
// body is released when the leader's handler returns.
type deafFollower struct {
	h    http.Handler
	s    *stall
	used atomic.Bool
}

func (t *deafFollower) RoundTrip(req *http.Request) (*http.Response, error) {
	client, server := net.Pipe()
	w := &pipeResponse{conn: server, header: http.Header{}, status: make(chan int, 1)}
	handled := make(chan struct{})
	go func() {
		t.h.ServeHTTP(w, req)
		w.WriteHeader(http.StatusOK)
		close(handled)
		server.Close()
	}()
	context.AfterFunc(req.Context(), func() { client.Close() })
	resp := &http.Response{StatusCode: <-w.status, Header: w.header, Body: client, Request: req}
	if req.URL.Path == "/repl/log" && !t.used.Swap(true) {
		resp.Body = &stalledBody{ReadCloser: client, s: t.s, release: handled}
	}
	return resp, nil
}

// pipeResponse is the handler's side of a deafFollower exchange. Its
// deadline methods are how http.ResponseController reaches the pipe.
type pipeResponse struct {
	conn   net.Conn
	header http.Header
	once   sync.Once
	status chan int
}

func (w *pipeResponse) Header() http.Header { return w.header }
func (w *pipeResponse) WriteHeader(code int) {
	w.once.Do(func() { w.status <- code })
}
func (w *pipeResponse) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.conn.Write(p)
}
func (w *pipeResponse) Flush()                             {}
func (w *pipeResponse) SetReadDeadline(t time.Time) error  { return w.conn.SetReadDeadline(t) }
func (w *pipeResponse) SetWriteDeadline(t time.Time) error { return w.conn.SetWriteDeadline(t) }

// TestStalledEndResumes stalls each end of the log stream mid-stream
// with a peer that goes silent without closing. The stalled end must
// end its session within twice its stall timeout, and the follower
// must resume exactly once: one snapshot, lockstep epochs, and tables
// bit-identical to the leader's.
func TestStalledEndResumes(t *testing.T) {
	const stallTimeout = 300 * time.Millisecond
	short := stream.Timing{MinBackoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
		Heartbeat: 50 * time.Millisecond, Stall: stallTimeout}
	long := short
	long.Stall = time.Minute // the peer that must not act first
	for _, tc := range []struct {
		end              string
		leader, follower stream.Timing
		transport        func(t *testing.T, l *Leader, s *stall) (http.RoundTripper, string)
	}{
		{"follower", long, short, func(t *testing.T, l *Leader, s *stall) (http.RoundTripper, string) {
			srv := httptest.NewServer(l.Handler())
			t.Cleanup(srv.Close)
			return &silentLeader{s: s}, srv.URL
		}},
		{"leader", short, long, func(t *testing.T, l *Leader, s *stall) (http.RoundTripper, string) {
			return &deafFollower{h: l.Handler(), s: s}, "http://leader.invalid"
		}},
	} {
		t.Run(tc.end, func(t *testing.T) {
			mgr := mustManager(t)
			leader, err := NewLeader(mgr, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer leader.Close()
			leader.timing = tc.leader
			s := newStall()
			tr, url := tc.transport(t, leader, s)

			f := NewFollower(url, FollowerOptions{Client: &http.Client{Transport: tr}})
			f.timing = tc.follower
			snap, err := f.Bootstrap(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Attach(managerOver(t, snap.DB), snap); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- f.Run(ctx) }()
			defer func() { cancel(); <-done }()

			promote := func(i int) {
				t.Helper()
				if err := mgr.Ingest(leaderDeltas(i)); err != nil {
					t.Fatal(err)
				}
				if _, err := mgr.Promote(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			promote(1)
			waitCaughtUp(t, f, mgr.Epoch())

			close(s.trigger)
			promote(2) // journaled while the stream is silent
			deadline := time.Now().Add(4 * stallTimeout)
			for f.Status().Connects < 2 && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if span := s.span(); span < 0 || span > 2*stallTimeout {
				t.Fatalf("stalled %s ended its session after %v (-1: not within %v), want ≤ %v",
					tc.end, span, 4*stallTimeout, 2*stallTimeout)
			}
			waitCaughtUp(t, f, mgr.Epoch())
			promote(3) // and the resumed stream tails
			waitCaughtUp(t, f, mgr.Epoch())

			st := f.Status()
			if st.Connects != 2 || st.SnapshotFetches != 1 {
				t.Fatalf("after one stall: %d connects, %d snapshot fetches, want 2 and 1", st.Connects, st.SnapshotFetches)
			}
			if st.Epoch != mgr.Epoch() || st.NextIndex != leader.log.End() {
				t.Fatalf("follower at epoch %d index %d, leader at epoch %d log end %d",
					st.Epoch, st.NextIndex, mgr.Epoch(), leader.log.End())
			}
			assertIdenticalArtifacts(t, mgr, f)
		})
	}
}
