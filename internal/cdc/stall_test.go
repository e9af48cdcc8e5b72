package cdc

import (
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kqr/internal/live"
	"kqr/internal/stream"
)

// stall is one stream's silent peer: once trigger closes, the stalled
// body stops at its next Read — the peer neither sends nor reads, and
// does not close — until the request's context ends. began and ended
// bracket the wait.
type stall struct {
	trigger      chan struct{}
	once         sync.Once
	mu           sync.Mutex
	began, ended time.Time
}

func newStall() *stall { return &stall{trigger: make(chan struct{})} }

func (s *stall) fire() { s.once.Do(func() { close(s.trigger) }) }

func (s *stall) span() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.began.IsZero() || s.ended.IsZero() {
		return -1
	}
	return s.ended.Sub(s.began)
}

// stalledBody is a request or response body that goes silent on s's
// trigger.
type stalledBody struct {
	io.ReadCloser
	s   *stall
	ctx context.Context
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
	<-b.ctx.Done()
	b.s.mu.Lock()
	if b.s.ended.IsZero() {
		b.s.ended = time.Now()
	}
	b.s.mu.Unlock()
	return 0, b.ctx.Err()
}

// stallingTransport is a feeder's transport whose first stream goes
// silent on its stall: the receiver's side of it when response is set
// (the feeder must act), the feeder's side otherwise (the receiver
// must).
type stallingTransport struct {
	s        *stall
	response bool
	used     atomic.Bool
}

func (t *stallingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	first := !t.used.Swap(true)
	if first && !t.response {
		req = req.Clone(req.Context())
		req.Body = &stalledBody{ReadCloser: req.Body, s: t.s, ctx: req.Context()}
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && first && t.response {
		resp.Body = &stalledBody{ReadCloser: resp.Body, s: t.s, ctx: req.Context()}
	}
	return resp, err
}

// TestStalledEndResumes stalls each end of the CDC stream mid-stream
// with a peer that goes silent without closing. The stalled end must
// end its session within twice its stall timeout, and the feeder must
// resume exactly once, with every source batch staged once and every
// replay acked and dropped.
func TestStalledEndResumes(t *testing.T) {
	const stallTimeout = 300 * time.Millisecond
	short := stream.Timing{MinBackoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
		Heartbeat: 50 * time.Millisecond, Stall: stallTimeout}
	long := short
	long.Stall = time.Minute // the peer that must not act first
	for _, tc := range []struct {
		end              string
		feeder, receiver stream.Timing
		response         bool
	}{
		{"feeder", short, long, true},
		{"receiver", long, short, false},
	} {
		t.Run(tc.end, func(t *testing.T) {
			mgr := mustManager(t)
			base := paperCount(t, mgr)
			recv := NewReceiver(mgr, ReceiverOptions{})
			recv.timing = tc.receiver
			srv := newStreamServer(t, recv)

			s := newStall()
			f := NewFeeder(srv.URL, FeederOptions{Source: "stall", Window: 2,
				Client: &http.Client{Transport: &stallingTransport{s: s, response: tc.response}}})
			f.timing = tc.feeder
			const n = 12
			papers := paperSource(n, 680_000)
			src := funcSource(func(seq uint64) ([]live.Delta, bool, error) {
				if seq == 5 {
					s.fire()
				}
				return papers(seq)
			})
			ctx, cancel := context.WithTimeout(context.Background(), 4*stallTimeout)
			defer cancel()
			if err := f.Run(ctx, src); err != nil {
				t.Fatalf("Run: %v (stalled for %v)", err, s.span())
			}
			if span := s.span(); span < 0 || span > 2*stallTimeout {
				t.Fatalf("stalled %s ended its session after %v, want ≤ %v", tc.end, span, 2*stallTimeout)
			}
			waitUntil(t, "receiver to settle", func() bool { return recv.Status().Streams == 0 })

			st, rs := f.Status(), recv.Status()
			if st.Connects != 2 || rs.Sources[0].Connects != 2 {
				t.Fatalf("after one stall: feeder %d connects, receiver %d, want 2 each", st.Connects, rs.Sources[0].Connects)
			}
			if !st.Done || st.LastAcked != n || rs.Batches != n || rs.Sources[0].LastSeq != n {
				t.Fatalf("feeder %+v, receiver %+v: want all %d batches acked and staged once", st, rs, n)
			}
			if _, err := mgr.Promote(context.Background()); err != nil {
				t.Fatalf("Promote: %v", err) // a double-staged pid would be a duplicate key
			}
			if got := paperCount(t, mgr); got != base+n {
				t.Fatalf("papers = %d, want %d: deltas lost or duplicated", got, base+n)
			}
		})
	}
}
