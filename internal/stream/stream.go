// Package stream owns the session mechanics of the two long-lived HTTP
// streams: internal/repl's record stream from leader to follower and
// internal/cdc's frame stream between feeder and receiver. Their
// packages keep only their protocols — records, handshakes, acks and
// staging — and every end follows one rule, with one Timing:
//
//   - Reconnect. A client end runs its sessions under Run: after a
//     session ends it waits MinBackoff, doubling up to MaxBackoff and
//     resetting after a session that made progress, then reconnects,
//     until a session returns a Terminal error or the context ends.
//   - Heartbeat. An end that writes does so through a Writer, which
//     sends the protocol's heartbeat frame once Heartbeat has passed
//     since the last write, whatever the end is doing.
//   - Stall. An end that reads ends its session after waiting Stall on
//     its peer. The clock runs only while the end is blocked on the
//     peer: a client end's request is cancelled (Do), and a server
//     end's read deadline is re-armed before each read (Server).
//   - Writes. A server end re-arms its write deadline to Stall before
//     each write (Server), so the http.Server's WriteTimeout bounds one
//     stuck write, not the whole stream.
package stream

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// Timing is a stream session's clock. Every end runs with Default;
// tests shorten it per instance.
type Timing struct {
	MinBackoff, MaxBackoff time.Duration // first reconnect delay; cap on its doubling
	Heartbeat              time.Duration // idle time before a writing end sends a heartbeat
	Stall                  time.Duration // wait on the peer that ends a reading end's session
}

// Default is the timing of every stream end.
var Default = Timing{
	MinBackoff: 100 * time.Millisecond,
	MaxBackoff: 5 * time.Second,
	Heartbeat:  time.Second,
	Stall:      15 * time.Second,
}

// terminal marks a session error that reconnecting cannot fix.
type terminal struct{ error }

// Terminal marks err as one that reconnecting cannot fix: Run returns
// it, unwrapped, instead of running another session. It survives
// further %w wrapping.
func Terminal(err error) error { return terminal{err} }

// Run runs session until it returns nil (the stream's work is done), an
// error marked Terminal, or ctx ends, and returns that error (unwrapped)
// or ctx's. Any other error ends one session: Run waits out the backoff
// and runs the next.
func (t Timing) Run(ctx context.Context, session func(context.Context) (progress bool, err error)) error {
	wait := t.MinBackoff
	for {
		progress, err := session(ctx)
		var term terminal
		switch {
		case err == nil:
			return nil
		case errors.As(err, &term):
			return term.error
		case ctx.Err() != nil:
			return ctx.Err()
		}
		if progress {
			wait = t.MinBackoff
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
		wait = min(2*wait, t.MaxBackoff)
	}
}

// Do sends a client end's stream request and cancels it once the end
// has waited Stall on its peer, for the response headers or inside one
// read of the body. Closing the body releases the request.
func (t Timing) Do(client *http.Client, req *http.Request) (*http.Response, error) {
	ctx, cancel := context.WithCancel(req.Context())
	watch := time.AfterFunc(t.Stall, cancel)
	resp, err := client.Do(req.WithContext(ctx))
	watch.Stop()
	if err != nil {
		cancel()
		return nil, err
	}
	resp.Body = &stallBody{ReadCloser: resp.Body, watch: watch, stall: t.Stall, cancel: cancel}
	return resp, nil
}

// stallBody arms the stall watch for the length of each Read.
type stallBody struct {
	io.ReadCloser
	watch  *time.Timer
	stall  time.Duration
	cancel context.CancelFunc
}

// Read reads with the stall watch armed.
func (b *stallBody) Read(p []byte) (int, error) {
	b.watch.Reset(b.stall)
	defer b.watch.Stop()
	return b.ReadCloser.Read(p)
}

// Close releases the request.
func (b *stallBody) Close() error {
	b.cancel()
	return b.ReadCloser.Close()
}

// Server returns a server end's response controller, and its request
// body and response writer as one io.ReadWriter that re-arms the read
// or write deadline to Stall before each Read or Write. A writer that
// supports no deadlines (http.ErrNotSupported) streams without them.
func (t Timing) Server(w http.ResponseWriter, r *http.Request) (*http.ResponseController, io.ReadWriter) {
	ctrl := http.NewResponseController(w)
	return ctrl, deadlines{ctrl, t.Stall, r.Body, w}
}

type deadlines struct {
	ctrl  *http.ResponseController
	stall time.Duration
	r     io.Reader
	w     io.Writer
}

// Read reads the request body under a fresh read deadline.
func (d deadlines) Read(p []byte) (int, error) {
	d.ctrl.SetReadDeadline(time.Now().Add(d.stall))
	return d.r.Read(p)
}

// Write writes the response under a fresh write deadline.
func (d deadlines) Write(p []byte) (int, error) {
	d.ctrl.SetWriteDeadline(time.Now().Add(d.stall))
	return d.w.Write(p)
}

// Writer is the writing half of one stream end: Send writes and flushes
// one frame of type F, serialized with the heartbeats Heartbeat starts.
// The first write error, or Close, is final.
type Writer[F any] struct {
	w      io.Writer
	flush  func() error // nil: nothing to flush
	encode func(io.Writer, F) error
	every  time.Duration

	mu     sync.Mutex
	last   time.Time     // when the last frame went out
	err    error         // set once, with failed closed
	failed chan struct{} // closed by the first write error or Close
	beats  sync.WaitGroup
}

// NewWriter returns a Writer encoding frames onto w with encode and
// flushing each through flush (nil when w needs no flush).
func NewWriter[F any](t Timing, w io.Writer, flush func() error, encode func(io.Writer, F) error) *Writer[F] {
	return &Writer[F]{w: w, flush: flush, encode: encode, every: t.Heartbeat,
		last: time.Now(), failed: make(chan struct{})}
}

// Send writes and flushes one frame.
func (w *Writer[F]) Send(f F) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sendLocked(f)
}

func (w *Writer[F]) sendLocked(f F) error {
	if w.err != nil {
		return w.err
	}
	err := w.encode(w.w, f)
	if err == nil && w.flush != nil {
		err = w.flush()
	}
	if err != nil {
		w.err = err
		close(w.failed)
		return err
	}
	w.last = time.Now()
	return nil
}

// Heartbeat starts sending beat() whenever nothing has been written for
// one heartbeat interval, until Close or the first write error. Call it
// once, after the protocol's opening frames.
func (w *Writer[F]) Heartbeat(beat func() F) {
	w.beats.Add(1)
	go func() {
		defer w.beats.Done()
		tick := time.NewTimer(w.every)
		defer tick.Stop()
		for {
			select {
			case <-w.failed:
				return
			case <-tick.C:
			}
			f := beat() // outside the lock: beat is the caller's code
			w.mu.Lock()
			idle := time.Since(w.last)
			if idle >= w.every {
				w.sendLocked(f) // a failure closes failed, ending the loop
				idle = 0
			}
			w.mu.Unlock()
			tick.Reset(w.every - idle)
		}
	}()
}

// Failed is closed once a write has failed: the session is over.
func (w *Writer[F]) Failed() <-chan struct{} { return w.failed }

// Close ends the Writer and its heartbeat: it waits out a write in
// progress, nothing is written after it returns, and later Sends fail.
func (w *Writer[F]) Close() {
	w.mu.Lock()
	if w.err == nil {
		w.err = net.ErrClosed
		close(w.failed)
	}
	w.mu.Unlock()
	w.beats.Wait()
}
