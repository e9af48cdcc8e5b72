package cdc

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"kqr/internal/live"
	"kqr/internal/stream"
)

// defaultWindow is the default in-flight batch bound.
const defaultWindow = 32

// Source produces the change stream a Feeder ships. Batch returns the
// deltas for a 1-based sequence number, or ok=false once the stream is
// exhausted. It must be deterministic — after a reconnect the feeder
// re-requests every sequence past the receiver's ack, so the Source IS
// the replay buffer; no local spool file exists.
type Source interface {
	Batch(seq uint64) ([]live.Delta, bool, error)
}

// FeederOptions configures a Feeder. Source is required; zero values
// elsewhere take the documented defaults.
type FeederOptions struct {
	// Source is the stable id this feeder claims; the receiver keys its
	// per-source sequence high-water mark on it. Required.
	Source string
	// Client is the HTTP client to dial with (default
	// http.DefaultClient). It must not impose a whole-request Timeout —
	// the stream is long-lived.
	Client *http.Client
	// Window bounds unacknowledged in-flight batches; the feeder stalls
	// at the bound until acks arrive, which is how receiver
	// backpressure (withheld acks) propagates (default 32).
	Window int
	// BatchesPerSec rate-limits sending; 0 means unlimited.
	BatchesPerSec float64
	// Fingerprint, if non-empty, must match the receiver's schema
	// fingerprint or the feeder stops with ErrRejected. Empty adopts
	// whatever the receiver reports.
	Fingerprint string
	// Logf, if set, receives one line per connection event. Nil means
	// silent.
	Logf func(format string, args ...any)
}

// FeederStatus is a Feeder's point-in-time progress.
type FeederStatus struct {
	// Connects counts stream connections, including reconnects.
	Connects uint64
	// LastSent and LastAcked are the sequence high-water marks; their
	// gap is the in-flight window in use.
	LastSent  uint64
	LastAcked uint64
	// ResumedFrom is the receiver's ack point at the latest connect —
	// after a crash it shows where replay started.
	ResumedFrom uint64
	// Epoch and Pending echo the receiver's last ack: its generation
	// epoch and staged backlog (the staleness the feeder is observing).
	Epoch   uint64
	Pending uint32
	// Done reports that every batch the Source produced was
	// acknowledged and the stream closed cleanly.
	Done bool
}

// Feeder ships a Source's delta batches to a receiver's /cdc/stream
// endpoint: bounded in-flight window keyed on cumulative acks,
// reconnect under the stream session rule (internal/stream), resume
// from the receiver's last acknowledged sequence. One Run per Feeder.
type Feeder struct {
	base   string
	opts   FeederOptions
	timing stream.Timing

	mu     sync.Mutex
	status FeederStatus
}

// NewFeeder builds a Feeder targeting a server base URL (e.g.
// "http://host:7071"); the stream endpoint path is appended.
func NewFeeder(base string, opts FeederOptions) *Feeder {
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	if opts.Window <= 0 {
		opts.Window = defaultWindow
	}
	return &Feeder{base: strings.TrimRight(base, "/"), opts: opts, timing: stream.Default}
}

// Status snapshots the feeder's progress.
func (f *Feeder) Status() FeederStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.status
}

func (f *Feeder) update(fn func(*FeederStatus)) {
	f.mu.Lock()
	fn(&f.status)
	f.mu.Unlock()
}

func (f *Feeder) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

// Run feeds src until it is exhausted and fully acknowledged (returns
// nil), the context ends, the receiver rejects the stream (ErrRejected),
// or src fails. A stream that breaks or stalls reconnects and resumes
// from the receiver's ack point.
func (f *Feeder) Run(ctx context.Context, src Source) error {
	if f.opts.Source == "" {
		return errors.New("cdc: FeederOptions.Source is required")
	}
	err := f.timing.Run(ctx, func(ctx context.Context) (bool, error) {
		before := f.Status().LastAcked
		err := f.session(ctx, src)
		if err != nil && ctx.Err() == nil {
			f.logf("cdc feeder %q: stream ended (%v)", f.opts.Source, err)
		}
		return f.Status().LastAcked > before, err
	})
	if err == nil {
		f.update(func(s *FeederStatus) { s.Done = true })
	}
	return err
}

// session runs one connection: handshake, then the send/ack loop. A
// nil error means the Source is exhausted and fully acked; errors the
// feeder cannot fix by reconnecting are marked stream.Terminal.
func (f *Feeder) session(ctx context.Context, src Source) error {
	pr, pw := io.Pipe()
	out := stream.NewWriter(f.timing, pw, nil, writeFrame)
	defer out.Close()
	defer pw.CloseWithError(io.ErrClosedPipe) // first: unblocks a stuck write
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.base+"/cdc/stream", pr)
	if err != nil {
		return stream.Terminal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")

	// The server answers only after reading our hello, and client.Do
	// blocks until response headers arrive — so the hello must go down
	// the pipe concurrently with Do.
	go func() {
		err := writeStreamHeader(pw)
		if err == nil {
			err = out.Send(frame{kind: kindHello, source: f.opts.Source, fingerprint: f.opts.Fingerprint})
		}
		if err != nil {
			pw.CloseWithError(err)
		}
	}()

	resp, err := f.timing.Do(f.opts.Client, req)
	if err != nil {
		return fmt.Errorf("cdc: dial: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return stream.Terminal(fmt.Errorf("%w: %v", ErrRejected, err))
		}
		return err
	}

	br := bufio.NewReaderSize(resp.Body, 1<<16)
	if err := readStreamHeader(br); err != nil {
		return err
	}
	welcome, err := readFrame(br)
	if err != nil {
		return fmt.Errorf("cdc: reading welcome: %w", err)
	}
	if welcome.kind == kindError {
		return stream.Terminal(fmt.Errorf("%w: %s", ErrRejected, welcome.message))
	}
	if welcome.kind != kindWelcome {
		return fmt.Errorf("%w: first frame kind %d, want welcome", ErrProtocol, welcome.kind)
	}
	if f.opts.Fingerprint != "" && welcome.fingerprint != f.opts.Fingerprint {
		return stream.Terminal(fmt.Errorf("%w: schema fingerprint mismatch", ErrRejected))
	}

	f.update(func(s *FeederStatus) {
		s.Connects++
		s.ResumedFrom = welcome.seq
		s.LastAcked = welcome.seq
		s.LastSent = welcome.seq
		s.Epoch = welcome.epoch
	})
	f.logf("cdc feeder %q: connected, resuming after seq %d (epoch %d)", f.opts.Source, welcome.seq, welcome.epoch)
	out.Heartbeat(func() frame { return frame{kind: kindHeartbeat, seq: f.Status().LastSent} })

	// Reader goroutine: acks advance the status's high-water mark and
	// nudge the sender; a server error frame is terminal for the whole
	// Run. Closing the pipe when it ends unblocks a sender stuck
	// mid-write.
	var (
		notify     = make(chan struct{}, 1)
		readerDone = make(chan struct{})
		readerErr  error // valid after readerDone closes
	)
	go func() {
		defer close(readerDone)
		defer pw.CloseWithError(io.ErrClosedPipe)
		for {
			fr, err := readFrame(br)
			if err != nil {
				if err != io.EOF {
					readerErr = err
				}
				return
			}
			switch fr.kind {
			case kindAck:
				f.update(func(s *FeederStatus) {
					if fr.seq > s.LastAcked {
						s.LastAcked, s.Epoch, s.Pending = fr.seq, fr.epoch, fr.pending
					}
				})
				select {
				case notify <- struct{}{}:
				default:
				}
			case kindHeartbeat:
				// liveness only
			case kindError:
				readerErr = stream.Terminal(fmt.Errorf("%w: %s", ErrRejected, fr.message))
				return
			default:
				readerErr = fmt.Errorf("%w: unexpected frame kind %d mid-stream", ErrProtocol, fr.kind)
				return
			}
		}
	}()

	var interval time.Duration
	if f.opts.BatchesPerSec > 0 {
		interval = time.Duration(float64(time.Second) / f.opts.BatchesPerSec)
	}
	var next time.Time // when the rate limit lets the next batch go
	sent, ended := welcome.seq, false
	for {
		a := f.Status().LastAcked
		// A duplicate's ack carries the receiver's high-water mark, which
		// can pass what this session sent when a dead stream's buffered
		// batches were staged after our welcome: resume after it.
		sent = max(sent, a)
		if ended && a >= sent {
			// Everything acked: close our half, then wait for the
			// server to finish its side so final acks are not lost.
			pw.Close()
			select {
			case <-readerDone:
			case <-ctx.Done():
				return ctx.Err()
			}
			return readerErr
		}
		var wake <-chan time.Time // nil: only an ack unblocks the sender
		if !ended && sent-a < uint64(f.opts.Window) {
			if d := time.Until(next); d > 0 {
				wake = time.After(d)
			} else {
				seq := sent + 1
				deltas, ok, err := src.Batch(seq)
				if err != nil {
					return stream.Terminal(fmt.Errorf("cdc: source batch %d: %w", seq, err))
				}
				if !ok {
					ended = true
					continue
				}
				if err := out.Send(frame{kind: kindBatch, seq: seq, deltas: deltas}); err != nil {
					<-readerDone // its error says why, and may be terminal
					return streamClosed(cmp.Or(readerErr, err))
				}
				sent = seq
				f.update(func(s *FeederStatus) { s.LastSent = seq })
				if next.IsZero() {
					next = time.Now()
				}
				next = next.Add(interval)
				continue
			}
		}
		select {
		case <-notify:
		case <-wake:
		case <-readerDone:
			return streamClosed(readerErr)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// streamClosed wraps a mid-session drop — nil, the clean-EOF case,
// included — as a "stream closed" error; a Terminal one stays terminal.
func streamClosed(err error) error {
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("cdc: stream closed: %w", err)
}
