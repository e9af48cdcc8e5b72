package cdc

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kqr/internal/live"
	"kqr/internal/stream"
)

// Receiver defaults.
const (
	defaultMaxPending   = 5000
	defaultPollInterval = 5 * time.Millisecond
)

// ReceiverOptions tunes a Receiver. Zero values take the documented
// defaults.
type ReceiverOptions struct {
	// MaxPending is the staged-delta backlog above which the receiver
	// withholds acknowledgements: the frame is read but not staged or
	// acked until a promotion drains the backlog below the bound, so a
	// fast feeder's bounded in-flight window stalls it (default 5000).
	MaxPending int
	// PollInterval is how often a backpressured stream re-checks the
	// pending backlog (default 5ms).
	PollInterval time.Duration
	// Logf, if set, receives one line per stream event (connect,
	// disconnect, rejection). Nil means silent.
	Logf func(format string, args ...any)
}

func (o ReceiverOptions) withDefaults() ReceiverOptions {
	if o.MaxPending <= 0 {
		o.MaxPending = defaultMaxPending
	}
	if o.PollInterval <= 0 {
		o.PollInterval = defaultPollInterval
	}
	return o
}

// Receiver terminates CDC streams and stages their delta batches
// through a live.Manager, exactly-once per source. Safe for concurrent
// use; one Receiver serves any number of concurrent streams.
type Receiver struct {
	mgr    *live.Manager
	opts   ReceiverOptions
	timing stream.Timing

	mu      sync.Mutex
	sources map[string]*sourceState
	streams int

	// Test hooks: called (when non-nil) immediately before a batch is
	// staged and immediately before its ack is written, so tests can
	// freeze a stream at the exact windows a reconnect races with.
	testBeforeStage func(source string, seq uint64)
	testBeforeAck   func(source string, seq uint64)
}

// sourceState is the per-source high-water mark and statistics. The
// stage mutex serializes the sequence check, backpressure wait, staging
// and high-water-mark update, so two connections claiming the same
// source cannot double-stage a batch.
type sourceState struct {
	name    string
	stageMu sync.Mutex
	lastSeq atomic.Uint64

	statsMu        sync.Mutex
	batches        uint64
	deltas         uint64
	dups           uint64
	connects       uint64
	streams        int
	throttleEvents uint64
	throttleWait   time.Duration
	maxPendingSeen int
	lastContact    time.Time
}

// NewReceiver builds a Receiver staging into mgr.
func NewReceiver(mgr *live.Manager, opts ReceiverOptions) *Receiver {
	return &Receiver{
		mgr:     mgr,
		opts:    opts.withDefaults(),
		timing:  stream.Default,
		sources: make(map[string]*sourceState),
	}
}

// SourceStatus is one source's point-in-time state in Status.
type SourceStatus struct {
	// Source is the feeder-chosen source id.
	Source string `json:"source"`
	// LastSeq is the high-water mark: the last staged batch sequence.
	LastSeq uint64 `json:"last_seq"`
	// Streams is how many connections currently claim this source.
	Streams int `json:"streams"`
	// Connects counts stream connections over the receiver's lifetime.
	Connects uint64 `json:"connects"`
	// Batches and Deltas count what was staged (duplicates excluded).
	Batches uint64 `json:"batches"`
	Deltas  uint64 `json:"deltas"`
	// Duplicates counts batches acked-but-dropped after reconnects.
	Duplicates uint64 `json:"duplicates"`
	// ThrottleEvents counts batches that hit backpressure;
	// ThrottleWait is the total time they spent waiting.
	ThrottleEvents uint64        `json:"throttle_events"`
	ThrottleWait   time.Duration `json:"throttle_wait_ns"`
	// MaxPendingSeen is the largest staged backlog observed while
	// handling this source's batches.
	MaxPendingSeen int `json:"max_pending_seen"`
	// LastContact is when the source last sent any frame.
	LastContact time.Time `json:"last_contact"`
}

// ReceiverStatus is the receiver's point-in-time state — the "cdc"
// block of /api/metrics.
type ReceiverStatus struct {
	// Streams is how many CDC connections are open right now.
	Streams int `json:"streams"`
	// Pending is the manager's staged-delta backlog (the lag between
	// what feeders shipped and what a promotion has absorbed).
	Pending int `json:"pending_deltas"`
	// MaxPending is the configured backpressure bound.
	MaxPending int `json:"max_pending"`
	// Batches, Deltas, Duplicates, ThrottleEvents and ThrottleWait
	// aggregate the per-source counters; MaxPendingSeen is the largest
	// backlog any source observed.
	Batches        uint64        `json:"batches"`
	Deltas         uint64        `json:"deltas"`
	Duplicates     uint64        `json:"duplicates"`
	ThrottleEvents uint64        `json:"throttle_events"`
	ThrottleWait   time.Duration `json:"throttle_wait_ns"`
	MaxPendingSeen int           `json:"max_pending_seen"`
	// Sources lists per-source detail, sorted by source id.
	Sources []SourceStatus `json:"sources,omitempty"`
}

// Status snapshots the receiver's stream, lag and sequence statistics.
func (rc *Receiver) Status() ReceiverStatus {
	rc.mu.Lock()
	st := ReceiverStatus{
		Streams:    rc.streams,
		MaxPending: rc.opts.MaxPending,
		Sources:    make([]SourceStatus, 0, len(rc.sources)),
	}
	srcs := make([]*sourceState, 0, len(rc.sources))
	for _, s := range rc.sources {
		srcs = append(srcs, s)
	}
	rc.mu.Unlock()
	st.Pending = rc.mgr.Pending()
	for _, s := range srcs {
		s.statsMu.Lock()
		ss := SourceStatus{
			Source:         s.name,
			LastSeq:        s.lastSeq.Load(),
			Streams:        s.streams,
			Connects:       s.connects,
			Batches:        s.batches,
			Deltas:         s.deltas,
			Duplicates:     s.dups,
			ThrottleEvents: s.throttleEvents,
			ThrottleWait:   s.throttleWait,
			MaxPendingSeen: s.maxPendingSeen,
			LastContact:    s.lastContact,
		}
		s.statsMu.Unlock()
		st.Batches += ss.Batches
		st.Deltas += ss.Deltas
		st.Duplicates += ss.Duplicates
		st.ThrottleEvents += ss.ThrottleEvents
		st.ThrottleWait += ss.ThrottleWait
		if ss.MaxPendingSeen > st.MaxPendingSeen {
			st.MaxPendingSeen = ss.MaxPendingSeen
		}
		st.Sources = append(st.Sources, ss)
	}
	sort.Slice(st.Sources, func(i, j int) bool { return st.Sources[i].Source < st.Sources[j].Source })
	return st
}

func (rc *Receiver) logf(format string, args ...any) {
	if rc.opts.Logf != nil {
		rc.opts.Logf(format, args...)
	}
}

// source returns (creating on first use) the state for a source id.
func (rc *Receiver) source(name string) *sourceState {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	s := rc.sources[name]
	if s == nil {
		s = &sourceState{name: name}
		rc.sources[name] = s
	}
	return s
}

// fingerprint is the schema fingerprint of the current generation's
// corpus. Schemas never change across promotions, so it is stable for
// the life of the receiver.
func (rc *Receiver) fingerprint() string {
	return SchemaFingerprint(rc.mgr.Current().DB)
}

// ServeStream handles one POST /cdc/stream connection: handshake,
// then a read loop staging batches and writing acks until the feeder
// closes the stream or an error ends it. It blocks for the stream's
// lifetime; mount it directly on a mux.
func (rc *Receiver) ServeStream(w http.ResponseWriter, r *http.Request) {
	// Full-duplex, so acks flow while the body is still being read; each
	// read and write re-arms its own deadline (internal/stream).
	ctrl, rw := rc.timing.Server(w, r)
	if err := ctrl.EnableFullDuplex(); err != nil {
		http.Error(w, "cdc: transport cannot stream full-duplex", http.StatusHTTPVersionNotSupported)
		return
	}

	br := bufio.NewReaderSize(rw, 1<<16)
	if err := readStreamHeader(br); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	hello, err := readFrame(br)
	if err != nil {
		http.Error(w, fmt.Sprintf("cdc: reading hello: %v", err), http.StatusBadRequest)
		return
	}
	if hello.kind != kindHello || hello.source == "" {
		http.Error(w, "cdc: first frame must be a hello naming a source", http.StatusBadRequest)
		return
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	if err := writeStreamHeader(rw); err != nil {
		return
	}
	// Acks are the feeder's flow-control clock: each frame is flushed.
	out := stream.NewWriter(rc.timing, rw, ctrl.Flush, writeFrame)
	defer out.Close()

	fp := rc.fingerprint()
	if hello.fingerprint != "" && hello.fingerprint != fp {
		rc.logf("cdc: source %q rejected: schema fingerprint mismatch", hello.source)
		out.Send(frame{kind: kindError, message: "schema fingerprint mismatch: feeder and receiver disagree on the corpus shape"})
		return
	}

	src := rc.source(hello.source)
	rc.mu.Lock()
	rc.streams++
	rc.mu.Unlock()
	src.statsMu.Lock()
	src.connects++
	src.streams++
	src.lastContact = time.Now()
	src.statsMu.Unlock()
	defer func() {
		rc.mu.Lock()
		rc.streams--
		rc.mu.Unlock()
		src.statsMu.Lock()
		src.streams--
		src.statsMu.Unlock()
		rc.logf("cdc: source %q disconnected at seq %d", src.name, src.lastSeq.Load())
	}()
	rc.logf("cdc: source %q connected, resuming after seq %d", src.name, src.lastSeq.Load())

	if err := out.Send(frame{
		kind:        kindWelcome,
		fingerprint: fp,
		seq:         src.lastSeq.Load(),
		epoch:       rc.mgr.Epoch(),
		pending:     uint32(rc.opts.MaxPending),
	}); err != nil {
		return
	}
	out.Heartbeat(func() frame { return frame{kind: kindHeartbeat, seq: src.lastSeq.Load()} })

	for {
		f, err := readFrame(br)
		if err == io.EOF {
			return // feeder finished cleanly
		}
		if err != nil {
			rc.logf("cdc: source %q stream error: %v", src.name, err)
			return
		}
		src.statsMu.Lock()
		src.lastContact = time.Now()
		src.statsMu.Unlock()
		switch f.kind {
		case kindHeartbeat:
			continue
		case kindBatch:
			if err := rc.handleBatch(r.Context(), src, out, f); err != nil {
				rc.logf("cdc: source %q: %v", src.name, err)
				return
			}
		default:
			out.Send(frame{kind: kindError, message: fmt.Sprintf("unexpected frame kind %d after handshake", f.kind)})
			return
		}
	}
}

// handleBatch applies the exactly-once staging protocol to one batch
// frame: duplicates are acked and dropped, the next sequence is staged
// (after any backpressure wait) and acked, and a gap is a terminal
// protocol error.
func (rc *Receiver) handleBatch(ctx context.Context, src *sourceState, out *stream.Writer[frame], f frame) error {
	src.stageMu.Lock()
	defer src.stageMu.Unlock()
	last := src.lastSeq.Load()
	switch {
	case f.seq <= last:
		// Replayed after a reconnect: already staged, so drop it but
		// ack the high-water mark — that is what unblocks the feeder.
		src.statsMu.Lock()
		src.dups++
		src.statsMu.Unlock()
		return out.Send(rc.ack(last))
	case f.seq == last+1:
		if rc.testBeforeStage != nil {
			rc.testBeforeStage(src.name, f.seq)
		}
		if err := rc.waitBelowBound(ctx, src); err != nil {
			return err
		}
		if err := rc.mgr.Ingest(f.deltas); err != nil {
			out.Send(frame{kind: kindError, message: fmt.Sprintf("batch %d rejected: %v", f.seq, err)})
			return fmt.Errorf("batch %d rejected: %w", f.seq, err)
		}
		src.lastSeq.Store(f.seq)
		pending := rc.mgr.Pending()
		src.statsMu.Lock()
		src.batches++
		src.deltas += uint64(len(f.deltas))
		if pending > src.maxPendingSeen {
			src.maxPendingSeen = pending
		}
		src.statsMu.Unlock()
		if rc.testBeforeAck != nil {
			rc.testBeforeAck(src.name, f.seq)
		}
		return out.Send(rc.ack(f.seq))
	default:
		msg := fmt.Sprintf("sequence gap: got batch %d, expected %d", f.seq, last+1)
		out.Send(frame{kind: kindError, message: msg})
		return fmt.Errorf("%w: %s", ErrProtocol, msg)
	}
}

// waitBelowBound blocks until the manager's staged backlog is below the
// backpressure bound (a promotion drains it) or the stream's context
// ends. Holding the source's stage mutex here is the mechanism: the
// next batch cannot even be considered until this one is through.
func (rc *Receiver) waitBelowBound(ctx context.Context, src *sourceState) error {
	p := rc.mgr.Pending()
	if p < rc.opts.MaxPending {
		return nil
	}
	start := time.Now()
	src.statsMu.Lock()
	src.throttleEvents++
	if p > src.maxPendingSeen {
		src.maxPendingSeen = p
	}
	src.statsMu.Unlock()
	defer func() {
		src.statsMu.Lock()
		src.throttleWait += time.Since(start)
		src.statsMu.Unlock()
	}()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(rc.opts.PollInterval):
		}
		if rc.mgr.Pending() < rc.opts.MaxPending {
			return nil
		}
	}
}

// ack builds the cumulative acknowledgement frame for a sequence.
func (rc *Receiver) ack(seq uint64) frame {
	return frame{
		kind:    kindAck,
		seq:     seq,
		epoch:   rc.mgr.Epoch(),
		pending: uint32(rc.mgr.Pending()),
	}
}
