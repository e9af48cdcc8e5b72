package repl

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"kqr/internal/live"
	"kqr/internal/stream"
)

// LeaderOptions tunes a replication leader.
type LeaderOptions struct {
	// SegmentBytes rotates log segments at this size (default 4 MiB).
	SegmentBytes int64
	// NoSync skips per-append fsync (tests and in-process benchmarks
	// only).
	NoSync bool
}

// Leader journals every epoch transition of a live.Manager into a
// durable delta log and serves the replication protocol: a bootstrap
// snapshot paired with a resume offset, and a long-lived record stream.
// Create one with NewLeader; it installs itself as the manager's
// journal, so it must exist before the first replicated transition and
// be detached with Close before the manager is torn down.
type Leader struct {
	mgr    *live.Manager
	log    *Log
	timing stream.Timing

	mu          sync.Mutex
	nextByEpoch map[uint64]position // epoch → log position after its record
	notify      chan struct{}       // closed and replaced on every append
}

// NewLeader opens (or resumes) the delta log in dir and installs the
// journal hook on mgr. Resuming requires the log's last journaled epoch
// to match the manager's current epoch — a fresh corpus over an old log
// directory is refused rather than silently shipping a log followers
// cannot apply.
func NewLeader(mgr *live.Manager, dir string, opts LeaderOptions) (*Leader, error) {
	log, err := OpenLog(dir, LogOptions{SegmentBytes: opts.SegmentBytes, NoSync: opts.NoSync})
	if err != nil {
		return nil, err
	}
	if end := log.End(); end > 0 {
		cur := log.Cursor(end - 1)
		if !cur.Next() {
			log.Close()
			return nil, fmt.Errorf("repl: reading last log record: %w", cur.Err())
		}
		last := cur.Record()
		cur.Close()
		if last.Epoch != mgr.Epoch() {
			log.Close()
			return nil, fmt.Errorf("repl: log %s ends at epoch %d but the index is at epoch %d; use a fresh log directory for a fresh corpus",
				dir, last.Epoch, mgr.Epoch())
		}
	}
	l := &Leader{
		mgr:         mgr,
		log:         log,
		timing:      stream.Default,
		nextByEpoch: map[uint64]position{mgr.Epoch(): {next: log.End(), bytes: log.Bytes()}},
		notify:      make(chan struct{}),
	}
	mgr.SetJournal(l.journal)
	return l, nil
}

// journal is the manager's epoch-transition hook: it appends the
// transition to the log (fsynced) before the new generation becomes
// current. An append failure aborts the transition.
func (l *Leader) journal(next *live.Generation, deltas []live.Delta) error {
	rec := Record{Epoch: next.Provenance.Epoch, Kind: kindEpoch, Mode: next.Provenance.Mode}
	if len(deltas) > 0 {
		rec = Record{Epoch: next.Provenance.Epoch, Kind: kindDeltas, Deltas: deltas}
	}
	idx, err := l.log.Append(rec)
	if err != nil {
		return err
	}
	// The manager's promotion lock serializes journal calls and the
	// leader appends from nowhere else, so Bytes() here is exactly the
	// position after idx.
	l.mu.Lock()
	l.nextByEpoch[next.Provenance.Epoch] = position{next: idx + 1, bytes: l.log.Bytes()}
	close(l.notify)
	l.notify = make(chan struct{})
	l.mu.Unlock()
	return nil
}

// resumePosition returns the log position a follower bootstrapping
// from the given epoch should tail from.
func (l *Leader) resumePosition(epoch uint64) (position, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p, ok := l.nextByEpoch[epoch]
	return p, ok
}

// Log exposes the leader's delta log (read-only use: End, Bytes,
// Cursor).
func (l *Leader) Log() *Log { return l.log }

// LeaderStatus is the leader's replication state, served as JSON by
// /repl/status and embedded in the server's metrics.
type LeaderStatus struct {
	// Epoch is the manager's current generation epoch.
	Epoch uint64 `json:"epoch"`
	// LogEnd is the index the next journaled record will receive.
	LogEnd uint64 `json:"log_end"`
	// LogBytes is the total framed record bytes in the log.
	LogBytes int64 `json:"log_bytes"`
	// Segments is the number of log segment files.
	Segments int `json:"segments"`
}

// Status reports the leader's current replication state.
func (l *Leader) Status() LeaderStatus {
	return LeaderStatus{
		Epoch:    l.mgr.Epoch(),
		LogEnd:   l.log.End(),
		LogBytes: l.log.Bytes(),
		Segments: l.log.Segments(),
	}
}

// Close detaches the journal hook and closes the log. In-flight
// streams end when their next read hits the closed log.
func (l *Leader) Close() error {
	l.mgr.SetJournal(nil)
	return l.log.Close()
}

// Handler returns the leader's replication endpoints:
//
//	GET /repl/snapshot   bootstrap stream (snapshot + resume offset)
//	GET /repl/log?from=N long-lived record stream from index N
//	GET /repl/status     JSON LeaderStatus
//
// Mount it at the server root; the paths are absolute.
func (l *Leader) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /repl/snapshot", l.handleSnapshot)
	mux.HandleFunc("GET /repl/log", l.handleLog)
	mux.HandleFunc("GET /repl/status", l.handleStatus)
	return mux
}

// handleSnapshot streams the current generation's bootstrap snapshot.
// The generation and its resume index are read in that order; because
// the journal runs before a generation is published, any generation a
// handler can observe already has its resume index registered.
func (l *Leader) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	g := l.mgr.Current()
	pos, ok := l.resumePosition(g.Provenance.Epoch)
	if !ok {
		http.Error(w, fmt.Sprintf("repl: no resume position for epoch %d", g.Provenance.Epoch), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, rw := l.timing.Server(w, r)
	if err := writeSnapshot(rw, l.mgr, g, pos); err != nil {
		// Headers are gone; all we can do is cut the stream so the
		// follower's CRC check fails loudly.
		return
	}
}

// handleLog streams framed records from the requested index, then
// follows the log: new records as they are journaled, heartbeats while
// idle. The stream ends when the client disconnects or a write stalls.
func (l *Leader) handleLog(w http.ResponseWriter, r *http.Request) {
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		http.Error(w, "repl: bad from offset", http.StatusBadRequest)
		return
	}
	if end := l.log.End(); from > end {
		http.Error(w, fmt.Sprintf("repl: offset %d past log end %d", from, end),
			http.StatusRequestedRangeNotSatisfiable)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	ctrl, rw := l.timing.Server(w, r)
	out := stream.NewWriter(l.timing, rw, ctrl.Flush, func(w io.Writer, rec Record) error {
		_, err := writeRecord(w, rec)
		return err
	})
	defer out.Close()
	out.Heartbeat(func() Record {
		return Record{Index: l.log.End(), Epoch: l.mgr.Epoch(), Kind: kindHeartbeat, LogBytes: l.log.Bytes()}
	})
	cur := l.log.Cursor(from)
	defer cur.Close()
	for {
		// Taken before the drain, so no append is missed: it is closed
		// after the next one, which is how log streams sleep.
		l.mu.Lock()
		appended := l.notify
		l.mu.Unlock()
		for cur.Next() {
			if err := out.Send(cur.Record()); err != nil {
				return // client gone or stalled
			}
		}
		if cur.Err() != nil {
			return // log closed or corrupt; follower reconnects
		}
		select {
		case <-appended:
		case <-out.Failed():
			return
		case <-r.Context().Done():
			return
		}
	}
}

// handleStatus serves the leader's replication state as JSON.
func (l *Leader) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(l.Status())
}
