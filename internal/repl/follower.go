package repl

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"kqr/internal/live"
	"kqr/internal/stream"
)

// FollowerOptions tunes a replication follower.
type FollowerOptions struct {
	// Client performs the HTTP requests (default http.DefaultClient).
	// It must not impose an overall request timeout: the log stream is
	// long-lived by design.
	Client *http.Client
}

// FollowerStatus is the follower's replication state, embedded in the
// serving process's metrics.
type FollowerStatus struct {
	// Epoch is the follower's current generation epoch.
	Epoch uint64 `json:"epoch"`
	// LeaderEpoch is the last leader epoch the follower observed.
	LeaderEpoch uint64 `json:"leader_epoch"`
	// NextIndex is the next unapplied log index (the last applied
	// record is NextIndex-1).
	NextIndex uint64 `json:"next_index"`
	// LeaderLogEnd is the last observed end of the leader's log.
	LeaderLogEnd uint64 `json:"leader_log_end"`
	// BytesBehind is the leader's journaled record bytes the follower
	// has not applied yet; exactly 0 when fully caught up.
	BytesBehind int64 `json:"bytes_behind"`
	// Connected reports whether a log stream is currently open.
	Connected bool `json:"connected"`
	// Connects counts log streams opened, reconnects included.
	Connects uint64 `json:"connects"`
	// SnapshotFetches counts bootstrap snapshot downloads; a follower
	// that resumes after a restart of its tail loop keeps it at 1.
	SnapshotFetches int `json:"snapshot_fetches"`
	// LastContact is when the follower last received anything from the
	// leader (zero before the first bootstrap).
	LastContact time.Time `json:"last_contact,omitzero"`
}

// EpochLag is the number of promotions the follower is behind the
// leader.
func (s FollowerStatus) EpochLag() uint64 {
	if s.LeaderEpoch <= s.Epoch {
		return 0
	}
	return s.LeaderEpoch - s.Epoch
}

// Follower replicates a leader's index: Bootstrap downloads the
// snapshot, the caller builds an engine over the rebuilt corpus and
// hands its manager to Attach, then Run tails the leader's delta log,
// promoting the follower's generations in lockstep with the leader's.
// Run reconnects under the stream session rule (internal/stream) and
// resumes from the next unapplied index, so a follower killed mid-run
// continues without re-downloading the snapshot.
type Follower struct {
	base   string
	opts   FollowerOptions
	timing stream.Timing

	mgr *live.Manager

	mu          sync.Mutex
	st          FollowerStatus
	appliedByte int64 // leader log bytes through the last applied record
	leaderBytes int64 // last observed leader log bytes
}

// NewFollower creates a follower of the leader at base URL (scheme and
// host, e.g. "http://leader:8080"). Call Bootstrap, then Attach, then
// Run.
func NewFollower(base string, opts FollowerOptions) *Follower {
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	return &Follower{base: base, opts: opts, timing: stream.Default}
}

// Bootstrap downloads and decodes the leader's snapshot: the corpus to
// rebuild an engine over, the offline tables, and the log position to
// tail from. The caller opens its engine over snap.DB (producing a
// manager whose initial generation is built with the leader's config)
// and passes both to Attach.
func (f *Follower) Bootstrap(ctx context.Context) (*Bootstrap, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+"/repl/snapshot", nil)
	if err != nil {
		return nil, fmt.Errorf("repl: bootstrap: %w", err)
	}
	resp, err := f.timing.Do(f.opts.Client, req)
	if err != nil {
		return nil, fmt.Errorf("repl: bootstrap: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("repl: bootstrap: leader returned %s", resp.Status)
	}
	snap, err := readSnapshot(resp.Body)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.st.SnapshotFetches++
	f.st.LastContact = time.Now()
	f.mu.Unlock()
	return snap, nil
}

// Attach verifies that the generation the caller built over the
// snapshot's corpus reproduces the leader's fingerprint bit-for-bit,
// restores the leader's offline tables into it, and aligns the
// manager's epoch with the leader's. A fingerprint mismatch (different
// build config, or a non-deterministic rebuild) is ErrDiverged: this
// follower can never apply the leader's log.
func (f *Follower) Attach(mgr *live.Manager, snap *Bootstrap) error {
	g := mgr.Current()
	if fp := Fingerprint(mgr, g); fp != snap.Fingerprint {
		return fmt.Errorf("%w: follower fingerprint %q, leader %q", ErrDiverged, fp, snap.Fingerprint)
	}
	if err := live.RestoreArtifact(g, snap.Artifact); err != nil {
		return fmt.Errorf("repl: restoring bootstrap artifact: %w", err)
	}
	if err := mgr.Install(g, snap.Epoch, "bootstrap"); err != nil {
		return fmt.Errorf("repl: installing bootstrap generation: %w", err)
	}
	f.mu.Lock()
	f.mgr = mgr
	f.st.Epoch = snap.Epoch
	f.st.LeaderEpoch = snap.Epoch
	f.st.NextIndex = snap.NextIndex
	f.st.LeaderLogEnd = snap.NextIndex
	f.appliedByte = snap.LogBytes
	f.leaderBytes = snap.LogBytes
	f.mu.Unlock()
	return nil
}

// Status reports the follower's current replication state.
func (f *Follower) Status() FollowerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.st
	if behind := f.leaderBytes - f.appliedByte; behind > 0 {
		st.BytesBehind = behind
	}
	return st
}

// CaughtUp reports whether the follower is within maxEpochLag
// promotions of the last observed leader epoch and has heard from the
// leader at all — the follower's readiness condition.
func (f *Follower) CaughtUp(maxEpochLag uint64) bool {
	st := f.Status()
	return !st.LastContact.IsZero() && st.EpochLag() <= maxEpochLag
}

// Run tails the leader's log until ctx is cancelled, applying each
// record in lockstep through the attached manager. A stream that breaks
// or stalls reconnects, resuming from the next unapplied index; only
// divergence (ErrDiverged — the log and the follower's state can no
// longer line up) ends Run early. Run may be called again after it
// returns: it continues from the follower's last position.
func (f *Follower) Run(ctx context.Context) error {
	f.mu.Lock()
	attached := f.mgr != nil
	f.mu.Unlock()
	if !attached {
		return errors.New("repl: follower not attached (call Bootstrap and Attach first)")
	}
	return f.timing.Run(ctx, func(ctx context.Context) (bool, error) {
		progress, err := f.tail(ctx)
		if errors.Is(err, ErrDiverged) {
			err = stream.Terminal(err)
		}
		return progress, err
	})
}

// tail opens one log stream and applies records until it breaks. It
// reports whether any record (heartbeats included) arrived, and the
// error that ended the stream.
func (f *Follower) tail(ctx context.Context) (madeProgress bool, err error) {
	f.mu.Lock()
	from := f.st.NextIndex
	f.mu.Unlock()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/repl/log?from=%d", f.base, from), nil)
	if err != nil {
		return false, fmt.Errorf("repl: tail: %w", err)
	}
	resp, err := f.timing.Do(f.opts.Client, req)
	if err != nil {
		return false, fmt.Errorf("repl: tail: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusRequestedRangeNotSatisfiable:
		// The leader's log ends before our offset: it is not the log we
		// were following.
		return false, fmt.Errorf("%w: leader log ends before offset %d", ErrDiverged, from)
	default:
		return false, fmt.Errorf("repl: tail: leader returned %s", resp.Status)
	}

	f.setConnected(true)
	defer f.setConnected(false)
	for {
		rec, n, rerr := readRecord(resp.Body)
		if rerr != nil {
			// EOF, a stall, a torn frame, or a mid-stream corruption:
			// reconnect and re-request from the durable log.
			return madeProgress, rerr
		}
		madeProgress = true
		if rec.Kind == kindHeartbeat {
			if aerr := f.applyHeartbeat(rec); aerr != nil {
				return madeProgress, aerr
			}
			continue
		}
		if aerr := f.apply(ctx, rec, n); aerr != nil {
			return madeProgress, aerr
		}
	}
}

// setConnected flips the Connected status bit, counting each connect.
func (f *Follower) setConnected(v bool) {
	f.mu.Lock()
	f.st.Connected = v
	if v {
		f.st.Connects++
	}
	f.mu.Unlock()
}

// applyHeartbeat folds a heartbeat's leader position into the status.
// A heartbeat that contradicts the follower's position — leader log or
// epoch behind ours — means the leader lost its log, and the stream
// cannot be trusted.
func (f *Follower) applyHeartbeat(rec Record) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.st.LastContact = time.Now()
	if rec.Index < f.st.NextIndex || rec.Epoch < f.st.Epoch {
		return fmt.Errorf("%w: leader heartbeat at index %d epoch %d, follower at index %d epoch %d",
			ErrDiverged, rec.Index, rec.Epoch, f.st.NextIndex, f.st.Epoch)
	}
	f.st.LeaderEpoch = rec.Epoch
	f.st.LeaderLogEnd = rec.Index
	if rec.LogBytes > f.leaderBytes {
		f.leaderBytes = rec.LogBytes
	}
	return nil
}

// apply applies one log record in lockstep: the record must be the next
// unapplied index, and the transition it carries must land the manager
// on exactly the record's epoch. Any mismatch is ErrDiverged — the
// follower stops rather than serve state it cannot prove equal to the
// leader's. n is the record's framed size (for byte accounting).
func (f *Follower) apply(ctx context.Context, rec Record, n int) error {
	f.mu.Lock()
	mgr, next := f.mgr, f.st.NextIndex
	f.mu.Unlock()
	if rec.Index != next {
		return fmt.Errorf("%w: stream delivered record %d where %d was expected", ErrDiverged, rec.Index, next)
	}
	if want := mgr.Epoch() + 1; rec.Epoch != want {
		return fmt.Errorf("%w: record %d carries epoch %d, follower expects %d",
			ErrDiverged, rec.Index, rec.Epoch, want)
	}
	switch rec.Kind {
	case kindDeltas:
		if err := mgr.Ingest(rec.Deltas); err != nil {
			return fmt.Errorf("%w: record %d rejected: %v", ErrDiverged, rec.Index, err)
		}
		g, err := mgr.Promote(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("%w: promoting record %d: %v", ErrDiverged, rec.Index, err)
		}
		if g.Provenance.Epoch != rec.Epoch {
			return fmt.Errorf("%w: record %d promoted to epoch %d, wanted %d",
				ErrDiverged, rec.Index, g.Provenance.Epoch, rec.Epoch)
		}
	case kindEpoch:
		g, err := mgr.Advance(rec.Mode)
		if err != nil {
			return fmt.Errorf("%w: advancing for record %d: %v", ErrDiverged, rec.Index, err)
		}
		if g.Provenance.Epoch != rec.Epoch {
			return fmt.Errorf("%w: record %d advanced to epoch %d, wanted %d",
				ErrDiverged, rec.Index, g.Provenance.Epoch, rec.Epoch)
		}
	default:
		return fmt.Errorf("%w: record %d has unknown kind %d", ErrDiverged, rec.Index, rec.Kind)
	}
	f.mu.Lock()
	f.st.Epoch = rec.Epoch
	f.st.NextIndex = rec.Index + 1
	if rec.Epoch > f.st.LeaderEpoch {
		f.st.LeaderEpoch = rec.Epoch
	}
	if rec.Index+1 > f.st.LeaderLogEnd {
		f.st.LeaderLogEnd = rec.Index + 1
	}
	f.appliedByte += int64(n)
	if f.appliedByte > f.leaderBytes {
		f.leaderBytes = f.appliedByte
	}
	f.st.LastContact = time.Now()
	f.mu.Unlock()
	return nil
}
