package live

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kqr/internal/relstore"
)

// Options tunes a Manager beyond the generation-building Config.
type Options struct {
	// StalenessMaxDeltas triggers an automatic asynchronous promotion
	// once that many deltas are pending (0 = no count bound).
	StalenessMaxDeltas int
	// StalenessMaxAge triggers an automatic asynchronous promotion once
	// the oldest pending delta has waited that long (0 = no age bound).
	StalenessMaxAge time.Duration
	// OnRetire, if set, observes each generation as it stops being
	// current (after the swap; in-flight readers may still hold it).
	OnRetire func(*Generation)
	// OnError, if set, observes failures of staleness-triggered
	// automatic promotions, which have no caller to return to.
	OnError func(error)
}

// Manager owns the current Generation and the pending delta stream.
// Current is one atomic load and is safe from any number of goroutines;
// Ingest, Promote, Swap and Close may also be called concurrently.
type Manager struct {
	cfg  Config
	opts Options

	cur atomic.Pointer[Generation]

	mu       sync.Mutex // guards pending, ageTimer, closed
	pending  []Delta
	ageTimer *time.Timer
	closed   bool

	promoteMu sync.Mutex // serializes every publish
	// journal, when set, observes every epoch transition under promoteMu
	// before the new generation becomes current (write-ahead order). A
	// journal error aborts the transition.
	journal func(next *Generation, deltas []Delta) error
}

// NewManager validates cfg — before anything is built, so an invalid
// value costs nothing — then builds the initial generation over db and
// publishes it as epoch 1, mode "initial".
func NewManager(db *relstore.Database, cfg Config, opts Options) (*Manager, error) {
	if cfg.Mode < ModeContextual || cfg.Mode > ModeCooccur {
		return nil, fmt.Errorf("live: unknown similarity mode %d", int(cfg.Mode))
	}
	m := &Manager{cfg: cfg, opts: opts}
	g, err := m.Build(db)
	if err != nil {
		return nil, err
	}
	if _, err := m.publish(nil, g, 1, "initial", nil); err != nil {
		return nil, err
	}
	return m, nil
}

// Config returns the configuration every generation of this manager is
// built with — the only copy.
func (m *Manager) Config() Config { return m.cfg }

// Current returns the generation serving reads right now. Callers keep
// using the returned value for the whole request; a promotion happening
// meanwhile does not disturb it.
func (m *Manager) Current() *Generation { return m.cur.Load() }

// SetJournal installs the epoch-transition journal: f runs under the
// promotion lock for every transition (publish), with the generation
// about to become current and the deltas that produced it (nil for
// deltaless transitions such as reloads), *before* the pointer is
// stored — write-ahead order, so a journaled transition is durable
// before any reader can observe it. An error from f aborts the
// transition (Promote restores its staged deltas). A nil f removes the
// journal. The replication leader is the intended caller; a follower
// has none.
func (m *Manager) SetJournal(f func(next *Generation, deltas []Delta) error) {
	m.promoteMu.Lock()
	m.journal = f
	m.promoteMu.Unlock()
}

// Epoch returns the current generation's epoch.
func (m *Manager) Epoch() uint64 { return m.Current().Provenance.Epoch }

// Pending returns how many deltas are staged for the next promotion.
func (m *Manager) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// Ingest validates and stages deltas. It does not rebuild anything; the
// deltas take effect at the next promotion. Crossing the staleness
// bounds (pending count, oldest-delta age) schedules an automatic
// asynchronous promotion.
func (m *Manager) Ingest(deltas []Delta) error {
	if len(deltas) == 0 {
		return nil
	}
	db := m.Current().DB
	for i, d := range deltas {
		if err := validateDelta(db, d); err != nil {
			return &DeltaError{Index: i, Err: err}
		}
	}
	var promoteNow bool
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return fmt.Errorf("live: manager closed")
	}
	wasEmpty := len(m.pending) == 0
	m.pending = append(m.pending, deltas...)
	if m.opts.StalenessMaxDeltas > 0 && len(m.pending) >= m.opts.StalenessMaxDeltas {
		promoteNow = true
	}
	if wasEmpty && m.opts.StalenessMaxAge > 0 && m.ageTimer == nil {
		m.ageTimer = time.AfterFunc(m.opts.StalenessMaxAge, m.autoPromote)
	}
	m.mu.Unlock()
	if promoteNow {
		go m.autoPromote()
	}
	return nil
}

// autoPromote runs a staleness-triggered promotion with no caller to
// report to; failures go to OnError.
func (m *Manager) autoPromote() {
	if _, err := m.Promote(context.Background()); err != nil {
		if m.opts.OnError != nil {
			m.opts.OnError(err)
		}
	}
}

// Promote applies the staged deltas to a copy-on-write rebuild of the
// corpus, builds the next generation, and atomically makes it current.
// With nothing pending it returns the current generation unchanged.
// On failure the staged deltas are restored and the current generation
// keeps serving. Promotions are serialized; concurrent callers queue.
func (m *Manager) Promote(ctx context.Context) (*Generation, error) {
	m.promoteMu.Lock()
	defer m.promoteMu.Unlock()

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("live: manager closed")
	}
	deltas := m.pending
	m.pending = nil
	if m.ageTimer != nil {
		m.ageTimer.Stop()
		m.ageTimer = nil
	}
	m.mu.Unlock()

	old := m.Current()
	if len(deltas) == 0 {
		return old, nil
	}

	next, err := m.rebuild(ctx, old, deltas)
	if err == nil {
		next, err = m.publish(old, next, old.Provenance.Epoch+1, "full", deltas)
	}
	if err != nil {
		// Put the deltas back ahead of anything ingested meanwhile.
		m.mu.Lock()
		m.pending = append(deltas, m.pending...)
		m.mu.Unlock()
		return nil, err
	}
	return next, nil
}

// rebuild constructs the successor generation: delta application,
// graph/store construction, offline precompute, packing, and the
// promotion's counts and phase timings (publish stamps the rest).
func (m *Manager) rebuild(ctx context.Context, old *Generation, deltas []Delta) (*Generation, error) {
	start := time.Now()
	var prov Provenance
	for _, d := range deltas {
		if d.Op == OpDelete {
			prov.Deletes++
		} else {
			prov.Inserts++
		}
	}

	t0 := time.Now()
	db, cascades, err := applyDeltas(old.DB, deltas)
	if err != nil {
		return nil, err
	}
	prov.ApplyDeltas = time.Since(t0)
	prov.CascadeDeletes = cascades

	t0 = time.Now()
	next, err := m.Build(db)
	if err != nil {
		return nil, err
	}
	prov.BuildGraph = time.Since(t0)

	// The next generation takes the old one's state: after a complete
	// generation it is precomputed and packed before it becomes visible
	// (readers never see it half warm), after a lazy one it stays lazy.
	if old.Complete() {
		if prov.Precompute, prov.Pack, err = next.Warm(ctx); err != nil {
			return nil, err
		}
	}

	// Build timed the mend-index construction into the fresh
	// generation's provenance; carry it into the promotion record
	// before overwriting.
	prov.Mend = next.Provenance.Mend

	prov.Total = time.Since(start)
	next.Provenance = prov
	return next, nil
}

// Swap installs an externally built generation (e.g. restored from a
// snapshot on SIGHUP) as the next epoch with mode "reload", returning
// the retired generation. Pending deltas stay staged and will apply on
// top of the swapped-in corpus at the next promotion.
func (m *Manager) Swap(g *Generation) (*Generation, error) {
	m.promoteMu.Lock()
	defer m.promoteMu.Unlock()
	old := m.Current()
	if _, err := m.publish(old, g, old.Provenance.Epoch+1, "reload", nil); err != nil {
		return nil, err
	}
	return old, nil
}

// Install makes g current at the given epoch with the given provenance
// mode, bypassing the usual previous+1 assignment — the replication
// follower's bootstrap path, where the epoch is dictated by the leader.
// The epoch must advance, except that g may be the current generation
// itself (bootstrap restores tables in place and then pins the leader's
// epoch on it): that self-install may keep the epoch, and retires
// nothing.
func (m *Manager) Install(g *Generation, epoch uint64, mode string) error {
	m.promoteMu.Lock()
	defer m.promoteMu.Unlock()
	_, err := m.publish(m.Current(), g, epoch, mode, nil)
	return err
}

// Advance republishes the current generation under the next epoch with
// the given provenance mode — the follower's counterpart to a deltaless
// leader transition (a snapshot reload): the corpus did not change, so
// the derived state is reused wholesale, but the epoch must advance to
// stay in lockstep. The returned generation is a shallow copy sharing
// every store with its predecessor (all of them are immutable or
// concurrency-safe), with a fresh provenance.
func (m *Manager) Advance(mode string) (*Generation, error) {
	m.promoteMu.Lock()
	defer m.promoteMu.Unlock()
	old := m.Current()
	next := *old
	next.Provenance = Provenance{}
	return m.publish(old, &next, old.Provenance.Epoch+1, mode, nil)
}

// publish is the one place a generation becomes current. Callers hold
// promoteMu (NewManager: before the manager is shared) and pass the
// generation it replaces (nil for the first). In order, it
//   - refuses an epoch below old's, or equal to it unless next is old
//     itself (a bootstrap self-install);
//   - stamps epoch, mode, TotalTerms and PromotedAt into next's
//     provenance — on a self-install into a shallow copy, so nothing a
//     reader holds is mutated;
//   - runs the journal, if set: write-ahead, so its error returns with
//     Current, Epoch and the staged deltas as they were;
//   - stores the pointer;
//   - retires old exactly once, and never on a self-install.
//
// It returns the generation now current.
func (m *Manager) publish(old, next *Generation, epoch uint64, mode string, deltas []Delta) (*Generation, error) {
	if next == nil {
		return nil, fmt.Errorf("live: nil generation")
	}
	self := next == old
	if old != nil {
		if cur := old.Provenance.Epoch; epoch < cur || epoch == cur && !self {
			return nil, fmt.Errorf("live: %s would not advance the epoch (%d after %d)", mode, epoch, cur)
		}
	}
	if self {
		cp := *old
		next = &cp
	}
	next.Provenance.Epoch = epoch
	next.Provenance.Mode = mode
	next.Provenance.TotalTerms = next.TG.NumTermNodes()
	next.Provenance.PromotedAt = time.Now()
	if m.journal != nil {
		if err := m.journal(next, deltas); err != nil {
			return nil, fmt.Errorf("live: journaling %s to epoch %d: %w", mode, epoch, err)
		}
	}
	m.cur.Store(next)
	if old != nil && !self && m.opts.OnRetire != nil {
		m.opts.OnRetire(old)
	}
	return next, nil
}

// Close stops the staleness timer and rejects further ingestion. The
// current generation keeps serving reads.
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	if m.ageTimer != nil {
		m.ageTimer.Stop()
		m.ageTimer = nil
	}
}
