package diskmode

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"kqr/internal/artifact"
	"kqr/internal/packed"
)

// Options tunes Open.
type Options struct {
	// Budget is the total resident byte budget for table state: the
	// always-resident index arrays plus the page frames. Open fails if
	// the index alone exceeds it, or if what remains cannot hold one
	// frame of the file's largest page. Zero means 64 MiB, which holds
	// the index of any corpus this repo generates with room for a
	// useful hot set.
	Budget int64
}

// Resolve returns o with a zero Budget replaced by its default, or the
// error for a negative one. Open calls it; a config layer that spends
// part of the budget elsewhere before opening the store calls it too.
func (o Options) Resolve() (Options, error) {
	if o.Budget == 0 {
		o.Budget = 64 << 20
	}
	if o.Budget < 0 {
		return o, fmt.Errorf("diskmode: negative table memory budget %d", o.Budget)
	}
	return o, nil
}

// Stats is a point-in-time snapshot of a store's counters, exported
// verbatim by the server's /api/metrics disk block.
type Stats struct {
	// Path is the snapshot file being served.
	Path string `json:"path"`
	// Budget, MetaBytes and CacheBudget are the configured resident
	// budget and its split: MetaBytes is always resident, CacheBudget
	// (= Budget - MetaBytes) bounds the page frames.
	Budget      int64 `json:"budget_bytes"`
	MetaBytes   int64 `json:"meta_bytes"`
	CacheBudget int64 `json:"cache_budget_bytes"`
	// BlobBytes is what the tables cost resident in RAM mode — the
	// number the budget is saving against.
	BlobBytes int64 `json:"blob_bytes"`
	// ResidentBytes is MetaBytes plus the page frames allocated so far —
	// the store's actual table footprint.
	ResidentBytes int64 `json:"resident_bytes"`
	// Tables counts the paged tables in the file.
	Tables int `json:"tables"`
	// Hits, Misses and Evictions are cumulative page-cache counters (a
	// miss is a fault); CorruptPages counts faults that failed their
	// page read or CRC (served by fallback computation instead).
	Hits         int64 `json:"page_hits"`
	Misses       int64 `json:"page_misses"`
	Evictions    int64 `json:"page_evictions"`
	CorruptPages int64 `json:"corrupt_pages"`
}

// Store serves packed tables from one open v2 paged snapshot. Its
// table views are valid for the store's whole lifetime; after Close
// they answer ok == false instead of touching the closed file.
type Store struct {
	path   string
	f      *os.File
	idx    *artifact.PagedIndex
	tables []*table // idx.Tables, each with its page → frame map
	arena  *arena

	budget      int64
	metaBytes   int64
	cacheBudget int64

	corrupt atomic.Int64

	// Lifecycle: refs counts the owner (1 at Open) plus every reader
	// currently inside a fault. Close drops the owner ref and waits;
	// the last release tears down exactly once.
	refs     atomic.Int64
	closed   atomic.Bool
	teardown sync.Once
	done     chan struct{}
}

// Open opens the v2 paged snapshot at path and returns a store serving
// its tables within opts.Budget resident bytes. A non-empty
// fingerprint must match the file's or Open fails (artifact
// sentinels: ErrVersion for a v1 file, ErrFingerprint for a stale one).
func Open(path, fingerprint string, opts Options) (*Store, error) {
	opts, err := opts.Resolve()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("diskmode: %w", err)
	}
	idx, err := artifact.ReadPagedIndex(f, fingerprint)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("diskmode: %s: %w", path, err)
	}
	s := &Store{path: path, f: f, idx: idx, budget: opts.Budget, done: make(chan struct{})}
	frameBytes, pages := 0, 0
	for _, t := range idx.Tables {
		tab := &table{PagedTable: t, s: s, frameOf: make([]int32, len(t.PageStarts))}
		for pg := range tab.frameOf {
			tab.frameOf[pg] = -1
			frameBytes = max(frameBytes, t.PageSize(pg))
		}
		s.tables = append(s.tables, tab)
		s.metaBytes += t.MetaBytes() + int64(len(tab.frameOf))*4
		pages += len(tab.frameOf)
	}
	s.cacheBudget = opts.Budget - s.metaBytes
	if s.cacheBudget <= 0 {
		f.Close()
		return nil, fmt.Errorf("diskmode: %s: resident index needs %d bytes, budget is %d — raise the table memory budget",
			path, s.metaBytes, opts.Budget)
	}
	// A fault needs a frame to read into, so the budget must hold one.
	if s.cacheBudget < int64(frameBytes) {
		f.Close()
		return nil, fmt.Errorf("diskmode: %s: page cache needs at least %d bytes for this file's page size (budget %d leaves %d) — raise the table memory budget",
			path, frameBytes, opts.Budget, s.cacheBudget)
	}
	frames := pages // no more frames than pages
	if frameBytes > 0 {
		frames = min(frames, int(s.cacheBudget/int64(frameBytes)))
	}
	s.arena = newArena(frames, frameBytes)
	s.refs.Store(1)
	return s, nil
}

// Index exposes the resident index (vocabulary included), read-only.
func (s *Store) Index() *artifact.PagedIndex { return s.idx }

// Path returns the snapshot file the store serves.
func (s *Store) Path() string { return s.path }

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	var blob int64
	for _, t := range s.idx.Tables {
		blob += t.BlobBytes()
	}
	a := s.arena
	a.mu.Lock()
	frames, hits, misses, evictions := len(a.frames), a.hits, a.misses, a.evictions
	a.mu.Unlock()
	return Stats{
		Path:          s.path,
		Budget:        s.budget,
		MetaBytes:     s.metaBytes,
		CacheBudget:   s.cacheBudget,
		BlobBytes:     blob,
		ResidentBytes: s.metaBytes + int64(frames)*int64(a.frameBytes),
		Tables:        len(s.idx.Tables),
		Hits:          hits,
		Misses:        misses,
		Evictions:     evictions,
		CorruptPages:  s.corrupt.Load(),
	}
}

// acquire takes a reader reference; false means the store is draining
// or closed and the caller must fall back.
func (s *Store) acquire() bool {
	s.refs.Add(1)
	if s.closed.Load() {
		s.release()
		return false
	}
	return true
}

// release drops a reference; the last one out tears down.
func (s *Store) release() {
	if s.refs.Add(-1) == 0 {
		s.teardown.Do(func() {
			s.f.Close()
			close(s.done)
		})
	}
}

// Close drains and tears down: it marks the store closed (new readers
// immediately fall back), drops the owner reference, and blocks until
// the last in-flight fault releases and the file is closed. Safe to
// call more than once.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		<-s.done
		return nil
	}
	s.release()
	<-s.done
	return nil
}

// Table returns the store's page-backed table of the given kind, nil
// when the file carries no such section. It is the value the root
// package hands to a row store's Install in disk mode: packed serves
// its rows from the frames Pin hands out, and every miss (absent row,
// draining store, corrupt page) answers ok == false, which the row
// store answers by computing the row for its caller without keeping it.
func (s *Store) Table(kind artifact.TableKind) *packed.Table {
	for _, t := range s.tables {
		if t.Kind == kind {
			return packed.NewTable(t.Index, t)
		}
	}
	return nil
}

// Pin pins the page holding entries lo to hi — one row, by row
// alignment — and returns the row's bytes in its frame with the frame
// read-locked: packed copies or probes the row and unlocks. ok is false
// when the store is draining or the page failed its read or CRC — the
// cases the row store handles by computing the row.
func (t *table) Pin(lo, hi uint32) ([]byte, *sync.RWMutex, bool) {
	if !t.s.acquire() {
		return nil, nil, false
	}
	defer t.s.release()
	pg, from, to := t.Locate(lo, hi)
	f, ok := t.s.pin(t, pg)
	if !ok {
		return nil, nil, false
	}
	return f.buf[from:to], &f.mu, true
}
