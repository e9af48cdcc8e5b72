package diskmode

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"kqr/internal/artifact"
	"kqr/internal/graph"
)

// pagedEntrySize mirrors the v2 blob entry: u32 node + f32 score.
const pagedEntrySize = 8

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
	// BlobBytes is what the tables would cost fully decoded in RAM —
	// the number the budget is saving against.
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
		tab := &table{PagedTable: t, frameOf: make([]int32, len(t.PageStarts))}
		for pg := range tab.frameOf {
			tab.frameOf[pg] = -1
			frameBytes = max(frameBytes, int(t.PageEnd(pg)-uint64(t.PageStarts[pg]))*pagedEntrySize)
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

// readPage reads page pg of table t into buf and verifies it against
// its stored CRC. A short read — the file shrank under the store — or a
// mismatch answers false.
func (s *Store) readPage(t *artifact.PagedTable, pg int, buf []byte) bool {
	lo, hi := uint64(t.PageStarts[pg]), t.PageEnd(pg)
	raw := buf[:(hi-lo)*pagedEntrySize]
	n, _ := s.f.ReadAt(raw, t.BlobOff+int64(lo)*pagedEntrySize)
	return n == len(raw) && t.VerifyPage(pg, raw) == nil
}

// pinRow finds v's row in t and pins the page holding it: index walk,
// then a frame hit or a fault. It returns the frame read-locked and the
// row's raw entries in it; the caller decodes them and unlocks. ok is
// false when the row is absent, the store is draining, or the page
// failed verification — every case the caller handles by falling back
// to computation. An empty row answers ok with no frame.
func (s *Store) pinRow(t *table, v graph.NodeID) (f *frame, raw []byte, ok bool) {
	if !t.Has(v) {
		return nil, nil, false
	}
	lo, hi := t.Off[v], t.Off[v+1]
	if lo == hi {
		return nil, nil, true // cached-empty row
	}
	if !s.acquire() {
		return nil, nil, false
	}
	defer s.release()
	// The page holding entry lo holds the whole row (row alignment).
	pg, found := slices.BinarySearch(t.PageStarts, lo)
	if !found {
		pg--
	}
	if f, ok = s.pin(t, pg); !ok {
		return nil, nil, false
	}
	start := (lo - t.PageStarts[pg]) * pagedEntrySize
	return f, f.buf[start : start+(hi-lo)*pagedEntrySize], true
}
