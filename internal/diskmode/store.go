package diskmode

import (
	"fmt"
	"os"
	"sort"
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
	// always-resident index arrays plus the decoded page cache. Open
	// fails if the index alone exceeds it, or if what remains for the
	// cache cannot hold one largest page per shard (the floor below
	// which the resident ≤ budget guarantee would break). Zero means
	// 64 MiB, which holds the index of any corpus this repo generates
	// with room for a useful hot set.
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
	// (= Budget - MetaBytes) bounds the decoded page cache.
	Budget      int64 `json:"budget_bytes"`
	MetaBytes   int64 `json:"meta_bytes"`
	CacheBudget int64 `json:"cache_budget_bytes"`
	// BlobBytes is what the tables would cost fully decoded in RAM —
	// the number the budget is saving against.
	BlobBytes int64 `json:"blob_bytes"`
	// ResidentBytes is MetaBytes plus the decoded pages currently
	// cached — the store's actual table footprint.
	ResidentBytes int64 `json:"resident_bytes"`
	// Tables counts the paged tables in the file.
	Tables int `json:"tables"`
	// Hits, Misses and Evictions are cumulative page-cache counters;
	// CorruptPages counts faults that failed their page CRC (served by
	// fallback computation instead).
	Hits         int64 `json:"page_hits"`
	Misses       int64 `json:"page_misses"`
	Evictions    int64 `json:"page_evictions"`
	CorruptPages int64 `json:"corrupt_pages"`
}

// Store serves packed tables from one open v2 paged snapshot. Its
// table views are valid for the store's whole lifetime; after Close
// they answer ok == false instead of touching the closed file.
type Store struct {
	path  string
	f     *os.File
	idx   *artifact.PagedIndex
	cache *pageCache

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
	for _, t := range idx.Tables {
		s.metaBytes += t.MetaBytes()
	}
	s.cacheBudget = opts.Budget - s.metaBytes
	if s.cacheBudget <= 0 {
		f.Close()
		return nil, fmt.Errorf("diskmode: %s: resident index needs %d bytes, budget is %d — raise the table memory budget",
			path, s.metaBytes, opts.Budget)
	}
	// Every cache shard keeps its newest page even over budget (forward
	// progress: the faulting page must be admittable), so the resident
	// ≤ budget guarantee needs room for one largest page per shard.
	// Reject budgets below that floor instead of silently overshooting.
	if min := numShards * maxPageSize(idx); s.cacheBudget < min {
		f.Close()
		return nil, fmt.Errorf("diskmode: %s: page cache needs at least %d bytes for this file's page size (budget %d leaves %d) — raise the table memory budget",
			path, min, opts.Budget, s.cacheBudget)
	}
	s.cache = newPageCache(s.cacheBudget)
	s.refs.Store(1)
	return s, nil
}

// maxPageSize returns the largest decoded page footprint across the
// file's tables — the charge one cache shard can never evict below.
func maxPageSize(idx *artifact.PagedIndex) int64 {
	var max int64
	for _, t := range idx.Tables {
		for pg := range t.PageStarts {
			entries := int64(t.PageEnd(pg)) - int64(t.PageStarts[pg])
			if sz := entries*pagedEntrySize + entryOverhead; sz > max {
				max = sz
			}
		}
	}
	return max
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
	return Stats{
		Path:          s.path,
		Budget:        s.budget,
		MetaBytes:     s.metaBytes,
		CacheBudget:   s.cacheBudget,
		BlobBytes:     blob,
		ResidentBytes: s.metaBytes + s.cache.bytesResident(),
		Tables:        len(s.idx.Tables),
		Hits:          s.cache.hits.Load(),
		Misses:        s.cache.misses.Load(),
		Evictions:     s.cache.evictions.Load(),
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

// readPage loads the raw bytes of entries [lo, hi) of table t. A short
// read — the file shrank under the store — is an error.
func (s *Store) readPage(t *artifact.PagedTable, lo, hi uint64) ([]byte, error) {
	buf := make([]byte, int64(hi-lo)*pagedEntrySize)
	if n, err := s.f.ReadAt(buf, t.BlobOff+int64(lo)*pagedEntrySize); n < len(buf) {
		return nil, fmt.Errorf("diskmode: page read %d of %d bytes: %v", n, len(buf), err)
	}
	return buf, nil
}

// fault loads, verifies and decodes page pg of table t, admitting it
// to the cache. Corrupt pages (CRC mismatch) are counted and not
// admitted; the caller falls back to live computation.
func (s *Store) fault(t *artifact.PagedTable, pg int) (*page, bool) {
	lo, hi := uint64(t.PageStarts[pg]), t.PageEnd(pg)
	n := int(hi - lo)
	p := &page{
		nodes:  make([]graph.NodeID, n),
		scores: make([]float32, n),
		size:   int64(n)*pagedEntrySize + entryOverhead,
	}
	raw, err := s.readPage(t, lo, hi)
	if err == nil {
		err = t.DecodePage(pg, raw, p.nodes, p.scores)
	}
	if err != nil {
		s.corrupt.Add(1)
		return nil, false
	}
	s.cache.put(pageKey{table: uint8(t.Kind), page: uint32(pg)}, p)
	return p, true
}

// row serves one packed row of t: index walk, page fault (or cache
// hit), contiguous sub-slice. ok is false when the row is absent, the
// store is draining, or the page failed verification — every case the
// caller handles by falling back to computation.
func (s *Store) row(t *artifact.PagedTable, v graph.NodeID) ([]graph.NodeID, []float32, bool) {
	if !t.Has(v) {
		return nil, nil, false
	}
	lo, hi := uint64(t.Off[v]), uint64(t.Off[v+1])
	if lo == hi {
		return []graph.NodeID{}, []float32{}, true // cached-empty row
	}
	if !s.acquire() {
		return nil, nil, false
	}
	defer s.release()
	// The page holding entry lo holds the whole row (row alignment).
	pg := sort.Search(len(t.PageStarts), func(i int) bool { return uint64(t.PageStarts[i]) > lo }) - 1
	key := pageKey{table: uint8(t.Kind), page: uint32(pg)}
	p, ok := s.cache.get(key)
	if !ok {
		if p, ok = s.fault(t, pg); !ok {
			return nil, nil, false
		}
	}
	start := lo - uint64(t.PageStarts[pg])
	n := hi - lo
	return p.nodes[start : start+n : start+n], p.scores[start : start+n : start+n], true
}
