package repl

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"kqr/internal/frame"
)

// logMagic opens every segment file.
var logMagic = frame.Magic{'K', 'Q', 'R', 'L', 'O', 'G'}

// logVersion is the segment format this package writes.
const logVersion uint16 = 1

// segHeaderSize is the fixed segment header: magic, u16 version, u64
// first record index, u32 CRC over the preceding 16 bytes.
const segHeaderSize = 6 + 2 + 8 + 4

// defaultSegmentBytes rotates segments once their record payload
// crosses 4 MiB.
const defaultSegmentBytes = 4 << 20

// LogOptions tunes a delta log.
type LogOptions struct {
	// SegmentBytes rotates to a new segment once the current one holds
	// at least this many record bytes (default 4 MiB).
	SegmentBytes int64
	// NoSync skips the fsync after each append. Only tests and
	// in-process benchmarks should set it; a real leader must not.
	NoSync bool
}

// Log is the leader's ordered, durable delta log: CRC-framed records
// appended to segment files named by the index of their first record.
// Appends fsync before the record becomes visible to cursors, so every
// index at or below End()-1 is readable after a crash. The log is never
// compacted — any follower offset stays resumable.
type Log struct {
	dir  string
	opts LogOptions

	mu       sync.Mutex
	cur      *os.File // active segment, opened for append
	curFirst uint64   // first record index of the active segment
	curBytes int64    // record bytes in the active segment
	next     uint64   // index the next append receives
	bytes    int64    // total record bytes across all segments
}

// segmentName renders the canonical file name for a segment whose first
// record has the given index.
func segmentName(first uint64) string {
	return fmt.Sprintf("segment-%016x.kqrlog", first)
}

// OpenLog opens (or creates) the delta log in dir, scanning every
// segment to recover the end index and truncating a torn record off the
// tail of the last segment (an append interrupted mid-write). Any
// corruption before the tail is fatal: the log is the replication
// source of truth and must not silently skip records.
func OpenLog(dir string, opts LogOptions) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repl: opening log: %w", err)
	}
	l := &Log{dir: dir, opts: opts}
	firsts, err := l.segmentFirsts()
	if err != nil {
		return nil, err
	}
	if len(firsts) == 0 {
		if err := l.rotateLocked(0); err != nil {
			return nil, err
		}
		return l, nil
	}
	if firsts[0] != 0 {
		return nil, fmt.Errorf("repl: log %s starts at index %d, not 0 (missing segments?)", dir, firsts[0])
	}
	for i, first := range firsts {
		last := i == len(firsts)-1
		next, nbytes, err := l.recoverSegment(first, last)
		if err != nil {
			return nil, err
		}
		if next != first && i+1 < len(firsts) && firsts[i+1] != next {
			return nil, fmt.Errorf("repl: log %s: segment %s ends at index %d but next segment starts at %d",
				dir, segmentName(first), next, firsts[i+1])
		}
		l.bytes += nbytes
		if last {
			l.next = next
			l.curFirst = first
			l.curBytes = nbytes
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, segmentName(l.curFirst)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("repl: opening log tail: %w", err)
	}
	l.cur = f
	return l, nil
}

// segmentFirsts lists the first-record indexes of every segment in the
// directory, ascending.
func (l *Log) segmentFirsts() ([]uint64, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("repl: scanning log: %w", err)
	}
	var firsts []uint64
	for _, e := range entries {
		var first uint64
		if _, err := fmt.Sscanf(e.Name(), "segment-%016x.kqrlog", &first); err == nil {
			firsts = append(firsts, first)
		}
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	return firsts, nil
}

// recoverSegment validates one segment: header, then every record in
// order. On the last segment a torn tail (truncated frame) is cut off
// at the last intact record; anywhere else it is fatal. It returns the
// index after the segment's final record and the segment's record
// bytes.
func (l *Log) recoverSegment(first uint64, last bool) (next uint64, nbytes int64, err error) {
	path := filepath.Join(l.dir, segmentName(first))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, 0, fmt.Errorf("repl: recovering log: %w", err)
	}
	defer f.Close()
	if err := readSegmentHeader(f, first); err != nil {
		return 0, 0, fmt.Errorf("repl: segment %s: %w", segmentName(first), err)
	}
	next = first
	good := int64(segHeaderSize) // offset after the last intact record
	for {
		rec, n, rerr := readRecord(f)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			if !last {
				return 0, 0, fmt.Errorf("repl: segment %s record %d: %w", segmentName(first), next, rerr)
			}
			// Torn tail: truncate to the last intact record.
			if terr := f.Truncate(good); terr != nil {
				return 0, 0, fmt.Errorf("repl: truncating torn log tail: %w", terr)
			}
			if terr := f.Sync(); terr != nil {
				return 0, 0, fmt.Errorf("repl: truncating torn log tail: %w", terr)
			}
			break
		}
		if rec.Index != next {
			return 0, 0, fmt.Errorf("repl: segment %s holds record %d where %d was expected",
				segmentName(first), rec.Index, next)
		}
		next++
		good += int64(n)
		nbytes += int64(n)
	}
	return next, nbytes, nil
}

// writeSegmentHeader renders a segment header for a segment starting at
// the given record index.
func writeSegmentHeader(w io.Writer, first uint64) error {
	b := make([]byte, 0, segHeaderSize)
	b = append(b, logMagic[:]...)
	b = frame.AppendU16(b, logVersion)
	b = frame.AppendU64(b, first)
	_, err := w.Write(frame.AppendCRC(b, 0))
	return err
}

// readSegmentHeader validates a segment header against the index its
// file name claims.
func readSegmentHeader(r io.Reader, wantFirst uint64) error {
	rr := frame.NewReader(r)
	rr.Magic(logMagic)
	if v := rr.U16(); v != logVersion {
		rr.Failf("segment version %d, want %d", v, logVersion)
	}
	first := rr.U64()
	rr.Checksum("segment header")
	if rr.Err() != nil {
		return rr.Err()
	}
	if first != wantFirst {
		return fmt.Errorf("%w: segment header claims first index %d, file name says %d",
			ErrCorrupt, first, wantFirst)
	}
	return nil
}

// rotateLocked closes the active segment (if any) and atomically
// creates the next one starting at index first: the header is written
// to a temp file, fsynced, renamed into place, and the directory is
// synced — a crash leaves either the old tail or a complete new
// segment, never a header-less file. Callers hold l.mu (or own the log
// exclusively, as OpenLog does).
func (l *Log) rotateLocked(first uint64) error {
	if l.cur != nil {
		if err := l.cur.Sync(); err != nil {
			return fmt.Errorf("repl: rotating log: %w", err)
		}
		if err := l.cur.Close(); err != nil {
			return fmt.Errorf("repl: rotating log: %w", err)
		}
		l.cur = nil
	}
	tmp, err := os.CreateTemp(l.dir, ".segment-*")
	if err != nil {
		return fmt.Errorf("repl: rotating log: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := writeSegmentHeader(tmp, first); err != nil {
		tmp.Close()
		return fmt.Errorf("repl: rotating log: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("repl: rotating log: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("repl: rotating log: %w", err)
	}
	path := filepath.Join(l.dir, segmentName(first))
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("repl: rotating log: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("repl: rotating log: %w", err)
	}
	l.cur = f
	l.curFirst = first
	l.curBytes = 0
	return nil
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("repl: syncing log directory: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("repl: syncing log directory: %w", err)
	}
	return nil
}

// Append assigns the next index to rec, writes it to the active
// segment, and fsyncs before making it visible to cursors. It returns
// the assigned index. Rotation happens before the append once the
// active segment is full, so a record is never split across segments.
func (l *Log) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.curBytes >= l.opts.SegmentBytes {
		if err := l.rotateLocked(l.next); err != nil {
			return 0, err
		}
	}
	rec.Index = l.next
	n, err := writeRecord(l.cur, rec)
	if err != nil {
		return 0, fmt.Errorf("repl: appending record %d: %w", rec.Index, err)
	}
	if !l.opts.NoSync {
		if err := l.cur.Sync(); err != nil {
			return 0, fmt.Errorf("repl: syncing record %d: %w", rec.Index, err)
		}
	}
	// Only now does the record become visible: cursors gate on End(),
	// so they never observe a partially-written frame.
	l.next++
	l.curBytes += int64(n)
	l.bytes += int64(n)
	return rec.Index, nil
}

// End returns the index the next append will receive — one past the
// last durable record.
func (l *Log) End() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Bytes returns the total framed record bytes across all segments
// (segment headers excluded). A follower that has applied every record
// is exactly 0 bytes behind this value.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// Segments returns the number of segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	firsts, err := l.segmentFirsts()
	if err != nil {
		return 0
	}
	return len(firsts)
}

// Close syncs and closes the active segment. The log must not be used
// afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		return nil
	}
	err := l.cur.Sync()
	if cerr := l.cur.Close(); err == nil {
		err = cerr
	}
	l.cur = nil
	return err
}

// Cursor reads records [from, End()) in order, reopening segment files
// as it crosses boundaries. It is independent of the appender: Next
// returns false at the durable end of the log, and can be called again
// after more appends. A Cursor is not safe for concurrent use.
type Cursor struct {
	log  *Log
	next uint64
	f    *os.File
	rec  Record
	err  error
}

// Cursor positions a new cursor at index from. The position may be
// anywhere in [0, End()]; a cursor at End() simply reports no records
// until more are appended.
func (l *Log) Cursor(from uint64) *Cursor {
	return &Cursor{log: l, next: from}
}

// Next advances to the next record, returning false at the durable end
// of the log or on error (check Err). After false at end-of-log it may
// be called again later to pick up newly appended records.
func (c *Cursor) Next() bool {
	if c.err != nil {
		return false
	}
	if c.next >= c.log.End() {
		return false
	}
	if c.f == nil {
		if c.err = c.open(); c.err != nil {
			return false
		}
	}
	rec, _, err := readRecord(c.f)
	if err == io.EOF {
		// Clean end of a segment with more records durable: the rest
		// live in the next segment.
		c.f.Close()
		c.f = nil
		if c.err = c.open(); c.err != nil {
			return false
		}
		rec, _, err = readRecord(c.f)
	}
	if err != nil {
		c.err = fmt.Errorf("repl: reading record %d: %w", c.next, err)
		return false
	}
	if rec.Index != c.next {
		c.err = fmt.Errorf("repl: cursor read record %d where %d was expected", rec.Index, c.next)
		return false
	}
	c.rec = rec
	c.next++
	return true
}

// open locates the segment containing c.next, opens it, and seeks past
// the records before c.next.
func (c *Cursor) open() error {
	firsts, err := c.log.segmentFirsts()
	if err != nil {
		return err
	}
	i := sort.Search(len(firsts), func(i int) bool { return firsts[i] > c.next })
	if i == 0 {
		return fmt.Errorf("repl: no segment holds record %d", c.next)
	}
	first := firsts[i-1]
	f, err := os.Open(filepath.Join(c.log.dir, segmentName(first)))
	if err != nil {
		return fmt.Errorf("repl: opening segment: %w", err)
	}
	if err := readSegmentHeader(f, first); err != nil {
		f.Close()
		return fmt.Errorf("repl: segment %s: %w", segmentName(first), err)
	}
	for idx := first; idx < c.next; idx++ {
		if _, _, err := readRecord(f); err != nil {
			f.Close()
			return fmt.Errorf("repl: seeking to record %d: %w", c.next, err)
		}
	}
	c.f = f
	return nil
}

// Record returns the record Next advanced to.
func (c *Cursor) Record() Record { return c.rec }

// Err returns the first error the cursor hit, nil at a clean end.
func (c *Cursor) Err() error { return c.err }

// Close releases the cursor's open segment handle.
func (c *Cursor) Close() error {
	if c.f != nil {
		err := c.f.Close()
		c.f = nil
		return err
	}
	return nil
}
