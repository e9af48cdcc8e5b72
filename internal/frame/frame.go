// Package frame is the one byte layer under the repo's binary formats —
// KQRART snapshots (internal/artifact), the KQRREP bootstrap stream and
// .kqrlog segments (internal/repl) and KQRCDC frames (internal/cdc).
// It owns what those formats share and nothing they do not:
//
//   - a streaming Writer and Reader over little-endian primitives with a
//     running CRC-32/IEEE, a sticky error and (Reader) a byte budget
//     that is checked before anything is allocated;
//   - an append-style body encoder (AppendU8 … AppendStr) for messages
//     that are framed whole, decoded by the same Reader (Body);
//   - the record: u32 body length, body, u32 CRC-32 of the body
//     (WriteRecord / ReadRecord);
//   - the magic check, and the typed errors every format reports
//     corruption (and an unsupported version) with.
//
// Layouts — which fields a header has, what a section or a record body
// holds — stay with the package that owns the format; DESIGN.md §10
// has the tables.
//
// # Errors
//
// ErrMagic, ErrChecksum and ErrTruncated all wrap ErrCorrupt, so a
// caller that only needs "is this input damaged?" tests for ErrCorrupt
// and one that classifies tests for the specific sentinel. ErrVersion
// stands apart: a future-version input is unsupported, not damaged.
//
// No reader in this package allocates from a length it has not yet
// seen the bytes for: Block and ReadRecord grow their buffer as bytes
// arrive, so a hostile length prefix costs the sender what it sent.
package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Sentinel errors; every failure this package reports wraps one of
// them with positional detail. Test with errors.Is.
var (
	// ErrCorrupt is the root of every damage report.
	ErrCorrupt = errors.New("corrupt data")
	// ErrMagic means the input does not start with the expected magic —
	// it is not this format at all.
	ErrMagic = fmt.Errorf("%w: bad magic", ErrCorrupt)
	// ErrChecksum means a checksummed region failed its CRC.
	ErrChecksum = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	// ErrTruncated means the input ended early, or a length or count
	// field disagrees with the bytes that are there.
	ErrTruncated = fmt.Errorf("%w: truncated or inconsistent", ErrCorrupt)
	// ErrVersion means the format version is not one the caller reads.
	// Each format compares its own version field: the snapshot codec
	// reports this, the strict protocols file it under their own errors.
	ErrVersion = errors.New("unsupported format version")
)

// Magic opens every file and stream of one format.
type Magic [6]byte

// MaxString bounds any single encoded string (fingerprint, class label,
// term text, table name); a longer length field marks corruption.
const MaxString = 1 << 20

// ---- streaming writer ----------------------------------------------------

// writerBuf is the Writer's block size: primitives are staged here and
// reach the CRC and the underlying writer one block at a time.
const writerBuf = 64 << 10

// Writer streams little-endian primitives to an io.Writer while
// maintaining a running CRC-32 and a sticky error, so encoding code
// reads linearly. Output is staged in blocks; call Flush when done.
type Writer struct {
	w      io.Writer
	buf    []byte
	summed int // buf[:summed] is already in crc (or is a stored checksum)
	crc    uint32
	err    error
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, writerBuf)}
}

// sum folds the staged bytes not yet checksummed into the running CRC.
func (w *Writer) sum() {
	w.crc = crc32.Update(w.crc, crc32.IEEETable, w.buf[w.summed:])
	w.summed = len(w.buf)
}

func (w *Writer) flush() {
	w.sum()
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf, w.summed = w.buf[:0], 0
}

// Reserve stages n bytes and returns them for the caller to fill — the
// bulk path for entry arrays. The slice is valid until the next call.
func (w *Writer) Reserve(n int) []byte {
	if len(w.buf)+n > cap(w.buf) {
		w.flush()
		if n > cap(w.buf) {
			w.buf = make([]byte, 0, n)
		}
	}
	w.buf = w.buf[:len(w.buf)+n]
	return w.buf[len(w.buf)-n:]
}

// Bytes writes p verbatim; a large p bypasses the staging block.
func (w *Writer) Bytes(p []byte) {
	if len(p) < writerBuf/2 {
		copy(w.Reserve(len(p)), p)
		return
	}
	w.flush()
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	if w.err == nil {
		_, w.err = w.w.Write(p)
	}
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.Reserve(1)[0] = v }

// U16 writes a little-endian uint16.
func (w *Writer) U16(v uint16) { binary.LittleEndian.PutUint16(w.Reserve(2), v) }

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) { binary.LittleEndian.PutUint32(w.Reserve(4), v) }

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) { binary.LittleEndian.PutUint64(w.Reserve(8), v) }

// Str writes a u32 length and the string's bytes.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	copy(w.Reserve(len(s)), s)
}

// Checksum emits the running CRC — which the CRC itself is not part
// of — and starts the next checksummed region.
func (w *Writer) Checksum() {
	w.sum()
	binary.LittleEndian.PutUint32(w.Reserve(4), w.crc)
	w.summed, w.crc = len(w.buf), 0
}

// Flush writes out what is staged and returns the first error any
// write hit.
func (w *Writer) Flush() error {
	w.flush()
	return w.err
}

// ---- streaming reader ----------------------------------------------------

// blockStep is the smallest step Block grows its buffer by when the
// requested size exceeds what it already holds.
const blockStep = 64 << 10

// Reader streams little-endian primitives from an io.Reader,
// accumulating a CRC-32, enforcing the current region's byte budget,
// and holding a sticky error so decoding code reads linearly. It never
// reads ahead: after any call the underlying reader stands exactly
// after the last byte the Reader returned.
type Reader struct {
	r         io.Reader
	crc       uint32
	pos       int64
	limited   bool
	remaining uint64
	err       error
	buf       [8]byte
	scratch   []byte
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Body returns a Reader over a message that is already in memory (a
// record body, a section read as one block), the whole of it open as
// the region: Left counts what is undecoded and Done insists on zero.
func Body(b []byte) *Reader {
	r := NewReader(bytes.NewReader(b))
	r.Limit(uint64(len(b)))
	return r
}

// Err returns the first error the reader hit.
func (r *Reader) Err() error { return r.err }

// Fail records err as the reader's error unless one is already set (or
// err is nil).
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Failf fails the reader with a structural error — a field whose value
// the rest of the input contradicts — wrapping ErrTruncated.
func (r *Reader) Failf(format string, args ...any) {
	r.Fail(fmt.Errorf("%w: "+format, append([]any{ErrTruncated}, args...)...))
}

// Pos returns how many bytes have been consumed.
func (r *Reader) Pos() int64 { return r.pos }

// Limit opens a region of n payload bytes: until Done, reads beyond it
// fail and NeedCount answers against it.
func (r *Reader) Limit(n uint64) { r.limited, r.remaining = true, n }

// Left returns how many bytes of the open region are unread.
func (r *Reader) Left() uint64 { return r.remaining }

// Done closes the region, which must have been consumed exactly, and
// returns the reader's error.
func (r *Reader) Done() error {
	if r.err == nil && r.limited && r.remaining != 0 {
		r.Failf("%d bytes left undecoded", r.remaining)
	}
	r.limited = false
	return r.err
}

// need reports whether n more bytes fit in the open region, failing
// the reader when they do not.
func (r *Reader) need(n uint64) bool {
	if r.err != nil {
		return false
	}
	if r.limited && n > r.remaining {
		r.Failf("region claims %d bytes beyond its declared length", n-r.remaining)
		return false
	}
	return true
}

// NeedCount reports whether count records of at least per bytes each
// fit in the open region, failing the reader when they do not — the
// check to run before any allocation sized by an untrusted count,
// without the multiplication a hostile count could overflow.
func (r *Reader) NeedCount(count, per uint64) bool {
	if r.err != nil {
		return false
	}
	if r.limited && count > r.remaining/per {
		r.Failf("region claims %d records of %d bytes with %d bytes left", count, per, r.remaining)
		return false
	}
	return true
}

// read fills p, or — once the reader has failed — zeroes it, so that a
// primitive read off a failed reader is 0, not the previous field.
func (r *Reader) read(p []byte) {
	if r.need(uint64(len(p))) {
		_, err := io.ReadFull(r.r, p)
		if err == nil {
			if r.limited {
				r.remaining -= uint64(len(p))
			}
			r.pos += int64(len(p))
			r.crc = crc32.Update(r.crc, crc32.IEEETable, p)
			return
		}
		r.err = readError(err)
	}
	clear(p)
}

// readError classifies a failed read: running out of input is
// truncation, anything else is the transport's own error.
func readError(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: unexpected end of input", ErrTruncated)
	}
	return fmt.Errorf("frame: reading: %w", err)
}

// Block bulk-reads n bytes — one read and one CRC update per batch
// instead of one per field. The buffer is reused and grows as bytes
// arrive, never ahead of them. The returned slice is valid until the
// next Block, Skip or Str; callers must check Err (n may be zero, in
// which case the slice is legitimately empty).
func (r *Reader) Block(n uint64) []byte {
	if !r.need(n) {
		return nil
	}
	if n <= uint64(cap(r.scratch)) {
		b := r.scratch[:n]
		r.read(b)
		return b
	}
	b := r.scratch[:0]
	for uint64(len(b)) < n && r.err == nil {
		step := max(blockStep, len(b))
		if left := n - uint64(len(b)); left < uint64(step) {
			step = int(left)
		}
		b = slices.Grow(b, step)[:len(b)+step]
		r.read(b[len(b)-step:])
	}
	r.scratch = b
	return b
}

// Skip consumes n bytes through the CRC and the budget.
func (r *Reader) Skip(n uint64) {
	for n > 0 && r.err == nil {
		step := min(n, blockStep)
		r.Block(step)
		n -= step
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 { r.read(r.buf[:1]); return r.buf[0] }

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 { r.read(r.buf[:2]); return binary.LittleEndian.Uint16(r.buf[:2]) }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 { r.read(r.buf[:4]); return binary.LittleEndian.Uint32(r.buf[:4]) }

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 { r.read(r.buf[:8]); return binary.LittleEndian.Uint64(r.buf[:8]) }

// Str reads a u32 length and that many bytes (through Block's buffer);
// a length over MaxString fails the reader.
func (r *Reader) Str() string {
	n := r.U32()
	if r.err == nil && n > MaxString {
		r.Failf("%d-byte string exceeds the %d-byte bound", n, MaxString)
	}
	return string(r.Block(uint64(n)))
}

// Magic reads six bytes and fails the reader with ErrMagic unless they
// are m.
func (r *Reader) Magic(m Magic) {
	var got Magic
	r.read(got[:])
	if r.err == nil && got != m {
		r.err = fmt.Errorf("%w: input starts with %q, want %q", ErrMagic, got[:], m[:])
	}
}

// Next reads the byte that opens the next checksummed region (a
// section id). ok is false, without an error, when the input ends
// cleanly before it.
func (r *Reader) Next() (b uint8, ok bool) {
	if r.err != nil {
		return 0, false
	}
	if _, err := io.ReadFull(r.r, r.buf[:1]); err != nil {
		if err != io.EOF {
			r.err = readError(err)
		}
		return 0, false
	}
	r.pos++
	r.crc = crc32.Update(0, crc32.IEEETable, r.buf[:1])
	return r.buf[0], true
}

// Checksum reads a stored CRC — outside both the running value and the
// byte budget — compares it with the running CRC, and starts the next
// checksummed region. what names the region in the error.
func (r *Reader) Checksum(what string) {
	if r.err != nil {
		return
	}
	var b [4]byte
	if _, err := io.ReadFull(r.r, b[:]); err != nil {
		r.err = readError(err)
		return
	}
	r.pos += 4
	if stored := binary.LittleEndian.Uint32(b[:]); stored != r.crc {
		r.err = fmt.Errorf("%w: %s CRC %08x, stored %08x", ErrChecksum, what, r.crc, stored)
	}
	r.crc = 0
}

// ---- body encoding -------------------------------------------------------

// AppendU8 appends one byte.
func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

// AppendU16 appends a little-endian uint16.
func AppendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }

// AppendU32 appends a little-endian uint32.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends a little-endian uint64.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendStr appends a u32 length and the string's bytes.
func AppendStr(b []byte, s string) []byte {
	return append(AppendU32(b, uint32(len(s))), s...)
}

// AppendCRC appends the CRC-32 of b[from:].
func AppendCRC(b []byte, from int) []byte {
	return AppendU32(b, crc32.ChecksumIEEE(b[from:]))
}

// ---- records -------------------------------------------------------------

// WriteRecord frames body as one record — u32 body length, body, u32
// CRC-32 of the body — and writes it with a single Write, so an
// appender never leaves a frame half-handed to the kernel. It returns
// the framed size.
func WriteRecord(w io.Writer, body []byte) (int, error) {
	rec := make([]byte, 0, len(body)+8)
	rec = AppendU32(rec, uint32(len(body)))
	rec = append(rec, body...)
	rec = AppendCRC(rec, 4)
	if _, err := w.Write(rec); err != nil {
		return 0, err
	}
	return len(rec), nil
}

// ReadRecord reads one record and returns its CRC-verified body and
// framed size. A clean end of input before the first length byte is
// io.EOF (end of segment or stream); a length above max, a short
// record and a CRC mismatch wrap ErrTruncated / ErrChecksum. The body
// buffer grows as bytes arrive, so the length prefix alone allocates
// nothing.
func ReadRecord(r io.Reader, max uint32) (body []byte, size int, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, readError(err)
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n > max {
		return nil, 0, fmt.Errorf("%w: %d-byte record body exceeds the %d-byte bound", ErrTruncated, n, max)
	}
	rr := Reader{r: r}
	body = rr.Block(uint64(n))
	rr.Checksum("record")
	if rr.err != nil {
		return nil, 0, rr.err
	}
	return body, int(n) + 8, nil
}
