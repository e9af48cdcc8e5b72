package frame_test

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"kqr/internal/frame"
	"kqr/internal/frame/frametest"
)

// sampleStream writes a stream exercising every Writer primitive, two
// checksummed regions and a bulk Reserve, and returns it with the
// reader-side mirror that must accept it.
func sampleStream(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := frame.NewWriter(&buf)
	w.Bytes([]byte("KQRTST"))
	w.U16(1)
	w.Str("fingerprint")
	w.Checksum()
	w.U8(7)
	w.U64(4 + 8 + 3*4)
	w.U32(3)
	w.U64(1 << 40)
	b := w.Reserve(3 * 4)
	for i := range b {
		b[i] = byte(i)
	}
	w.Checksum()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readSample(data []byte) error {
	r := frame.NewReader(bytes.NewReader(data))
	r.Magic(frame.Magic{'K', 'Q', 'R', 'T', 'S', 'T'})
	if v := r.U16(); v != 1 {
		r.Fail(frame.ErrVersion)
	}
	r.Str()
	r.Checksum("header")
	id, ok := r.Next()
	if !ok {
		if r.Err() != nil {
			return r.Err()
		}
		return io.ErrUnexpectedEOF // the sample always has a section
	}
	r.Limit(r.U64())
	n := r.U32()
	r.U64()
	r.Block(uint64(n) * 4)
	if id != 7 {
		r.Failf("section id %d", id)
	}
	r.Done()
	r.Checksum("section")
	return r.Err()
}

func TestStreamMatrix(t *testing.T) {
	frametest.Format{
		Decode: readSample,
		Typed:  []error{frame.ErrMagic, frame.ErrVersion, frame.ErrChecksum, frame.ErrTruncated, io.ErrUnexpectedEOF},
	}.Run(t, sampleStream(t))
}

// TestWriterBlocks: output and checksums do not depend on where the
// staging block happens to flush.
func TestWriterBlocks(t *testing.T) {
	big := bytes.Repeat([]byte{0xA5, 0x5A, 0x01}, 70_000) // > two staging blocks
	write := func(chunk int) []byte {
		var buf bytes.Buffer
		w := frame.NewWriter(&buf)
		for p := big; len(p) > 0; {
			n := min(chunk, len(p))
			w.Bytes(p[:n])
			p = p[n:]
		}
		w.Checksum()
		w.U32(9)
		w.Checksum()
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := write(len(big))
	for _, chunk := range []int{1, 7, 4096, 40_000, 65_536} {
		if got := write(chunk); !bytes.Equal(got, want) {
			t.Fatalf("chunk %d: output differs from the one-shot write", chunk)
		}
	}
	r := frame.NewReader(bytes.NewReader(want))
	if got := r.Block(uint64(len(big))); !bytes.Equal(got, big) {
		t.Fatal("payload mismatch")
	}
	r.Checksum("payload")
	r.U32()
	r.Checksum("tail")
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestWriterStickyError(t *testing.T) {
	boom := errors.New("disk full")
	w := frame.NewWriter(failWriter{boom})
	w.Bytes(make([]byte, 200_000))
	w.U32(1)
	w.Checksum()
	if err := w.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush = %v, want the writer's error", err)
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

func sampleRecord(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	body := frame.AppendStr(frame.AppendU64(frame.AppendU16(frame.AppendU8(nil, 3), 513), 1<<50), "body text")
	n, err := frame.WriteRecord(&buf, body)
	if err != nil || n != buf.Len() {
		t.Fatalf("WriteRecord = %d, %v; wrote %d", n, err, buf.Len())
	}
	return buf.Bytes()
}

func readSampleRecord(data []byte) error {
	body, n, err := frame.ReadRecord(bytes.NewReader(data), 1<<20)
	if err != nil {
		if body != nil || n != 0 {
			return errors.New("partial record returned with an error")
		}
		return err
	}
	d := frame.Body(body)
	if d.U8() != 3 || d.U16() != 513 || d.U64() != 1<<50 || d.Str() != "body text" {
		d.Failf("sample fields differ")
	}
	return d.Done()
}

func TestRecordMatrix(t *testing.T) {
	frametest.Format{
		Decode:   readSampleRecord,
		Typed:    []error{frame.ErrChecksum, frame.ErrTruncated, io.EOF},
		CleanCut: nil,
	}.Run(t, sampleRecord(t))
	// The one clean cut is the empty stream: io.EOF, bare.
	if _, _, err := frame.ReadRecord(bytes.NewReader(nil), 1<<20); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

// TestHostileLengthAllocatesNothing: a length prefix is a claim, not
// bytes. Four bytes announcing a 64 MiB record followed by EOF must
// come back as truncation having allocated next to nothing — the
// buffer grows as bytes arrive.
func TestHostileLengthAllocatesNothing(t *testing.T) {
	prefix := []byte{0xff, 0xff, 0xff, 0x03}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := frame.ReadRecord(bytes.NewReader(prefix), 64<<20)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, frame.ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a 4-byte prefix allocated %d bytes", got)
	}
	// The same through a declared section length.
	runtime.ReadMemStats(&before)
	r := frame.NewReader(bytes.NewReader([]byte("only these bytes")))
	r.Limit(1 << 60)
	r.Block(1 << 40)
	runtime.ReadMemStats(&after)
	if !errors.Is(r.Err(), frame.ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", r.Err())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a 16-byte stream allocated %d bytes", got)
	}
	// Over the bound: refused before any read.
	if _, _, err := frame.ReadRecord(bytes.NewReader(prefix), 1<<20); !errors.Is(err, frame.ErrTruncated) {
		t.Fatalf("over-bound length: err = %v, want ErrTruncated", err)
	}
}

func TestBlockGrowsAcrossSizes(t *testing.T) {
	data := make([]byte, 300_000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	r := frame.NewReader(bytes.NewReader(data))
	off := 0
	for _, n := range []int{10, 0, 70_000, 5, 200_000, 29_985} {
		if got := r.Block(uint64(n)); !bytes.Equal(got, data[off:off+n]) {
			t.Fatalf("Block(%d) at %d returned the wrong bytes", n, off)
		}
		off += n
	}
	if r.Err() != nil || r.Pos() != int64(len(data)) {
		t.Fatalf("err %v, pos %d", r.Err(), r.Pos())
	}
}

func TestBudget(t *testing.T) {
	r := frame.NewReader(bytes.NewReader(make([]byte, 64)))
	r.Limit(10)
	if !r.NeedCount(2, 5) || r.NeedCount(3, 5) {
		t.Fatal("NeedCount disagrees with a 10-byte region")
	}
	if !errors.Is(r.Err(), frame.ErrTruncated) {
		t.Fatalf("err = %v", r.Err())
	}
	r = frame.NewReader(bytes.NewReader(make([]byte, 64)))
	r.Limit(10)
	r.U64()
	r.U32() // 12 > 10
	if !errors.Is(r.Err(), frame.ErrTruncated) {
		t.Fatalf("read past the region: err = %v", r.Err())
	}
	// An over-long string is refused before it is allocated.
	r = frame.NewReader(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0x7f}))
	if r.Str(); !errors.Is(r.Err(), frame.ErrTruncated) {
		t.Fatalf("2 GiB string: err = %v", r.Err())
	}
}

func TestErrorTaxonomy(t *testing.T) {
	for _, err := range []error{frame.ErrMagic, frame.ErrChecksum, frame.ErrTruncated} {
		if !errors.Is(err, frame.ErrCorrupt) {
			t.Errorf("%v does not wrap ErrCorrupt", err)
		}
	}
	if errors.Is(frame.ErrVersion, frame.ErrCorrupt) {
		t.Error("ErrVersion must not read as corruption")
	}
}

func TestBodyMustBeConsumedExactly(t *testing.T) {
	d := frame.Body([]byte{1, 2, 3})
	d.U8()
	if err := d.Done(); !errors.Is(err, frame.ErrTruncated) {
		t.Fatalf("Done with 2 bytes left = %v", err)
	}
	d = frame.Body([]byte{1, 2, 3})
	d.U32()
	if err := d.Done(); !errors.Is(err, frame.ErrTruncated) {
		t.Fatalf("reading 4 of 3 bytes = %v", err)
	}
}

// FuzzFrame throws arbitrary bytes at the record reader, the body
// decoder and the streaming reader: no panic, every failure typed, and
// an accepted record re-frames to the bytes it came from.
func FuzzFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(sampleRecord(f))
	f.Add(sampleStream(f))
	f.Add([]byte{0xff, 0xff, 0xff, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		body, n, err := frame.ReadRecord(bytes.NewReader(data), 1<<16)
		switch {
		case err == nil:
			var re bytes.Buffer
			if _, err := frame.WriteRecord(&re, body); err != nil || !bytes.Equal(re.Bytes(), data[:n]) {
				t.Fatalf("accepted record does not re-frame to its bytes (%v)", err)
			}
			d := frame.Body(body)
			d.U8()
			d.Str()
			d.U64()
			if err := d.Done(); err != nil && !errors.Is(err, frame.ErrTruncated) {
				t.Fatalf("untyped decoder error %v", err)
			}
		case err != io.EOF && !errors.Is(err, frame.ErrChecksum) && !errors.Is(err, frame.ErrTruncated):
			t.Fatalf("untyped record error %v", err)
		}
		if err := readSample(data); err != nil && err != io.ErrUnexpectedEOF &&
			!errors.Is(err, frame.ErrCorrupt) && !errors.Is(err, frame.ErrVersion) {
			t.Fatalf("untyped stream error %v", err)
		}
	})
}
