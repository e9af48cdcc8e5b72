package cdc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"reflect"
	"testing"

	framing "kqr/internal/frame"
	"kqr/internal/frame/frametest"
	"kqr/internal/live"
	"kqr/internal/relstore"
)

// sampleFrames covers every frame kind and both value encodings.
func sampleFrames() []frame {
	return []frame{
		{kind: kindHello, source: "feeder-1", fingerprint: "cdc schema v1; papers pk=pid"},
		{kind: kindWelcome, fingerprint: "cdc schema v1; papers pk=pid", seq: 41, epoch: 3, pending: 5000},
		{kind: kindBatch, seq: 42, deltas: []live.Delta{
			{Op: live.OpInsert, Table: "papers", Values: []relstore.Value{
				relstore.Int(10_000_001), relstore.String("fresh title words"), relstore.Int(7),
			}},
			{Op: live.OpDelete, Table: "papers", Key: relstore.Int(10_000_000)},
			{Op: live.OpDelete, Table: "conferences", Key: relstore.String("by-name")},
		}},
		{kind: kindAck, seq: 42, epoch: 4, pending: 17},
		{kind: kindHeartbeat, seq: 42},
		{kind: kindError, message: "schema fingerprint mismatch"},
	}
}

// encodeStream renders a full stream: header plus every sample frame.
func encodeStream(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeStreamHeader(&buf); err != nil {
		t.Fatal(err)
	}
	for _, f := range sampleFrames() {
		if err := writeFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// parseStream consumes a stream until EOF or the first error.
func parseStream(data []byte) ([]frame, error) {
	r := bytes.NewReader(data)
	if err := readStreamHeader(r); err != nil {
		return nil, err
	}
	var out []frame
	for {
		f, err := readFrame(r)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, f)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	got, err := parseStream(encodeStream(t))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := sampleFrames()
	if len(got) != len(want) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("frame %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestStreamHeaderRejections(t *testing.T) {
	good := encodeStream(t)

	bad := bytes.Clone(good)
	bad[0] = 'X'
	if _, err := parseStream(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v, want ErrCorrupt", err)
	}

	bad = bytes.Clone(good)
	bad[6], bad[7] = 0xFF, 0xFF
	if _, err := parseStream(bad); !errors.Is(err, ErrProtocol) {
		t.Fatalf("bad version: err = %v, want ErrProtocol", err)
	}

	if _, err := parseStream([]byte("KQR")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated header: err = %v, want ErrCorrupt", err)
	}
}

// frameEnds returns the prefix lengths of a stream that end on a frame
// boundary: after the header and after each whole frame (4-byte length
// + body + 4-byte CRC).
func frameEnds(enc []byte) func(int) bool {
	ends := map[int]bool{8: true}
	for off := 8; off+4 <= len(enc); {
		off += 4 + int(binary.LittleEndian.Uint32(enc[off:])) + 4
		ends[off] = true
	}
	return func(n int) bool { return ends[n] }
}

// TestCorruptionMatrix runs the shared byte-flip / truncation matrix
// over a stream of every frame kind. Every flip must surface as a typed
// failure — ErrCorrupt for a CRC mismatch, a cut-short frame, a bad
// magic or a length field reading off the end; ErrProtocol for the
// version — never a silent full parse or a panic. CRC-32 detects every
// ≤8-bit burst, so a body flip cannot sneak through; the data is
// deterministic, so this is not a 2^-32 dice roll rerun per build. A
// cut parses cleanly only on a frame boundary (a shorter, valid
// stream), and the frames before a failure are still delivered — a
// stream is consumed frame by frame.
func TestCorruptionMatrix(t *testing.T) {
	enc := encodeStream(t)
	frametest.Format{
		Decode:   func(data []byte) error { _, err := parseStream(data); return err },
		Typed:    []error{ErrCorrupt, ErrProtocol},
		CleanCut: frameEnds(enc),
	}.Run(t, enc)
	if _, err := readFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

// TestGoldenStreams: one stream per direction, written by the encoders
// this package had before internal/frame (the parent commit's
// writeStreamHeader / writeFrame), must decode and re-encode to the
// same bytes.
func TestGoldenStreams(t *testing.T) {
	for file, kinds := range map[string][]uint8{
		"testdata/feeder.kqrcdc":   {kindHello, kindBatch, kindHeartbeat, kindBatch},
		"testdata/receiver.kqrcdc": {kindWelcome, kindAck, kindHeartbeat, kindError},
	} {
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		frames, err := parseStream(want)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		var got bytes.Buffer
		if err := writeStreamHeader(&got); err != nil {
			t.Fatal(err)
		}
		for i, f := range frames {
			if i >= len(kinds) || f.kind != kinds[i] {
				t.Fatalf("%s: frame %d has kind %d", file, i, f.kind)
			}
			if err := writeFrame(&got, f); err != nil {
				t.Fatal(err)
			}
		}
		if len(frames) != len(kinds) || !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: re-encoding differs from the fixture (%d frames, %d vs %d bytes)",
				file, len(frames), got.Len(), len(want))
		}
	}
}

// badDeltaFrames returns the sample batch frame with its first delta's
// op, and then its first value's tag, set to a value this build does
// not know — CRC intact.
func badDeltaFrames(t testing.TB) [][]byte {
	t.Helper()
	body, err := encodeFrameBody(sampleFrames()[2])
	if err != nil {
		t.Fatal(err)
	}
	const opAt = 1 + 8 + 4 // kind, seq, delta count
	var out [][]byte
	for _, at := range []int{opAt, opAt + 1 + 4 + len("papers") + 2} { // op, table, value count
		bad := bytes.Clone(body)
		bad[at] = 7
		var buf bytes.Buffer
		if _, err := framing.WriteRecord(&buf, bad); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// TestUnknownOpAndTagRejectedAtTheWire: an unknown op used to decode
// as an insert and an unknown value tag as a string, leaving
// Manager.Ingest to notice (or not). Both are corrupt frames.
func TestUnknownOpAndTagRejectedAtTheWire(t *testing.T) {
	for i, enc := range badDeltaFrames(t) {
		if f, err := readFrame(bytes.NewReader(enc)); !errors.Is(err, ErrCorrupt) || f.deltas != nil {
			t.Errorf("case %d: got %+v, %v, want ErrCorrupt", i, f, err)
		}
	}
}

// FuzzCDCFrame throws arbitrary bytes at the frame decoder: it must
// never panic, must classify every failure, and anything it accepts
// must re-encode and re-decode to the same frame.
func FuzzCDCFrame(f *testing.F) {
	f.Add([]byte{})
	var buf bytes.Buffer
	for _, fr := range sampleFrames() {
		buf.Reset()
		if err := writeFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(buf.Bytes()))
	}
	for _, enc := range badDeltaFrames(f) {
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && err != io.EOF {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		var re bytes.Buffer
		if err := writeFrame(&re, fr); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		fr2, err := readFrame(bytes.NewReader(re.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(fr, fr2) {
			t.Fatalf("round trip drifted:\n got %+v\nwant %+v", fr2, fr)
		}
	})
}

func TestSchemaFingerprintStability(t *testing.T) {
	db1 := mustBibDB(t)
	db2 := mustBibDB(t)
	fp1, fp2 := SchemaFingerprint(db1), SchemaFingerprint(db2)
	if fp1 == "" || fp1 != fp2 {
		t.Fatalf("fingerprint unstable: %q vs %q", fp1, fp2)
	}
}
