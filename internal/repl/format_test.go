package repl

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"kqr/internal/artifact"
	"kqr/internal/frame"
	"kqr/internal/frame/frametest"
	"kqr/internal/live"
	"kqr/internal/relstore"
	"kqr/internal/testcorpus"
)

// The fixtures under testdata/ were written by the encoders this
// package had before internal/frame (the parent commit's writeSnapshot,
// Log.Append and writeRecord): a warmed testcorpus generation at epoch
// 1, log position (7, 123); a segment of four records — inserts and
// deletes with int and string keys, an epoch record, an empty batch —
// and one framed heartbeat. bootstrap.kqrrep was written again, by the
// same recipe, when closeness rows became term-only: header and corpus
// dump are the old bytes but for the row tag in the fingerprint, the
// artifact is the old one minus its tuple entries.

func golden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenBootstrap: the parent's bootstrap stream decodes, and a
// generation rebuilt from it streams out the same bytes — header,
// corpus dump, fingerprint and artifact all unmoved.
func TestGoldenBootstrap(t *testing.T) {
	want := golden(t, "bootstrap.kqrrep")
	snap, err := readSnapshot(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 1 || snap.NextIndex != 7 || snap.LogBytes != 123 {
		t.Fatalf("header: %+v", snap)
	}
	mgr := managerOver(t, snap.DB)
	g := mgr.Current()
	if fp := Fingerprint(mgr, g); fp != snap.Fingerprint {
		t.Fatalf("rebuilt fingerprint %q != the fixture's %q", fp, snap.Fingerprint)
	}
	if err := live.RestoreArtifact(g, snap.Artifact); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeSnapshot(&got, mgr, g, position{next: snap.NextIndex, bytes: snap.LogBytes}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("re-encoded bootstrap differs from the fixture (%d vs %d bytes)", got.Len(), len(want))
	}
}

// TestGoldenSegment: the parent's segment opens, and its records
// appended to a fresh log produce the same file.
func TestGoldenSegment(t *testing.T) {
	want := golden(t, segmentName(0))
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(0)), want, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLog(dir, LogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs := readAll(t, l, 0)
	if len(recs) != 4 || recs[1].Mode != "reload" || len(recs[0].Deltas) != 2 || len(recs[2].Deltas) != 2 || len(recs[3].Deltas) != 0 {
		t.Fatalf("decoded %d records: %+v", len(recs), recs)
	}
	if int64(len(want)-segHeaderSize) != l.Bytes() {
		t.Fatalf("log counts %d record bytes, the fixture holds %d", l.Bytes(), len(want)-segHeaderSize)
	}
	fresh := t.TempDir()
	l2, err := OpenLog(fresh, LogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l2, recs)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(fresh, segmentName(0))); !bytes.Equal(got, want) {
		t.Fatalf("re-appended segment differs from the fixture (%d vs %d bytes)", len(got), len(want))
	}

	hb := golden(t, "heartbeat.record")
	rec, n, err := readRecord(bytes.NewReader(hb))
	if err != nil || n != len(hb) || rec.Kind != kindHeartbeat || rec.LogBytes != 4242 {
		t.Fatalf("heartbeat: %+v, %d, %v", rec, n, err)
	}
	var re bytes.Buffer
	if _, err := writeRecord(&re, rec); err != nil || !bytes.Equal(re.Bytes(), hb) {
		t.Fatalf("re-encoded heartbeat differs from the fixture (%v)", err)
	}
}

// readSegment is the matrix's view of a segment: header, then records
// to a clean end, indexes dense from the header's first.
func readSegment(data []byte) error {
	r := bytes.NewReader(data)
	if err := readSegmentHeader(r, 0); err != nil {
		return err
	}
	for next := uint64(0); ; next++ {
		rec, n, err := readRecord(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if n != 0 || rec.Deltas != nil {
				return errors.New("readRecord returned a partial record with its error")
			}
			return err
		}
		if rec.Index != next {
			return frame.ErrTruncated // a flipped index that kept its CRC cannot happen; be safe
		}
	}
}

// recordEnds returns the prefix lengths of a record stream that starts
// at from and ends on a record boundary.
func recordEnds(enc []byte, from int) func(int) bool {
	ends := map[int]bool{from: true}
	for off := from; off+4 <= len(enc); {
		off += 4 + int(binary.LittleEndian.Uint32(enc[off:])) + 4
		ends[off] = true
	}
	return func(n int) bool { return ends[n] }
}

// TestCorruptionMatrix runs the shared byte-flip / truncation matrix
// over both byte formats this package owns. Every failure must read as
// ErrCorrupt — magic, version, checksum, truncation alike: the log is a
// strict protocol and its callers test for the one sentinel — except
// the embedded artifact's own version and fingerprint errors.
func TestCorruptionMatrix(t *testing.T) {
	t.Run("segment", func(t *testing.T) {
		enc := golden(t, segmentName(0))
		frametest.Format{
			Decode:   readSegment,
			Typed:    []error{ErrCorrupt},
			CleanCut: recordEnds(enc, segHeaderSize),
		}.Run(t, enc)
		// The stream forms of the same records: a clean end is io.EOF,
		// bare, and nothing else is.
		if _, _, err := readRecord(bytes.NewReader(nil)); err != io.EOF {
			t.Fatalf("empty stream: got %v, want io.EOF", err)
		}
		hb := golden(t, "heartbeat.record")
		if _, _, err := readRecord(bytes.NewReader(hb[:len(hb)-3])); !errors.Is(err, frame.ErrTruncated) {
			t.Fatalf("torn frame: got %v, want ErrTruncated", err)
		}
	})
	t.Run("bootstrap", func(t *testing.T) {
		// A two-paper corpus, a few rows warmed: every region of the
		// stream in a couple of kilobytes (the matrix decodes it twice
		// per byte; TestGoldenBootstrap covers a full-size stream).
		db := relstore.NewDatabase()
		if err := testcorpus.BibSchema(db); err != nil {
			t.Fatal(err)
		}
		if err := testcorpus.Load(db, testcorpus.Papers[:2]); err != nil {
			t.Fatal(err)
		}
		mgr := managerOver(t, db)
		g := mgr.Current()
		for _, v := range g.TG.TermNodeIDs()[:3] {
			g.Sim.SimilarNodes(v, 0)
			g.Clos.AppendRow(v, nil, nil)
		}
		var buf bytes.Buffer
		if err := writeSnapshot(&buf, mgr, g, position{next: 2, bytes: 99}); err != nil {
			t.Fatal(err)
		}
		enc := buf.Bytes()
		// The artifact runs from the end of the corpus dump to the end of
		// the stream; a cut on one of its section boundaries leaves a
		// well-formed stream with fewer tables (Attach refuses it).
		cr := frame.NewReader(bytes.NewReader(enc))
		cr.Skip(6 + 4 + 8 + 8 + 8)
		cr.Str()
		cr.Checksum("header")
		if _, err := readDatabase(cr); err != nil {
			t.Fatal(err)
		}
		art := int(cr.Pos())
		ends := map[int]bool{}
		off := art + 6 + 2
		off += 4 + int(binary.LittleEndian.Uint32(enc[off:])) + 4 // fingerprint, header CRC
		for ends[off] = true; off < len(enc); ends[off] = true {
			off += 1 + 8 + int(binary.LittleEndian.Uint64(enc[off+1:])) + 4
		}
		frametest.Format{
			Decode: func(data []byte) error {
				snap, err := readSnapshot(bytes.NewReader(data))
				if err != nil && snap != nil {
					return errors.New("readSnapshot returned a partial bootstrap with its error")
				}
				return err
			},
			Typed:    []error{ErrCorrupt, artifact.ErrVersion, artifact.ErrFingerprint},
			CleanCut: func(n int) bool { return ends[n] },
		}.Run(t, enc)
	})
}

// TestUnknownOpAndTagRejectedAtTheWire: a record whose CRC is good but
// whose delta carries an op or a value tag this build does not know is
// corrupt at decode — it used to come back as an insert, or a string.
func TestUnknownOpAndTagRejectedAtTheWire(t *testing.T) {
	body, err := encodeRecordBody(sampleRecords()[0])
	if err != nil {
		t.Fatal(err)
	}
	const opAt = 8 + 8 + 1 + 4 // index, epoch, kind, delta count
	for name, at := range map[string]int{
		"op":  opAt,
		"tag": opAt + 1 + 4 + len("papers") + 2, // op, table, value count
	} {
		bad := bytes.Clone(body)
		bad[at] = 7
		var buf bytes.Buffer
		if _, err := frame.WriteRecord(&buf, bad); err != nil {
			t.Fatal(err)
		}
		if _, _, err := readRecord(&buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("unknown %s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestGoldenSegmentFollows: what the golden log holds is what a
// follower applies — the decoded deltas pass Ingest on a generation of
// the schema they were written for.
func TestGoldenSegmentFollows(t *testing.T) {
	mgr := mustManager(t)
	rec, _, err := readRecord(bytes.NewReader(golden(t, segmentName(0))[segHeaderSize:]))
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Ingest(rec.Deltas); err != nil {
		t.Fatalf("decoded deltas refused: %v", err)
	}
	if _, err := mgr.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
}
