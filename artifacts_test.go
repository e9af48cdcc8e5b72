package kqr_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"kqr"
	"kqr/internal/artifact"
	"kqr/internal/closeness"
	"kqr/internal/dblpgen"
	"kqr/internal/graph"
	"kqr/internal/packed"
	"kqr/internal/randomwalk"
	"kqr/synthetic"
)

// warmAndSave opens an engine, warms the full vocabulary and saves a
// snapshot, returning the engine and the snapshot path.
func warmAndSave(t *testing.T, mode kqr.SimilarityMode) (*kqr.Engine, string) {
	t.Helper()
	eng, err := kqr.Open(bibliographyDataset(t), kqr.Options{Similarity: mode})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "offline.snapshot")
	if err := eng.SaveArtifacts(path); err != nil {
		t.Fatal(err)
	}
	return eng, path
}

// TestArtifactRoundTrip is the PR's acceptance property: Warm →
// SaveArtifacts → fresh Open with ArtifactPath yields byte-identical
// SimilarTerms and CloseTerms results for every vocabulary term, in
// both similarity modes that support persistence.
func TestArtifactRoundTrip(t *testing.T) {
	for _, mode := range []kqr.SimilarityMode{kqr.ContextualWalk, kqr.Cooccurrence} {
		warm, path := warmAndSave(t, mode)
		cold, err := kqr.Open(bibliographyDataset(t), kqr.Options{Similarity: mode, ArtifactPath: path})
		if err != nil {
			t.Fatal(err)
		}
		if info := cold.Artifact(); !info.Loaded || info.FormatVersion != 1 || info.Path != path {
			t.Fatalf("mode %v: snapshot not loaded: %+v", mode, info)
		}
		if s := cold.GraphStats(); !strings.Contains(s, "offline: snapshot v1") {
			t.Fatalf("mode %v: GraphStats lacks snapshot provenance: %q", mode, s)
		}
		if s := warm.GraphStats(); !strings.Contains(s, "offline: computed") {
			t.Fatalf("mode %v: GraphStats lacks computed provenance: %q", mode, s)
		}
		vocab := warm.Vocabulary()
		if len(vocab) == 0 {
			t.Fatal("empty vocabulary")
		}
		if !reflect.DeepEqual(vocab, cold.Vocabulary()) {
			t.Fatalf("mode %v: vocabularies differ", mode)
		}
		for _, term := range vocab {
			wantSim, err1 := warm.SimilarTerms(term, 10)
			gotSim, err2 := cold.SimilarTerms(term, 10)
			if err1 != nil || err2 != nil {
				t.Fatalf("mode %v, term %q: SimilarTerms errs %v / %v", mode, term, err1, err2)
			}
			if !reflect.DeepEqual(gotSim, wantSim) {
				t.Fatalf("mode %v, term %q: SimilarTerms differ:\nwarm %+v\ncold %+v", mode, term, wantSim, gotSim)
			}
			wantClos, err1 := warm.CloseTerms(term, 10, "")
			gotClos, err2 := cold.CloseTerms(term, 10, "")
			if err1 != nil || err2 != nil {
				t.Fatalf("mode %v, term %q: CloseTerms errs %v / %v", mode, term, err1, err2)
			}
			if !reflect.DeepEqual(gotClos, wantClos) {
				t.Fatalf("mode %v, term %q: CloseTerms differ:\nwarm %+v\ncold %+v", mode, term, wantClos, gotClos)
			}
		}
		// And the end product: suggestions match exactly.
		want, err := warm.Reformulate([]string{"uncertain", "data"}, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cold.Reformulate([]string{"uncertain", "data"}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("mode %v: suggestions differ: %v vs %v", mode, got, want)
		}
	}
}

// TestArtifactPartialRefused: a snapshot holds all of a generation's
// rows or none. A lazy engine's snapshot carries the vocabulary and no
// tables — even after queries filled some rows — and restores into an
// engine that answers the same. A hand-made snapshot whose tables miss
// a term's row, or that holds one table of the two, is refused on every
// restore path: a RAM Open falls back, LoadArtifacts errors, a
// disk-mode Open fails.
func TestArtifactPartialRefused(t *testing.T) {
	lazy, err := kqr.Open(bibliographyDataset(t), kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := lazy.Reformulate([]string{"uncertain", "data"}, 5)
	if err != nil || len(want) == 0 {
		t.Fatalf("lazy engine answered %v, %v", want, err)
	}
	vocabOnly := filepath.Join(t.TempDir(), "lazy.snapshot")
	if err := lazy.SaveArtifacts(vocabOnly); err != nil {
		t.Fatal(err)
	}
	snap := readSnapshotFile(t, vocabOnly)
	for kind, rows := range snap.Tables {
		if rows != nil {
			t.Fatalf("a lazy engine's snapshot holds a %s table of %d rows", artifact.TableKind(kind), len(rows.Src))
		}
	}
	if len(snap.Vocabulary) == 0 {
		t.Fatal("a lazy engine's snapshot lost its vocabulary")
	}
	fresh, err := kqr.Open(bibliographyDataset(t), kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadArtifacts(vocabOnly); err != nil {
		t.Fatal(err)
	}
	if got, err := fresh.Reformulate([]string{"uncertain", "data"}, 5); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("suggestions after a tableless restore differ: %v (%v) vs %v", got, err, want)
	}

	_, full := warmAndSave(t, kqr.ContextualWalk)
	for _, tc := range []struct {
		name string
		edit func(*artifact.Snapshot)
	}{
		{"a similarity row short", func(s *artifact.Snapshot) {
			rows, out := s.Tables[artifact.TableWalk], &packed.Rows{}
			for i := 1; i < len(rows.Src); i++ {
				v, raw := rows.Row(i)
				copy(out.Append(v, len(raw)/packed.EntrySize), raw)
			}
			s.Tables[artifact.TableWalk] = out
		}},
		{"no closeness table", func(s *artifact.Snapshot) { s.Tables[artifact.TableCloseness] = nil }},
	} {
		snap := readSnapshotFile(t, full)
		tc.edit(snap)
		dir := t.TempDir()
		v1, v2 := filepath.Join(dir, "partial.snapshot"), filepath.Join(dir, "partial.paged")
		writeSnapshotFile(t, v1, snap.Write)
		writeSnapshotFile(t, v2, func(w io.Writer) error { return snap.WritePaged(w, artifact.PagedOptions{}) })

		eng, err := kqr.Open(bibliographyDataset(t), kqr.Options{ArtifactPath: v1})
		if err != nil {
			t.Fatal(err)
		}
		if info := eng.Artifact(); info.Loaded || !strings.Contains(info.FallbackReason, "no row for term") {
			t.Errorf("%s: Open restored it: %+v", tc.name, info)
		}
		if err := eng.LoadArtifacts(v1); err == nil {
			t.Errorf("%s: LoadArtifacts accepted it", tc.name)
		}
		if _, err := kqr.Open(bibliographyDataset(t), kqr.Options{ArtifactPath: v2, DiskMode: true}); err == nil {
			t.Errorf("%s: disk mode attached it", tc.name)
		}
	}
}

// readSnapshotFile decodes the snapshot at path, fingerprint unchecked.
func readSnapshotFile(t *testing.T, path string) *artifact.Snapshot {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := artifact.Load(f, "")
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// writeSnapshotFile writes a snapshot to path with the given encoder.
func writeSnapshotFile(t *testing.T, path string, write func(io.Writer) error) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// corrupt writes a mutated copy of the snapshot at path and returns the
// new path.
func corrupt(t *testing.T, path string, mutate func([]byte) []byte) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "corrupt.snapshot")
	if err := os.WriteFile(out, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestArtifactCorruptionTyped checks each corruption class surfaces as
// its sentinel error from LoadArtifacts.
func TestArtifactCorruptionTyped(t *testing.T) {
	_, path := warmAndSave(t, kqr.ContextualWalk)
	eng, err := kqr.Open(bibliographyDataset(t), kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-len(b)/3] }, artifact.ErrTruncated},
		{"flipped byte", func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }, artifact.ErrChecksum},
		{"wrong version", func(b []byte) []byte { b[6] = 0x7F; return b }, artifact.ErrVersion},
		{"bad magic", func(b []byte) []byte { b[0] = 'Z'; return b }, artifact.ErrMagic},
	}
	for _, tc := range cases {
		bad := corrupt(t, path, tc.mutate)
		if err := eng.LoadArtifacts(bad); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestArtifactFingerprintMismatch: a snapshot from a different corpus
// or a different offline configuration is rejected with ErrFingerprint.
func TestArtifactFingerprintMismatch(t *testing.T) {
	_, path := warmAndSave(t, kqr.ContextualWalk)

	// Different similarity mode over the same corpus.
	eng, err := kqr.Open(bibliographyDataset(t), kqr.Options{Similarity: kqr.Cooccurrence})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadArtifacts(path); !errors.Is(err, artifact.ErrFingerprint) {
		t.Fatalf("mode mismatch: err = %v, want ErrFingerprint", err)
	}

	// Different offline parameters over the same corpus.
	eng, err = kqr.Open(bibliographyDataset(t), kqr.Options{ClosenessMaxLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadArtifacts(path); !errors.Is(err, artifact.ErrFingerprint) {
		t.Fatalf("option mismatch: err = %v, want ErrFingerprint", err)
	}

	// Different corpus entirely.
	ds, err := kqr.NewDataset(kqr.Table{Name: "notes", Columns: []kqr.Column{
		{Name: "body", Type: kqr.TypeString, Text: kqr.TextSegmented},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Insert("notes", "an entirely different corpus"); err != nil {
		t.Fatal(err)
	}
	eng, err = kqr.Open(ds, kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadArtifacts(path); !errors.Is(err, artifact.ErrFingerprint) {
		t.Fatalf("corpus mismatch: err = %v, want ErrFingerprint", err)
	}
}

// TestArtifactFromAnotherSolverRefused: a loaded snapshot is completed
// by local computation and compared byte for byte with a peer's, so
// one written by a build whose tables hold other bits must be refused —
// typed at LoadArtifacts, and at Open with a fallback reason and an
// engine that serves by live computation and says so — and this build's
// snapshot must not load under that build's fingerprint either. Two
// such builds exist: the power-iteration one (rows equal to the solver
// tolerance only; its fingerprint carried no solver tag) and the one
// whose closeness rows held every node reached, tuples included (the
// same Clos(term, term), other rows; no row tag).
func TestArtifactFromAnotherSolverRefused(t *testing.T) {
	eng, path := warmAndSave(t, kqr.ContextualWalk)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := artifact.Load(f, "")
	if err != nil {
		t.Fatal(err)
	}
	mine := snap.Fingerprint
	want, err := eng.Reformulate([]string{"uncertain", "data"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{" solver=" + randomwalk.Solver, " closrows=" + closeness.Rows} {
		if strings.Count(mine, tag) != 1 {
			t.Fatalf("fingerprint %q does not carry %q", mine, tag)
		}
		theirs := strings.Replace(mine, tag, "", 1)

		// Their snapshot, this build.
		snap.Fingerprint = theirs
		var buf bytes.Buffer
		if err := snap.Write(&buf); err != nil {
			t.Fatal(err)
		}
		old := filepath.Join(t.TempDir(), "other-build.snapshot")
		if err := os.WriteFile(old, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := eng.LoadArtifacts(old); !errors.Is(err, artifact.ErrFingerprint) {
			t.Fatalf("loading a snapshot without%s: err = %v, want ErrFingerprint", tag, err)
		}
		cold, err := kqr.Open(bibliographyDataset(t), kqr.Options{ArtifactPath: old})
		if err != nil {
			t.Fatal(err)
		}
		if info := cold.Artifact(); info.Loaded || !strings.Contains(info.FallbackReason, "fingerprint") {
			t.Fatalf("Open over a snapshot without%s: %+v, want a fingerprint fallback", tag, info)
		}
		if s := cold.GraphStats(); !strings.Contains(s, "offline: computed") {
			t.Fatalf("Open over a snapshot without%s: GraphStats %q, want computed provenance", tag, s)
		}
		if got, err := cold.Reformulate([]string{"uncertain", "data"}, 10); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("live compute after refusing a snapshot without%s: %v (%v), want %v", tag, got, err, want)
		}

		// This build's snapshot, their fingerprint.
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if _, err := artifact.Load(f, theirs); !errors.Is(err, artifact.ErrFingerprint) {
			t.Fatalf("this build's snapshot under a fingerprint without%s: err = %v, want ErrFingerprint", tag, err)
		}
	}
}

// TestArtifactOpenFallback: Open with a bad ArtifactPath must never
// fail — it logs, records the reason, and serves by live computation.
func TestArtifactOpenFallback(t *testing.T) {
	_, path := warmAndSave(t, kqr.ContextualWalk)
	bad := []struct {
		name string
		path string
	}{
		{"missing file", filepath.Join(t.TempDir(), "nope.snapshot")},
		{"truncated", corrupt(t, path, func(b []byte) []byte { return b[:len(b)/2] })},
		{"flipped byte", corrupt(t, path, func(b []byte) []byte { b[len(b)-3] ^= 0x80; return b })},
		{"wrong version", corrupt(t, path, func(b []byte) []byte { b[7] = 0x7F; return b })},
	}
	for _, tc := range bad {
		eng, err := kqr.Open(bibliographyDataset(t), kqr.Options{ArtifactPath: tc.path})
		if err != nil {
			t.Fatalf("%s: Open failed instead of falling back: %v", tc.name, err)
		}
		info := eng.Artifact()
		if info.Loaded || info.FallbackReason == "" {
			t.Fatalf("%s: provenance does not record the fallback: %+v", tc.name, info)
		}
		if s := eng.GraphStats(); !strings.Contains(s, "offline: computed") {
			t.Fatalf("%s: GraphStats = %q, want computed provenance", tc.name, s)
		}
		// The fallback engine still answers queries (live compute).
		if _, err := eng.Reformulate([]string{"uncertain", "data"}, 5); err != nil {
			t.Fatalf("%s: fallback engine cannot reformulate: %v", tc.name, err)
		}
	}
}

// TestSaveArtifactsAtomic: a failed save must not clobber an existing
// good snapshot, and saving twice produces identical bytes.
func TestSaveArtifactsAtomic(t *testing.T) {
	eng, path := warmAndSave(t, kqr.ContextualWalk)
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveArtifacts(path); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("re-saving the same engine produced different bytes")
	}
	if err := eng.SaveArtifacts(filepath.Join(t.TempDir(), "no", "such", "dir", "x.snapshot")); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
}

// TestGoldenArtifactsByteIdentical: the fixtures under
// internal/artifact/testdata were saved by the build before the codec
// spoke packed rows (a warmed bibliography engine, SaveArtifacts and
// SaveArtifactsPaged), and re-saved the same way when closeness rows
// became term-only — the pre-codec bytes minus the tuple entries, plus
// the row tag in the fingerprint. Loading each and saving it again in
// its own version must give back the file byte for byte: the
// fingerprint, both layouts and every score survive the engine round
// trip unmoved.
//
// A fresh Warm → save must give back the same bytes too, as long as the
// fingerprint's solver and row tags (randomwalk.Solver,
// closeness.Rows) are the fixture's: a change to the rows without a tag
// bump fails here. When the change is intended, bump the tag and
// regenerate the fixtures — the recipe: open bibliographyDataset with
// kqr.Options{}, Warm, then SaveArtifacts to testdata/v1.kqrart and
// SaveArtifactsPaged to testdata/v2.kqrart; write
// testdata/v2-pages256.kqrart from the same snapshot with
// artifact.PagedOptions{PageBytes: 256}.
func TestGoldenArtifactsByteIdentical(t *testing.T) {
	loaded := func(file string) *kqr.Engine {
		eng, err := kqr.Open(bibliographyDataset(t), kqr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.LoadArtifacts(file); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		return eng
	}
	warmed := func(string) *kqr.Engine {
		eng, err := kqr.Open(bibliographyDataset(t), kqr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Warm(context.Background()); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	for _, tc := range []struct {
		name string
		file string
		open func(string) *kqr.Engine
		save func(*kqr.Engine, string) error
	}{
		{"load → save", "internal/artifact/testdata/v1.kqrart", loaded, (*kqr.Engine).SaveArtifacts},
		{"load → save", "internal/artifact/testdata/v2.kqrart", loaded, (*kqr.Engine).SaveArtifactsPaged},
		{"fresh Warm → save", "internal/artifact/testdata/v1.kqrart", warmed, (*kqr.Engine).SaveArtifacts},
		{"fresh Warm → save", "internal/artifact/testdata/v2.kqrart", warmed, (*kqr.Engine).SaveArtifactsPaged},
	} {
		eng := tc.open(tc.file)
		out := filepath.Join(t.TempDir(), "resaved")
		if err := tc.save(eng, out); err != nil {
			t.Fatal(err)
		}
		want, _ := os.ReadFile(tc.file)
		got, _ := os.ReadFile(out)
		if len(want) == 0 || !bytes.Equal(got, want) {
			t.Fatalf("%s: %s gave %d bytes that differ from the fixture's %d. This build's tags are solver=%s closrows=%s; "+
				"rows that changed under the same tags need a tag bump, then the fixtures regenerated (recipe above TestGoldenArtifactsByteIdentical)",
				tc.file, tc.name, len(got), len(want), randomwalk.Solver, closeness.Rows)
		}
		// And the tables answer: the fixture is a full warm.
		if terms, err := eng.SimilarTerms("uncertain", 3); err != nil || len(terms) == 0 {
			t.Fatalf("%s: SimilarTerms after %s: %v, %v", tc.file, tc.name, terms, err)
		}
	}
}

// TestLoadArtifactsAllocatesPerTable: restoring a snapshot indexes the
// decoded arrays as they are. The allocation count must not grow with
// the number of rows — no per-row maps, lists or re-sorted copies.
func TestLoadArtifactsAllocatesPerTable(t *testing.T) {
	corpus, err := synthetic.Bibliography(synthetic.Config{Seed: 5, Topics: 4, Confs: 8, Authors: 60, Papers: 400})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kqr.Open(corpus.Dataset, kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "offline.snapshot")
	if err := eng.SaveArtifacts(path); err != nil {
		t.Fatal(err)
	}
	rows := len(eng.Vocabulary())
	allocs := testing.AllocsPerRun(3, func() {
		if err := eng.LoadArtifacts(path); err != nil {
			t.Fatal(err)
		}
	})
	// One string per vocabulary term, then a few (amortised) arrays per
	// table. A restore through per-row maps and lists makes several
	// allocations per row of each table on top of that.
	if limit := float64(rows + rows/2 + 200); allocs > limit {
		t.Fatalf("LoadArtifacts made %.0f allocations for %d vocabulary terms, want ≤ %.0f", allocs, rows, limit)
	}
}

// TestPagedBlobEqualsTableBytes: a v2 file is written from the tables'
// own entry bytes, with no encoder of its own. For each table of a
// warmed engine, the blob region of its SaveArtifactsPaged file, and of
// the same snapshot written in 256-byte pages, equals the store's
// entry bytes byte for byte — and each row's bytes are the one
// encoder's (packed.PutEntry) bytes for the row the store serves.
func TestPagedBlobEqualsTableBytes(t *testing.T) {
	c, err := dblpgen.Generate(dblpgen.Config{Seed: 20120401, Topics: 4, Confs: 8, Authors: 80, Papers: 200})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kqr.Open(kqr.WrapDatabase(c.DB), kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	saved := filepath.Join(t.TempDir(), "offline.paged")
	if err := eng.SaveArtifactsPaged(saved); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	var small bytes.Buffer
	if err := readSnapshotFile(t, saved).WritePaged(&small, artifact.PagedOptions{PageBytes: 256}); err != nil {
		t.Fatal(err)
	}

	mgr, _ := eng.Replication()
	g := mgr.Current()
	type store interface {
		AppendRow(graph.NodeID, []graph.NodeID, []float32) ([]graph.NodeID, []float32, error)
		Rows() *packed.Rows
	}
	for kind, st := range map[artifact.TableKind]store{g.SimKind: g.Sim, artifact.TableCloseness: g.Clos} {
		want := st.Rows().Entries
		for _, enc := range [][]byte{file, small.Bytes()} {
			idx, err := artifact.ReadPagedIndex(bytes.NewReader(enc), "")
			if err != nil {
				t.Fatal(err)
			}
			pt := idx.Table(kind)
			blob := enc[pt.BlobOff : pt.BlobOff+pt.BlobBytes()]
			if len(want) == 0 || !bytes.Equal(blob, want) {
				t.Fatalf("%s (%d pages): blob of %d bytes differs from the table's %d entry bytes",
					kind, len(pt.PageStarts), len(blob), len(want))
			}
			for _, v := range g.TG.TermNodeIDs() {
				nodes, scores, err := st.AppendRow(v, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				row := make([]byte, len(nodes)*packed.EntrySize)
				for i := range nodes {
					packed.PutEntry(row[i*packed.EntrySize:], nodes[i], scores[i])
				}
				if got := blob[pt.Off[v]*packed.EntrySize : pt.Off[v+1]*packed.EntrySize]; !bytes.Equal(got, row) {
					t.Fatalf("%s row %d: blob bytes %x, served row encodes to %x", kind, v, got, row)
				}
			}
		}
	}
}
