package artifact

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"kqr/internal/frame"
	"kqr/internal/frame/frametest"
	"kqr/internal/graph"
	"kqr/internal/packed"
)

// row is one literal table row for the samples.
type row struct {
	src    graph.NodeID
	nodes  []graph.NodeID
	scores []float32
}

func mkRows(rs ...row) *packed.Rows {
	t := &packed.Rows{}
	for _, r := range rs {
		raw := t.Append(r.src, len(r.nodes))
		for i := range r.nodes {
			packed.PutEntry(raw[i*packed.EntrySize:], r.nodes[i], r.scores[i])
		}
	}
	return t
}

// sample builds a snapshot exercising every section kind, an empty row
// and (node 6) a row source beyond the vocabulary.
func sample() *Snapshot {
	return &Snapshot{
		Fingerprint: "kqr test fingerprint nodes=7",
		Classes:     []string{"papers.title", "authors.name"},
		Vocabulary: []Term{
			{Node: 3, Class: 0, Text: "probabilistic"},
			{Node: 4, Class: 0, Text: "uncertain"},
			{Node: 5, Class: 1, Text: "christian s. jensen"},
		},
		Tables: [numTables]*packed.Rows{
			TableWalk: mkRows(
				row{3, []graph.NodeID{4, 5}, []float32{1, 0.25}},
				row{4, []graph.NodeID{3}, []float32{1}},
				row{5, nil, nil},
				row{6, []graph.NodeID{3, 4, 5}, []float32{0.75, 0.5, 0.0625}},
			),
			TableCooccur: mkRows(row{3, []graph.NodeID{5}, []float32{1}}),
			TableCloseness: mkRows(
				row{3, []graph.NodeID{4, 5}, []float32{0.5, 0.125}},
				row{4, nil, nil},
				row{5, []graph.NodeID{3, 4}, []float32{0.25, 0.75}},
			),
		},
	}
}

func encode(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodePaged(t testing.TB, s *Snapshot, pageBytes int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WritePaged(&buf, PagedOptions{PageBytes: pageBytes}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	want := sample()
	got, err := Load(bytes.NewReader(encode(t, want)), "")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != FormatVersion {
		t.Fatalf("version = %d, want %d", got.Version, FormatVersion)
	}
	got.Version = 0 // Write does not set it; compare the payload only
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestEmptySections(t *testing.T) {
	want := &Snapshot{Fingerprint: "empty", Classes: []string{}, Vocabulary: nil}
	got, err := Load(bytes.NewReader(encode(t, want)), "")
	if err != nil {
		t.Fatal(err)
	}
	if got.Tables[TableWalk] != nil || got.Tables[TableCooccur] != nil || got.Tables[TableCloseness] != nil {
		t.Fatalf("absent sections decoded as non-nil: %+v", got)
	}
	// A present but empty table is not an absent one.
	want.Tables[TableCloseness] = &packed.Rows{}
	for _, enc := range [][]byte{encode(t, want), encodePaged(t, want, 0)} {
		got, err := Load(bytes.NewReader(enc), "")
		if err != nil {
			t.Fatal(err)
		}
		if got.Tables[TableCloseness] == nil || len(got.Tables[TableCloseness].Src) != 0 || got.Tables[TableWalk] != nil {
			t.Fatalf("empty closeness table decoded as %+v (walk %+v)", got.Tables[TableCloseness], got.Tables[TableWalk])
		}
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("GIF89a...")), ""); !errors.Is(err, ErrMagic) {
		t.Fatalf("foreign file: err = %v, want ErrMagic", err)
	}
	if _, err := Load(bytes.NewReader(nil), ""); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty file: err = %v, want ErrTruncated", err)
	}
}

// TestVersionErrorMessage: an unsupported version must fail with
// ErrVersion — before the header checksum, which the flipped version
// bytes would also fail — and name both the found and the supported
// versions.
func TestVersionErrorMessage(t *testing.T) {
	enc := encode(t, sample())
	enc[6], enc[7] = 3, 0 // the uint16 after the 6-byte magic
	_, err := Load(bytes.NewReader(enc), "")
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
	for _, want := range []string{"v3", "v1", "v2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %s", err, want)
		}
	}
}

func TestFingerprintMismatch(t *testing.T) {
	enc := encode(t, sample())
	if _, err := Load(bytes.NewReader(enc), "some other corpus"); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("err = %v, want ErrFingerprint", err)
	}
	if _, err := Load(bytes.NewReader(enc), sample().Fingerprint); err != nil {
		t.Fatalf("matching fingerprint rejected: %v", err)
	}
}

// TestUnknownSectionSkipped: a reader must checksum and skip section
// ids it does not know, so future writers can add kinds.
func TestUnknownSectionSkipped(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().Write(&buf); err != nil {
		t.Fatal(err)
	}
	// Append a section with an unknown id and a valid frame.
	ww := frame.NewWriter(&buf)
	ww.U8(250)
	payload := bytes.Repeat([]byte("opaque future payload"), 5000) // several skip steps
	ww.U64(uint64(len(payload)))
	ww.Bytes(payload)
	ww.Checksum()
	if err := ww.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()), "")
	if err != nil {
		t.Fatalf("unknown section not skipped: %v", err)
	}
	if len(got.Vocabulary) != len(sample().Vocabulary) {
		t.Fatalf("known sections lost while skipping: %+v", got)
	}
}

// TestRowOrderEnforced: the reader appends rows as they come, so it
// must refuse what no writer emits — sources out of ascending order,
// and a closeness row (binary-searched by every lookup) out of
// neighbor order. A similarity row is in rank order and may hold its
// neighbors in any.
func TestRowOrderEnforced(t *testing.T) {
	swapped := func(r *packed.Rows) *packed.Rows {
		c := *r
		c.Src = append([]graph.NodeID(nil), r.Src...)
		c.Src[0], c.Src[1] = c.Src[1], c.Src[0]
		return &c
	}
	unsorted := func(r *packed.Rows) *packed.Rows {
		c := *r
		c.Entries = append([]byte(nil), r.Entries...)
		n0, s0 := packed.Entry(c.Entries, 0)
		n1, s1 := packed.Entry(c.Entries, 1)
		packed.PutEntry(c.Entries, n1, s0)
		packed.PutEntry(c.Entries[packed.EntrySize:], n0, s1)
		return &c
	}
	cases := map[string]func(*Snapshot){
		"walk sources descend":      func(s *Snapshot) { s.Tables[TableWalk] = swapped(s.Tables[TableWalk]) },
		"closeness sources descend": func(s *Snapshot) { s.Tables[TableCloseness] = swapped(s.Tables[TableCloseness]) },
		"closeness row unsorted":    func(s *Snapshot) { s.Tables[TableCloseness] = unsorted(s.Tables[TableCloseness]) },
	}
	for name, breakIt := range cases {
		s := sample()
		breakIt(s)
		if _, err := Load(bytes.NewReader(encode(t, s)), ""); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s (v1): err = %v, want ErrTruncated", name, err)
		}
	}
	// v2 rows are indexed by node, so only the in-row order can be off.
	s := sample()
	s.Tables[TableCloseness] = unsorted(s.Tables[TableCloseness])
	if _, err := Load(bytes.NewReader(encodePaged(t, s, 0)), ""); !errors.Is(err, ErrTruncated) {
		t.Errorf("closeness row unsorted (v2): err = %v, want ErrTruncated", err)
	}
	s = sample()
	s.Tables[TableWalk] = unsorted(s.Tables[TableWalk])
	for _, enc := range [][]byte{encode(t, s), encodePaged(t, s, 0)} {
		if _, err := Load(bytes.NewReader(enc), ""); err != nil {
			t.Errorf("similarity row in rank order refused: %v", err)
		}
	}
}

// typedErrors is the closed set a load may fail with.
var typedErrors = []error{ErrMagic, ErrVersion, ErrChecksum, ErrTruncated, ErrFingerprint}

// sectionEnds returns the prefix lengths of a KQRART file that end on
// a section boundary — each a valid, shorter file (the engine layer
// rejects those via the vocabulary and section checks).
func sectionEnds(t *testing.T, enc []byte) func(int) bool {
	t.Helper()
	rr := frame.NewReader(bytes.NewReader(enc))
	if _, _, err := readHeader(rr, ""); err != nil {
		t.Fatal(err)
	}
	ends := map[int]bool{int(rr.Pos()): true}
	for {
		id, ok := nextSection(rr)
		if !ok {
			break
		}
		rr.Skip(rr.Left())
		endSection(rr, id)
		ends[int(rr.Pos())] = true
	}
	if rr.Err() != nil {
		t.Fatal(rr.Err())
	}
	return func(n int) bool { return ends[n] }
}

// loadAll is the matrix's view of the sequential loader: an error must
// come with no snapshot.
func loadAll(data []byte) error {
	snap, err := Load(bytes.NewReader(data), "")
	if err != nil && snap != nil {
		return errors.New("Load returned a partial snapshot with its error")
	}
	return err
}

// TestCorruptionMatrix runs the shared byte-flip / truncation matrix
// over every KQRART reader: the sequential loader on a v1 and on a v2
// file (tiny pages, so rows spill, oversized pages occur and page CRCs
// matter), and the random-access index reader on the v2 file.
func TestCorruptionMatrix(t *testing.T) {
	t.Run("v1", func(t *testing.T) {
		enc := encode(t, sample())
		frametest.Format{Decode: loadAll, Typed: typedErrors, CleanCut: sectionEnds(t, enc)}.Run(t, enc)
	})
	enc := encodePaged(t, sample(), minPageBytes)
	t.Run("v2", func(t *testing.T) {
		frametest.Format{Decode: loadAll, Typed: typedErrors, CleanCut: sectionEnds(t, enc)}.Run(t, enc)
	})
	t.Run("v2 index", func(t *testing.T) {
		want, err := ReadPagedIndex(bytes.NewReader(enc), "")
		if err != nil {
			t.Fatal(err)
		}
		// The index reader looks at everything but the blobs and the
		// section CRCs behind them (a fault checks its page's CRC); a
		// flipped section id makes the section unknown, which is legal
		// (forward compatibility) — but then it must be absent from
		// the index, never silently wrong.
		unread := func(i int) bool {
			for _, tb := range want.Tables {
				if int64(i) >= tb.BlobOff && int64(i) < tb.BlobOff+tb.BlobBytes()+4 {
					return true
				}
			}
			return false
		}
		ends := sectionEnds(t, enc)
		frametest.Format{
			Decode: func(data []byte) error {
				got, err := ReadPagedIndex(bytes.NewReader(data), "")
				switch {
				case err != nil && got != nil:
					return errors.New("ReadPagedIndex returned a partial index with its error")
				case err == nil && len(data) == len(enc) && !reflect.DeepEqual(got, want):
					return errSectionDropped
				}
				return err
			},
			Typed:  append([]error{errSectionDropped}, typedErrors...),
			FlipOK: unread,
			// A cut inside the section CRC behind a blob loses nothing
			// the index reader reads.
			CleanCut: func(n int) bool { return ends(n) || unread(n) && !unread(n+4) },
		}.Run(t, enc)
	})
}

// errSectionDropped marks a flip the index reader survived by skipping
// the section it no longer recognised.
var errSectionDropped = errors.New("section skipped as unknown")

// ---- golden fixtures -----------------------------------------------------

// TestGoldenFixtures: files written by the encoders this package
// replaced (testdata/, from the commit before internal/frame) must
// decode, and re-encode to the same bytes — the format did not move.
// (The fixtures were rewritten once since, when closeness rows stopped
// holding tuple nodes: each is the pre-frame file with those entries
// dropped and the row tag added to its fingerprint, byte-identical to
// what that derivation gives through this encoder.)
func TestGoldenFixtures(t *testing.T) {
	for _, tc := range []struct {
		file      string
		version   uint16
		pageBytes int
	}{
		{"testdata/v1.kqrart", FormatVersion, 0},
		{"testdata/v2.kqrart", FormatVersionPaged, DefaultPageBytes},
		{"testdata/v2-pages256.kqrart", FormatVersionPaged, 256},
	} {
		golden, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := Load(bytes.NewReader(golden), "")
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if snap.Version != tc.version || snap.Tables[TableWalk] == nil || snap.Tables[TableCloseness] == nil || len(snap.Tables[TableWalk].Entries) == 0 {
			t.Fatalf("%s: decoded v%d, walk %v, closeness %v", tc.file, snap.Version, snap.Tables[TableWalk] != nil, snap.Tables[TableCloseness] != nil)
		}
		re := encode(t, snap)
		if tc.version == FormatVersionPaged {
			re = encodePaged(t, snap, tc.pageBytes)
			idx, err := ReadPagedIndex(bytes.NewReader(golden), snap.Fingerprint)
			if err != nil || idx.Table(TableWalk).PageBytes != tc.pageBytes {
				t.Fatalf("%s: index: %v", tc.file, err)
			}
		}
		if !bytes.Equal(re, golden) {
			t.Fatalf("%s: re-encoding differs from the fixture (%d vs %d bytes)", tc.file, len(re), len(golden))
		}
	}
	// All three fixtures hold the same engine's tables: each version
	// decodes to the other's rows.
	var snaps []*Snapshot
	for _, f := range []string{"testdata/v1.kqrart", "testdata/v2.kqrart", "testdata/v2-pages256.kqrart"} {
		b, _ := os.ReadFile(f)
		s, _ := Load(bytes.NewReader(b), "")
		s.Version = 0
		snaps = append(snaps, s)
	}
	if !reflect.DeepEqual(snaps[0], snaps[1]) || !reflect.DeepEqual(snaps[0], snaps[2]) {
		t.Fatal("the v1 and v2 fixtures decode to different tables")
	}
}

// TestSaveLoadSaveFixedPoint: for both versions, what a load yields
// writes back to the bytes it came from.
func TestSaveLoadSaveFixedPoint(t *testing.T) {
	for _, pageBytes := range []int{-1, 0, minPageBytes} { // -1: v1
		write := func(s *Snapshot) []byte {
			if pageBytes < 0 {
				return encode(t, s)
			}
			return encodePaged(t, s, pageBytes)
		}
		first := write(sample())
		snap, err := Load(bytes.NewReader(first), "")
		if err != nil {
			t.Fatal(err)
		}
		if second := write(snap); !bytes.Equal(first, second) {
			t.Fatalf("pageBytes=%d: save→load→save moved the bytes", pageBytes)
		}
	}
}

// TestLoadAllocatesPerTable: decoding builds a handful of arrays per
// table — it must not allocate per row (the maps the codec used to
// decode into did, and then had to be re-sorted).
func TestLoadAllocatesPerTable(t *testing.T) {
	s := &Snapshot{Fingerprint: "alloc", Classes: []string{"c"}}
	s.Tables[TableWalk], s.Tables[TableCloseness] = &packed.Rows{}, &packed.Rows{}
	const rows = 4000
	for v := 0; v < rows; v++ {
		for _, tb := range []*packed.Rows{s.Tables[TableWalk], s.Tables[TableCloseness]} {
			raw := tb.Append(graph.NodeID(v), 8)
			for i := range 8 {
				packed.PutEntry(raw[i*packed.EntrySize:], graph.NodeID(v+i+1), 0.5)
			}
		}
	}
	for name, enc := range map[string][]byte{"v1": encode(t, s), "v2": encodePaged(t, s, 0)} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Load(bytes.NewReader(enc), ""); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > rows/10 {
			t.Errorf("%s: loading %d rows took %.0f allocations", name, 2*rows, allocs)
		}
	}
}

// TestNoSortNoMaps pins the acceptance criterion on the source: the
// codec neither sorts nor keys anything by node id.
func TestNoSortNoMaps(t *testing.T) {
	for _, f := range []string{"artifact.go", "read.go", "write.go", "paged.go", "paged_read.go", "../live/artifact.go"} {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, banned := range []string{"\"sort\"", "\"slices\"", "sort.", "map[graph.NodeID]"} {
			if bytes.Contains(src, []byte(banned)) {
				t.Errorf("%s contains %q", f, banned)
			}
		}
	}
}

// FuzzLoad feeds arbitrary bytes to the reader: it must never panic and
// must classify every failure as a sentinel error.
func FuzzLoad(f *testing.F) {
	f.Add([]byte{})
	f.Add(encode(f, sample()))
	fuzzLoad(f)
}

// FuzzLoadPaged seeds the fuzzer with a v2 file; the sequential reader
// and the index reader must classify every mutation as a sentinel.
func FuzzLoadPaged(f *testing.F) {
	f.Add(encodePaged(f, sample(), minPageBytes))
	fuzzLoad(f)
}

func fuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := Load(bytes.NewReader(data), "fuzz corpus")
		if err == nil {
			t.Fatal("fuzz input with mismatched fingerprint accepted")
		}
		_, ierr := ReadPagedIndex(bytes.NewReader(data), "fuzz corpus")
		for _, err := range []error{err, ierr} {
			if err != nil && !(frametest.Format{Typed: typedErrors}).IsTyped(err) {
				t.Fatalf("untyped error %v", err)
			}
		}
	})
}
