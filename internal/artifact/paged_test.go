package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"kqr/internal/graph"
)

// TestPagedRoundTrip: Load must decode a v2 file back into the same
// snapshot, at the default page size and at the floor (forcing one row
// per page and oversized-row pages).
func TestPagedRoundTrip(t *testing.T) {
	for _, pageBytes := range []int{0, minPageBytes, 1 /* clamps to floor */} {
		want := sample()
		got, err := Load(bytes.NewReader(encodePaged(t, want, pageBytes)), "")
		if err != nil {
			t.Fatalf("pageBytes=%d: %v", pageBytes, err)
		}
		if got.Version != FormatVersionPaged {
			t.Fatalf("version = %d, want %d", got.Version, FormatVersionPaged)
		}
		got.Version = 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pageBytes=%d round trip mismatch:\ngot  %+v\nwant %+v", pageBytes, got, want)
		}
	}
}

// TestReadPagedIndex: the resident index must describe the same rows
// Load decodes, and its blob regions must decode to the same entries.
func TestReadPagedIndex(t *testing.T) {
	want := sample()
	enc := encodePaged(t, want, minPageBytes)
	idx, err := ReadPagedIndex(bytes.NewReader(enc), want.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Fingerprint != want.Fingerprint {
		t.Fatalf("fingerprint = %q", idx.Fingerprint)
	}
	if !reflect.DeepEqual(idx.Vocabulary, want.Vocabulary) || !reflect.DeepEqual(idx.Classes, want.Classes) {
		t.Fatalf("vocabulary mismatch: %+v", idx)
	}
	if len(idx.Tables) != 3 {
		t.Fatalf("tables = %d, want 3", len(idx.Tables))
	}
	walk := idx.Table(TableWalk)
	if walk == nil || idx.Table(TableCooccur) == nil || idx.Table(TableCloseness) == nil {
		t.Fatalf("missing table kinds: %+v", idx.Tables)
	}
	// Decode every present row straight from the blob and compare with
	// the source rows — offsets, presence and payload must agree.
	next := 0
	for v := graph.NodeID(0); int(v) < walk.NumNodes; v++ {
		ok := next < len(want.Tables[TableWalk].Src) && want.Tables[TableWalk].Src[next] == v
		if walk.Has(v) != ok {
			t.Fatalf("node %d: Has = %v, source row exists = %v", v, walk.Has(v), ok)
		}
		if !ok {
			continue
		}
		_, nodes, scores := want.Tables[TableWalk].Row(next)
		next++
		lo, hi := walk.Off[v], walk.Off[v+1]
		if int(hi-lo) != len(nodes) {
			t.Fatalf("node %d: row length %d, want %d", v, hi-lo, len(nodes))
		}
		b := enc[walk.BlobOff+int64(lo)*pagedEntrySize:]
		for i := range nodes {
			node := graph.NodeID(binary.LittleEndian.Uint32(b[i*pagedEntrySize:]))
			score := math.Float32frombits(binary.LittleEndian.Uint32(b[i*pagedEntrySize+4:]))
			if node != nodes[i] || score != scores[i] {
				t.Fatalf("node %d entry %d: (%d, %v), want (%d, %v)", v, i, node, score, nodes[i], scores[i])
			}
		}
	}
	if next != len(want.Tables[TableWalk].Src) {
		t.Fatalf("index covers %d of %d rows", next, len(want.Tables[TableWalk].Src))
	}
	// Per-page CRCs must verify over the raw blob regions.
	for p := range walk.PageStarts {
		lo := walk.BlobOff + int64(walk.PageStarts[p])*pagedEntrySize
		hi := walk.BlobOff + int64(walk.PageEnd(p))*pagedEntrySize
		if crc32.ChecksumIEEE(enc[lo:hi]) != walk.PageCRCs[p] {
			t.Fatalf("page %d CRC mismatch", p)
		}
	}
}

// TestReadPagedIndexRejects: a wrong fingerprint, a v1 input and a file
// cut mid-blob must all fail typed at open. (Flips and the other cuts
// are the corruption matrix's.)
func TestReadPagedIndexRejects(t *testing.T) {
	enc := encodePaged(t, sample(), minPageBytes)
	if _, err := ReadPagedIndex(bytes.NewReader(enc), "other corpus"); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("fingerprint: err = %v", err)
	}
	if _, err := ReadPagedIndex(bytes.NewReader(encode(t, sample())), ""); !errors.Is(err, ErrVersion) {
		t.Fatalf("v1 file: err = %v, want ErrVersion", err)
	}
	idx, err := ReadPagedIndex(bytes.NewReader(enc), "")
	if err != nil {
		t.Fatal(err)
	}
	last := idx.Tables[len(idx.Tables)-1]
	if _, err := ReadPagedIndex(bytes.NewReader(enc[:last.BlobOff+last.BlobBytes()-3]), ""); !errors.Is(err, ErrTruncated) {
		t.Fatalf("mid-blob cut: err = %v, want ErrTruncated", err)
	}
}

// TestPreludeAlignmentValidated: a reader serves a row from the one
// page holding its first entry, so a prelude whose pages do not open on
// row boundaries (or whose rows span pages) must be refused at open —
// by the sequential loader and the index reader alike, through the one
// validate.
func TestPreludeAlignmentValidated(t *testing.T) {
	good := func() *PagedTable {
		tb, _ := buildPaged(TableWalk, 7, minPageBytes, sample().Tables[TableWalk])
		return tb
	}
	if err := good().validate(); err != nil {
		t.Fatalf("writer's own prelude refused: %v", err)
	}
	for name, breakIt := range map[string]func(*PagedTable){
		"page opens mid-row":  func(tb *PagedTable) { tb.PageStarts = []uint32{0, 1} },
		"row spans pages":     func(tb *PagedTable) { tb.PageStarts = []uint32{0, 4}; tb.Off[6] = 2 },
		"entries, no pages":   func(tb *PagedTable) { tb.PageStarts = nil },
		"orphan entries":      func(tb *PagedTable) { tb.Present[0] = 0 },
		"offsets decrease":    func(tb *PagedTable) { tb.Off[4] = 9 },
		"offsets end early":   func(tb *PagedTable) { tb.EntryCount++ },
		"first page not at 0": func(tb *PagedTable) { tb.PageStarts[0] = 1 },
	} {
		tb := good()
		breakIt(tb)
		if err := tb.validate(); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: validate = %v, want ErrTruncated", name, err)
		}
	}
}
