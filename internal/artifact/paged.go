package artifact

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"kqr/internal/graph"
)

// FormatVersionPaged is the paged snapshot format (KQRART v2). A v2
// file carries the same header and section framing as v1, the same
// vocabulary section, and paged table sections (secWalkPaged …) whose
// payload splits into a small resident prelude — CSR offsets, presence
// bitmap, page index, per-page CRCs — and a page-aligned entry blob
// that a disk-mode reader faults on demand instead of decoding at load.
// Load reads both versions; WritePaged emits v2.
const FormatVersionPaged uint16 = 2

// Paged section ids (v2). Each is the paged twin of a v1 section.
const (
	secWalkPaged      uint8 = 5
	secCooccurPaged   uint8 = 6
	secClosenessPaged uint8 = 7
)

// pagedEntrySize is the encoded size of one paged (node, score) pair:
// u32 node + f32 score. Halving the v1 entry is what makes rows
// pageable; every stored score is already on the float32 grid
// (packed.NewRow), so narrowing loses nothing.
const pagedEntrySize = 4 + 4

// DefaultPageBytes is the target page capacity when PagedOptions leaves
// PageBytes zero: 32 KiB ≈ 4096 entries, a few dozen rows — big enough
// to amortize a read and a CRC, small enough that a tight cache budget
// still holds many distinct pages.
const DefaultPageBytes = 32 << 10

// minPageBytes floors configurable page sizes; a page must hold at
// least a handful of entries or the page index outweighs the blob.
const minPageBytes = 256

// PagedOptions tunes WritePaged.
type PagedOptions struct {
	// PageBytes is the target page capacity in bytes (default
	// DefaultPageBytes, min 256). Pages are row-aligned: no row spans
	// two pages, and a row larger than PageBytes gets one oversized
	// page to itself.
	PageBytes int
}

func (o PagedOptions) withDefaults() PagedOptions {
	if o.PageBytes == 0 {
		o.PageBytes = DefaultPageBytes
	}
	if o.PageBytes < minPageBytes {
		o.PageBytes = minPageBytes
	}
	return o
}

// TableKind names the table a paged section carries.
type TableKind uint8

const (
	// TableWalk is the random-walk similar-term table (contextual or
	// individual mode — the fingerprint distinguishes them).
	TableWalk TableKind = iota
	// TableCooccur is the co-occurrence similar-term table.
	TableCooccur
	// TableCloseness is the closeness table.
	TableCloseness
)

// String names the kind.
func (k TableKind) String() string {
	switch k {
	case TableCooccur:
		return "cooccur"
	case TableCloseness:
		return "closeness"
	default:
		return "walk"
	}
}

// sectionOf maps a kind to its paged section id.
func (k TableKind) section() uint8 {
	switch k {
	case TableCooccur:
		return secCooccurPaged
	case TableCloseness:
		return secClosenessPaged
	default:
		return secWalkPaged
	}
}

// kindOf maps a paged section id back to its kind.
func kindOf(sec uint8) TableKind {
	switch sec {
	case secCooccurPaged:
		return TableCooccur
	case secClosenessPaged:
		return TableCloseness
	default:
		return TableWalk
	}
}

// pagedTable is one encoded paged section: the resident prelude arrays
// plus the entry blob, built in memory before writing (the blob is
// smaller than the source maps, so this costs less than the snapshot
// the caller already holds).
type pagedTable struct {
	kind       TableKind
	numNodes   int
	pageBytes  uint32
	off        []uint32
	present    []uint64
	pageStarts []uint32
	pageCRCs   []uint32
	blob       []byte
}

// pagedRow is one source row handed to buildPagedTable, entries already
// in their canonical order (rank order for similarity, neighbor-id
// order for closeness).
type pagedRow struct {
	src     graph.NodeID
	nodes   []graph.NodeID
	scores  []float64
	ordered bool // closeness rows need neighbor-id sorting first
}

// buildPagedTable lays rows out as CSR offsets plus a row-aligned page
// index over the entry blob. rows must be sorted by src ascending with
// every src in [0, numNodes).
func buildPagedTable(kind TableKind, numNodes int, pageBytes int, rows []pagedRow) *pagedTable {
	t := &pagedTable{
		kind:      kind,
		numNodes:  numNodes,
		pageBytes: uint32(pageBytes),
		off:       make([]uint32, numNodes+1),
		present:   make([]uint64, (numNodes+63)/64),
	}
	total := 0
	for _, r := range rows {
		total += len(r.nodes)
	}
	t.blob = make([]byte, 0, total*pagedEntrySize)
	perPage := pageBytes / pagedEntrySize
	if perPage < 1 {
		perPage = 1
	}
	pageLen := 0 // entries in the open page
	next := 0
	entries := 0
	for v := 0; v <= numNodes; v++ {
		t.off[v] = uint32(entries)
		if v == numNodes {
			break
		}
		if next >= len(rows) || rows[next].src != graph.NodeID(v) {
			continue
		}
		r := rows[next]
		next++
		t.present[uint(v)>>6] |= 1 << (uint(v) & 63)
		if len(r.nodes) == 0 {
			continue // cached-empty row: present bit only, no page
		}
		// Row-aligned paging: open a new page when this row would
		// overflow the current one (an oversized row still gets exactly
		// one page — its own).
		if pageLen == 0 || pageLen+len(r.nodes) > perPage {
			t.pageStarts = append(t.pageStarts, uint32(entries))
			pageLen = 0
		}
		pageLen += len(r.nodes)
		var buf [pagedEntrySize]byte
		for i := range r.nodes {
			binary.LittleEndian.PutUint32(buf[0:4], uint32(r.nodes[i]))
			binary.LittleEndian.PutUint32(buf[4:8], math.Float32bits(float32(r.scores[i])))
			t.blob = append(t.blob, buf[:]...)
		}
		entries += len(r.nodes)
	}
	// Per-page CRCs over the raw page bytes, so a disk-mode reader can
	// verify a faulted page without trusting anything beyond the
	// resident prelude.
	t.pageCRCs = make([]uint32, len(t.pageStarts))
	for p := range t.pageStarts {
		lo := int(t.pageStarts[p]) * pagedEntrySize
		hi := len(t.blob)
		if p+1 < len(t.pageStarts) {
			hi = int(t.pageStarts[p+1]) * pagedEntrySize
		}
		t.pageCRCs[p] = crc32.ChecksumIEEE(t.blob[lo:hi])
	}
	return t
}

// preludeSize is the encoded byte length of the resident prelude,
// including the trailing prelude CRC.
func (t *pagedTable) preludeSize() uint64 {
	return 4 + 4 + 8 + 4 + // numNodes, pageBytes, entryCount, pageCount
		uint64(len(t.off))*4 + uint64(len(t.present))*8 +
		uint64(len(t.pageStarts))*4 + uint64(len(t.pageCRCs))*4 + 4
}

// payloadSize is the full section payload length: prelude plus blob.
func (t *pagedTable) payloadSize() uint64 {
	return t.preludeSize() + uint64(len(t.blob))
}

// writeTo emits the prelude (with its own CRC over the prelude bytes,
// so an index-only reader can verify what it keeps resident without
// reading the blob) followed by the blob. The caller's section CRC
// still covers everything.
func (t *pagedTable) writeTo(ww *writer) {
	crc := uint32(0)
	emit := func(p []byte) {
		crc = crc32.Update(crc, crc32.IEEETable, p)
		ww.write(p)
	}
	var buf [8]byte
	u32 := func(v uint32) { binary.LittleEndian.PutUint32(buf[:4], v); emit(buf[:4]) }
	u64 := func(v uint64) { binary.LittleEndian.PutUint64(buf[:8], v); emit(buf[:8]) }
	u32(uint32(t.numNodes))
	u32(t.pageBytes)
	u64(uint64(len(t.blob) / pagedEntrySize))
	u32(uint32(len(t.pageStarts)))
	for _, v := range t.off {
		u32(v)
	}
	for _, v := range t.present {
		u64(v)
	}
	for _, v := range t.pageStarts {
		u32(v)
	}
	for _, v := range t.pageCRCs {
		u32(v)
	}
	ww.u32(crc) // prelude CRC: outside its own coverage, inside the section CRC
	ww.write(t.blob)
}

// simRows converts a similar-term map into sorted pagedRows (rank
// order inside each row, as cached).
func simRows(m map[graph.NodeID][]graph.Scored, numNodes int) []pagedRow {
	rows := make([]pagedRow, 0, len(m))
	for _, src := range sortedKeys(m) {
		if src < 0 || int(src) >= numNodes {
			continue
		}
		list := m[src]
		r := pagedRow{src: src, nodes: make([]graph.NodeID, len(list)), scores: make([]float64, len(list))}
		for i, sn := range list {
			r.nodes[i] = sn.Node
			r.scores[i] = sn.Score
		}
		rows = append(rows, r)
	}
	return rows
}

// closRows converts the closeness map into sorted pagedRows (neighbor
// id order inside each row, the order packed.Probe searches).
func closRows(m map[graph.NodeID]map[graph.NodeID]float64, numNodes int) []pagedRow {
	rows := make([]pagedRow, 0, len(m))
	for _, src := range sortedKeys(m) {
		if src < 0 || int(src) >= numNodes {
			continue
		}
		vec := m[src]
		r := pagedRow{src: src, nodes: make([]graph.NodeID, 0, len(vec)), scores: make([]float64, 0, len(vec))}
		for _, dst := range sortedKeys(vec) {
			r.nodes = append(r.nodes, dst)
			r.scores = append(r.scores, vec[dst])
		}
		rows = append(rows, r)
	}
	return rows
}

// pagedNumNodes sizes the CSR offset arrays: one past the largest node
// id that can ever be a row source — every vocabulary term plus every
// key of every table.
func (s *Snapshot) pagedNumNodes() int {
	max := graph.NodeID(-1)
	for _, t := range s.Vocabulary {
		if t.Node > max {
			max = t.Node
		}
	}
	for v := range s.Walk {
		if v > max {
			max = v
		}
	}
	for v := range s.Cooccur {
		if v > max {
			max = v
		}
	}
	for v := range s.Closeness {
		if v > max {
			max = v
		}
	}
	return int(max) + 1
}

// WritePaged streams the snapshot to w as a KQRART v2 paged file:
// the v1 header and vocabulary section, then one paged section per
// non-nil table. Load reads the result back into the same Snapshot;
// diskmode opens it without decoding the blobs.
func (s *Snapshot) WritePaged(w io.Writer, opts PagedOptions) error {
	opts = opts.withDefaults()
	ww := &writer{w: w}
	ww.write(magic[:])
	ww.u16(FormatVersionPaged)
	ww.str(s.Fingerprint)
	ww.checksum()

	s.writeSection(ww, secVocabulary, s.vocabularySize(), s.writeVocabulary)
	numNodes := s.pagedNumNodes()
	emit := func(kind TableKind, rows []pagedRow) {
		t := buildPagedTable(kind, numNodes, opts.PageBytes, rows)
		s.writeSection(ww, kind.section(), t.payloadSize(), t.writeTo)
	}
	if s.Walk != nil {
		emit(TableWalk, simRows(s.Walk, numNodes))
	}
	if s.Cooccur != nil {
		emit(TableCooccur, simRows(s.Cooccur, numNodes))
	}
	if s.Closeness != nil {
		emit(TableCloseness, closRows(s.Closeness, numNodes))
	}
	if ww.err != nil {
		return fmt.Errorf("artifact: writing paged snapshot: %w", ww.err)
	}
	return nil
}
