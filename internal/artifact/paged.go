package artifact

import (
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"kqr/internal/frame"
	"kqr/internal/packed"
)

// FormatVersionPaged is the paged snapshot format (KQRART v2). A v2
// file carries the same header and section framing as v1, the same
// vocabulary section, and paged table sections (secWalkPaged …) whose
// payload splits into a small resident prelude — CSR offsets, presence
// bitmap, page index, per-page CRCs — and a page-aligned entry blob
// that a disk-mode reader faults on demand instead of decoding at load.
// Load reads both versions; WritePaged emits v2.
const FormatVersionPaged uint16 = 2

// Paged section ids (v2). Each is the paged twin of a v1 section: both
// runs are in TableKind order.
const (
	secWalkPaged      uint8 = 5
	secCooccurPaged   uint8 = 6
	secClosenessPaged uint8 = 7
)

// pagedEntrySize is the encoded size of one paged (node, score) pair:
// u32 node + f32 score. Halving the v1 entry is what makes rows
// pageable; every stored score is already on the float32 grid
// (packed.Quantize), so v1's f64 carries nothing more.
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

// TableKind names the table a section carries.
type TableKind uint8

const (
	// TableWalk is the random-walk similar-term table (contextual or
	// individual mode — the fingerprint distinguishes them).
	TableWalk TableKind = iota
	// TableCooccur is the co-occurrence similar-term table.
	TableCooccur
	// TableCloseness is the closeness table.
	TableCloseness

	numTables = iota
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

// buildPaged lays a table out as one paged section over numNodes
// nodes: CSR offsets and presence bitmap, a row-aligned page index, and
// the entry blob with a CRC per page, so a disk-mode reader can verify
// a faulted page without trusting anything beyond the resident prelude.
// The blob is built in memory — it is the size of the table itself.
func buildPaged(kind TableKind, numNodes, pageBytes int, rows *packed.Rows) (*PagedTable, []byte) {
	t := &PagedTable{
		Kind:       kind,
		NumNodes:   numNodes,
		PageBytes:  pageBytes,
		EntryCount: uint64(len(rows.Nodes)),
		Off:        make([]uint32, numNodes+1),
		Present:    make([]uint64, (numNodes+63)/64),
	}
	blob := make([]byte, 0, len(rows.Nodes)*pagedEntrySize)
	perPage := max(pageBytes/pagedEntrySize, 1)
	pageLen := 0 // entries in the open page
	next := 0
	for v := 0; v <= numNodes; v++ {
		t.Off[v] = uint32(len(blob) / pagedEntrySize)
		if next == len(rows.Src) || int(rows.Src[next]) != v {
			continue
		}
		_, nodes, scores := rows.Row(next)
		next++
		t.Present[uint(v)>>6] |= 1 << (uint(v) & 63)
		if len(nodes) == 0 {
			continue // cached-empty row: present bit only, no page
		}
		// Row-aligned paging: open a new page when this row would
		// overflow the current one (an oversized row still gets exactly
		// one page — its own).
		if pageLen == 0 || pageLen+len(nodes) > perPage {
			t.PageStarts = append(t.PageStarts, t.Off[v])
			pageLen = 0
		}
		pageLen += len(nodes)
		for i := range nodes {
			blob = frame.AppendU32(blob, uint32(nodes[i]))
			blob = frame.AppendU32(blob, math.Float32bits(scores[i]))
		}
	}
	t.PageCRCs = make([]uint32, len(t.PageStarts))
	for pg, start := range t.PageStarts {
		t.PageCRCs[pg] = crc32.ChecksumIEEE(blob[uint64(start)*pagedEntrySize : t.PageEnd(pg)*pagedEntrySize])
	}
	return t, blob
}

// appendPrelude encodes the resident prelude, without its trailing CRC.
func (t *PagedTable) appendPrelude(b []byte) []byte {
	b = frame.AppendU32(b, uint32(t.NumNodes))
	b = frame.AppendU32(b, uint32(t.PageBytes))
	b = frame.AppendU64(b, t.EntryCount)
	b = frame.AppendU32(b, uint32(len(t.PageStarts)))
	for _, v := range t.Off {
		b = frame.AppendU32(b, v)
	}
	for _, v := range t.Present {
		b = frame.AppendU64(b, v)
	}
	for _, v := range t.PageStarts {
		b = frame.AppendU32(b, v)
	}
	for _, v := range t.PageCRCs {
		b = frame.AppendU32(b, v)
	}
	return b
}

// pagedNumNodes sizes the CSR offset arrays: one past the largest node
// id that is a row source or a vocabulary term.
func (s *Snapshot) pagedNumNodes() int {
	top := -1
	for _, t := range s.Vocabulary {
		top = max(top, int(t.Node))
	}
	for _, t := range s.Tables {
		if t != nil && len(t.Src) > 0 {
			top = max(top, int(t.Src[len(t.Src)-1]))
		}
	}
	return top + 1
}

// WritePaged streams the snapshot to w as a KQRART v2 paged file:
// the v1 header and vocabulary section, then one paged section per
// non-nil table — prelude, the prelude's own CRC (so an index-only
// reader can verify what it keeps resident without reading the blob),
// blob; the section CRC still covers everything. Load reads the result
// back into the same Snapshot; diskmode opens it without decoding the
// blobs.
func (s *Snapshot) WritePaged(w io.Writer, opts PagedOptions) error {
	opts = opts.withDefaults()
	ww := frame.NewWriter(w)
	s.writeHeader(ww, FormatVersionPaged)
	numNodes := s.pagedNumNodes()
	for kind, rows := range s.Tables {
		if rows == nil {
			continue
		}
		t, blob := buildPaged(TableKind(kind), numNodes, opts.PageBytes, rows)
		prelude := t.appendPrelude(nil)
		ww.U8(secWalkPaged + uint8(kind))
		ww.U64(uint64(len(prelude)) + 4 + uint64(len(blob)))
		ww.Bytes(prelude)
		ww.U32(crc32.ChecksumIEEE(prelude))
		ww.Bytes(blob)
		ww.Checksum()
	}
	if err := ww.Flush(); err != nil {
		return fmt.Errorf("artifact: writing paged snapshot: %w", err)
	}
	return nil
}
