package artifact

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"kqr/internal/frame"
	"kqr/internal/graph"
	"kqr/internal/packed"
)

// PagedTable is the resident prelude of one paged table section: the
// CSR offsets, presence bitmap and page index. A disk-mode reader keeps
// it in memory while the entry blob stays on disk at BlobOff; the
// sequential loader and the writer use the same struct. Entry e of the
// blob occupies bytes [e*8, e*8+8) relative to BlobOff; page pg covers
// entries [PageStarts[pg], PageStarts[pg+1]) (EntryCount-terminated).
type PagedTable struct {
	// Kind names which table this is.
	Kind TableKind
	// NumNodes is the offsets array length minus one.
	NumNodes int
	// PageBytes is the writer's target page capacity.
	PageBytes int
	// EntryCount is the total number of 8-byte entries in the blob.
	EntryCount uint64
	// Off, Present, PageStarts and PageCRCs are the resident arrays —
	// see the package comment's v2 layout.
	Off        []uint32
	Present    []uint64
	PageStarts []uint32
	PageCRCs   []uint32
	// BlobOff is the absolute file offset of the entry blob (set by
	// ReadPagedIndex only).
	BlobOff int64
}

// Has reports whether v has a (possibly empty) row.
func (t *PagedTable) Has(v graph.NodeID) bool {
	if v < 0 || int(v) >= t.NumNodes {
		return false
	}
	return t.Present[uint(v)>>6]&(1<<(uint(v)&63)) != 0
}

// PageEnd returns the first entry index past page pg.
func (t *PagedTable) PageEnd(pg int) uint64 {
	if pg+1 < len(t.PageStarts) {
		return uint64(t.PageStarts[pg+1])
	}
	return t.EntryCount
}

// MetaBytes is the resident size of the index arrays.
func (t *PagedTable) MetaBytes() int64 {
	return int64(len(t.Off))*4 + int64(len(t.Present))*8 +
		int64(len(t.PageStarts))*4 + int64(len(t.PageCRCs))*4
}

// BlobBytes is the on-disk size of the entry blob — what the table
// would cost resident if fully decoded.
func (t *PagedTable) BlobBytes() int64 { return int64(t.EntryCount) * pagedEntrySize }

// preludeFixed is the prelude's fixed head: numNodes, pageBytes,
// entryCount, pageCount.
const preludeFixed = 4 + 4 + 8 + 4

// readPrelude decodes and validates the resident prelude of the paged
// section open as rr's region, verifying the prelude's embedded CRC. It
// leaves rr at the first blob byte, having checked that the blob is
// exactly the rest of the section. On any failure rr's error is set and
// nil is returned.
func readPrelude(rr *frame.Reader, kind TableKind) *PagedTable {
	head := rr.Block(preludeFixed)
	if rr.Err() != nil {
		return nil
	}
	crc := crc32.ChecksumIEEE(head)
	numNodes := binary.LittleEndian.Uint32(head)
	pageCount := binary.LittleEndian.Uint32(head[16:])
	t := &PagedTable{
		Kind:       kind,
		NumNodes:   int(numNodes),
		PageBytes:  int(binary.LittleEndian.Uint32(head[4:])),
		EntryCount: binary.LittleEndian.Uint64(head[8:]),
	}
	if numNodes > math.MaxInt32 {
		rr.Failf("paged section claims %d nodes", numNodes)
		return nil
	}
	// The arrays are read in one block, which grows only as their bytes
	// arrive: a hostile count cannot allocate ahead of its data.
	words := (uint64(numNodes) + 63) / 64
	b := rr.Block((uint64(numNodes)+1)*4 + words*8 + uint64(pageCount)*8)
	if rr.Err() != nil {
		return nil
	}
	crc = crc32.Update(crc, crc32.IEEETable, b)
	t.Off, b = u32s(b, int(numNodes)+1)
	t.Present = make([]uint64, words)
	for i := range t.Present {
		t.Present[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	t.PageStarts, b = u32s(b[words*8:], int(pageCount))
	t.PageCRCs, _ = u32s(b, int(pageCount))
	if stored := rr.U32(); rr.Err() == nil && stored != crc {
		rr.Fail(fmt.Errorf("%w: paged prelude CRC %08x, stored %08x", ErrChecksum, crc, stored))
	}
	if rr.Err() != nil {
		return nil
	}
	if err := t.validate(); err != nil {
		rr.Fail(err)
		return nil
	}
	if left := rr.Left(); left/pagedEntrySize != t.EntryCount || left%pagedEntrySize != 0 {
		rr.Failf("paged section leaves %d bytes for %d entries", left, t.EntryCount)
		return nil
	}
	return t
}

// u32s decodes n little-endian uint32s off the front of b and returns
// them with the rest.
func u32s(b []byte, n int) ([]uint32, []byte) {
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out, b[n*4:]
}

// validate cross-checks the prelude's internal consistency: in-range
// strictly increasing page starts opening at zero, monotone offsets
// closing at EntryCount, no orphan entries (a row with entries must be
// present), and row alignment — every page opens exactly at a row's
// first entry and no row spans two pages, which is what lets a reader
// serve a row from the one page that holds its first entry.
func (t *PagedTable) validate() error {
	for i, ps := range t.PageStarts {
		if i == 0 && ps != 0 {
			return fmt.Errorf("%w: first page starts at entry %d, want 0", ErrTruncated, ps)
		}
		if i > 0 && ps <= t.PageStarts[i-1] {
			return fmt.Errorf("%w: page starts not increasing at page %d", ErrTruncated, i)
		}
		if uint64(ps) >= t.EntryCount {
			return fmt.Errorf("%w: page %d starts at entry %d of %d", ErrTruncated, i, ps, t.EntryCount)
		}
	}
	page := -1 // the page the last non-empty row lies in
	for v := 0; v < t.NumNodes; v++ {
		lo, hi := uint64(t.Off[v]), uint64(t.Off[v+1])
		if lo == hi {
			continue
		}
		if lo > hi {
			return fmt.Errorf("%w: paged offsets decrease at node %d", ErrTruncated, v)
		}
		if !t.Has(graph.NodeID(v)) {
			return fmt.Errorf("%w: paged node %d has entries but no presence bit", ErrTruncated, v)
		}
		if page < 0 || lo >= t.PageEnd(page) {
			page++
			if page >= len(t.PageStarts) || uint64(t.PageStarts[page]) != lo {
				return fmt.Errorf("%w: row %d starts at entry %d, not on a page boundary", ErrTruncated, v, lo)
			}
		}
		if hi > t.PageEnd(page) {
			return fmt.Errorf("%w: row %d spans pages", ErrTruncated, v)
		}
	}
	if uint64(t.Off[t.NumNodes]) != t.EntryCount {
		return fmt.Errorf("%w: paged offsets end at %d, entry count %d",
			ErrTruncated, t.Off[t.NumNodes], t.EntryCount)
	}
	// Every page start lies below EntryCount, hence inside a row or at
	// its head; the walk above refused the former, so every page is used.
	return nil
}

// DecodePage verifies raw — the blob bytes of page pg, entries
// PageStarts[pg] to PageEnd(pg) — against the page's stored CRC and
// decodes its (u32 node, f32 score) entries into nodes and scores, each
// len(raw)/8 long. It is the one page-entry decoder: the sequential
// restore below and diskmode's page fault both call it.
func (t *PagedTable) DecodePage(pg int, raw []byte, nodes []graph.NodeID, scores []float32) error {
	if crc := crc32.ChecksumIEEE(raw); crc != t.PageCRCs[pg] {
		return fmt.Errorf("%w: page %d CRC %08x, stored %08x", ErrChecksum, pg, crc, t.PageCRCs[pg])
	}
	for i := range nodes {
		nodes[i] = graph.NodeID(binary.LittleEndian.Uint32(raw[i*pagedEntrySize:]))
		scores[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*pagedEntrySize+4:]))
	}
	return nil
}

// readPagedRows decodes a paged table section sequentially — the
// restore path of a v2 file opened without disk mode. The prelude is
// the table's index as it stands; the blob is read page by page, each
// verified against its stored CRC.
func readPagedRows(rr *frame.Reader, kind TableKind) *packed.Rows {
	t := readPrelude(rr, kind)
	if t == nil {
		return nil
	}
	rows := &packed.Rows{}
	for pg, start := range t.PageStarts {
		b := rr.Block((t.PageEnd(pg) - uint64(start)) * pagedEntrySize)
		if rr.Err() != nil {
			return nil
		}
		n := len(b) / pagedEntrySize
		rows.Nodes = append(rows.Nodes, make([]graph.NodeID, n)...)
		rows.Scores = append(rows.Scores, make([]float32, n)...)
		if err := t.DecodePage(pg, b, rows.Nodes[start:], rows.Scores[start:]); err != nil {
			rr.Fail(err)
			return nil
		}
	}
	for v := 0; v < t.NumNodes; v++ {
		if !t.Has(graph.NodeID(v)) {
			continue
		}
		rows.Src = append(rows.Src, graph.NodeID(v))
		rows.End = append(rows.End, t.Off[v+1])
	}
	return rows
}

// ---- Random-access index loading (disk mode) --------------------------

// PagedIndex is the resident part of a whole v2 paged file: header,
// vocabulary, and one PagedTable per paged section. ReadPagedIndex
// builds it without reading any blob bytes.
type PagedIndex struct {
	// Fingerprint is the corpus fingerprint from the header.
	Fingerprint string
	// Classes and Vocabulary mirror Snapshot's fields.
	Classes    []string
	Vocabulary []Term
	// Tables holds one entry per paged section, in file order.
	Tables []*PagedTable
}

// Table returns the index's table of the given kind, nil when the file
// has none.
func (x *PagedIndex) Table(kind TableKind) *PagedTable {
	for _, t := range x.Tables {
		if t.Kind == kind {
			return t
		}
	}
	return nil
}

// ReadPagedIndex loads the resident part of a v2 paged file from r:
// the header (verifying magic, version and fingerprint — pass "" to
// skip the fingerprint check), the vocabulary section (verifying its
// section CRC), and each paged section's prelude (verifying the
// embedded prelude CRC and the prelude's internal consistency) — the
// same decoders Load runs, over one section of the file at a time.
// Blob bytes are never read — their integrity is the per-page CRCs'
// job at fault time. A v1 file fails with ErrVersion: it has no page
// index to read.
func ReadPagedIndex(r io.ReaderAt, fingerprint string) (*PagedIndex, error) {
	const toEOF = 1 << 62 // section readers end where the file does
	rr := frame.NewReader(io.NewSectionReader(r, 0, toEOF))
	version, fp, err := readHeader(rr, "")
	if err != nil {
		return nil, err
	}
	if version != FormatVersionPaged {
		return nil, fmt.Errorf("%w: file has v%d, paged reads need v%d (re-save with WritePaged)",
			ErrVersion, version, FormatVersionPaged)
	}
	if fingerprint != "" && fp != fingerprint {
		return nil, fmt.Errorf("%w: snapshot %q, corpus %q", ErrFingerprint, fp, fingerprint)
	}

	idx := &PagedIndex{Fingerprint: fp}
	for pos := rr.Pos(); ; {
		rr = frame.NewReader(io.NewSectionReader(r, pos, toEOF))
		id, ok := nextSection(rr)
		if !ok {
			if rr.Err() != nil {
				return nil, rr.Err()
			}
			return idx, nil // clean EOF after the last section
		}
		length := rr.Left()
		if length > toEOF {
			return nil, fmt.Errorf("%w: section %d declares %d bytes", ErrTruncated, id, length)
		}
		switch {
		case id == secVocabulary:
			// The vocabulary is fully resident; verify its section CRC
			// like the sequential loader does.
			idx.Classes, idx.Vocabulary = readVocabulary(rr)
			endSection(rr, id)
		case id >= secWalkPaged && id <= secClosenessPaged:
			if t := readPrelude(rr, TableKind(id-secWalkPaged)); t != nil {
				t.BlobOff = pos + rr.Pos()
				// The index never reads the blob, so probe its last byte:
				// a file cut mid-blob must fail at open, not at first fault.
				if t.EntryCount > 0 {
					var b [1]byte
					if n, _ := r.ReadAt(b[:], t.BlobOff+t.BlobBytes()-1); n == 0 {
						return nil, fmt.Errorf("%w: paged blob cut short", ErrTruncated)
					}
				}
				idx.Tables = append(idx.Tables, t)
			}
		}
		if rr.Err() != nil {
			return nil, rr.Err()
		}
		// Past the payload (read or not) and the section CRC.
		pos += 1 + 8 + int64(length) + 4
	}
}
