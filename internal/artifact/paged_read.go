package artifact

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"kqr/internal/graph"
)

// pagedPrelude is the decoded resident part of one paged section.
type pagedPrelude struct {
	numNodes   int
	pageBytes  uint32
	entryCount uint64
	off        []uint32
	present    []uint64
	pageStarts []uint32
	pageCRCs   []uint32
}

// rows counts the present rows (set bits).
func (p *pagedPrelude) rows() int {
	n := 0
	for _, w := range p.present {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// has reports whether v has a (possibly empty) row.
func (p *pagedPrelude) has(v graph.NodeID) bool {
	if v < 0 || int(v) >= p.numNodes {
		return false
	}
	return p.present[uint(v)>>6]&(1<<(uint(v)&63)) != 0
}

// readPagedPrelude decodes and validates one paged section's resident
// prelude, verifying its embedded CRC. On any inconsistency the
// reader's sticky error is set and ok is false.
func (r *reader) readPagedPrelude() (p pagedPrelude, ok bool) {
	r.crc2, r.dual = 0, true
	numNodes := r.u32()
	p.pageBytes = r.u32()
	p.entryCount = r.u64()
	pageCount := r.u32()
	if r.err != nil {
		r.dual = false
		return p, false
	}
	p.numNodes = int(numNodes)
	if !r.needCount(uint64(numNodes)+1, 4) {
		r.dual = false
		return p, false
	}
	p.off = make([]uint32, numNodes+1)
	b := r.block((uint64(numNodes) + 1) * 4)
	if r.err != nil {
		r.dual = false
		return p, false
	}
	for i := range p.off {
		p.off[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	words := (uint64(numNodes) + 63) / 64
	if !r.needCount(words, 8) {
		r.dual = false
		return p, false
	}
	p.present = make([]uint64, words)
	b = r.block(words * 8)
	if r.err != nil {
		r.dual = false
		return p, false
	}
	for i := range p.present {
		p.present[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	// Each page costs 8 bytes across the two arrays.
	if !r.needCount(uint64(pageCount), 8) {
		r.dual = false
		return p, false
	}
	p.pageStarts = make([]uint32, pageCount)
	b = r.block(uint64(pageCount) * 4)
	if r.err != nil {
		r.dual = false
		return p, false
	}
	for i := range p.pageStarts {
		p.pageStarts[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	p.pageCRCs = make([]uint32, pageCount)
	b = r.block(uint64(pageCount) * 4)
	if r.err != nil {
		r.dual = false
		return p, false
	}
	for i := range p.pageCRCs {
		p.pageCRCs[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	preludeCRC := r.crc2
	r.dual = false
	stored := r.u32()
	if r.err != nil {
		return p, false
	}
	if stored != preludeCRC {
		r.fail(fmt.Errorf("%w: paged prelude CRC %08x, stored %08x", ErrChecksum, preludeCRC, stored))
		return p, false
	}
	if err := p.validate(); err != nil {
		r.fail(err)
		return p, false
	}
	if !r.needCount(p.entryCount, pagedEntrySize) {
		return p, false
	}
	return p, true
}

// validate cross-checks the prelude's internal consistency: monotone
// offsets closing at entryCount, in-range strictly increasing page
// starts opening at zero, and no orphan entries (a row with entries
// must be present).
func (p *pagedPrelude) validate() error {
	for v := 0; v < p.numNodes; v++ {
		if p.off[v] > p.off[v+1] {
			return fmt.Errorf("%w: paged offsets decrease at node %d", ErrTruncated, v)
		}
		if p.off[v] != p.off[v+1] && !p.has(graph.NodeID(v)) {
			return fmt.Errorf("%w: paged node %d has entries but no presence bit", ErrTruncated, v)
		}
	}
	if uint64(p.off[p.numNodes]) != p.entryCount {
		return fmt.Errorf("%w: paged offsets end at %d, entry count %d",
			ErrTruncated, p.off[p.numNodes], p.entryCount)
	}
	for i, ps := range p.pageStarts {
		if i == 0 && ps != 0 {
			return fmt.Errorf("%w: first page starts at entry %d, want 0", ErrTruncated, ps)
		}
		if i > 0 && ps <= p.pageStarts[i-1] {
			return fmt.Errorf("%w: page starts not increasing at page %d", ErrTruncated, i)
		}
		if uint64(ps) >= p.entryCount {
			return fmt.Errorf("%w: page %d starts at entry %d of %d", ErrTruncated, i, ps, p.entryCount)
		}
	}
	if p.entryCount > 0 && len(p.pageStarts) == 0 {
		return fmt.Errorf("%w: %d paged entries but no pages", ErrTruncated, p.entryCount)
	}
	return nil
}

// pageEnd returns the first entry index past page pg.
func (p *pagedPrelude) pageEnd(pg int) uint64 {
	if pg+1 < len(p.pageStarts) {
		return uint64(p.pageStarts[pg+1])
	}
	return p.entryCount
}

// pagedScan streams the blob row by row in node order, verifying that
// every non-empty row opens exactly at a page boundary when it is the
// first of its page (row alignment) and that every page's bytes match
// its stored CRC. emit receives each present row's raw entry bytes.
func (r *reader) pagedScan(p *pagedPrelude, emit func(src graph.NodeID, b []byte, n int)) {
	page := -1
	var pageCRC uint32
	closePage := func() bool {
		if page < 0 {
			return true
		}
		if pageCRC != p.pageCRCs[page] {
			r.fail(fmt.Errorf("%w: page %d CRC %08x, stored %08x", ErrChecksum, page, pageCRC, p.pageCRCs[page]))
			return false
		}
		return true
	}
	for v := 0; v < p.numNodes && r.err == nil; v++ {
		if !p.has(graph.NodeID(v)) {
			continue
		}
		lo, hi := uint64(p.off[v]), uint64(p.off[v+1])
		if lo != hi {
			// Advance to this row's page; rows never span pages.
			if page < 0 || lo >= p.pageEnd(page) {
				if !closePage() {
					return
				}
				page++
				if page >= len(p.pageStarts) || uint64(p.pageStarts[page]) != lo {
					r.fail(fmt.Errorf("%w: row %d starts at entry %d, not on a page boundary", ErrTruncated, v, lo))
					return
				}
				pageCRC = 0
			}
			if hi > p.pageEnd(page) {
				r.fail(fmt.Errorf("%w: row %d spans pages", ErrTruncated, v))
				return
			}
		}
		b := r.block((hi - lo) * pagedEntrySize)
		if r.err != nil {
			return
		}
		pageCRC = crc32.Update(pageCRC, crc32.IEEETable, b)
		emit(graph.NodeID(v), b, int(hi-lo))
	}
	if r.err == nil {
		if page != len(p.pageStarts)-1 {
			r.fail(fmt.Errorf("%w: %d pages declared, %d walked", ErrTruncated, len(p.pageStarts), page+1))
			return
		}
		closePage()
	}
}

// pagedLists decodes a paged similar-term section into the v1 map
// shape; float32 scores widen back to the float64 the extractors
// published (bit-identical, because every published score is
// float32-quantized).
func (r *reader) pagedLists() map[graph.NodeID][]graph.Scored {
	p, ok := r.readPagedPrelude()
	if !ok {
		return nil
	}
	m := make(map[graph.NodeID][]graph.Scored, p.rows())
	r.pagedScan(&p, func(src graph.NodeID, b []byte, n int) {
		list := make([]graph.Scored, n)
		for i := range list {
			off := i * pagedEntrySize
			list[i] = graph.Scored{
				Node:  graph.NodeID(binary.LittleEndian.Uint32(b[off:])),
				Score: float64(math.Float32frombits(binary.LittleEndian.Uint32(b[off+4:]))),
			}
		}
		m[src] = list
	})
	if r.err != nil {
		return nil
	}
	return m
}

// pagedCloseness decodes a paged closeness section into the v1 map
// shape.
func (r *reader) pagedCloseness() map[graph.NodeID]map[graph.NodeID]float64 {
	p, ok := r.readPagedPrelude()
	if !ok {
		return nil
	}
	m := make(map[graph.NodeID]map[graph.NodeID]float64, p.rows())
	r.pagedScan(&p, func(src graph.NodeID, b []byte, n int) {
		vec := make(map[graph.NodeID]float64, n)
		for i := 0; i < n; i++ {
			off := i * pagedEntrySize
			vec[graph.NodeID(binary.LittleEndian.Uint32(b[off:]))] =
				float64(math.Float32frombits(binary.LittleEndian.Uint32(b[off+4:])))
		}
		m[src] = vec
	})
	if r.err != nil {
		return nil
	}
	return m
}

// ---- Random-access index loading (disk mode) --------------------------

// PagedTable is the resident index of one paged table section: the CSR
// offsets, presence bitmap and page index stay in memory while the
// entry blob stays on disk at BlobOff. Entry e of the blob occupies
// bytes [e*8, e*8+8) relative to BlobOff; page pg covers entries
// [PageStarts[pg], PageStarts[pg+1]) (entryCount-terminated).
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
	// BlobOff is the absolute file offset of the entry blob.
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
// embedded prelude CRC and the prelude's internal consistency). Blob
// bytes are never read — their integrity is the per-page CRCs' job at
// fault time. A v1 file fails with ErrVersion: it has no page index to
// read.
func ReadPagedIndex(r io.ReaderAt, fingerprint string) (*PagedIndex, error) {
	rr := &raReader{r: r}

	var m [6]byte
	rr.read(m[:])
	if rr.err != nil {
		return nil, rr.err
	}
	if !bytes.Equal(m[:], magic[:]) {
		return nil, fmt.Errorf("%w: file starts with % x", ErrMagic, m[:])
	}
	version := rr.u16()
	if rr.err != nil {
		return nil, rr.err
	}
	if version != FormatVersionPaged {
		return nil, fmt.Errorf("%w: file has v%d, paged reads need v%d (re-save with WritePaged)",
			ErrVersion, version, FormatVersionPaged)
	}
	fp := rr.str(maxString)
	headerCRC := rr.crc
	stored := rr.rawU32()
	if rr.err != nil {
		return nil, rr.err
	}
	if stored != headerCRC {
		return nil, fmt.Errorf("%w: header CRC %08x, stored %08x", ErrChecksum, headerCRC, stored)
	}
	if fingerprint != "" && fp != fingerprint {
		return nil, fmt.Errorf("%w: snapshot %q, corpus %q", ErrFingerprint, fp, fingerprint)
	}

	idx := &PagedIndex{Fingerprint: fp}
	for {
		id, ok := rr.sectionID()
		if !ok {
			if rr.err != nil {
				return nil, rr.err
			}
			return idx, nil // clean EOF after the last section
		}
		length := rr.u64()
		if rr.err != nil {
			return nil, rr.err
		}
		payloadStart := rr.pos
		switch id {
		case secVocabulary:
			// The vocabulary is fully resident; verify its section CRC
			// like the sequential loader does.
			snap := &Snapshot{}
			rr.vocabulary(snap, length)
			if rr.err != nil {
				return nil, rr.err
			}
			idx.Classes, idx.Vocabulary = snap.Classes, snap.Vocabulary
		case secWalkPaged, secCooccurPaged, secClosenessPaged:
			t, err := rr.pagedIndexTable(kindOf(id), payloadStart, length)
			if err != nil {
				return nil, err
			}
			idx.Tables = append(idx.Tables, t)
		}
		// Seek past any unread payload remainder plus the section CRC.
		rr.pos = payloadStart + int64(length) + 4
		if rr.err != nil {
			return nil, rr.err
		}
	}
}

// pagedIndexTable decodes one paged section's prelude at the current
// position, verifying the prelude CRC over exactly the bytes read.
func (rr *raReader) pagedIndexTable(kind TableKind, payloadStart int64, length uint64) (*PagedTable, error) {
	rr.crc = 0 // accumulate the prelude CRC from the payload start
	t := &PagedTable{Kind: kind}
	numNodes := rr.u32()
	t.PageBytes = int(rr.u32())
	t.EntryCount = rr.u64()
	pageCount := rr.u32()
	if rr.err != nil {
		return nil, rr.err
	}
	t.NumNodes = int(numNodes)
	// Bound every allocation by the declared payload length before
	// trusting a count, and bound entryCount before multiplying it.
	need := uint64(numNodes)*4 + 4 + (uint64(numNodes)+63)/64*8 + uint64(pageCount)*8
	if length < 4+4+8+4 || need > length-(4+4+8+4) {
		return nil, fmt.Errorf("%w: paged prelude larger than its section", ErrTruncated)
	}
	if t.EntryCount > length/pagedEntrySize {
		return nil, fmt.Errorf("%w: paged section claims %d entries in %d bytes", ErrTruncated, t.EntryCount, length)
	}
	t.Off = rr.u32s(int(numNodes) + 1)
	t.Present = rr.u64s(int(uint64(numNodes)+63) / 64)
	t.PageStarts = rr.u32s(int(pageCount))
	t.PageCRCs = rr.u32s(int(pageCount))
	preludeCRC := rr.crc
	stored := rr.u32() // not CRC'd into itself: crc update happens before compare below
	if rr.err != nil {
		return nil, rr.err
	}
	// rr.u32 accumulated the stored field into rr.crc; preludeCRC was
	// captured before, so the comparison is over the right range.
	if stored != preludeCRC {
		return nil, fmt.Errorf("%w: paged prelude CRC %08x, stored %08x", ErrChecksum, preludeCRC, stored)
	}
	t.BlobOff = rr.pos
	p := pagedPrelude{
		numNodes:   t.NumNodes,
		entryCount: t.EntryCount,
		off:        t.Off,
		present:    t.Present,
		pageStarts: t.PageStarts,
		pageCRCs:   t.PageCRCs,
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	if uint64(t.BlobOff-payloadStart)+t.EntryCount*pagedEntrySize != length {
		return nil, fmt.Errorf("%w: paged section declares %d bytes, prelude+blob need %d",
			ErrTruncated, length, uint64(t.BlobOff-payloadStart)+t.EntryCount*pagedEntrySize)
	}
	// The index never reads the blob, so probe its last byte: a file cut
	// mid-blob must fail at open, not at first fault.
	if t.EntryCount > 0 {
		var b [1]byte
		if n, err := rr.r.ReadAt(b[:], t.BlobOff+t.BlobBytes()-1); err != nil && n == 0 {
			return nil, fmt.Errorf("%w: paged blob cut short", ErrTruncated)
		}
	}
	return t, nil
}

// raReader reads little-endian primitives at a tracked position of an
// io.ReaderAt, with a running CRC and a sticky error — the
// random-access sibling of reader.
type raReader struct {
	r   io.ReaderAt
	pos int64
	crc uint32
	err error
	buf [8]byte
}

func (r *raReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *raReader) read(p []byte) {
	if r.err != nil {
		return
	}
	n, err := r.r.ReadAt(p, r.pos)
	if err != nil && !(err == io.EOF && n == len(p)) {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			r.fail(fmt.Errorf("%w: unexpected end of file", ErrTruncated))
		} else {
			r.fail(fmt.Errorf("artifact: reading paged index: %w", err))
		}
		return
	}
	r.pos += int64(len(p))
	r.crc = crc32.Update(r.crc, crc32.IEEETable, p)
}

func (r *raReader) u16() uint16 { r.read(r.buf[:2]); return binary.LittleEndian.Uint16(r.buf[:2]) }
func (r *raReader) u32() uint32 { r.read(r.buf[:4]); return binary.LittleEndian.Uint32(r.buf[:4]) }
func (r *raReader) u64() uint64 { r.read(r.buf[:8]); return binary.LittleEndian.Uint64(r.buf[:8]) }

func (r *raReader) str(max uint64) string {
	n := r.u32()
	if uint64(n) > max {
		r.fail(fmt.Errorf("%w: %d-byte string exceeds the %d-byte bound", ErrTruncated, n, max))
		return ""
	}
	if r.err != nil {
		return ""
	}
	b := make([]byte, n)
	r.read(b)
	return string(b)
}

// rawU32 reads a stored checksum outside the CRC accumulation.
func (r *raReader) rawU32() uint32 {
	if r.err != nil {
		return 0
	}
	var b [4]byte
	if n, err := r.r.ReadAt(b[:], r.pos); err != nil && !(err == io.EOF && n == len(b)) {
		r.fail(fmt.Errorf("%w: unexpected end of file in checksum", ErrTruncated))
		return 0
	}
	r.pos += 4
	return binary.LittleEndian.Uint32(b[:])
}

// sectionID reads the next section id; ok is false at a clean EOF.
func (r *raReader) sectionID() (uint8, bool) {
	if r.err != nil {
		return 0, false
	}
	var b [1]byte
	n, err := r.r.ReadAt(b[:], r.pos)
	if n == 0 {
		if err != io.EOF {
			r.fail(fmt.Errorf("%w: reading section id: %v", ErrTruncated, err))
		}
		return 0, false
	}
	r.pos++
	return b[0], true
}

// u32s bulk-reads n little-endian uint32s.
func (r *raReader) u32s(n int) []uint32 {
	if r.err != nil {
		return nil
	}
	b := make([]byte, n*4)
	r.read(b)
	if r.err != nil {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

// u64s bulk-reads n little-endian uint64s.
func (r *raReader) u64s(n int) []uint64 {
	if r.err != nil {
		return nil
	}
	b := make([]byte, n*8)
	r.read(b)
	if r.err != nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

// vocabulary decodes the vocabulary section (with its trailing section
// CRC) at the current position. The section CRC covers id + length +
// payload, exactly like the sequential loader.
func (r *raReader) vocabulary(snap *Snapshot, length uint64) {
	// Recompute the section CRC over id+length+payload: rebuild the
	// 9 framing bytes, then stream the payload.
	var frame [9]byte
	frame[0] = secVocabulary
	binary.LittleEndian.PutUint64(frame[1:], length)
	r.crc = crc32.Update(0, crc32.IEEETable, frame[:])
	end := r.pos + int64(length)

	classCount := r.u32()
	if uint64(classCount)*4 > length {
		r.fail(fmt.Errorf("%w: vocabulary claims %d classes in %d bytes", ErrTruncated, classCount, length))
		return
	}
	snap.Classes = make([]string, 0, classCount)
	for i := uint32(0); i < classCount && r.err == nil; i++ {
		snap.Classes = append(snap.Classes, r.str(maxString))
	}
	termCount := r.u64()
	const minTerm = 4 + 4 + 4
	if termCount > length/minTerm {
		r.fail(fmt.Errorf("%w: vocabulary claims %d terms in %d bytes", ErrTruncated, termCount, length))
		return
	}
	snap.Vocabulary = make([]Term, 0, termCount)
	for i := uint64(0); i < termCount && r.err == nil; i++ {
		node := r.u32()
		class := r.u32()
		text := r.str(maxString)
		if class >= classCount {
			r.fail(fmt.Errorf("%w: vocabulary entry %d references class %d of %d", ErrTruncated, i, class, classCount))
			return
		}
		snap.Vocabulary = append(snap.Vocabulary, Term{Node: graph.NodeID(node), Class: int32(class), Text: text})
	}
	if r.err != nil {
		return
	}
	if r.pos != end {
		r.fail(fmt.Errorf("%w: vocabulary payload shorter than declared", ErrTruncated))
		return
	}
	sectionCRC := r.crc
	stored := r.rawU32()
	if r.err != nil {
		return
	}
	if stored != sectionCRC {
		r.fail(fmt.Errorf("%w: vocabulary section CRC %08x, stored %08x", ErrChecksum, sectionCRC, stored))
	}
}
