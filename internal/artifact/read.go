package artifact

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"kqr/internal/frame"
	"kqr/internal/graph"
	"kqr/internal/packed"
)

// Load decodes a snapshot from r, verifying magic, format version and
// every section checksum. A non-empty fingerprint must match the one in
// the file or Load fails with ErrFingerprint immediately after the
// header — no table bytes are read for a stale snapshot ("" skips the
// check; callers outside tests should not). Failures are
// wrapped sentinel errors (ErrMagic, ErrVersion, ErrChecksum,
// ErrTruncated, ErrFingerprint); test with errors.Is. Rows are appended
// in file order — nothing is sorted or passed through a map — and the
// reader rejects a file whose sources (or closeness neighbors) are not
// ascending, the order every writer emits and every lookup relies on.
func Load(r io.Reader, fingerprint string) (*Snapshot, error) {
	rr := frame.NewReader(r)
	version, fp, err := readHeader(rr, fingerprint)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{Fingerprint: fp, Version: version}
	for {
		id, ok := nextSection(rr)
		if !ok {
			if rr.Err() != nil {
				return nil, rr.Err()
			}
			return snap, nil // clean end after the last section
		}
		switch {
		case id == secVocabulary:
			snap.Classes, snap.Vocabulary = readVocabulary(rr)
		case id >= secWalk && id <= secCloseness:
			kind := TableKind(id - secWalk)
			snap.Tables[kind] = readRows(rr, kind)
		case id >= secWalkPaged && id <= secClosenessPaged:
			kind := TableKind(id - secWalkPaged)
			snap.Tables[kind] = readPagedRows(rr, kind)
		default:
			rr.Skip(rr.Left()) // future section kind: checksum and ignore
		}
		endSection(rr, id)
		if id == secCloseness || id == secClosenessPaged {
			checkNeighborOrder(rr, snap.Tables[TableCloseness])
		}
		if rr.Err() != nil {
			return nil, rr.Err()
		}
	}
}

// readHeader parses the file header both versions share: magic,
// version, fingerprint, CRC. The version gates the rest of the layout,
// so it is checked before the header checksum — a future-version file
// is "unsupported", not "corrupt". A non-empty want must equal the
// file's fingerprint.
func readHeader(rr *frame.Reader, want string) (version uint16, fp string, err error) {
	rr.Magic(magic)
	version = rr.U16()
	if version != FormatVersion && version != FormatVersionPaged {
		rr.Fail(fmt.Errorf("%w: file has v%d, this build reads v%d-v%d", ErrVersion, version, FormatVersion, FormatVersionPaged))
	}
	fp = rr.Str()
	rr.Checksum("header")
	if rr.Err() != nil {
		return 0, "", rr.Err()
	}
	if want != "" && fp != want {
		return 0, "", fmt.Errorf("%w: snapshot %q, corpus %q", ErrFingerprint, fp, want)
	}
	return version, fp, nil
}

// nextSection reads a section's id and payload length and opens the
// payload as the reader's region. ok is false at the clean end of the
// file (or on error — check rr.Err). Each section's CRC covers its id,
// length field and payload.
func nextSection(rr *frame.Reader) (id uint8, ok bool) {
	if id, ok = rr.Next(); ok {
		rr.Limit(rr.U64())
	}
	return id, ok
}

// endSection closes a fully-decoded section: its payload must be used
// up exactly, and the stored CRC must match.
func endSection(rr *frame.Reader, id uint8) {
	rr.Done()
	rr.Checksum(fmt.Sprintf("section %d", id))
}

// readVocabulary decodes the vocabulary section — the rest of the open
// region — from one block.
func readVocabulary(rr *frame.Reader) (classes []string, vocab []Term) {
	d := frame.Body(rr.Block(rr.Left()))
	if rr.Err() != nil {
		return nil, nil
	}
	classCount := d.U32()
	if d.NeedCount(uint64(classCount), 4) { // each class is at least a length field
		classes = make([]string, 0, classCount)
	}
	for i := uint32(0); i < classCount && d.Err() == nil; i++ {
		classes = append(classes, d.Str())
	}
	termCount := d.U64()
	const minTerm = 4 + 4 + 4 // node + class + empty text
	if d.NeedCount(termCount, minTerm) {
		vocab = make([]Term, 0, termCount)
	}
	for i := uint64(0); i < termCount && d.Err() == nil; i++ {
		t := Term{Node: graph.NodeID(d.U32()), Class: int32(d.U32()), Text: d.Str()}
		if uint32(t.Class) >= classCount {
			d.Failf("vocabulary entry %d references class %d of %d", i, t.Class, classCount)
		}
		vocab = append(vocab, t)
	}
	if err := d.Done(); err != nil {
		rr.Fail(fmt.Errorf("vocabulary section: %w", err))
		return nil, nil
	}
	return classes, vocab
}

// readRows decodes a v1 table section, narrowing each stored float64
// to the float32 the store keeps (exact: every published score is
// float32-quantized).
func readRows(rr *frame.Reader, kind TableKind) *packed.Rows {
	srcCount := rr.U64()
	const minRecord = 4 + 4 // source + empty list
	if !rr.NeedCount(srcCount, minRecord) {
		return nil
	}
	t := &packed.Rows{}
	prev := int64(-1)
	for i := uint64(0); i < srcCount; i++ {
		src := rr.U32()
		n := rr.U32()
		b := rr.Block(uint64(n) * scoredEntrySize)
		if rr.Err() != nil {
			return nil
		}
		if int64(src) <= prev || src > math.MaxInt32 {
			rr.Failf("%s row %d: source node %d is not above the previous row's", kind, i, src)
			return nil
		}
		prev = int64(src)
		nodes, scores := t.Append(graph.NodeID(src), int(n))
		for j := range nodes {
			nodes[j] = graph.NodeID(binary.LittleEndian.Uint32(b[j*scoredEntrySize:]))
			scores[j] = packed.Quantize(math.Float64frombits(binary.LittleEndian.Uint64(b[j*scoredEntrySize+4:])))
		}
	}
	return t
}

// checkNeighborOrder fails rr unless every row of a decoded closeness
// table ascends by neighbor id — rows are probed by binary search and
// served as they lie in the file. It runs once the section's CRC has
// passed, so damage reads as a checksum error and only a well-formed
// file from a foreign writer gets this far. (A similarity row is in
// rank order, which nothing can check.)
func checkNeighborOrder(rr *frame.Reader, t *packed.Rows) {
	if rr.Err() != nil {
		return
	}
	for i := range t.Src {
		src, nodes, _ := t.Row(i)
		for j := 1; j < len(nodes); j++ {
			if nodes[j] <= nodes[j-1] {
				rr.Failf("closeness row of node %d is not in neighbor order", src)
				return
			}
		}
	}
}
