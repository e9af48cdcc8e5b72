package artifact

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"kqr/internal/frame"
	"kqr/internal/packed"
)

// Write streams the snapshot to w in the format documented in the
// package comment: header, vocabulary, then one checksummed section per
// non-nil table. Rows are emitted as they lie in the table — nothing
// is sorted, widened into a map or buffered beyond the writer's block.
func (s *Snapshot) Write(w io.Writer) error {
	ww := frame.NewWriter(w)
	s.writeHeader(ww, FormatVersion)
	for kind, t := range s.Tables {
		if t != nil {
			writeRows(ww, secWalk+uint8(kind), t)
		}
	}
	if err := ww.Flush(); err != nil {
		return fmt.Errorf("artifact: writing snapshot: %w", err)
	}
	return nil
}

// writeHeader emits what both versions open with: the checksummed file
// header and the vocabulary section.
func (s *Snapshot) writeHeader(ww *frame.Writer, version uint16) {
	ww.Bytes(magic[:])
	ww.U16(version)
	ww.Str(s.Fingerprint)
	ww.Checksum()

	size := uint64(4 + 8) // class count, term count
	for _, c := range s.Classes {
		size += 4 + uint64(len(c))
	}
	for _, t := range s.Vocabulary {
		size += 4 + 4 + 4 + uint64(len(t.Text))
	}
	ww.U8(secVocabulary)
	ww.U64(size)
	ww.U32(uint32(len(s.Classes)))
	for _, c := range s.Classes {
		ww.Str(c)
	}
	ww.U64(uint64(len(s.Vocabulary)))
	for _, t := range s.Vocabulary {
		ww.U32(uint32(t.Node))
		ww.U32(uint32(t.Class))
		ww.Str(t.Text)
	}
	ww.Checksum()
}

// scoredEntrySize is the encoded size of one v1 (node, score) pair:
// u32 node + f64 score. Every stored score is on the float32 grid, so
// the f64 a v1 file carries widens and narrows back exactly.
const scoredEntrySize = 4 + 8

// writeRows frames one v1 table section: id, payload length (known
// from the table's row and entry counts, so the payload is never
// buffered), row count, then per row its source, entry count and
// entries, each widened from the table's entry bytes; CRC over all of
// it.
func writeRows(ww *frame.Writer, id uint8, t *packed.Rows) {
	ww.U8(id)
	ww.U64(8 + uint64(len(t.Src))*(4+4) + uint64(len(t.Entries)/packed.EntrySize)*scoredEntrySize)
	ww.U64(uint64(len(t.Src)))
	for i := range t.Src {
		src, raw := t.Row(i)
		ww.U32(uint32(src))
		ww.U32(uint32(len(raw) / packed.EntrySize))
		const batch = 4096 // entries per Reserve: under the writer's block
		for len(raw) > 0 {
			n := min(len(raw)/packed.EntrySize, batch)
			b := ww.Reserve(n * scoredEntrySize)
			for j := range n {
				node, score := packed.Entry(raw, j)
				binary.LittleEndian.PutUint32(b[j*scoredEntrySize:], uint32(node))
				binary.LittleEndian.PutUint64(b[j*scoredEntrySize+4:], math.Float64bits(float64(score)))
			}
			raw = raw[n*packed.EntrySize:]
		}
	}
	ww.Checksum()
}
