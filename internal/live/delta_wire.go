package live

import (
	"kqr/internal/frame"
	"kqr/internal/relstore"
)

// The wire form of a delta batch — the one encoding both the
// replication log's promotion records and the CDC stream's batch frames
// carry inside their own envelopes:
//
//	u32 delta count, then per delta:
//	  u8 op (0 insert, 1 delete), str table
//	  delete: value key
//	  insert: u16 value count, values
//	value: u8 tag (0 string, 1 int), then str or u64

// Value tags.
const (
	tagString uint8 = 0
	tagInt    uint8 = 1
)

// AppendDeltas appends the wire form of a batch to b.
func AppendDeltas(b []byte, deltas []Delta) []byte {
	b = frame.AppendU32(b, uint32(len(deltas)))
	for _, d := range deltas {
		b = frame.AppendU8(b, uint8(d.Op))
		b = frame.AppendStr(b, d.Table)
		if d.Op == OpDelete {
			b = encodeValue(b, d.Key)
			continue
		}
		b = frame.AppendU16(b, uint16(len(d.Values)))
		for _, v := range d.Values {
			b = encodeValue(b, v)
		}
	}
	return b
}

func encodeValue(b []byte, v relstore.Value) []byte {
	if v.Kind() == relstore.KindInt {
		n, _ := v.AsInt() // ok by the kind check
		return frame.AppendU64(frame.AppendU8(b, tagInt), uint64(n))
	}
	return frame.AppendStr(frame.AppendU8(b, tagString), v.Text())
}

// DecodeDeltas reads one batch off d. An op or value tag this build
// does not know fails the reader — at the wire, not later in Ingest,
// where an unknown op would already have been taken for an insert.
func DecodeDeltas(d *frame.Reader) []Delta {
	count := d.U32()
	if !d.NeedCount(uint64(count), 1+4) { // op and table length at the least
		return nil
	}
	deltas := make([]Delta, 0, count)
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		del := Delta{Op: Op(d.U8()), Table: d.Str()}
		switch del.Op {
		case OpDelete:
			del.Key = decodeValue(d)
		case OpInsert:
			nvals := d.U16()
			if !d.NeedCount(uint64(nvals), 1) {
				return nil
			}
			del.Values = make([]relstore.Value, 0, nvals)
			for j := uint16(0); j < nvals; j++ {
				del.Values = append(del.Values, decodeValue(d))
			}
		default:
			d.Failf("unknown delta op %d", del.Op)
		}
		deltas = append(deltas, del)
	}
	if d.Err() != nil {
		return nil
	}
	return deltas
}

func decodeValue(d *frame.Reader) relstore.Value {
	switch tag := d.U8(); tag {
	case tagInt:
		return relstore.Int(int64(d.U64()))
	case tagString:
		return relstore.String(d.Str())
	default:
		d.Failf("unknown value tag %d", tag)
		return relstore.Value{}
	}
}
