package cdc

import (
	"errors"
	"fmt"
	"io"
	"strings"

	framing "kqr/internal/frame" // the package; frame is this protocol's message type
	"kqr/internal/live"
	"kqr/internal/relstore"
)

// streamMagic opens every KQRCDC stream, in each direction.
var streamMagic = framing.Magic{'K', 'Q', 'R', 'C', 'D', 'C'}

// streamVersion is the frame format this package speaks. A receiver
// rejects other versions during the handshake.
const streamVersion uint16 = 1

// Frame kinds. The protocol is strict: a kind unexpected in the current
// state is a protocol error, not skipped (dropping a batch or an ack
// would silently lose or stall deltas).
const (
	// kindHello is the feeder's first frame: source id and expected
	// schema fingerprint ("" = adopt the receiver's).
	kindHello uint8 = 1
	// kindWelcome is the receiver's first frame: its schema fingerprint,
	// the source's last staged sequence (resume point), the current
	// generation epoch, and the backpressure bound.
	kindWelcome uint8 = 2
	// kindBatch carries one sequenced delta batch, feeder → receiver.
	kindBatch uint8 = 3
	// kindAck acknowledges every batch staged so far (cumulative),
	// receiver → feeder, with the current epoch and pending backlog.
	kindAck uint8 = 4
	// kindHeartbeat keeps an idle stream visibly alive in either
	// direction; seq echoes the sender's high-water mark.
	kindHeartbeat uint8 = 5
	// kindError is a terminal rejection, receiver → feeder: the message
	// explains why, and the stream closes after it.
	kindError uint8 = 6
)

// maxFrameBody bounds one frame's encoded body; a larger length prefix
// marks a corrupt or foreign stream.
const maxFrameBody = 64 << 20

// Sentinel errors classifying CDC stream failures; test with errors.Is.
var (
	// ErrCorrupt means a frame failed its CRC or structural validation,
	// was cut short, or the stream did not start with the KQRCDC
	// header. It is internal/frame's root sentinel, so the specific
	// cause (frame.ErrChecksum, frame.ErrTruncated, frame.ErrMagic)
	// stays testable too.
	ErrCorrupt = framing.ErrCorrupt
	// ErrProtocol means a structurally valid frame violated the
	// protocol: wrong kind for the state, or a sequence gap.
	ErrProtocol = errors.New("cdc: protocol violation")
	// ErrRejected means the receiver terminated the stream with an
	// error frame (fingerprint mismatch, invalid deltas); reconnecting
	// will not help until the cause is fixed.
	ErrRejected = errors.New("cdc: stream rejected by receiver")
)

// frame is one decoded KQRCDC frame. Which fields are meaningful
// depends on kind (see the kind constants).
type frame struct {
	kind        uint8
	source      string       // hello
	fingerprint string       // hello, welcome
	seq         uint64       // batch, ack, heartbeat; welcome: resume point
	epoch       uint64       // welcome, ack
	pending     uint32       // ack: staged backlog; welcome: backpressure bound
	deltas      []live.Delta // batch
	message     string       // error
}

// writeStreamHeader emits the per-direction stream opening: magic and
// version.
func writeStreamHeader(w io.Writer) error {
	_, err := w.Write(framing.AppendU16(streamMagic[:], streamVersion))
	return err
}

// readStreamHeader consumes and checks the stream opening. Another
// version is a protocol error, not damage.
func readStreamHeader(r io.Reader) error {
	rr := framing.NewReader(r)
	rr.Magic(streamMagic)
	v := rr.U16()
	if rr.Err() != nil {
		return fmt.Errorf("cdc: stream header: %w", rr.Err())
	}
	if v != streamVersion {
		return fmt.Errorf("%w: stream version %d, want %d", ErrProtocol, v, streamVersion)
	}
	return nil
}

// encodeFrameBody renders a frame body: kind, then kind-specific
// payload.
func encodeFrameBody(f frame) ([]byte, error) {
	b := make([]byte, 0, 64)
	b = framing.AppendU8(b, f.kind)
	switch f.kind {
	case kindHello:
		b = framing.AppendStr(b, f.source)
		b = framing.AppendStr(b, f.fingerprint)
	case kindWelcome:
		b = framing.AppendStr(b, f.fingerprint)
		b = framing.AppendU64(b, f.seq)
		b = framing.AppendU64(b, f.epoch)
		b = framing.AppendU32(b, f.pending)
	case kindBatch:
		b = framing.AppendU64(b, f.seq)
		b = live.AppendDeltas(b, f.deltas)
	case kindAck:
		b = framing.AppendU64(b, f.seq)
		b = framing.AppendU64(b, f.epoch)
		b = framing.AppendU32(b, f.pending)
	case kindHeartbeat:
		b = framing.AppendU64(b, f.seq)
	case kindError:
		b = framing.AppendStr(b, f.message)
	default:
		return nil, fmt.Errorf("cdc: unknown frame kind %d", f.kind)
	}
	return b, nil
}

// writeFrame frames and writes one frame (frame.WriteRecord: u32 body
// length, body, u32 CRC-32 over the body).
func writeFrame(w io.Writer, f frame) error {
	body, err := encodeFrameBody(f)
	if err != nil {
		return err
	}
	_, err = framing.WriteRecord(w, body)
	return err
}

// readFrame reads one framed frame. A clean io.EOF before the first
// length byte is returned as io.EOF (end of stream); a truncated frame,
// a CRC mismatch and a structural failure all wrap ErrCorrupt
// (frame.ErrTruncated / frame.ErrChecksum).
func readFrame(r io.Reader) (frame, error) {
	body, _, err := framing.ReadRecord(r, maxFrameBody)
	if err != nil {
		return frame{}, err
	}
	return decodeFrameBody(body)
}

// decodeFrameBody parses a CRC-verified frame body.
func decodeFrameBody(body []byte) (frame, error) {
	d := framing.Body(body)
	f := frame{kind: d.U8()}
	switch f.kind {
	case kindHello:
		f.source = d.Str()
		f.fingerprint = d.Str()
	case kindWelcome:
		f.fingerprint = d.Str()
		f.seq = d.U64()
		f.epoch = d.U64()
		f.pending = d.U32()
	case kindBatch:
		f.seq = d.U64()
		f.deltas = live.DecodeDeltas(d)
	case kindAck:
		f.seq = d.U64()
		f.epoch = d.U64()
		f.pending = d.U32()
	case kindHeartbeat:
		f.seq = d.U64()
	case kindError:
		f.message = d.Str()
	default:
		d.Failf("unknown frame kind %d", f.kind)
	}
	if err := d.Done(); err != nil {
		return frame{}, fmt.Errorf("cdc: frame body: %w", err)
	}
	return f, nil
}

// SchemaFingerprint identifies the corpus shape a delta stream targets:
// every table's name, primary key, columns (name, kind, text mode) and
// foreign keys, in creation order. Deliberately row-count-free — CDC is
// the mechanism by which row counts change, so unlike the replication
// fingerprint it must stay stable across promotions.
func SchemaFingerprint(db *relstore.Database) string {
	var b strings.Builder
	b.WriteString("cdc schema v1")
	for _, name := range db.TableNames() {
		t, err := db.Table(name)
		if err != nil {
			continue
		}
		s := t.Schema()
		fmt.Fprintf(&b, "; %s pk=%s", s.Name, s.PrimaryKey)
		for _, c := range s.Columns {
			fmt.Fprintf(&b, " %s:%d:%d", c.Name, int(c.Kind), int(c.Text))
		}
		for _, fk := range s.ForeignKeys {
			fmt.Fprintf(&b, " fk=%s>%s", fk.Column, fk.RefTable)
		}
	}
	return b.String()
}
