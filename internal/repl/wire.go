package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"kqr/internal/artifact"
	"kqr/internal/live"
	"kqr/internal/randomwalk"
	"kqr/internal/relstore"
)

// Record kinds. Future kinds must take fresh values; a follower rejects
// kinds it does not know (the log is a strict protocol, unlike the
// skip-tolerant artifact sections: skipping a transition would break
// lockstep).
const (
	// kindDeltas is a promotion: the batch of deltas whose application
	// produced the record's epoch.
	kindDeltas uint8 = 1
	// kindEpoch is a deltaless transition (snapshot reload): the corpus
	// did not change but the epoch advanced.
	kindEpoch uint8 = 2
	// kindHeartbeat is stream-only (never journaled): the leader's
	// current end-of-log position, sent while the stream is idle.
	kindHeartbeat uint8 = 3
)

// maxRecordBody bounds one record's encoded body; a larger length
// prefix marks a corrupt or foreign stream.
const maxRecordBody = 64 << 20

// maxWireString bounds any single encoded string.
const maxWireString = 1 << 20

// Sentinel errors classifying replication failures; test with errors.Is.
var (
	// ErrCorrupt means a record or snapshot failed its CRC or structural
	// validation.
	ErrCorrupt = errors.New("repl: corrupt record")
	// ErrDiverged means the follower can no longer follow the leader:
	// the epochs or fingerprints do not line up. Re-bootstrapping from a
	// fresh snapshot is the only recovery.
	ErrDiverged = errors.New("repl: follower diverged from leader")
)

// Record is one entry of the delta log (or, for heartbeats, of the
// stream only). Index is assigned by the log on append.
type Record struct {
	// Index is the record's position in the log (dense, from 0). In a
	// heartbeat it carries the leader's end-of-log index instead.
	Index uint64
	// Epoch is the generation epoch the record produces (for
	// heartbeats: the leader's current epoch).
	Epoch uint64
	// Kind is the record kind (kindDeltas, kindEpoch, kindHeartbeat).
	Kind uint8
	// Deltas is the promoted batch (kindDeltas only).
	Deltas []live.Delta
	// Mode is the leader's provenance mode for deltaless transitions
	// (kindEpoch only), e.g. "reload".
	Mode string
	// LogBytes is the leader's total journaled record bytes
	// (kindHeartbeat only) — the follower's bytes-behind baseline.
	LogBytes int64
}

// ---- primitive append helpers ------------------------------------------

func appendU8(b []byte, v uint8) []byte  { return append(b, v) }
func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendValue(b []byte, v relstore.Value) []byte {
	if v.Kind() == relstore.KindInt {
		b = appendU8(b, 1)
		n, _ := v.AsInt()
		return appendU64(b, uint64(n))
	}
	b = appendU8(b, 0)
	return appendStr(b, v.Text())
}

// encodeRecordBody renders the record body (everything between the
// length prefix and the CRC): index, epoch, kind, kind-specific payload.
func encodeRecordBody(rec Record) ([]byte, error) {
	b := make([]byte, 0, 64)
	b = appendU64(b, rec.Index)
	b = appendU64(b, rec.Epoch)
	b = appendU8(b, rec.Kind)
	switch rec.Kind {
	case kindDeltas:
		b = appendU32(b, uint32(len(rec.Deltas)))
		for _, d := range rec.Deltas {
			b = appendU8(b, uint8(d.Op))
			b = appendStr(b, d.Table)
			if d.Op == live.OpDelete {
				b = appendValue(b, d.Key)
				continue
			}
			b = appendU16(b, uint16(len(d.Values)))
			for _, v := range d.Values {
				b = appendValue(b, v)
			}
		}
	case kindEpoch:
		b = appendStr(b, rec.Mode)
	case kindHeartbeat:
		b = appendU64(b, uint64(rec.LogBytes))
	default:
		return nil, fmt.Errorf("repl: unknown record kind %d", rec.Kind)
	}
	return b, nil
}

// writeRecord frames and writes one record: u32 body length, body, u32
// CRC-32 (IEEE) over the body. It returns the framed size in bytes.
func writeRecord(w io.Writer, rec Record) (int, error) {
	body, err := encodeRecordBody(rec)
	if err != nil {
		return 0, err
	}
	frame := make([]byte, 0, len(body)+8)
	frame = appendU32(frame, uint32(len(body)))
	frame = append(frame, body...)
	frame = appendU32(frame, crc32.ChecksumIEEE(body))
	if _, err := w.Write(frame); err != nil {
		return 0, err
	}
	return len(frame), nil
}

// readRecord reads one framed record. A clean io.EOF before the first
// length byte is returned as io.EOF (end of segment or stream); a
// truncated frame is io.ErrUnexpectedEOF; a CRC or structural failure
// wraps ErrCorrupt. The int is the framed size consumed.
func readRecord(r io.Reader) (Record, int, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return Record{}, 0, io.EOF
		}
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if uint64(n) > maxRecordBody {
		return Record{}, 0, fmt.Errorf("%w: %d-byte record body exceeds the %d-byte bound", ErrCorrupt, n, maxRecordBody)
	}
	buf := make([]byte, n+4) // body + stored CRC
	if _, err := io.ReadFull(r, buf); err != nil {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	body, stored := buf[:n], binary.LittleEndian.Uint32(buf[n:])
	if got := crc32.ChecksumIEEE(body); got != stored {
		return Record{}, 0, fmt.Errorf("%w: record CRC %08x, stored %08x", ErrCorrupt, got, stored)
	}
	rec, err := decodeRecordBody(body)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, int(n) + 8, nil
}

// byteReader decodes primitives from a fully-read record body with a
// sticky error, so decoding code reads linearly.
type byteReader struct {
	b   []byte
	off int
	err error
}

func (d *byteReader) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s", ErrCorrupt, what)
	}
}

func (d *byteReader) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail(what)
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

func (d *byteReader) u8(what string) uint8 {
	p := d.take(1, what)
	if p == nil {
		return 0
	}
	return p[0]
}

func (d *byteReader) u16(what string) uint16 {
	p := d.take(2, what)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

func (d *byteReader) u32(what string) uint32 {
	p := d.take(4, what)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (d *byteReader) u64(what string) uint64 {
	p := d.take(8, what)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (d *byteReader) str(what string) string {
	n := d.u32(what)
	if uint64(n) > maxWireString {
		d.fail(what + " (string too long)")
		return ""
	}
	return string(d.take(int(n), what))
}

func (d *byteReader) value(what string) relstore.Value {
	if d.u8(what) == 1 {
		return relstore.Int(int64(d.u64(what)))
	}
	return relstore.String(d.str(what))
}

// decodeRecordBody parses a CRC-verified record body.
func decodeRecordBody(body []byte) (Record, error) {
	d := &byteReader{b: body}
	rec := Record{
		Index: d.u64("record index"),
		Epoch: d.u64("record epoch"),
		Kind:  d.u8("record kind"),
	}
	switch rec.Kind {
	case kindDeltas:
		count := d.u32("delta count")
		if uint64(count) > uint64(len(body)) { // each delta is ≥ 1 byte
			d.fail("delta count")
			break
		}
		rec.Deltas = make([]live.Delta, 0, count)
		for i := uint32(0); i < count && d.err == nil; i++ {
			del := live.Delta{Op: live.Op(d.u8("delta op")), Table: d.str("delta table")}
			if del.Op == live.OpDelete {
				del.Key = d.value("delete key")
			} else {
				nvals := d.u16("value count")
				del.Values = make([]relstore.Value, 0, nvals)
				for j := uint16(0); j < nvals && d.err == nil; j++ {
					del.Values = append(del.Values, d.value("insert value"))
				}
			}
			rec.Deltas = append(rec.Deltas, del)
		}
	case kindEpoch:
		rec.Mode = d.str("epoch mode")
	case kindHeartbeat:
		rec.LogBytes = int64(d.u64("heartbeat log bytes"))
	default:
		return Record{}, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, rec.Kind)
	}
	if d.err != nil {
		return Record{}, d.err
	}
	if d.off != len(body) {
		return Record{}, fmt.Errorf("%w: %d trailing bytes in record body", ErrCorrupt, len(body)-d.off)
	}
	return rec, nil
}

// ---- bootstrap snapshot stream ------------------------------------------

// snapMagic opens every bootstrap snapshot stream.
var snapMagic = [6]byte{'K', 'Q', 'R', 'R', 'E', 'P'}

// snapVersion is the bootstrap stream format this package speaks.
const snapVersion uint16 = 1

// Fingerprint identifies everything a replica's derived state depends
// on: the graph shape, the corpus row counts, every config knob that
// changes what the offline extractors compute, and the walk solver (a
// follower rebuilds every promotion itself, and two solvers differ in
// the low bits). Leader and follower must agree on it before a single
// log record is applied.
func Fingerprint(g *live.Generation, cfg live.Config) string {
	damping := cfg.Damping
	if damping == 0 {
		damping = 0.8
	}
	closMax := cfg.ClosenessMaxLen
	if closMax == 0 {
		closMax = 4
	}
	return fmt.Sprintf("repl mode=%s solver=%s damping=%g closmax=%d closbeam=%d phrases=%t plurals=%t nodes=%d terms=%d edges=%d corpus=%s",
		cfg.Mode, randomwalk.Solver, damping, closMax, cfg.ClosenessBeam, cfg.Phrases, cfg.FoldPlurals,
		g.TG.NumNodes(), g.TG.NumTermNodes(), g.TG.CSR().NumEdges(), g.DB.Stats())
}

// crcWriter streams bytes to w while maintaining a running CRC-32 and a
// sticky error (the artifact writer idiom).
type crcWriter struct {
	w   io.Writer
	crc uint32
	err error
}

func (c *crcWriter) write(p []byte) {
	if c.err != nil {
		return
	}
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	_, c.err = c.w.Write(p)
}

func (c *crcWriter) u8(v uint8)   { c.write([]byte{v}) }
func (c *crcWriter) u32(v uint32) { c.write(binary.LittleEndian.AppendUint32(nil, v)) }
func (c *crcWriter) u64(v uint64) { c.write(binary.LittleEndian.AppendUint64(nil, v)) }
func (c *crcWriter) str(s string) { c.u32(uint32(len(s))); c.write([]byte(s)) }

// checksum emits the running CRC (excluded from the running value) and
// resets it for the next region.
func (c *crcWriter) checksum() {
	crc := c.crc
	if c.err == nil {
		_, c.err = c.w.Write(binary.LittleEndian.AppendUint32(nil, crc))
	}
	c.crc = 0
}

// writeSnapshot streams the bootstrap snapshot of one generation:
// checksummed header (epoch, resume index, log byte position,
// fingerprint), checksummed corpus dump (schemas in creation order,
// rows in foreign-key topological order), then the offline tables as a
// standard KQRART artifact to end of stream.
func writeSnapshot(w io.Writer, g *live.Generation, cfg live.Config, pos position) error {
	fp := Fingerprint(g, cfg)
	cw := &crcWriter{w: w}
	cw.write(snapMagic[:])
	cw.u32(uint32(snapVersion)) // widened: room for flags later
	cw.u64(g.Epoch)
	cw.u64(pos.next)
	cw.u64(uint64(pos.bytes))
	cw.str(fp)
	cw.checksum()

	if err := writeDatabase(cw, g.DB); err != nil {
		return err
	}
	if cw.err != nil {
		return fmt.Errorf("repl: writing snapshot: %w", cw.err)
	}
	snap, err := live.ArtifactSnapshot(g, fp)
	if err != nil {
		return err
	}
	return snap.Write(w)
}

// writeDatabase encodes the corpus: every schema in creation order
// (class ids and scan order on the follower must match the leader's),
// then every table's rows in foreign-key topological order so the
// follower can re-insert them with referential checks on.
func writeDatabase(cw *crcWriter, db *relstore.Database) error {
	names := db.TableNames()
	cw.u32(uint32(len(names)))
	for _, name := range names {
		t, err := db.Table(name)
		if err != nil {
			return err
		}
		s := t.Schema()
		cw.str(s.Name)
		cw.str(s.PrimaryKey)
		cw.u32(uint32(len(s.Columns)))
		for _, col := range s.Columns {
			cw.str(col.Name)
			cw.u8(uint8(col.Kind))
			cw.u8(uint8(col.Text))
		}
		cw.u32(uint32(len(s.ForeignKeys)))
		for _, fk := range s.ForeignKeys {
			cw.str(fk.Column)
			cw.str(fk.RefTable)
		}
	}
	order, err := live.TopoTables(db)
	if err != nil {
		return err
	}
	for _, name := range order {
		t, err := db.Table(name)
		if err != nil {
			return err
		}
		s := t.Schema()
		cw.str(name)
		cw.u64(uint64(t.Len()))
		t.Scan(func(tp relstore.Tuple) bool {
			for i, v := range tp.Values {
				if s.Columns[i].Kind == relstore.KindInt {
					n, _ := v.AsInt()
					cw.u64(uint64(n))
				} else {
					cw.str(v.Text())
				}
			}
			return cw.err == nil
		})
	}
	cw.checksum()
	return nil
}

// crcReader mirrors crcWriter for decoding.
type crcReader struct {
	r   *bufio.Reader
	crc uint32
	err error
	buf [8]byte
}

func (c *crcReader) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *crcReader) read(p []byte) {
	if c.err != nil {
		return
	}
	if _, err := io.ReadFull(c.r, p); err != nil {
		c.fail(fmt.Errorf("%w: truncated snapshot stream", ErrCorrupt))
		return
	}
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
}

func (c *crcReader) u8() uint8   { c.read(c.buf[:1]); return c.buf[0] }
func (c *crcReader) u32() uint32 { c.read(c.buf[:4]); return binary.LittleEndian.Uint32(c.buf[:4]) }
func (c *crcReader) u64() uint64 { c.read(c.buf[:8]); return binary.LittleEndian.Uint64(c.buf[:8]) }

func (c *crcReader) str() string {
	n := c.u32()
	if uint64(n) > maxWireString {
		c.fail(fmt.Errorf("%w: %d-byte string in snapshot stream", ErrCorrupt, n))
		return ""
	}
	b := make([]byte, n)
	c.read(b)
	return string(b)
}

// checksum reads the stored CRC (outside the running value), compares
// it, and resets for the next region.
func (c *crcReader) checksum(what string) {
	if c.err != nil {
		return
	}
	got := c.crc
	var b [4]byte
	if _, err := io.ReadFull(c.r, b[:]); err != nil {
		c.fail(fmt.Errorf("%w: truncated snapshot stream in %s checksum", ErrCorrupt, what))
		return
	}
	if stored := binary.LittleEndian.Uint32(b[:]); stored != got {
		c.fail(fmt.Errorf("%w: snapshot %s CRC %08x, stored %08x", ErrCorrupt, what, got, stored))
	}
	c.crc = 0
}

// position is a consistent (next index, total record bytes) pair of
// the log at one journaled moment.
type position struct {
	next  uint64
	bytes int64
}

// Bootstrap is a decoded bootstrap stream: the generation state a
// follower starts from.
type Bootstrap struct {
	// Epoch is the leader epoch the snapshot captures.
	Epoch uint64
	// NextIndex is the log index of the first record after the snapshot
	// — where the follower's tail begins.
	NextIndex uint64
	// LogBytes is the leader's total record bytes at NextIndex — the
	// follower's bytes-behind baseline.
	LogBytes int64
	// Fingerprint is the leader's replication fingerprint; the follower
	// must reproduce it bit-for-bit after rebuilding.
	Fingerprint string
	// DB is the rebuilt corpus.
	DB *relstore.Database
	// Artifact holds the leader's offline tables.
	Artifact *artifact.Snapshot
}

// readSnapshot decodes a full bootstrap stream written by
// writeSnapshot: checksummed header, checksummed corpus dump, then the
// KQRART artifact to end of stream.
func readSnapshot(r io.Reader) (*Bootstrap, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	cr := &crcReader{r: br}
	var magic [6]byte
	cr.read(magic[:])
	if cr.err == nil && magic != snapMagic {
		return nil, fmt.Errorf("%w: bad snapshot magic %q", ErrCorrupt, magic[:])
	}
	if v := cr.u32(); cr.err == nil && v != uint32(snapVersion) {
		return nil, fmt.Errorf("%w: snapshot stream version %d, want %d", ErrCorrupt, v, snapVersion)
	}
	snap := &Bootstrap{Epoch: cr.u64(), NextIndex: cr.u64(), LogBytes: int64(cr.u64()), Fingerprint: cr.str()}
	cr.checksum("header")
	if cr.err != nil {
		return nil, cr.err
	}
	db, err := readDatabase(cr)
	if err != nil {
		return nil, err
	}
	snap.DB = db
	art, err := artifact.Load(br, snap.Fingerprint)
	if err != nil {
		return nil, fmt.Errorf("repl: snapshot artifact: %w", err)
	}
	snap.Artifact = art
	return snap, nil
}

// readDatabase rebuilds the corpus from the snapshot stream: schemas
// created in the original creation order, rows inserted in the topo
// order the leader emitted them, through the normal referential checks.
func readDatabase(cr *crcReader) (*relstore.Database, error) {
	db := relstore.NewDatabase()
	ntables := cr.u32()
	if cr.err != nil {
		return nil, cr.err
	}
	if ntables > 1<<16 {
		return nil, fmt.Errorf("%w: snapshot claims %d tables", ErrCorrupt, ntables)
	}
	schemas := make(map[string]relstore.Schema, ntables)
	for i := uint32(0); i < ntables && cr.err == nil; i++ {
		s := relstore.Schema{Name: cr.str(), PrimaryKey: cr.str()}
		ncols := cr.u32()
		if ncols > 1<<12 {
			return nil, fmt.Errorf("%w: table %q claims %d columns", ErrCorrupt, s.Name, ncols)
		}
		for j := uint32(0); j < ncols && cr.err == nil; j++ {
			s.Columns = append(s.Columns, relstore.Column{
				Name: cr.str(),
				Kind: relstore.Kind(cr.u8()),
				Text: relstore.TextMode(cr.u8()),
			})
		}
		nfks := cr.u32()
		if nfks > 1<<12 {
			return nil, fmt.Errorf("%w: table %q claims %d foreign keys", ErrCorrupt, s.Name, nfks)
		}
		for j := uint32(0); j < nfks && cr.err == nil; j++ {
			s.ForeignKeys = append(s.ForeignKeys, relstore.ForeignKey{Column: cr.str(), RefTable: cr.str()})
		}
		if cr.err != nil {
			break
		}
		if err := db.CreateTable(s); err != nil {
			return nil, fmt.Errorf("repl: restoring schema %q: %w", s.Name, err)
		}
		schemas[s.Name] = s
	}
	for i := uint32(0); i < ntables && cr.err == nil; i++ {
		name := cr.str()
		s, ok := schemas[name]
		if !ok {
			return nil, fmt.Errorf("%w: rows for undeclared table %q", ErrCorrupt, name)
		}
		nrows := cr.u64()
		for r := uint64(0); r < nrows && cr.err == nil; r++ {
			// A fresh slice per row: Insert retains it.
			vals := make([]relstore.Value, len(s.Columns))
			for c := range s.Columns {
				if s.Columns[c].Kind == relstore.KindInt {
					vals[c] = relstore.Int(int64(cr.u64()))
				} else {
					vals[c] = relstore.String(cr.str())
				}
			}
			if cr.err != nil {
				break
			}
			if _, err := db.Insert(name, vals...); err != nil {
				return nil, fmt.Errorf("repl: restoring %s row %d: %w", name, r, err)
			}
		}
	}
	cr.checksum("database")
	if cr.err != nil {
		return nil, cr.err
	}
	return db, nil
}
