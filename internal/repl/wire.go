package repl

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"kqr/internal/artifact"
	"kqr/internal/frame"
	"kqr/internal/live"
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

// Sentinel errors classifying replication failures; test with errors.Is.
var (
	// ErrCorrupt means a record, segment or snapshot stream failed its
	// CRC or structural validation. It is internal/frame's root
	// sentinel, so the specific cause (frame.ErrChecksum,
	// frame.ErrTruncated, frame.ErrMagic) stays testable too.
	ErrCorrupt = frame.ErrCorrupt
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

// encodeRecordBody renders the record body (everything between the
// length prefix and the CRC): index, epoch, kind, kind-specific payload.
func encodeRecordBody(rec Record) ([]byte, error) {
	b := make([]byte, 0, 64)
	b = frame.AppendU64(b, rec.Index)
	b = frame.AppendU64(b, rec.Epoch)
	b = frame.AppendU8(b, rec.Kind)
	switch rec.Kind {
	case kindDeltas:
		b = live.AppendDeltas(b, rec.Deltas)
	case kindEpoch:
		b = frame.AppendStr(b, rec.Mode)
	case kindHeartbeat:
		b = frame.AppendU64(b, uint64(rec.LogBytes))
	default:
		return nil, fmt.Errorf("repl: unknown record kind %d", rec.Kind)
	}
	return b, nil
}

// writeRecord frames and writes one record (frame.WriteRecord: u32 body
// length, body, u32 CRC-32 over the body). It returns the framed size
// in bytes.
func writeRecord(w io.Writer, rec Record) (int, error) {
	body, err := encodeRecordBody(rec)
	if err != nil {
		return 0, err
	}
	return frame.WriteRecord(w, body)
}

// readRecord reads one framed record. A clean io.EOF before the first
// length byte is returned as io.EOF (end of segment or stream); a
// truncated frame, a CRC mismatch and a structural failure all wrap
// ErrCorrupt (frame.ErrTruncated / frame.ErrChecksum). The int is the
// framed size consumed.
func readRecord(r io.Reader) (Record, int, error) {
	body, n, err := frame.ReadRecord(r, maxRecordBody)
	if err != nil {
		return Record{}, 0, err
	}
	rec, err := decodeRecordBody(body)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, n, nil
}

// decodeRecordBody parses a CRC-verified record body.
func decodeRecordBody(body []byte) (Record, error) {
	d := frame.Body(body)
	rec := Record{Index: d.U64(), Epoch: d.U64(), Kind: d.U8()}
	switch rec.Kind {
	case kindDeltas:
		rec.Deltas = live.DecodeDeltas(d)
	case kindEpoch:
		rec.Mode = d.Str()
	case kindHeartbeat:
		rec.LogBytes = int64(d.U64())
	default:
		d.Failf("unknown record kind %d", rec.Kind)
	}
	if err := d.Done(); err != nil {
		return Record{}, fmt.Errorf("repl: record body: %w", err)
	}
	return rec, nil
}

// ---- bootstrap snapshot stream ------------------------------------------

// snapMagic opens every bootstrap snapshot stream.
var snapMagic = frame.Magic{'K', 'Q', 'R', 'R', 'E', 'P'}

// snapVersion is the bootstrap stream format this package speaks.
const snapVersion uint16 = 1

// Fingerprint identifies everything a replica's derived state depends
// on: what determines the offline tables (Manager.TableFingerprint —
// every config knob that changes what the extractors compute, the walk
// solver, the graph shape; a follower rebuilds every promotion itself,
// and two solvers differ in the low bits) and the corpus row counts.
// Leader and follower must agree on it before a single log record is
// applied.
func Fingerprint(mgr *live.Manager, g *live.Generation) string {
	return fmt.Sprintf("repl %s corpus=%s", mgr.TableFingerprint(g), g.DB.Stats())
}

// writeSnapshot streams the bootstrap snapshot of one generation:
// checksummed header (epoch, resume index, log byte position,
// fingerprint), checksummed corpus dump (schemas in creation order,
// rows in foreign-key topological order), then the offline tables as a
// standard KQRART artifact to end of stream.
func writeSnapshot(w io.Writer, mgr *live.Manager, g *live.Generation, pos position) error {
	fp := Fingerprint(mgr, g)
	cw := frame.NewWriter(w)
	cw.Bytes(snapMagic[:])
	cw.U32(uint32(snapVersion)) // widened: room for flags later
	cw.U64(g.Provenance.Epoch)
	cw.U64(pos.next)
	cw.U64(uint64(pos.bytes))
	cw.Str(fp)
	cw.Checksum()

	if err := writeDatabase(cw, g.DB); err != nil {
		return err
	}
	if err := cw.Flush(); err != nil {
		return fmt.Errorf("repl: writing snapshot: %w", err)
	}
	return live.ArtifactSnapshot(g, fp).Write(w)
}

// writeDatabase encodes the corpus: every schema in creation order
// (class ids and scan order on the follower must match the leader's),
// then every table's rows in foreign-key topological order so the
// follower can re-insert them with referential checks on.
func writeDatabase(cw *frame.Writer, db *relstore.Database) error {
	names := db.TableNames()
	cw.U32(uint32(len(names)))
	for _, name := range names {
		t, err := db.Table(name)
		if err != nil {
			return err
		}
		s := t.Schema()
		cw.Str(s.Name)
		cw.Str(s.PrimaryKey)
		cw.U32(uint32(len(s.Columns)))
		for _, col := range s.Columns {
			cw.Str(col.Name)
			cw.U8(uint8(col.Kind))
			cw.U8(uint8(col.Text))
		}
		cw.U32(uint32(len(s.ForeignKeys)))
		for _, fk := range s.ForeignKeys {
			cw.Str(fk.Column)
			cw.Str(fk.RefTable)
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
		cw.Str(name)
		cw.U64(uint64(t.Len()))
		t.Scan(func(tp relstore.Tuple) bool {
			for i, v := range tp.Values {
				if s.Columns[i].Kind == relstore.KindInt {
					n, _ := v.AsInt()
					cw.U64(uint64(n))
				} else {
					cw.Str(v.Text())
				}
			}
			return true
		})
	}
	cw.Checksum()
	return nil
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
	cr := frame.NewReader(br)
	cr.Magic(snapMagic)
	if v := cr.U32(); v != uint32(snapVersion) {
		cr.Failf("snapshot stream version %d, want %d", v, snapVersion)
	}
	snap := &Bootstrap{Epoch: cr.U64(), NextIndex: cr.U64(), LogBytes: int64(cr.U64()), Fingerprint: cr.Str()}
	cr.Checksum("snapshot header")
	db, err := readDatabase(cr)
	if err != nil {
		return nil, fmt.Errorf("repl: snapshot stream: %w", err)
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
// order the leader emitted them, through the normal referential checks
// — which the leader's own corpus passed, so a schema or row they
// refuse here is stream damage met before the region's CRC.
func readDatabase(cr *frame.Reader) (*relstore.Database, error) {
	db := relstore.NewDatabase()
	ntables := cr.U32()
	if cr.Err() != nil {
		return nil, cr.Err()
	}
	if ntables > 1<<16 {
		return nil, fmt.Errorf("%w: snapshot claims %d tables", frame.ErrTruncated, ntables)
	}
	schemas := make(map[string]relstore.Schema, ntables)
	for i := uint32(0); i < ntables && cr.Err() == nil; i++ {
		s := relstore.Schema{Name: cr.Str(), PrimaryKey: cr.Str()}
		ncols := cr.U32()
		if ncols > 1<<12 {
			return nil, fmt.Errorf("%w: table %q claims %d columns", frame.ErrTruncated, s.Name, ncols)
		}
		for j := uint32(0); j < ncols && cr.Err() == nil; j++ {
			s.Columns = append(s.Columns, relstore.Column{
				Name: cr.Str(),
				Kind: relstore.Kind(cr.U8()),
				Text: relstore.TextMode(cr.U8()),
			})
		}
		nfks := cr.U32()
		if nfks > 1<<12 {
			return nil, fmt.Errorf("%w: table %q claims %d foreign keys", frame.ErrTruncated, s.Name, nfks)
		}
		for j := uint32(0); j < nfks && cr.Err() == nil; j++ {
			s.ForeignKeys = append(s.ForeignKeys, relstore.ForeignKey{Column: cr.Str(), RefTable: cr.Str()})
		}
		if cr.Err() != nil {
			break
		}
		if err := db.CreateTable(s); err != nil {
			return nil, fmt.Errorf("%w: restoring schema %q: %v", ErrCorrupt, s.Name, err)
		}
		schemas[s.Name] = s
	}
	for i := uint32(0); i < ntables && cr.Err() == nil; i++ {
		name := cr.Str()
		s, ok := schemas[name]
		if !ok {
			return nil, fmt.Errorf("%w: rows for undeclared table %q", frame.ErrTruncated, name)
		}
		nrows := cr.U64()
		for r := uint64(0); r < nrows && cr.Err() == nil; r++ {
			// A fresh slice per row: Insert retains it.
			vals := make([]relstore.Value, len(s.Columns))
			for c := range s.Columns {
				if s.Columns[c].Kind == relstore.KindInt {
					vals[c] = relstore.Int(int64(cr.U64()))
				} else {
					vals[c] = relstore.String(cr.Str())
				}
			}
			if cr.Err() != nil {
				break
			}
			if _, err := db.Insert(name, vals...); err != nil {
				return nil, fmt.Errorf("%w: restoring %s row %d: %v", ErrCorrupt, name, r, err)
			}
		}
	}
	cr.Checksum("snapshot database")
	if cr.Err() != nil {
		return nil, cr.Err()
	}
	return db, nil
}
