package artifact

import (
	"errors"

	"kqr/internal/frame"
	"kqr/internal/graph"
	"kqr/internal/packed"
)

// FormatVersion is the snapshot format this package writes. Read
// rejects any other version with ErrVersion.
const FormatVersion uint16 = 1

// magic opens every snapshot file.
var magic = frame.Magic{'K', 'Q', 'R', 'A', 'R', 'T'}

// Section ids. New kinds must take fresh ids; readers skip ids they do
// not know.
const (
	secVocabulary uint8 = 1
	secWalk       uint8 = 2
	secCooccur    uint8 = 3
	secCloseness  uint8 = 4
)

// Sentinel errors classifying why a snapshot failed to load. They are
// wrapped with positional detail; test with errors.Is. The first four
// are internal/frame's — every format in the repo reports damage with
// the same values.
var (
	// ErrMagic means the file does not start with the snapshot magic —
	// it is not a kqr artifact at all.
	ErrMagic = frame.ErrMagic
	// ErrVersion means the file's format version is not one this build
	// reads.
	ErrVersion = frame.ErrVersion
	// ErrChecksum means a section (or the header) failed its CRC.
	ErrChecksum = frame.ErrChecksum
	// ErrTruncated means the file ended mid-header or mid-section, or a
	// section's internal counts disagree with its byte length.
	ErrTruncated = frame.ErrTruncated
	// ErrFingerprint means the snapshot was computed over a different
	// corpus, graph or offline configuration than the caller's.
	ErrFingerprint = errors.New("artifact: corpus fingerprint mismatch")
)

// Term is one vocabulary entry: a term node with its class (an index
// into Snapshot.Classes) and text. The vocabulary lets a loader verify
// node ids still mean the same terms before trusting any table.
type Term struct {
	// Node is the term's node id in the TAT graph.
	Node graph.NodeID
	// Class indexes Snapshot.Classes ("table.column").
	Class int32
	// Text is the normalized term text.
	Text string
}

// Snapshot is the decoded (or to-be-encoded) content of an artifact
// file: the fingerprint plus one table per section, in the row store's
// own serial form (packed.Rows) — a writer streams the rows out as they
// lie, a reader appends them and hands the result to a store. A nil
// table means the section is absent — an engine in random-walk mode has
// no co-occurrence table and vice versa.
type Snapshot struct {
	// Fingerprint identifies the corpus, graph shape and offline
	// options the tables were computed over.
	Fingerprint string
	// Version is the format version read from the file; Write always
	// emits FormatVersion.
	Version uint16
	// Classes are the class labels the vocabulary indexes into.
	Classes []string
	// Vocabulary lists every term node, in ascending node order.
	Vocabulary []Term
	// Tables holds the tables, indexed by TableKind: random-walk and
	// co-occurrence similar-term rows in rank order, closeness rows in
	// neighbor-id order.
	Tables [numTables]*packed.Rows
}
