// Package kqr implements keyword query reformulation on structured data,
// after Yao, Cui, Hua and Huang, "Keyword Query Reformulation on
// Structured Data" (ICDE 2012).
//
// Given relational data — tables connected by foreign keys, with textual
// attributes — the library suggests substitutive keyword queries for a
// user's input query by exploiting the structural semantics of the data
// itself, with no query log required:
//
//   - offline, it models the data as a Term Augmented Tuple graph and
//     extracts term similarity (contextual random walk with restart) and
//     term closeness (bounded multi-path distance);
//   - online, it assembles a hidden Markov model per query — emissions
//     from similarity, transitions from closeness — and decodes the
//     top-k hidden term sequences as reformulated queries.
//
// Quick start:
//
//	ds, _ := kqr.NewDataset(
//	    kqr.Table{Name: "papers", Columns: []kqr.Column{
//	        {Name: "pid", Type: kqr.TypeInt},
//	        {Name: "title", Type: kqr.TypeString, Text: kqr.TextSegmented},
//	    }, PrimaryKey: "pid"},
//	)
//	ds.Insert("papers", int64(1), "probabilistic query evaluation")
//	eng, _ := kqr.Open(ds, kqr.Options{})
//	suggestions, _ := eng.ReformulateQuery("uncertain data", 5)
//
// # Configuration
//
// Options is the whole configuration. Open resolves and validates it
// once, before it builds anything: every default and range check lives
// in the internal package that consumes the knob, an out-of-range value
// fails Open (naming the knob, leaving the Dataset unfrozen), and the
// resolved values are held in one place — the generation manager — from
// which promotion, snapshot reload, both fingerprints and disk mode read
// them. DESIGN.md §7 lists why each option exists.
//
// # Snapshots
//
// The offline stage (graph build aside) can be persisted as a
// versioned, checksummed snapshot file and restored on the next start
// instead of recomputed — an order-of-magnitude cold-start saving on
// realistic corpora:
//
//	eng.Warm(ctx)                          // force full offline compute
//	eng.SaveArtifacts("offline.snapshot")  // atomic, streaming write
//	...
//	eng2, _ := kqr.Open(ds, kqr.Options{ArtifactPath: "offline.snapshot"})
//	eng2.Artifact().Loaded                 // true if the snapshot matched
//
// A snapshot is bound to its corpus and offline options by a
// fingerprint; on any mismatch (or corruption) Open logs the reason
// and falls back to live compute — a stale snapshot can never change
// results. See internal/artifact for the file format and DESIGN.md §10
// for the byte layout.
//
// # Live generations
//
// With Options.Live, the corpus may change after Open: Engine.Ingest
// stages tuple inserts/deletes and Engine.Promote builds the next
// immutable index generation and swaps it in atomically — queries never
// block and never observe a half-updated index. See ARCHITECTURE.md
// ("Live generations") and DESIGN.md §11.
//
// # Concurrency
//
// All Engine query methods — Reformulate, VisitReformulations,
// ReformulateQuery, ReformulateRankBased, ReformulateSegmented,
// ReformulateMended, Mend, SimilarTerms, CloseTerms,
// Search, Facets, SegmentQuery, Explain, GraphStats, Vocabulary,
// Artifact, Generation, Epoch, PendingDeltas — are safe for unlimited
// concurrent use, including concurrently with Ingest, Promote,
// LoadArtifacts, ReloadArtifacts and Close. Each call resolves the
// current generation once (a single atomic load) and reads only that
// generation, so a promotion mid-request is invisible to it.
//
// The offline-stage writers — Warm, SaveArtifacts,
// LoadArtifacts, ReloadArtifacts, Ingest, Promote, Close — are
// individually safe to call from any goroutine (promotions serialize
// internally), with one caveat: LoadArtifacts replaces the current
// generation's tables in place, one store after the other, so queries
// racing it may mix pre- and post-load scores (never torn data — each
// store swaps its whole table atomically).
// ReloadArtifacts installs the snapshot as a fresh generation instead
// and has no such caveat. Dataset is not safe for concurrent mutation
// and freezes once Open succeeds; change a live corpus through
// Ingest/Promote.
package kqr

import (
	"fmt"

	"kqr/internal/relstore"
)

// ColumnType is the value type of a column.
type ColumnType int

const (
	// TypeString holds text.
	TypeString ColumnType = iota
	// TypeInt holds 64-bit integers.
	TypeInt
)

// TextMode controls how a column's text becomes query terms.
type TextMode int

const (
	// TextNone columns are never searchable (keys, codes).
	TextNone TextMode = iota
	// TextSegmented columns are tokenized into individual terms (titles,
	// descriptions).
	TextSegmented
	// TextAtomic columns are one term per value (names that must not be
	// split).
	TextAtomic
)

// Column describes one attribute.
type Column struct {
	Name string
	Type ColumnType
	Text TextMode
}

// ForeignKey declares that Column references RefTable's primary key.
type ForeignKey struct {
	Column   string
	RefTable string
}

// Table describes one relation.
type Table struct {
	Name        string
	Columns     []Column
	PrimaryKey  string
	ForeignKeys []ForeignKey
}

// Dataset is loaded structured data, ready to open an Engine on. Once
// an Engine has been opened over it (a rejected Open does not count) the
// dataset is frozen: further inserts fail rather than mutating state
// shared with concurrent readers. To add data, build a new Dataset (or reload) and Open again.
type Dataset struct {
	db     *relstore.Database
	frozen bool
}

// NewDataset creates an empty dataset with the given tables. Tables may
// reference each other; referenced tables must appear in the same call.
func NewDataset(tables ...Table) (*Dataset, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("kqr: dataset needs at least one table")
	}
	db := relstore.NewDatabase()
	for _, t := range tables {
		s := relstore.Schema{Name: t.Name, PrimaryKey: t.PrimaryKey}
		for _, c := range t.Columns {
			kind := relstore.KindString
			if c.Type == TypeInt {
				kind = relstore.KindInt
			}
			text := relstore.TextNone
			switch c.Text {
			case TextSegmented:
				text = relstore.TextSegmented
			case TextAtomic:
				text = relstore.TextAtomic
			}
			s.Columns = append(s.Columns, relstore.Column{Name: c.Name, Kind: kind, Text: text})
		}
		for _, fk := range t.ForeignKeys {
			s.ForeignKeys = append(s.ForeignKeys, relstore.ForeignKey{Column: fk.Column, RefTable: fk.RefTable})
		}
		if err := db.CreateTable(s); err != nil {
			return nil, err
		}
	}
	return &Dataset{db: db}, nil
}

// WrapDatabase adopts an already-built internal database. It exists for
// the in-module generators and tools (the parameter type is internal, so
// external importers cannot call it — use NewDataset + Insert instead).
func WrapDatabase(db *relstore.Database) *Dataset {
	return &Dataset{db: db}
}

// Insert adds one row. Values must match the table's column types:
// string for TypeString; int64, int or int32 for TypeInt. Foreign keys
// are checked: referenced rows must already exist.
func (d *Dataset) Insert(table string, values ...any) error {
	if d.frozen {
		return fmt.Errorf("kqr: dataset is frozen (an Engine was opened over it); build a new dataset to add rows")
	}
	vals, err := toValues(values)
	if err != nil {
		return err
	}
	_, err = d.db.Insert(table, vals...)
	return err
}

// toValue converts one public value to the storage representation.
func toValue(v any) (relstore.Value, error) {
	switch x := v.(type) {
	case string:
		return relstore.String(x), nil
	case int64:
		return relstore.Int(x), nil
	case int:
		return relstore.Int(int64(x)), nil
	case int32:
		return relstore.Int(int64(x)), nil
	default:
		return relstore.Value{}, fmt.Errorf("kqr: unsupported value type %T", v)
	}
}

// toValues converts a public value row to the storage representation.
func toValues(values []any) ([]relstore.Value, error) {
	vals := make([]relstore.Value, len(values))
	for i, v := range values {
		val, err := toValue(v)
		if err != nil {
			return nil, fmt.Errorf("%w at position %d", err, i)
		}
		vals[i] = val
	}
	return vals, nil
}

// Stats returns a human-readable size summary.
func (d *Dataset) Stats() string { return d.db.Stats().String() }

// CheckIntegrity verifies every foreign key resolves.
func (d *Dataset) CheckIntegrity() error { return d.db.CheckIntegrity() }
