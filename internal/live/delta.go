package live

import (
	"fmt"

	"kqr/internal/relstore"
)

// Op distinguishes the two delta kinds.
type Op uint8

const (
	// OpInsert adds one tuple.
	OpInsert Op = iota
	// OpDelete removes the tuple whose primary key matches Key.
	OpDelete
)

// String names the operation.
func (o Op) String() string {
	if o == OpDelete {
		return "delete"
	}
	return "insert"
}

// Delta is one staged corpus change. Inserts carry the full value row
// in column order; deletes identify the victim by primary-key value
// (only tables with a primary key support deletion — association rows
// disappear with the tuples they link, via cascade).
type Delta struct {
	Op     Op
	Table  string
	Values []relstore.Value // OpInsert: the row, in column order
	Key    relstore.Value   // OpDelete: the primary-key value
}

// String renders the delta for error messages and logs.
func (d Delta) String() string {
	if d.Op == OpDelete {
		return fmt.Sprintf("delete %s[pk=%s]", d.Table, d.Key.Text())
	}
	return fmt.Sprintf("insert %s (%d values)", d.Table, len(d.Values))
}

// DeltaError reports which delta in a batch failed validation, so a
// caller staging hundreds of changes can point at the offender instead
// of rejecting the batch opaquely.
type DeltaError struct {
	// Index is the delta's position in the submitted batch.
	Index int
	// Err is the underlying validation failure.
	Err error
}

// Error renders the indexed failure.
func (e *DeltaError) Error() string { return fmt.Sprintf("delta %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying validation error to errors.Is/As.
func (e *DeltaError) Unwrap() error { return e.Err }

// validate checks a delta against the schema of the database it will
// eventually apply to. It is the cheap admission check run at Ingest
// time; full referential checking happens when the delta is applied.
func validateDelta(db *relstore.Database, d Delta) error {
	t, err := db.Table(d.Table)
	if err != nil {
		return fmt.Errorf("live: %s: %w", d, err)
	}
	s := t.Schema()
	switch d.Op {
	case OpInsert:
		if len(d.Values) != len(s.Columns) {
			return fmt.Errorf("live: %s: table %q expects %d values", d, d.Table, len(s.Columns))
		}
		for i, v := range d.Values {
			if v.Kind() != s.Columns[i].Kind {
				return fmt.Errorf("live: %s: column %q expects %s, got %s",
					d, s.Columns[i].Name, s.Columns[i].Kind, v.Kind())
			}
		}
	case OpDelete:
		if s.PrimaryKey == "" {
			return fmt.Errorf("live: %s: table %q has no primary key; association rows are removed by cascade", d, d.Table)
		}
		pkKind := s.Columns[s.ColumnIndex(s.PrimaryKey)].Kind
		if d.Key.Kind() != pkKind {
			return fmt.Errorf("live: %s: primary key %q expects %s, got %s",
				d, s.PrimaryKey, pkKind, d.Key.Kind())
		}
	default:
		return fmt.Errorf("live: unknown delta op %d", int(d.Op))
	}
	return nil
}

// TopoTables orders table names so every table appears after the tables
// it references — the order rows must be re-inserted in for foreign-key
// checks to pass. Cycles (e.g. the self-referencing cites table) are
// broken by falling back to creation order for the remainder; self
// references within one table are fine because referenced rows are
// re-inserted before referencing rows in row order... rows within a
// table keep their relative order, and the original insertion already
// satisfied the constraint, so any old row's reference target precedes
// it. The copy-on-write rebuild and the replication bootstrap stream
// both re-insert rows in this order.
func TopoTables(db *relstore.Database) ([]string, error) {
	names := db.TableNames()
	indeg := make(map[string]int, len(names))
	dependents := make(map[string][]string, len(names))
	for _, n := range names {
		t, err := db.Table(n)
		if err != nil {
			return nil, err
		}
		seen := make(map[string]bool)
		for _, fk := range t.Schema().ForeignKeys {
			if fk.RefTable == n || seen[fk.RefTable] {
				continue // self-reference or duplicate edge
			}
			seen[fk.RefTable] = true
			indeg[n]++
			dependents[fk.RefTable] = append(dependents[fk.RefTable], n)
		}
	}
	order := make([]string, 0, len(names))
	queue := make([]string, 0, len(names))
	for _, n := range names { // creation order keeps the sort stable
		if indeg[n] == 0 {
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, d := range dependents[n] {
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if len(order) != len(names) { // FK cycle between distinct tables
		inOrder := make(map[string]bool, len(order))
		for _, n := range order {
			inOrder[n] = true
		}
		for _, n := range names {
			if !inOrder[n] {
				order = append(order, n)
			}
		}
	}
	return order, nil
}

// applyDeltas rebuilds base with the deltas applied, copy-on-write: the
// base database is only read, never mutated, so the generation serving
// from it is untouched. Deletes cascade — a surviving row that
// references a deleted row is deleted too (association and citation
// rows disappear with the tuples they link). Inserts are applied after
// all base rows, in delta order, so an inserted row may reference
// another row inserted in the same batch. cascades counts the rows
// removed because a row they referenced was deleted.
func applyDeltas(base *relstore.Database, deltas []Delta) (db *relstore.Database, cascades int, err error) {
	// Index the deletions per table by primary-key value.
	dels := make(map[string]map[relstore.Value]bool) // table -> pk -> true
	for _, d := range deltas {
		if d.Op != OpDelete {
			continue
		}
		if dels[d.Table] == nil {
			dels[d.Table] = make(map[relstore.Value]bool)
		}
		dels[d.Table][d.Key] = true
	}

	order, err := TopoTables(base)
	if err != nil {
		return nil, 0, err
	}
	db = relstore.NewDatabase()
	// Recreate every schema in the original creation order so derived
	// structures (class ids, scan order) stay comparable.
	for _, name := range base.TableNames() {
		t, err := base.Table(name)
		if err != nil {
			return nil, 0, err
		}
		if err := db.CreateTable(t.Schema()); err != nil {
			return nil, 0, err
		}
	}

	deleted := make(map[relstore.TupleID]bool)
	var refs []relstore.TupleID

	// Copy surviving base rows, parents before children, cascading
	// deletions down the FK graph.
	for _, name := range order {
		t, err := base.Table(name)
		if err != nil {
			return nil, 0, err
		}
		s := t.Schema()
		pkCol := -1
		if s.PrimaryKey != "" {
			pkCol = s.ColumnIndex(s.PrimaryKey)
		}
		var scanErr error
		t.Scan(func(tp relstore.Tuple) bool {
			if pkCol >= 0 && dels[name][tp.Values[pkCol]] {
				deleted[tp.ID] = true
				return true
			}
			// Cascade: drop rows referencing a deleted row.
			refs, err = base.References(tp.ID, refs)
			if err != nil {
				scanErr = err
				return false
			}
			for _, ref := range refs {
				if deleted[ref] {
					deleted[tp.ID] = true
					cascades++
					return true
				}
			}
			if _, err := db.Insert(name, tp.Values...); err != nil {
				scanErr = fmt.Errorf("live: re-inserting %s: %w", tp.ID, err)
				return false
			}
			return true
		})
		if scanErr != nil {
			return nil, 0, scanErr
		}
	}

	// Apply inserts in delta order, skipping rows deleted within the
	// same batch.
	for _, d := range deltas {
		if d.Op != OpInsert {
			continue
		}
		t, err := db.Table(d.Table)
		if err != nil {
			return nil, 0, fmt.Errorf("live: %s: %w", d, err)
		}
		s := t.Schema()
		if s.PrimaryKey != "" {
			if dels[d.Table][d.Values[s.ColumnIndex(s.PrimaryKey)]] {
				continue // inserted then deleted in one batch
			}
		}
		if _, err := db.Insert(d.Table, d.Values...); err != nil {
			return nil, 0, fmt.Errorf("live: %s: %w", d, err)
		}
	}
	return db, cascades, nil
}
