package relstore

import (
	"fmt"
)

// TupleID identifies a tuple globally: the table it lives in and its
// dense row index within that table. Row indexes are assigned in
// insertion order and never reused.
type TupleID struct {
	Table string
	Row   int
}

// String renders the id as table[row].
func (id TupleID) String() string { return fmt.Sprintf("%s[%d]", id.Table, id.Row) }

// Tuple is one stored row: its id plus the cell values in column order.
// The Values slice is owned by the table; callers must not mutate it.
type Tuple struct {
	ID     TupleID
	Values []Value
}

// Value returns the cell in the named column, using the table schema to
// resolve the position.
func (t Tuple) value(s *Schema, column string) (Value, bool) {
	i := s.ColumnIndex(column)
	if i < 0 {
		return Value{}, false
	}
	return t.Values[i], true
}

// Table stores the tuples of one relation together with a primary-key
// index.
type Table struct {
	schema Schema
	rows   [][]Value
	// pkIndex maps primary-key values to row indexes. A Value is its own
	// key: == compares kind and content, so Int(7) and String("7") stay
	// distinct. Nil when the schema has no primary key.
	pkIndex map[Value]int
}

func newTable(s Schema) *Table {
	t := &Table{schema: s}
	if s.PrimaryKey != "" {
		t.pkIndex = make(map[Value]int)
	}
	return t
}

// Schema returns the table's schema. The returned value is a copy of the
// scalar fields but shares the column slices; callers must not mutate it.
func (t *Table) Schema() Schema { return t.schema }

// Name returns the table name.
func (t *Table) Name() string { return t.schema.Name }

// Len returns the number of stored tuples.
func (t *Table) Len() int { return len(t.rows) }

// Tuple returns the tuple at the given row index.
func (t *Table) Tuple(row int) (Tuple, error) {
	if row < 0 || row >= len(t.rows) {
		return Tuple{}, fmt.Errorf("relstore: table %q has no row %d (have %d rows)", t.schema.Name, row, len(t.rows))
	}
	return Tuple{ID: TupleID{Table: t.schema.Name, Row: row}, Values: t.rows[row]}, nil
}

// LookupPK returns the tuple whose primary-key column equals v.
func (t *Table) LookupPK(v Value) (Tuple, bool) {
	if t.pkIndex == nil {
		return Tuple{}, false
	}
	row, ok := t.pkIndex[v]
	if !ok {
		return Tuple{}, false
	}
	return Tuple{ID: TupleID{Table: t.schema.Name, Row: row}, Values: t.rows[row]}, true
}

// Scan calls fn for every tuple in insertion order. It stops early if fn
// returns false.
func (t *Table) Scan(fn func(Tuple) bool) {
	for row, vals := range t.rows {
		if !fn(Tuple{ID: TupleID{Table: t.schema.Name, Row: row}, Values: vals}) {
			return
		}
	}
}

// insert appends a row after validation and returns its row index.
func (t *Table) insert(vals []Value) (int, error) {
	s := &t.schema
	if len(vals) != len(s.Columns) {
		return 0, fmt.Errorf("relstore: table %q expects %d values, got %d", s.Name, len(s.Columns), len(vals))
	}
	for i, v := range vals {
		if v.Kind() != s.Columns[i].Kind {
			return 0, fmt.Errorf("relstore: table %q column %q expects %s, got %s value %q",
				s.Name, s.Columns[i].Name, s.Columns[i].Kind, v.Kind(), v.Text())
		}
	}
	if t.pkIndex != nil {
		pk := vals[s.ColumnIndex(s.PrimaryKey)]
		if _, dup := t.pkIndex[pk]; dup {
			return 0, fmt.Errorf("relstore: table %q duplicate primary key %q", s.Name, pk.Text())
		}
		t.pkIndex[pk] = len(t.rows)
	}
	t.rows = append(t.rows, vals)
	return len(t.rows) - 1, nil
}
