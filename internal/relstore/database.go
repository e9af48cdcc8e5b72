package relstore

import (
	"fmt"
	"sort"
)

// Database is a set of tables plus the foreign-key reference structure
// between them. It is not safe for concurrent mutation; once loaded it
// may be read from any number of goroutines.
type Database struct {
	tables map[string]*Table
	order  []string // table names in creation order, for deterministic scans
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{tables: make(map[string]*Table)}
}

// CreateTable validates the schema and adds an empty table. Foreign keys
// may reference tables created later; they are checked at insert time and
// by CheckIntegrity.
func (db *Database) CreateTable(s Schema) error {
	if err := s.validate(); err != nil {
		return err
	}
	if _, dup := db.tables[s.Name]; dup {
		return fmt.Errorf("relstore: table %q already exists", s.Name)
	}
	db.tables[s.Name] = newTable(s)
	db.order = append(db.order, s.Name)
	return nil
}

// Table returns the named table, or an error naming the tables that do
// exist — the typo is usually obvious from the list.
func (db *Database) Table(name string) (*Table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("relstore: no table %q (have %v)", name, db.order)
	}
	return t, nil
}

// TableNames returns the table names in creation order.
func (db *Database) TableNames() []string {
	out := make([]string, len(db.order))
	copy(out, db.order)
	return out
}

// Insert validates and stores a row, returning the new tuple's id.
// Foreign-key values must already exist in the referenced tables.
func (db *Database) Insert(table string, vals ...Value) (TupleID, error) {
	t, err := db.Table(table)
	if err != nil {
		return TupleID{}, err
	}
	if err := db.checkForeignKeys(t, vals); err != nil {
		return TupleID{}, err
	}
	row, err := t.insert(vals)
	if err != nil {
		return TupleID{}, err
	}
	return TupleID{Table: table, Row: row}, nil
}

func (db *Database) checkForeignKeys(t *Table, vals []Value) error {
	s := t.schema
	if len(vals) != len(s.Columns) {
		// Let insert produce the precise arity error.
		return nil
	}
	for _, fk := range s.ForeignKeys {
		ref, err := db.Table(fk.RefTable)
		if err != nil {
			return fmt.Errorf("relstore: table %q foreign key references missing table %q", s.Name, fk.RefTable)
		}
		if ref.pkIndex == nil {
			return fmt.Errorf("relstore: table %q foreign key references table %q which has no primary key", s.Name, fk.RefTable)
		}
		v := vals[s.ColumnIndex(fk.Column)]
		if _, ok := ref.LookupPK(v); !ok {
			return fmt.Errorf("relstore: table %q column %q value %q has no match in %q",
				s.Name, fk.Column, v.Text(), fk.RefTable)
		}
	}
	return nil
}

// Tuple resolves a TupleID.
func (db *Database) Tuple(id TupleID) (Tuple, error) {
	t, err := db.Table(id.Table)
	if err != nil {
		return Tuple{}, err
	}
	return t.Tuple(id.Row)
}

// Field returns the value of one column of the identified tuple.
func (db *Database) Field(id TupleID, column string) (Value, error) {
	t, err := db.Table(id.Table)
	if err != nil {
		return Value{}, err
	}
	tp, err := t.Tuple(id.Row)
	if err != nil {
		return Value{}, err
	}
	v, ok := tp.value(&t.schema, column)
	if !ok {
		return Value{}, fmt.Errorf("relstore: table %q has no column %q", id.Table, column)
	}
	return v, nil
}

// References appends to dst[:0] the tuples the identified tuple
// references through each of its foreign keys (its "parents" in the
// schema graph), in foreign-key order, and returns the extended slice.
// A caller scanning many tuples passes the previous result back in, so
// the scan reuses one buffer.
func (db *Database) References(id TupleID, dst []TupleID) ([]TupleID, error) {
	t, err := db.Table(id.Table)
	if err != nil {
		return nil, err
	}
	tp, err := t.Tuple(id.Row)
	if err != nil {
		return nil, err
	}
	out := dst[:0]
	for _, fk := range t.schema.ForeignKeys {
		ref, err := db.Table(fk.RefTable)
		if err != nil {
			return nil, err
		}
		v := tp.Values[t.schema.ColumnIndex(fk.Column)]
		target, ok := ref.LookupPK(v)
		if !ok {
			return nil, fmt.Errorf("relstore: dangling reference %s.%s=%q", id, fk.Column, v.Text())
		}
		out = append(out, target.ID)
	}
	return out, nil
}

// CheckIntegrity verifies every foreign key of every stored tuple
// resolves. It returns the first violation found, scanning tables in
// creation order so failures are deterministic.
func (db *Database) CheckIntegrity() error {
	for _, name := range db.order {
		t := db.tables[name]
		for _, fk := range t.schema.ForeignKeys {
			ref, err := db.Table(fk.RefTable)
			if err != nil {
				return fmt.Errorf("relstore: table %q references missing table %q", name, fk.RefTable)
			}
			col := t.schema.ColumnIndex(fk.Column)
			for row, vals := range t.rows {
				if _, ok := ref.LookupPK(vals[col]); !ok {
					return fmt.Errorf("relstore: %s[%d].%s=%q has no match in %q",
						name, row, fk.Column, vals[col].Text(), fk.RefTable)
				}
			}
		}
	}
	return nil
}

// Stats summarizes the database for logging and corpus inspection.
type Stats struct {
	Tables      int
	Tuples      int
	ForeignKeys int
	PerTable    map[string]int
}

// Stats computes summary statistics.
func (db *Database) Stats() Stats {
	st := Stats{Tables: len(db.order), PerTable: make(map[string]int, len(db.order))}
	for _, name := range db.order {
		t := db.tables[name]
		st.Tuples += t.Len()
		st.ForeignKeys += len(t.schema.ForeignKeys) * t.Len()
		st.PerTable[name] = t.Len()
	}
	return st
}

// String renders the stats compactly with tables sorted by name.
func (s Stats) String() string {
	names := make([]string, 0, len(s.PerTable))
	for n := range s.PerTable {
		names = append(names, n)
	}
	sort.Strings(names)
	out := fmt.Sprintf("%d tables, %d tuples:", s.Tables, s.Tuples)
	for _, n := range names {
		out += fmt.Sprintf(" %s=%d", n, s.PerTable[n])
	}
	return out
}
