package relstore

import (
	"strings"
	"testing"
	"testing/quick"
)

func bibSchema(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.CreateTable(Schema{
		Name: "conferences",
		Columns: []Column{
			{Name: "cid", Kind: KindInt},
			{Name: "name", Kind: KindString, Text: TextAtomic},
		},
		PrimaryKey: "cid",
	}))
	must(db.CreateTable(Schema{
		Name: "papers",
		Columns: []Column{
			{Name: "pid", Kind: KindInt},
			{Name: "title", Kind: KindString, Text: TextSegmented},
			{Name: "cid", Kind: KindInt},
		},
		PrimaryKey:  "pid",
		ForeignKeys: []ForeignKey{{Column: "cid", RefTable: "conferences"}},
	}))
	must(db.CreateTable(Schema{
		Name: "authors",
		Columns: []Column{
			{Name: "aid", Kind: KindInt},
			{Name: "name", Kind: KindString, Text: TextAtomic},
		},
		PrimaryKey: "aid",
	}))
	must(db.CreateTable(Schema{
		Name: "writes",
		Columns: []Column{
			{Name: "aid", Kind: KindInt},
			{Name: "pid", Kind: KindInt},
		},
		ForeignKeys: []ForeignKey{
			{Column: "aid", RefTable: "authors"},
			{Column: "pid", RefTable: "papers"},
		},
	}))
	return db
}

func TestCreateTableValidation(t *testing.T) {
	cases := []struct {
		name   string
		schema Schema
		want   string // substring of the expected error
	}{
		{"empty name", Schema{Columns: []Column{{Name: "x"}}}, "empty table name"},
		{"no columns", Schema{Name: "t"}, "no columns"},
		{"empty column name", Schema{Name: "t", Columns: []Column{{Name: ""}}}, "empty name"},
		{"duplicate column", Schema{Name: "t", Columns: []Column{{Name: "a"}, {Name: "a"}}}, "twice"},
		{"bad pk", Schema{Name: "t", Columns: []Column{{Name: "a"}}, PrimaryKey: "b"}, "primary key"},
		{"fk unknown column", Schema{Name: "t", Columns: []Column{{Name: "a"}},
			ForeignKeys: []ForeignKey{{Column: "z", RefTable: "o"}}}, "unknown column"},
		{"fk duplicate column", Schema{Name: "t", Columns: []Column{{Name: "a"}},
			ForeignKeys: []ForeignKey{{Column: "a", RefTable: "o"}, {Column: "a", RefTable: "p"}}}, "two foreign keys"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := NewDatabase()
			err := db.CreateTable(c.schema)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("CreateTable error = %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestDuplicateTable(t *testing.T) {
	db := NewDatabase()
	s := Schema{Name: "t", Columns: []Column{{Name: "a"}}}
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(s); err == nil {
		t.Fatal("second CreateTable succeeded, want duplicate error")
	}
}

func TestInsertAndLookup(t *testing.T) {
	db := bibSchema(t)
	if _, err := db.Insert("conferences", Int(1), String("VLDB")); err != nil {
		t.Fatal(err)
	}
	id, err := db.Insert("papers", Int(10), String("Probabilistic query answering"), Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if id.Table != "papers" || id.Row != 0 {
		t.Fatalf("Insert returned %v, want papers[0]", id)
	}
	v, err := db.Field(id, "title")
	if err != nil {
		t.Fatal(err)
	}
	if v.Text() != "Probabilistic query answering" {
		t.Fatalf("Field(title) = %q", v.Text())
	}
	papers, err := db.Table("papers")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := papers.LookupPK(Int(10))
	if !ok || got.ID != id {
		t.Fatalf("LookupPK(10) = %v, %v; want %v", got.ID, ok, id)
	}
	if _, ok := papers.LookupPK(Int(99)); ok {
		t.Fatal("LookupPK(99) found a tuple, want miss")
	}
}

func TestInsertErrors(t *testing.T) {
	db := bibSchema(t)
	if _, err := db.Insert("conferences", Int(1), String("VLDB")); err != nil {
		t.Fatal(err)
	}
	t.Run("arity", func(t *testing.T) {
		if _, err := db.Insert("papers", Int(10)); err == nil {
			t.Fatal("want arity error")
		}
	})
	t.Run("kind mismatch", func(t *testing.T) {
		if _, err := db.Insert("papers", String("10"), String("t"), Int(1)); err == nil {
			t.Fatal("want kind error")
		}
	})
	t.Run("fk violation", func(t *testing.T) {
		if _, err := db.Insert("papers", Int(10), String("t"), Int(77)); err == nil {
			t.Fatal("want foreign-key error")
		}
	})
	t.Run("duplicate pk", func(t *testing.T) {
		if _, err := db.Insert("conferences", Int(1), String("SIGMOD")); err == nil {
			t.Fatal("want duplicate-pk error")
		}
	})
	t.Run("unknown table", func(t *testing.T) {
		if _, err := db.Insert("nope", Int(1)); err == nil {
			t.Fatal("want unknown-table error")
		}
	})
}

func TestReferences(t *testing.T) {
	db := bibSchema(t)
	mustID := func(id TupleID, err error) TupleID {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	conf := mustID(db.Insert("conferences", Int(1), String("VLDB")))
	paper := mustID(db.Insert("papers", Int(10), String("title one"), Int(1)))
	author := mustID(db.Insert("authors", Int(5), String("Ada Lovelace")))
	w := mustID(db.Insert("writes", Int(5), Int(10)))

	refs, err := db.References(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 || refs[0] != author || refs[1] != paper {
		t.Fatalf("References(writes) = %v, want [%v %v]", refs, author, paper)
	}
	// Each later call reuses the previous result as its buffer.
	refs, err = db.References(paper, refs)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 || refs[0] != conf {
		t.Fatalf("References(paper) = %v, want [%v]", refs, conf)
	}
	refs, err = db.References(conf, refs)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 0 {
		t.Fatalf("References(conf) = %v, want empty", refs)
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	db := bibSchema(t)
	titles := []string{"alpha", "beta", "gamma"}
	if _, err := db.Insert("conferences", Int(1), String("VLDB")); err != nil {
		t.Fatal(err)
	}
	for i, title := range titles {
		if _, err := db.Insert("papers", Int(int64(i)), String(title), Int(1)); err != nil {
			t.Fatal(err)
		}
	}
	papers, err := db.Table("papers")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	papers.Scan(func(tp Tuple) bool {
		got = append(got, tp.Values[1].Text())
		return len(got) < 2
	})
	if len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Scan visited %v, want [alpha beta]", got)
	}
}

func TestCheckIntegrity(t *testing.T) {
	db := bibSchema(t)
	if _, err := db.Insert("conferences", Int(1), String("VLDB")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("papers", Int(10), String("t"), Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatalf("CheckIntegrity on valid db: %v", err)
	}
}

func TestStats(t *testing.T) {
	db := bibSchema(t)
	if _, err := db.Insert("conferences", Int(1), String("VLDB")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("papers", Int(10), String("t"), Int(1)); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Tables != 4 || st.Tuples != 2 || st.PerTable["papers"] != 1 {
		t.Fatalf("Stats = %+v", st)
	}
	if s := st.String(); !strings.Contains(s, "papers=1") {
		t.Fatalf("Stats.String() = %q", s)
	}
}

func TestValueRoundTrip(t *testing.T) {
	v := Int(42)
	if got, err := v.AsInt(); err != nil || got != 42 {
		t.Fatalf("AsInt = %d, %v", got, err)
	}
	if v.Text() != "42" {
		t.Fatalf("Text = %q", v.Text())
	}
	if _, err := String("x").AsInt(); err == nil {
		t.Fatal("AsInt on string value succeeded")
	}
	if !String("a").Equal(String("a")) || String("a").Equal(Int(0)) {
		t.Fatal("Equal misbehaves across kinds")
	}
}

// Property: for any set of distinct int keys, every inserted key is
// retrievable and maps back to the tuple that holds it.
func TestLookupPKProperty(t *testing.T) {
	f := func(keys []int64) bool {
		db := NewDatabase()
		if err := db.CreateTable(Schema{
			Name:       "t",
			Columns:    []Column{{Name: "k", Kind: KindInt}},
			PrimaryKey: "k",
		}); err != nil {
			return false
		}
		seen := make(map[int64]bool)
		var inserted []int64
		for _, k := range keys {
			if seen[k] {
				continue
			}
			seen[k] = true
			if _, err := db.Insert("t", Int(k)); err != nil {
				return false
			}
			inserted = append(inserted, k)
		}
		tab, err := db.Table("t")
		if err != nil {
			return false
		}
		for _, k := range inserted {
			tp, ok := tab.LookupPK(Int(k))
			if !ok {
				return false
			}
			got, err := tp.Values[0].AsInt()
			if err != nil || got != k {
				return false
			}
		}
		return tab.Len() == len(inserted)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// String and int values with the same text (Int(7) and String("7"))
// are different primary keys: on an int-keyed table only Int(7) finds
// the row, on a string-keyed table only String("7"). Value is its own
// map key, so == must mean same kind and same content on every pair.
func TestPKKeyKindSeparation(t *testing.T) {
	for _, c := range []struct {
		kind      Kind
		hit, miss Value
	}{
		{KindInt, Int(7), String("7")},
		{KindString, String("7"), Int(7)},
	} {
		db := NewDatabase()
		if err := db.CreateTable(Schema{
			Name:       "t",
			Columns:    []Column{{Name: "k", Kind: c.kind}},
			PrimaryKey: "k",
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Insert("t", c.hit); err != nil {
			t.Fatal(err)
		}
		tab, _ := db.Table("t")
		if _, ok := tab.LookupPK(c.miss); ok {
			t.Fatalf("%s-keyed table: LookupPK(%s %q) hit", c.kind, c.miss.Kind(), c.miss.Text())
		}
		if tp, ok := tab.LookupPK(c.hit); !ok || tp.ID.Row != 0 {
			t.Fatalf("%s-keyed table: LookupPK(%s %q) = %v, %v; want row 0", c.kind, c.hit.Kind(), c.hit.Text(), tp.ID, ok)
		}
	}
	vals := []Value{{}, String(""), String("7"), String("i:7"), Int(0), Int(7), Int(-7)}
	for _, a := range vals {
		for _, b := range vals {
			same := a.Kind() == b.Kind() && a.Text() == b.Text()
			if (a == b) != same {
				t.Fatalf("%s %q == %s %q is %v, want %v", a.Kind(), a.Text(), b.Kind(), b.Text(), a == b, same)
			}
		}
	}
}

func TestAccessors(t *testing.T) {
	db := bibSchema(t)
	if _, err := db.Insert("conferences", Int(1), String("VLDB")); err != nil {
		t.Fatal(err)
	}
	names := db.TableNames()
	if len(names) != 4 || names[0] != "conferences" {
		t.Fatalf("TableNames = %v", names)
	}
	// Mutating the returned slice must not affect the database.
	names[0] = "hacked"
	if db.TableNames()[0] != "conferences" {
		t.Fatal("TableNames leaked internal slice")
	}
	id := TupleID{Table: "conferences", Row: 0}
	if id.String() != "conferences[0]" {
		t.Fatalf("TupleID.String = %q", id.String())
	}
	tp, err := db.Tuple(id)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Values[1].Text() != "VLDB" {
		t.Fatalf("Tuple values = %v", tp.Values)
	}
	if _, err := db.Tuple(TupleID{Table: "nope", Row: 0}); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := db.Tuple(TupleID{Table: "conferences", Row: 99}); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if _, err := db.Field(id, "nope"); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := db.Field(TupleID{Table: "nope", Row: 0}, "name"); err == nil {
		t.Fatal("unknown table accepted in Field")
	}
	tab, err := db.Table("conferences")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name() != "conferences" {
		t.Fatalf("Name = %q", tab.Name())
	}
	schema := tab.Schema()
	if schema.PrimaryKey != "cid" {
		t.Fatalf("Schema = %+v", schema)
	}
	if got := schema.ColumnIndex("missing"); got != -1 {
		t.Fatalf("ColumnIndex(missing) = %d", got)
	}
	for _, k := range []Kind{KindString, KindInt, Kind(9)} {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
	for _, m := range []TextMode{TextNone, TextSegmented, TextAtomic, TextMode(9)} {
		if m.String() == "" {
			t.Fatal("empty text-mode name")
		}
	}
	if _, err := db.References(TupleID{Table: "nope", Row: 0}, nil); err == nil {
		t.Fatal("References on unknown table accepted")
	}
	if _, err := db.References(TupleID{Table: "conferences", Row: 42}, nil); err == nil {
		t.Fatal("References on bad row accepted")
	}
}
