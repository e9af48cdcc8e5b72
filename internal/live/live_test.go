package live

import (
	"context"
	"reflect"
	"testing"

	"kqr/internal/packed"
	"kqr/internal/relstore"
	"kqr/internal/testcorpus"
)

// mustGen builds a default-config generation over db (a fresh manager's
// initial one; Swap and the comparisons below do not care about its
// epoch).
func mustGen(t *testing.T, db *relstore.Database) *Generation {
	t.Helper()
	m, err := NewManager(db, Config{}, Options{})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m.Current()
}

func mustManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	db, err := testcorpus.New()
	if err != nil {
		t.Fatalf("testcorpus: %v", err)
	}
	m, err := NewManager(db, Config{}, opts)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	t.Cleanup(m.Close)
	return m
}

func insertPaper(pid int64, title string, cid int64) Delta {
	return Delta{Op: OpInsert, Table: "papers", Values: []relstore.Value{
		relstore.Int(pid), relstore.String(title), relstore.Int(cid),
	}}
}

func TestBuildWiresGeneration(t *testing.T) {
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	g := mustGen(t, db)
	for name, ok := range map[string]bool{
		"DB": g.DB != nil, "TG": g.TG != nil, "Sim": g.Sim != nil,
		"Clos": g.Clos != nil, "Core": g.Core != nil, "Searcher": g.Searcher != nil,
	} {
		if !ok {
			t.Errorf("Build left %s nil", name)
		}
	}
	if g.TG.NumTermNodes() == 0 {
		t.Error("no term nodes")
	}
}

func TestValidateDelta(t *testing.T) {
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		d    Delta
		ok   bool
	}{
		{"good insert", insertPaper(100, "stream processing", 1), true},
		{"good delete", Delta{Op: OpDelete, Table: "papers", Key: relstore.Int(1)}, true},
		{"unknown table", Delta{Op: OpInsert, Table: "nope", Values: []relstore.Value{relstore.Int(1)}}, false},
		{"arity", Delta{Op: OpInsert, Table: "papers", Values: []relstore.Value{relstore.Int(1)}}, false},
		{"kind mismatch", Delta{Op: OpInsert, Table: "papers", Values: []relstore.Value{
			relstore.String("x"), relstore.String("t"), relstore.Int(1)}}, false},
		{"delete keyless table", Delta{Op: OpDelete, Table: "writes", Key: relstore.Int(1)}, false},
		{"delete wrong key kind", Delta{Op: OpDelete, Table: "papers", Key: relstore.String("1")}, false},
	}
	for _, c := range cases {
		err := validateDelta(db, c.d)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestApplyDeltasInsert(t *testing.T) {
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	before := db.Stats().Tuples
	next, cascades, err := applyDeltas(db, []Delta{insertPaper(100, "stream processing engines", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if got := next.Stats().Tuples; got != before+1 || cascades != 0 {
		t.Errorf("tuples = %d (want %d), cascades = %d", got, before+1, cascades)
	}
	if db.Stats().Tuples != before {
		t.Error("base database was mutated")
	}
	tbl, err := next.Table("papers")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.LookupPK(relstore.Int(100)); !ok {
		t.Error("inserted paper not found by PK")
	}
}

func TestApplyDeltasDeleteCascades(t *testing.T) {
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	// Paper pid=1 has one writes row (Alice). Deleting the paper must
	// cascade to that row.
	next, cascades, err := applyDeltas(db, []Delta{{Op: OpDelete, Table: "papers", Key: relstore.Int(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if gone := db.Stats().Tuples - next.Stats().Tuples; gone != 2 {
		t.Fatalf("deleted %d tuples, want 2 (paper + writes row)", gone)
	}
	if cascades != 1 {
		t.Errorf("cascades = %d, want 1", cascades)
	}
	tbl, err := next.Table("papers")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.LookupPK(relstore.Int(1)); ok {
		t.Error("deleted paper still present")
	}
	if err := next.CheckIntegrity(); err != nil {
		t.Errorf("integrity after cascade: %v", err)
	}
}

func TestApplyDeltasConferenceCascadesThroughPapers(t *testing.T) {
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	// NETCONF (cid=3) has 2 papers and 3 writes rows; the cascade must
	// chain conference -> papers -> writes.
	next, cascades, err := applyDeltas(db, []Delta{{Op: OpDelete, Table: "conferences", Key: relstore.Int(3)}})
	if err != nil {
		t.Fatal(err)
	}
	if gone := db.Stats().Tuples - next.Stats().Tuples; gone != 6 {
		t.Fatalf("deleted %d tuples, want 6 (conf + 2 papers + 3 writes)", gone)
	}
	if cascades != 5 {
		t.Errorf("cascades = %d, want 5", cascades)
	}
	if err := next.CheckIntegrity(); err != nil {
		t.Errorf("integrity: %v", err)
	}
}

func TestApplyDeltasInsertThenDeleteSameBatch(t *testing.T) {
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	before := db.Stats().Tuples
	next, _, err := applyDeltas(db, []Delta{
		insertPaper(100, "ephemeral paper", 1),
		{Op: OpDelete, Table: "papers", Key: relstore.Int(100)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := next.Stats().Tuples; got != before {
		t.Errorf("tuples = %d, want %d (insert+delete should cancel)", got, before)
	}
}

func TestApplyDeltasInsertReferencingSameBatch(t *testing.T) {
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	next, _, err := applyDeltas(db, []Delta{
		{Op: OpInsert, Table: "conferences", Values: []relstore.Value{relstore.Int(50), relstore.String("KDD")}},
		insertPaper(100, "frequent pattern mining", 50),
	})
	if err != nil {
		t.Fatalf("insert referencing same-batch row: %v", err)
	}
	if got := next.Stats().Tuples; got != db.Stats().Tuples+2 {
		t.Errorf("tuples = %d, want %d", got, db.Stats().Tuples+2)
	}
}

func TestPromoteInsertMakesTermsQueryable(t *testing.T) {
	m := mustManager(t, Options{})
	if err := m.Ingest([]Delta{insertPaper(100, "blockchain consensus protocols", 1)}); err != nil {
		t.Fatal(err)
	}
	g, err := m.Promote(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if g.Provenance.Epoch != 2 {
		t.Errorf("epoch = %d, want 2", g.Provenance.Epoch)
	}
	if len(g.TG.FindTerm("blockchain")) == 0 {
		t.Error("new term not in promoted vocabulary")
	}
	if len(m.Current().TG.FindTerm("blockchain")) == 0 {
		t.Error("Current() does not serve the promoted generation")
	}
	p := g.Provenance
	if p.Inserts != 1 || p.Deletes != 0 {
		t.Errorf("provenance counts: %+v", p)
	}
	if p.Mode != "full" || p.TotalTerms != g.TG.NumTermNodes() {
		t.Errorf("provenance mode %q, total terms %d", p.Mode, p.TotalTerms)
	}
}

func TestPromoteDeleteRemovesTerms(t *testing.T) {
	m := mustManager(t, Options{})
	// "routing" appears only in the two NETCONF papers (pids 10, 11).
	if err := m.Ingest([]Delta{
		{Op: OpDelete, Table: "papers", Key: relstore.Int(10)},
		{Op: OpDelete, Table: "papers", Key: relstore.Int(11)},
	}); err != nil {
		t.Fatal(err)
	}
	g, err := m.Promote(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.TG.FindTerm("routing")) != 0 {
		t.Error("deleted papers' term still in vocabulary")
	}
	if g.Provenance.CascadeDeletes == 0 {
		t.Error("expected cascade deletes for writes rows")
	}
}

func TestPromoteEmptyPendingIsNoop(t *testing.T) {
	m := mustManager(t, Options{})
	before := m.Current()
	g, err := m.Promote(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if g != before {
		t.Error("empty promote replaced the generation")
	}
	if g.Provenance.Epoch != 1 {
		t.Errorf("epoch = %d, want 1", g.Provenance.Epoch)
	}
}

func TestPromoteFailureRestoresPending(t *testing.T) {
	m := mustManager(t, Options{})
	// Valid schema-wise, but the FK target conference does not exist, so
	// applyDeltas fails at insert time.
	if err := m.Ingest([]Delta{insertPaper(100, "orphan paper", 999)}); err != nil {
		t.Fatalf("ingest should pass schema validation: %v", err)
	}
	if _, err := m.Promote(context.Background()); err == nil {
		t.Fatal("expected promote to fail on dangling FK")
	}
	if m.Pending() != 1 {
		t.Errorf("pending = %d, want 1 (restored after failure)", m.Pending())
	}
	if m.Epoch() != 1 {
		t.Errorf("epoch advanced to %d on failed promote", m.Epoch())
	}
}

// warm runs the full offline stage on g.
func warm(t *testing.T, g *Generation) {
	t.Helper()
	if _, _, err := g.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// rowCount is how many rows a store's published table holds, 0 while
// the store is lazy.
func rowCount(s interface{ Rows() *packed.Rows }) int {
	if r := s.Rows(); r != nil {
		return len(r.Src)
	}
	return 0
}

// After Promote every vocabulary term's similarity AND closeness row
// must be bit-equal to a fresh Build over the same corpus: one rebuild
// mode, no approximation.
func TestPromoteMatchesFreshBuildBitForBit(t *testing.T) {
	m := mustManager(t, Options{})
	warm(t, m.Current())
	if err := m.Ingest([]Delta{
		insertPaper(100, "probabilistic stream mining", 1),
		{Op: OpDelete, Table: "papers", Key: relstore.Int(10)},
	}); err != nil {
		t.Fatal(err)
	}
	g, err := m.Promote(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rowCount(g.Sim) != g.TG.NumTermNodes() || g.Provenance.Precompute == 0 {
		t.Fatalf("warmed predecessor but %d of %d rows resident, precompute %v",
			rowCount(g.Sim), g.TG.NumTermNodes(), g.Provenance.Precompute)
	}

	fresh := mustGen(t, g.DB)
	for _, v := range g.TG.TermNodeIDs() {
		gn, gs, err := g.Sim.AppendRow(v, nil, nil)
		fn, fs, ferr := fresh.Sim.AppendRow(v, nil, nil)
		if err != nil || ferr != nil || !reflect.DeepEqual(gn, fn) || !reflect.DeepEqual(gs, fs) {
			t.Fatalf("node %d (%s): promoted similarity row differs from a fresh build",
				v, g.TG.DisplayLabel(v))
		}
		gn, gs, _ = g.Clos.AppendRow(v, nil, nil)
		fn, fs, _ = fresh.Clos.AppendRow(v, nil, nil)
		if !reflect.DeepEqual(gn, fn) || !reflect.DeepEqual(gs, fs) {
			t.Fatalf("node %d (%s): promoted closeness row differs from a fresh build",
				v, g.TG.DisplayLabel(v))
		}
	}
}

// noRows is a published table that serves nothing — a disk attach as far
// as the store's state goes: complete, with every row computed on read.
func noRows() *packed.Table { return packed.NewTable(packed.NewIndex(0, nil), nil) }

// Promotion keeps the predecessor's state: it precomputes and packs the
// successor exactly when the old generation is complete (warmed, or
// its tables published by a restore or disk attach); a never-touched
// or lazily touched predecessor's successor stays lazy, with no
// precompute.
func TestPromoteWarmsOnlyAfterWarmPredecessor(t *testing.T) {
	for _, tc := range []struct {
		name     string
		prepare  func(*Generation)
		wantWarm bool
	}{
		{"never warmed", func(*Generation) {}, false},
		{"disk attached", func(g *Generation) { g.Sim.Install(noRows()); g.Clos.Install(noRows()) }, true},
		{"one lazy row", func(g *Generation) { g.Sim.AppendRow(g.TG.TermNodeIDs()[0], nil, nil) }, false},
		{"warmed", func(g *Generation) { warm(t, g) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := mustManager(t, Options{})
			tc.prepare(m.Current())
			if err := m.Ingest([]Delta{insertPaper(100, "quantum error correction", 2)}); err != nil {
				t.Fatal(err)
			}
			g, err := m.Promote(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if g.Provenance.Mode != "full" {
				t.Errorf("mode = %q, want full", g.Provenance.Mode)
			}
			want := 0
			if tc.wantWarm {
				want = g.TG.NumTermNodes()
			}
			if got := rowCount(g.Sim); got != want {
				t.Errorf("%d similarity rows published after promote, want %d", got, want)
			}
			if got := rowCount(g.Clos); got != want {
				t.Errorf("%d closeness rows published after promote, want %d", got, want)
			}
			if warmed := g.Provenance.Precompute > 0; warmed != tc.wantWarm {
				t.Errorf("promotion precompute took %v, want it to run: %v", g.Provenance.Precompute, tc.wantWarm)
			}
		})
	}
}

func TestSwapAssignsReloadEpoch(t *testing.T) {
	m := mustManager(t, Options{})
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	old, err := m.Swap(mustGen(t, db))
	if err != nil {
		t.Fatal(err)
	}
	if old.Provenance.Epoch != 1 {
		t.Errorf("retired epoch = %d, want 1", old.Provenance.Epoch)
	}
	g := m.Current()
	if g.Provenance.Epoch != 2 || g.Provenance.Mode != "reload" {
		t.Errorf("swapped generation epoch=%d mode=%q", g.Provenance.Epoch, g.Provenance.Mode)
	}
}

func TestIngestRejectsBadDelta(t *testing.T) {
	m := mustManager(t, Options{})
	err := m.Ingest([]Delta{{Op: OpInsert, Table: "nope", Values: []relstore.Value{relstore.Int(1)}}})
	if err == nil {
		t.Fatal("expected validation error")
	}
	if m.Pending() != 0 {
		t.Error("rejected batch was staged")
	}
}

func TestCloseRejectsIngest(t *testing.T) {
	m := mustManager(t, Options{})
	m.Close()
	if err := m.Ingest([]Delta{insertPaper(100, "x y", 1)}); err == nil {
		t.Error("ingest after Close should fail")
	}
	if _, err := m.Promote(context.Background()); err == nil {
		t.Error("promote after Close should fail")
	}
}
