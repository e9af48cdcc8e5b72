package kqr_test

import (
	"strings"
	"sync"
	"testing"

	"kqr"
	"kqr/synthetic"
)

func TestFacets(t *testing.T) {
	ds := bibliographyDataset(t)
	eng, err := kqr.Open(ds, kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	facets, err := eng.Facets([]string{"probabilistic"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(facets) == 0 {
		t.Fatal("no facets")
	}
	seen := map[string]bool{}
	for _, f := range facets {
		if seen[f.Field] {
			t.Fatalf("field %q appears twice", f.Field)
		}
		seen[f.Field] = true
		if len(f.Terms) == 0 || len(f.Terms) > 4 {
			t.Fatalf("facet %q has %d terms", f.Field, len(f.Terms))
		}
		for i, rt := range f.Terms {
			if rt.Field != f.Field {
				t.Fatalf("term field %q inside facet %q", rt.Field, f.Field)
			}
			if rt.Term == "probabilistic" {
				t.Fatal("query term leaked into its own facets")
			}
			if i > 0 && rt.Score > f.Terms[i-1].Score {
				t.Fatal("facet terms not descending")
			}
		}
	}
	// The conference facet for a topic word must surface its venue.
	if !seen["conferences.name"] {
		t.Fatalf("no conference facet in %v", facets)
	}
	for _, f := range facets {
		if f.Field == "conferences.name" && f.Terms[0].Term != "vldb" {
			t.Fatalf("conference facet leads with %q, want vldb", f.Terms[0].Term)
		}
	}
	if _, err := eng.Facets([]string{"missing-term"}, 3); err == nil {
		t.Fatal("unknown term accepted")
	}
}

// The engine must be safe for concurrent readers: caches in the
// similarity extractor and closeness store are hit from many goroutines.
// Run with -race to make this meaningful.
func TestConcurrentReformulation(t *testing.T) {
	corpus, err := synthetic.Bibliography(synthetic.Config{Seed: 5, Topics: 4, Confs: 8, Authors: 60, Papers: 400})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kqr.Open(corpus.Dataset, kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	terms := corpus.TopicTerms(0)
	if len(terms) < 4 {
		t.Fatal("topic too small")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				term := terms[(g+i)%len(terms)]
				if _, err := eng.Reformulate([]string{term}, 5); err != nil {
					errs <- err
					return
				}
				if _, err := eng.SimilarTerms(term, 5); err != nil {
					errs <- err
					return
				}
				if _, _, err := eng.Search([]string{term}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// phraseDataset is a four-paper corpus whose titles repeat two
// adjacent-word pairs, "association rules" and "frequent itemset": with
// Options.Phrases each becomes a term beside its words.
func phraseDataset(t *testing.T) *kqr.Dataset {
	t.Helper()
	ds, err := kqr.NewDataset(
		kqr.Table{
			Name: "papers",
			Columns: []kqr.Column{
				{Name: "pid", Type: kqr.TypeInt},
				{Name: "title", Type: kqr.TypeString, Text: kqr.TextSegmented},
			},
			PrimaryKey: "pid",
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	// The two phrase families share the word "discovery", giving the
	// walk a bridge between them.
	titles := []string{
		"association rules mining discovery",
		"association rules pruning discovery",
		"frequent itemset lattice discovery",
		"frequent itemset counting discovery",
	}
	for i, title := range titles {
		if err := ds.Insert("papers", i+1, title); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestPhraseOption(t *testing.T) {
	eng, err := kqr.Open(phraseDataset(t), kqr.Options{Phrases: true})
	if err != nil {
		t.Fatal(err)
	}
	// The recurring phrases are first-class query terms.
	sims, err := eng.SimilarTerms("association rules", 8)
	if err != nil {
		t.Fatal(err)
	}
	foundPhrase := false
	for _, rt := range sims {
		if rt.Term == "frequent itemset" {
			foundPhrase = true
		}
	}
	if !foundPhrase {
		t.Fatalf("phrase-to-phrase similarity missing: %+v", sims)
	}
	// Quoted phrases parse and reformulate.
	sugs, err := eng.ReformulateQuery(`"association rules"`, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sugs) == 0 {
		t.Fatal("no suggestions for phrase query")
	}
}

func TestInsertTSV(t *testing.T) {
	ds, err := kqr.NewDataset(
		kqr.Table{
			Name: "papers",
			Columns: []kqr.Column{
				{Name: "pid", Type: kqr.TypeInt},
				{Name: "title", Type: kqr.TypeString, Text: kqr.TextSegmented},
			},
			PrimaryKey: "pid",
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	tsv := "1\tprobabilistic query evaluation\n\n2\tuncertain data management\n"
	n, err := ds.InsertTSV("papers", strings.NewReader(tsv))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("inserted %d rows, want 2", n)
	}
	if !strings.Contains(ds.Stats(), "papers=2") {
		t.Fatalf("stats = %q", ds.Stats())
	}
	// Errors carry line numbers and stop the load.
	_, err = ds.InsertTSV("papers", strings.NewReader("3\tok title\nnotanumber\tbad\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 parse error", err)
	}
	if _, err := ds.InsertTSV("papers", strings.NewReader("9\n")); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if _, err := ds.InsertTSV("missing", strings.NewReader("")); err == nil {
		t.Fatal("unknown table accepted")
	}
	// The loaded rows work end to end.
	eng, err := kqr.Open(ds, kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SimilarTerms("probabilistic", 3); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetFreezesOnOpen(t *testing.T) {
	ds := bibliographyDataset(t)
	if _, err := kqr.Open(ds, kqr.Options{}); err != nil {
		t.Fatal(err)
	}
	err := ds.Insert("conferences", 99, "LateConf")
	if err == nil || !strings.Contains(err.Error(), "frozen") {
		t.Fatalf("insert after Open: %v, want frozen error", err)
	}
	// InsertTSV goes through the same guard.
	if _, err := ds.InsertTSV("conferences", strings.NewReader("98\tX\n")); err == nil {
		t.Fatal("TSV insert after Open accepted")
	}
}

func TestExplain(t *testing.T) {
	ds := bibliographyDataset(t)
	eng, err := kqr.Open(ds, kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	query := []string{"uncertain", "data"}
	sugs, err := eng.Reformulate(query, 5)
	if err != nil {
		t.Fatal(err)
	}
	var full []string
	for _, s := range sugs {
		if len(s.Terms) == len(query) {
			full = s.Terms
			break
		}
	}
	if full == nil {
		t.Fatal("no full-length suggestion to explain")
	}
	exps, err := eng.Explain(query, full)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 2 {
		t.Fatalf("explanations = %d", len(exps))
	}
	if exps[0].PrevCloseness != 0 {
		t.Fatalf("slot 0 has previous closeness %v", exps[0].PrevCloseness)
	}
	for i, ex := range exps {
		if ex.Original != query[i] || ex.Substitute != full[i] {
			t.Fatalf("slot %d misaligned: %+v", i, ex)
		}
		if ex.Sim < 0 || ex.Sim > 1 {
			t.Fatalf("slot %d sim %v", i, ex.Sim)
		}
		if ex.Original == ex.Substitute && ex.Sim != 1 {
			t.Fatalf("identity slot sim %v", ex.Sim)
		}
	}
	// A top suggestion's pair must be cohesive.
	if exps[1].PrevCloseness <= 0 {
		t.Fatalf("top suggestion pair has zero closeness: %+v", exps)
	}
	if _, err := eng.Explain(query, []string{"onlyone"}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := eng.Explain(nil, nil); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestSyntheticCatalog(t *testing.T) {
	c, err := synthetic.Catalog(synthetic.CatalogConfig{Seed: 2, Products: 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.BrandNames) == 0 || len(c.CatNames) == 0 {
		t.Fatal("missing entity names")
	}
	pairs := c.SynonymPairs()
	if len(pairs) == 0 {
		t.Fatal("no planted pairs")
	}
	if !c.Related("wireless", "bluetooth") {
		t.Fatal("ground truth lost through wrapper")
	}
	eng, err := kqr.Open(c.Dataset, kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sugs, err := eng.Reformulate([]string{"wireless", "headphones"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sugs) == 0 {
		t.Fatal("no suggestions on catalog")
	}
}

func TestFoldPluralsOption(t *testing.T) {
	ds, err := kqr.NewDataset(kqr.Table{
		Name: "papers",
		Columns: []kqr.Column{
			{Name: "pid", Type: kqr.TypeInt},
			{Name: "title", Type: kqr.TypeString, Text: kqr.TextSegmented},
		},
		PrimaryKey: "pid",
	})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(ds.Insert("papers", 1, "ranking queries evaluation"))
	must(ds.Insert("papers", 2, "ranking query answering"))
	eng, err := kqr.Open(ds, kqr.Options{FoldPlurals: true})
	if err != nil {
		t.Fatal(err)
	}
	// Both "queries" and "query" resolve to the folded node with freq 2.
	_, total, err := eng.Search([]string{"queries"})
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 {
		t.Fatalf("folded search found %d, want 2", total)
	}
	// Without folding, only the literal match.
	plainDS, err := kqr.NewDataset(kqr.Table{
		Name: "papers",
		Columns: []kqr.Column{
			{Name: "pid", Type: kqr.TypeInt},
			{Name: "title", Type: kqr.TypeString, Text: kqr.TextSegmented},
		},
		PrimaryKey: "pid",
	})
	if err != nil {
		t.Fatal(err)
	}
	must(plainDS.Insert("papers", 1, "ranking queries evaluation"))
	must(plainDS.Insert("papers", 2, "ranking query answering"))
	plain, err := kqr.Open(plainDS, kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, total, _ := plain.Search([]string{"queries"}); total != 1 {
		t.Fatalf("unfolded search found %d, want 1", total)
	}
}

func TestSegmentQuery(t *testing.T) {
	ds := bibliographyDataset(t)
	eng, err := kqr.Open(ds, kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		in   string
		want []string
	}{
		// Author name resolves without quotes.
		{"alice ames probabilistic", []string{"alice ames", "probabilistic"}},
		// Quoted spans are honored as-is.
		{`"alice ames" data`, []string{"alice ames", "data"}},
		// Unknown words stay single terms.
		{"zebra uncertain", []string{"zebra", "uncertain"}},
		// Plain topical words untouched.
		{"uncertain data", []string{"uncertain", "data"}},
	}
	for _, c := range cases {
		got, err := eng.SegmentQuery(c.in)
		if err != nil {
			t.Fatalf("SegmentQuery(%q): %v", c.in, err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("SegmentQuery(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("SegmentQuery(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
	if _, err := eng.SegmentQuery(""); err == nil {
		t.Fatal("empty query accepted")
	}
	// The convenience wrapper reformulates the segmented query.
	sugs, err := eng.ReformulateSegmented("alice ames probabilistic", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sugs) == 0 {
		t.Fatal("no suggestions from segmented query")
	}
}
