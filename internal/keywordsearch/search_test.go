package keywordsearch

import (
	"testing"

	"kqr/internal/tatgraph"
	"kqr/internal/testcorpus"
)

func fixtureSearcher(t *testing.T, opts Options) (*tatgraph.Graph, *Searcher) {
	t.Helper()
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	tg, err := tatgraph.Build(db, tatgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(tg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tg, s
}

func TestOptionsValidation(t *testing.T) {
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	tg, err := tatgraph.Build(db, tatgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(tg, Options{MaxResults: -1}); err == nil {
		t.Fatal("negative MaxResults accepted")
	}
	if _, err := New(tg, Options{MaxRadius: -1}); err == nil {
		t.Fatal("negative MaxRadius accepted")
	}
}

func TestSingleKeyword(t *testing.T) {
	_, s := fixtureSearcher(t, Options{})
	res, total, err := s.Search([]string{"uncertain"})
	if err != nil {
		t.Fatal(err)
	}
	// "uncertain" occurs in two paper titles.
	if total != 2 || len(res) != 2 {
		t.Fatalf("total=%d len=%d, want 2", total, len(res))
	}
	for _, r := range res {
		if r.Cost != 0 {
			t.Fatalf("single-keyword result has cost %d", r.Cost)
		}
		if r.Root.Table != "papers" {
			t.Fatalf("root in table %q", r.Root.Table)
		}
		if len(r.Tuples) != 1 {
			t.Fatalf("single-keyword tree has %d tuples", len(r.Tuples))
		}
	}
}

func TestTwoKeywordsSameTuple(t *testing.T) {
	_, s := fixtureSearcher(t, Options{})
	res, total, err := s.Search([]string{"uncertain", "data"})
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("no results")
	}
	// Cheapest result: the tuple "uncertain data management" itself.
	if res[0].Cost != 0 {
		t.Fatalf("best cost = %d, want 0 (both words in one title)", res[0].Cost)
	}
}

func TestJoinAcrossTables(t *testing.T) {
	tg, s := fixtureSearcher(t, Options{})
	// "alice ames" (author) + "probabilistic" (title) connect through
	// the collapsed authorship edge: author — paper.
	res, total, err := s.Search([]string{"alice ames", "probabilistic"})
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("no join results")
	}
	best := res[0]
	if best.Cost == 0 {
		t.Fatal("author and title word cannot be in the same tuple")
	}
	// The tree must span paper + author.
	if len(best.Tuples) != 2 {
		t.Fatalf("join tree has %d tuples: %v", len(best.Tuples), best.Tuples)
	}
	tables := map[string]bool{}
	for _, id := range best.Tuples {
		tables[id.Table] = true
	}
	if !tables["papers"] || !tables["authors"] {
		t.Fatalf("join tree spans %v", tables)
	}
	_ = tg
}

func TestDisconnectedKeywordsNoResults(t *testing.T) {
	_, s := fixtureSearcher(t, Options{})
	// Networks community is disconnected from the database community.
	_, total, err := s.Search([]string{"uncertain", "routing"})
	if err != nil {
		t.Fatal(err)
	}
	if total != 0 {
		t.Fatalf("found %d results across disconnected communities", total)
	}
}

func TestUnknownKeyword(t *testing.T) {
	_, s := fixtureSearcher(t, Options{})
	res, total, err := s.Search([]string{"zebra", "uncertain"})
	if err != nil {
		t.Fatal(err)
	}
	if total != 0 || len(res) != 0 {
		t.Fatalf("unknown keyword produced %d results", total)
	}
}

func TestEmptyQuery(t *testing.T) {
	_, s := fixtureSearcher(t, Options{})
	if _, _, err := s.Search(nil); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestMaxResultsCap(t *testing.T) {
	_, s := fixtureSearcher(t, Options{MaxResults: 1})
	res, total, err := s.Search([]string{"indexing"})
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 {
		t.Fatalf("total = %d, want 2 (cap must not hide the count)", total)
	}
	if len(res) != 1 {
		t.Fatalf("len = %d, want capped 1", len(res))
	}
}

func TestMaxRadiusLimits(t *testing.T) {
	// Author ↔ title word requires 2 hops from the paper side and 0
	// from... root at writes: dist(author side)=1, dist(paper)=1. With
	// radius 0 only same-tuple matches connect.
	_, s := fixtureSearcher(t, Options{MaxRadius: 1})
	_, totalNear, err := s.Search([]string{"alice ames", "probabilistic"})
	if err != nil {
		t.Fatal(err)
	}
	if totalNear == 0 {
		t.Fatal("radius 1 should already connect author and title via writes root")
	}
	_, sWide := fixtureSearcher(t, Options{MaxRadius: 3})
	_, totalWide, err := sWide.Search([]string{"alice ames", "probabilistic"})
	if err != nil {
		t.Fatal(err)
	}
	if totalWide < totalNear {
		t.Fatalf("wider radius found fewer roots: %d < %d", totalWide, totalNear)
	}
}

func TestResultsOrderedByCost(t *testing.T) {
	_, s := fixtureSearcher(t, Options{})
	res, _, err := s.Search([]string{"xml", "indexing"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Cost < res[i-1].Cost {
			t.Fatal("results not ordered by cost")
		}
	}
}

func TestResultSize(t *testing.T) {
	_, s := fixtureSearcher(t, Options{})
	n, err := s.ResultSize([]string{"uncertain"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("ResultSize = %d, want 2", n)
	}
}

func TestDeterminism(t *testing.T) {
	_, s := fixtureSearcher(t, Options{})
	a, _, err := s.Search([]string{"xml", "indexing"})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := s.Search([]string{"xml", "indexing"})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("nondeterministic result count")
	}
	for i := range a {
		if a[i].Root != b[i].Root || a[i].Cost != b[i].Cost {
			t.Fatalf("nondeterministic result %d", i)
		}
	}
}
