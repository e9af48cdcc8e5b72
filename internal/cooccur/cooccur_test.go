package cooccur

import (
	"testing"

	"kqr/internal/graph"
	"kqr/internal/tatgraph"
	"kqr/internal/testcorpus"
)

func fixture(t *testing.T) (*tatgraph.Graph, *Extractor) {
	t.Helper()
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	tg, err := tatgraph.Build(db, tatgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tg, NewExtractor(tg)
}

func node(t *testing.T, tg *tatgraph.Graph, field, text string) graph.NodeID {
	t.Helper()
	v, ok := tg.TermNode(field, text)
	if !ok {
		t.Fatalf("missing term %s:%s", field, text)
	}
	return v
}

func rankOf(tg *tatgraph.Graph, list []graph.Scored, text string) int {
	for i, sn := range list {
		if tg.TermText(sn.Node) == text {
			return i
		}
	}
	return -1
}

func TestFindsDirectCooccurrences(t *testing.T) {
	tg, ex := fixture(t)
	u := node(t, tg, "papers.title", "uncertain")
	list, err := ex.SimilarNodes(u, 10)
	if err != nil {
		t.Fatal(err)
	}
	// "uncertain" co-occurs with data, management, query, answering.
	for _, want := range []string{"data", "management", "query", "answering"} {
		if rankOf(tg, list, want) < 0 {
			t.Fatalf("co-occurring term %q missing from %d results", want, len(list))
		}
	}
}

// The defining blindness of the baseline: planted synonyms never
// co-occur, so co-occurrence similarity cannot see them. This is the
// contrast the paper's Table II and Fig. 5 build on.
func TestMissesPlantedSynonym(t *testing.T) {
	tg, ex := fixture(t)
	u := node(t, tg, "papers.title", "uncertain")
	list, err := ex.SimilarNodes(u, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p := rankOf(tg, list, "probabilistic"); p >= 0 {
		t.Fatalf("co-occurrence found the never-co-occurring synonym at rank %d", p)
	}
	if s, _ := ex.Sim(u, node(t, tg, "papers.title", "probabilistic")); s != 0 {
		t.Fatalf("Sim(uncertain, probabilistic) = %v, want 0", s)
	}
}

func TestSameClassOnly(t *testing.T) {
	tg, ex := fixture(t)
	u := node(t, tg, "papers.title", "uncertain")
	list, err := ex.SimilarNodes(u, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, sn := range list {
		if !tg.SameClass(sn.Node, u) {
			t.Fatalf("cross-class node %s leaked", tg.DisplayLabel(sn.Node))
		}
		if sn.Node == u {
			t.Fatal("self returned")
		}
	}
}

func TestNormalizationAndOrder(t *testing.T) {
	tg, ex := fixture(t)
	u := node(t, tg, "papers.title", "xml")
	list, err := ex.SimilarNodes(u, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 || list[0].Score != 1 {
		t.Fatalf("top score = %v, want 1", list[0].Score)
	}
	for i := 1; i < len(list); i++ {
		if list[i].Score > list[i-1].Score {
			t.Fatal("not descending")
		}
	}
}

func TestTupleClassCooccurrence(t *testing.T) {
	tg, ex := fixture(t)
	// Two papers at the same conference share a neighbor → similar
	// under the degenerate tuple-class co-occurrence.
	papers, err := tg.DB().Table("papers")
	if err != nil {
		t.Fatal(err)
	}
	p0, err := papers.Tuple(0)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := tg.TupleNode(p0.ID)
	if !ok {
		t.Fatal("missing tuple node")
	}
	list, err := ex.SimilarNodes(v, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 {
		t.Fatal("no similar tuples found")
	}
	for _, sn := range list {
		if tg.Class(sn.Node) != "papers" {
			t.Fatalf("non-paper %s in paper similarity list", tg.DisplayLabel(sn.Node))
		}
	}
}

func TestCacheStability(t *testing.T) {
	tg, ex := fixture(t)
	u := node(t, tg, "papers.title", "uncertain")
	a, err := ex.SimilarNodes(u, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ex.SimilarNodes(u, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("length changed between calls")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result differs at %d", i)
		}
	}
}

func TestSimIdentity(t *testing.T) {
	tg, ex := fixture(t)
	u := node(t, tg, "papers.title", "uncertain")
	if s, err := ex.Sim(u, u); err != nil || s != 1 {
		t.Fatalf("Sim(self) = %v, %v", s, err)
	}
}
