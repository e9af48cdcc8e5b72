package closeness

import (
	"context"
	"math"
	"reflect"
	"testing"

	"kqr/internal/graph"
	"kqr/internal/relstore"
	"kqr/internal/tatgraph"
	"kqr/internal/testcorpus"
)

func fixtureStore(t *testing.T, opts Options) (*tatgraph.Graph, *Store) {
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

func term(t *testing.T, tg *tatgraph.Graph, field, text string) graph.NodeID {
	t.Helper()
	v, ok := tg.TermNode(field, text)
	if !ok {
		t.Fatalf("missing term %s:%s", field, text)
	}
	return v
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
	if _, err := New(tg, Options{MaxLen: -1}); err == nil {
		t.Fatal("negative MaxLen accepted")
	}
	if _, err := New(tg, Options{Beam: -1}); err == nil {
		t.Fatal("negative Beam accepted")
	}
}

func TestClosOnSharedTuples(t *testing.T) {
	tg, s := fixtureStore(t, Options{})
	// "uncertain" and "data" co-occur in exactly one title
	// ("uncertain data management"): one path of length 2 → clos = 0.5.
	u := term(t, tg, "papers.title", "uncertain")
	d := term(t, tg, "papers.title", "data")
	got := s.Clos(u, d)
	if got <= 0 {
		t.Fatalf("clos(uncertain, data) = %v, want > 0 (one shared tuple)", got)
	}
	// "probabilistic" and "data" share one title too.
	p := term(t, tg, "papers.title", "probabilistic")
	if s.Clos(p, d) <= 0 {
		t.Fatalf("clos(probabilistic, data) = %v", s.Clos(p, d))
	}
}

func TestClosMultiplePathsBeatSingle(t *testing.T) {
	// Purpose-built corpus: "alpha" and "beta" share two titles,
	// "alpha" and "gamma" share one. More shortest paths at the same
	// distance must yield higher closeness (Eq. 3).
	db := relstore.NewDatabase()
	if err := testcorpus.BibSchema(db); err != nil {
		t.Fatal(err)
	}
	papers := []testcorpus.Paper{
		{Title: "alpha beta", Conf: "C1", Authors: []string{"A1"}},
		{Title: "alpha beta methods", Conf: "C1", Authors: []string{"A1"}},
		{Title: "alpha gamma", Conf: "C1", Authors: []string{"A1"}},
	}
	if err := testcorpus.Load(db, papers); err != nil {
		t.Fatal(err)
	}
	tg, err := tatgraph.Build(db, tatgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(tg, Options{MaxLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	alpha := term(t, tg, "papers.title", "alpha")
	beta := term(t, tg, "papers.title", "beta")
	gamma := term(t, tg, "papers.title", "gamma")
	two := s.Clos(alpha, beta)
	one := s.Clos(alpha, gamma)
	if two <= one || one <= 0 {
		t.Fatalf("clos(alpha,beta)=%v should exceed clos(alpha,gamma)=%v > 0", two, one)
	}
}

// Indirect context paths accumulate: the planted synonyms, 4 hops apart,
// still get positive closeness through their many shared-context routes —
// but with probability-weighted paths, direct co-occurrence at distance 2
// stays closer than any 4-hop relation.
func TestClosIndirectAccumulates(t *testing.T) {
	tg, s := fixtureStore(t, Options{})
	u := term(t, tg, "papers.title", "uncertain")
	p := term(t, tg, "papers.title", "probabilistic")
	d := term(t, tg, "papers.title", "data")
	indirect := s.Clos(u, p)
	if indirect <= 0 {
		t.Fatalf("clos(uncertain, probabilistic) = %v, want > 0 within MaxLen 4", indirect)
	}
	if direct := s.Clos(u, d); direct <= indirect {
		t.Fatalf("direct co-occurrence clos=%v should exceed 4-hop clos=%v", direct, indirect)
	}
}

func TestClosIdentityAndUnreachable(t *testing.T) {
	tg, s := fixtureStore(t, Options{})
	u := term(t, tg, "papers.title", "uncertain")
	if got := s.Clos(u, u); got != 0 {
		t.Fatalf("Clos(self) = %v, want 0", got)
	}
	r := term(t, tg, "papers.title", "routing")
	if got := s.Clos(u, r); got != 0 {
		t.Fatalf("Clos across disconnected communities = %v, want 0", got)
	}
}

func TestMaxLenBounds(t *testing.T) {
	tg, sShort := fixtureStore(t, Options{MaxLen: 2})
	u := term(t, tg, "papers.title", "uncertain")
	p := term(t, tg, "papers.title", "probabilistic")
	// Planted synonyms are 4 hops apart; MaxLen 2 must not reach.
	if got := sShort.Clos(u, p); got != 0 {
		t.Fatalf("MaxLen 2 reached distance-4 node: %v", got)
	}
	_, sLong := fixtureStore(t, Options{MaxLen: 4})
	if got := sLong.Clos(u, p); got <= 0 {
		t.Fatalf("MaxLen 4 missed distance-4 node")
	}
}

func TestSymmetryWithoutBeam(t *testing.T) {
	tg, s := fixtureStore(t, Options{MaxLen: 4, Beam: 0})
	terms := []string{"probabilistic", "uncertain", "query", "data", "xml", "indexing"}
	nodes := make([]graph.NodeID, len(terms))
	for i, tx := range terms {
		nodes[i] = term(t, tg, "papers.title", tx)
	}
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			a := s.Clos(nodes[i], nodes[j])
			b := s.Clos(nodes[j], nodes[i])
			if math.Abs(a-b) > 1e-9 {
				t.Fatalf("clos(%s,%s)=%v but clos(%s,%s)=%v",
					terms[i], terms[j], a, terms[j], terms[i], b)
			}
		}
	}
}

func TestCloseTermsClassFilter(t *testing.T) {
	tg, s := fixtureStore(t, Options{})
	p := term(t, tg, "papers.title", "probabilistic")
	// Table I analog: close conferences of "probabilistic" must be VLDB
	// (its community's venue), not ICDE or NETCONF.
	confs := s.CloseTerms(p, 3, "conferences.name")
	if len(confs) == 0 {
		t.Fatal("no close conferences")
	}
	if tg.TermText(confs[0].Node) != "vldb" {
		t.Fatalf("closest conference = %q, want vldb", tg.TermText(confs[0].Node))
	}
	for _, sn := range confs {
		if tg.Class(sn.Node) != "conferences.name" {
			t.Fatalf("class filter leaked node %s", tg.DisplayLabel(sn.Node))
		}
	}
	// Unfiltered close terms must all be term nodes.
	all := s.CloseTerms(p, 10, "")
	for _, sn := range all {
		if tg.Kind(sn.Node) != tatgraph.KindTerm {
			t.Fatalf("CloseTerms returned tuple node %v", sn.Node)
		}
	}
}

func TestCloseTermsRankingDeterministic(t *testing.T) {
	tg, s := fixtureStore(t, Options{})
	p := term(t, tg, "papers.title", "probabilistic")
	a := s.CloseTerms(p, 10, "")
	b := s.CloseTerms(p, 10, "")
	if len(a) == 0 || len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic ranking at %d", i)
		}
		if i > 0 && a[i].Score > a[i-1].Score {
			t.Fatal("ranking not descending")
		}
	}
}

func TestBeamPruningStillFindsHeavyPaths(t *testing.T) {
	tg, sFull := fixtureStore(t, Options{Beam: 0})
	_, sBeam := fixtureStore(t, Options{Beam: 4})
	u := term(t, tg, "papers.title", "uncertain")
	q := term(t, tg, "papers.title", "query")
	// Direct co-occurrence survives even a narrow beam.
	if sBeam.Clos(u, q) == 0 {
		t.Fatal("beam pruned a distance-2 co-occurrence")
	}
	// Beam results are a subset: never larger than the exact closeness.
	if sBeam.Clos(u, q) > sFull.Clos(u, q)+1e-9 {
		t.Fatal("beam produced more paths than exact search")
	}
}

func TestPrecomputeWarmsStore(t *testing.T) {
	tg, s := fixtureStore(t, Options{})
	u := term(t, tg, "papers.title", "uncertain")
	if err := s.Precompute(context.Background(), []graph.NodeID{u}); err != nil {
		t.Fatal(err)
	}
	first := s.From(u)
	if len(first) == 0 || !reflect.DeepEqual(first, s.From(u)) {
		t.Fatalf("From not stable after Precompute: %v", first)
	}
	if got := s.Computes(); got != 1 {
		t.Fatalf("%d searches for one precomputed source read twice", got)
	}
}

func TestFromIsIDSortedAndExcludesSelf(t *testing.T) {
	tg, s := fixtureStore(t, Options{})
	u := term(t, tg, "papers.title", "uncertain")
	row := s.From(u)
	for i, sn := range row {
		if sn.Node == u {
			t.Fatal("From includes the source itself")
		}
		if i > 0 && row[i-1].Node >= sn.Node {
			t.Fatalf("From not sorted by node id at %d: %v", i, row)
		}
	}
}
