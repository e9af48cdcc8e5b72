package tatgraph

import (
	"math"
	"reflect"
	"testing"

	"kqr/internal/graph"
	"kqr/internal/relstore"
	"kqr/internal/testcorpus"
)

func buildFixture(t *testing.T) *Graph {
	t.Helper()
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	tg, err := Build(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func TestBuildCounts(t *testing.T) {
	tg := buildFixture(t)
	st := tg.DB().Stats()
	// Every non-association tuple becomes a node; the writes table (no
	// key, no text, two FKs) collapses into author–paper edges.
	entityTuples := st.Tuples - st.PerTable["writes"]
	if tg.NumTermNodes() != tg.NumNodes()-entityTuples {
		t.Fatalf("term nodes %d + entity tuples %d != total %d",
			tg.NumTermNodes(), entityTuples, tg.NumNodes())
	}
	if _, ok := tg.TupleNode(relstore.TupleID{Table: "writes", Row: 0}); ok {
		t.Fatal("association tuple got a node")
	}
	// One connected region per community is expected at most; the graph
	// must not be fully disconnected.
	if c := tg.CSR().NumComponents(); c < 1 || c > 3 {
		t.Fatalf("NumComponents = %d, want 1..3 (db + networks communities)", c)
	}
}

func TestTermNodesFieldScoped(t *testing.T) {
	tg := buildFixture(t)
	if _, ok := tg.TermNode("papers.title", "probabilistic"); !ok {
		t.Fatal("missing term node papers.title:probabilistic")
	}
	if _, ok := tg.TermNode("conferences.name", "probabilistic"); ok {
		t.Fatal("probabilistic wrongly indexed under conference names")
	}
	// Atomic fields must hold whole values.
	if _, ok := tg.TermNode("authors.name", "alice ames"); !ok {
		t.Fatal("missing atomic author node")
	}
	if _, ok := tg.TermNode("authors.name", "alice"); ok {
		t.Fatal("author name was segmented")
	}
}

func TestFindTermAcrossFields(t *testing.T) {
	tg := buildFixture(t)
	nodes := tg.FindTerm("  Probabilistic ")
	if len(nodes) != 1 {
		t.Fatalf("FindTerm(probabilistic) = %d nodes, want 1", len(nodes))
	}
	if tg.Kind(nodes[0]) != KindTerm || tg.TermText(nodes[0]) != "probabilistic" {
		t.Fatalf("bad node: kind=%v text=%q", tg.Kind(nodes[0]), tg.TermText(nodes[0]))
	}
	if got := tg.FindTerm("vldb"); len(got) != 1 {
		t.Fatalf("FindTerm(vldb) = %d nodes, want 1 (conference name)", len(got))
	}
	if got := tg.FindTerm("never-seen-term"); got != nil {
		t.Fatalf("FindTerm(miss) = %v, want nil", got)
	}
}

func TestOccurrenceEdges(t *testing.T) {
	tg := buildFixture(t)
	term, ok := tg.TermNode("papers.title", "probabilistic")
	if !ok {
		t.Fatal("missing term node")
	}
	// "probabilistic" occurs in papers 1 and 2 (rows 0 and 1).
	if f := tg.Freq(term); f != 2 {
		t.Fatalf("Freq(probabilistic) = %d, want 2", f)
	}
	var tupleNeighbors int
	tg.CSR().Neighbors(term, func(v graph.NodeID, w float64) bool {
		if tg.Kind(v) != KindTuple {
			t.Fatalf("term node has non-tuple neighbor %v", v)
		}
		if w <= 0 {
			t.Fatalf("occurrence weight %v", w)
		}
		tupleNeighbors++
		return true
	})
	if tupleNeighbors != 2 {
		t.Fatalf("probabilistic connects to %d tuples, want 2", tupleNeighbors)
	}
}

func TestForeignKeyEdges(t *testing.T) {
	tg := buildFixture(t)
	db := tg.DB()
	papers, err := db.Table("papers")
	if err != nil {
		t.Fatal(err)
	}
	paper, ok := papers.LookupPK(relstore.Int(1))
	if !ok {
		t.Fatal("paper 1 missing")
	}
	pNode, ok := tg.TupleNode(paper.ID)
	if !ok {
		t.Fatal("no tuple node for paper 1")
	}
	// Paper 1 must connect to its conference tuple.
	confConnected := false
	tg.CSR().Neighbors(pNode, func(v graph.NodeID, _ float64) bool {
		if tg.Kind(v) == KindTuple && tg.Class(v) == "conferences" {
			confConnected = true
		}
		return true
	})
	if !confConnected {
		t.Fatal("paper tuple not connected to its conference")
	}
}

func TestSameClass(t *testing.T) {
	tg := buildFixture(t)
	a, _ := tg.TermNode("papers.title", "probabilistic")
	b, _ := tg.TermNode("papers.title", "uncertain")
	c, _ := tg.TermNode("conferences.name", "vldb")
	if !tg.SameClass(a, b) {
		t.Fatal("two title terms should share a class")
	}
	if tg.SameClass(a, c) {
		t.Fatal("title term and conference name must differ in class")
	}
}

func TestIDFOrdering(t *testing.T) {
	tg := buildFixture(t)
	rare, _ := tg.TermNode("papers.title", "twig")        // 1 occurrence
	common, _ := tg.TermNode("papers.title", "uncertain") // 2 occurrences
	if tg.IDF(rare) <= tg.IDF(common) {
		t.Fatalf("IDF(twig)=%v should exceed IDF(uncertain)=%v", tg.IDF(rare), tg.IDF(common))
	}
}

// The cached class lists partition the nodes in ascending order and
// agree with SameClass; the cached idf is ln(1 + docs/degree) of the
// node's class.
func TestClassMembersAndCachedIDF(t *testing.T) {
	tg := buildFixture(t)
	seen := 0
	for v := graph.NodeID(0); int(v) < tg.NumNodes(); v++ {
		members := tg.ClassMembers(v)
		if len(members) != tg.ClassSize(tg.Class(v)) {
			t.Fatalf("node %d: %d class members, ClassSize says %d", v, len(members), tg.ClassSize(tg.Class(v)))
		}
		if members[0] == v {
			seen += len(members)
		}
		found := false
		for i, u := range members {
			if !tg.SameClass(u, v) || (i > 0 && members[i-1] >= u) {
				t.Fatalf("node %d: class list %v is not its class in ascending order", v, members)
			}
			found = found || u == v
		}
		if !found {
			t.Fatalf("node %d missing from its own class list", v)
		}
		docs, deg := float64(tg.ClassSize(tg.Class(v))), float64(tg.CSR().Degree(v))
		if tg.Kind(v) == KindTerm {
			docs = float64(tg.Index().DocCount(tg.Class(v)))
		}
		if want := math.Log(1 + math.Max(docs, deg)/math.Max(deg, 1)); tg.IDF(v) != want {
			t.Fatalf("node %d: IDF = %v, want %v", v, tg.IDF(v), want)
		}
	}
	if seen != tg.NumNodes() {
		t.Fatalf("class lists cover %d of %d nodes", seen, tg.NumNodes())
	}
}

func TestContextPreference(t *testing.T) {
	tg := buildFixture(t)
	term, _ := tg.TermNode("papers.title", "uncertain")
	pref := tg.ContextPreference(nil, term)
	if len(pref) == 0 {
		t.Fatal("empty preference")
	}
	sum := 0.0
	for i, e := range pref {
		if e.Score <= 0 {
			t.Fatalf("non-positive preference %v on %v", e.Score, e.Node)
		}
		if tg.Kind(e.Node) != KindTuple {
			t.Fatalf("term context contains non-tuple node %v", e.Node)
		}
		if i > 0 && pref[i-1].Node >= e.Node {
			t.Fatalf("preference not sorted by node id: %v", pref)
		}
		sum += e.Score
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("preference sums to %v, want 1", sum)
	}
	// Context of "uncertain" = the two papers containing it.
	if len(pref) != 2 {
		t.Fatalf("context size = %d, want 2 papers", len(pref))
	}
}

func TestContextPreferenceFieldBalance(t *testing.T) {
	tg := buildFixture(t)
	// A paper tuple's context spans title terms, its conference, and
	// writes rows; per-field mass must be balanced, so no single title
	// term should dominate the whole vector.
	papers, _ := tg.DB().Table("papers")
	p, _ := papers.LookupPK(relstore.Int(1))
	node, _ := tg.TupleNode(p.ID)
	pref := tg.ContextPreference(nil, node)
	for _, e := range pref {
		if e.Score > 0.85 {
			t.Fatalf("context node %v (%s) holds %v of the mass", e.Node, tg.DisplayLabel(e.Node), e.Score)
		}
	}
	// Appending keeps what the caller already had.
	if again := tg.ContextPreference(pref[:1:1], node); !reflect.DeepEqual(again[1:], pref) {
		t.Fatalf("appended preference %v differs from fresh %v", again[1:], pref)
	}
}

func TestSelfPreference(t *testing.T) {
	tg := buildFixture(t)
	term, _ := tg.TermNode("papers.title", "xml")
	pref := tg.SelfPreference(nil, term)
	if len(pref) != 1 || pref[0] != (graph.Scored{Node: term, Score: 1}) {
		t.Fatalf("SelfPreference = %v", pref)
	}
}

func TestIsolatedNodeContext(t *testing.T) {
	db := relstore.NewDatabase()
	if err := db.CreateTable(relstore.Schema{
		Name:       "t",
		Columns:    []relstore.Column{{Name: "k", Kind: relstore.KindInt}},
		PrimaryKey: "k",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("t", relstore.Int(1)); err != nil {
		t.Fatal(err)
	}
	tg, err := Build(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	node, ok := tg.TupleNode(relstore.TupleID{Table: "t", Row: 0})
	if !ok {
		t.Fatal("missing tuple node")
	}
	pref := tg.ContextPreference(nil, node)
	if len(pref) != 1 || pref[0] != (graph.Scored{Node: node, Score: 1}) {
		t.Fatalf("isolated context = %v, want self", pref)
	}
}

func TestDisplayLabel(t *testing.T) {
	tg := buildFixture(t)
	term, _ := tg.TermNode("papers.title", "xml")
	if got := tg.DisplayLabel(term); got != "papers.title:xml" {
		t.Fatalf("DisplayLabel(term) = %q", got)
	}
	papers, _ := tg.DB().Table("papers")
	p, _ := papers.LookupPK(relstore.Int(1))
	node, _ := tg.TupleNode(p.ID)
	if got := tg.DisplayLabel(node); got != "papers:probabilistic query evaluation" {
		t.Fatalf("DisplayLabel(tuple) = %q", got)
	}
}

func TestClassSize(t *testing.T) {
	tg := buildFixture(t)
	if n := tg.ClassSize("conferences"); n != 3 {
		t.Fatalf("ClassSize(conferences) = %d, want 3", n)
	}
	if n := tg.ClassSize("missing"); n != 0 {
		t.Fatalf("ClassSize(missing) = %d, want 0", n)
	}
}

func TestBuildRejectsNegativeFKWeight(t *testing.T) {
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(db, Options{FKWeight: -1}); err == nil {
		t.Fatal("negative FKWeight accepted")
	}
}

func TestPhraseNodes(t *testing.T) {
	db := relstore.NewDatabase()
	if err := testcorpus.BibSchema(db); err != nil {
		t.Fatal(err)
	}
	papers := []testcorpus.Paper{
		{Title: "association rules mining", Conf: "KDD", Authors: []string{"A1"}},
		{Title: "association rules pruning", Conf: "KDD", Authors: []string{"A1"}},
		{Title: "sequential association study", Conf: "KDD", Authors: []string{"A2"}},
	}
	if err := testcorpus.Load(db, papers); err != nil {
		t.Fatal(err)
	}
	tg, err := Build(db, Options{Phrases: true})
	if err != nil {
		t.Fatal(err)
	}
	// "association rules" occurs twice → phrase node exists.
	phrase, ok := tg.TermNode("papers.title", "association rules")
	if !ok {
		t.Fatal("recurring phrase not indexed")
	}
	if tg.Freq(phrase) != 2 {
		t.Fatalf("phrase freq = %d, want 2", tg.Freq(phrase))
	}
	// "rules mining" occurs once → pruned by MinPhraseFreq.
	if _, ok := tg.TermNode("papers.title", "rules mining"); ok {
		t.Fatal("singleton bigram became a node")
	}
	// FindTerm resolves the normalized phrase text.
	if got := tg.FindTerm("Association  Rules"); len(got) != 1 || got[0] != phrase {
		t.Fatalf("FindTerm(phrase) = %v", got)
	}
	// Unigrams still exist alongside phrases.
	if _, ok := tg.TermNode("papers.title", "association"); !ok {
		t.Fatal("unigram lost when phrases enabled")
	}
	// Phrases off by default.
	tgPlain, err := Build(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tgPlain.TermNode("papers.title", "association rules"); ok {
		t.Fatal("phrase node created without Phrases option")
	}
	// Option validation.
	if _, err := Build(db, Options{Phrases: true, MinPhraseFreq: -1}); err == nil {
		t.Fatal("negative MinPhraseFreq accepted")
	}
}

func TestGraphAccessors(t *testing.T) {
	tg := buildFixture(t)
	if tg.Index() == nil {
		t.Fatal("nil index")
	}
	if KindTuple.String() != "tuple" || KindTerm.String() != "term" {
		t.Fatal("kind names wrong")
	}
	classes := tg.Classes()
	if len(classes) == 0 || classes[0] != "conferences" {
		t.Fatalf("Classes = %v", classes)
	}
	term, _ := tg.TermNode("papers.title", "xml")
	if _, ok := tg.TupleID(term); ok {
		t.Fatal("TupleID on a term node succeeded")
	}
	papers, _ := tg.DB().Table("papers")
	tp, _ := papers.Tuple(0)
	node, _ := tg.TupleNode(tp.ID)
	id, ok := tg.TupleID(node)
	if !ok || id != tp.ID {
		t.Fatalf("TupleID = %v, %v", id, ok)
	}
	// Freq of tuple nodes is 1.
	if tg.Freq(node) != 1 {
		t.Fatalf("Freq(tuple) = %d", tg.Freq(node))
	}
}
