package randomwalk

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"kqr/internal/graph"
	"kqr/internal/tatgraph"
	"kqr/internal/testcorpus"
)

// triangle + pendant: 0-1, 1-2, 2-0, 2-3.
func smallGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddNode()
	}
	edges := [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}, {2, 3}}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// on is the preference with all mass on v.
func on(v graph.NodeID) []graph.Scored { return []graph.Scored{{Node: v, Score: 1}} }

func TestScoresSumToOne(t *testing.T) {
	g := smallGraph(t)
	scores, iters, err := Scores(g, on(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if iters < 1 {
		t.Fatalf("iters = %d", iters)
	}
	sum := 0.0
	for _, s := range scores {
		if s < 0 {
			t.Fatalf("negative score %v", s)
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("scores sum to %v, want 1", sum)
	}
}

func TestIndividualWalkBiasesStart(t *testing.T) {
	g := smallGraph(t)
	scores, _, err := Scores(g, on(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 4; v++ {
		if scores[0] <= scores[v] {
			t.Fatalf("start node score %v not maximal (node %d has %v)", scores[0], v, scores[v])
		}
	}
	// Node 3 (pendant, two hops away) must score lowest.
	if scores[3] >= scores[1] || scores[3] >= scores[2] {
		t.Fatalf("pendant node score %v should be smallest: %v", scores[3], scores)
	}
}

func TestDanglingNodeHandling(t *testing.T) {
	b := graph.NewBuilder()
	b.AddNode() // isolated node 0
	b.AddNode()
	b.AddNode()
	if err := b.AddEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	scores, _, err := Scores(g, on(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := scores[0] + scores[1] + scores[2]
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("scores sum to %v with dangling restart, want 1", sum)
	}
	// All the preference sits on an isolated node: the walk never
	// leaves it, and the closed-form restart hands it back unchanged.
	if scores[0] != 1 || scores[1] != 0 || scores[2] != 0 {
		t.Fatalf("isolated start scored %v, want its preference [1 0 0]", scores)
	}
}

func TestScoresValidation(t *testing.T) {
	g := smallGraph(t)
	cases := []struct {
		name string
		pref []graph.Scored
		opts Options
	}{
		{"empty pref", nil, Options{}},
		{"zero mass", []graph.Scored{{Node: 0, Score: 0}}, Options{}},
		{"negative pref", []graph.Scored{{Node: 0, Score: -1}}, Options{}},
		{"NaN pref", []graph.Scored{{Node: 0, Score: math.NaN()}}, Options{}},
		{"node out of range", on(99), Options{}},
		{"negative node", on(-1), Options{}},
		{"unsorted pref", []graph.Scored{{Node: 2, Score: 1}, {Node: 1, Score: 1}}, Options{}},
		{"duplicate node", []graph.Scored{{Node: 1, Score: 1}, {Node: 1, Score: 1}}, Options{}},
		{"bad damping", on(0), Options{Damping: 1.5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := Scores(g, c.pref, c.opts); err == nil {
				t.Fatal("want error")
			}
		})
	}
	if _, _, err := Scores(graph.NewBuilder().Build(), on(0), Options{}); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestConvergenceUnderDamping(t *testing.T) {
	g := smallGraph(t)
	// Lower damping converges in fewer iterations.
	_, fast, err := Scores(g, on(0), Options{Damping: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	_, slow, err := Scores(g, on(0), Options{Damping: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if fast >= slow {
		t.Fatalf("damping 0.3 took %d iters, 0.95 took %d; want fewer", fast, slow)
	}
}

// Property: scores are a probability distribution for any valid
// preference on a random connected graph.
func TestScoresDistributionProperty(t *testing.T) {
	f := func(seed int64, prefNode uint8) bool {
		b := graph.NewBuilder()
		const n = 12
		for i := 0; i < n; i++ {
			b.AddNode()
		}
		// Ring plus chords keyed by seed for connectivity.
		for i := 0; i < n; i++ {
			if err := b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), 1+float64((seed>>uint(i%8))&3)); err != nil {
				return false
			}
		}
		if err := b.AddEdge(graph.NodeID(seed%n+n)%n, graph.NodeID((seed/7)%n), 2); err != nil {
			// Self-loop attempts are fine to skip; graph stays a ring.
			_ = err
		}
		g := b.Build()
		scores, _, err := Scores(g, on(graph.NodeID(int(prefNode)%n)), Options{})
		if err != nil {
			return false
		}
		sum := 0.0
		for _, s := range scores {
			if s < 0 || math.IsNaN(s) {
				return false
			}
			sum += s
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// --- Extractor over the fixture corpus ---

func fixtureGraph(t *testing.T) *tatgraph.Graph {
	t.Helper()
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	tg, err := tatgraph.Build(db, tatgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func rankOf(t *testing.T, tg *tatgraph.Graph, list []graph.Scored, text string) int {
	t.Helper()
	for i, sn := range list {
		if tg.TermText(sn.Node) == text {
			return i
		}
	}
	return -1
}

// The paper's headline claim (Fig. 4): the contextual walk finds
// "probabilistic" as similar to "uncertain" even though they never
// co-occur in a title.
func TestContextualFindsPlantedSynonym(t *testing.T) {
	tg := fixtureGraph(t)
	start, ok := tg.TermNode("papers.title", "uncertain")
	if !ok {
		t.Fatal("missing start term")
	}
	ex := NewExtractor(tg, Contextual, Options{})
	list, err := ex.SimilarNodes(start, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 {
		t.Fatal("no similar nodes")
	}
	pos := rankOf(t, tg, list, "probabilistic")
	if pos < 0 || pos > 4 {
		var got []string
		for _, sn := range list {
			got = append(got, tg.TermText(sn.Node))
		}
		t.Fatalf("probabilistic ranked %d in %v, want top-5", pos, got)
	}
	// Terms from the unrelated networks community must not appear.
	if p := rankOf(t, tg, list, "routing"); p >= 0 {
		t.Fatalf("routing leaked into similar terms at rank %d", p)
	}
}

func TestSimilarNodesSameClassOnly(t *testing.T) {
	tg := fixtureGraph(t)
	start, _ := tg.TermNode("papers.title", "uncertain")
	ex := NewExtractor(tg, Contextual, Options{})
	list, err := ex.SimilarNodes(start, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, sn := range list {
		if !tg.SameClass(sn.Node, start) {
			t.Fatalf("node %v (%s) crossed class", sn.Node, tg.DisplayLabel(sn.Node))
		}
		if sn.Node == start {
			t.Fatal("start node returned as its own similar term")
		}
	}
}

func TestSimilarAuthorsViaSharedContext(t *testing.T) {
	tg := fixtureGraph(t)
	start, ok := tg.TermNode("authors.name", "alice ames")
	if !ok {
		t.Fatal("missing author node")
	}
	ex := NewExtractor(tg, Contextual, Options{})
	list, err := ex.SimilarNodes(start, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rankOf(t, tg, list, "bob bell") < 0 {
		var got []string
		for _, sn := range list {
			got = append(got, tg.TermText(sn.Node))
		}
		t.Fatalf("bob bell not among similar authors: %v", got)
	}
}

func TestExtractorNormalization(t *testing.T) {
	tg := fixtureGraph(t)
	start, _ := tg.TermNode("papers.title", "xml")
	ex := NewExtractor(tg, Contextual, Options{})
	list, err := ex.SimilarNodes(start, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 || math.Abs(list[0].Score-1) > 1e-12 {
		t.Fatalf("top score = %v, want 1", list[0].Score)
	}
	for i := 1; i < len(list); i++ {
		if list[i].Score > list[i-1].Score {
			t.Fatal("scores not descending")
		}
	}
}

func TestSimLookup(t *testing.T) {
	tg := fixtureGraph(t)
	start, _ := tg.TermNode("papers.title", "uncertain")
	ex := NewExtractor(tg, Contextual, Options{})
	if s, err := ex.Sim(start, start); err != nil || s != 1 {
		t.Fatalf("Sim(self) = %v, %v", s, err)
	}
	other, _ := tg.TermNode("papers.title", "probabilistic")
	s, err := ex.Sim(start, other)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 || s > 1 {
		t.Fatalf("Sim(uncertain, probabilistic) = %v", s)
	}
	unrelated, _ := tg.TermNode("papers.title", "routing")
	if s, _ := ex.Sim(start, unrelated); s != 0 {
		t.Fatalf("Sim(uncertain, routing) = %v, want 0", s)
	}
}

func TestCacheStability(t *testing.T) {
	tg := fixtureGraph(t)
	start, _ := tg.TermNode("papers.title", "uncertain")
	ex := NewExtractor(tg, Contextual, Options{})
	a, err := ex.SimilarNodes(start, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ex.SimilarNodes(start, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("cached call changed length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cached result differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPrecompute(t *testing.T) {
	tg := fixtureGraph(t)
	a, _ := tg.TermNode("papers.title", "xml")
	b, _ := tg.TermNode("papers.title", "uncertain")
	ex := NewExtractor(tg, Contextual, Options{})
	if err := ex.Precompute(context.Background(), []graph.NodeID{a, b}); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.SimilarNodes(a, 5); err != nil {
		t.Fatal(err)
	}
}

// Ablation check behind Fig. 4: the contextual walk must rank the
// planted synonym better than (or equal to) the individual walk does,
// relative to direct co-occurring terms.
func TestContextualBeatsIndividualOnSynonym(t *testing.T) {
	tg := fixtureGraph(t)
	start, _ := tg.TermNode("papers.title", "uncertain")
	ctx := NewExtractor(tg, Contextual, Options{})
	ind := NewExtractor(tg, Individual, Options{})
	cl, err := ctx.SimilarNodes(start, 20)
	if err != nil {
		t.Fatal(err)
	}
	il, err := ind.SimilarNodes(start, 20)
	if err != nil {
		t.Fatal(err)
	}
	cRank := rankOf(t, tg, cl, "probabilistic")
	iRank := rankOf(t, tg, il, "probabilistic")
	if cRank < 0 {
		t.Fatal("contextual walk missed the synonym entirely")
	}
	if iRank >= 0 && cRank > iRank {
		t.Fatalf("contextual rank %d worse than individual rank %d", cRank, iRank)
	}
}
