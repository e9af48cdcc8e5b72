package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"kqr/internal/closeness"
	"kqr/internal/cooccur"
	"kqr/internal/graph"
	"kqr/internal/randomwalk"
	"kqr/internal/tatgraph"
	"kqr/internal/testcorpus"
)

// newFixtureEngine wires the full TAT pipeline over the shared corpus.
func newFixtureEngine(t *testing.T, opts Options) (*tatgraph.Graph, *Engine) {
	t.Helper()
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	tg, err := tatgraph.Build(db, tatgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim := randomwalk.NewExtractor(tg, randomwalk.Contextual, randomwalk.Options{})
	clos, err := closeness.New(tg, closeness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(tg, sim, clos, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tg, eng
}

func TestNewValidation(t *testing.T) {
	tg, _ := newFixtureEngine(t, Options{})
	sim := randomwalk.NewExtractor(tg, randomwalk.Contextual, randomwalk.Options{})
	clos, err := closeness.New(tg, closeness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil, sim, clos, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := New(tg, nil, clos, Options{}); err == nil {
		t.Fatal("nil similarity accepted")
	}
	if _, err := New(tg, sim, nil, Options{}); err == nil {
		t.Fatal("nil closeness accepted")
	}
	bad := []Options{
		{CandidatesPerTerm: -1},
		{SmoothingLambda: 2},
		{SmoothingLambda: -0.5},
		{Algorithm: Algorithm(9)},
	}
	for _, o := range bad {
		if _, err := New(tg, sim, clos, o); err == nil {
			t.Fatalf("options %+v accepted", o)
		}
	}
}

func TestResolveTerm(t *testing.T) {
	_, eng := newFixtureEngine(t, Options{})
	if _, err := eng.ResolveTerm("uncertain"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ResolveTerm("Alice  Ames"); err != nil {
		t.Fatalf("atomic author term unresolved: %v", err)
	}
	if _, err := eng.ResolveTerm("nonexistentword"); err == nil {
		t.Fatal("unknown term resolved")
	}
}

func TestReformulateSingleTerm(t *testing.T) {
	_, eng := newFixtureEngine(t, Options{})
	refs, err := eng.Reformulate([]string{"uncertain"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) == 0 {
		t.Fatal("no reformulations")
	}
	for i, r := range refs {
		if len(r.Terms) != 1 {
			t.Fatalf("reformulation %d has %d terms", i, len(r.Terms))
		}
		if r.Terms[0] == "uncertain" {
			t.Fatal("identity reformulation not filtered")
		}
		if i > 0 && r.Score > refs[i-1].Score {
			t.Fatal("scores not descending")
		}
	}
}

// The headline behaviour: reformulating the motivating query finds the
// planted synonym pair with cohesive combinations.
func TestReformulateFindsCohesiveSynonyms(t *testing.T) {
	_, eng := newFixtureEngine(t, Options{})
	refs, err := eng.Reformulate([]string{"uncertain", "data"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) == 0 {
		t.Fatal("no reformulations")
	}
	var joined []string
	foundProbabilistic := false
	for _, r := range refs {
		q := r.String()
		joined = append(joined, q)
		if strings.Contains(q, "probabilistic") {
			foundProbabilistic = true
		}
		// Cohesion: no term from the disconnected networks community may
		// pair with a database term.
		if strings.Contains(q, "routing") || strings.Contains(q, "wireless") {
			t.Fatalf("incohesive reformulation %q", q)
		}
	}
	if !foundProbabilistic {
		t.Fatalf("planted synonym absent from reformulations: %v", joined)
	}
}

func TestReformulateErrors(t *testing.T) {
	_, eng := newFixtureEngine(t, Options{})
	if _, err := eng.Reformulate(nil, 5); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := eng.Reformulate([]string{"zzzunknown"}, 5); err == nil {
		t.Fatal("unknown term accepted")
	}
}

func TestAlgorithmsAgree(t *testing.T) {
	_, astar := newFixtureEngine(t, Options{Algorithm: AlgAStar})
	_, viterbi := newFixtureEngine(t, Options{Algorithm: AlgTopKViterbi})
	query := []string{"uncertain", "query"}
	a, err := astar.Reformulate(query, 8)
	if err != nil {
		t.Fatal(err)
	}
	v, err := viterbi.Reformulate(query, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(v) {
		t.Fatalf("A* returned %d, Viterbi %d", len(a), len(v))
	}
	for i := range a {
		// Scores must agree; term sequences may differ only on exact ties.
		diff := a[i].Score - v[i].Score
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-9*(1+a[i].Score) {
			t.Fatalf("rank %d: A* %v (%v) vs Viterbi %v (%v)",
				i, a[i].Score, a[i].Terms, v[i].Score, v[i].Terms)
		}
	}
}

func TestKeepOriginalStates(t *testing.T) {
	_, eng := newFixtureEngine(t, Options{})
	refs, err := eng.Reformulate([]string{"uncertain", "query"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// With original states on (default), partial reformulations that
	// keep one original term are allowed.
	partial := false
	for _, r := range refs {
		if len(r.Terms) == 2 && (r.Terms[0] == "uncertain") != (r.Terms[1] == "query") {
			partial = true
		}
	}
	if !partial {
		t.Log("no partial reformulation found; acceptable but unexpected on fixture")
	}

	_, noOrig := newFixtureEngine(t, Options{DropOriginal: true})
	refs2, err := noOrig.Reformulate([]string{"uncertain", "query"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs2 {
		if r.Terms[0] == "uncertain" {
			t.Fatalf("DropOriginal kept original slot term in %v", r.Terms)
		}
	}
}

func TestAllowDeletionProducesShorterQueries(t *testing.T) {
	_, eng := newFixtureEngine(t, Options{AllowDeletion: true})
	refs, err := eng.Reformulate([]string{"uncertain", "twig"}, 15)
	if err != nil {
		t.Fatal(err)
	}
	shorter := false
	for _, r := range refs {
		if len(r.Terms) < 2 {
			shorter = true
		}
	}
	if !shorter {
		t.Fatal("AllowDeletion with high void weight never dropped a term")
	}
}

func TestNoDuplicateReformulations(t *testing.T) {
	_, eng := newFixtureEngine(t, Options{})
	refs, err := eng.Reformulate([]string{"uncertain", "data"}, 20)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, r := range refs {
		q := r.String()
		if seen[q] {
			t.Fatalf("duplicate reformulation %q", q)
		}
		seen[q] = true
	}
}

func TestRankBasedBaseline(t *testing.T) {
	_, eng := newFixtureEngine(t, Options{})
	refs, err := eng.ReformulateRankBased([]string{"uncertain", "data"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) == 0 {
		t.Fatal("rank-based returned nothing")
	}
	for i := 1; i < len(refs); i++ {
		if refs[i].Score > refs[i-1].Score {
			t.Fatal("rank-based scores not descending")
		}
	}
	seen := make(map[string]bool)
	for _, r := range refs {
		if seen[r.String()] {
			t.Fatalf("duplicate %q", r.String())
		}
		seen[r.String()] = true
		if len(r.Terms) != 2 {
			t.Fatalf("rank-based changed query length: %v", r.Terms)
		}
	}
	if _, err := eng.ReformulateRankBased(nil, 3); err == nil {
		t.Fatal("empty query accepted")
	}
}

// Rank-based ignores cohesion: on a query mixing the two communities it
// happily pairs terms that never co-occur, while the HMM engine demotes
// them. This is the mechanism behind the paper's Fig. 5 gap.
func TestHMMBeatsRankBasedOnCohesion(t *testing.T) {
	tg, eng := newFixtureEngine(t, Options{})
	_ = tg
	query := []string{"uncertain", "query"}
	hmmRefs, err := eng.Reformulate(query, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hmmRefs) == 0 {
		t.Fatal("no HMM reformulations")
	}
	clos, err := closeness.New(tg, closeness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every top HMM reformulation must be cohesive (positive pairwise
	// closeness or a kept original pair).
	for _, r := range hmmRefs {
		if len(r.Nodes) != 2 {
			continue
		}
		if r.Nodes[0] != r.Nodes[1] && clos.Clos(r.Nodes[0], r.Nodes[1]) == 0 {
			t.Fatalf("HMM produced incohesive pair %v", r.Terms)
		}
	}
}

func TestCooccurrenceProviderVariant(t *testing.T) {
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	tg, err := tatgraph.Build(db, tatgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clos, err := closeness.New(tg, closeness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(tg, cooccur.NewExtractor(tg), clos, Options{})
	if err != nil {
		t.Fatal(err)
	}
	refs, err := eng.Reformulate([]string{"uncertain", "data"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Co-occurrence similarity cannot propose the planted synonym as a
	// substitute for "uncertain" (slot 0) — they never share a tuple.
	// (It may legitimately substitute "data", which *does* co-occur
	// with "probabilistic".)
	for _, r := range refs {
		if len(r.Terms) > 0 && r.Terms[0] == "probabilistic" {
			t.Fatalf("co-occurrence variant substituted the never-co-occurring synonym: %v", r.Terms)
		}
	}
}

func TestSmoothingPreventsZeroCollapse(t *testing.T) {
	// With λ=1 (no smoothing) a zero-closeness pair kills the path; the
	// smoothed engine must still rank it, just lower.
	_, strict := newFixtureEngine(t, Options{SmoothingLambda: 1})
	_, smooth := newFixtureEngine(t, Options{SmoothingLambda: 0.6})
	q := []string{"uncertain", "twig"} // cross-community-ish pair inside db world
	sRefs, err := strict.Reformulate(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	mRefs, err := smooth.Reformulate(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(mRefs) < len(sRefs) {
		t.Fatalf("smoothing reduced recall: strict %d vs smooth %d", len(sRefs), len(mRefs))
	}
}

func TestReformulationNodesMatchTerms(t *testing.T) {
	tg, eng := newFixtureEngine(t, Options{})
	refs, err := eng.Reformulate([]string{"uncertain", "data"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if len(r.Nodes) != len(r.Terms) {
			t.Fatalf("nodes/terms length mismatch: %v vs %v", r.Nodes, r.Terms)
		}
		for i, v := range r.Nodes {
			if tg.TermText(v) != r.Terms[i] {
				t.Fatalf("node %v text %q != term %q", v, tg.TermText(v), r.Terms[i])
			}
		}
	}
}

var _ SimilarityProvider = (*randomwalk.Extractor)(nil)
var _ SimilarityProvider = (*cooccur.Extractor)(nil)
var _ ClosenessProvider = (*closeness.Store)(nil)
var _ = graph.NodeID(0)

func TestBuildQueryModel(t *testing.T) {
	_, eng := newFixtureEngine(t, Options{})
	m, err := eng.BuildQueryModel([]string{"uncertain", "data"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("built model invalid: %v", err)
	}
	if m.Steps() != 2 {
		t.Fatalf("steps = %d", m.Steps())
	}
	// Emissions are normalized distributions per step.
	for c, col := range m.Emit {
		sum := 0.0
		for _, p := range col {
			if p < 0 {
				t.Fatalf("negative emission at step %d", c)
			}
			sum += p
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("step %d emissions sum to %v", c, sum)
		}
	}
	// Pi is a distribution.
	sum := 0.0
	for _, p := range m.Pi {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("Pi sums to %v", sum)
	}
	if _, err := eng.BuildQueryModel(nil); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := eng.BuildQueryModel([]string{"notaword"}); err == nil {
		t.Fatal("unknown term accepted")
	}
}

func TestReformulateDeterministic(t *testing.T) {
	_, eng := newFixtureEngine(t, Options{})
	query := []string{"uncertain", "data"}
	a, err := eng.Reformulate(query, 10)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		b, err := eng.Reformulate(query, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("trial %d: %d vs %d suggestions", trial, len(a), len(b))
		}
		for i := range a {
			if a[i].String() != b[i].String() || a[i].Score != b[i].Score {
				t.Fatalf("trial %d suggestion %d differs: %v vs %v", trial, i, a[i], b[i])
			}
		}
	}
}

func TestOptionsAndAlgorithmNames(t *testing.T) {
	_, eng := newFixtureEngine(t, Options{})
	opts := eng.Options()
	if opts.CandidatesPerTerm != 10 || opts.SmoothingLambda != 0.8 {
		t.Fatalf("defaults not applied: %+v", opts)
	}
	if AlgAStar.String() != "astar" || AlgTopKViterbi.String() != "topk-viterbi" {
		t.Fatalf("algorithm names: %q, %q", AlgAStar.String(), AlgTopKViterbi.String())
	}
}

func TestExplainInternal(t *testing.T) {
	_, eng := newFixtureEngine(t, Options{})
	exps, err := eng.Explain([]string{"uncertain", "data"}, []string{"probabilistic", "data"})
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 2 {
		t.Fatalf("explanations = %d", len(exps))
	}
	if exps[0].Substitute != "probabilistic" || exps[0].Sim <= 0 {
		t.Fatalf("slot 0 = %+v", exps[0])
	}
	if exps[1].Sim != 1 { // identity slot
		t.Fatalf("identity slot sim = %v", exps[1].Sim)
	}
	if exps[1].PrevCloseness <= 0 {
		t.Fatalf("probabilistic/data closeness = %v", exps[1].PrevCloseness)
	}
	if _, err := eng.Explain([]string{"uncertain"}, []string{"a", "b"}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := eng.Explain([]string{"zzz"}, []string{"zzz"}); err == nil {
		t.Fatal("unknown terms accepted")
	}
}

// TestMaxQueryTermsCannotUnderflow redoes the derivation behind
// MaxQueryTerms from the default options — under the Eq. 5–6 smoothing
// floors a cap-length path keeps e^25 above the smallest normal float64
// for its initial factor — then checks the cap: a cap-length query
// decodes suggestions, one term more is ErrQueryTooLong, and a scratch
// grown past the cap does not go back to the pool.
func TestMaxQueryTermsCannotUnderflow(t *testing.T) {
	o, err := Options{}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	states := float64(o.CandidatesPerTerm + 2) // original, candidates, void
	floor := (1 - o.SmoothingLambda) / states
	perStep := math.Log(floor) + math.Log(floor/states)
	if headroom := MaxQueryTerms*perStep - math.Log(0x1p-1022); headroom < 25 {
		t.Fatalf("a %d-term path may fall to e^%.1f of the smallest normal float64", MaxQueryTerms, -headroom)
	}

	_, eng := newFixtureEngine(t, Options{})
	query := make([]string, MaxQueryTerms)
	for i := range query {
		query[i] = []string{"probabilistic", "data", "cleaning"}[i%3]
	}
	if refs, err := eng.Reformulate(query, 10); err != nil || len(refs) == 0 {
		t.Fatalf("%d-term query: %d suggestions, %v", len(query), len(refs), err)
	}
	if _, err := eng.Reformulate(append(query, "data"), 10); !errors.Is(err, ErrQueryTooLong) {
		t.Fatalf("%d-term query: err = %v, want ErrQueryTooLong", len(query)+1, err)
	}
	big := newQueryScratch()
	big.slots = make([]slot, MaxQueryTerms+1)
	eng.putScratch(big)
	if eng.pool.Get() == big {
		t.Fatal("a scratch grown past the cap went back to the pool")
	}
}
