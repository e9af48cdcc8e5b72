package hmm_test

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"kqr"
	"kqr/internal/dblpgen"
	. "kqr/internal/hmm"
	"kqr/internal/hmm/hmmtest"
)

// searchAgainstRef decodes m at k three ways on d — TopKAStar, and
// SearchFunc stopped after stop yields — and fails unless each equals
// the reference: the same paths in the same order with == scores, the
// same AStarStats for the full search, and exactly the reference's
// first stop paths yielded, each once.
func searchAgainstRef(t *testing.T, d *Decoder, m *Model, k, stop int, what string) {
	t.Helper()
	want, wantStats, err := hmmtest.TopKAStarRef(m, k)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := d.TopKAStar(m, k)
	if err != nil {
		t.Fatal(err)
	}
	if !samePathsExact(got, want) || *stats != *wantStats {
		t.Fatalf("%s, k=%d: TopKAStar\n got %v %+v\nwant %v %+v", what, k, got, *stats, want, *wantStats)
	}
	var yielded []Path
	if _, _, err := d.SearchFunc(m, k, func(p Path) bool {
		yielded = append(yielded, Path{States: append([]int(nil), p.States...), Score: p.Score})
		return len(yielded) < stop
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) > stop {
		want = want[:stop]
	}
	if !samePathsExact(yielded, want) {
		t.Fatalf("%s, k=%d: SearchFunc stopped after %d\n got %v\nwant %v", what, k, stop, yielded, want)
	}
}

// Property: the lazy frontier changes nothing a caller sees. Over
// random, tie-heavy and underflowing models, TopKAStar and a SearchFunc
// stopped early equal hmmtest.TopKAStarRef bit for bit — paths, order,
// scores, stats. The reference pops from a plain slice under the same
// total order, so on tie models this also pins which of two equal
// paths comes first, mid-stream as well as at the end.
func TestLazySearchIdenticalToRef(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	d := new(Decoder)
	for n := 0; n < 600; n++ {
		k := 1 + rng.Intn(12)
		stop := 1 + rng.Intn(k)
		searchAgainstRef(t, d, randomModel(rng, 1+rng.Intn(6), 7), k, stop, "random model")
		searchAgainstRef(t, d, underflowModel(rng, 3+rng.Intn(3), 5, 1e-108), k, stop, "underflow model")
	}
	for n := 0; n < 600; n++ {
		k := 1 + rng.Intn(12)
		searchAgainstRef(t, d, tieModel(rng, 2+rng.Intn(4), 5), k, 1+rng.Intn(k), "tie model")
	}
}

// A NaN priority orders nothing: a model with one NaN transition entry
// on the search's way gets an error naming the step, not a panic and
// not a path, from TopKAStar and from SearchFunc alike.
func TestSearchNaNPriorityIsAnError(t *testing.T) {
	m := &Model{
		Pi:    []float64{0.5, 0.5},
		Emit:  [][]float64{{1, 1}, {1}},
		Trans: [][]float64{nil, {math.NaN(), 0.5}},
	}
	if _, _, err := m.TopKAStar(3); err == nil || !strings.Contains(err.Error(), "step 1") {
		t.Fatalf("TopKAStar on a NaN transition: err = %v, want one naming step 1", err)
	}
	d := new(Decoder)
	if err := d.Forward(m); err != nil {
		t.Fatal(err)
	}
	yielded := 0
	if _, _, err := d.SearchFunc(m, 3, func(Path) bool { yielded++; return true }); err == nil || !strings.Contains(err.Error(), "step 1") {
		t.Fatalf("SearchFunc on a NaN transition: err = %v, want one naming step 1", err)
	}
	if yielded != 0 {
		t.Fatalf("SearchFunc yielded %d paths before the NaN", yielded)
	}
}

// servedQueries returns n queries of 4–7 distinct title words of the
// corpus, the shape of the benchmark's miss traffic.
func servedQueries(t *testing.T, c *dblpgen.Corpus, n int) [][]string {
	t.Helper()
	tbl, err := c.DB.Table("papers")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var words []string
	for i := 0; i < tbl.Len(); i++ {
		tp, err := tbl.Tuple(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range strings.Fields(tp.Values[1].Text()) {
			if !seen[w] {
				seen[w] = true
				words = append(words, w)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	queries := make([][]string, n)
	for i := range queries {
		for _, j := range rng.Perm(len(words))[:4+rng.Intn(4)] {
			queries[i] = append(queries[i], words[j])
		}
	}
	return queries
}

// On the corpus kqr-server serves (dblpgen seed 20120401, 2,000
// papers), the lazy search's answers on the engine's models at the
// served k equal the reference's.
func TestLazySearchIdenticalOnServedCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and warms a 2,000-paper corpus")
	}
	c, err := dblpgen.Generate(dblpgen.Config{Seed: 20120401, Papers: 2000})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kqr.Open(kqr.WrapDatabase(c.DB), kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	mgr, _ := eng.Replication()
	core := mgr.Current().Core

	d := new(Decoder)
	const k = 50
	queries := servedQueries(t, c, 300)
	for _, q := range queries {
		m, err := core.BuildQueryModel(q)
		if err != nil {
			t.Fatal(err)
		}
		searchAgainstRef(t, d, m, k+len(q)+2, k, strings.Join(q, " "))
	}
}
