package hmm_test

import (
	"context"
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
// scores, stats. Tie models must make the lazy search hand over to the
// exact one, some of them after it has yielded paths (a tie that first
// reaches the top mid-stream), and the exact search must then yield
// only what was not yielded yet.
func TestLazySearchIdenticalToRef(t *testing.T) {
	fallbacks, midStream := 0, 0
	defer OnSearchFallback(func(yielded int) {
		fallbacks++
		if yielded > 0 {
			midStream++
		}
	})()
	rng := rand.New(rand.NewSource(52))
	d := new(Decoder)
	for n := 0; n < 600; n++ {
		k := 1 + rng.Intn(12)
		stop := 1 + rng.Intn(k)
		searchAgainstRef(t, d, randomModel(rng, 1+rng.Intn(6), 7), k, stop, "random model")
		searchAgainstRef(t, d, underflowModel(rng, 3+rng.Intn(3), 5, 1e-108), k, stop, "underflow model")
	}
	random := fallbacks
	fallbacks, midStream = 0, 0
	const ties = 600
	for n := 0; n < ties; n++ {
		k := 1 + rng.Intn(12)
		searchAgainstRef(t, d, tieModel(rng, 2+rng.Intn(4), 5), k, 1+rng.Intn(k), "tie model")
	}
	t.Logf("fallbacks: %d over random and underflow models; %d over %d tie-model searches, %d of them mid-stream", random, fallbacks, 2*ties, midStream)
	if fallbacks < ties/10 || midStream == 0 {
		t.Fatalf("tie models fell back %d times (%d mid-stream); the exact search is not being exercised", fallbacks, midStream)
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
// papers), the engine's models at the served k never need the exact
// search: no full tie reaches the top of a frontier, so the lazy search
// is the whole decode. Its answers equal the reference's all the same.
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

	fallbacks := 0
	defer OnSearchFallback(func(int) { fallbacks++ })()
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
	if fallbacks != 0 {
		t.Fatalf("%d of %d searches over served models fell back to the exact search", fallbacks, 2*len(queries))
	}
}
