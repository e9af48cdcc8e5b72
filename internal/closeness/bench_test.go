package closeness

import (
	"testing"

	"kqr/internal/dblpgen"
	"kqr/internal/tatgraph"
)

// dblpGraph builds the TAT graph of a generated DBLP-like corpus: 3000
// papers is the experiment scale (~4.5k nodes) the benchmarks run on, a
// few hundred the size the oracle tests can afford.
func dblpGraph(tb testing.TB, papers int) *tatgraph.Graph {
	tb.Helper()
	c, err := dblpgen.Generate(dblpgen.Config{Seed: 1, Topics: 8, Confs: 32, Authors: papers / 5, Papers: papers})
	if err != nil {
		tb.Fatal(err)
	}
	tg, err := tatgraph.Build(c.DB, tatgraph.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return tg
}

// BenchmarkFromCold measures one uncached closeness extraction (layered
// shortest-path search to MaxLen 4).
func BenchmarkFromCold(b *testing.B) {
	tg := dblpGraph(b, 3000)
	nodes := tg.FindTerm("probabilistic")
	if len(nodes) == 0 {
		b.Fatal("missing term")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(tg, Options{})
		if err != nil {
			b.Fatal(err)
		}
		s.Row(nodes[0])
	}
}

// BenchmarkClosWarm measures the cached pairwise lookup used by HMM
// transitions.
func BenchmarkClosWarm(b *testing.B) {
	tg := dblpGraph(b, 3000)
	a := tg.FindTerm("probabilistic")[0]
	c := tg.FindTerm("ranking")[0]
	s, err := New(tg, Options{})
	if err != nil {
		b.Fatal(err)
	}
	s.Row(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Clos(a, c)
	}
}
