package closeness

import (
	"testing"

	"kqr/internal/dblpgen"
	"kqr/internal/tatgraph"
)

func benchGraph(b *testing.B) *tatgraph.Graph {
	b.Helper()
	c, err := dblpgen.Generate(dblpgen.Config{Seed: 1, Topics: 8, Confs: 32, Authors: 600, Papers: 3000})
	if err != nil {
		b.Fatal(err)
	}
	tg, err := tatgraph.Build(c.DB, tatgraph.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return tg
}

// BenchmarkFromCold measures one uncached closeness extraction (layered
// shortest-path search to MaxLen 4).
func BenchmarkFromCold(b *testing.B) {
	tg := benchGraph(b)
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
	tg := benchGraph(b)
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
