package tatgraph

import (
	"testing"

	"kqr/internal/dblpgen"
	"kqr/internal/graph"
)

// BenchmarkBuild measures full TAT-graph construction over the
// experiment-scale corpus (3000 papers), the offline fixed cost.
func BenchmarkBuild(b *testing.B) {
	c, err := dblpgen.Generate(dblpgen.Config{Seed: 1, Topics: 8, Confs: 32, Authors: 600, Papers: 3000})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(c.DB, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContextPreference measures preference-vector assembly for a
// frequent term.
func BenchmarkContextPreference(b *testing.B) {
	c, err := dblpgen.Generate(dblpgen.Config{Seed: 1, Topics: 8, Confs: 32, Authors: 600, Papers: 3000})
	if err != nil {
		b.Fatal(err)
	}
	tg, err := Build(c.DB, Options{})
	if err != nil {
		b.Fatal(err)
	}
	nodes := tg.FindTerm("probabilistic")
	if len(nodes) == 0 {
		b.Fatal("missing term")
	}
	var pref []graph.Scored
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pref = tg.ContextPreference(pref[:0], nodes[0])
	}
}
