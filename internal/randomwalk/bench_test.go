package randomwalk

import (
	"context"
	"fmt"
	"testing"

	"kqr/internal/dblpgen"
	"kqr/internal/graph"
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

// BenchmarkScores measures one single walk — a pass with one live
// column — to convergence on the experiment-scale graph (~10k nodes).
func BenchmarkScores(b *testing.B) {
	tg := dblpGraph(b, 3000)
	nodes := tg.FindTerm("probabilistic")
	if len(nodes) == 0 {
		b.Fatal("missing term")
	}
	pref := tg.ContextPreference(nil, nodes[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Scores(tg.CSR(), pref, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPass measures one eight-column solver pass with warm
// scratch — the unit of the offline stage. The eight allocations are
// the eight returned rows.
func BenchmarkPass(b *testing.B) {
	tg := dblpGraph(b, 3000)
	var starts []graph.NodeID
	for _, v := range tg.TermNodeIDs() {
		if tg.Class(v) == "papers.title" && len(starts) < width {
			starts = append(starts, v)
		}
	}
	ex := NewExtractor(tg, Contextual, Options{})
	rows := make([][]graph.Scored, len(starts))
	sc := new(scratch)
	if err := ex.pass(sc, starts, rows); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ex.pass(sc, starts, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimilarNodesCold measures uncached similar-term extraction
// (the offline per-term cost).
func BenchmarkSimilarNodesCold(b *testing.B) {
	tg := dblpGraph(b, 3000)
	nodes := tg.FindTerm("probabilistic")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := NewExtractor(tg, Contextual, Options{})
		if _, err := ex.SimilarNodes(nodes[0], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimilarNodesWarm measures the cached lookup (the online cost).
func BenchmarkSimilarNodesWarm(b *testing.B) {
	tg := dblpGraph(b, 3000)
	nodes := tg.FindTerm("probabilistic")
	ex := NewExtractor(tg, Contextual, Options{})
	if _, err := ex.SimilarNodes(nodes[0], 10); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.SimilarNodes(nodes[0], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// Benchmark_PrecomputeParallel measures the offline precompute fan-out
// at increasing worker counts against the workers=1 sequential
// baseline. Walks are independent per start node and CPU-bound, so on
// an m-core machine throughput should scale near-linearly up to m
// workers (ISSUE 2 acceptance: >= 2x at 4 workers on 4+ cores); beyond
// m, extra workers only contend.
func Benchmark_PrecomputeParallel(b *testing.B) {
	tg := dblpGraph(b, 3000)
	// A fixed slice of term nodes, large enough to keep every worker
	// busy and small enough that one iteration stays in milliseconds.
	var nodes []graph.NodeID
	for v := graph.NodeID(0); int(v) < tg.NumNodes() && len(nodes) < 32; v++ {
		if tg.Kind(v) == tatgraph.KindTerm && tg.Class(v) == "papers.title" {
			nodes = append(nodes, v)
		}
	}
	if len(nodes) < 32 {
		b.Fatalf("only %d term nodes", len(nodes))
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A fresh extractor each iteration keeps every
				// precompute cold; construction is just a struct.
				ex := NewExtractor(tg, Contextual, Options{})
				ex.Workers = workers
				if err := ex.Precompute(context.Background(), nodes); err != nil {
					b.Fatal(err)
				}
				if ex.Computes() != int64(len(nodes)) {
					b.Fatalf("ran %d walks for %d nodes", ex.Computes(), len(nodes))
				}
			}
		})
	}
}
