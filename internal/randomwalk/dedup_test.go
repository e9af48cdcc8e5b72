package randomwalk

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"kqr/internal/graph"
)

// TestConcurrentColdMissSingleWalk hammers one cold key from many
// goroutines and asserts exactly one walk executed: overlapping misses
// coalesce onto the first caller's walk, stragglers hit the cache.
// Run with -race to also prove the cache handoff is sound.
func TestConcurrentColdMissSingleWalk(t *testing.T) {
	tg := fixtureGraph(t)
	v, ok := tg.TermNode("papers.title", "probabilistic")
	if !ok {
		t.Fatal("missing term")
	}
	ex := NewExtractor(tg, Contextual, Options{})

	const n = 32
	start := make(chan struct{})
	results := make([][]graph.Scored, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			list, err := ex.SimilarNodes(v, 10)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = list
		}(i)
	}
	close(start)
	wg.Wait()

	if got := ex.Computes(); got != 1 {
		t.Fatalf("%d concurrent cold misses ran %d walks, want exactly 1", n, got)
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d saw a different result than caller 0", i)
		}
	}
}

// TestPrecomputeParallelMatchesSequential checks the fan-out produces
// byte-for-byte the same rows as the sequential path, and that each
// node is walked exactly once.
func TestPrecomputeParallelMatchesSequential(t *testing.T) {
	tg := fixtureGraph(t)
	var nodes []graph.NodeID
	for _, term := range []string{"probabilistic", "uncertain", "xml"} {
		v, ok := tg.TermNode("papers.title", term)
		if !ok {
			t.Fatalf("missing term %q", term)
		}
		nodes = append(nodes, v)
	}

	seq := NewExtractor(tg, Contextual, Options{})
	seq.Workers = 1
	if err := seq.Precompute(context.Background(), nodes); err != nil {
		t.Fatal(err)
	}
	par := NewExtractor(tg, Contextual, Options{})
	par.Workers = 8
	if err := par.Precompute(context.Background(), nodes); err != nil {
		t.Fatal(err)
	}
	if par.Computes() != int64(len(nodes)) {
		t.Fatalf("parallel precompute ran %d walks for %d nodes", par.Computes(), len(nodes))
	}
	for _, v := range nodes {
		a, _ := seq.SimilarNodes(v, 0)
		b, _ := par.SimilarNodes(v, 0)
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Fatalf("node %d: parallel precompute produced a different row than sequential", v)
		}
	}
}

// TestPrecomputeCancelled proves a cancelled context stops the pool
// with a node-annotated context error.
func TestPrecomputeCancelled(t *testing.T) {
	tg := fixtureGraph(t)
	v, _ := tg.TermNode("papers.title", "probabilistic")
	ex := NewExtractor(tg, Contextual, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	nodes := make([]graph.NodeID, 64)
	for i := range nodes {
		nodes[i] = v
	}
	if err := ex.Precompute(ctx, nodes); err == nil {
		t.Fatal("cancelled precompute returned nil")
	}
}
