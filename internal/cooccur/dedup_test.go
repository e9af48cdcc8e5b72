package cooccur

import (
	"context"
	"testing"

	"kqr/internal/graph"
)

// TestPrecomputeWarms checks the parallel offline pass computes each
// node exactly once and later reads are served from the store.
// (Coalescing of concurrent cold misses is the shared store's property;
// see internal/packed.)
func TestPrecomputeWarms(t *testing.T) {
	tg, ex := fixture(t)
	ex.Workers = 4
	nodes := []graph.NodeID{
		node(t, tg, "papers.title", "probabilistic"),
		node(t, tg, "papers.title", "xml"),
	}
	if err := ex.Precompute(context.Background(), nodes); err != nil {
		t.Fatal(err)
	}
	if got := ex.Computes(); got != int64(len(nodes)) {
		t.Fatalf("precompute ran %d extractions for %d nodes", got, len(nodes))
	}
	if _, err := ex.SimilarNodes(nodes[0], 5); err != nil {
		t.Fatal(err)
	}
	if got := ex.Computes(); got != int64(len(nodes)) {
		t.Fatal("warm lookup re-ran the extraction")
	}
}
