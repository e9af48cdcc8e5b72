package closeness

import (
	"context"
	"errors"
	"testing"

	"kqr/internal/graph"
)

// TestPrecomputeParallel warms several sources through the worker pool
// and checks each ran exactly once and is served from the store
// afterwards. (Coalescing of concurrent cold misses is the shared
// store's property; see internal/packed.)
func TestPrecomputeParallel(t *testing.T) {
	tg, s := fixtureStore(t, Options{})
	s.Workers = 8
	nodes := []graph.NodeID{
		term(t, tg, "papers.title", "uncertain"),
		term(t, tg, "papers.title", "probabilistic"),
		term(t, tg, "papers.title", "xml"),
	}
	if err := s.Precompute(context.Background(), nodes); err != nil {
		t.Fatal(err)
	}
	if got := s.Computes(); got != int64(len(nodes)) {
		t.Fatalf("precompute ran %d searches for %d nodes", got, len(nodes))
	}
	s.From(nodes[0])
	if got := s.Computes(); got != int64(len(nodes)) {
		t.Fatal("warm lookup re-ran the search")
	}
}

// TestPrecomputeCancelled proves a cancelled context surfaces as a
// context error instead of a silent partial warm.
func TestPrecomputeCancelled(t *testing.T) {
	tg, s := fixtureStore(t, Options{})
	u := term(t, tg, "papers.title", "uncertain")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Precompute(ctx, []graph.NodeID{u})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
