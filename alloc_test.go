package kqr_test

import (
	"context"
	"testing"

	"kqr"
	"kqr/synthetic"
)

// TestReformulateAllocs bounds what the façade allocates around a warmed
// decode: Engine.Reformulate of a 6-term query, k=50, is the pooled
// visit — resolution, candidate fetch, model, top-k, filter, all on
// scratch — plus a collector that makes the result slice and one flat
// backing for every term. It was ≈390 allocations when each row grew its
// own Nodes and Terms by append and went through a joined-string set and
// a second slice; this is the figure the system benchmark's traced run
// reports as core.allocs_per_op.
func TestReformulateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Put items under the race detector by design")
	}
	corpus, err := synthetic.Bibliography(synthetic.Config{Seed: 11, Topics: 4, Confs: 8, Authors: 60, Papers: 400})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kqr.Open(corpus.Dataset, kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	query := []string{"probabilistic", "ranking", "uncertain", "mining", "query", "evaluation"}
	var sugs []kqr.Suggestion
	reformulate := func() {
		if sugs, err = eng.Reformulate(query, 50); err != nil {
			t.Fatal(err)
		}
	}
	reformulate()
	if len(sugs) != 50 {
		t.Fatalf("%d suggestions, want 50", len(sugs))
	}
	allocs := testing.AllocsPerRun(100, reformulate)
	if a := testing.AllocsPerRun(100, reformulate); a < allocs { // a GC emptying the scratch pool mid-run must not flake the bound
		allocs = a
	}
	t.Logf("%.0f allocations", allocs)
	if allocs > 8 {
		t.Errorf("Reformulate(6 terms, 50) allocates %.0f times, budget 8", allocs)
	}
}
