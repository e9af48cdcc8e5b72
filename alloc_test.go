package kqr_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"kqr"
	"kqr/internal/artifact"
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
	eng, err := kqr.Open(allocCorpus(t), kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	if allocs := reformulateAllocs(t, eng); allocs > 8 {
		t.Errorf("Reformulate(6 terms, 50) allocates %.0f times, budget 8", allocs)
	}
}

// TestReformulateAllocsDiskMode is TestReformulateAllocs served from a
// paged snapshot in 1 KiB pages under a table budget that leaves the
// page cache an eighth of the blob, fewer pages than one decode reads:
// every measured run faults and evicts, and the budget is still 8. A
// fault reads into a page frame the arena already holds, and a row
// leaves it by copy into the decoder's scratch or by probe.
func TestReformulateAllocsDiskMode(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Put items under the race detector by design")
	}
	warm, err := kqr.Open(allocCorpus(t), kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	v1, paged := filepath.Join(dir, "offline.kqrart"), filepath.Join(dir, "small-pages.kqrart")
	if err := warm.SaveArtifacts(v1); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(v1)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := artifact.Load(f, "")
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(paged)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.WritePaged(out, artifact.PagedOptions{PageBytes: 1 << 10}); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	open := func(budget int64) *kqr.Engine {
		eng, err := kqr.Open(allocCorpus(t), kqr.Options{ArtifactPath: paged, DiskMode: true, TableMemBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	// What the default 64 MiB leaves diskmode is the budget less the
	// mend index; keep that and the page index, and an eighth of the blob.
	st, _ := open(0).DiskTables()
	eng := open(64<<20 - st.Budget + st.MetaBytes + st.BlobBytes/8)
	before, _ := eng.DiskTables()
	allocs := reformulateAllocs(t, eng)
	after, _ := eng.DiskTables()
	t.Logf("%d faults, %d evictions", after.Misses-before.Misses, after.Evictions-before.Evictions)
	if after.Misses == before.Misses || after.Evictions == before.Evictions || after.ResidentBytes > after.Budget {
		t.Fatalf("the measured runs did not fault and evict within the budget: %+v", after)
	}
	if allocs > 8 {
		t.Errorf("disk-mode Reformulate(6 terms, 50) allocates %.0f times, budget 8", allocs)
	}
}

// allocCorpus is the corpus both allocation tests query.
func allocCorpus(t *testing.T) *kqr.Dataset {
	t.Helper()
	corpus, err := synthetic.Bibliography(synthetic.Config{Seed: 11, Topics: 4, Confs: 8, Authors: 60, Papers: 400})
	if err != nil {
		t.Fatal(err)
	}
	return corpus.Dataset
}

// reformulateAllocs measures Reformulate of the 6-term query, k=50, on
// a warmed engine: the smaller of two 100-run averages.
func reformulateAllocs(t *testing.T, eng *kqr.Engine) float64 {
	t.Helper()
	query := []string{"probabilistic", "ranking", "uncertain", "mining", "query", "evaluation"}
	var sugs []kqr.Suggestion
	var err error
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
	return allocs
}
