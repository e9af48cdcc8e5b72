package diskmode

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"kqr/internal/artifact"
	"kqr/internal/graph"
	"kqr/internal/packed"
)

// synthSnapshot builds a deterministic snapshot with numNodes rows of
// pseudo-random (but float32-exact, via Quantize) entries — no corpus
// needed to exercise the paging machinery. Closeness rows are sorted
// and deduplicated by neighbor, as the closeness store emits them.
func synthSnapshot(numNodes, rowLen int) *artifact.Snapshot {
	rng := rand.New(rand.NewSource(20120401))
	s := &artifact.Snapshot{
		Fingerprint: "diskmode synthetic corpus",
		Classes:     []string{"t"},
	}
	s.Tables[artifact.TableWalk], s.Tables[artifact.TableCloseness] = &packed.Rows{}, &packed.Rows{}
	for v := 0; v < numNodes; v++ {
		s.Vocabulary = append(s.Vocabulary, artifact.Term{Node: graph.NodeID(v), Class: 0, Text: "t"})
		n := rng.Intn(rowLen + 1)
		nodes, scores := s.Tables[artifact.TableWalk].Append(graph.NodeID(v), n)
		for i := range nodes {
			nodes[i], scores[i] = graph.NodeID(rng.Intn(numNodes)), packed.Quantize(rng.Float64())
		}
		neighbors := make([]int, 0, n)
		for _, u := range rng.Perm(numNodes)[:n] {
			neighbors = append(neighbors, u)
		}
		sort.Ints(neighbors)
		nodes, scores = s.Tables[artifact.TableCloseness].Append(graph.NodeID(v), n)
		for i := range nodes {
			nodes[i], scores[i] = graph.NodeID(neighbors[i]), packed.Quantize(rng.Float64())
		}
	}
	return s
}

// ramTables indexes the snapshot's rows as RAM tables — the oracle the
// paged views are compared against.
func ramTables(numNodes int, snap *artifact.Snapshot) (sim, clos *packed.RAMTable) {
	return snap.Tables[artifact.TableWalk].Table(numNodes), snap.Tables[artifact.TableCloseness].Table(numNodes)
}

// writeSnap writes the snapshot as a paged file under t.TempDir().
func writeSnap(t *testing.T, s *artifact.Snapshot, pageBytes int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.kqrart")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WritePaged(f, artifact.PagedOptions{PageBytes: pageBytes}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBitIdentity: every row of the page-backed views must be
// bit-identical to the RAM-backed tables built from the same maps —
// over the full vocabulary, under a budget small enough to force
// evictions mid-sweep.
func TestBitIdentity(t *testing.T) {
	const numNodes = 400
	snap := synthSnapshot(numNodes, 24)
	path := writeSnap(t, snap, 512)
	ramSim, ramClos := ramTables(numNodes, snap)

	s, err := Open(path, snap.Fingerprint, Options{Budget: 24 << 10})
	if err != nil {
		t.Fatal(err)
	}
	sim, clos := s.Table(artifact.TableWalk), s.Table(artifact.TableCloseness)
	if sim == nil || clos == nil {
		t.Fatal("missing table views")
	}
	for v := graph.NodeID(0); int(v) < numNodes; v++ {
		for name, pair := range map[string][2]packed.Table{"sim": {ramSim, sim}, "clos": {ramClos, clos}} {
			wantN, wantS, wantOK := pair[0].Row(v)
			gotN, gotS, gotOK := pair[1].Row(v)
			if wantOK != gotOK || len(wantN) != len(gotN) {
				t.Fatalf("%s node %d: row shape mismatch", name, v)
			}
			for i := range wantN {
				if wantN[i] != gotN[i] || wantS[i] != gotS[i] {
					t.Fatalf("%s node %d entry %d: (%d,%v) != (%d,%v)",
						name, v, i, gotN[i], gotS[i], wantN[i], wantS[i])
				}
			}
		}
	}
	st := s.Stats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("cache counters did not move: %+v", st)
	}
	if st.BlobBytes <= st.CacheBudget {
		t.Fatalf("test corpus does not exceed its budget: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("sweep under budget never evicted: %+v", st)
	}
	if st.ResidentBytes > st.Budget+numShards*int64(st.CacheBudget/numShards) {
		t.Fatalf("resident %d far exceeds budget %d", st.ResidentBytes, st.Budget)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBudgetBound: after an over-budget sweep, resident bytes must sit
// within the configured budget (per-shard granularity: each shard may
// retain one oversized newest page).
func TestBudgetBound(t *testing.T) {
	snap := synthSnapshot(600, 32)
	path := writeSnap(t, snap, 1024)
	s, err := Open(path, "", Options{Budget: 48 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sim := s.Table(artifact.TableWalk)
	for round := 0; round < 3; round++ {
		for v := graph.NodeID(0); int(v) < 600; v++ {
			sim.Row(v)
		}
	}
	st := s.Stats()
	if st.ResidentBytes > st.Budget {
		t.Fatalf("resident %d over budget %d (%+v)", st.ResidentBytes, st.Budget, st)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a tight budget: %+v", st)
	}
}

// TestTooSmallBudget: a budget the resident index alone exceeds must
// fail at Open with an instructive error, not underflow.
func TestTooSmallBudget(t *testing.T) {
	path := writeSnap(t, synthSnapshot(300, 16), 0)
	if _, err := Open(path, "", Options{Budget: 64}); err == nil {
		t.Fatal("tiny budget accepted")
	}
	// A budget that covers the index but leaves the page cache no room
	// for one largest page per shard must also be rejected: every shard
	// always keeps its newest page, so such a cache could exceed the
	// budget it was asked to honor.
	if _, err := Open(path, "", Options{Budget: 6 << 10}); err == nil {
		t.Fatal("budget below the per-shard page floor accepted")
	}
}

// TestFingerprintAndVersion: Open must surface artifact's typed
// rejections.
func TestFingerprintAndVersion(t *testing.T) {
	snap := synthSnapshot(50, 8)
	path := writeSnap(t, snap, 0)
	if _, err := Open(path, "other corpus", Options{}); !errors.Is(err, artifact.ErrFingerprint) {
		t.Fatalf("err = %v, want ErrFingerprint", err)
	}
	// A v1 file has no page index.
	v1 := filepath.Join(t.TempDir(), "v1.kqrart")
	f, err := os.Create(v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(v1, "", Options{}); !errors.Is(err, artifact.ErrVersion) {
		t.Fatalf("v1 file: err = %v, want ErrVersion", err)
	}
}

// TestCorruptPageFallsBack: a blob flip passes Open (the index never
// reads blobs) but the faulted page fails its CRC — Row must answer
// ok == false and count the corruption, never return wrong data.
func TestCorruptPageFallsBack(t *testing.T) {
	snap := synthSnapshot(100, 16)
	path := writeSnap(t, snap, 512)
	idx, err := func() (*artifact.PagedIndex, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return artifact.ReadPagedIndex(f, "")
	}()
	if err != nil {
		t.Fatal(err)
	}
	walk := idx.Table(artifact.TableWalk)
	enc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	enc[walk.BlobOff+3] ^= 0x40 // flip inside the first page
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, "", Options{})
	if err != nil {
		t.Fatalf("blob corruption must not fail Open: %v", err)
	}
	defer s.Close()
	sim := s.Table(artifact.TableWalk)
	// Find a node in the first page and fault it.
	var v graph.NodeID = -1
	for u := graph.NodeID(0); int(u) < walk.NumNodes; u++ {
		if walk.Has(u) && walk.Off[u] != walk.Off[u+1] {
			v = u
			break
		}
	}
	if v < 0 {
		t.Fatal("no non-empty row")
	}
	if _, _, ok := sim.Row(v); ok {
		t.Fatal("corrupt page served")
	}
	if s.Stats().CorruptPages == 0 {
		t.Fatal("corruption not counted")
	}
}

// TestCloseDrainsReaders: Close must block until in-flight readers
// release, and late readers must get ok == false — run with -race this
// is the promotion-retires-a-store-mid-fault scenario.
func TestCloseDrainsReaders(t *testing.T) {
	const numNodes = 300
	snap := synthSnapshot(numNodes, 16)
	path := writeSnap(t, snap, 512)
	s, err := Open(path, "", Options{Budget: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	sim, clos := s.Table(artifact.TableWalk), s.Table(artifact.TableCloseness)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			<-start
			for i := 0; i < 4000; i++ {
				v := graph.NodeID(rng.Intn(numNodes))
				// ok may flip to false at any point once Close begins;
				// both answers are legal, wrong data is not.
				if nodes, scores, ok := sim.Row(v); ok && len(nodes) != len(scores) {
					panic("ragged row")
				}
				nodes, scores, _ := clos.Row(v)
				packed.Probe(nodes, scores, graph.NodeID(rng.Intn(numNodes)))
			}
		}(int64(g))
	}
	close(start)
	if err := s.Close(); err != nil { // close while readers are mid-fault
		t.Fatal(err)
	}
	wg.Wait()
	if _, nodes, _ := snap.Tables[artifact.TableWalk].Row(0); len(nodes) > 0 {
		if _, _, ok := sim.Row(0); ok {
			t.Fatal("closed store still serving")
		}
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}
