package diskmode

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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
		raw := s.Tables[artifact.TableWalk].Append(graph.NodeID(v), n)
		for i := range n {
			packed.PutEntry(raw[i*packed.EntrySize:], graph.NodeID(rng.Intn(numNodes)), packed.Quantize(rng.Float64()))
		}
		neighbors := make([]int, 0, n)
		for _, u := range rng.Perm(numNodes)[:n] {
			neighbors = append(neighbors, u)
		}
		sort.Ints(neighbors)
		raw = s.Tables[artifact.TableCloseness].Append(graph.NodeID(v), n)
		for i := range n {
			packed.PutEntry(raw[i*packed.EntrySize:], graph.NodeID(neighbors[i]), packed.Quantize(rng.Float64()))
		}
	}
	return s
}

// ramTables indexes the snapshot's rows as tables over their entries in
// RAM — the oracle the page-backed tables are compared against.
func ramTables(numNodes int, snap *artifact.Snapshot) (sim, clos *packed.Table) {
	ram := func(r *packed.Rows) *packed.Table {
		return packed.NewTable(packed.NewIndex(numNodes, r), packed.Bytes(r.Entries))
	}
	return ram(snap.Tables[artifact.TableWalk]), ram(snap.Tables[artifact.TableCloseness])
}

// writeSnap writes the snapshot as a paged file under t.TempDir().
func writeSnap(t testing.TB, s *artifact.Snapshot, pageBytes int) string {
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

// TestBitIdentity: every row copied out of the page-backed tables must
// be bit-identical to the RAM-backed tables built from the same rows —
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
		t.Fatal("missing tables")
	}
	for v := graph.NodeID(0); int(v) < numNodes; v++ {
		for name, pair := range map[string][2]*packed.Table{"sim": {ramSim, sim}, "clos": {ramClos, clos}} {
			wantN, wantS, wantOK := pair[0].AppendRow(v, nil, nil)
			gotN, gotS, gotOK := pair[1].AppendRow(v, nil, nil)
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
	if st.ResidentBytes > st.Budget {
		t.Fatalf("resident %d exceeds budget %d", st.ResidentBytes, st.Budget)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBudgetBound: after an over-budget sweep, resident bytes must sit
// within the configured budget: the index plus the frames allocated,
// which never outnumber what the budget holds.
func TestBudgetBound(t *testing.T) {
	snap := synthSnapshot(600, 32)
	path := writeSnap(t, snap, 1024)
	s, err := Open(path, "", Options{Budget: 48 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sim := s.Table(artifact.TableWalk)
	var nodes []graph.NodeID
	var scores []float32
	for round := 0; round < 3; round++ {
		for v := graph.NodeID(0); int(v) < 600; v++ {
			nodes, scores, _ = sim.AppendRow(v, nodes[:0], scores[:0])
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
	// A budget that covers the index but leaves no room for one frame
	// of the largest page must also be rejected: a fault needs a frame
	// to read into.
	if _, err := Open(path, "", Options{Budget: 6 << 10}); err == nil {
		t.Fatal("budget below the one-frame floor accepted")
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
// reads blobs) but the faulted page fails its CRC — a copy or a probe
// must answer ok == false and count the corruption, never return wrong
// data.
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
	if _, _, ok := sim.AppendRow(v, nil, nil); ok {
		t.Fatal("corrupt page served")
	}
	if sim.ProbeRow(v, []graph.NodeID{0}, make([]float64, 1)) {
		t.Fatal("corrupt page probed")
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
			var out [1]float64
			<-start
			for i := 0; i < 4000; i++ {
				v := graph.NodeID(rng.Intn(numNodes))
				// ok may flip to false at any point once Close begins;
				// both answers are legal, wrong data is not.
				if nodes, scores, ok := sim.AppendRow(v, nil, nil); ok && len(nodes) != len(scores) {
					panic("ragged row")
				}
				clos.ProbeRow(v, []graph.NodeID{graph.NodeID(rng.Intn(numNodes))}, out[:])
			}
		}(int64(g))
	}
	close(start)
	if err := s.Close(); err != nil { // close while readers are mid-fault
		t.Fatal(err)
	}
	wg.Wait()
	if _, raw := snap.Tables[artifact.TableWalk].Row(0); len(raw) > 0 {
		if _, _, ok := sim.AppendRow(0, nil, nil); ok {
			t.Fatal("closed store still serving")
		}
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// openFrames reopens the snapshot at path with a budget of the index
// plus the given number of frames of its largest page.
func openFrames(tb testing.TB, path string, frames int) *Store {
	tb.Helper()
	s, err := Open(path, "", Options{})
	if err != nil {
		tb.Fatal(err)
	}
	budget := s.Stats().MetaBytes + int64(frames*s.arena.frameBytes)
	s.Close()
	if s, err = Open(path, "", Options{Budget: budget}); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestFramesNeverRecycledUnderReaders: eight readers copy out and probe
// random rows of both tables through an arena of three frames, so
// nearly every read evicts a page some other reader may still be
// copying from. Every answer must equal the RAM table's bit for bit —
// run with -race, this is the check that no reader ever sees a frame
// after it was handed to another page.
func TestFramesNeverRecycledUnderReaders(t *testing.T) {
	const numNodes = 400
	snap := synthSnapshot(numNodes, 24)
	path := writeSnap(t, snap, 512)
	ramSim, ramClos := ramTables(numNodes, snap)
	s := openFrames(t, path, 3)
	defer s.Close()
	tables := [2][2]*packed.Table{{ramSim, s.Table(artifact.TableWalk)}, {ramClos, s.Table(artifact.TableCloseness)}}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			bs := make([]graph.NodeID, 8)
			want, got := make([]float64, len(bs)), make([]float64, len(bs))
			var wantN, gotN []graph.NodeID
			var wantS, gotS []float32
			for i := 0; i < 1500; i++ {
				v := graph.NodeID(rng.Intn(numNodes))
				pair := tables[i%2]
				var wantOK, gotOK bool
				wantN, wantS, wantOK = pair[0].AppendRow(v, wantN[:0], wantS[:0])
				gotN, gotS, gotOK = pair[1].AppendRow(v, gotN[:0], gotS[:0])
				if wantOK != gotOK || !slices.Equal(wantN, gotN) || !slices.Equal(wantS, gotS) {
					t.Errorf("table %d node %d: copied row differs from the RAM table's", i%2, v)
					return
				}
				// Probe the closeness row for a mix of its own nodes and
				// random ones.
				for j := range bs {
					bs[j] = graph.NodeID(rng.Intn(numNodes))
					if j%2 == 0 && len(wantN) > 0 && i%2 == 1 {
						bs[j] = wantN[rng.Intn(len(wantN))]
					}
				}
				wantOK = ramClos.ProbeRow(v, bs, want)
				gotOK = tables[1][1].ProbeRow(v, bs, got)
				if wantOK != gotOK || !slices.Equal(want, got) {
					t.Errorf("node %d: probed %v, RAM table %v", v, got, want)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if st := s.Stats(); st.Evictions == 0 || st.ResidentBytes > st.Budget {
		t.Fatalf("want evictions within the budget: %+v", st)
	}
}

// BenchmarkFaultingRow copies out rows that each sit on a different
// page through an arena of two frames, so every read faults: once the
// frames exist a fault reads into one and allocates nothing.
func BenchmarkFaultingRow(b *testing.B) {
	const numNodes = 2000
	snap := synthSnapshot(numNodes, 24)
	path := writeSnap(b, snap, 1024)
	s := openFrames(b, path, 2)
	defer s.Close()
	walk, pages := s.Table(artifact.TableWalk), s.Index().Table(artifact.TableWalk).PageStarts
	// The first row of every page.
	var firsts []graph.NodeID
	for v := graph.NodeID(0); int(v) < numNodes; v++ {
		lo := walk.Off[v]
		if _, found := slices.BinarySearch(pages, lo); found && lo != walk.Off[v+1] {
			firsts = append(firsts, v)
		}
	}
	var nodes []graph.NodeID
	var scores []float32
	for _, v := range firsts { // grow the caller's slices and the arena
		nodes, scores, _ = walk.AppendRow(v, nodes[:0], scores[:0])
	}
	before := s.Stats().Misses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes, scores, _ = walk.AppendRow(firsts[i%len(firsts)], nodes[:0], scores[:0])
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().Misses-before)/float64(b.N), "faults/op")
}
