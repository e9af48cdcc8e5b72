package packed

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"kqr/internal/graph"
)

// fakeRow is the deterministic row of v in the test stores: v%4 entries
// (so every fourth row is computed-but-empty), id-sorted.
func fakeRow(v graph.NodeID) []graph.Scored {
	var out []graph.Scored
	for i := 0; i < int(v)%4; i++ {
		out = append(out, graph.Scored{Node: v + graph.NodeID(i) + 1, Score: 1 / float64(i+3)})
	}
	return out
}

func newFakeStore(n int) *Store {
	return NewStore(n, func(v graph.NodeID) ([]graph.Scored, error) { return fakeRow(v), nil })
}

// rowsOf reads every node's row through the store.
func rowsOf(t *testing.T, s *Store, n int) []Row {
	t.Helper()
	out := make([]Row, n)
	for v := range out {
		nodes, scores, err := s.Row(graph.NodeID(v))
		if err != nil {
			t.Fatal(err)
		}
		out[v] = Row{Nodes: append([]graph.NodeID{}, nodes...), Scores: append([]float32{}, scores...)}
	}
	return out
}

// The store's one property: a row is the same whether it was just
// computed (overlay), packed, bulk-loaded or read through an installed
// view — and a computed-empty row is held, never recomputed.
func TestStoreRowIdenticalInEveryForm(t *testing.T) {
	const n = 40
	s := newFakeStore(n)
	lazy := rowsOf(t, s, n)
	if got := s.Computes(); got != n {
		t.Fatalf("computed %d rows for %d nodes", got, n)
	}
	if len(s.overlay) != n {
		t.Fatalf("%d overlay rows for %d computed", len(s.overlay), n)
	}
	for v, r := range lazy {
		if want := NewRow(fakeRow(graph.NodeID(v))); len(r.Nodes) != len(want.Nodes) {
			t.Fatalf("row %d has %d entries, want %d", v, len(r.Nodes), len(want.Nodes))
		}
	}

	s.Pack()
	if got := rowsOf(t, s, n); !reflect.DeepEqual(got, lazy) {
		t.Fatal("rows changed across Pack")
	}
	if tab, ok := s.table().(*RAMTable); !ok || tab.Rows() != n || len(s.overlay) != 0 {
		t.Fatalf("Pack left table %T / %d overlay rows", s.table(), len(s.overlay))
	}

	// Export → bulk load into a fresh store (the artifact boundary).
	exported := s.Rows()
	if len(exported.Src) != n {
		t.Fatalf("Rows exported %d of %d rows", len(exported.Src), n)
	}
	loaded := newFakeStore(n)
	loaded.Load(exported)
	if got := rowsOf(t, loaded, n); !reflect.DeepEqual(got, lazy) {
		t.Fatal("rows changed across Rows → Load")
	}

	// The loaded store's table installed as an external view of a third.
	viewed := newFakeStore(n)
	viewed.Install(loaded.table())
	if got := rowsOf(t, viewed, n); !reflect.DeepEqual(got, lazy) {
		t.Fatal("rows changed through an installed view")
	}

	// None of the re-reads — empty rows included — computed anything.
	if s.Computes() != n || loaded.Computes() != 0 || viewed.Computes() != 0 {
		t.Fatalf("held rows recomputed: %d/%d/%d", s.Computes(), loaded.Computes(), viewed.Computes())
	}
}

// Pack publishes the overlay as the table and leaves the store
// complete: Precompute and a second Pack change nothing, and a row
// computed after the Pack is not kept.
func TestStorePackFoldsOverlayIntoTable(t *testing.T) {
	s := newFakeStore(16)
	s.Row(3)
	s.Row(7)
	s.Pack()
	for _, v := range []graph.NodeID{3, 7} {
		if _, _, ok := s.table().Row(v); !ok {
			t.Fatalf("row %d missing from the packed table", v)
		}
	}
	tab := s.table()
	if err := s.Precompute(context.Background(), []graph.NodeID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	s.Row(9)
	s.Pack()
	if !s.Complete() || s.table() != tab || len(s.overlay) != 0 || s.Computes() != 3 {
		t.Fatalf("complete %v, table replaced %v, %d overlay rows, %d computed: want the packed table alone and 3 rows computed",
			s.Complete(), s.table() != tab, len(s.overlay), s.Computes())
	}
}

// halfView serves even rows only, like a disk view missing some rows.
type halfView struct{ t Table }

func (h halfView) Row(v graph.NodeID) ([]graph.NodeID, []float32, bool) {
	if v%2 != 0 {
		return nil, nil, false
	}
	return h.t.Row(v)
}

// An installed view answers first; a row it cannot serve is computed
// for each caller and never kept; and Pack leaves the view published.
func TestStoreInstalledView(t *testing.T) {
	const n = 12
	full := newFakeStore(n)
	want := rowsOf(t, full, n)
	full.Pack()

	s := newFakeStore(n)
	s.Install(halfView{full.table()})
	for pass := 1; pass <= 2; pass++ {
		if got := rowsOf(t, s, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: rows differ through a partial view", pass)
		}
		if s.Computes() != int64(pass*n/2) || len(s.overlay) != 0 {
			t.Fatalf("pass %d: %d rows computed, %d kept; want %d computed, none kept",
				pass, s.Computes(), len(s.overlay), pass*n/2)
		}
	}
	s.Pack()
	if _, ok := s.table().(halfView); !ok {
		t.Fatalf("Pack replaced the installed view with %T", s.table())
	}
}

// 32 concurrent cold misses for one key run exactly one computation:
// overlapping misses coalesce onto the first caller, stragglers find
// the overlay. Run with -race to also prove the handoff is sound.
func TestStoreConcurrentColdMissSingleCompute(t *testing.T) {
	s := newFakeStore(64)
	const n = 32
	start := make(chan struct{})
	results := make([][]graph.NodeID, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			nodes, _, err := s.Row(11)
			if err != nil {
				t.Error(err)
			}
			results[i] = nodes
		}(i)
	}
	close(start)
	wg.Wait()
	if got := s.Computes(); got != 1 {
		t.Fatalf("%d concurrent cold misses ran %d computations, want exactly 1", n, got)
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d saw a different row than caller 0", i)
		}
	}
}

// Parallel Precompute computes each node once and produces the same
// rows as the sequential path.
func TestStorePrecomputeParallelMatchesSequential(t *testing.T) {
	const n = 50
	nodes := make([]graph.NodeID, n)
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	seq, par := newFakeStore(n), newFakeStore(n)
	seq.Workers, par.Workers = 1, 8
	for _, s := range []*Store{seq, par} {
		if err := s.Precompute(context.Background(), nodes); err != nil {
			t.Fatal(err)
		}
		if s.Computes() != n {
			t.Fatalf("precompute ran %d computations for %d nodes", s.Computes(), n)
		}
		s.Pack()
	}
	if !reflect.DeepEqual(rowsOf(t, seq, n), rowsOf(t, par, n)) {
		t.Fatal("parallel precompute produced different rows than sequential")
	}
}

// Precompute surfaces compute failures with the node id and stops on a
// cancelled context.
func TestStorePrecomputeErrors(t *testing.T) {
	boom := errors.New("boom")
	s := NewStore(8, func(v graph.NodeID) ([]graph.Scored, error) {
		if v == 5 {
			return nil, boom
		}
		return nil, nil
	})
	err := s.Precompute(context.Background(), []graph.NodeID{1, 5})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "node 5") {
		t.Fatalf("err = %v, want boom naming node 5", err)
	}
	if _, _, err := s.Row(5); !errors.Is(err, boom) {
		t.Fatalf("Row(5) err = %v", err)
	}
	if _, _, ok := (Ranked{s}).SimRow(5); ok {
		t.Fatal("SimRow reported ok for a failed row")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := newFakeStore(8).Precompute(ctx, make([]graph.NodeID, 64)); err == nil {
		t.Fatal("cancelled precompute returned nil")
	}
}

// Readers racing Pack and Load must always see a complete, correct row
// (run under -race).
func TestStoreReadersRacePackAndLoad(t *testing.T) {
	const n = 64
	s := newFakeStore(n)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := graph.NodeID(w); ; v = (v + 5) % n {
				select {
				case <-stop:
					return
				default:
				}
				nodes, scores, err := s.Row(v)
				if err != nil || len(nodes) != int(v)%4 || len(scores) != len(nodes) {
					t.Errorf("row %d: %d nodes, %d scores, err %v", v, len(nodes), len(scores), err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		s.Pack()
		if i%10 == 9 {
			one := &Rows{}
			nodes, scores := one.Append(1, 1)
			r := NewRow(fakeRow(1))
			copy(nodes, r.Nodes)
			copy(scores, r.Scores)
			s.Load(one)
		}
	}
	close(stop)
	wg.Wait()
}

func TestRankedAccessors(t *testing.T) {
	r := Ranked{NewStore(8, func(v graph.NodeID) ([]graph.Scored, error) {
		return []graph.Scored{{Node: 2, Score: 1}, {Node: 5, Score: 0.5}, {Node: 6, Score: 0.25}}, nil
	})}
	list, err := r.SimilarNodes(0, 2)
	if err != nil || len(list) != 2 || list[0] != (graph.Scored{Node: 2, Score: 1}) {
		t.Fatalf("SimilarNodes(0, 2) = %v, %v", list, err)
	}
	if all, _ := r.SimilarNodes(0, 0); len(all) != 3 {
		t.Fatalf("SimilarNodes(0, 0) returned %d entries, want the whole row", len(all))
	}
	for _, tc := range []struct {
		t    graph.NodeID
		want float64
	}{{0, 1}, {5, 0.5}, {7, 0}} {
		if got, err := r.Sim(0, tc.t); err != nil || got != tc.want {
			t.Fatalf("Sim(0, %d) = %v, %v, want %v", tc.t, got, err, tc.want)
		}
	}
}
