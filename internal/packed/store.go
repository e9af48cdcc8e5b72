package packed

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"kqr/internal/flight"
	"kqr/internal/graph"
)

// Store is the row store behind every offline table — random-walk and
// co-occurrence similarity, and closeness. It is in one of two states,
// never a mix:
//
//   - lazy, as built: a row is computed on first use and kept in an
//     overlay, concurrent cold misses for one key sharing one
//     computation;
//   - complete, once Pack, Load or Install publishes a Table (a
//     RAMTable, or a page-backed disk view) holding every term's row:
//     reads take no lock, and a row the table cannot serve (a corrupt
//     or draining page, a node with no row) is computed for that caller
//     and not kept.
//
// It is safe for concurrent use.
type Store struct {
	// Workers bounds the goroutines of Precompute's fan-out (<= 0 means
	// runtime.GOMAXPROCS(0)). Set it before any concurrent use.
	Workers int

	numNodes int
	// compute fills rows[i] with nodes[i]'s row, for at most batch
	// nodes per call. A row must not depend on what shares its call:
	// Row asks for one node, Precompute for batch at a time.
	compute func(nodes []graph.NodeID, rows [][]graph.Scored) error
	batch   int

	// pk is boxed because atomic.Pointer needs a concrete type; nil
	// while the store is lazy.
	pk atomic.Pointer[published]

	mu      sync.Mutex // guards overlay, and publication against it
	overlay map[graph.NodeID]Row

	flight   flight.Group[graph.NodeID, Row]
	computes atomic.Int64
}

type published struct{ t Table }

// NewStore builds an empty, lazy store over a graph of numNodes nodes.
// compute produces v's row in its final entry order (rank order for
// similarity, neighbor-id order for closeness); the store narrows it to
// row form once, on entry.
func NewStore(numNodes int, compute func(v graph.NodeID) ([]graph.Scored, error)) *Store {
	return NewBatchStore(numNodes, 1, func(nodes []graph.NodeID, rows [][]graph.Scored) (err error) {
		rows[0], err = compute(nodes[0])
		return err
	})
}

// NewBatchStore is NewStore for an extractor that computes up to batch
// rows in one call cheaper than one by one (the random walk's
// multi-column solver pass): compute fills rows[i] for nodes[i], and
// each row must come out the same bits whatever else is in the call.
func NewBatchStore(numNodes, batch int, compute func(nodes []graph.NodeID, rows [][]graph.Scored) error) *Store {
	return &Store{numNodes: numNodes, compute: compute, batch: batch, overlay: make(map[graph.NodeID]Row)}
}

// table returns the published table, nil while the store is lazy.
func (s *Store) table() Table {
	if b := s.pk.Load(); b != nil {
		return b.t
	}
	return nil
}

// Complete reports whether the store is complete: a table is published
// (Pack, Load or Install) and serves every read.
func (s *Store) Complete() bool { return s.table() != nil }

// Row returns v's row. A packed row is served without locks or
// allocation — the query hot path. The slices are read-only views.
func (s *Store) Row(v graph.NodeID) ([]graph.NodeID, []float32, error) {
	if t := s.table(); t != nil {
		if nodes, scores, ok := t.Row(v); ok {
			return nodes, scores, nil
		}
		rows, err := s.fill([]graph.NodeID{v})
		if err != nil {
			return nil, nil, err
		}
		return rows[0].Nodes, rows[0].Scores, nil
	}
	// Lazy: the overlay, or a computation shared by concurrent cold
	// misses for v.
	if r, ok := s.kept(v); ok {
		return r.Nodes, r.Scores, nil
	}
	r, err := s.flight.Do(v, func() (Row, error) {
		// Re-check: this caller may have missed just before a previous
		// flight for v kept its row.
		if r, ok := s.kept(v); ok {
			return r, nil
		}
		rows, err := s.fill([]graph.NodeID{v})
		if err != nil {
			return Row{}, err
		}
		return rows[0], nil
	})
	return r.Nodes, r.Scores, err
}

// kept looks v up in the overlay.
func (s *Store) kept(v graph.NodeID) (Row, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.overlay[v]
	return r, ok
}

// fill computes the rows of nodes (at most batch of them) and returns
// them in the order of nodes, keeping them in the overlay only while no
// table is published.
func (s *Store) fill(nodes []graph.NodeID) ([]Row, error) {
	s.computes.Add(int64(len(nodes)))
	lists := make([][]graph.Scored, len(nodes))
	if err := s.compute(nodes, lists); err != nil {
		return nil, err
	}
	rows := make([]Row, len(nodes))
	for i, list := range lists {
		rows[i] = NewRow(list)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.table() == nil {
		for i, v := range nodes {
			s.overlay[v] = rows[i]
		}
	}
	return rows, nil
}

// Computes returns how many rows were actually computed — cold misses,
// Precompute chunks and a complete store's misses, excluding coalesced
// Row callers.
func (s *Store) Computes() int64 { return s.computes.Load() }

// Precompute computes the rows of the given nodes (the paper's offline
// stage) into a lazy store's overlay, in chunks of the extractor's
// batch size over a pool of Workers goroutines — rows are independent,
// so throughput scales with cores; a complete store returns at once.
// The first error stops the pool and is returned wrapped with the id of
// the failing chunk's first node (the offending node itself when the
// batch size is 1); ctx cancellation stops scheduling and returns the
// context's error. Follow with Pack.
func (s *Store) Precompute(ctx context.Context, nodes []graph.NodeID) error {
	if s.Complete() {
		return nil
	}
	chunks := (len(nodes) + s.batch - 1) / s.batch
	return flight.ForEach(ctx, s.Workers, chunks, func(i int) error {
		chunk := nodes[i*s.batch : min((i+1)*s.batch, len(nodes))]
		if _, err := s.fill(chunk); err != nil {
			return fmt.Errorf("packed: precompute node %d: %w", chunk[0], err)
		}
		return nil
	})
}

// Pack publishes a lazy store's overlay as a RAMTable, making the store
// complete — after a Precompute over every term, the full table. A
// complete store has nothing to pack.
func (s *Store) Pack() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.table() != nil {
		return
	}
	total := 0
	for _, r := range s.overlay {
		total += len(r.Nodes)
	}
	s.publishLocked(s.collect(total, func(v graph.NodeID) ([]graph.NodeID, []float32, bool) {
		r, ok := s.overlay[v]
		return r.Nodes, r.Scores, ok
	}).Table(s.numNodes))
}

// Load publishes the given rows, indexed, as the store's table — the
// bulk entry at the artifact boundary (snapshot load, follower
// bootstrap). Rows are trusted as-is; callers must ensure they were
// computed over an identically built graph and hold every term's row.
// The store takes over the rows' entry arrays.
func (s *Store) Load(rows *Rows) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publishLocked(rows.Table(s.numNodes))
}

// Install publishes an externally built table — a page-backed disk view
// (internal/diskmode) — as the store's table. It must hold every term's
// row; one it cannot serve right now (a draining disk store, a corrupt
// page) is computed for its caller and not kept.
func (s *Store) Install(t Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publishLocked(t)
}

// publishLocked makes t the store's table and drops the overlay. The
// caller holds mu.
func (s *Store) publishLocked(t Table) {
	s.pk.Store(&published{t: t})
	s.overlay = make(map[graph.NodeID]Row)
}

// Rows copies the published table — every row it holds, in ascending
// node order — into serial form: the store's side of the artifact
// boundary. A lazy store returns nil: its overlay is this process's
// cache, never a table, and does not cross the boundary.
func (s *Store) Rows() *Rows {
	t := s.table()
	if t == nil {
		return nil
	}
	total := 0 // exact for a RAM table; a paged view's rows grow the arrays
	if ram, ok := t.(*RAMTable); ok {
		total = len(ram.nodes)
	}
	return s.collect(total, t.Row)
}

// collect copies every row get reports, in ascending node order, into
// serial form sized for total entries.
func (s *Store) collect(total int, get func(graph.NodeID) ([]graph.NodeID, []float32, bool)) *Rows {
	out := &Rows{Nodes: make([]graph.NodeID, 0, total), Scores: make([]float32, 0, total)}
	for v := graph.NodeID(0); int(v) < s.numNodes; v++ {
		if nodes, scores, ok := get(v); ok {
			dn, ds := out.Append(v, len(nodes))
			copy(dn, nodes)
			copy(ds, scores)
		}
	}
	return out
}

// Ranked reads a Store whose rows are rank-ordered candidate lists —
// the similarity accessors shared by the random-walk and co-occurrence
// extractors.
type Ranked struct{ *Store }

// SimRow returns t0's candidate row in rank order (best first, scores
// normalized so the best is 1) — the allocation-free read the decoder
// uses. ok is false only when the row could not be computed.
func (r Ranked) SimRow(t0 graph.NodeID) ([]graph.NodeID, []float32, bool) {
	nodes, scores, err := r.Row(t0)
	return nodes, scores, err == nil
}

// SimilarNodes returns up to k similar nodes of t0 as a scored list
// (k <= 0 means the whole row), reporting why a row could not be
// computed.
func (r Ranked) SimilarNodes(t0 graph.NodeID, k int) ([]graph.Scored, error) {
	nodes, scores, err := r.Row(t0)
	if err != nil {
		return nil, err
	}
	return Scored(nodes, scores, k), nil
}

// Sim returns the similarity of candidate t to t0: its row score, or 0
// if t is not among t0's kept candidates. Identity is defined as 1.
func (r Ranked) Sim(t0, t graph.NodeID) (float64, error) {
	if t0 == t {
		return 1, nil
	}
	nodes, scores, err := r.Row(t0)
	if err != nil {
		return 0, err
	}
	for i, v := range nodes {
		if v == t {
			return float64(scores[i]), nil
		}
	}
	return 0, nil
}
