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
// co-occurrence similarity, and closeness. It owns the published Table
// (a RAMTable, or a page-backed disk view) behind an atomic pointer, a
// small overlay of rows computed since the last Pack, and the compute
// function that produces missing rows. Every read is the same lookup:
// published table (lock-free), then overlay, then compute — with
// concurrent cold Row misses for one key coalesced into a single
// computation (Precompute skips rows already held but does not join a
// Row miss still in flight; the duplicate is the same bits). It is safe
// for concurrent use.
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

	// pk is boxed because atomic.Pointer needs a concrete type.
	pk atomic.Pointer[published]

	mu      sync.Mutex
	overlay map[graph.NodeID]Row

	flight   flight.Group[graph.NodeID, Row]
	computes atomic.Int64
}

type published struct{ t Table }

// NewStore builds an empty store over a graph of numNodes nodes.
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

// table returns the published table, nil before the first Pack, Load
// or Install.
func (s *Store) table() Table {
	if b := s.pk.Load(); b != nil {
		return b.t
	}
	return nil
}

// held looks v up in the published table, then the overlay.
func (s *Store) held(v graph.NodeID) ([]graph.NodeID, []float32, bool) {
	if t := s.table(); t != nil {
		if nodes, scores, ok := t.Row(v); ok {
			return nodes, scores, true
		}
	}
	s.mu.Lock()
	r, ok := s.overlay[v]
	s.mu.Unlock()
	return r.Nodes, r.Scores, ok
}

// Row returns v's row, computing it on first use. A packed row is
// served without locks or allocation — the query hot path. The slices
// are read-only views.
func (s *Store) Row(v graph.NodeID) ([]graph.NodeID, []float32, error) {
	if nodes, scores, ok := s.held(v); ok {
		return nodes, scores, nil
	}
	// Coalesce concurrent cold misses for v: the first caller computes,
	// the rest block and share its row.
	r, err := s.flight.Do(v, func() (Row, error) {
		// Re-check: this caller may have missed before a previous
		// flight for v completed and published.
		if nodes, scores, ok := s.held(v); ok {
			return Row{Nodes: nodes, Scores: scores}, nil
		}
		rows, err := s.fill([]graph.NodeID{v})
		if err != nil {
			return Row{}, err
		}
		return rows[0], nil
	})
	return r.Nodes, r.Scores, err
}

// fill computes the rows of nodes (at most batch of them), puts them in
// the overlay and returns them in the order of nodes.
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
	for i, v := range nodes {
		s.overlay[v] = rows[i]
	}
	return rows, nil
}

// Computes returns how many rows were actually computed — cold misses
// and Precompute chunks, excluding held rows and coalesced Row callers.
// A row a Row miss and a Precompute chunk compute at the same moment
// counts twice.
func (s *Store) Computes() int64 { return s.computes.Load() }

// Precompute computes the rows of the given nodes (the paper's offline
// stage) that the store does not hold yet, in chunks of the extractor's
// batch size over a pool of Workers goroutines — rows are independent,
// so throughput scales with cores. The first error stops the pool and
// is returned wrapped with the id of the failing chunk's first node (the
// offending node itself when the batch size is 1); ctx cancellation
// stops scheduling and returns the context's error. A worker drops the
// rows of its chunk that a concurrent Row or Precompute has filled in
// the meantime. Follow with Pack.
func (s *Store) Precompute(ctx context.Context, nodes []graph.NodeID) error {
	todo := make([]graph.NodeID, 0, len(nodes))
	queued := make(map[graph.NodeID]bool, len(nodes))
	for _, v := range nodes {
		if _, _, ok := s.held(v); !ok && !queued[v] {
			queued[v] = true
			todo = append(todo, v)
		}
	}
	chunks := (len(todo) + s.batch - 1) / s.batch
	return flight.ForEach(ctx, s.Workers, chunks, func(i int) error {
		// Chunks are disjoint, so compacting one in place is private.
		chunk := todo[i*s.batch : min((i+1)*s.batch, len(todo))]
		missing := chunk[:0]
		for _, v := range chunk {
			if _, _, ok := s.held(v); !ok {
				missing = append(missing, v)
			}
		}
		if len(missing) == 0 {
			return nil
		}
		chunk = missing
		if _, err := s.fill(chunk); err != nil {
			return fmt.Errorf("packed: precompute node %d: %w", chunk[0], err)
		}
		return nil
	})
}

// Pack folds the overlay into a new RAMTable, publishes it and clears
// the overlay. While a page-backed view is published (Install) Pack
// leaves it in place: folding would decode the whole file into RAM,
// which is what disk mode bounds, and the overlay keeps serving the few
// rows the view could not.
func (s *Store) Pack() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.table(); t != nil {
		if _, ram := t.(*RAMTable); !ram {
			return
		}
	}
	s.pk.Store(&published{t: s.rowsLocked().Table(s.numNodes)})
	s.overlay = make(map[graph.NodeID]Row)
}

// Load replaces everything the store holds with the given rows,
// indexed — the bulk entry at the artifact boundary (snapshot load,
// follower bootstrap). Rows are trusted as-is; callers must ensure they
// were computed over an identically built graph. The store takes over
// the rows' entry arrays.
func (s *Store) Load(rows *Rows) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pk.Store(&published{t: rows.Table(s.numNodes)})
	s.overlay = make(map[graph.NodeID]Row)
}

// Install publishes an externally built table — a page-backed disk view
// (internal/diskmode) — in place of the RAM table. A row it cannot
// serve (ok false, e.g. a draining disk store) is computed like any
// missing row.
func (s *Store) Install(t Table) { s.pk.Store(&published{t: t}) }

// Rows copies every held row (published table and overlay), in
// ascending node order, into serial form — the store's side of the
// artifact boundary. The copy, taken under the store's lock, is what
// makes a snapshot consistent: a writer sizes a section and then
// streams it, and rows computed in between must not appear in one and
// not the other.
func (s *Store) Rows() *Rows {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rowsLocked()
}

func (s *Store) rowsLocked() *Rows {
	t := s.table()
	total := 0 // exact for a RAM table; a paged view's rows grow the arrays
	for _, r := range s.overlay {
		total += len(r.Nodes)
	}
	if ram, ok := t.(*RAMTable); ok {
		total += len(ram.nodes)
	}
	out := &Rows{Nodes: make([]graph.NodeID, 0, total), Scores: make([]float32, 0, total)}
	for v := 0; v < s.numNodes; v++ {
		var r Row
		ok := false
		if t != nil {
			r.Nodes, r.Scores, ok = t.Row(graph.NodeID(v))
		}
		if !ok {
			r, ok = s.overlay[graph.NodeID(v)]
		}
		if ok {
			nodes, scores := out.Append(graph.NodeID(v), len(r.Nodes))
			copy(nodes, r.Nodes)
			copy(scores, r.Scores)
		}
	}
	return out
}

// Resident returns how many rows the store holds in RAM — RAMTable
// rows plus overlay rows, in O(1). An installed disk view contributes
// nothing: zero means "never warmed, loaded, or touched".
func (s *Store) Resident() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.overlay)
	if t, ok := s.table().(*RAMTable); ok {
		n += t.Rows()
	}
	return n
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
