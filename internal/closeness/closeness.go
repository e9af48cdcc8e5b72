// Package closeness implements the term-closeness relation of paper
// §IV-C: clos(vi, vj) = Σ_{paths τ: vi→vj} 1/len(τ), computed by a
// level-by-level shortest-path search with per-level pruning.
//
// Following the paper's two-stage sketch ("distance i+1 nodes can be
// easily derived from distance i ones... we maintain top ones and prune
// less frequent"), the search enumerates the *shortest* paths to every
// term reached within MaxLen hops. Each path τ is weighted by its
// traversal probability — the product of normalized edge weights along
// it — rather than counted raw: the number of length-d paths between two
// hub-adjacent nodes grows combinatorially with d, and unweighted counts
// would rank a distance-4 pair bridged by a few generic hub terms above
// a pair sharing twenty tuples directly. Weighting by traversal
// probability keeps the paper's "frequency and length information of
// paths" while making multiplicity mean something:
//
//	clos(vi, vj) = Σ_{shortest τ: vi→vj} P(τ) / len(τ)
//
// Unlike the random walk, which blends all routes into a global
// stationary score, this keeps explicit length and multiplicity — the
// paper's argument for using a separate metric to estimate result
// coverage.
//
// Closeness is a term → term relation (Eq. 3; read as the transition
// clos(q'_{i-1}, q'_i) of Eq. 8). Paths between terms run through tuple
// nodes, so the search traverses them like any node, but a row holds
// only the terms reached — searchIn decides that, nothing downstream.
package closeness

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"kqr/internal/graph"
	"kqr/internal/packed"
	"kqr/internal/tatgraph"
)

// Rows names what a row holds: the terms reached, not the tuples the
// paths ran through. Rows with the tuples answer Clos(term, term) alike
// but are other bytes, so the tag sits beside randomwalk.Solver in every
// fingerprint that lets persisted or replicated tables stand in for
// locally computed ones.
const Rows = "term/1"

// Options tunes the path search.
type Options struct {
	// MaxLen bounds path length in hops (default 4: term–tuple–term–
	// tuple–term reaches terms related through one intermediate tuple
	// chain, e.g. same conference or same author).
	MaxLen int
	// Beam keeps only the Beam highest-count nodes per level (0 =
	// unlimited). Pruning bounds work on hub-heavy graphs at the cost
	// of exactness, mirroring the paper's "prune less frequent".
	Beam int
}

// Resolve returns o with the zero MaxLen replaced by its default, or
// the first range error. New calls it; a config layer that must know
// the effective hop bound before anything is built calls it too.
func (o Options) Resolve() (Options, error) {
	if o.MaxLen == 0 {
		o.MaxLen = 4
	}
	if o.MaxLen < 1 {
		return o, fmt.Errorf("closeness: MaxLen %d < 1", o.MaxLen)
	}
	if o.Beam < 0 {
		return o, fmt.Errorf("closeness: negative Beam %d", o.Beam)
	}
	return o, nil
}

// Store computes closeness rows per source node: its search function
// runs the layered path search for one source, and the embedded row
// store caches, packs and serves the results (Precompute and Pack for
// the offline stage). Rows are sorted by neighbor node id, so ClosRow
// is one pass of binary searches over one row, every candidate searched
// in lockstep (packed.ProbeEntries) — the decoder's transition hot
// path. It is safe for concurrent use.
type Store struct {
	*packed.Store

	tg      *tatgraph.Graph
	opts    Options
	scratch sync.Pool // *scratch, one per concurrent search
	pairs   sync.Pool // *pair, one per concurrent Clos
}

// New builds a closeness store over a TAT graph.
func New(tg *tatgraph.Graph, opts Options) (*Store, error) {
	opts, err := opts.Resolve()
	if err != nil {
		return nil, err
	}
	s := &Store{tg: tg, opts: opts}
	s.scratch.New = func() any { return new(scratch) }
	s.pairs.New = func() any { return new(pair) }
	s.Store = packed.NewStore(tg.CSR().NumNodes(), s.search)
	return s, nil
}

// layerEntry is one node of a search level with the path mass that
// reached it.
type layerEntry struct {
	node  graph.NodeID
	count float64
}

// scratch is the working memory of one search, pooled across searches:
// dense per-node arrays that are never cleared — a search epoch says
// which entries belong to the running search — plus the level lists.
type scratch struct {
	// level[u] >= epoch exactly when the running search has reached u,
	// at depth level[u]-epoch. Each search advances epoch past every
	// value the previous one could have written.
	level []int64
	epoch int64
	// mass[u] is the path mass arriving at u, valid for nodes of the
	// level being built.
	mass     []float64
	touched  []graph.NodeID // nodes first reached at the level being built
	frontier []layerEntry
	next     []layerEntry
	out      []graph.Scored
}

// search runs the layered shortest-path counting from v and returns the
// closeness of every term node reached within MaxLen hops (v itself
// excluded), sorted by node id. The path search cannot fail.
//
// Mass is accumulated in frontier order, and the frontier of an
// unpruned level is in node-id order, so a row is a fixed sequence of
// float64 additions whatever memory it is computed in.
func (s *Store) search(v graph.NodeID) ([]graph.Scored, error) {
	sc := s.scratch.Get().(*scratch)
	defer s.scratch.Put(sc)
	return s.searchIn(sc, v), nil
}

// searchIn is search in the given working memory; besides the returned
// row it allocates only to grow sc.
func (s *Store) searchIn(sc *scratch, v graph.NodeID) []graph.Scored {
	csr := s.tg.CSR()
	if len(sc.level) == 0 {
		sc.level = make([]int64, csr.NumNodes())
		sc.mass = make([]float64, csr.NumNodes())
	}
	sc.epoch += int64(s.opts.MaxLen) + 1
	epoch := sc.epoch
	sc.level[v] = epoch
	frontier, next, out := append(sc.frontier[:0], layerEntry{node: v, count: 1}), sc.next, sc.out[:0]

	for depth := 1; depth <= s.opts.MaxLen && len(frontier) > 0; depth++ {
		here := epoch + int64(depth)
		touched := sc.touched[:0]
		for _, le := range frontier {
			ws := csr.WeightSum(le.node)
			if ws == 0 {
				continue
			}
			scale := le.count / ws
			nbrs, weights := csr.Adjacency(le.node)
			for i, u := range nbrs {
				switch l := sc.level[u]; {
				case l < epoch:
					sc.level[u] = here
					sc.mass[u] = scale * weights[i]
					touched = append(touched, u)
				case l == here:
					sc.mass[u] += float64(scale * weights[i])
				} // otherwise already reached by a shorter path
			}
		}
		sc.touched = touched
		next = next[:0]
		for _, u := range touched {
			c := sc.mass[u]
			if s.tg.Kind(u) == tatgraph.KindTerm {
				out = append(out, graph.Scored{Node: u, Score: c / float64(depth)})
			}
			next = append(next, layerEntry{node: u, count: c})
		}
		if s.opts.Beam > 0 && len(next) > s.opts.Beam {
			slices.SortFunc(next, func(a, b layerEntry) int {
				if a.count != b.count {
					return cmp.Compare(b.count, a.count)
				}
				return cmp.Compare(a.node, b.node)
			})
			next = next[:s.opts.Beam]
		} else {
			slices.SortFunc(next, func(a, b layerEntry) int { return cmp.Compare(a.node, b.node) })
		}
		frontier, next = next, frontier
	}
	sc.frontier, sc.next, sc.out = frontier, next, out
	slices.SortFunc(out, func(a, b graph.Scored) int { return cmp.Compare(a.Node, b.Node) })
	return slices.Clone(out)
}

// Clos returns clos(a, b): the shortest-path count from a to b divided
// by the distance, 0 if b is unreachable within MaxLen. Identity is
// defined as 0 — closeness measures co-coverage between *different*
// terms. It is ClosRow for one candidate, and like it allocates nothing
// on a packed row.
func (s *Store) Clos(a, b graph.NodeID) float64 {
	p := s.pairs.Get().(*pair)
	p.b[0] = b
	s.ClosRow(a, p.b[:], p.c[:])
	c := p.c[0]
	s.pairs.Put(p)
	return c
}

// pair is Clos's one-candidate probe, pooled: a slice handed to a
// table's ProbeRow escapes, so a stack array would cost an allocation
// per call.
type pair struct {
	b [1]graph.NodeID
	c [1]float64
}

// ClosRow writes clos(a, bs[i]) to out[i] for every candidate, reading
// a's row once — one probe per candidate of a row, not one row read per
// pair: the decoder's transition hot path. out must be at least len(bs)
// long.
func (s *Store) ClosRow(a graph.NodeID, bs []graph.NodeID, out []float64) {
	s.ProbeRow(a, bs, out) // search never fails
	for i, b := range bs {
		if b == a {
			out[i] = 0
		}
	}
}

// From returns the closeness of every term reachable from v within
// MaxLen hops (v itself excluded) as a scored list in node-id order.
func (s *Store) From(v graph.NodeID) []graph.Scored {
	nodes, scores, _ := s.AppendRow(v, nil, nil) // search never fails
	return packed.Scored(nodes, scores, 0)
}

// CloseTerms returns the k closest terms to v (all of them for k <= 0),
// sorted by descending closeness with node id as tie-break, optionally
// restricted to one class (field label); pass class == "" for any field.
// This regenerates the paper's Table I rows ("ranked close terms",
// "ranked close conferences").
func (s *Store) CloseTerms(v graph.NodeID, k int, class string) []graph.Scored {
	out := s.From(v)
	if class != "" {
		out = slices.DeleteFunc(out, func(sn graph.Scored) bool { return s.tg.Class(sn.Node) != class })
	}
	slices.SortFunc(out, func(a, b graph.Scored) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return cmp.Compare(a.Node, b.Node)
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
