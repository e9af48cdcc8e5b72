// Package closeness implements the term-closeness relation of paper
// §IV-C: clos(vi, vj) = Σ_{paths τ: vi→vj} 1/len(τ), computed by a
// level-by-level shortest-path search with per-level pruning.
//
// Following the paper's two-stage sketch ("distance i+1 nodes can be
// easily derived from distance i ones... we maintain top ones and prune
// less frequent"), the search enumerates the *shortest* paths to every
// node reached within MaxLen hops. Each path τ is weighted by its
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
package closeness

import (
	"fmt"
	"sort"

	"kqr/internal/graph"
	"kqr/internal/packed"
	"kqr/internal/tatgraph"
)

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
	// Workers bounds the goroutines used by Precompute's offline
	// fan-out (<= 0 means runtime.GOMAXPROCS(0)).
	Workers int
}

func (o Options) withDefaults() (Options, error) {
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
// the offline stage). Rows are sorted by neighbor node id, so Clos is a
// binary probe over one contiguous row — the decoder's transition hot
// path. It is safe for concurrent use.
type Store struct {
	*packed.Store

	tg   *tatgraph.Graph
	opts Options
}

// New builds a closeness store over a TAT graph.
func New(tg *tatgraph.Graph, opts Options) (*Store, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Store{tg: tg, opts: opts}
	s.Store = packed.NewStore(tg.CSR().NumNodes(), s.search)
	s.Workers = opts.Workers
	return s, nil
}

// search runs the layered shortest-path counting from v and returns the
// closeness of every node reached within MaxLen hops (v itself
// excluded), sorted by node id. The path search cannot fail.
func (s *Store) search(v graph.NodeID) ([]graph.Scored, error) {
	type layerEntry struct {
		node  graph.NodeID
		count float64
	}
	dist := map[graph.NodeID]int{v: 0}
	counts := map[graph.NodeID]float64{v: 1}
	frontier := []layerEntry{{node: v, count: 1}}
	var out []graph.Scored

	csr := s.tg.CSR()
	for depth := 1; depth <= s.opts.MaxLen && len(frontier) > 0; depth++ {
		nextCounts := make(map[graph.NodeID]float64)
		for _, le := range frontier {
			ws := csr.WeightSum(le.node)
			if ws == 0 {
				continue
			}
			scale := le.count / ws
			csr.Neighbors(le.node, func(u graph.NodeID, w float64) bool {
				if d, seen := dist[u]; seen && d < depth {
					return true // already reached by a shorter path
				}
				nextCounts[u] += scale * w
				return true
			})
		}
		next := make([]layerEntry, 0, len(nextCounts))
		for u, c := range nextCounts {
			dist[u] = depth
			counts[u] = c
			out = append(out, graph.Scored{Node: u, Score: c / float64(depth)})
			next = append(next, layerEntry{node: u, count: c})
		}
		if s.opts.Beam > 0 && len(next) > s.opts.Beam {
			sort.Slice(next, func(i, j int) bool {
				if next[i].count != next[j].count {
					return next[i].count > next[j].count
				}
				return next[i].node < next[j].node
			})
			next = next[:s.opts.Beam]
		} else {
			sort.Slice(next, func(i, j int) bool { return next[i].node < next[j].node })
		}
		frontier = next
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out, nil
}

// Clos returns clos(a, b): the shortest-path count from a to b divided
// by the distance, 0 if b is unreachable within MaxLen. Identity is
// defined as 0 — closeness measures co-coverage between *different*
// terms. A packed row is probed without locks or allocation.
func (s *Store) Clos(a, b graph.NodeID) float64 {
	if a == b {
		return 0
	}
	nodes, scores, _ := s.Row(a) // search never fails
	return packed.Probe(nodes, scores, b)
}

// From returns the closeness of every node reachable from v within
// MaxLen hops (v itself excluded) as a scored list in node-id order.
func (s *Store) From(v graph.NodeID) []graph.Scored {
	nodes, scores, _ := s.Row(v) // search never fails
	return packed.Scored(nodes, scores, 0)
}

// CloseNodes returns the k closest nodes to v that pass the keep filter,
// sorted by descending closeness with node id as tie-break. A nil keep
// admits every node.
func (s *Store) CloseNodes(v graph.NodeID, k int, keep func(graph.NodeID) bool) []graph.Scored {
	nodes, scores, _ := s.Row(v) // search never fails
	out := make([]graph.Scored, 0, len(nodes))
	for i, u := range nodes {
		if keep == nil || keep(u) {
			out = append(out, graph.Scored{Node: u, Score: float64(scores[i])})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Node < out[j].Node
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// CloseTerms returns the k closest *term* nodes to v, optionally
// restricted to one class (field label); pass class == "" for any field.
// This regenerates the paper's Table I rows ("ranked close terms",
// "ranked close conferences").
func (s *Store) CloseTerms(v graph.NodeID, k int, class string) []graph.Scored {
	return s.CloseNodes(v, k, func(u graph.NodeID) bool {
		if s.tg.Kind(u) != tatgraph.KindTerm {
			return false
		}
		return class == "" || s.tg.Class(u) == class
	})
}
