// Package keywordsearch implements keyword search over the tuple graph
// (paper Definition 3): a query result is a minimal subtree of the data
// graph connecting, for every keyword, a tuple that contains it. The
// implementation follows the classic backward-expanding strategy — run a
// breadth-first expansion from every keyword's match set over the
// foreign-key edges and emit a result rooted at every node reached by
// all expansions, ranked by total connection cost.
//
// The reformulation system itself does not need search to *suggest*
// queries; this package exists to evaluate them (the paper's Table III
// "result size" metric) and to power the demo's result pane (Fig. 6).
package keywordsearch

import (
	"fmt"
	"sort"

	"kqr/internal/graph"
	"kqr/internal/relstore"
	"kqr/internal/tatgraph"
)

// Options bounds the search.
type Options struct {
	// MaxResults caps how many result trees are materialized (default 50).
	MaxResults int
	// MaxRadius caps the hop distance from a root to any keyword match
	// (default 3 — tuple–tuple hops over foreign keys).
	MaxRadius int
}

// Resolve returns o with zero values replaced by their defaults, or the
// first range error. New calls it; a config layer that validates
// options before anything is built calls it too.
func (o Options) Resolve() (Options, error) {
	if o.MaxResults == 0 {
		o.MaxResults = 50
	}
	if o.MaxResults < 1 {
		return o, fmt.Errorf("keywordsearch: MaxResults %d < 1", o.MaxResults)
	}
	if o.MaxRadius == 0 {
		o.MaxRadius = 3
	}
	if o.MaxRadius < 0 {
		return o, fmt.Errorf("keywordsearch: negative MaxRadius %d", o.MaxRadius)
	}
	return o, nil
}

// Result is one answer tree.
type Result struct {
	// Root is the connecting tuple (the tree root in the backward
	// expansion sense).
	Root relstore.TupleID
	// Tuples lists every tuple in the tree, root first, deduplicated.
	Tuples []relstore.TupleID
	// Cost is the total number of foreign-key hops from the root to the
	// chosen match of each keyword; lower is better, 0 means the root
	// itself contains every keyword.
	Cost int
}

// Searcher answers keyword queries over one TAT graph.
type Searcher struct {
	tg   *tatgraph.Graph
	opts Options
}

// New builds a searcher.
func New(tg *tatgraph.Graph, opts Options) (*Searcher, error) {
	opts, err := opts.Resolve()
	if err != nil {
		return nil, err
	}
	return &Searcher{tg: tg, opts: opts}, nil
}

// matchSet returns the tuple nodes containing the keyword in any field.
func (s *Searcher) matchSet(keyword string) []graph.NodeID {
	var out []graph.NodeID
	seen := make(map[graph.NodeID]bool)
	for _, termNode := range s.tg.FindTerm(keyword) {
		s.tg.CSR().Neighbors(termNode, func(v graph.NodeID, _ float64) bool {
			if s.tg.Kind(v) == tatgraph.KindTuple && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// tupleNeighbors iterates FK-connected tuples of a tuple node.
func (s *Searcher) tupleNeighbors(u graph.NodeID, fn func(v graph.NodeID)) {
	s.tg.CSR().Neighbors(u, func(v graph.NodeID, _ float64) bool {
		if s.tg.Kind(v) == tatgraph.KindTuple {
			fn(v)
		}
		return true
	})
}

// expansion is the BFS tree of one keyword's match set.
type expansion struct {
	dist   map[graph.NodeID]int
	parent map[graph.NodeID]graph.NodeID
}

func (s *Searcher) expand(matches []graph.NodeID) expansion {
	e := expansion{
		dist:   make(map[graph.NodeID]int, len(matches)*4),
		parent: make(map[graph.NodeID]graph.NodeID),
	}
	frontier := make([]graph.NodeID, 0, len(matches))
	for _, v := range matches {
		e.dist[v] = 0
		frontier = append(frontier, v)
	}
	for depth := 1; depth <= s.opts.MaxRadius && len(frontier) > 0; depth++ {
		var next []graph.NodeID
		for _, u := range frontier {
			s.tupleNeighbors(u, func(v graph.NodeID) {
				if _, seen := e.dist[v]; seen {
					return
				}
				e.dist[v] = depth
				e.parent[v] = u
				next = append(next, v)
			})
		}
		frontier = next
	}
	return e
}

// Search returns result trees for the keywords, cheapest first, at most
// MaxResults. It also reports the total number of connecting roots found
// (before the cap), which is the paper's "result size".
func (s *Searcher) Search(keywords []string) ([]Result, int, error) {
	if len(keywords) == 0 {
		return nil, 0, fmt.Errorf("keywordsearch: empty query")
	}
	exps := make([]expansion, len(keywords))
	for i, kw := range keywords {
		matches := s.matchSet(kw)
		if len(matches) == 0 {
			return nil, 0, nil // a keyword with no match ⇒ no results
		}
		exps[i] = s.expand(matches)
	}
	// Roots = nodes reached by every expansion. Iterate the smallest
	// distance map for efficiency.
	smallest := 0
	for i := 1; i < len(exps); i++ {
		if len(exps[i].dist) < len(exps[smallest].dist) {
			smallest = i
		}
	}
	type rootCost struct {
		node graph.NodeID
		cost int
	}
	var roots []rootCost
	for v := range exps[smallest].dist {
		cost, ok := 0, true
		for i := range exps {
			d, reached := exps[i].dist[v]
			if !reached {
				ok = false
				break
			}
			cost += d
		}
		if ok && s.isMinimalRoot(v, exps) {
			roots = append(roots, rootCost{node: v, cost: cost})
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		if roots[i].cost != roots[j].cost {
			return roots[i].cost < roots[j].cost
		}
		return roots[i].node < roots[j].node
	})
	// Distinct trees, not distinct roots: rerooting the same connecting
	// tree (e.g. at the writes tuple vs. the author tuple it links) must
	// count once. Definition 3 identifies a result with its node set.
	out := make([]Result, 0, s.opts.MaxResults)
	seenTree := make(map[string]bool)
	total := 0
	for _, rc := range roots {
		res := s.buildResult(rc.node, rc.cost, exps)
		key := treeKey(res.Tuples)
		if seenTree[key] {
			continue
		}
		seenTree[key] = true
		total++
		if len(out) < s.opts.MaxResults {
			out = append(out, res)
		}
	}
	return out, total, nil
}

// isMinimalRoot rejects a root when a single neighbor is strictly closer
// to every keyword: that neighbor's tree is a subtree of this one, so
// this root's tree violates Definition 3's minimality ("no node or edge
// can be removed without losing connectivity or keyword matches").
func (s *Searcher) isMinimalRoot(v graph.NodeID, exps []expansion) bool {
	minimal := true
	s.tupleNeighbors(v, func(u graph.NodeID) {
		if !minimal {
			return
		}
		closerAll := true
		for i := range exps {
			dv := exps[i].dist[v]
			du, ok := exps[i].dist[u]
			if !ok || du != dv-1 {
				closerAll = false
				break
			}
		}
		if closerAll {
			minimal = false
		}
	})
	return minimal
}

// treeKey canonicalizes a tuple set.
func treeKey(tuples []relstore.TupleID) string {
	keys := make([]string, len(tuples))
	for i, id := range tuples {
		keys[i] = id.String()
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += k + "|"
	}
	return out
}

// buildResult walks each expansion's parent chain from the root to a
// keyword match, collecting the tree's tuples.
func (s *Searcher) buildResult(root graph.NodeID, cost int, exps []expansion) Result {
	seen := map[graph.NodeID]bool{root: true}
	order := []graph.NodeID{root}
	for i := range exps {
		for v := root; ; {
			p, ok := exps[i].parent[v]
			if !ok {
				break // reached a keyword match (distance 0)
			}
			if !seen[p] {
				seen[p] = true
				order = append(order, p)
			}
			v = p
		}
	}
	res := Result{Cost: cost}
	if id, ok := s.tg.TupleID(root); ok {
		res.Root = id
	}
	for _, v := range order {
		if id, ok := s.tg.TupleID(v); ok {
			res.Tuples = append(res.Tuples, id)
		}
	}
	return res
}

// ResultSize returns only the number of connecting roots for the
// keywords — the Table III metric — without materializing trees.
func (s *Searcher) ResultSize(keywords []string) (int, error) {
	_, total, err := s.Search(keywords)
	return total, err
}
