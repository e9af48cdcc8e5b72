package tatgraph

import "kqr/internal/graph"

// ContextPreference computes the contextual preference vector of
// Algorithm 1 for a starting node t0. The context of a node is its
// direct neighborhood (Definition 6: a term's context is the tuples it
// occurs in; a tuple's context is its terms plus referenced tuples).
//
// Each context node v_c is weighted
//
//	w(v_c) = 1/|F_i| · freq(v_c, t0) · idf(v_c)
//
// where F_i is the field (class) v_c belongs to, |F_i| the number of t0's
// context nodes in that field, freq the co-occurrence count (the TAT edge
// weight), and idf the node's inverse-occurrence weight. The 1/|F_i|
// factor gives every field equal total preference mass so a field with
// many context nodes (e.g. hundreds of title words) does not drown out a
// small one (e.g. two conferences). The result is normalized to sum to 1.
//
// The vector is sparse and sorted by node id — the adjacency order of
// the CSR — so every consumer sums it in one fixed order. It is
// appended to dst (pass nil for a fresh slice; the offline batch passes
// pooled scratch).
//
// An isolated node yields a preference of 1 on itself, degrading to the
// individual random walk.
func (tg *Graph) ContextPreference(dst []graph.Scored, t0 graph.NodeID) []graph.Scored {
	nbrs, weights := tg.g.Adjacency(t0)
	// Class counts live on the stack for any realistic schema.
	var buf [32]int
	fieldSize := buf[:]
	if len(tg.classNames) > len(buf) {
		fieldSize = make([]int, len(tg.classNames))
	}
	for _, v := range nbrs {
		fieldSize[tg.classes[v]]++
	}
	base := len(dst)
	total := 0.0
	for i, v := range nbrs {
		weight := 1 / float64(fieldSize[tg.classes[v]]) * weights[i] * tg.idf[v]
		if weight > 0 {
			dst = append(dst, graph.Scored{Node: v, Score: weight})
			// float64 sums the rounded weight dst holds, never a fused one.
			total += float64(weight)
		}
	}
	if total == 0 {
		return append(dst[:base], graph.Scored{Node: t0, Score: 1})
	}
	for i := base; i < len(dst); i++ {
		dst[i].Score /= total
	}
	return dst
}

// SelfPreference appends the individual-random-walk preference vector
// to dst: all mass on t0 itself. This is the basic model the paper
// improves on (§IV-B2) and the ablation baseline in the benchmarks.
func (tg *Graph) SelfPreference(dst []graph.Scored, t0 graph.NodeID) []graph.Scored {
	return append(dst, graph.Scored{Node: t0, Score: 1})
}
