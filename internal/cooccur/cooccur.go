// Package cooccur implements the frequent co-occurrence similarity
// baseline the paper compares against (§VI-A, citing result-analysis
// work [15]): two terms are similar in proportion to how often they
// occur together. "Together" means within one local record context — the
// same tuple for attribute words, or directly linked tuples for entity
// names (so the baseline can find an author's co-authors, as the paper
// notes, but never the colleagues connected only through conferences or
// shared vocabulary). That locality is exactly what the contextual
// random walk transcends, and what Table II / Figure 5 measure.
package cooccur

import (
	"sort"

	"kqr/internal/graph"
	"kqr/internal/packed"
	"kqr/internal/tatgraph"
)

// maxDepth bounds the search for the nearest co-occurrence ring:
// term → tuple → term covers attribute words sharing a tuple (distance
// 2); term → entity → record → entity' → term' covers entity names
// sharing a record, e.g. co-authors of one paper (distance 4, with
// association tables collapsed to edges).
const maxDepth = 4

// Extractor ranks same-class terms by local co-occurrence counts: its
// extract function counts paths from one source, and the embedded row
// store (packed.Ranked) caches, packs and serves the results exactly as
// it does for the random walk — SimRow / SimilarNodes / Sim for reads,
// Precompute (bounded by the promoted Workers field) and Pack for the
// offline stage. It is safe for concurrent use.
type Extractor struct {
	packed.Ranked

	tg *tatgraph.Graph
}

// NewExtractor builds a co-occurrence extractor over a TAT graph.
func NewExtractor(tg *tatgraph.Graph) *Extractor {
	e := &Extractor{tg: tg}
	e.Ranked = packed.Ranked{Store: packed.NewStore(tg.CSR().NumNodes(), e.extract)}
	return e
}

// maxKept mirrors randomwalk's row bound.
const maxKept = 64

// extract ranks up to maxKept same-class nodes by co-occurrence count
// with t0, scores normalized so the best candidate is 1. The count of a
// candidate is the number of (shortest) connection paths within the
// local context radius, so a pair sharing three tuples outranks a pair
// sharing one. The bounded path-count from t0 keeps only the
// *nearest* ring at which same-class nodes appear: attribute words stop
// at their shared tuples (distance 2) without picking up terms of linked
// records, while entity names reach through one shared record (distance
// 4). This is what makes the baseline strictly local — frequent
// co-occurrence, nothing transitive.
func (e *Extractor) extract(t0 graph.NodeID) ([]graph.Scored, error) {
	csr := e.tg.CSR()
	dist := map[graph.NodeID]int{t0: 0}
	counts := map[graph.NodeID]float64{t0: 1}
	frontier := []graph.NodeID{t0}
	found := make(map[graph.NodeID]float64)

	for depth := 1; depth <= maxDepth && len(frontier) > 0 && len(found) == 0; depth++ {
		nextCounts := make(map[graph.NodeID]float64)
		for _, u := range frontier {
			cu := counts[u]
			csr.Neighbors(u, func(v graph.NodeID, w float64) bool {
				if d, seen := dist[v]; seen && d < depth {
					return true
				}
				// Weight the first hop by the occurrence edge weight (a
				// term used three times in a title co-occurs three
				// times); later hops propagate path counts.
				step := cu
				if depth == 1 {
					step = w
				}
				nextCounts[v] += step
				return true
			})
		}
		var next []graph.NodeID
		for v, c := range nextCounts {
			dist[v] = depth
			counts[v] = c
			next = append(next, v)
			if v != t0 && e.tg.SameClass(v, t0) {
				found[v] = c
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		frontier = next
	}

	out := make([]graph.Scored, 0, len(found))
	for v, c := range found {
		out = append(out, graph.Scored{Node: v, Score: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Node < out[j].Node
	})
	if len(out) > maxKept {
		out = out[:maxKept]
	}
	if len(out) > 0 && out[0].Score > 0 {
		norm := out[0].Score
		for i := range out {
			out[i].Score /= norm
		}
	}
	return out, nil
}
