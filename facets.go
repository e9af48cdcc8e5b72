package kqr

import (
	"sort"

	"kqr/internal/graph"
)

// Facet groups terms related to a query under one field of the data —
// the conferences around a topic, the authors around a keyword, the
// co-topics around an entity. Facets implement the paper's proposed
// extension of reformulation toward "ad hoc faceted retrieval over
// structured data" (§VII): instead of flat suggestions, the user gets
// the query's neighborhood organized by what kind of thing each related
// term is.
type Facet struct {
	// Field is the source field, as "table.column".
	Field string
	// Terms are the field's terms closest to the query, best first,
	// scores normalized within the facet.
	Terms []RankedTerm
}

// Facets returns, for a query, up to perField related terms per textual
// field, ranked by aggregated closeness to the query terms. Fields with
// no related terms are omitted; facets are ordered by their best term's
// absolute closeness.
func (e *Engine) Facets(terms []string, perField int) ([]Facet, error) {
	if perField < 1 {
		perField = 5
	}
	g := e.cur()
	queryNodes := make([]graph.NodeID, len(terms))
	isQuery := make(map[graph.NodeID]bool, len(terms))
	for i, term := range terms {
		node, err := g.Core.ResolveTerm(term)
		if err != nil {
			return nil, err
		}
		queryNodes[i] = node
		isQuery[node] = true
	}

	// Aggregate closeness over the query terms: a facet term related to
	// several query terms accumulates.
	agg := make(map[graph.NodeID]float64)
	var nodes []graph.NodeID
	var scores []float32
	for _, q := range queryNodes {
		nodes, scores, _ = g.Clos.AppendRow(q, nodes[:0], scores[:0]) // the closeness search never fails
		for i, v := range nodes {
			if !isQuery[v] {
				agg[v] += float64(scores[i])
			}
		}
	}

	byField := make(map[string][]graph.Scored)
	for v, c := range agg {
		field := g.TG.Class(v)
		byField[field] = append(byField[field], graph.Scored{Node: v, Score: c})
	}

	facets := make([]Facet, 0, len(byField))
	for field, list := range byField {
		sort.Slice(list, func(i, j int) bool {
			if list[i].Score != list[j].Score {
				return list[i].Score > list[j].Score
			}
			return list[i].Node < list[j].Node
		})
		if len(list) > perField {
			list = list[:perField]
		}
		f := Facet{Field: field}
		norm := list[0].Score
		for _, sn := range list {
			score := sn.Score
			if norm > 0 {
				score /= norm
			}
			f.Terms = append(f.Terms, RankedTerm{
				Term:  g.TG.TermText(sn.Node),
				Field: field,
				Score: score,
			})
		}
		facets = append(facets, f)
	}
	// Order facets by the (pre-normalization) strength of their best
	// term so the most tightly related field leads.
	best := make(map[string]float64, len(facets))
	for field, list := range byField {
		best[field] = list[0].Score
	}
	sort.Slice(facets, func(i, j int) bool {
		if best[facets[i].Field] != best[facets[j].Field] {
			return best[facets[i].Field] > best[facets[j].Field]
		}
		return facets[i].Field < facets[j].Field
	})
	return facets, nil
}
