package diskmode

import (
	"kqr/internal/artifact"
	"kqr/internal/graph"
	"kqr/internal/packed"
)

// View is a page-backed packed.Table over one paged section —
// similarity or closeness alike (closeness rows are sorted by neighbor
// id in the file, so ProbeRow binary-searches a faulted row exactly as
// a RAM table does). It is the value the root package hands to a row
// store's Install in disk mode, and every miss (absent row, draining
// store, corrupt page) answers ok == false, which the store answers by
// computing the row for its caller without keeping it. Rows leave a
// view only by copy or by probe, under their frame's lock, so no slice
// into a frame outlives the call that read it.
type View struct {
	s *Store
	t *table
}

// AppendRow appends node's row, in file order, to nodes and scores.
func (v *View) AppendRow(node graph.NodeID, nodes []graph.NodeID, scores []float32) ([]graph.NodeID, []float32, bool) {
	f, raw, ok := v.s.pinRow(v.t, node)
	if f != nil {
		nodes, scores = appendEntries(raw, nodes, scores)
		f.mu.RUnlock()
	}
	return nodes, scores, ok
}

// ProbeRow writes the score of each bs[i] in a's row to out[i], 0 when
// absent.
func (v *View) ProbeRow(a graph.NodeID, bs []graph.NodeID, out []float64) bool {
	f, raw, ok := v.s.pinRow(v.t, a)
	if ok {
		probeEntries(raw, bs, out)
	}
	if f != nil {
		f.mu.RUnlock()
	}
	return ok
}

// Table returns the store's page-backed view of the given table kind,
// nil when the file carries no such section.
func (s *Store) Table(kind artifact.TableKind) *View {
	for _, t := range s.tables {
		if t.Kind == kind {
			return &View{s: s, t: t}
		}
	}
	return nil
}

var _ packed.Table = (*View)(nil)
