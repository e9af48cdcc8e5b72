package diskmode

import (
	"kqr/internal/artifact"
	"kqr/internal/graph"
	"kqr/internal/packed"
)

// View is a page-backed packed.Table over one paged section —
// similarity or closeness alike (closeness rows are sorted by neighbor
// id in the file, so packed.Probe works on a faulted row exactly as on
// a RAM one). It is the value the root package hands to a row store's
// Install in disk mode, and every miss (absent row, draining store,
// corrupt page) answers ok == false, which the store answers by
// computing the row for its caller without keeping it.
type View struct {
	s *Store
	t *artifact.PagedTable
}

// Row returns node's row in file order; the slices view a cached page
// and must not be mutated.
func (v *View) Row(node graph.NodeID) ([]graph.NodeID, []float32, bool) {
	return v.s.row(v.t, node)
}

// Table returns the store's page-backed view of the given table kind,
// nil when the file carries no such section.
func (s *Store) Table(kind artifact.TableKind) *View {
	t := s.idx.Table(kind)
	if t == nil {
		return nil
	}
	return &View{s: s, t: t}
}

var _ packed.Table = (*View)(nil)
