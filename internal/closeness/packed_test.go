package closeness

import (
	"context"
	"testing"

	"kqr/internal/graph"
	"kqr/internal/packed"
)

// Clos must return bit-identical values whether a row was just computed
// (overlay) or packed, for every (source, target) pair over the fixture
// vocabulary — including true zeros inside rows — and both must equal
// the raw search output narrowed once to float32.
func TestClosIdenticalLazyPackedAndRaw(t *testing.T) {
	tg, s := fixtureStore(t, Options{})
	terms := tg.TermNodeIDs()
	lazy := make(map[[2]graph.NodeID]float64)
	for _, a := range terms {
		raw, _ := s.search(a)
		want := make(map[graph.NodeID]float64, len(raw))
		for _, sn := range raw {
			want[sn.Node] = float64(packed.Quantize(sn.Score))
		}
		for _, b := range terms {
			c := s.Clos(a, b)
			if a != b && c != want[b] {
				t.Fatalf("Clos(%d, %d) = %v, raw search says %v", a, b, c, want[b])
			}
			lazy[[2]graph.NodeID{a, b}] = c
		}
	}
	searches := s.Computes()
	s.Pack()
	for _, a := range terms {
		for _, b := range terms {
			if got := s.Clos(a, b); got != lazy[[2]graph.NodeID{a, b}] {
				t.Fatalf("Clos(%d, %d): packed %v != lazy %v", a, b, got, lazy[[2]graph.NodeID{a, b}])
			}
		}
	}
	if s.Computes() != searches {
		t.Fatal("packed rows re-ran searches")
	}
}

// Sources the packed table lacks are computed on read, not served as
// all-zero rows.
func TestClosServesSourcesComputedAfterPack(t *testing.T) {
	tg, s := fixtureStore(t, Options{})
	terms := tg.TermNodeIDs()
	if err := s.Precompute(context.Background(), terms[:1]); err != nil {
		t.Fatal(err)
	}
	s.Pack()
	for _, v := range terms[1:] {
		for _, sn := range s.From(v) {
			if sn.Score > 0 {
				if got := s.Clos(v, sn.Node); got != sn.Score {
					t.Fatalf("Clos(%d, %d) = %v after Pack, From says %v", v, sn.Node, got, sn.Score)
				}
				return
			}
		}
	}
	t.Skip("fixture has no nonzero closeness pair outside the packed set")
}
