package cooccur

import (
	"reflect"
	"testing"

	"kqr/internal/graph"
)

// A row must read the same lazily computed and after Pack; see the
// randomwalk analogue for the invariant.
func TestSimRowIdenticalLazyAndPacked(t *testing.T) {
	tg, ex := fixture(t)
	terms := tg.TermNodeIDs()
	lazy := make(map[graph.NodeID][]graph.Scored)
	for _, v := range terms {
		list, err := ex.SimilarNodes(v, 0)
		if err != nil {
			t.Fatal(err)
		}
		lazy[v] = list
	}
	ex.Pack()
	for _, v := range terms {
		got, err := ex.SimilarNodes(v, 0)
		if err != nil || !reflect.DeepEqual(got, lazy[v]) {
			t.Fatalf("term %d: packed row %v != lazy row %v (%v)", v, got, lazy[v], err)
		}
	}
	if got := ex.Computes(); got != int64(len(terms)) {
		t.Fatalf("%d extractions for %d terms", got, len(terms))
	}
}
