package randomwalk

import (
	"testing"

	"kqr/internal/graph"
	"kqr/internal/packed"
)

// A row must read the same whether it was just computed (overlay) or
// packed: same candidates, same order, scores on the float32 grid, all
// equal to the raw walk output narrowed once.
func TestSimRowIdenticalLazyPackedAndRaw(t *testing.T) {
	tg := fixtureGraph(t)
	ex := NewExtractor(tg, Contextual, Options{})
	terms := tg.TermNodeIDs()

	for pass, name := range []string{"lazy", "packed"} {
		if pass == 1 {
			ex.Pack()
		}
		for _, v := range terms {
			var rows [1][]graph.Scored
			if err := ex.extract([]graph.NodeID{v}, rows[:]); err != nil {
				t.Fatal(err)
			}
			raw := rows[0]
			nodes, scores, ok := ex.SimRow(v)
			if !ok || len(nodes) != len(raw) {
				t.Fatalf("%s: term %d row has %d entries (ok=%v), walk has %d", name, v, len(nodes), ok, len(raw))
			}
			for i := range raw {
				if nodes[i] != raw[i].Node || scores[i] != packed.Quantize(raw[i].Score) {
					t.Fatalf("%s: term %d rank %d: row (%d, %v), walk (%d, %v)",
						name, v, i, nodes[i], scores[i], raw[i].Node, raw[i].Score)
				}
			}
		}
	}
	if got := ex.Computes(); got != int64(len(terms)) {
		t.Fatalf("%d walks through the store for %d terms", got, len(terms))
	}
}
