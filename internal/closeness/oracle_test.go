package closeness

import (
	"context"
	"slices"
	"sort"
	"sync"
	"testing"

	"kqr/internal/graph"
	"kqr/internal/packed"
	"kqr/internal/tatgraph"
)

// mapSearch is the search this package shipped before the pooled dense
// arrays — three maps per search, reflective sorts — kept verbatim as
// the oracle: the dense search must return its rows bit for bit.
func mapSearch(tg *tatgraph.Graph, opts Options, v graph.NodeID) []graph.Scored {
	type layerEntry struct {
		node  graph.NodeID
		count float64
	}
	dist := map[graph.NodeID]int{v: 0}
	counts := map[graph.NodeID]float64{v: 1}
	frontier := []layerEntry{{node: v, count: 1}}
	var out []graph.Scored

	csr := tg.CSR()
	for depth := 1; depth <= opts.MaxLen && len(frontier) > 0; depth++ {
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
		if opts.Beam > 0 && len(next) > opts.Beam {
			sort.Slice(next, func(i, j int) bool {
				if next[i].count != next[j].count {
					return next[i].count > next[j].count
				}
				return next[i].node < next[j].node
			})
			next = next[:opts.Beam]
		} else {
			sort.Slice(next, func(i, j int) bool { return next[i].node < next[j].node })
		}
		frontier = next
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// termsOf restricts a row to its term nodes, order kept.
func termsOf(tg *tatgraph.Graph, row []graph.Scored) []graph.Scored {
	var out []graph.Scored
	for _, sn := range row {
		if tg.Kind(sn.Node) == tatgraph.KindTerm {
			out = append(out, sn)
		}
	}
	return out
}

// oracleCorpora are the graphs the search is compared on.
func oracleCorpora(t *testing.T) map[string]*tatgraph.Graph {
	fixture, _ := fixtureStore(t, Options{})
	return map[string]*tatgraph.Graph{"testcorpus": fixture, "dblpgen P=200": dblpGraph(t, 200)}
}

// Every row of every source — terms and tuples, exact and beam-pruned,
// at several horizons — equals the map search's row restricted to term
// nodes, entry for entry and in every bit, also when the searches share
// pooled scratch across goroutines. The oracle itself stays unfiltered:
// it still emits the tuples the paths run through.
func TestSearchBitIdenticalToMapSearch(t *testing.T) {
	for name, tg := range oracleCorpora(t) {
		for _, opts := range []Options{{}, {Beam: 3}, {Beam: 40}, {MaxLen: 1}, {MaxLen: 6, Beam: 25}} {
			s, err := New(tg, opts)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for v := w; v < tg.NumNodes(); v += 3 {
						got, _ := s.search(graph.NodeID(v))
						if want := termsOf(tg, mapSearch(tg, s.opts, graph.NodeID(v))); !slices.Equal(got, want) {
							t.Errorf("%s %+v: node %d: dense search row differs from the term entries of the map search's", name, opts, v)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		}
	}
}

// Dropping the tuples from the rows changed no term value: Clos(a, b) is
// the unfiltered oracle's entry for b in a's row (narrowed once to
// float32) for every ordered pair of terms. (Packed rows read like lazy
// ones: TestClosIdenticalLazyPackedAndRaw.)
func TestClosMatchesUnfilteredOracle(t *testing.T) {
	for name, tg := range oracleCorpora(t) {
		s, err := New(tg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		terms := tg.TermNodeIDs()
		for _, a := range terms {
			want := make(map[graph.NodeID]float64)
			for _, sn := range mapSearch(tg, s.opts, a) {
				want[sn.Node] = float64(packed.Quantize(sn.Score))
			}
			for _, b := range terms {
				if got := s.Clos(a, b); a != b && got != want[b] {
					t.Fatalf("%s: Clos(%d, %d) = %v, the unfiltered oracle says %v", name, a, b, got, want[b])
				}
			}
		}
	}
}

// CloseTerms is the ranking the node-level rows gave: the unfiltered
// oracle row, tuples (and other classes) filtered out afterwards, by
// descending closeness with node id as tie-break.
func TestCloseTermsMatchOracleRanking(t *testing.T) {
	for name, tg := range oracleCorpora(t) {
		s, err := New(tg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range tg.TermNodeIDs() {
			oracle := termsOf(tg, mapSearch(tg, s.opts, v))
			for _, class := range append([]string{""}, tg.Classes()...) {
				var want []graph.Scored
				for _, sn := range oracle {
					if class == "" || tg.Class(sn.Node) == class {
						want = append(want, graph.Scored{Node: sn.Node, Score: float64(packed.Quantize(sn.Score))})
					}
				}
				sort.Slice(want, func(i, j int) bool {
					if want[i].Score != want[j].Score {
						return want[i].Score > want[j].Score
					}
					return want[i].Node < want[j].Node
				})
				if got := s.CloseTerms(v, 0, class); !slices.Equal(got, want) {
					t.Fatalf("%s: CloseTerms(%d, 0, %q) = %v, oracle ranking %v", name, v, class, got, want)
				}
				if got := s.CloseTerms(v, 7, class); !slices.Equal(got, want[:min(7, len(want))]) {
					t.Fatalf("%s: CloseTerms(%d, 7, %q) = %v, oracle ranking %v", name, v, class, got, want)
				}
			}
		}
	}
}

// Every entry of every precomputed row — terms as sources, and tuples
// too — is a term node, and the row is still strictly node-sorted: what
// the packed probe, the snapshot and a replica rely on.
func TestRowsHoldOnlyTerms(t *testing.T) {
	for name, tg := range oracleCorpora(t) {
		s, err := New(tg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		all := make([]graph.NodeID, tg.NumNodes())
		for v := range all {
			all[v] = graph.NodeID(v)
		}
		if err := s.Precompute(context.Background(), all); err != nil {
			t.Fatal(err)
		}
		s.Pack()
		entries := 0
		for _, v := range all {
			row := s.From(v)
			entries += len(row)
			for j, sn := range row {
				if tg.Kind(sn.Node) != tatgraph.KindTerm {
					t.Fatalf("%s: row %d holds non-term node %d", name, v, sn.Node)
				}
				if sn.Node == v || j > 0 && row[j-1].Node >= sn.Node {
					t.Fatalf("%s: row %d is not strictly node-sorted without its source: %v", name, v, row)
				}
			}
		}
		if entries == 0 || s.Computes() != int64(len(all)) {
			t.Fatalf("%s: %d entries, %d searches for %d precomputed sources", name, entries, s.Computes(), len(all))
		}
	}
}

// In steady state a search allocates nothing but the row it returns.
func TestSearchAllocatesOnlyItsRow(t *testing.T) {
	tg, s := fixtureStore(t, Options{Beam: 5})
	v := term(t, tg, "papers.title", "uncertain")
	sc := new(scratch)
	s.searchIn(sc, v)
	if allocs := testing.AllocsPerRun(50, func() { s.searchIn(sc, v) }); allocs > 1 {
		t.Fatalf("a search allocates %v times", allocs)
	}
}

// BenchmarkSearch measures one closeness search on the experiment-scale
// graph with warm scratch: the per-term cost of the offline stage. The
// one allocation is the returned row.
func BenchmarkSearch(b *testing.B) {
	tg := dblpGraph(b, 3000)
	s, err := New(tg, Options{})
	if err != nil {
		b.Fatal(err)
	}
	v := tg.FindTerm("probabilistic")[0]
	s.search(v)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.search(v)
	}
}
