package closeness

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"kqr/internal/graph"
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

// Every row of every node — terms and tuples, exact and beam-pruned, at
// several horizons — equals the map search's in every bit, also when
// the searches share pooled scratch across goroutines.
func TestSearchBitIdenticalToMapSearch(t *testing.T) {
	fixture, _ := fixtureStore(t, Options{})
	for name, tg := range map[string]*tatgraph.Graph{"testcorpus": fixture, "dblpgen P=200": dblpGraph(t, 200)} {
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
						if want := mapSearch(tg, s.opts, graph.NodeID(v)); !slices.Equal(got, want) {
							t.Errorf("%s %+v: node %d: dense search row differs from the map search's", name, opts, v)
							return
						}
					}
				}(w)
			}
			wg.Wait()
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
