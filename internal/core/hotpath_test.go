package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"kqr/internal/catgen"
	"kqr/internal/closeness"
	"kqr/internal/graph"
	"kqr/internal/randomwalk"
	"kqr/internal/relstore"
	"kqr/internal/tatgraph"
	"kqr/internal/testcorpus"
)

// newWarmFixtureEngine builds the full pipeline over the test corpus,
// precomputes every term and packs the stores, so the engine serves
// from the flat path.
func newWarmFixtureEngine(t *testing.T, opts Options) (*tatgraph.Graph, *Engine) {
	t.Helper()
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	return newWarmEngine(t, db, opts)
}

// newWarmEngine is newWarmFixtureEngine over any database.
func newWarmEngine(t *testing.T, db *relstore.Database, opts Options) (*tatgraph.Graph, *Engine) {
	t.Helper()
	tg, err := tatgraph.Build(db, tatgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim := randomwalk.NewExtractor(tg, randomwalk.Contextual, randomwalk.Options{})
	clos, err := closeness.New(tg, closeness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	terms := tg.TermNodeIDs()
	if err := sim.Precompute(context.Background(), terms); err != nil {
		t.Fatal(err)
	}
	if err := clos.Precompute(context.Background(), terms); err != nil {
		t.Fatal(err)
	}
	sim.Pack()
	clos.Pack()
	eng, err := New(tg, sim, clos, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tg, eng
}

var hotpathQueries = [][]string{
	{"uncertain"},
	{"uncertain", "data"},
	{"probabilistic", "query"},
	{"xml", "indexing"},
	{"uncertain", "data", "management"},
}

func sameReformulations(a, b []Reformulation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Score != b[i].Score || len(a[i].Terms) != len(b[i].Terms) {
			return false
		}
		for j := range a[i].Terms {
			if a[i].Terms[j] != b[i].Terms[j] || a[i].Nodes[j] != b[i].Nodes[j] {
				return false
			}
		}
	}
	return true
}

// Tentpole invariant: the pooled path and the allocating Ref path must
// produce bit-identical reformulations (same terms, nodes, and exact
// scores), with and without void states.
func TestReformulateMatchesRefBitIdentical(t *testing.T) {
	for _, opts := range []Options{
		{},
		{AllowDeletion: true},
		{DropOriginal: true},
		{AllowDeletion: true, CandidatesPerTerm: 25},
	} {
		_, eng := newWarmFixtureEngine(t, opts)
		for _, q := range hotpathQueries {
			fast, err := eng.Reformulate(q, 8)
			if err != nil {
				t.Fatalf("opts %+v query %v: %v", opts, q, err)
			}
			ref, err := eng.ReformulateRef(q, 8)
			if err != nil {
				t.Fatalf("opts %+v query %v (ref): %v", opts, q, err)
			}
			if !sameReformulations(fast, ref) {
				t.Fatalf("opts %+v query %v: pooled path diverges from ref path\nfast: %+v\nref:  %+v",
					opts, q, fast, ref)
			}
		}
	}
}

// The cold engine (no Pack called) computes rows into the stores'
// overlays on first use and must still match the ref output.
func TestReformulateMatchesRefCold(t *testing.T) {
	_, eng := newFixtureEngine(t, Options{})
	for _, q := range hotpathQueries {
		fast, err := eng.Reformulate(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := eng.ReformulateRef(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !sameReformulations(fast, ref) {
			t.Fatalf("query %v: cold fast path diverges from ref", q)
		}
	}
}

// VisitReformulations filters each path as the search completes it and
// stops the search at the k-th accepted row; the oracle decodes all
// k+len(query)+2 paths first and then filters them. They must accept
// the same rows where the filter has work to do: identity rows, and
// rows that repeat an accepted row's texts — under void states, through
// the same nodes or, on the catalog corpus, whose texts live in two
// fields, through other nodes. The test requires every kind of drop,
// and searches the stop cut short.
func TestEarlyStopMatchesRefWhereFilterDrops(t *testing.T) {
	c, err := catgen.Generate(catgen.Config{Seed: 1, Products: 200})
	if err != nil {
		t.Fatal(err)
	}
	var all refDrops
	for _, opts := range []Options{{}, {AllowDeletion: true}, {DropOriginal: true}, {CandidatesPerTerm: 25}} {
		tg, eng := newWarmEngine(t, c.DB, opts)
		var texts []string
		for _, v := range tg.TermNodeIDs() {
			texts = append(texts, tg.TermText(v))
		}
		rng := rand.New(rand.NewSource(52))
		var drops refDrops
		cut := 0
		for n := 0; n < 150; n++ {
			q := make([]string, 1+rng.Intn(4))
			for i := range q {
				q[i] = texts[rng.Intn(len(texts))]
			}
			nodes, err := eng.resolve(nil, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 5, 50} {
				fast, err := eng.Reformulate(q, k)
				if err != nil {
					t.Fatal(err)
				}
				ref, d, err := eng.reformulateNodesRef(nodes, k)
				if err != nil {
					t.Fatal(err)
				}
				if !sameReformulations(fast, ref) {
					t.Fatalf("opts %+v query %q k=%d: streamed rows diverge from decode-then-filter\nfast: %+v\nref:  %+v", opts, q, k, fast, ref)
				}
				drops.identity += d.identity
				drops.sameNodes += d.sameNodes
				drops.otherNodes += d.otherNodes
				stats, err := eng.SearchStats(q, k)
				if err != nil {
					t.Fatal(err)
				}
				model, err := eng.BuildQueryModel(q)
				if err != nil {
					t.Fatal(err)
				}
				_, full, err := model.TopKAStar(k + len(q) + 2)
				if err != nil {
					t.Fatal(err)
				}
				if stats.Expanded > full.Expanded || stats.Pushed > full.Pushed {
					t.Fatalf("query %q k=%d: early stop did more work (%+v) than the full decode (%+v)", q, k, stats, *full)
				}
				if stats.Expanded < full.Expanded {
					cut++
				}
			}
		}
		t.Logf("opts %+v: dropped %+v; %d searches stopped early", opts, drops, cut)
		if cut == 0 {
			t.Fatalf("opts %+v: no search stopped early", opts)
		}
		all.identity += drops.identity
		all.sameNodes += drops.sameNodes
		all.otherNodes += drops.otherNodes
	}
	if all.identity == 0 || all.sameNodes == 0 || all.otherNodes == 0 {
		t.Fatalf("dropped %+v; every kind of drop must occur", all)
	}
}

// The whole online stage as a caller sees it — resolve, fetch, build,
// decode, filter, visit — allocates nothing on a warmed engine: what a
// request allocates is what its visitor does. Under void states too,
// where rows drop slots and the filter's duplicate test does real work.
func TestVisitReformulationsZeroAllocsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Put items under the race detector by design; internal/hmm asserts the pool-free zero-alloc invariant under race")
	}
	for _, opts := range []Options{{}, {AllowDeletion: true}} {
		_, eng := newWarmFixtureEngine(t, opts)
		rows, terms := 0, 0
		visitAll := func() {
			for _, q := range hotpathQueries {
				if err := eng.VisitReformulations(q, 10, func(i, n int, r Reformulation) {
					rows++
					terms += len(r.Terms)
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		visitAll()
		visitAll()
		if rows == 0 {
			t.Fatal("nothing visited")
		}
		allocs := testing.AllocsPerRun(100, visitAll)
		if a := testing.AllocsPerRun(100, visitAll); a < allocs {
			allocs = a
		}
		if allocs != 0 {
			t.Fatalf("opts %+v: warmed VisitReformulations allocates %.1f times per sweep, want 0 (%d rows, %d terms)", opts, allocs, rows, terms)
		}
	}
}

// BuildQueryModel hands out a model the caller keeps: it must own its
// scratch rather than alias the engine's pool — unchanged after 1,000
// pooled Reformulate calls on other queries — and equal the oracle
// builder's model element for element.
func TestBuildQueryModelOwnsItsScratch(t *testing.T) {
	for _, opts := range []Options{{}, {AllowDeletion: true}, {DropOriginal: true, CandidatesPerTerm: 25}} {
		_, eng := newWarmFixtureEngine(t, opts)
		query := []string{"xml", "data", "query"} // not one of hotpathQueries
		m, err := eng.BuildQueryModel(query)
		if err != nil {
			t.Fatal(err)
		}
		nodes, err := eng.resolve(nil, query)
		if err != nil {
			t.Fatal(err)
		}
		slots, err := eng.buildSlots(nodes)
		if err != nil {
			t.Fatal(err)
		}
		want := eng.buildModel(slots)
		check := func(when string) {
			t.Helper()
			if len(m.Pi) != len(want.Pi) || len(m.Emit) != len(want.Emit) {
				t.Fatalf("opts %+v, %s: model shape %d/%d, oracle %d/%d",
					opts, when, len(m.Pi), len(m.Emit), len(want.Pi), len(want.Emit))
			}
			for i := range want.Pi {
				if m.Pi[i] != want.Pi[i] {
					t.Fatalf("opts %+v, %s: Pi[%d] = %v, oracle %v", opts, when, i, m.Pi[i], want.Pi[i])
				}
			}
			for c := range want.Emit {
				if len(m.Emit[c]) != len(want.Emit[c]) {
					t.Fatalf("opts %+v, %s: step %d has %d states, oracle %d",
						opts, when, c, len(m.Emit[c]), len(want.Emit[c]))
				}
				for j := range want.Emit[c] {
					if m.Emit[c][j] != want.Emit[c][j] {
						t.Fatalf("opts %+v, %s: Emit[%d][%d] = %v, oracle %v",
							opts, when, c, j, m.Emit[c][j], want.Emit[c][j])
					}
					if c == 0 {
						continue
					}
					for i := range want.Emit[c-1] {
						x := i*len(want.Emit[c]) + j
						if got, w := m.Trans[c][x], want.Trans[c][x]; got != w {
							t.Fatalf("opts %+v, %s: Trans[%d][%d·n+%d] = %v, oracle %v", opts, when, c, i, j, got, w)
						}
					}
				}
			}
		}
		check("fresh")
		for i := 0; i < 1000; i++ {
			if _, err := eng.Reformulate(hotpathQueries[i%len(hotpathQueries)], 8); err != nil {
				t.Fatal(err)
			}
		}
		check("after 1000 pooled Reformulate calls")
	}
}

// The filter on its own: identity and empty rows are dropped, a row
// repeating an accepted row's texts is dropped whatever its nodes, rows
// that merely share a hash-worthy prefix are kept, and a dropped row
// leaves nothing behind for the next one.
func TestRowFilter(t *testing.T) {
	var f rowFilter
	push := func(score float64, identity bool, row ...string) {
		for i, text := range row {
			f.push(graph.NodeID(100*len(f.end)+i), text)
		}
		f.commit(score, identity)
	}
	f.reset()
	push(0.9, false, "a", "b")
	push(0.8, true, "q", "r")  // the query itself
	push(0.7, false)           // every slot void
	push(0.6, false, "a", "b") // same texts, other nodes
	push(0.5, false, "ab")     // not ["a","b"]
	push(0.4, false, "a")
	push(0.3, false, "a", "b", "c")
	var got [][]string
	var scores []float64
	f.visit(func(i, n int, r Reformulation) {
		if n != 4 || i != len(got) || len(r.Nodes) != len(r.Terms) {
			t.Fatalf("visit(%d, %d, %+v)", i, n, r)
		}
		got = append(got, append([]string(nil), r.Terms...))
		scores = append(scores, r.Score)
	})
	want := [][]string{{"a", "b"}, {"ab"}, {"a"}, {"a", "b", "c"}}
	if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(scores) != fmt.Sprint([]float64{0.9, 0.5, 0.4, 0.3}) {
		t.Fatalf("accepted %v %v, want %v", got, scores, want)
	}
	f.reset()
	if f.len() != 0 || len(f.terms) != 0 {
		t.Fatalf("reset left %d rows, %d terms", f.len(), len(f.terms))
	}
}
