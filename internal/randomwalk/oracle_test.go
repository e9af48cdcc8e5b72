package randomwalk

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"kqr/internal/graph"
	"kqr/internal/tatgraph"
)

// powerIteration is the solver this package shipped before the SOR
// kernel — push-form Jacobi power iteration with the dangling mass
// re-measured every iteration — kept as the oracle. Run to 1e-13 it is
// the fixed point the kernel is measured against; run with the old
// defaults (1e-8, which it never reached, so 60 iterations) it is "the
// old result".
func powerIteration(g *graph.Graph, pref []graph.Scored, damping, epsilon float64, maxIter int) []float64 {
	n := g.NumNodes()
	r := make([]float64, n)
	total := 0.0
	for _, e := range pref {
		r[e.Node] = e.Score
		total += e.Score
	}
	for i := range r {
		r[i] /= total
	}
	p := make([]float64, n)
	copy(p, r)
	next := make([]float64, n)
	for iters := 0; iters < maxIter; iters++ {
		dangling := 0.0
		for i := range next {
			next[i] = 0
		}
		for u := 0; u < n; u++ {
			mass := p[u]
			if mass == 0 {
				continue
			}
			ws := g.WeightSum(graph.NodeID(u))
			if ws == 0 {
				dangling += mass
				continue
			}
			scale := damping * mass / ws
			g.Neighbors(graph.NodeID(u), func(v graph.NodeID, w float64) bool {
				next[v] += scale * w
				return true
			})
		}
		restart := (1 - damping) + damping*dangling
		diff := 0.0
		for i := range next {
			next[i] += restart * r[i]
			diff += math.Abs(next[i] - p[i])
		}
		p, next = next, p
		if diff < epsilon {
			break
		}
	}
	return p
}

func fixedPoint(g *graph.Graph, pref []graph.Scored, damping float64) []float64 {
	return powerIteration(g, pref, damping, 1e-13, 100000)
}

func oldResult(g *graph.Graph, pref []graph.Scored, damping float64) []float64 {
	return powerIteration(g, pref, damping, 1e-8, 60)
}

// topNodes is the old row cut: sort every kept node, keep k.
func topNodes(scores []float64, k int, keep func(graph.NodeID) bool) []graph.Scored {
	var out []graph.Scored
	for i, s := range scores {
		if v := graph.NodeID(i); s > 0 && keep(v) {
			out = append(out, graph.Scored{Node: v, Score: s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Node < out[j].Node
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func l1(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}

// checkAgainstOracle holds one solve to its contract: within 1e-7 (L1)
// of the fixed point, and no further from it than the old solver's
// result unless both are already inside epsilon (at low damping the old
// solver did converge, and which of two converged answers is closer is
// noise); a probability distribution; stopped by convergence, not by
// the maxIter cap.
func checkAgainstOracle(t *testing.T, name string, g *graph.Graph, pref []graph.Scored, damping float64) {
	t.Helper()
	got, sweeps, err := Scores(g, pref, Options{Damping: damping})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := fixedPoint(g, pref, damping)
	errNew, errOld := l1(got, want), l1(oldResult(g, pref, damping), want)
	if errNew > 1e-7 || (errNew > errOld && errNew > 1e-8) {
		t.Fatalf("%s (λ=%v, %d sweeps): L1 to the fixed point %.3g (old solver %.3g), want <= 1e-7 and no worse",
			name, damping, sweeps, errNew, errOld)
	}
	sum := 0.0
	for v, s := range got {
		if !(s >= 0) {
			t.Fatalf("%s: node %d scored %v", name, v, s)
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-7 {
		t.Fatalf("%s: scores sum to %v", name, sum)
	}
	if sweeps >= maxIter {
		t.Fatalf("%s (λ=%v): hit the maxIter cap", name, damping)
	}
}

var dampings = []float64{0.3, 0.8, 0.95}

// shapes are the hand-made graphs of the property tests, each with the
// preferences worth solving on it.
func shapes(t *testing.T) map[string]struct {
	g     *graph.Graph
	prefs [][]graph.Scored
} {
	build := func(n int, edges ...[3]float64) *graph.Graph {
		b := graph.NewBuilder()
		for i := 0; i < n; i++ {
			b.AddNode()
		}
		for _, e := range edges {
			if err := b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]), e[2]); err != nil {
				t.Fatal(err)
			}
		}
		return b.Build()
	}
	star := make([][3]float64, 0, 9)
	for i := 1; i < 10; i++ {
		star = append(star, [3]float64{0, float64(i), float64(i)})
	}
	type shape = struct {
		g     *graph.Graph
		prefs [][]graph.Scored
	}
	return map[string]shape{
		"single node": {build(1), [][]graph.Scored{on(0)}},
		"star":        {build(10, star...), [][]graph.Scored{on(0), on(7), {{Node: 1, Score: 2}, {Node: 9, Score: 1}}}},
		"two components": {
			build(6, [3]float64{0, 1, 1}, [3]float64{1, 2, 3}, [3]float64{3, 4, 1}, [3]float64{4, 5, 2}),
			[][]graph.Scored{on(0), on(4), {{Node: 2, Score: 1}, {Node: 3, Score: 1}}},
		},
		// Nodes 0 and 4 are isolated: all, part and none of the
		// preference on them.
		"isolated nodes": {
			build(5, [3]float64{1, 2, 1}, [3]float64{2, 3, 2}),
			[][]graph.Scored{on(0), {{Node: 0, Score: 1}, {Node: 4, Score: 3}}, {{Node: 0, Score: 1}, {Node: 2, Score: 1}}, on(3)},
		},
	}
}

func TestKernelMatchesOracleOnShapes(t *testing.T) {
	for name, sh := range shapes(t) {
		for _, damping := range dampings {
			for i, pref := range sh.prefs {
				checkAgainstOracle(t, fmt.Sprintf("%s pref %d", name, i), sh.g, pref, damping)
			}
		}
	}
}

// randomGraph draws a sparse weighted graph with some isolated nodes.
func randomGraph(t *testing.T, rng *rand.Rand, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode()
	}
	for i := 0; i < 2*n; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u == v || u%7 == 3 || v%7 == 3 { // every seventh node stays isolated
			continue
		}
		if err := b.AddEdge(u, v, 1+float64(rng.Intn(4))); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestKernelMatchesOracleOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(20120401))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(60)
		g := randomGraph(t, rng, n)
		var pref []graph.Scored
		for v := 0; v < n; v++ {
			if rng.Intn(4) == 0 {
				pref = append(pref, graph.Scored{Node: graph.NodeID(v), Score: rng.Float64()})
			}
		}
		if len(pref) == 0 {
			pref = on(graph.NodeID(rng.Intn(n)))
		}
		checkAgainstOracle(t, fmt.Sprintf("trial %d", trial), g, pref, dampings[trial%len(dampings)])
	}
}

// corpora are the TAT graphs of the property tests: the hand-written
// test corpus and a generated DBLP-like one.
func corpora(t *testing.T) map[string]*tatgraph.Graph {
	return map[string]*tatgraph.Graph{"testcorpus": fixtureGraph(t), "dblpgen P=300": dblpGraph(t, 300)}
}

func TestKernelMatchesOracleOnCorpora(t *testing.T) {
	for name, tg := range corpora(t) {
		terms := tg.TermNodeIDs()
		// Every term of the small corpus, every third of the large one
		// (the 1e-13 oracle is the slow side).
		step := 1 + len(terms)/200
		if testing.Short() {
			step = 17
		}
		for i := 0; i < len(terms); i += step {
			// The default damping on each, the others on a sample.
			for _, damping := range dampings {
				if damping != 0.8 && i%(8*step) != 0 {
					continue
				}
				checkAgainstOracle(t, fmt.Sprintf("%s term %d", name, terms[i]), tg.CSR(),
					tg.ContextPreference(nil, terms[i]), damping)
			}
		}
	}
}

// extractRows runs starts through e.extract in passes of the given
// sizes (cycled), returning the raw float64 rows by node.
func extractRows(t *testing.T, e *Extractor, starts []graph.NodeID, sizes ...int) map[graph.NodeID][]graph.Scored {
	t.Helper()
	out := make(map[graph.NodeID][]graph.Scored, len(starts))
	for k := 0; len(starts) > 0; k++ {
		size := min(sizes[k%len(sizes)], len(starts))
		rows := make([][]graph.Scored, size)
		if err := e.extract(starts[:size], rows); err != nil {
			t.Fatal(err)
		}
		for i, v := range starts[:size] {
			out[v] = rows[i]
		}
		starts = starts[size:]
	}
	return out
}

// A row is the same bits alone, in a full pass, in a ragged pass, next
// to any other start terms, on any number of workers, and through the
// store's lazy miss path.
func TestRowsIndependentOfBatchAndWorkers(t *testing.T) {
	for name, tg := range corpora(t) {
		for _, mode := range []PreferenceMode{Contextual, Individual} {
			terms := tg.TermNodeIDs()
			if testing.Short() && len(terms) > 120 {
				terms = terms[:120]
			}
			alone := extractRows(t, NewExtractor(tg, mode, Options{}), terms, 1)
			shuffled := append([]graph.NodeID(nil), terms...)
			rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for label, got := range map[string]map[graph.NodeID][]graph.Scored{
				"passes of 8":          extractRows(t, NewExtractor(tg, mode, Options{}), terms, width),
				"ragged, shuffled":     extractRows(t, NewExtractor(tg, mode, Options{}), shuffled, 3, 8, 1, 5, 2, 7),
				"reused scratch, of 2": extractRows(t, NewExtractor(tg, mode, Options{}), shuffled, 8, 2),
			} {
				if !reflect.DeepEqual(got, alone) {
					t.Fatalf("%s %v: rows in %s differ from rows solved alone", name, mode, label)
				}
			}

			// Through the store: batch precompute at several worker
			// counts and the lazy path must narrow to the same rows.
			want := make(map[graph.NodeID][]graph.Scored)
			lazy := NewExtractor(tg, mode, Options{})
			for _, v := range terms {
				row, err := lazy.SimilarNodes(v, 0)
				if err != nil {
					t.Fatal(err)
				}
				want[v] = row
			}
			for _, workers := range []int{1, 2, 7} {
				ex := NewExtractor(tg, mode, Options{})
				ex.Workers = workers
				if err := ex.Precompute(context.Background(), shuffled); err != nil {
					t.Fatal(err)
				}
				if ex.Computes() != int64(len(terms)) {
					t.Fatalf("%d rows computed for %d terms", ex.Computes(), len(terms))
				}
				for _, v := range terms {
					if row, _ := ex.SimilarNodes(v, 0); !reflect.DeepEqual(row, want[v]) {
						t.Fatalf("%s %v: term %d precomputed on %d workers differs from its lazy row", name, mode, v, workers)
					}
				}
			}
		}
	}
}

// The rows the new solver ranks equal the old solver's, except where
// two candidates' (normalized, idf-weighted) scores were closer than
// 1e-6 — differences the old solver's own 9e-8 error could not order.
func TestRowsMatchOldSolverUpToTies(t *testing.T) {
	for name, tg := range corpora(t) {
		ex := NewExtractor(tg, Contextual, Options{})
		terms := tg.TermNodeIDs()
		if testing.Short() && len(terms) > 120 {
			terms = terms[:120]
		}
		for _, t0 := range terms {
			old := oldResult(tg.CSR(), tg.ContextPreference(nil, t0), 0.8)
			for v := range old {
				old[v] *= tg.IDF(graph.NodeID(v))
			}
			oldRow := topNodes(old, maxKept, func(v graph.NodeID) bool { return v != t0 && tg.SameClass(v, t0) })
			row, err := ex.SimilarNodes(t0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(row) != len(oldRow) {
				t.Fatalf("%s term %d: %d candidates, old solver %d", name, t0, len(row), len(oldRow))
			}
			for i := range row {
				if row[i].Node == oldRow[i].Node {
					continue
				}
				if gap := math.Abs(old[row[i].Node]-old[oldRow[i].Node]) / oldRow[0].Score; gap >= 1e-6 {
					t.Fatalf("%s term %d rank %d: node %d, old solver node %d, and their old scores differ by %.3g",
						name, t0, i, row[i].Node, oldRow[i].Node, gap)
				}
			}
		}
	}
}

// In steady state a pass allocates nothing but the rows it returns.
func TestPassAllocatesOnlyItsRows(t *testing.T) {
	tg := fixtureGraph(t)
	ex := NewExtractor(tg, Contextual, Options{})
	starts := tg.TermNodeIDs()[:width]
	rows := make([][]graph.Scored, width)
	sc := new(scratch)
	pass := func() {
		if err := ex.pass(sc, starts, rows); err != nil {
			t.Fatal(err)
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(20, pass); allocs > width {
		t.Fatalf("a pass of %d rows allocates %v times", width, allocs)
	}
}

func TestSweepsCounted(t *testing.T) {
	tg := fixtureGraph(t)
	ex := NewExtractor(tg, Contextual, Options{})
	terms := tg.TermNodeIDs()
	if err := ex.Precompute(context.Background(), terms); err != nil {
		t.Fatal(err)
	}
	per := float64(ex.Sweeps()) / float64(ex.Computes())
	if ex.Computes() != int64(len(terms)) || per < 2 || per >= 60 {
		t.Fatalf("%d rows, %.1f sweeps per row: want every term once, converged below the cap", ex.Computes(), per)
	}
}
