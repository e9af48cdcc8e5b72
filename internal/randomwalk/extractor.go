package randomwalk

import (
	"fmt"
	"sync"
	"sync/atomic"

	"kqr/internal/graph"
	"kqr/internal/packed"
	"kqr/internal/tatgraph"
)

// PreferenceMode selects how the restart distribution is built.
type PreferenceMode int

const (
	// Contextual restarts at the start node's context (Algorithm 1) —
	// the paper's improved model.
	Contextual PreferenceMode = iota
	// Individual restarts at the start node itself — the basic model,
	// kept as the ablation baseline (paper §IV-B2, Fig. 4).
	Individual
)

// String names the mode.
func (m PreferenceMode) String() string {
	if m == Individual {
		return "individual"
	}
	return "contextual"
}

// Extractor performs similar-term extraction over a TAT graph: its
// extract function runs the contextual walk for up to eight start nodes
// in one solver pass, and the embedded row store (packed.Ranked) caches,
// packs and serves the results — SimRow / SimilarNodes / Sim for reads,
// Precompute and Pack for the offline stage. It is safe for concurrent
// use.
type Extractor struct {
	packed.Ranked

	tg   *tatgraph.Graph
	mode PreferenceMode

	// The solver's view of the graph; bad options surface as the error
	// of every row.
	sys    *system
	sysErr error

	scratch sync.Pool // *scratch, one per concurrent pass
	sweeps  atomic.Int64
}

// scratch is the working memory of one pass, reused across passes.
type scratch struct {
	p, b []float64             // node-major, width columns
	pref []graph.Scored        // one start node's preference
	heap [maxKept]graph.Scored // the row being cut, worst kept entry first
}

// NewExtractor builds an extractor. Options zero-values get defaults.
func NewExtractor(tg *tatgraph.Graph, mode PreferenceMode, opts Options) *Extractor {
	e := &Extractor{tg: tg, mode: mode}
	e.sys, e.sysErr = newSystem(tg.CSR(), opts)
	e.scratch.New = func() any { return new(scratch) }
	e.Ranked = packed.Ranked{Store: packed.NewBatchStore(tg.CSR().NumNodes(), width, e.extract)}
	return e
}

// Mode returns the extractor's preference mode.
func (e *Extractor) Mode() PreferenceMode { return e.mode }

// Sweeps returns the total number of solver sweeps spent on the rows
// computed so far, summed per row — Sweeps()/Computes() is the mean
// sweeps per term.
func (e *Extractor) Sweeps() int64 { return e.sweeps.Load() }

// maxKept bounds how many similar nodes are kept per start node; 64
// comfortably exceeds any candidate-list size used online (paper Fig. 10
// tops out at 50).
const maxKept = 64

// extract runs the walk for each start node (at most width of them, one
// solver column each) and stores in rows[i] up to maxKept nodes of the
// same class as starts[i], ranked by contextual random-walk score,
// excluding the start itself. Scores are normalized so the best
// candidate scores 1; downstream emission probabilities renormalize
// anyway, and relative order is what matters. A row does not depend on
// which other starts share its pass.
func (e *Extractor) extract(starts []graph.NodeID, rows [][]graph.Scored) error {
	sc := e.scratch.Get().(*scratch)
	defer e.scratch.Put(sc)
	return e.pass(sc, starts, rows)
}

// pass is extract in the given working memory; besides the returned
// rows it allocates only to grow sc.
func (e *Extractor) pass(sc *scratch, starts []graph.NodeID, rows [][]graph.Scored) error {
	if e.sysErr != nil {
		return e.sysErr
	}
	size := e.sys.numNodes() * width
	if cap(sc.p) < size {
		sc.p, sc.b = make([]float64, size), make([]float64, size)
	}
	p, b := sc.p[:size], sc.b[:size]
	clear(p)
	clear(b)
	for col, t0 := range starts {
		if e.mode == Contextual {
			sc.pref = e.tg.ContextPreference(sc.pref[:0], t0)
		} else {
			sc.pref = e.tg.SelfPreference(sc.pref[:0], t0)
		}
		if err := e.sys.load(p, b, col, sc.pref); err != nil {
			return fmt.Errorf("start node %d: %w", t0, err)
		}
	}
	e.sys.solve(p, b, len(starts), func(col, sweeps int) {
		e.sweeps.Add(int64(sweeps))
		rows[col] = e.cut(sc.heap[:0], p, col, starts[col])
	})
	return nil
}

// worse orders kept candidates: lower score first, and among equal
// scores the higher node id, so rows rank by score descending with node
// id as the deterministic tie-break.
func worse(a, b graph.Scored) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Node > b.Node
}

// siftDown restores the worst-first heap below position i.
func siftDown(h []graph.Scored, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && worse(h[c+1], h[c]) {
			c++
		}
		if !worse(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// cut ranks column col of p over the start node's class and returns
// the best maxKept, using h (empty, capacity maxKept) as a bounded
// worst-first heap.
func (e *Extractor) cut(h []graph.Scored, p []float64, col int, t0 graph.NodeID) []graph.Scored {
	for _, v := range e.tg.ClassMembers(t0) {
		// Discount hub terms by idf before ranking: generic words
		// ("efficient", "framework") accumulate walk mass from every
		// direction without being substitutable for anything. The same
		// inverse-occurrence weight that biases the preference vector
		// (Algorithm 1) debiases the result ranking; the raw
		// co-occurrence baseline has no such correction, which is one of
		// the contrasts Table II draws.
		c := graph.Scored{Node: v, Score: p[int(v)*width+col] * e.tg.IDF(v)}
		if v == t0 || !(c.Score > 0) {
			continue
		}
		switch {
		case len(h) < maxKept:
			h = append(h, c)
			for i := len(h) - 1; i > 0 && worse(h[i], h[(i-1)/2]); i = (i - 1) / 2 {
				h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
			}
		case worse(h[0], c):
			h[0] = c
			siftDown(h, 0)
		}
	}
	// Popping yields worst first: fill the row back to front.
	top := make([]graph.Scored, len(h))
	for i := len(top) - 1; i >= 0; i-- {
		top[i] = h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, 0)
	}
	if len(top) > 0 {
		norm := top[0].Score
		for i := range top {
			top[i].Score /= norm
		}
	}
	return top
}
