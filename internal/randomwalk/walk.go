// Package randomwalk implements random walk with restart (personalized
// PageRank) over the TAT graph, and the contextual similar-term
// extraction of the paper's Algorithm 1. The "improvement" over the
// basic model is the choice of restart distribution: instead of
// restarting at the start node itself (the individual walk, which mostly
// rediscovers direct co-occurrences), the walk restarts at the start
// node's *context* — its neighboring tuples/terms weighted by field
// balance, co-occurrence frequency and idf — which lets it reach
// semantically related terms that never co-occur directly (paper Fig. 4).
//
// The stationary scores are the solution of a linear system, and one
// kernel solves it everywhere: in-place SOR sweeps in pull form over
// the graph's normalised CSR (graph.Pull), eight start terms per pass —
// the offline batch fills all eight columns, a single walk (Scores, a
// lazy row miss) uses the first. See DESIGN.md, "The walk as a linear
// solve".
package randomwalk

import (
	"fmt"
	"math"

	"kqr/internal/graph"
)

// Solver names the kernel and its stopping rule — the convergence
// threshold and the sweep cap below are part of it, since both change
// table bits. Tables computed by different solvers agree only to the
// solver tolerance, not bit for bit, so the tag is part of every
// fingerprint that decides whether persisted or replicated rows may be
// mixed with locally computed ones.
const Solver = "sor-pull/1"

const (
	// epsilon is the L1 convergence threshold on the change of one sweep.
	epsilon = 1e-8
	// maxIter caps the number of sweeps.
	maxIter = 60
)

// Options tunes the solver.
type Options struct {
	// Damping is λ in p = λ·A·p + (1−λ)·r (default 0.8). The SOR
	// relaxation factor is derived from it: ω = 2/(1+√(1−λ²)).
	Damping float64
}

// Resolve returns o with the zero Damping replaced by its default, or
// the range error. Every constructor in this package calls it; a config
// layer that must know the effective λ before anything is built (the
// table fingerprint prints it) calls it too.
func (o Options) Resolve() (Options, error) {
	if o.Damping == 0 {
		o.Damping = 0.8
	}
	if o.Damping < 0 || o.Damping >= 1 {
		return o, fmt.Errorf("randomwalk: damping %v outside [0,1)", o.Damping)
	}
	return o, nil
}

// width is how many start terms one batch pass solves together: eight
// columns share every load of the edge arrays, and eight float64
// accumulators still fit the register file.
const width = 8

// system is the linear system of one graph under one set of options:
//
//	p = λ·Pᵀ·p + restart·r,   Pᵀ[v,u] = w(v,u)/ws(u)
//
// The graph is undirected, so with p = D·q (D = diag(ws)) this is the
// symmetric positive definite system (D − λW)·q = restart·r, and SOR
// converges on it for every ω in (0,2). Sweeping p in place is the same
// iteration with the diagonal folded in.
type system struct {
	off  []int64
	nbr  []graph.NodeID
	prob []float64

	damping, omega float64
}

func newSystem(g *graph.Graph, opts Options) (*system, error) {
	opts, err := opts.Resolve()
	if err != nil {
		return nil, err
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("randomwalk: empty graph")
	}
	s := &system{
		damping: opts.Damping,
		// The optimal SOR factor for a Jacobi spectral radius of λ (the
		// transition matrix is stochastic, so ρ(λ·Pᵀ) = λ): 1.25 at 0.8.
		omega: 2 / (1 + math.Sqrt(1-float64(opts.Damping*opts.Damping))),
	}
	s.off, s.nbr, s.prob = g.Pull()
	return s, nil
}

func (s *system) numNodes() int { return len(s.off) - 1 }

// load validates one preference vector (sparse, strictly ascending node
// ids, non-negative weights, some positive mass) and writes it as
// column col of b and of the starting point p, both node-major width
// columns wide (x[v*width+col]) and zero in that column on entry.
//
// Mass that reaches an isolated node restarts, so the restart
// probability has the closed form (1−λ)/(1−λ·D), D the preference mass
// sitting on isolated nodes; such a node just holds restart·r, and a
// preference entirely on isolated nodes comes back unchanged.
func (s *system) load(p, b []float64, col int, pref []graph.Scored) error {
	n := s.numNodes()
	total := 0.0
	prev := graph.NodeID(-1)
	for _, e := range pref {
		if e.Node < 0 || int(e.Node) >= n {
			return fmt.Errorf("randomwalk: preference node %d out of range [0,%d)", e.Node, n)
		}
		if e.Node <= prev {
			return fmt.Errorf("randomwalk: preference not in ascending node order at node %d", e.Node)
		}
		if !(e.Score >= 0) {
			return fmt.Errorf("randomwalk: negative preference %v on node %d", e.Score, e.Node)
		}
		prev = e.Node
		total += e.Score
	}
	if total == 0 {
		return fmt.Errorf("randomwalk: preference vector has no positive mass")
	}
	dangling := 0.0
	for _, e := range pref {
		if s.off[e.Node] == s.off[e.Node+1] {
			dangling += e.Score / total
		}
	}
	restart := (1 - s.damping) / (1 - float64(s.damping*dangling))
	for _, e := range pref {
		x := restart * (e.Score / total)
		b[int(e.Node)*width+col] = x
		p[int(e.Node)*width+col] = x
	}
	return nil
}

// solve sweeps the first cols columns of p until each has converged —
// the L1 change of one sweep fell below epsilon — or maxIter sweeps
// ran, calling done(col, sweeps) at the moment a column stops, while p
// still holds that column's final scores. The columns past cols are
// zero and stay zero. A column's arithmetic involves no other column,
// so its scores and its sweep count are the same bits alone, in any
// batch, on any worker.
func (s *system) solve(p, b []float64, cols int, done func(col, sweeps int)) {
	var delta [width]float64
	active := cols
	var stopped [width]bool
	for sweeps := 1; active > 0; sweeps++ {
		s.sweep(p, b, &delta)
		for col := 0; col < cols; col++ {
			if !stopped[col] && (delta[col] < epsilon || sweeps == maxIter) {
				stopped[col] = true
				active--
				done(col, sweeps)
			}
		}
	}
}

// relax is the SOR update of one unknown: x moves ω of the way to its
// Gauss–Seidel value b + λ·acc. The conversions pin a rounding after
// every operation, so a compiler that would fuse multiply-adds on one
// platform still produces the bits of one that would not.
func relax(x, b, acc, damping, omega float64) float64 {
	gs := b + float64(damping*acc)
	return x + float64(omega*(gs-x))
}

// sweep is one in-place SOR sweep over the eight interleaved columns
// (p[v*8+j]) and leaves each column's L1 change in delta: one traversal
// of the edge arrays feeds eight accumulators. The per-column changes
// go through memory once per node so that the inner loop keeps its
// accumulators in registers.
func (s *system) sweep(p, b []float64, delta *[width]float64) {
	off, nbr, prob := s.off, s.nbr, s.prob
	damping, omega := s.damping, s.omega
	*delta = [width]float64{}
	for v := 0; v < len(off)-1; v++ {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		in := nbr[off[v]:off[v+1]]
		pr := prob[off[v]:off[v+1]][:len(in)]
		for k, u := range in {
			w := pr[k]
			q := p[int(u)*width:][:width]
			a0 += float64(w * q[0])
			a1 += float64(w * q[1])
			a2 += float64(w * q[2])
			a3 += float64(w * q[3])
			a4 += float64(w * q[4])
			a5 += float64(w * q[5])
			a6 += float64(w * q[6])
			a7 += float64(w * q[7])
		}
		x := p[v*width:][:width]
		r := b[v*width:][:width]
		for j, acc := range [width]float64{a0, a1, a2, a3, a4, a5, a6, a7} {
			y := relax(x[j], r[j], acc, damping, omega)
			delta[j] += math.Abs(y - x[j])
			x[j] = y
		}
	}
}

// Scores runs random walk with restart on g with the given restart
// distribution — a sparse vector in strictly ascending node order — and
// returns the stationary score of every node plus the number of sweeps
// performed. The preference vector is normalized internally; it must
// contain at least one positive entry.
//
// Transitions follow edge weights (row-stochastic); the walk restarts
// with probability 1−damping, and mass at dangling (isolated) nodes is
// redirected to the restart distribution so the scores keep summing to 1.
func Scores(g *graph.Graph, pref []graph.Scored, opts Options) ([]float64, int, error) {
	s, err := newSystem(g, opts)
	if err != nil {
		return nil, 0, err
	}
	p := make([]float64, s.numNodes()*width)
	b := make([]float64, s.numNodes()*width)
	if err := s.load(p, b, 0, pref); err != nil {
		return nil, 0, err
	}
	sweeps := 0
	s.solve(p, b, 1, func(_, n int) { sweeps = n })
	scores := make([]float64, s.numNodes())
	for v := range scores {
		scores[v] = p[v*width]
	}
	return scores, sweeps, nil
}
