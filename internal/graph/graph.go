// Package graph provides the general-purpose graph substrate used by the
// term-augmented tuple graph: an undirected weighted graph built
// incrementally, then frozen into a compressed sparse row (CSR) form for
// fast traversal, plus breadth-first search utilities.
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// NodeID indexes a node. IDs are dense, assigned by Builder.AddNode in
// increasing order starting at 0.
type NodeID int32

// Edge is one weighted endpoint in an adjacency list.
type Edge struct {
	To     NodeID
	Weight float64
}

// Scored pairs a node with a score. It is the common currency of the
// similarity and closeness extractors.
type Scored struct {
	Node  NodeID
	Score float64
}

// Builder accumulates nodes and undirected edges, then freezes them into
// an immutable Graph. Adding an edge twice accumulates its weight, which
// matches how occurrence counts aggregate.
type Builder struct {
	adj [][]Edge
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// AddNode allocates a node and returns its id.
func (b *Builder) AddNode() NodeID {
	b.adj = append(b.adj, nil)
	return NodeID(len(b.adj) - 1)
}

// NumNodes returns the number of allocated nodes.
func (b *Builder) NumNodes() int { return len(b.adj) }

// AddEdge adds an undirected edge with the given positive weight. If the
// edge already exists its weight is accumulated at Build time.
func (b *Builder) AddEdge(u, v NodeID, w float64) error {
	if err := b.check(u); err != nil {
		return err
	}
	if err := b.check(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d rejected", u)
	}
	if w <= 0 {
		return fmt.Errorf("graph: edge %d-%d has non-positive weight %v", u, v, w)
	}
	b.adj[u] = append(b.adj[u], Edge{To: v, Weight: w})
	b.adj[v] = append(b.adj[v], Edge{To: u, Weight: w})
	return nil
}

func (b *Builder) check(u NodeID) error {
	if u < 0 || int(u) >= len(b.adj) {
		return fmt.Errorf("graph: node %d out of range [0,%d)", u, len(b.adj))
	}
	return nil
}

// Build freezes the builder into a CSR graph. Parallel edges between the
// same pair are merged, accumulating weight. Each adjacency list is
// sorted and merged in place, so the builder remains usable: a later
// Build sees the same multigraph, its parallel edges already summed.
func (b *Builder) Build() *Graph {
	n := len(b.adj)
	g := &Graph{
		offsets:   make([]int64, n+1),
		weightSum: make([]float64, n),
	}
	total := 0
	for u, list := range b.adj {
		slices.SortFunc(list, func(x, y Edge) int { return cmp.Compare(x.To, y.To) })
		out := list[:0]
		for _, e := range list {
			if len(out) > 0 && out[len(out)-1].To == e.To {
				out[len(out)-1].Weight += e.Weight
			} else {
				out = append(out, e)
			}
		}
		b.adj[u] = out
		total += len(out)
	}
	g.neighbors = make([]NodeID, total)
	g.weights = make([]float64, total)
	pos := int64(0)
	for u, list := range b.adj {
		g.offsets[u] = pos
		for _, e := range list {
			g.neighbors[pos] = e.To
			g.weights[pos] = e.Weight
			g.weightSum[u] += e.Weight
			pos++
		}
	}
	g.offsets[n] = pos
	// The pull view: what fraction of a neighbor's outgoing weight this
	// edge carries. A neighbor has this edge, so its weight sum is > 0.
	g.pull = make([]float64, total)
	for i, v := range g.neighbors {
		g.pull[i] = g.weights[i] / g.weightSum[v]
	}
	return g
}

// Graph is an immutable undirected weighted graph in CSR form. It is
// safe for concurrent readers.
type Graph struct {
	offsets   []int64
	neighbors []NodeID
	weights   []float64
	weightSum []float64
	pull      []float64 // weights[i] / weightSum[neighbors[i]]
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.weightSum) }

// NumEdges returns the undirected edge count (each edge stored twice
// internally, counted once here).
func (g *Graph) NumEdges() int { return len(g.neighbors) / 2 }

// Degree returns the number of distinct neighbors of u.
func (g *Graph) Degree(u NodeID) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// WeightSum returns the total weight incident to u; zero for isolated
// nodes.
func (g *Graph) WeightSum(u NodeID) float64 { return g.weightSum[u] }

// Neighbors calls fn for every neighbor of u with the edge weight,
// in ascending neighbor order. It stops early if fn returns false.
func (g *Graph) Neighbors(u NodeID, fn func(v NodeID, w float64) bool) {
	for i := g.offsets[u]; i < g.offsets[u+1]; i++ {
		if !fn(g.neighbors[i], g.weights[i]) {
			return
		}
	}
}

// Adjacency returns u's neighbors in ascending order and the parallel
// edge weights, as read-only views of the CSR arrays — the closure-free
// form of Neighbors for inner loops.
func (g *Graph) Adjacency(u NodeID) ([]NodeID, []float64) {
	lo, hi := g.offsets[u], g.offsets[u+1]
	return g.neighbors[lo:hi], g.weights[lo:hi]
}

// Pull returns the whole graph in normalised pull form, as read-only
// views: node v's in-edges are entries offsets[v]..offsets[v+1], and
// for entry i the probability that a weight-proportional step out of
// neighbors[i] lands on v is probs[i] = w(v,u)/WeightSum(u). One
// transition of a random walk is then p'[v] = Σ_i probs[i]·p[neighbors[i]]
// with no division and no per-edge callback — the form the random-walk
// kernel sweeps.
func (g *Graph) Pull() (offsets []int64, neighbors []NodeID, probs []float64) {
	return g.offsets, g.neighbors, g.pull
}

// EdgeWeight returns the weight of edge u-v, or 0 if absent. Lookup is
// binary search over u's sorted adjacency.
func (g *Graph) EdgeWeight(u, v NodeID) float64 {
	lo, hi := g.offsets[u], g.offsets[u+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case g.neighbors[mid] == v:
			return g.weights[mid]
		case g.neighbors[mid] < v:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0
}
