package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// path builds 0-1-2-...-(n-1).
func path(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode()
	}
	for i := 0; i+1 < n; i++ {
		if err := b.AddEdge(NodeID(i), NodeID(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder()
	u := b.AddNode()
	v := b.AddNode()
	if err := b.AddEdge(u, 9, 1); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := b.AddEdge(-1, v, 1); err == nil {
		t.Fatal("negative node accepted")
	}
	if err := b.AddEdge(u, u, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := b.AddEdge(u, v, 0); err == nil {
		t.Fatal("zero-weight edge accepted")
	}
	if err := b.AddEdge(u, v, -2); err == nil {
		t.Fatal("negative-weight edge accepted")
	}
}

func TestBuildBasics(t *testing.T) {
	g := path(t, 4)
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Fatalf("nodes=%d edges=%d, want 4, 3", g.NumNodes(), g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 2 {
		t.Fatalf("degrees = %d, %d", g.Degree(0), g.Degree(1))
	}
	if w := g.EdgeWeight(1, 2); w != 1 {
		t.Fatalf("EdgeWeight(1,2) = %v", w)
	}
	if w := g.EdgeWeight(0, 3); w != 0 {
		t.Fatalf("EdgeWeight(0,3) = %v, want 0", w)
	}
}

func TestParallelEdgesMerge(t *testing.T) {
	b := NewBuilder()
	u, v := b.AddNode(), b.AddNode()
	for i := 0; i < 3; i++ {
		if err := b.AddEdge(u, v, 2); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 merged edge", g.NumEdges())
	}
	if w := g.EdgeWeight(u, v); w != 6 {
		t.Fatalf("merged weight = %v, want 6", w)
	}
	if ws := g.WeightSum(u); ws != 6 {
		t.Fatalf("WeightSum = %v, want 6", ws)
	}
}

func TestNeighborsOrderAndEarlyStop(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddNode()
	}
	// Insert in shuffled order; iteration must still be ascending.
	for _, v := range []NodeID{3, 1, 2} {
		if err := b.AddEdge(0, v, 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	var got []NodeID
	g.Neighbors(0, func(v NodeID, _ float64) bool {
		got = append(got, v)
		return len(got) < 2
	})
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Neighbors visited %v, want [1 2]", got)
	}
}

func TestBFSDepthsOnPath(t *testing.T) {
	g := path(t, 5)
	depths := map[NodeID]int{}
	g.BFS(0, -1, func(v NodeID, d int) bool {
		depths[v] = d
		return true
	})
	for i := 0; i < 5; i++ {
		if depths[NodeID(i)] != i {
			t.Fatalf("depth(%d) = %d, want %d", i, depths[NodeID(i)], i)
		}
	}
}

func TestBFSMaxDepth(t *testing.T) {
	g := path(t, 5)
	var visited []NodeID
	g.BFS(0, 2, func(v NodeID, _ int) bool {
		visited = append(visited, v)
		return true
	})
	if len(visited) != 3 {
		t.Fatalf("BFS(depth 2) visited %v, want 3 nodes", visited)
	}
}

func TestHopDistance(t *testing.T) {
	g := path(t, 6)
	if d, ok := g.HopDistance(0, 4, -1); !ok || d != 4 {
		t.Fatalf("HopDistance(0,4) = %d, %v", d, ok)
	}
	if d, ok := g.HopDistance(2, 2, -1); !ok || d != 0 {
		t.Fatalf("HopDistance(2,2) = %d, %v", d, ok)
	}
	if _, ok := g.HopDistance(0, 5, 3); ok {
		t.Fatal("HopDistance found a path beyond maxDepth")
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 5; i++ {
		b.AddNode()
	}
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 3, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if n := g.NumComponents(); n != 3 {
		t.Fatalf("NumComponents = %d, want 3", n)
	}
	comp := g.ComponentOf(0)
	if len(comp) != 2 {
		t.Fatalf("ComponentOf(0) = %v", comp)
	}
}

// randomGraph builds a deterministic random graph and returns both the
// Graph and its adjacency matrix for cross-checking.
func randomGraph(seed int64, n int, p float64) (*Graph, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode()
	}
	mat := make([][]float64, n)
	for i := range mat {
		mat[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				w := 1 + rng.Float64()
				if err := b.AddEdge(NodeID(i), NodeID(j), w); err != nil {
					panic(err)
				}
				mat[i][j], mat[j][i] = w, w
			}
		}
	}
	return b.Build(), mat
}

// Property: CSR lookups agree with the dense adjacency matrix, and
// weight sums match row sums.
func TestCSRMatchesMatrixProperty(t *testing.T) {
	f := func(seed int64) bool {
		g, mat := randomGraph(seed, 14, 0.3)
		n := g.NumNodes()
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				if g.EdgeWeight(NodeID(i), NodeID(j)) != mat[i][j] {
					return false
				}
				rowSum += mat[i][j]
			}
			if math.Abs(g.WeightSum(NodeID(i))-rowSum) > 1e-9 {
				return false
			}
		}
		// The slice views agree with the matrix too, and the pull
		// probabilities out of every non-isolated node sum to 1.
		off, nbrs, probs := g.Pull()
		out := make([]float64, n)
		for v := 0; v < n; v++ {
			adj, ws := g.Adjacency(NodeID(v))
			if len(adj) != g.Degree(NodeID(v)) || int64(len(adj)) != off[v+1]-off[v] {
				return false
			}
			for k, u := range adj {
				i := off[v] + int64(k)
				if ws[k] != mat[v][u] || nbrs[i] != u || probs[i] != mat[v][u]/g.WeightSum(u) {
					return false
				}
				out[u] += probs[i]
			}
		}
		for u := 0; u < n; u++ {
			if g.Degree(NodeID(u)) > 0 && math.Abs(out[u]-1) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS hop distances match Floyd–Warshall on small random
// graphs.
func TestBFSMatchesFloydWarshallProperty(t *testing.T) {
	f := func(seed int64) bool {
		g, mat := randomGraph(seed, 10, 0.25)
		n := g.NumNodes()
		const inf = 1 << 20
		d := make([][]int, n)
		for i := range d {
			d[i] = make([]int, n)
			for j := range d[i] {
				switch {
				case i == j:
					d[i][j] = 0
				case mat[i][j] > 0:
					d[i][j] = 1
				default:
					d[i][j] = inf
				}
			}
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if d[i][k]+d[k][j] < d[i][j] {
						d[i][j] = d[i][k] + d[k][j]
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				got, ok := g.HopDistance(NodeID(i), NodeID(j), -1)
				if ok != (d[i][j] < inf) {
					return false
				}
				if ok && got != d[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
