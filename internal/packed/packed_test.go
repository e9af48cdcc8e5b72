package packed

import (
	"math/rand"
	"sort"
	"testing"

	"kqr/internal/graph"
)

// appendRow adds v's row to r in stored form.
func appendRow(r *Rows, v graph.NodeID, list []graph.Scored) {
	row := NewRow(list)
	nodes, scores := r.Append(v, len(list))
	copy(nodes, row.Nodes)
	copy(scores, row.Scores)
}

func TestTableRoundTrip(t *testing.T) {
	rows := &Rows{}
	appendRow(rows, 0, []graph.Scored{{Node: 3, Score: 0.75}, {Node: 1, Score: 0.5}, {Node: 2, Score: 0.25}})
	appendRow(rows, 2, nil) // a computed empty row must stay distinguishable from "missing"
	appendRow(rows, 5, []graph.Scored{{Node: 0, Score: 1}})
	tab := rows.Table(6)
	if got := tab.Rows(); got != 3 {
		t.Fatalf("Rows() = %d, want 3", got)
	}

	nodes, scores, ok := tab.Row(0)
	if !ok {
		t.Fatal("Row(0) missing")
	}
	wantNodes := []graph.NodeID{3, 1, 2}
	wantScores := []float32{0.75, 0.5, 0.25}
	for i := range wantNodes {
		if nodes[i] != wantNodes[i] || scores[i] != wantScores[i] {
			t.Fatalf("Row(0)[%d] = (%d, %v), want (%d, %v)",
				i, nodes[i], scores[i], wantNodes[i], wantScores[i])
		}
	}
	if nodes, _, ok := tab.Row(2); !ok || len(nodes) != 0 {
		t.Fatalf("Row(2) = (%v, ok=%v), want present empty row", nodes, ok)
	}
	for _, v := range []graph.NodeID{1, -1, 99} {
		if _, _, ok := tab.Row(v); ok {
			t.Fatalf("Row(%d) present, want missing", v)
		}
	}
}

// Probe over id-sorted rows: hits return the stored value, misses are
// true zeros, and an empty row is all zeros.
func TestProbeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 128
	want := make(map[graph.NodeID]map[graph.NodeID]float32)
	rows := &Rows{}
	for v := graph.NodeID(0); v < n; v++ {
		if rng.Intn(3) == 0 {
			continue
		}
		vec := make(map[graph.NodeID]float32)
		for i := 0; i < rng.Intn(40); i++ {
			vec[graph.NodeID(rng.Intn(n))] = Quantize(rng.Float64())
		}
		var list []graph.Scored
		for u, c := range vec {
			list = append(list, graph.Scored{Node: u, Score: float64(c)})
		}
		sort.Slice(list, func(i, j int) bool { return list[i].Node < list[j].Node })
		want[v] = vec
		appendRow(rows, v, list)
	}
	tab := rows.Table(n)
	for v := graph.NodeID(0); v < n; v++ {
		nodes, scores, ok := tab.Row(v)
		if _, held := want[v]; ok != held {
			t.Fatalf("Row(%d) ok = %v, want %v", v, ok, held)
		}
		for b := graph.NodeID(0); b < n; b++ {
			if got := Probe(nodes, scores, b); got != float64(want[v][b]) {
				t.Fatalf("Probe(row %d, %d) = %v, want %v", v, b, got, want[v][b])
			}
		}
	}
}

// NewRow is the one rounding boundary: whatever it stores widens back
// to itself, and 0 and 1 (identity, absence) are fixed points.
func TestNewRowQuantizes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	list := []graph.Scored{{Node: 0, Score: 0}, {Node: 1, Score: 1}}
	for i := 2; i < 1000; i++ {
		list = append(list, graph.Scored{Node: graph.NodeID(i), Score: rng.Float64()})
	}
	r := NewRow(list)
	if r.Scores[0] != 0 || r.Scores[1] != 1 {
		t.Fatal("quantization must fix 0 and 1")
	}
	back := Scored(r.Nodes, r.Scores, 0)
	again := NewRow(back)
	for i := range back {
		if back[i].Node != list[i].Node || again.Scores[i] != r.Scores[i] {
			t.Fatalf("entry %d does not round-trip: %v -> %v -> %v", i, list[i], back[i], again.Scores[i])
		}
	}
	if got := Scored(r.Nodes, r.Scores, 3); len(got) != 3 {
		t.Fatalf("Scored(k=3) returned %d entries", len(got))
	}
}

// Rows is the serial form: rows appended in node order index into the
// same table Build makes, rows beyond the graph are dropped (they are
// the tail — sources ascend), a nil Rows is the empty table, and an
// out-of-order append is a bug that panics rather than mis-indexes.
func TestRowsTable(t *testing.T) {
	r := &Rows{}
	for _, v := range []graph.NodeID{0, 2, 5, 9} {
		nodes, scores := r.Append(v, int(v)%3)
		for i := range nodes {
			nodes[i], scores[i] = v+graph.NodeID(i)+1, float32(i)+0.5
		}
	}
	tab := r.Table(6)
	if tab.Rows() != 3 {
		t.Fatalf("Rows() = %d, want 3 (node 9 is outside a 6-node graph)", tab.Rows())
	}
	for i, v := range r.Src[:3] {
		_, wantNodes, wantScores := r.Row(i)
		nodes, scores, ok := tab.Row(v)
		if !ok || len(nodes) != len(wantNodes) {
			t.Fatalf("Row(%d) = %v, %v, want %v", v, nodes, ok, wantNodes)
		}
		for j := range nodes {
			if nodes[j] != wantNodes[j] || scores[j] != wantScores[j] {
				t.Fatalf("Row(%d)[%d] = (%d, %v), want (%d, %v)", v, j, nodes[j], scores[j], wantNodes[j], wantScores[j])
			}
		}
	}
	for _, v := range []graph.NodeID{1, 3, 4, 9} {
		if _, _, ok := tab.Row(v); ok {
			t.Fatalf("Row(%d) present, want missing", v)
		}
	}
	if empty := (*Rows)(nil).Table(4); empty.Rows() != 0 {
		t.Fatal("nil Rows did not index to the empty table")
	}
	for _, v := range []graph.NodeID{9, 3, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Append(%d) after node 9 did not panic", v)
				}
			}()
			r.Append(v, 0)
		}()
	}
}
