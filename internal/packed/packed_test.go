package packed

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"kqr/internal/graph"
)

// appendRow adds v's row to r in stored form.
func appendRow(r *Rows, v graph.NodeID, list []graph.Scored) {
	copy(r.Append(v, len(list)), NewRow(list))
}

// rowCount counts the rows an index holds.
func rowCount(x Index) int {
	n := 0
	for _, w := range x.Present {
		n += bits.OnesCount64(w)
	}
	return n
}

func TestTableRoundTrip(t *testing.T) {
	rows := &Rows{}
	appendRow(rows, 0, []graph.Scored{{Node: 3, Score: 0.75}, {Node: 1, Score: 0.5}, {Node: 2, Score: 0.25}})
	appendRow(rows, 2, nil) // a computed empty row must stay distinguishable from "missing"
	appendRow(rows, 5, []graph.Scored{{Node: 0, Score: 1}})
	tab := heapTable(6, rows)
	if got := rowCount(tab.Index); got != 3 {
		t.Fatalf("%d rows, want 3", got)
	}

	nodes, scores, ok := tab.AppendRow(0, nil, nil)
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
	if nodes, _, ok := tab.AppendRow(2, nil, nil); !ok || len(nodes) != 0 {
		t.Fatalf("Row(2) = (%v, ok=%v), want present empty row", nodes, ok)
	}
	for _, v := range []graph.NodeID{1, -1, 99} {
		if _, _, ok := tab.AppendRow(v, nil, nil); ok {
			t.Fatalf("Row(%d) present, want missing", v)
		}
	}
}

// ProbeRow over id-sorted rows: hits return the stored value, misses are
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
	tab := heapTable(n, rows)
	bs := make([]graph.NodeID, n)
	for b := range bs {
		bs[b] = graph.NodeID(b)
	}
	out := make([]float64, n)
	for v := graph.NodeID(0); v < n; v++ {
		clear(out)
		ok := tab.ProbeRow(v, bs, out)
		if _, held := want[v]; ok != held {
			t.Fatalf("ProbeRow(%d) ok = %v, want %v", v, ok, held)
		}
		for _, b := range bs {
			if got := out[b]; got != float64(want[v][b]) {
				t.Fatalf("ProbeRow(row %d, %d) = %v, want %v", v, b, got, want[v][b])
			}
		}
	}
}

// ProbeEntries against a linear scan for the first entry holding each
// candidate: rows of 0, 1, 2, 2^j−1, 2^j and 2^j+1 entries up to about
// 1,100, and candidate lists that are unsorted, repeat themselves, fall
// below or above every entry (the void marker −1 included), miss the
// row, and run past one lockstep chunk.
func TestProbeEntriesIdenticalToScan(t *testing.T) {
	scan := func(raw []byte, b graph.NodeID) float64 {
		for i := 0; i < len(raw)/EntrySize; i++ {
			if node, score := Entry(raw, i); node == b {
				return float64(score)
			}
		}
		return 0
	}
	lengths := []int{0, 1, 2, 1100}
	for j := 2; j <= 10; j++ {
		lengths = append(lengths, 1<<j-1, 1<<j, 1<<j+1)
	}
	rng := rand.New(rand.NewSource(52))
	for _, n := range lengths {
		// Node ids ascend with gaps, from 1, so 0 and every gap are
		// absent.
		raw := make([]byte, n*EntrySize)
		ids := make([]graph.NodeID, n)
		for i, id := 0, graph.NodeID(1); i < n; i++ {
			ids[i] = id
			PutEntry(raw[i*EntrySize:], id, Quantize(rng.Float64()))
			id += graph.NodeID(1 + rng.Intn(3))
		}
		top := graph.NodeID(1)
		if n > 0 {
			top = ids[n-1] + 1
		}
		for trial := 0; trial < 20; trial++ {
			bs := make([]graph.NodeID, rng.Intn(3*probeLanes+2))
			for i := range bs {
				switch r := rng.Intn(10); {
				case r < 5 && n > 0:
					bs[i] = ids[rng.Intn(n)]
				case r < 6 && i > 0:
					bs[i] = bs[rng.Intn(i)]
				case r < 7:
					bs[i] = []graph.NodeID{-1, 0, top, top + 1000, 1 << 30}[rng.Intn(5)]
				default:
					bs[i] = graph.NodeID(rng.Intn(int(top) + 2))
				}
			}
			out := make([]float64, len(bs))
			for i := range out {
				out[i] = -1 // must be overwritten, absences included
			}
			ProbeEntries(raw, bs, out)
			for i, b := range bs {
				if want := scan(raw, b); out[i] != want {
					t.Fatalf("row of %d entries, %d candidates: candidate %d (node %d) = %v, scan %v", n, len(bs), i, b, out[i], want)
				}
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
	nodes, scores := AppendEntries(NewRow(list), nil, nil)
	if scores[0] != 0 || scores[1] != 1 {
		t.Fatal("quantization must fix 0 and 1")
	}
	back := Scored(nodes, scores, 0)
	_, again := AppendEntries(NewRow(back), nil, nil)
	for i := range back {
		if back[i].Node != list[i].Node || again[i] != scores[i] {
			t.Fatalf("entry %d does not round-trip: %v -> %v -> %v", i, list[i], back[i], again[i])
		}
	}
	if got := Scored(nodes, scores, 3); len(got) != 3 {
		t.Fatalf("Scored(k=3) returned %d entries", len(got))
	}
}

// Rows is the serial form: rows appended in node order index into the
// table Pack and Load make, rows beyond the graph are dropped (they are
// the tail — sources ascend), a nil Rows is the empty table, and an
// out-of-order append is a bug that panics rather than mis-indexes.
func TestRowsTable(t *testing.T) {
	r := &Rows{}
	for _, v := range []graph.NodeID{0, 2, 5, 9} {
		raw := r.Append(v, int(v)%3)
		for i := range int(v) % 3 {
			PutEntry(raw[i*EntrySize:], v+graph.NodeID(i)+1, float32(i)+0.5)
		}
	}
	tab := heapTable(6, r)
	if got := rowCount(tab.Index); got != 3 {
		t.Fatalf("%d rows, want 3 (node 9 is outside a 6-node graph)", got)
	}
	for i, v := range r.Src[:3] {
		_, raw := r.Row(i)
		wantNodes, wantScores := AppendEntries(raw, nil, nil)
		nodes, scores, ok := tab.AppendRow(v, nil, nil)
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
		if _, _, ok := tab.AppendRow(v, nil, nil); ok {
			t.Fatalf("Row(%d) present, want missing", v)
		}
	}
	if empty := heapTable(4, nil); rowCount(empty.Index) != 0 {
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
