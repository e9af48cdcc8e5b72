// Package packed holds the one in-memory form of the offline tables:
// per-term rows of (node, float32 score) pairs, packed CSR-style into
// contiguous, term-id-indexed arrays, plus the Store that computes,
// publishes and serves them for the similarity extractors and the
// closeness store alike.
//
// The layout is the classic compressed sparse row form. For a graph of
// N nodes a table holds one offsets array of N+1 uint32s, a presence
// bitmap of N bits, and two parallel payload arrays — node ids and
// float32 scores — holding every row back to back:
//
//	row(v)  = nodes[off[v]:off[v+1]], scores[off[v]:off[v+1]]
//	present = bitmap bit v (distinguishes "computed, empty" from "missing")
//
// A similarity row keeps its candidates in rank order (best first); a
// closeness row is sorted by neighbor node id so a pairwise lookup is
// one offsets load plus a binary probe (ProbeRow) over one contiguous
// cache-resident row — no map or pointer chase. Scores are stored as
// float32: similarity and closeness values are normalized relevance
// weights in [0, 1] where 24 bits of mantissa are far beyond the
// extractors' own noise floor, and halving the row bytes is what makes
// the tables pageable (internal/diskmode serves the same rows from
// pages read out of a snapshot file). Scores are narrowed exactly once, by NewRow on the way
// into a Store, so every later form of a row — overlay, RAM table,
// snapshot file, disk page — carries the same bits.
//
// Tables are immutable once built and safe for concurrent readers.
package packed

import (
	"slices"

	"kqr/internal/graph"
)

// Table is the read surface of a published row table, satisfied by the
// RAM-backed RAMTable and by the page-backed views of
// internal/diskmode. A Store binds one Table and never branches on the
// backing: a RAM row and a paged row answer identically, so swapping
// RAM for disk is a publication-time decision, not a hot-path one.
//
// A row leaves a table only by copy (AppendRow) or by probe (ProbeRow):
// no slice into the table's memory is ever handed out, which is what
// lets a paged table reuse a page's memory the moment it evicts it.
// Both answer ok == false when the table has no row for the node (or
// cannot serve it right now — a draining disk store, a corrupt page),
// in which case the Store computes the row for its caller.
type Table interface {
	// AppendRow appends v's row, in stored order, to nodes and scores
	// and returns the extended slices; on ok == false they come back
	// unchanged.
	AppendRow(v graph.NodeID, nodes []graph.NodeID, scores []float32) ([]graph.NodeID, []float32, bool)
	// ProbeRow looks each bs[i] up in a's row, which must be sorted by
	// node id (a closeness row), and writes its score to out[i] — 0 for
	// a node the row does not hold. out must be at least len(bs) long.
	ProbeRow(a graph.NodeID, bs []graph.NodeID, out []float64) bool
}

// Quantize narrows a score to the float32 grid rows are stored on.
func Quantize(x float64) float32 { return float32(x) }

// Row is one table row in its stored form: parallel node and score
// slices, read-only once built.
type Row struct {
	Nodes  []graph.NodeID
	Scores []float32
}

// NewRow converts an extractor's scored list to row form, keeping its
// order. Computed rows enter a Store through it; rows decoded from a
// v1 snapshot (the one format that stores float64) are narrowed by the
// same Quantize.
func NewRow(list []graph.Scored) Row {
	r := Row{Nodes: make([]graph.NodeID, len(list)), Scores: make([]float32, len(list))}
	for i, sn := range list {
		r.Nodes[i] = sn.Node
		r.Scores[i] = Quantize(sn.Score)
	}
	return r
}

// Scored widens the first k entries of a row (all of them when k <= 0
// or k exceeds the row) back to a scored list — the allocating
// accessor behind SimilarNodes and From.
func Scored(nodes []graph.NodeID, scores []float32, k int) []graph.Scored {
	if k <= 0 || k > len(nodes) {
		k = len(nodes)
	}
	out := make([]graph.Scored, k)
	for i := range out {
		out[i] = graph.Scored{Node: nodes[i], Score: float64(scores[i])}
	}
	return out
}

// ProbeRow writes the score of each bs[i] in a row sorted by node id
// (a closeness row) to out[i], 0 when bs[i] is absent — within a
// present row a missing neighbor is a true zero, unreachable inside the
// horizon. Each lookup is a binary search.
func ProbeRow(nodes []graph.NodeID, scores []float32, bs []graph.NodeID, out []float64) {
	for i, b := range bs {
		out[i] = 0
		if at, found := slices.BinarySearch(nodes, b); found {
			out[i] = float64(scores[at])
		}
	}
}

// Rows is the serial form of a table — what a snapshot section holds
// and what crosses the artifact boundary: the present rows in ascending
// node order, their entries back to back. It is a RAMTable without the
// node-indexed offsets, so a decoder can build one by appending, in
// memory proportional to the bytes it has read rather than to the
// largest node id they name.
type Rows struct {
	// Src lists the nodes that have a row, strictly ascending.
	Src []graph.NodeID
	// End[i] is the entry count through row i: row i is
	// Nodes[End[i-1]:End[i]] (from 0 for the first row).
	End []uint32
	// Nodes and Scores hold every row's entries, parallel.
	Nodes  []graph.NodeID
	Scores []float32
}

// Append adds an n-entry row for v and returns its slices for the
// caller to fill. Rows must arrive in ascending node order; a decoder
// checks that on its input before it calls, so a violation here is a
// bug.
func (r *Rows) Append(v graph.NodeID, n int) ([]graph.NodeID, []float32) {
	if v < 0 || len(r.Src) > 0 && v <= r.Src[len(r.Src)-1] {
		panic("packed: rows appended out of node order")
	}
	lo := len(r.Nodes)
	r.Src = append(r.Src, v)
	r.Nodes = slices.Grow(r.Nodes, n)[:lo+n]
	r.Scores = slices.Grow(r.Scores, n)[:lo+n]
	r.End = append(r.End, uint32(lo+n))
	return r.Nodes[lo:], r.Scores[lo:]
}

// Has reports whether v has a row; a nil Rows has none.
func (r *Rows) Has(v graph.NodeID) bool {
	if r == nil {
		return false
	}
	_, found := slices.BinarySearch(r.Src, v)
	return found
}

// Row returns the i-th present row. The slices are read-only views.
func (r *Rows) Row(i int) (v graph.NodeID, nodes []graph.NodeID, scores []float32) {
	lo := uint32(0)
	if i > 0 {
		lo = r.End[i-1]
	}
	return r.Src[i], r.Nodes[lo:r.End[i]], r.Scores[lo:r.End[i]]
}

// Table indexes the rows for a graph of numNodes nodes. Rows of nodes
// outside [0, numNodes) are dropped — they cannot belong to the graph
// the table serves. The table takes over the entry arrays (reallocated
// to size only when appending left them with real slack, which a table
// that lives as long as its generation should not carry): r must not be
// appended to afterwards. A nil r is the empty table.
func (r *Rows) Table(numNodes int) *RAMTable {
	t := &RAMTable{
		off:     make([]uint32, numNodes+1),
		present: make([]uint64, (numNodes+63)/64),
	}
	if r == nil {
		return t
	}
	for t.rows < len(r.Src) && int(r.Src[t.rows]) < numNodes {
		t.rows++
	}
	i, end := 0, uint32(0)
	for v := 0; v <= numNodes; v++ {
		t.off[v] = end
		if i < t.rows && int(r.Src[i]) == v {
			t.present[uint(v)>>6] |= 1 << (uint(v) & 63)
			end = r.End[i]
			i++
		}
	}
	t.nodes, t.scores = trim(r.Nodes[:end]), trim(r.Scores[:end])
	return t
}

// trim returns s, copied to an array of its own length when more than
// an eighth of the one it has is unused.
func trim[T any](s []T) []T {
	if cap(s)-len(s) > len(s)/8 {
		return slices.Clone(s)
	}
	return s
}

// RAMTable is the RAM-resident CSR table, built by Rows.Table.
type RAMTable struct {
	off     []uint32
	present []uint64
	nodes   []graph.NodeID
	scores  []float32
	rows    int
}

// AppendRow appends v's packed row to nodes and scores; ok is false
// when v has none.
func (t *RAMTable) AppendRow(v graph.NodeID, nodes []graph.NodeID, scores []float32) ([]graph.NodeID, []float32, bool) {
	lo, hi, ok := t.span(v)
	if !ok {
		return nodes, scores, false
	}
	return append(nodes, t.nodes[lo:hi]...), append(scores, t.scores[lo:hi]...), true
}

// ProbeRow writes the score of each bs[i] in a's row to out[i]; ok is
// false when a has no row.
func (t *RAMTable) ProbeRow(a graph.NodeID, bs []graph.NodeID, out []float64) bool {
	lo, hi, ok := t.span(a)
	if ok {
		ProbeRow(t.nodes[lo:hi], t.scores[lo:hi], bs, out)
	}
	return ok
}

// span returns where v's row lies in the entry arrays, ok false when v
// has none.
func (t *RAMTable) span(v graph.NodeID) (lo, hi uint32, ok bool) {
	if v < 0 || int(v) >= len(t.off)-1 || t.present[uint(v)>>6]&(1<<(uint(v)&63)) == 0 {
		return 0, 0, false
	}
	return t.off[v], t.off[v+1], true
}

// Rows returns how many rows are present.
func (t *RAMTable) Rows() int { return t.rows }
