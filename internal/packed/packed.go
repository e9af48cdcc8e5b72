// Package packed holds the one form of the offline tables: per-term
// rows of (node, float32 score) entries, encoded back to back in one
// byte layout and indexed CSR-style by term id, plus the Store that
// computes, publishes and serves them for the similarity extractors
// and the closeness store alike.
//
// An entry is 8 bytes, little-endian: u32 node id, then the f32 score's
// bits. This package owns that codec — one encoder (PutEntry, behind
// NewRow and the v1 snapshot reader), one row copy (AppendEntries) and
// one row probe (ProbeEntries) — and every other form of a row is these
// bytes: the lazy overlay's computed rows, a RAM table after Pack or a
// snapshot load, the entry blob of a KQRART v2 file and a disk page
// (internal/diskmode serves the same bytes from frames read out of
// that file). A v2 snapshot is written from, and loaded into, a
// table's bytes without touching an entry.
//
// The index is the classic compressed sparse row form. For a graph of
// N nodes it holds one offsets array of N+1 uint32s and a presence
// bitmap of N bits:
//
//	row(v)  = entries off[v] to off[v+1]
//	present = bitmap bit v (distinguishes "computed, empty" from "missing")
//
// A similarity row keeps its candidates in rank order (best first); a
// closeness row is sorted by neighbor node id so a pairwise lookup is
// one offsets load plus a binary probe (ProbeEntries, every candidate
// of a row searched in lockstep) over one contiguous cache-resident
// row — no map or pointer chase. Scores are
// stored as float32: similarity and closeness values are normalized
// relevance weights in [0, 1] where 24 bits of mantissa are far beyond
// the extractors' own noise floor, and halving the row bytes is what
// makes the tables pageable. Scores are narrowed exactly once, by
// NewRow on the way into a Store, so every later form of a row carries
// the same bits.
//
// Tables are immutable once built and safe for concurrent readers.
package packed

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"kqr/internal/graph"
)

// EntrySize is the encoded size of one row entry: u32 node + f32 score.
const EntrySize = 4 + 4

// PutEntry encodes one entry into b[:EntrySize] — the one encoder
// every stored entry passes through.
func PutEntry(b []byte, node graph.NodeID, score float32) {
	binary.LittleEndian.PutUint32(b, uint32(node))
	binary.LittleEndian.PutUint32(b[4:], math.Float32bits(score))
}

// Entry decodes entry i of raw.
func Entry(raw []byte, i int) (graph.NodeID, float32) {
	e := binary.LittleEndian.Uint64(raw[i*EntrySize:])
	return graph.NodeID(uint32(e)), math.Float32frombits(uint32(e >> 32))
}

// AppendEntries appends the entries of raw, in stored order, to nodes
// and scores — how every row leaves its bytes.
func AppendEntries(raw []byte, nodes []graph.NodeID, scores []float32) ([]graph.NodeID, []float32) {
	n, lo := len(raw)/EntrySize, len(nodes)
	nodes, scores = slices.Grow(nodes, n)[:lo+n], slices.Grow(scores, n)[:lo+n]
	dn, ds := nodes[lo:], scores[lo:]
	ds = ds[:len(dn)]
	for i := range dn {
		dn[i], ds[i] = Entry(raw, i)
	}
	return nodes, scores
}

// ProbeEntries writes the score of each bs[i] in raw — the entries of a
// row sorted by node id (a closeness row) — to out[i], 0 when bs[i] is
// absent: within a present row a missing neighbor is a true zero,
// unreachable inside the horizon. Each lookup is a lower-bound binary
// search, and the searches run in lockstep, up to probeLanes at a time:
// one level of every candidate's search, then the next, each step a
// branch-free `base += half` when the entry there is below the
// candidate — so the candidates' loads overlap instead of each waiting
// on a mispredicted branch — and a final check reads the entry at each
// base.
func ProbeEntries(raw []byte, bs []graph.NodeID, out []float64) {
	n := len(raw) / EntrySize
	if n == 0 {
		clear(out[:len(bs)])
		return
	}
	var bases [probeLanes]int
	for lo := 0; lo < len(bs); lo += probeLanes {
		cs := bs[lo:min(lo+probeLanes, len(bs))]
		base := bases[:len(cs)]
		clear(base)
		for w := n; w > 1; {
			half := w / 2
			for i, b := range cs {
				// All ones when the entry at base+half is below b.
				below := (int64(entryNode(raw, base[i]+half)) - int64(b)) >> 63
				base[i] += half & int(below)
			}
			w -= half
		}
		dst := out[lo : lo+len(cs)]
		for i, b := range cs {
			// base[i] is the last entry below b, or 0 when none is:
			// the lower bound is base[i]+1 or base[i].
			j := base[i]
			if entryNode(raw, j) < b {
				j++
			}
			dst[i] = 0
			if j < n {
				if node, score := Entry(raw, j); node == b {
					dst[i] = float64(score)
				}
			}
		}
	}
}

// probeLanes is how many candidate searches ProbeEntries runs in
// lockstep: more than a slot's candidates (n = 10 by default, plus the
// original term).
const probeLanes = 16

// entryNode decodes the node of entry i of raw.
func entryNode(raw []byte, i int) graph.NodeID {
	return graph.NodeID(binary.LittleEndian.Uint32(raw[i*EntrySize:]))
}

// Quantize narrows a score to the float32 grid rows are stored on.
func Quantize(x float64) float32 { return float32(x) }

// Row is one computed row in its stored form: its entries, read-only
// once built.
type Row []byte

// NewRow encodes an extractor's scored list as a row, keeping its
// order. Computed rows enter a Store through it; rows read from a v1
// snapshot (the one format that stores float64) are narrowed by the
// same Quantize.
func NewRow(list []graph.Scored) Row {
	r := make(Row, len(list)*EntrySize)
	for i, sn := range list {
		PutEntry(r[i*EntrySize:], sn.Node, Quantize(sn.Score))
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

// Rows is the serial form of a table — what a snapshot section holds
// and what crosses the artifact boundary: the present rows in ascending
// node order, their entries back to back. It is a table without the
// node-indexed offsets, so a decoder can build one by appending, in
// memory proportional to the bytes it has read rather than to the
// largest node id they name.
type Rows struct {
	// Src lists the nodes that have a row, strictly ascending.
	Src []graph.NodeID
	// End[i] is the entry count through row i: row i is entries
	// End[i-1] to End[i] (from 0 for the first row).
	End []uint32
	// Entries holds every row's entries, encoded.
	Entries []byte
}

// Append adds an n-entry row for v and returns its entry bytes for the
// caller to fill. Rows must arrive in ascending node order; a decoder
// checks that on its input before it calls, so a violation here is a
// bug.
func (r *Rows) Append(v graph.NodeID, n int) []byte {
	if v < 0 || len(r.Src) > 0 && v <= r.Src[len(r.Src)-1] {
		panic("packed: rows appended out of node order")
	}
	lo := len(r.Entries)
	r.Src = append(r.Src, v)
	r.Entries = slices.Grow(r.Entries, n*EntrySize)[:lo+n*EntrySize]
	r.End = append(r.End, uint32(len(r.Entries)/EntrySize))
	return r.Entries[lo:]
}

// Has reports whether v has a row; a nil Rows has none.
func (r *Rows) Has(v graph.NodeID) bool {
	if r == nil {
		return false
	}
	_, found := slices.BinarySearch(r.Src, v)
	return found
}

// Row returns the i-th present row's node and entries, read-only.
func (r *Rows) Row(i int) (v graph.NodeID, raw []byte) {
	lo := uint32(0)
	if i > 0 {
		lo = r.End[i-1]
	}
	return r.Src[i], r.Entries[lo*EntrySize : r.End[i]*EntrySize]
}

// Index is the CSR row index of a table: which nodes have a row and
// where each row's entries lie. The RAM table, the disk table and a
// KQRART v2 file's prelude all hold this one index.
type Index struct {
	// Off[v] to Off[v+1] are node v's entries; len(Off) is the node
	// count plus one.
	Off []uint32
	// Present has bit v set when v has a (possibly empty) row.
	Present []uint64
}

// NewIndex indexes the rows for a graph of numNodes nodes. Rows of
// nodes outside [0, numNodes) are left out — they cannot belong to the
// graph the index serves. A nil r indexes no rows.
func NewIndex(numNodes int, r *Rows) Index {
	x := Index{Off: make([]uint32, numNodes+1), Present: make([]uint64, (numNodes+63)/64)}
	var src []graph.NodeID
	if r != nil {
		src = r.Src
	}
	i, end := 0, uint32(0)
	for v := 0; v <= numNodes; v++ {
		x.Off[v] = end
		if v < numNodes && i < len(src) && int(src[i]) == v {
			x.Present[uint(v)>>6] |= 1 << (uint(v) & 63)
			end = r.End[i]
			i++
		}
	}
	return x
}

// Has reports whether v has a (possibly empty) row.
func (x Index) Has(v graph.NodeID) bool {
	return v >= 0 && int(v) < len(x.Off)-1 && x.Present[uint(v)>>6]&(1<<(uint(v)&63)) != 0
}

// Entries returns how many entries the index spans.
func (x Index) Entries() uint32 { return x.Off[len(x.Off)-1] }

// Pages is where a table's entry bytes live: a heap slice in RAM mode,
// page frames read out of a snapshot file in disk mode
// (internal/diskmode).
type Pages interface {
	// Pin returns the bytes of entries lo to hi — one row, which never
	// spans two pages — and, when they can be reused once released,
	// the lock the caller must RUnlock when it is done with them. ok is
	// false when the bytes cannot be served right now (a draining disk
	// store, a page that failed its read or CRC).
	Pin(lo, hi uint32) (raw []byte, unpin *sync.RWMutex, ok bool)
}

// Bytes is the RAM backing: the entries themselves.
type Bytes []byte

// Pin slices the row out of the entries; nothing reuses them.
func (b Bytes) Pin(lo, hi uint32) ([]byte, *sync.RWMutex, bool) {
	return b[lo*EntrySize : hi*EntrySize], nil, true
}

// Table is a published row table: an index over entry bytes, wherever
// they live. A Store binds one Table and never branches on the backing:
// a RAM row and a paged row are the same bytes served by the same code,
// so swapping RAM for disk is a publication-time decision, not a
// hot-path one.
//
// A row leaves a table only by copy (AppendRow) or by probe (ProbeRow):
// no slice into its bytes is ever handed out, which is what lets a
// paged table reuse a page's memory the moment it evicts it. Both
// answer ok == false when the table has no row for the node (or cannot
// serve it right now — a draining disk store, a corrupt page), in which
// case the Store computes the row for its caller.
type Table struct {
	Index
	pages Pages
}

// NewTable returns the table over x whose entries p serves.
func NewTable(x Index, p Pages) *Table { return &Table{Index: x, pages: p} }

// heapTable indexes rows for a graph of numNodes nodes over their own
// entries, which the table takes over (reallocated to size only when
// appending left them with real slack, which a table that lives as long
// as its generation should not carry): r must not be appended to
// afterwards.
func heapTable(numNodes int, r *Rows) *Table {
	x := NewIndex(numNodes, r)
	var entries []byte
	if r != nil {
		entries = r.Entries[:x.Entries()*EntrySize]
		if cap(entries)-len(entries) > len(entries)/8 {
			entries = slices.Clone(entries)
		}
	}
	return NewTable(x, Bytes(entries))
}

// pin returns v's entries and the lock to release them with, nil for an
// empty row or bytes nothing reuses.
func (t *Table) pin(v graph.NodeID) ([]byte, *sync.RWMutex, bool) {
	if !t.Has(v) {
		return nil, nil, false
	}
	lo, hi := t.Off[v], t.Off[v+1]
	if lo == hi {
		return nil, nil, true // computed-empty row: nothing to pin
	}
	return t.pages.Pin(lo, hi)
}

// AppendRow appends v's row, in stored order, to nodes and scores and
// returns the extended slices; on ok == false they come back unchanged.
func (t *Table) AppendRow(v graph.NodeID, nodes []graph.NodeID, scores []float32) ([]graph.NodeID, []float32, bool) {
	raw, unpin, ok := t.pin(v)
	if ok {
		nodes, scores = AppendEntries(raw, nodes, scores)
	}
	if unpin != nil {
		unpin.RUnlock()
	}
	return nodes, scores, ok
}

// ProbeRow looks each bs[i] up in a's row, which must be sorted by node
// id (a closeness row), and writes its score to out[i] — 0 for a node
// the row does not hold. out must be at least len(bs) long.
func (t *Table) ProbeRow(a graph.NodeID, bs []graph.NodeID, out []float64) bool {
	raw, unpin, ok := t.pin(a)
	if ok {
		ProbeEntries(raw, bs, out)
	}
	if unpin != nil {
		unpin.RUnlock()
	}
	return ok
}

// appendRaw appends v's entry bytes to b.
func (t *Table) appendRaw(v graph.NodeID, b []byte) ([]byte, bool) {
	raw, unpin, ok := t.pin(v)
	b = append(b, raw...)
	if unpin != nil {
		unpin.RUnlock()
	}
	return b, ok
}
