package hmm

import (
	"fmt"
	"sort"
)

// This file holds the flat, pooled decoder behind the entry points
// Model.TopKViterbi and Model.TopKAStar. Everything it touches lives in
// contiguous arrays owned by a reusable Decoder:
//
//   - the Viterbi heuristic table h lives in one flat []float64 indexed
//     through per-step offsets;
//   - Algorithm 2's per-(step,state) candidate lists live in one
//     fixed-stride arena of pathEntry cells;
//   - Algorithm 3's frontier is a hand-rolled binary max-heap of int32
//     indices into a flat node arena (no node pointers, no
//     container/heap interface boxing);
//   - decoded paths share one flat states arena, pre-reserved before
//     reconstruction so earlier Path.States slices never move.
//
// Every buffer grows to its high-water mark and is then reused, so a
// warmed Decoder performs zero heap allocations per decode. All
// floating-point operations, iteration orders, comparison functions,
// and heap sift semantics mirror the reference implementations in
// hmmtest exactly, which makes the results bit-identical — a property
// the tests enforce against both those and brute-force enumeration.

// Decoder is reusable scratch state for the flat decode hot path. A
// Decoder is not safe for concurrent use; get one per goroutine from
// GetDecoder or embed one in per-request scratch.
//
// Results returned by Decoder methods alias the Decoder's arenas and
// are valid only until the next call on the same Decoder; callers that
// retain paths across decodes must copy them (or use the Model methods,
// which do).
type Decoder struct {
	// Flat forward/heuristic table: cell (c, i) of the reference h lives
	// at h[off[c]+i]; off has steps+1 entries. The same offsets index
	// the Algorithm 2 cell arena.
	off []int32
	h   []float64

	// Algorithm 2 scratch: cell (c, j) owns the fixed-stride window
	// cells[(off[c]+j)*k : ...+k] with cellLen[off[c]+j] live entries.
	cells   []pathEntry
	cellLen []int32
	cands   entrySorter
	tails   tailSorter

	// Algorithm 3 scratch: arena-allocated nodes index-linked through
	// next, and a binary max-heap of arena indices.
	arena []flatNode
	heap  []int32

	// Output arenas shared by both algorithms.
	paths  []Path
	states []int
	stats  AStarStats
}

// pathEntry is one of the k best partial paths ending at a given state
// (Algorithm 2), stored as a parent reference into the previous step's
// cell so no path copying happens until reconstruction.
type pathEntry struct {
	score    float64
	prevRank int // index into the previous state's cell; -1 at step 0
	prev     int // previous state; -1 at step 0
}

// flatNode is a partial path of Algorithm 3 covering steps step..m-1,
// built backwards; next is the arena index of its suffix continuation
// (the state at step+1, ...; -1 terminates the chain). g is the product
// of every factor strictly after this step's heuristic:
// Π_{t=step+1..m-1} Trans(t, s_{t-1}, s_t)·Emit[t][s_t]. The priority is
// f = h[step][front]·g, an exact upper bound on any completion: h is
// the best achievable prefix through front, and g is the fixed suffix.
type flatNode struct {
	g, f  float64
	step  int32
	front int32
	next  int32
}

// entrySorter sorts a pathEntry buffer by score descending, then
// previous state and previous rank ascending; held by value in the
// Decoder so sort.Sort(&d.cands) converts an existing heap pointer to
// the interface without allocating.
type entrySorter struct{ es []pathEntry }

func (s *entrySorter) Len() int { return len(s.es) }
func (s *entrySorter) Less(i, j int) bool {
	a, b := &s.es[i], &s.es[j]
	if a.score != b.score {
		return a.score > b.score
	}
	if a.prev != b.prev {
		return a.prev < b.prev
	}
	return a.prevRank < b.prevRank
}
func (s *entrySorter) Swap(i, j int) { s.es[i], s.es[j] = s.es[j], s.es[i] }

// tailEntry is one final-step cell entry, a candidate for the global
// top k of Algorithm 2.
type tailEntry struct {
	score float64
	state int32
	rank  int32
}

// tailSorter sorts final-step tails by score descending, then state
// and rank ascending.
type tailSorter struct{ ts []tailEntry }

func (s *tailSorter) Len() int { return len(s.ts) }
func (s *tailSorter) Less(i, j int) bool {
	a, b := &s.ts[i], &s.ts[j]
	if a.score != b.score {
		return a.score > b.score
	}
	if a.state != b.state {
		return a.state < b.state
	}
	return a.rank < b.rank
}
func (s *tailSorter) Swap(i, j int) { s.ts[i], s.ts[j] = s.ts[j], s.ts[i] }

// layout fills d.off with the model's per-step offsets (steps+1 entries)
// and returns the total state count.
func (d *Decoder) layout(m *Model) int {
	steps := m.Steps()
	d.off = growI32(d.off, steps+1)
	total := 0
	for c := 0; c < steps; c++ {
		d.off[c] = int32(total)
		total += len(m.Emit[c])
	}
	d.off[steps] = int32(total)
	return total
}

// Forward is the first stage of Algorithm 3: the Viterbi forward pass.
// It fills the Decoder's heuristic table with h[c][j], the best prefix
// score ending at state j of step c —
//
//	h[0][i] = Pi[i]·Emit[0][i]
//	h[c][j] = max_i h[c-1][i]·Trans(c, i, j) · Emit[c][j]
//
// (no backpointers: the backward search rebuilds paths itself) — for
// Search to consume. TopKAStar runs both; they are separate so the two
// stages can be timed independently (the paper's Figure 8).
func (d *Decoder) Forward(m *Model) error {
	if err := m.Validate(); err != nil {
		return err
	}
	steps := m.Steps()
	total := d.layout(m)
	d.h = growF64(d.h, total)

	h0 := d.h[:len(m.Emit[0])]
	for i := range h0 {
		h0[i] = m.Pi[i] * m.Emit[0][i]
	}
	for c := 1; c < steps; c++ {
		prev := d.h[d.off[c-1]:d.off[c]]
		cur := d.h[d.off[c]:d.off[c+1]]
		for j := range cur {
			best := 0.0
			for i := range prev {
				if prev[i] == 0 {
					continue
				}
				if s := prev[i] * m.Trans(c, i, j); s > best {
					best = s
				}
			}
			cur[j] = best * m.Emit[c][j]
		}
	}
	return nil
}

// TopKViterbi runs the paper's Algorithm 2 on the Decoder's flat
// scratch: the Viterbi recurrence generalized so every (step, state)
// cell keeps its k best incoming partial paths, sorted by descending
// score —
//
//	cell(0, i) = {Pi[i]·Emit[0][i]}
//	cell(c, j) = top-k over i, r of cell(c-1, i)[r]·Trans(c, i, j)·Emit[c][j]
//
// — then the global top k over the last step's cells, reconstructed
// through the parent references. Zero-probability paths are pruned
// ("states with zero or low closeness with the previous state could be
// discarded", §V-C), including candidates whose score product
// underflows to exactly zero, so fewer than k paths come back when
// fewer positive-probability complete paths exist. The returned paths
// alias the Decoder's arenas.
func (d *Decoder) TopKViterbi(m *Model, k int) ([]Path, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		k = 1
	}
	steps := m.Steps()
	total := d.layout(m)
	d.cells = growEntries(d.cells, total*k)
	d.cellLen = growI32(d.cellLen, total)

	for i := range m.Emit[0] {
		if s := m.Pi[i] * m.Emit[0][i]; s > 0 {
			d.cells[i*k] = pathEntry{score: s, prevRank: -1, prev: -1}
			d.cellLen[i] = 1
		} else {
			d.cellLen[i] = 0
		}
	}
	for c := 1; c < steps; c++ {
		n := len(m.Emit[c])
		prevN := len(m.Emit[c-1])
		base, prevBase := int(d.off[c]), int(d.off[c-1])
		for j := 0; j < n; j++ {
			cell := base + j
			d.cellLen[cell] = 0
			emit := m.Emit[c][j]
			if emit == 0 {
				continue
			}
			d.cands.es = d.cands.es[:0]
			for i := 0; i < prevN; i++ {
				plen := int(d.cellLen[prevBase+i])
				if plen == 0 {
					continue
				}
				tr := m.Trans(c, i, j)
				if tr == 0 {
					continue
				}
				prow := d.cells[(prevBase+i)*k:]
				for rank := 0; rank < plen; rank++ {
					s := prow[rank].score * tr * emit
					if s == 0 {
						// The factors are positive but the product
						// underflowed; keeping it would surface a
						// zero-score path.
						continue
					}
					d.cands.es = append(d.cands.es, pathEntry{score: s, prevRank: rank, prev: i})
				}
			}
			sort.Sort(&d.cands)
			nc := len(d.cands.es)
			if nc > k {
				nc = k
			}
			copy(d.cells[cell*k:cell*k+nc], d.cands.es[:nc])
			d.cellLen[cell] = int32(nc)
		}
	}

	lastBase := int(d.off[steps-1])
	d.tails.ts = d.tails.ts[:0]
	for j := 0; j < len(m.Emit[steps-1]); j++ {
		for r := int32(0); r < d.cellLen[lastBase+j]; r++ {
			d.tails.ts = append(d.tails.ts, tailEntry{
				score: d.cells[(lastBase+j)*k+int(r)].score,
				state: int32(j),
				rank:  r,
			})
		}
	}
	sort.Sort(&d.tails)
	nt := len(d.tails.ts)
	if nt > k {
		nt = k
	}

	d.paths = growPaths(d.paths, nt)
	d.states = growInts(d.states, nt*steps)
	for t := 0; t < nt; t++ {
		tl := d.tails.ts[t]
		states := d.states[t*steps : (t+1)*steps]
		j, r := int(tl.state), int(tl.rank)
		for c := steps - 1; c >= 0; c-- {
			states[c] = j
			pe := d.cells[(int(d.off[c])+j)*k+r]
			j, r = pe.prev, pe.prevRank
		}
		d.paths[t] = Path{States: states, Score: tl.score}
	}
	return d.paths[:nt], nil
}

// TopKAStar runs the paper's Algorithm 3 on the Decoder's flat scratch:
// Forward, then Search. The returned paths and stats alias the Decoder
// and are valid until the next call.
func (d *Decoder) TopKAStar(m *Model, k int) ([]Path, *AStarStats, error) {
	if err := d.Forward(m); err != nil {
		return nil, nil, err
	}
	return d.Search(m, k)
}

// Search is the second stage of Algorithm 3: a best-first backward
// search over the heuristic table the preceding Forward(m) left in the
// Decoder (which it does not modify, so one Forward serves any number
// of Searches on the same model). Suffixes grow from the last step,
// each scored by the exact bound f = h·g. Because f is exact for
// complete paths and an upper bound for partial ones, paths pop off the
// frontier in global score order and the first k complete pops are the
// top k. Fewer than k paths come back when fewer positive-probability
// paths exist. The returned paths and stats alias the Decoder and are
// valid until the next call.
func (d *Decoder) Search(m *Model, k int) ([]Path, *AStarStats, error) {
	steps := m.Steps()
	if len(d.off) != steps+1 || len(d.h) != int(d.off[steps]) {
		return nil, nil, fmt.Errorf("hmm: Search on a %d-step model without a Forward pass over it", steps)
	}
	for c := 0; c < steps; c++ {
		if int(d.off[c+1]-d.off[c]) != len(m.Emit[c]) {
			return nil, nil, fmt.Errorf("hmm: Search on a model whose step %d does not match the last Forward pass", c)
		}
	}
	if k < 1 {
		k = 1
	}
	last := steps - 1
	d.stats = AStarStats{ForwardStates: int(d.off[steps])}

	d.arena = d.arena[:0]
	d.heap = d.heap[:0]
	hLast := d.h[d.off[last]:d.off[last+1]]
	for i, hi := range hLast {
		if hi > 0 {
			d.arena = append(d.arena, flatNode{step: int32(last), front: int32(i), g: 1, f: hi, next: -1})
			d.heap = append(d.heap, int32(len(d.arena)-1))
			d.stats.Pushed++
		}
	}
	d.heapInit()

	d.paths = growPaths(d.paths, k)
	d.paths = d.paths[:0]
	// Pre-reserve the whole states arena so appending one decoded path
	// never moves the backing array under an earlier Path.States.
	d.states = growInts(d.states, k*steps)
	nOut := 0
	for len(d.heap) > 0 && nOut < k {
		ndIdx := d.heapPop()
		nd := d.arena[ndIdx]
		d.stats.Expanded++
		if nd.step == 0 {
			states := d.states[nOut*steps : (nOut+1)*steps]
			states[0] = int(nd.front)
			for c, nx := 1, nd.next; nx >= 0; c, nx = c+1, d.arena[nx].next {
				states[c] = int(d.arena[nx].front)
			}
			d.paths = append(d.paths, Path{States: states, Score: nd.f})
			nOut++
			continue
		}
		c := int(nd.step)
		suffixEmit := m.Emit[c][nd.front]
		if suffixEmit == 0 {
			continue
		}
		hPrev := d.h[d.off[c-1]:d.off[c]]
		// nd is a copy and ndIdx stays valid: popped nodes are never
		// evicted from the arena, so children can keep linking to them
		// even as appends reallocate the backing array.
		for j := range m.Emit[c-1] {
			if hPrev[j] == 0 {
				continue
			}
			tr := m.Trans(c, j, int(nd.front))
			if tr == 0 {
				continue
			}
			g := nd.g * tr * suffixEmit
			f := hPrev[j] * g
			if f == 0 {
				continue
			}
			d.arena = append(d.arena, flatNode{step: int32(c - 1), front: int32(j), g: g, f: f, next: ndIdx})
			d.heapPush(int32(len(d.arena) - 1))
			d.stats.Pushed++
		}
	}
	return d.paths, &d.stats, nil
}

// heapLess orders the frontier: max on f, then step asc, front asc.
func (d *Decoder) heapLess(a, b int32) bool {
	x, y := &d.arena[a], &d.arena[b]
	if x.f != y.f {
		return x.f > y.f
	}
	if x.step != y.step {
		return x.step < y.step
	}
	return x.front < y.front
}

// The three heap primitives replicate container/heap's Init/Push/Pop
// sift semantics exactly (same child choice, same swap sequence), so a
// frontier fed the same nodes in the same order pops in the same order
// as the reference's container/heap — including among full ties, where
// the result depends on sift history rather than the comparator.

func (d *Decoder) heapInit() {
	n := len(d.heap)
	for i := n/2 - 1; i >= 0; i-- {
		d.heapDown(i, n)
	}
}

func (d *Decoder) heapPush(x int32) {
	d.heap = append(d.heap, x)
	// Sift up from the new leaf.
	j := len(d.heap) - 1
	for {
		i := (j - 1) / 2
		if i == j || !d.heapLess(d.heap[j], d.heap[i]) {
			break
		}
		d.heap[i], d.heap[j] = d.heap[j], d.heap[i]
		j = i
	}
}

func (d *Decoder) heapPop() int32 {
	n := len(d.heap) - 1
	d.heap[0], d.heap[n] = d.heap[n], d.heap[0]
	d.heapDown(0, n)
	x := d.heap[n]
	d.heap = d.heap[:n]
	return x
}

func (d *Decoder) heapDown(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && d.heapLess(d.heap[j2], d.heap[j1]) {
			j = j2
		}
		if !d.heapLess(d.heap[j], d.heap[i]) {
			break
		}
		d.heap[i], d.heap[j] = d.heap[j], d.heap[i]
		i = j
	}
}

// growI32 returns s with length n, reusing capacity when possible.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// growF64 returns s with length n, reusing capacity when possible.
func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growInts returns s with length n, reusing capacity when possible.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growEntries returns s with length n, reusing capacity when possible.
func growEntries(s []pathEntry, n int) []pathEntry {
	if cap(s) < n {
		return make([]pathEntry, n)
	}
	return s[:n]
}

// growPaths returns s with length n, reusing capacity when possible.
func growPaths(s []Path, n int) []Path {
	if cap(s) < n {
		return make([]Path, n)
	}
	return s[:n]
}
