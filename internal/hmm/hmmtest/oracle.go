// Package hmmtest holds the reference decoders the tests of hmm and core
// compare the flat hmm.Decoder against: the original map/pointer-heavy
// implementations of Algorithms 2 and 3, the top-1 Viterbi dynamic
// program, and an exhaustive enumerator. Nothing outside _test files
// imports it, so the shipping binaries carry one decoder.
//
// The Decoder's results are bit-identical to these by construction
// (same floating-point operations, iteration orders and comparison
// functions) and by test. The A* reference keeps its frontier in a plain
// slice and pops by a linear scan for the best node under a total order,
// so no data structure's tie handling can reach its answers.
package hmmtest

import (
	"fmt"
	"sort"

	"kqr/internal/hmm"
)

// forward runs the Viterbi dynamic program and returns, per step and
// state, the best prefix score ending there (h in Algorithm 3) plus the
// backpointers of the best path.
func forward(m *hmm.Model) (h [][]float64, back [][]int) {
	steps := m.Steps()
	h = make([][]float64, steps)
	back = make([][]int, steps)
	h[0] = make([]float64, len(m.Emit[0]))
	back[0] = make([]int, len(m.Emit[0]))
	for i := range h[0] {
		h[0][i] = m.Pi[i] * m.Emit[0][i]
		back[0][i] = -1
	}
	for c := 1; c < steps; c++ {
		n := len(m.Emit[c])
		prevN := len(m.Emit[c-1])
		h[c] = make([]float64, n)
		back[c] = make([]int, n)
		for j := 0; j < n; j++ {
			best, bestPrev := 0.0, -1
			for i := 0; i < prevN; i++ {
				if h[c-1][i] == 0 {
					continue
				}
				s := h[c-1][i] * m.Trans[c][i*n+j]
				if s > best {
					best, bestPrev = s, i
				}
			}
			h[c][j] = best * m.Emit[c][j]
			back[c][j] = bestPrev
		}
	}
	return h, back
}

// Viterbi returns the single most probable hidden-state sequence. If
// every complete path has probability zero it returns ok=false.
func Viterbi(m *hmm.Model) (hmm.Path, bool, error) {
	if err := m.Validate(); err != nil {
		return hmm.Path{}, false, err
	}
	h, back := forward(m)
	last := m.Steps() - 1
	best, bestState := 0.0, -1
	for i, s := range h[last] {
		if s > best {
			best, bestState = s, i
		}
	}
	if bestState < 0 {
		return hmm.Path{}, false, nil
	}
	states := make([]int, m.Steps())
	for c, s := last, bestState; c >= 0; c-- {
		states[c] = s
		s = back[c][s]
	}
	return hmm.Path{States: states, Score: best}, true, nil
}

// --- Algorithm 2: extended top-k Viterbi ---

// pathEntry is one of the k best partial paths ending at a given state,
// stored as a parent pointer into the previous step's lists so no path
// copying happens until reconstruction.
type pathEntry struct {
	score    float64
	prevRank int // index into the previous state's entry list; -1 at step 0
	prev     int // previous state; -1 at step 0
}

// TopKViterbiRef is the reference implementation of the paper's
// Algorithm 2: the Viterbi recurrence generalized so every (step, state)
// cell keeps its k best incoming partial paths. Zero-probability paths
// are pruned — "states with zero or low closeness with the previous
// state could be discarded" (§V-C) — including candidates whose score
// product underflows to exactly zero. It may return fewer than k paths
// when fewer positive-probability complete paths exist.
func TopKViterbiRef(m *hmm.Model, k int) ([]hmm.Path, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		k = 1
	}
	steps := m.Steps()
	// lists[c][j] holds up to k best partial paths ending at state j of
	// step c, sorted by descending score.
	lists := make([][][]pathEntry, steps)
	lists[0] = make([][]pathEntry, len(m.Emit[0]))
	for i := range lists[0] {
		if s := m.Pi[i] * m.Emit[0][i]; s > 0 {
			lists[0][i] = []pathEntry{{score: s, prevRank: -1, prev: -1}}
		}
	}
	for c := 1; c < steps; c++ {
		n := len(m.Emit[c])
		prevN := len(m.Emit[c-1])
		lists[c] = make([][]pathEntry, n)
		for j := 0; j < n; j++ {
			if m.Emit[c][j] == 0 {
				continue
			}
			var cands []pathEntry
			for i := 0; i < prevN; i++ {
				if len(lists[c-1][i]) == 0 {
					continue
				}
				tr := m.Trans[c][i*n+j]
				if tr == 0 {
					continue
				}
				for rank, pe := range lists[c-1][i] {
					s := pe.score * tr * m.Emit[c][j]
					if s == 0 {
						// The factors are positive but the product
						// underflowed; keeping it would surface a
						// zero-score path BruteForce filters out.
						continue
					}
					cands = append(cands, pathEntry{score: s, prevRank: rank, prev: i})
				}
			}
			sortEntries(cands)
			if len(cands) > k {
				cands = cands[:k]
			}
			lists[c][j] = cands
		}
	}
	// Gather the final-step entries, pick global top k, reconstruct.
	type tail struct {
		state int
		rank  int
		score float64
	}
	var tails []tail
	for j, l := range lists[steps-1] {
		for r, pe := range l {
			tails = append(tails, tail{state: j, rank: r, score: pe.score})
		}
	}
	sort.Slice(tails, func(i, j int) bool {
		if tails[i].score != tails[j].score {
			return tails[i].score > tails[j].score
		}
		if tails[i].state != tails[j].state {
			return tails[i].state < tails[j].state
		}
		return tails[i].rank < tails[j].rank
	})
	if len(tails) > k {
		tails = tails[:k]
	}
	out := make([]hmm.Path, 0, len(tails))
	for _, tl := range tails {
		states := make([]int, steps)
		j, r := tl.state, tl.rank
		for c := steps - 1; c >= 0; c-- {
			states[c] = j
			pe := lists[c][j][r]
			j, r = pe.prev, pe.prevRank
		}
		out = append(out, hmm.Path{States: states, Score: tl.score})
	}
	return out, nil
}

func sortEntries(es []pathEntry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].score != es[j].score {
			return es[i].score > es[j].score
		}
		if es[i].prev != es[j].prev {
			return es[i].prev < es[j].prev
		}
		return es[i].prevRank < es[j].prevRank
	})
}

// --- Algorithm 3: Viterbi forward pass + A* backward search ---

// astarNode is a partial path covering steps c..m-1, built backwards.
// g is the product of every factor strictly after step c's heuristic:
// Π_{t=c+1..m-1} Trans[t][s_{t-1}·len(Emit[t])+s_t]·Emit[t][s_t]. The
// priority is f = h[c][front]·g, an exact upper bound on any completion:
// h is the best achievable prefix through front, and g is the fixed
// suffix.
type astarNode struct {
	step      int
	front     int
	parentPop int // pop number of the node this one extends; -1 for a seed
	g         float64
	f         float64
	next      *astarNode // suffix continuation (state at step+1, ...)
}

// less orders the frontier: max on f, then step, front and the parent's
// pop number ascending. Nodes with one parent differ in front, and the
// seeds are the only nodes without one, so no two frontier nodes tie.
func less(x, y *astarNode) bool {
	if x.f != y.f {
		return x.f > y.f
	}
	if x.step != y.step {
		return x.step < y.step
	}
	if x.front != y.front {
		return x.front < y.front
	}
	return x.parentPop < y.parentPop
}

// TopKAStarRef is the reference implementation of the paper's
// Algorithm 3: a Viterbi forward pass records h[c][i], the best prefix
// score ending at state i of step c; then a best-first backward search
// grows suffixes from the last step, scoring each partial path by the
// exact bound f = h·g. Because f is exact for complete paths and an
// upper bound for partial ones, paths pop off the frontier in global
// score order and the first k complete pops are the top k. Fewer than k
// paths come back when fewer positive-probability paths exist.
func TopKAStarRef(m *hmm.Model, k int) ([]hmm.Path, *hmm.AStarStats, error) {
	h, err := Forward(m)
	if err != nil {
		return nil, nil, err
	}
	return TopKAStarWithHeuristic(m, k, h)
}

// Forward runs only the Viterbi forward pass and returns the heuristic
// table h[c][i] — the best prefix score ending at state i of step c.
func Forward(m *hmm.Model) ([][]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	h, _ := forward(m)
	return h, nil
}

// TopKAStarWithHeuristic runs only the A* backward stage of Algorithm 3
// over a heuristic table previously produced by Forward.
func TopKAStarWithHeuristic(m *hmm.Model, k int, h [][]float64) ([]hmm.Path, *hmm.AStarStats, error) {
	if len(h) != m.Steps() {
		return nil, nil, fmt.Errorf("hmmtest: heuristic has %d steps, model has %d", len(h), m.Steps())
	}
	if k < 1 {
		k = 1
	}
	stats := &hmm.AStarStats{}
	for _, col := range h {
		stats.ForwardStates += len(col)
	}
	steps := m.Steps()
	last := steps - 1

	var frontier []*astarNode
	for i, hi := range h[last] {
		if hi > 0 {
			frontier = append(frontier, &astarNode{step: last, front: i, parentPop: -1, g: 1, f: hi})
			stats.Pushed++
		}
	}

	out := make([]hmm.Path, 0, k)
	for pop := 0; len(frontier) > 0 && len(out) < k; pop++ {
		best := 0
		for i := range frontier {
			if less(frontier[i], frontier[best]) {
				best = i
			}
		}
		nd := frontier[best]
		frontier[best] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		stats.Expanded++
		if nd.step == 0 {
			// Complete: states fully determined from front to tail.
			states := make([]int, steps)
			for c, p := 0, nd; p != nil; c, p = c+1, p.next {
				states[c] = p.front
			}
			out = append(out, hmm.Path{States: states, Score: nd.f})
			continue
		}
		c := nd.step
		suffixEmit := m.Emit[c][nd.front]
		if suffixEmit == 0 {
			continue
		}
		for j := range m.Emit[c-1] {
			if h[c-1][j] == 0 {
				continue
			}
			tr := m.Trans[c][j*len(m.Emit[c])+nd.front]
			if tr == 0 {
				continue
			}
			g := nd.g * tr * suffixEmit
			f := h[c-1][j] * g
			if f == 0 {
				continue
			}
			frontier = append(frontier, &astarNode{step: c - 1, front: j, parentPop: pop, g: g, f: f, next: nd})
			stats.Pushed++
		}
	}
	return out, stats, nil
}

// BruteForce enumerates every complete path and returns the k best; it
// should only run on small models.
func BruteForce(m *hmm.Model, k int) ([]hmm.Path, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		k = 1
	}
	var all []hmm.Path
	states := make([]int, m.Steps())
	var rec func(c int)
	rec = func(c int) {
		if c == m.Steps() {
			score, err := m.Score(states)
			if err == nil && score > 0 {
				cp := make([]int, len(states))
				copy(cp, states)
				all = append(all, hmm.Path{States: cp, Score: score})
			}
			return
		}
		for s := range m.Emit[c] {
			states[c] = s
			rec(c + 1)
		}
	}
	rec(0)
	sortPaths(all)
	if len(all) > k {
		all = all[:k]
	}
	return all, nil
}

// sortPaths orders by descending score with lexicographic state order as
// the deterministic tie-break.
func sortPaths(ps []hmm.Path) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Score != ps[j].Score {
			return ps[i].Score > ps[j].Score
		}
		a, b := ps[i].States, ps[j].States
		for x := range a {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
}
