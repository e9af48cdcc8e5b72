package core

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"

	"kqr/internal/graph"
)

// ReformulateRankBased implements the paper's Rank-based reformulation
// baseline (§VI-B): enumerate combinations of per-slot similar terms and
// return those with the highest aggregated similarity to the original
// query, ignoring closeness entirely. The enumeration is a k-best
// Cartesian product over the per-slot candidate lists (each sorted by
// similarity), so only O(k·m) combinations are materialized.
func (e *Engine) ReformulateRankBased(query []string, k int) ([]Reformulation, error) {
	return collect(e.VisitRankBased, query, k)
}

// VisitRankBased is ReformulateRankBased in VisitReformulations' form:
// the baseline's combinations go through the same filter and reach the
// same kind of visitor. The enumeration itself allocates (it is the
// experiments' baseline, not a serving path).
func (e *Engine) VisitRankBased(query []string, k int, visit Visitor) error {
	nodes, err := e.resolve(nil, query)
	if err != nil {
		return err
	}
	if k < 1 {
		k = 1
	}
	scratch := e.getScratch()
	defer e.putScratch(scratch)
	if err := e.buildSlotsInto(scratch, nodes); err != nil {
		return err
	}
	slots := scratch.slots[:len(nodes)]
	// Sort each slot's candidates by descending similarity (fillSlot
	// emits them roughly sorted, but the original/void injections break
	// strict order).
	type cand struct {
		node graph.NodeID
		sim  float64
	}
	lists := make([][]cand, len(slots))
	for i, s := range slots {
		cs := make([]cand, 0, len(s.cands))
		for j, v := range s.cands {
			if v == voidNode {
				continue // deletion is an HMM extension, not part of this baseline
			}
			cs = append(cs, cand{node: v, sim: s.sims[j]})
		}
		sort.Slice(cs, func(a, b int) bool {
			if cs[a].sim != cs[b].sim {
				return cs[a].sim > cs[b].sim
			}
			return cs[a].node < cs[b].node
		})
		if len(cs) == 0 {
			return fmt.Errorf("core: no candidates for slot %d", i)
		}
		lists[i] = cs
	}

	// k-best combination by total similarity: classic heap expansion
	// over index vectors, advancing one slot index per expansion.
	scoreOf := func(idx []int) float64 {
		s := 0.0
		for c, i := range idx {
			s += lists[c][i].sim
		}
		return s
	}
	cmp := func(a, b combo) bool {
		if a.score != b.score {
			return a.score > b.score
		}
		for i := range a.idx {
			if a.idx[i] != b.idx[i] {
				return a.idx[i] < b.idx[i]
			}
		}
		return false
	}
	h := &comboHeap{less: cmp}
	first := combo{idx: make([]int, len(lists))}
	first.score = scoreOf(first.idx)
	heap.Push(h, first)
	visited := map[string]bool{keyOf(first.idx): true}

	rows := &scratch.rows
	rows.reset()
	for h.Len() > 0 && rows.len() < k {
		top := heap.Pop(h).(combo)
		// Expand successors before filtering, so identity combos still
		// seed the search.
		for c := range lists {
			if top.idx[c]+1 < len(lists[c]) {
				nxt := make([]int, len(top.idx))
				copy(nxt, top.idx)
				nxt[c]++
				kk := keyOf(nxt)
				if !visited[kk] {
					visited[kk] = true
					heap.Push(h, combo{idx: nxt, score: scoreOf(nxt)})
				}
			}
		}
		identity := true
		for c, i := range top.idx {
			v := lists[c][i].node
			if v != slots[c].query {
				identity = false
			}
			rows.push(v, e.tg.TermText(v))
		}
		rows.commit(top.score, identity)
	}
	rows.visit(visit)
	return nil
}

func keyOf(idx []int) string {
	var b strings.Builder
	for _, i := range idx {
		fmt.Fprintf(&b, "%d,", i)
	}
	return b.String()
}

// combo is one index vector into the per-slot candidate lists with its
// aggregated similarity.
type combo struct {
	idx   []int
	score float64
}

type comboHeap struct {
	items []combo
	less  func(a, b combo) bool
}

func (h *comboHeap) Len() int           { return len(h.items) }
func (h *comboHeap) Less(i, j int) bool { return h.less(h.items[i], h.items[j]) }
func (h *comboHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *comboHeap) Push(x any)         { h.items = append(h.items, x.(combo)) }
func (h *comboHeap) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}
