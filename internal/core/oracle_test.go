package core

// The allocating reference path of the online stage, kept as the oracle
// the pooled path is tested bit-for-bit against: a fresh slot set and a
// fresh, nested-slice model per query (buildSlots / buildModel — the
// same arithmetic in the same order as buildSlotsInto / buildModelInto)
// decoded by the pointer-path reference decoders of hmmtest, and the
// allocating path filter (append-grown rows, joined-string set) the
// pooled rowFilter replaced.

import (
	"fmt"
	"strings"

	"kqr/internal/graph"
	"kqr/internal/hmm"
	"kqr/internal/hmm/hmmtest"
)

// buildSlots fetches candidate lists for every query term into fresh
// slots.
func (e *Engine) buildSlots(queryNodes []graph.NodeID) ([]slot, error) {
	slots := make([]slot, len(queryNodes))
	for i, q := range queryNodes {
		if err := e.fillSlot(&slots[i], i, q); err != nil {
			return nil, err
		}
	}
	return slots, nil
}

// buildModel assembles the HMM of §V-B over the slots, applying the
// Eq. 5–6 smoothing (see the note on buildModelInto).
func (e *Engine) buildModel(slots []slot) *hmm.Model {
	m := len(slots)
	lam := e.opts.SmoothingLambda

	emit := make([][]float64, m)
	for c, s := range slots {
		col := make([]float64, len(s.cands))
		bg, cnt := 0.0, 0
		for _, sim := range s.sims {
			bg += sim
			cnt++
		}
		if cnt > 0 {
			bg /= float64(cnt)
		}
		total := 0.0
		for i, sim := range s.sims {
			col[i] = lam*sim + (1-lam)*bg
			total += col[i]
		}
		if total > 0 { // normalization Z_B of Eq. 9
			for i := range col {
				col[i] /= total
			}
		}
		emit[c] = col
	}

	pi := make([]float64, len(slots[0].cands))
	zPi := 0.0
	for i, v := range slots[0].cands {
		f := 1.0
		if v == voidNode {
			f = voidPenalty
		} else {
			f = float64(e.tg.Freq(v))
		}
		pi[i] = f
		zPi += f
	}
	if zPi > 0 { // normalization Z_t of Eq. 7
		for i := range pi {
			pi[i] /= zPi
		}
	}

	// Precompute per-step transition matrices so decoding does map
	// lookups once, and so the smoothing background is deterministic.
	trans := make([][][]float64, m)
	for c := 1; c < m; c++ {
		prev, cur := slots[c-1], slots[c]
		tbl := make([][]float64, len(prev.cands))
		raw := make([][]float64, len(prev.cands))
		bg, cnt, maxV := 0.0, 0, 0.0
		for i, a := range prev.cands {
			raw[i] = make([]float64, len(cur.cands))
			for j, b := range cur.cands {
				v := 0.0
				switch {
				case a == voidNode || b == voidNode:
					v = voidPenalty
				default:
					v = e.clos.Clos(a, b)
				}
				raw[i][j] = v
				bg += v
				cnt++
				if v > maxV {
					maxV = v
				}
			}
		}
		if cnt > 0 {
			bg /= float64(cnt)
		}
		// Scale by the step maximum for numeric comparability across
		// steps; a per-step constant factor never changes path ranking.
		scale := 1.0
		if maxV > 0 {
			scale = 1 / maxV
		}
		for i := range raw {
			tbl[i] = make([]float64, len(raw[i]))
			for j := range raw[i] {
				tbl[i][j] = (lam*raw[i][j] + (1-lam)*bg) * scale
			}
		}
		trans[c] = tbl
	}

	return &hmm.Model{
		Pi:   pi,
		Emit: emit,
		Trans: func(step, from, to int) float64 {
			return trans[step][from][to]
		},
	}
}

// ReformulateRef is Reformulate on the allocating path: the same table
// reads, but per-query slot and model allocation and the Ref decoders.
func (e *Engine) ReformulateRef(query []string, k int) ([]Reformulation, error) {
	nodes, err := e.resolve(nil, query)
	if err != nil {
		return nil, err
	}
	if k < 1 {
		k = 1
	}
	return e.reformulateNodesRef(nodes, k)
}

// reformulateNodesRef is reformulateNodes over the allocating path.
func (e *Engine) reformulateNodesRef(nodes []graph.NodeID, k int) ([]Reformulation, error) {
	slots, err := e.buildSlots(nodes)
	if err != nil {
		return nil, err
	}
	model := e.buildModel(slots)
	fetch := k + len(nodes) + 2
	var paths []hmm.Path
	switch e.opts.Algorithm {
	case AlgTopKViterbi:
		paths, err = hmmtest.TopKViterbiRef(model, fetch)
	default:
		paths, _, err = hmmtest.TopKAStarRef(model, fetch)
	}
	if err != nil {
		return nil, err
	}
	return e.pathsToReformulationsRef(slots, paths, k), nil
}

// DecodePathsRef is DecodePaths over the allocating path (per-query
// slots and model, Ref decoders). The visited Paths are caller-safe
// copies by construction.
func (e *Engine) DecodePathsRef(nodes []graph.NodeID, k int, visit func(hmm.Path) bool) error {
	if len(nodes) == 0 {
		return fmt.Errorf("core: empty query")
	}
	if k < 1 {
		k = 1
	}
	slots, err := e.buildSlots(nodes)
	if err != nil {
		return err
	}
	model := e.buildModel(slots)
	var paths []hmm.Path
	switch e.opts.Algorithm {
	case AlgTopKViterbi:
		paths, err = hmmtest.TopKViterbiRef(model, k)
	default:
		paths, _, err = hmmtest.TopKAStarRef(model, k)
	}
	if err != nil {
		return err
	}
	for _, p := range paths {
		if visit != nil && !visit(p) {
			break
		}
	}
	return nil
}

// pathsToReformulationsRef maps decoded state sequences back to term
// texts, dropping void slots, filtering the identity query and
// duplicates — what VisitReformulations' rowFilter must reproduce.
func (e *Engine) pathsToReformulationsRef(slots []slot, paths []hmm.Path, k int) []Reformulation {
	out := make([]Reformulation, 0, k)
	seen := make(map[string]bool)
	for _, p := range paths {
		if len(out) >= k {
			break
		}
		r := Reformulation{Score: p.Score}
		identity := true
		for c, si := range p.States {
			v := slots[c].cands[si]
			if v == voidNode {
				identity = false
				continue
			}
			if v != slots[c].query {
				identity = false
			}
			r.Nodes = append(r.Nodes, v)
			r.Terms = append(r.Terms, e.tg.TermText(v))
		}
		if identity || len(r.Terms) == 0 {
			continue
		}
		key := strings.Join(r.Terms, "\x00")
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, r)
	}
	return out
}
