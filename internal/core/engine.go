// Package core implements the paper's primary contribution: the online
// reformulated-query generation of §V. Given an input keyword query, it
// fetches each term's precomputed similar-term candidate list, assembles
// the HMM of §V-B (emissions from similarity, transitions from
// closeness, initial distribution from term frequency), applies the
// smoothing of Eq. 5–6, and decodes the top-k hidden state sequences —
// the reformulated queries — with Algorithm 2 or Algorithm 3.
package core

import (
	"fmt"
	"strings"
	"sync"

	"kqr/internal/graph"
	"kqr/internal/hmm"
	"kqr/internal/tatgraph"
)

// SimilarityProvider supplies per-term candidate rows; both the
// contextual random walk and the co-occurrence baseline satisfy it.
type SimilarityProvider interface {
	// SimRow returns t0's same-class similar nodes in rank order with
	// scores normalized to [0,1] (best candidate at 1) as read-only
	// views — lock- and allocation-free once the row is packed. ok is
	// false only when the row could not be computed.
	SimRow(t0 graph.NodeID) (nodes []graph.NodeID, scores []float32, ok bool)
	// Sim returns the similarity of t to t0 (1 for identity, 0 when
	// unrelated).
	Sim(t0, t graph.NodeID) (float64, error)
}

// ClosenessProvider supplies the pairwise closeness relation.
type ClosenessProvider interface {
	Clos(a, b graph.NodeID) float64
}

// Algorithm selects the top-k decoder.
type Algorithm int

const (
	// AlgAStar is the paper's Algorithm 3 (Viterbi + A* backward
	// search), the default and the faster of the two.
	AlgAStar Algorithm = iota
	// AlgTopKViterbi is the paper's Algorithm 2.
	AlgTopKViterbi
)

// String names the algorithm.
func (a Algorithm) String() string {
	if a == AlgTopKViterbi {
		return "topk-viterbi"
	}
	return "astar"
}

// Options configures the engine.
type Options struct {
	// CandidatesPerTerm is n, the size of each slot's similar-term list
	// (default 10; paper Fig. 10 sweeps 5–50).
	CandidatesPerTerm int
	// SmoothingLambda is λ in Eq. 5–6 (default 0.8). 1 disables
	// smoothing; lower values blur scores toward the slot background.
	SmoothingLambda float64
	// KeepOriginal adds each query term itself as a candidate state
	// ("original states", §V-B), enabling partial reformulations.
	// Default true; set DropOriginal to disable.
	DropOriginal bool
	// AllowDeletion adds a void state per slot ("void states", §V-B) so
	// decoded queries may drop terms. Off by default.
	AllowDeletion bool
	// VoidPenalty is the emission/transition score of a void state
	// (default 0.05); only used when AllowDeletion is set.
	VoidPenalty float64
	// Algorithm selects the decoder (default AlgAStar).
	Algorithm Algorithm
}

func (o Options) withDefaults() (Options, error) {
	if o.CandidatesPerTerm == 0 {
		o.CandidatesPerTerm = 10
	}
	if o.CandidatesPerTerm < 1 {
		return o, fmt.Errorf("core: CandidatesPerTerm %d < 1", o.CandidatesPerTerm)
	}
	if o.SmoothingLambda == 0 {
		o.SmoothingLambda = 0.8
	}
	if o.SmoothingLambda < 0 || o.SmoothingLambda > 1 {
		return o, fmt.Errorf("core: SmoothingLambda %v outside [0,1]", o.SmoothingLambda)
	}
	if o.VoidPenalty == 0 {
		o.VoidPenalty = 0.05
	}
	if o.VoidPenalty < 0 || o.VoidPenalty > 1 {
		return o, fmt.Errorf("core: VoidPenalty %v outside [0,1]", o.VoidPenalty)
	}
	if o.Algorithm != AlgAStar && o.Algorithm != AlgTopKViterbi {
		return o, fmt.Errorf("core: unknown algorithm %d", int(o.Algorithm))
	}
	return o, nil
}

// Engine generates reformulated queries. It is safe for concurrent use
// as long as its providers are.
type Engine struct {
	tg   *tatgraph.Graph
	sim  SimilarityProvider
	clos ClosenessProvider
	opts Options

	// pool recycles per-query decode scratch (see queryScratch).
	pool sync.Pool
}

// New builds an engine over a TAT graph with the given providers.
func New(tg *tatgraph.Graph, sim SimilarityProvider, clos ClosenessProvider, opts Options) (*Engine, error) {
	if tg == nil || sim == nil || clos == nil {
		return nil, fmt.Errorf("core: nil graph or provider")
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Engine{tg: tg, sim: sim, clos: clos, opts: opts}, nil
}

// Options returns the engine's effective options (defaults applied).
func (e *Engine) Options() Options { return e.opts }

// Reformulation is one suggested substitutive query.
type Reformulation struct {
	// Terms is the reformulated query, one display text per surviving
	// slot (void slots are dropped).
	Terms []string
	// Nodes are the corresponding term nodes; len(Nodes) == len(Terms).
	Nodes []graph.NodeID
	// Score is the generation probability p(Q'|Q) of Eq. 10, comparable
	// within one Reformulate call (not across calls).
	Score float64
}

// String renders the reformulation as a query string.
func (r Reformulation) String() string { return strings.Join(r.Terms, " ") }

// ResolveTerm maps a query keyword to its term node, choosing the most
// frequent node when the text exists in several fields. It returns a
// descriptive error for unknown terms.
func (e *Engine) ResolveTerm(text string) (graph.NodeID, error) {
	nodes := e.tg.FindTerm(text)
	if len(nodes) == 0 {
		return 0, fmt.Errorf("core: query term %q does not occur in the data", text)
	}
	best := nodes[0]
	for _, v := range nodes[1:] {
		if e.tg.Freq(v) > e.tg.Freq(best) {
			best = v
		}
	}
	return best, nil
}

// slot is one query position with its candidate states.
type slot struct {
	query graph.NodeID // the observed term node
	// cands holds candidate nodes; a negative node marks the void state.
	cands []graph.NodeID
	sims  []float64 // raw similarity of each candidate to the query term
}

const voidNode = graph.NodeID(-1)

// fillSlot loads sl with q's candidate states: the original term (unless
// dropped), up to CandidatesPerTerm similar terms from q's row, and the
// void state when deletion is allowed. i is the slot position, for the
// error.
func (e *Engine) fillSlot(sl *slot, i int, q graph.NodeID) error {
	sl.query = q
	sl.cands = sl.cands[:0]
	sl.sims = sl.sims[:0]
	if !e.opts.DropOriginal {
		sl.cands = append(sl.cands, q)
		sl.sims = append(sl.sims, 1)
	}
	nodes, scores, ok := e.sim.SimRow(q)
	if !ok {
		return fmt.Errorf("core: similar terms of slot %d: no row for term node %d", i, q)
	}
	n := min(e.opts.CandidatesPerTerm, len(nodes))
	for idx := 0; idx < n; idx++ {
		if nodes[idx] == q {
			continue
		}
		sl.cands = append(sl.cands, nodes[idx])
		sl.sims = append(sl.sims, float64(scores[idx]))
	}
	if e.opts.AllowDeletion {
		sl.cands = append(sl.cands, voidNode)
		sl.sims = append(sl.sims, e.opts.VoidPenalty)
	}
	if len(sl.cands) == 0 {
		// A slot with no substitutes (common for entity names under
		// the co-occurrence baseline) keeps its original term: the
		// rest of the query can still reformulate around it.
		sl.cands = append(sl.cands, q)
		sl.sims = append(sl.sims, 1)
	}
	return nil
}

// buildSlots fetches candidate lists for every query term into fresh
// slots (the allocating path of BuildQueryModel and the Ref baseline).
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
// Eq. 5–6 smoothing.
//
// Smoothing note: Eq. 5–6 as printed mix a per-pair score with a sum
// over the *whole* candidate query, which cannot be factored into a
// first-order HMM. We implement the factorable analog with the same
// intent — λ·score + (1−λ)·slotBackground, where the background is the
// mean score over the slot's candidates (emissions) or candidate pairs
// (transitions) — which likewise prevents a single zero factor from
// annihilating an otherwise good query.
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
			f = e.opts.VoidPenalty
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
					v = e.opts.VoidPenalty
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

// BuildQueryModel assembles — without decoding — the HMM a query would
// be decoded under. The benchmark harness uses it to time the decoding
// algorithms in isolation from candidate fetching (paper Figs. 7–10).
func (e *Engine) BuildQueryModel(query []string) (*hmm.Model, error) {
	if len(query) == 0 {
		return nil, fmt.Errorf("core: empty query")
	}
	nodes := make([]graph.NodeID, len(query))
	for i, q := range query {
		v, err := e.ResolveTerm(q)
		if err != nil {
			return nil, err
		}
		nodes[i] = v
	}
	slots, err := e.buildSlots(nodes)
	if err != nil {
		return nil, err
	}
	return e.buildModel(slots), nil
}

// Reformulate returns up to k reformulated queries for the input query
// terms, best first. Terms must be non-empty and resolvable in the data.
// Identity reformulations (every slot unchanged) are filtered out.
func (e *Engine) Reformulate(query []string, k int) ([]Reformulation, error) {
	if len(query) == 0 {
		return nil, fmt.Errorf("core: empty query")
	}
	if k < 1 {
		k = 1
	}
	nodes := make([]graph.NodeID, len(query))
	for i, q := range query {
		v, err := e.ResolveTerm(q)
		if err != nil {
			return nil, err
		}
		nodes[i] = v
	}
	return e.reformulateNodes(nodes, k)
}

// reformulateNodes is the node-level entry point shared with the
// benchmark harness. It runs the whole decode on pooled scratch: only
// the returned Reformulations allocate.
func (e *Engine) reformulateNodes(nodes []graph.NodeID, k int) ([]Reformulation, error) {
	s := e.getScratch()
	defer e.putScratch(s)
	if err := e.buildSlotsInto(s, nodes); err != nil {
		return nil, err
	}
	e.buildModelInto(s, len(nodes))
	// Ask for extra paths so identity/duplicate filtering still leaves k.
	fetch := k + len(nodes) + 2
	var paths []hmm.Path
	var err error
	switch e.opts.Algorithm {
	case AlgTopKViterbi:
		paths, err = s.dec.TopKViterbi(&s.model, fetch)
	default:
		paths, _, err = s.dec.TopKAStar(&s.model, fetch)
	}
	if err != nil {
		return nil, err
	}
	return e.pathsToReformulations(s.slots[:len(nodes)], paths, k), nil
}

// ReformulateRef is Reformulate on the retained allocating path: the
// same table reads, but per-query slot and model allocation and the Ref
// decoders. It exists as the baseline of `kqr-bench -exp hotpath` and
// the oracle for pooled-vs-allocating equivalence tests; results are
// bit-identical to Reformulate.
func (e *Engine) ReformulateRef(query []string, k int) ([]Reformulation, error) {
	if len(query) == 0 {
		return nil, fmt.Errorf("core: empty query")
	}
	if k < 1 {
		k = 1
	}
	nodes := make([]graph.NodeID, len(query))
	for i, q := range query {
		v, err := e.ResolveTerm(q)
		if err != nil {
			return nil, err
		}
		nodes[i] = v
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
		paths, err = model.TopKViterbiRef(fetch)
	default:
		paths, _, err = model.TopKAStarRef(fetch)
	}
	if err != nil {
		return nil, err
	}
	return e.pathsToReformulations(slots, paths, k), nil
}

// DecodePaths runs the decode hot path for a resolved query — packed
// candidate fetch, pooled model build, flat top-k decode — and streams
// the decoded paths to visit (stop early by returning false). The
// visited Paths alias pooled scratch and are valid only inside the
// callback. On a warmed engine a DecodePaths call performs zero heap
// allocations; it is the operation the hotpath benchmark measures.
func (e *Engine) DecodePaths(nodes []graph.NodeID, k int, visit func(hmm.Path) bool) error {
	if len(nodes) == 0 {
		return fmt.Errorf("core: empty query")
	}
	if k < 1 {
		k = 1
	}
	s := e.getScratch()
	defer e.putScratch(s)
	if err := e.buildSlotsInto(s, nodes); err != nil {
		return err
	}
	e.buildModelInto(s, len(nodes))
	var paths []hmm.Path
	var err error
	switch e.opts.Algorithm {
	case AlgTopKViterbi:
		paths, err = s.dec.TopKViterbi(&s.model, k)
	default:
		paths, _, err = s.dec.TopKAStar(&s.model, k)
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

// DecodePathsRef is DecodePaths over the allocating path (per-query
// slots and model, Ref decoders) — the hotpath benchmark's baseline.
// The visited Paths are caller-safe copies by construction.
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
		paths, err = model.TopKViterbiRef(k)
	default:
		paths, _, err = model.TopKAStarRef(k)
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

// pathsToReformulations maps decoded state sequences back to term texts,
// dropping void slots, filtering the identity query and duplicates.
func (e *Engine) pathsToReformulations(slots []slot, paths []hmm.Path, k int) []Reformulation {
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
