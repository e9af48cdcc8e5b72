// Package core implements the paper's primary contribution: the online
// reformulated-query generation of §V. Given an input keyword query, it
// fetches each term's precomputed similar-term candidate list, assembles
// the HMM of §V-B (emissions from similarity, transitions from
// closeness, initial distribution from term frequency), applies the
// smoothing of Eq. 5–6, and decodes the top-k hidden state sequences —
// the reformulated queries — with Algorithm 2 or Algorithm 3.
package core

import (
	"errors"
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
	// AppendRow appends t0's same-class similar nodes in rank order with
	// scores normalized to [0,1] (best candidate at 1) to nodes and
	// scores — a copy into the caller's slices, lock- and
	// allocation-free once the row is packed and the slices have grown.
	// It fails only when the row could not be computed.
	AppendRow(t0 graph.NodeID, nodes []graph.NodeID, scores []float32) ([]graph.NodeID, []float32, error)
	// Sim returns the similarity of t to t0 (1 for identity, 0 when
	// unrelated).
	Sim(t0, t graph.NodeID) (float64, error)
}

// ClosenessProvider supplies the pairwise closeness relation.
type ClosenessProvider interface {
	Clos(a, b graph.NodeID) float64
	// ClosRow writes Clos(a, bs[i]) to out[i] for every candidate,
	// reading a's row once.
	ClosRow(a graph.NodeID, bs []graph.NodeID, out []float64)
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
	// Algorithm selects the decoder (default AlgAStar).
	Algorithm Algorithm
}

// voidPenalty is the emission/transition score of a void state (§V-B);
// only used when AllowDeletion is set.
const voidPenalty = 0.05

// MaxQueryTerms is the longest query the engine reformulates; a longer
// one fails with ErrQueryTooLong. It is the smaller of two lengths,
// taken at the default options (λ = 0.8, n = 10 candidates):
//   - the length a smoothed model's paths can reach without underflow.
//     The Eq. 5–6 background is the mean of a slot's scores, so with S
//     <= n+2 states per slot every emission is at least (1-λ)/S and
//     every transition at least (1-λ)/S² of its step's largest: a path
//     loses at most e^10.7 per step, and after 64 steps it still holds
//     e^25 above the smallest normal float64 (e^-708) for its initial
//     factor (TestMaxQueryTermsCannotUnderflow redoes the sum);
//   - the length at which a decode costs 20 typical misses: 64 terms
//     take 3.1 ms against 0.17 ms for 7 terms (dblpgen P=2000, warmed,
//     k = 50, 2 vCPUs). The paper's and the benchmark's queries have at
//     most 7 terms.
//
// Past it, decode cost grows quadratically and, from about 300 terms,
// every path underflows.
const MaxQueryTerms = 64

// ErrQueryTooLong reports a query of more than MaxQueryTerms terms.
var ErrQueryTooLong = errors.New("core: query too long")

// Resolve returns o with zero values replaced by their defaults, or the
// first range error. New calls it; a config layer that validates
// options before anything is built calls it too.
func (o Options) Resolve() (Options, error) {
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
	opts, err := opts.Resolve()
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
// frequent node when the text exists in several fields
// (tatgraph.Graph.ResolveTerm). It returns a descriptive error for
// unknown terms.
func (e *Engine) ResolveTerm(text string) (graph.NodeID, error) {
	v, ok := e.tg.ResolveTerm(text)
	if !ok {
		return 0, fmt.Errorf("core: query term %q does not occur in the data", text)
	}
	return v, nil
}

// slot is one query position with its candidate states.
type slot struct {
	query graph.NodeID // the observed term node
	// cands holds candidate nodes; a negative node marks the void state.
	cands []graph.NodeID
	sims  []float64 // raw similarity of each candidate to the query term
	// simNodes and simScores hold the query term's similarity row,
	// copied out of its table.
	simNodes  []graph.NodeID
	simScores []float32
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
	nodes, scores, err := e.sim.AppendRow(q, sl.simNodes[:0], sl.simScores[:0])
	if err != nil {
		return fmt.Errorf("core: similar terms of slot %d: no row for term node %d", i, q)
	}
	sl.simNodes, sl.simScores = nodes, scores
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
		sl.sims = append(sl.sims, voidPenalty)
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

// resolve maps a query's keywords to term nodes (see ResolveTerm),
// appending them to dst — nil for a slice the caller keeps, a scratch's
// qnodes[:0] on the pooled path.
func (e *Engine) resolve(dst []graph.NodeID, query []string) ([]graph.NodeID, error) {
	if len(query) == 0 {
		return nil, fmt.Errorf("core: empty query")
	}
	if len(query) > MaxQueryTerms {
		return nil, fmt.Errorf("%w: %d terms, at most %d", ErrQueryTooLong, len(query), MaxQueryTerms)
	}
	for _, q := range query {
		v, err := e.ResolveTerm(q)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// BuildQueryModel assembles — without decoding — the HMM a query would
// be decoded under. The benchmark harness uses it to time the decoding
// algorithms in isolation from candidate fetching (paper Figs. 7–10).
// The model is built on a scratch of its own that never enters the
// engine's pool, so it stays valid for as long as the caller holds it.
func (e *Engine) BuildQueryModel(query []string) (*hmm.Model, error) {
	nodes, err := e.resolve(nil, query)
	if err != nil {
		return nil, err
	}
	s := new(queryScratch)
	if err := e.buildSlotsInto(s, nodes); err != nil {
		return nil, err
	}
	e.buildModelInto(s, len(nodes))
	return &s.model, nil
}

// Visitor receives the i-th of n reformulations, best first. r.Terms and
// r.Nodes alias pooled scratch and are valid only during the call; a
// visitor that keeps them copies them.
type Visitor func(i, n int, r Reformulation)

// VisitReformulations decodes up to k reformulated queries for the
// input query terms and hands them to visit, best first. Terms must be
// non-empty and resolvable in the data. Identity reformulations (every
// slot unchanged) and repeated term sequences are filtered out. The
// whole call — resolve, candidate fetch, model build, decode, filter —
// runs on pooled scratch: on a warmed engine it performs zero heap
// allocations, so what a request allocates is what its visitor does.
func (e *Engine) VisitReformulations(query []string, k int, visit Visitor) error {
	s := e.getScratch()
	defer e.putScratch(s)
	if _, err := e.filterRows(s, query, k); err != nil {
		return err
	}
	s.rows.visit(visit)
	return nil
}

// SearchStats runs VisitReformulations' decode of query at k, without a
// visitor, and returns Algorithm 3's work counters for it (zero under
// AlgTopKViterbi): what the benchmarks report per query, as counts.
func (e *Engine) SearchStats(query []string, k int) (hmm.AStarStats, error) {
	s := e.getScratch()
	defer e.putScratch(s)
	stats, err := e.filterRows(s, query, k)
	if stats == nil {
		return hmm.AStarStats{}, err
	}
	return *stats, err
}

// filterRows resolves query and decodes it into s.rows: up to k
// accepted rows, best first. The decoder may complete up to
// k+len(query)+2 paths, so that identity and duplicate filtering still
// leaves k; each path goes through the filter as the decoder completes
// it, and decoding stops at the k-th accepted row — the rows filtering
// all k+len(query)+2 paths would accept first.
func (e *Engine) filterRows(s *queryScratch, query []string, k int) (*hmm.AStarStats, error) {
	nodes, err := e.resolve(s.qnodes[:0], query)
	if err != nil {
		return nil, err
	}
	s.qnodes = nodes
	if k < 1 {
		k = 1
	}
	s.rows.reset()
	s.want = k
	return e.decode(s, nodes, k+len(nodes)+2, s.accept)
}

// acceptPath is the decode sink of filterRows, bound once per scratch
// as s.accept: it maps a path's states to terms, commits the row to the
// filter, and asks for more paths while fewer than s.want rows are in.
func (e *Engine) acceptPath(s *queryScratch, p hmm.Path) bool {
	slots := s.slots[:len(s.qnodes)]
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
		s.rows.push(v, e.tg.TermText(v))
	}
	s.rows.commit(p.Score, identity)
	return s.rows.len() < s.want
}

// Reformulate returns up to k reformulated queries for the input query
// terms, best first — VisitReformulations collected into slices the
// caller owns.
func (e *Engine) Reformulate(query []string, k int) ([]Reformulation, error) {
	return collect(e.VisitReformulations, query, k)
}

// collect gathers a visit into caller-owned Reformulations: the result
// slice plus one flat backing each for all terms and all nodes.
func collect(run func(query []string, k int, visit Visitor) error, query []string, k int) ([]Reformulation, error) {
	out := []Reformulation{}
	var terms []string
	var nodes []graph.NodeID
	err := run(query, k, func(i, n int, r Reformulation) {
		if i == 0 {
			// A row has at most one term per slot (exactly one unless
			// void states dropped some).
			out = make([]Reformulation, 0, n)
			terms = make([]string, 0, n*len(query))
			nodes = make([]graph.NodeID, 0, n*len(query))
		}
		lo := len(terms)
		terms = append(terms, r.Terms...)
		nodes = append(nodes, r.Nodes...)
		out = append(out, Reformulation{Terms: terms[lo:len(terms):len(terms)], Nodes: nodes[lo:len(nodes):len(nodes)], Score: r.Score})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// decode is the online stage on the given scratch: packed candidate
// fetch, model build, flat top-k decode with the engine's algorithm,
// each path handed to yield, best first, until yield returns false or
// k paths are out. Under AlgAStar the search itself stops there and its
// stats are returned; AlgTopKViterbi decodes all k first.
func (e *Engine) decode(s *queryScratch, nodes []graph.NodeID, k int, yield func(hmm.Path) bool) (*hmm.AStarStats, error) {
	if err := e.buildSlotsInto(s, nodes); err != nil {
		return nil, err
	}
	e.buildModelInto(s, len(nodes))
	var paths []hmm.Path
	var stats *hmm.AStarStats
	var err error
	if e.opts.Algorithm == AlgTopKViterbi {
		paths, err = s.dec.TopKViterbi(&s.model, k)
		for _, p := range paths {
			if !yield(p) {
				break
			}
		}
	} else if err = s.dec.Forward(&s.model); err == nil {
		paths, stats, err = s.dec.SearchFunc(&s.model, k, yield)
	}
	if err == nil && len(paths) == 0 && s.model.HasPath() {
		// Every path underflowed: an answer lost, not an empty one.
		err = fmt.Errorf("core: %d-term query: %w", len(nodes), hmm.ErrUnderflow)
	}
	return stats, err
}

// DecodePaths runs the decode hot path for a resolved query and streams
// the decoded paths to visit; returning false stops the decode. The
// visited Paths alias pooled scratch and are valid only inside the
// callback. On a warmed engine a DecodePaths call performs zero heap
// allocations.
func (e *Engine) DecodePaths(nodes []graph.NodeID, k int, visit func(hmm.Path) bool) error {
	if len(nodes) == 0 {
		return fmt.Errorf("core: empty query")
	}
	if k < 1 {
		k = 1
	}
	if visit == nil {
		visit = func(hmm.Path) bool { return true }
	}
	s := e.getScratch()
	defer e.putScratch(s)
	_, err := e.decode(s, nodes, k, visit)
	return err
}
