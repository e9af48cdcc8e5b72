package randomwalk

import (
	"kqr/internal/graph"
	"kqr/internal/packed"
	"kqr/internal/tatgraph"
)

// PreferenceMode selects how the restart distribution is built.
type PreferenceMode int

const (
	// Contextual restarts at the start node's context (Algorithm 1) —
	// the paper's improved model.
	Contextual PreferenceMode = iota
	// Individual restarts at the start node itself — the basic model,
	// kept as the ablation baseline (paper §IV-B2, Fig. 4).
	Individual
)

// String names the mode.
func (m PreferenceMode) String() string {
	if m == Individual {
		return "individual"
	}
	return "contextual"
}

// Extractor performs similar-term extraction over a TAT graph: its
// extract function runs the contextual walk for one start node, and the
// embedded row store (packed.Ranked) caches, packs and serves the
// results — SimRow / SimilarNodes / Sim for reads, Precompute and Pack
// for the offline stage. It is safe for concurrent use.
type Extractor struct {
	packed.Ranked

	tg   *tatgraph.Graph
	opts Options
	mode PreferenceMode
}

// NewExtractor builds an extractor. Options zero-values get defaults.
func NewExtractor(tg *tatgraph.Graph, mode PreferenceMode, opts Options) *Extractor {
	e := &Extractor{tg: tg, opts: opts, mode: mode}
	e.Ranked = packed.Ranked{Store: packed.NewStore(tg.CSR().NumNodes(), e.extract)}
	e.Workers = opts.Workers
	return e
}

// Mode returns the extractor's preference mode.
func (e *Extractor) Mode() PreferenceMode { return e.mode }

// maxKept bounds how many similar nodes are kept per start node; 64
// comfortably exceeds any candidate-list size used online (paper Fig. 10
// tops out at 50).
const maxKept = 64

// extract runs the walk for t0 and returns up to maxKept nodes of the
// same class as t0, ranked by contextual random-walk score, excluding
// t0 itself. Scores are normalized so the best candidate scores 1;
// downstream emission probabilities renormalize anyway, and relative
// order is what matters.
func (e *Extractor) extract(t0 graph.NodeID) ([]graph.Scored, error) {
	var pref map[graph.NodeID]float64
	if e.mode == Contextual {
		pref = e.tg.ContextPreference(t0)
	} else {
		pref = e.tg.SelfPreference(t0)
	}
	scores, _, err := Scores(e.tg.CSR(), pref, e.opts)
	if err != nil {
		return nil, err
	}
	// Discount hub terms by idf before ranking: generic words
	// ("efficient", "framework") accumulate walk mass from every
	// direction without being substitutable for anything. The same
	// inverse-occurrence weight that biases the preference vector
	// (Algorithm 1) debiases the result ranking; the raw
	// co-occurrence baseline has no such correction, which is one of
	// the contrasts Table II draws.
	weighted := make([]float64, len(scores))
	for i, s := range scores {
		if s > 0 {
			weighted[i] = s * e.tg.IDF(graph.NodeID(i))
		}
	}
	top := TopNodes(weighted, maxKept, func(v graph.NodeID) bool {
		return v != t0 && e.tg.SameClass(v, t0)
	})
	if len(top) > 0 && top[0].Score > 0 {
		norm := top[0].Score
		for i := range top {
			top[i].Score /= norm
		}
	}
	return top, nil
}
