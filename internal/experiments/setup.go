// Package experiments regenerates every table and figure of the paper's
// evaluation section (§VI) over the synthetic corpus: the close-term
// case study (Table I), the similarity case study (Table II), the
// reformulation precision comparison (Fig. 5), the decoding-time sweeps
// (Figs. 7–10), and the result-size/diversity comparison (Table III).
// Runners return typed rows that both cmd/kqr-bench and the root
// benchmark suite print.
package experiments

import (
	"fmt"
	"math"
	"time"

	"kqr/internal/closeness"
	"kqr/internal/cooccur"
	"kqr/internal/core"
	"kqr/internal/dblpgen"
	"kqr/internal/eval"
	"kqr/internal/keywordsearch"
	"kqr/internal/randomwalk"
	"kqr/internal/tatgraph"
)

// Setup wires the complete system over one synthetic corpus: the TAT
// graph, the three similarity providers, the closeness store, the three
// reformulation methods of §VI-B, the keyword searcher, and the judge.
type Setup struct {
	Corpus *dblpgen.Corpus
	TG     *tatgraph.Graph
	Clos   *closeness.Store

	SimCtx *randomwalk.Extractor // contextual random walk (the paper's)
	SimInd *randomwalk.Extractor // individual walk (ablation)
	SimCo  *cooccur.Extractor    // co-occurrence baseline

	// TAT is the full proposed method: contextual similarity + HMM.
	TAT *core.Engine
	// Co is the Co-occurrence reformulation baseline: same HMM pipeline,
	// co-occurrence similarity.
	Co *core.Engine
	// Rank-based reformulation runs through TAT.ReformulateRankBased.

	Searcher *keywordsearch.Searcher
	Judge    *eval.Judge
	Meter    *eval.DistanceMeter
}

// DefaultCorpusConfig sizes the experiment corpus: large enough for
// topic structure to dominate noise, small enough for a laptop run.
func DefaultCorpusConfig() dblpgen.Config {
	return dblpgen.Config{Seed: 20120401, Topics: 8, Confs: 32, Authors: 600, Papers: 3000}
}

// SmallCorpusConfig keeps unit tests of the harness fast.
func SmallCorpusConfig() dblpgen.Config {
	return dblpgen.Config{Seed: 20120401, Topics: 4, Confs: 8, Authors: 80, Papers: 400}
}

// New builds a Setup. candidatesPerTerm is the n of the online stage
// (<=0 for the default 10).
func New(cfg dblpgen.Config, candidatesPerTerm int) (*Setup, error) {
	corpus, err := dblpgen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	tg, err := tatgraph.Build(corpus.DB, tatgraph.Options{})
	if err != nil {
		return nil, err
	}
	clos, err := closeness.New(tg, closeness.Options{})
	if err != nil {
		return nil, err
	}
	s := &Setup{
		Corpus: corpus,
		TG:     tg,
		Clos:   clos,
		SimCtx: randomwalk.NewExtractor(tg, randomwalk.Contextual, randomwalk.Options{}),
		SimInd: randomwalk.NewExtractor(tg, randomwalk.Individual, randomwalk.Options{}),
		SimCo:  cooccur.NewExtractor(tg),
	}
	// DropOriginal matches the paper's base model: a reformulated query
	// is "composed of similar terms" (§V-B); keeping the original term
	// is described there as an optional extension, and leaving it in
	// would let every method pad its top-k with near-identity queries.
	coreOpts := core.Options{CandidatesPerTerm: candidatesPerTerm, DropOriginal: true}
	if s.TAT, err = core.New(tg, s.SimCtx, clos, coreOpts); err != nil {
		return nil, err
	}
	if s.Co, err = core.New(tg, s.SimCo, clos, coreOpts); err != nil {
		return nil, err
	}
	if s.Searcher, err = keywordsearch.New(tg, keywordsearch.Options{MaxResults: 200}); err != nil {
		return nil, err
	}
	if s.Judge, err = eval.NewJudge(corpus.Truth); err != nil {
		return nil, err
	}
	// Whole-query judgements also require cohesion: the reformulated
	// query must retrieve at least one *tight* result — all keywords in
	// one tuple or in directly joined tuples (radius 1). A pair of terms
	// whose only connection is a shared venue hub is not a query a human
	// judge would accept as a valid substitute.
	strict, err := keywordsearch.New(tg, keywordsearch.Options{MaxResults: 1, MaxRadius: 1})
	if err != nil {
		return nil, err
	}
	s.Judge = s.Judge.WithCohesion(func(terms []string) bool {
		n, err := strict.ResultSize(terms)
		return err == nil && n > 0
	})
	if s.Meter, err = eval.NewDistanceMeter(tg, 6); err != nil {
		return nil, err
	}
	return s, nil
}

// Resolvable reports whether every term of the query occurs in the data
// (workload samplers draw from the topic vocabulary, and rare words may
// be absent from a small corpus).
func (s *Setup) Resolvable(query []string) bool {
	for _, term := range query {
		if _, err := s.TAT.ResolveTerm(term); err != nil {
			return false
		}
	}
	return true
}

// FilterResolvable keeps only resolvable queries.
func (s *Setup) FilterResolvable(queries [][]string) [][]string {
	out := queries[:0:0]
	for _, q := range queries {
		if s.Resolvable(q) {
			out = append(out, q)
		}
	}
	return out
}

// SampleQueries draws count resolvable random queries of the given
// length, over-sampling as needed. It errors when the corpus cannot
// support the length.
func (s *Setup) SampleQueries(count, length int, seed int64) ([][]string, error) {
	for attempt := 1; attempt <= 4; attempt++ {
		qs, err := eval.RandomQueries(s.Corpus, count*(1+attempt), length, seed+int64(attempt))
		if err != nil {
			return nil, err
		}
		qs = s.FilterResolvable(qs)
		if len(qs) >= count {
			return qs[:count], nil
		}
	}
	return nil, fmt.Errorf("experiments: could not sample %d resolvable queries of length %d", count, length)
}

// timeIt measures the wall time of the fastest of reps executions: a
// preemption or a scheduler stall can only add time to a repetition, so
// the minimum is the one least disturbed.
func timeIt(reps int, f func() error) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < max(reps, 1); i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		best = min(best, time.Since(start))
	}
	return best, nil
}
