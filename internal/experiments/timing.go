package experiments

import (
	"fmt"
	"time"

	"kqr/internal/core"
	"kqr/internal/hmm"
)

// TimingConfig tunes the timing sweeps. Zero values take the defaults.
type TimingConfig struct {
	// QueriesPerPoint is how many sampled queries each measurement
	// averages over (paper: 400 across 8 lengths = 50/point; default 25).
	QueriesPerPoint int
	// Reps repeats each decode to stabilize timings (default 3).
	Reps int
	// K is the number of reformulations requested (default 10).
	K int
	// Seed drives query sampling (default 99).
	Seed int64
}

func (c TimingConfig) withDefaults() TimingConfig {
	if c.QueriesPerPoint == 0 {
		c.QueriesPerPoint = 25
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
	if c.K == 0 {
		c.K = 10
	}
	if c.Seed == 0 {
		c.Seed = 99
	}
	return c
}

// buildModels assembles decode-ready HMMs for sampled queries of one
// length, so the sweeps time decoding in isolation.
func (s *Setup) buildModels(count, length int, seed int64) ([]*hmm.Model, error) {
	queries, err := s.SampleQueries(count, length, seed)
	if err != nil {
		return nil, err
	}
	models := make([]*hmm.Model, 0, len(queries))
	for _, q := range queries {
		m, err := s.TAT.BuildQueryModel(q)
		if err != nil {
			return nil, fmt.Errorf("model for %v: %w", q, err)
		}
		models = append(models, m)
	}
	return models, nil
}

// --- Fig. 7: Algorithm 2 vs Algorithm 3 across query lengths ---

// Fig7Row compares the decoders at one query length.
type Fig7Row struct {
	Length  int
	Alg2    time.Duration // extended top-k Viterbi
	Alg3    time.Duration // Viterbi + A*
	Speedup float64       // Alg2 / Alg3
}

// Fig7 sweeps query length 1..maxLen (paper: 1..8).
func (s *Setup) Fig7(maxLen int, cfg TimingConfig) ([]Fig7Row, error) {
	cfg = cfg.withDefaults()
	out := make([]Fig7Row, 0, maxLen)
	for length := 1; length <= maxLen; length++ {
		models, err := s.buildModels(cfg.QueriesPerPoint, length, cfg.Seed+int64(length))
		if err != nil {
			return nil, err
		}
		row := Fig7Row{Length: length}
		// One reused Decoder, as the serving path runs it: no
		// caller-owned copy of the paths.
		var dec hmm.Decoder
		t2, err := timeIt(cfg.Reps, func() error {
			for _, m := range models {
				if _, err := dec.TopKViterbi(m, cfg.K); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		t3, err := timeIt(cfg.Reps, func() error {
			for _, m := range models {
				if _, _, err := dec.TopKAStar(m, cfg.K); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		row.Alg2 = t2 / time.Duration(len(models))
		row.Alg3 = t3 / time.Duration(len(models))
		if row.Alg3 > 0 {
			row.Speedup = float64(row.Alg2) / float64(row.Alg3)
		}
		out = append(out, row)
	}
	return out, nil
}

// --- Fig. 8: Algorithm 3 stage split across query lengths ---

// Fig8Row splits Algorithm 3 into its Viterbi-initialization and A*
// search stages at one query length.
type Fig8Row struct {
	Length  int
	Viterbi time.Duration // forward pass (stage 1)
	AStar   time.Duration // backward best-first search (stage 2)
}

// stageSplit times the two halves of the flat decoder's Algorithm 3 —
// the code Fig. 7's Alg. 3 column and the serving path run — over the
// models: Decoder.Forward once per model, then Decoder.Search for each
// k on the heuristic table that forward pass left behind (one Decoder
// per model keeps every table alive between the two timings). Both
// come back per model, from the fastest repetition (timeIt).
func stageSplit(models []*hmm.Model, ks []int, reps int) (forward time.Duration, search []time.Duration, err error) {
	decs := make([]hmm.Decoder, len(models))
	n := time.Duration(len(models))
	forward, err = timeIt(reps, func() error {
		for i, m := range models {
			if err := decs[i].Forward(m); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	search = make([]time.Duration, len(ks))
	for x, k := range ks {
		t, err := timeIt(reps, func() error {
			for i, m := range models {
				if _, _, err := decs[i].Search(m, k); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, nil, err
		}
		search[x] = t / n
	}
	return forward / n, search, nil
}

// Fig8 sweeps query length 1..maxLen.
func (s *Setup) Fig8(maxLen int, cfg TimingConfig) ([]Fig8Row, error) {
	cfg = cfg.withDefaults()
	out := make([]Fig8Row, 0, maxLen)
	for length := 1; length <= maxLen; length++ {
		models, err := s.buildModels(cfg.QueriesPerPoint, length, cfg.Seed+int64(length))
		if err != nil {
			return nil, err
		}
		fwd, search, err := stageSplit(models, []int{cfg.K}, cfg.Reps)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig8Row{Length: length, Viterbi: fwd, AStar: search[0]})
	}
	return out, nil
}

// --- Fig. 9: Algorithm 3 vs number of returned queries k ---

// Fig9Row measures one k at fixed query length.
type Fig9Row struct {
	K       int
	Viterbi time.Duration
	AStar   time.Duration
}

// Fig9 sweeps k over the given values at the given query length
// (paper: length 6).
func (s *Setup) Fig9(length int, ks []int, cfg TimingConfig) ([]Fig9Row, error) {
	cfg = cfg.withDefaults()
	models, err := s.buildModels(cfg.QueriesPerPoint, length, cfg.Seed)
	if err != nil {
		return nil, err
	}
	fwd, search, err := stageSplit(models, ks, cfg.Reps)
	if err != nil {
		return nil, err
	}
	out := make([]Fig9Row, 0, len(ks))
	for x, k := range ks {
		out = append(out, Fig9Row{K: k, Viterbi: fwd, AStar: search[x]})
	}
	return out, nil
}

// --- Fig. 10: Algorithm 3 vs candidate-list size n ---

// Fig10Row measures one candidate-list size.
type Fig10Row struct {
	N     int
	Total time.Duration // full online reformulation (fetch + decode)
}

// Fig10 sweeps the per-slot candidate list size n at the given query
// length, timing the complete online stage as the paper does ("how many
// similar terms for each input term can we fetch to ensure a fast
// response").
func (s *Setup) Fig10(length int, ns []int, cfg TimingConfig) ([]Fig10Row, error) {
	cfg = cfg.withDefaults()
	queries, err := s.SampleQueries(cfg.QueriesPerPoint, length, cfg.Seed)
	if err != nil {
		return nil, err
	}
	out := make([]Fig10Row, 0, len(ns))
	for _, n := range ns {
		eng, err := core.New(s.TG, s.SimCtx, s.Clos, core.Options{CandidatesPerTerm: n})
		if err != nil {
			return nil, err
		}
		// Warm the provider caches so the sweep measures steady-state
		// online latency, not first-touch extraction.
		for _, q := range queries {
			if _, err := eng.Reformulate(q, cfg.K); err != nil {
				return nil, err
			}
		}
		tTotal, err := timeIt(cfg.Reps, func() error {
			for _, q := range queries {
				if _, err := eng.Reformulate(q, cfg.K); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, Fig10Row{N: n, Total: tTotal / time.Duration(len(queries))})
	}
	return out, nil
}
