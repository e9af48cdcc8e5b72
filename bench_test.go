// Benchmarks regenerating every table and figure of the paper's
// evaluation (§VI), plus ablations of the design choices DESIGN.md calls
// out. Quality numbers (precision, result size) are attached to the
// benchmark output via ReportMetric so a -bench run records the
// reproduced values alongside the timings:
//
//	go test -bench=. -benchmem
//
// The corpus is built once per process and shared; individual benchmarks
// measure the operation named in their table/figure.
package kqr_test

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"kqr/internal/dblpgen"
	"kqr/internal/experiments"
	"kqr/internal/hmm"
	"kqr/internal/randomwalk"
	"kqr/internal/serving"
)

var (
	benchOnce  sync.Once
	benchSetup *experiments.Setup
	benchErr   error
)

// benchEnv returns the shared experiment setup (3000-paper corpus).
func benchEnv(b *testing.B) *experiments.Setup {
	b.Helper()
	benchOnce.Do(func() {
		benchSetup, benchErr = experiments.New(experiments.DefaultCorpusConfig(), 0)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSetup
}

// BenchmarkTable1_Closeness regenerates Table I: close terms and close
// conferences for a target term.
func BenchmarkTable1_Closeness(b *testing.B) {
	s := benchEnv(b)
	targets := []string{"probabilistic", "xml", "frequent"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table1(targets, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_Similarity regenerates Table II: similar-term
// extraction by both methods. The reported metrics record the planted
// partner's rank under the contextual walk (cooccur never ranks it).
func BenchmarkTable2_Similarity(b *testing.B) {
	s := benchEnv(b)
	var rows []experiments.Table2Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Table2([]string{"xml", "probabilistic"}, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(float64(r.ContextualPartnerRank+1), "ctxRank_"+r.Target)
		b.ReportMetric(float64(r.CooccurPartnerRank+1), "coRank_"+r.Target)
	}
}

// BenchmarkFig5_Precision regenerates the Fig. 5 comparison and reports
// each method's Precision@10.
func BenchmarkFig5_Precision(b *testing.B) {
	s := benchEnv(b)
	var rows []experiments.Fig5Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Fig5(10, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(r.Precision[len(r.Precision)-1], "P10_"+string(r.Method))
	}
}

// BenchmarkFig6_EndToEnd measures the complete demo pipeline of Fig. 6:
// keyword search plus top-5 reformulation for one query.
func BenchmarkFig6_EndToEnd(b *testing.B) {
	s := benchEnv(b)
	query := []string{"probabilistic", "ranking"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Searcher.Search(query); err != nil {
			b.Fatal(err)
		}
		if _, err := s.TAT.Reformulate(query, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// fig7Models builds decode-ready HMMs for one query length, outside the
// timed region.
func fig7Models(b *testing.B, s *experiments.Setup, length int) []*hmm.Model {
	b.Helper()
	queries, err := s.SampleQueries(10, length, 99+int64(length))
	if err != nil {
		b.Fatal(err)
	}
	models := make([]*hmm.Model, 0, len(queries))
	for _, q := range queries {
		m, err := s.TAT.BuildQueryModel(q)
		if err != nil {
			b.Fatal(err)
		}
		models = append(models, m)
	}
	return models
}

// BenchmarkFig7_TopKAlgorithms regenerates Fig. 7: Algorithm 2 vs
// Algorithm 3 across query lengths.
func BenchmarkFig7_TopKAlgorithms(b *testing.B) {
	s := benchEnv(b)
	for _, length := range []int{1, 2, 4, 6, 8} {
		models := fig7Models(b, s, length)
		b.Run(fmt.Sprintf("alg2/len%d", length), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := models[i%len(models)].TopKViterbi(10); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("alg3/len%d", length), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := models[i%len(models)].TopKAStar(10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// forwardDecoders runs Algorithm 3's forward pass once per model, each
// on a Decoder of its own, so the search stage can be timed alone on
// the heuristic tables left behind.
func forwardDecoders(b *testing.B, models []*hmm.Model) []hmm.Decoder {
	b.Helper()
	decs := make([]hmm.Decoder, len(models))
	for i, m := range models {
		if err := decs[i].Forward(m); err != nil {
			b.Fatal(err)
		}
	}
	return decs
}

// BenchmarkFig8_StageSplit regenerates Fig. 8: the two stages of
// Algorithm 3 — the flat decoder's, the ones Fig. 7's alg3 runs — timed
// separately.
func BenchmarkFig8_StageSplit(b *testing.B) {
	s := benchEnv(b)
	for _, length := range []int{2, 4, 6, 8} {
		models := fig7Models(b, s, length)
		decs := forwardDecoders(b, models)
		b.Run(fmt.Sprintf("viterbi/len%d", length), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := i % len(models)
				if err := decs[j].Forward(models[j]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("astar/len%d", length), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := i % len(models)
				if _, _, err := decs[j].Search(models[j], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9_VaryK regenerates Fig. 9: the A* stage as k grows
// (query length 6).
func BenchmarkFig9_VaryK(b *testing.B) {
	s := benchEnv(b)
	models := fig7Models(b, s, 6)
	decs := forwardDecoders(b, models)
	for _, k := range []int{1, 10, 20, 30, 50} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := i % len(models)
				if _, _, err := decs[j].Search(models[j], k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10_VaryCandidates regenerates Fig. 10: the full online
// reformulation as the per-slot candidate list size n grows (length 6).
func BenchmarkFig10_VaryCandidates(b *testing.B) {
	s := benchEnv(b)
	queries, err := s.SampleQueries(10, 6, 99)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{5, 10, 20, 40} {
		rows, err := s.Fig10(6, []int{n}, experiments.TimingConfig{QueriesPerPoint: 10, Reps: 1})
		if err != nil {
			b.Fatal(err)
		}
		_ = rows
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.TAT.Reformulate(queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3_ResultQuality regenerates Table III and reports each
// method's mean result size.
func BenchmarkTable3_ResultQuality(b *testing.B) {
	s := benchEnv(b)
	var rows []experiments.Table3Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Table3(19, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(r.ResultSize, "size_"+string(r.Method))
	}
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblationPreference compares the paper's contextual restart
// against the basic individual restart: extraction time plus, as a
// metric, the rank at which each finds the planted synonym partner of
// "probabilistic" (lower is better; 0 means not found in the top 64).
func BenchmarkAblationPreference(b *testing.B) {
	s := benchEnv(b)
	node, err := s.TAT.ResolveTerm("probabilistic")
	if err != nil {
		b.Fatal(err)
	}
	partner := "uncertain"
	for _, mode := range []struct {
		name string
		ex   *randomwalk.Extractor
	}{
		{"contextual", s.SimCtx},
		{"individual", s.SimInd},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var rank float64
			for i := 0; i < b.N; i++ {
				list, err := mode.ex.SimilarNodes(node, 64)
				if err != nil {
					b.Fatal(err)
				}
				rank = 0
				for j, sn := range list {
					if s.TG.TermText(sn.Node) == partner {
						rank = float64(j + 1)
						break
					}
				}
			}
			b.ReportMetric(rank, "partnerRank")
		})
	}
}

// BenchmarkAblationSmoothing sweeps the Eq. 5–6 smoothing weight λ and
// reports how many of the top-10 reformulations survive (λ=1 disables
// smoothing; zero-closeness products then prune paths).
func BenchmarkAblationSmoothing(b *testing.B) {
	s := benchEnv(b)
	queries, err := s.SampleQueries(10, 3, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, lam := range []float64{0.5, 0.8, 1.0} {
		eng, err := experiments.EngineWithLambda(s, lam)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("lambda%.1f", lam), func(b *testing.B) {
			var got float64
			for i := 0; i < b.N; i++ {
				refs, err := eng.Reformulate(queries[i%len(queries)], 10)
				if err != nil {
					b.Fatal(err)
				}
				got = float64(len(refs))
			}
			b.ReportMetric(got, "suggestions")
		})
	}
}

// BenchmarkAblationClosenessBeam compares exact closeness extraction
// against beam-pruned variants.
func BenchmarkAblationClosenessBeam(b *testing.B) {
	for _, beam := range []int{0, 64, 256} {
		b.Run(fmt.Sprintf("beam%d", beam), func(b *testing.B) {
			store, tg, err := experiments.ClosenessWithBeam(benchEnv(b), beam)
			if err != nil {
				b.Fatal(err)
			}
			node, err := benchEnv(b).TAT.ResolveTerm("probabilistic")
			if err != nil {
				b.Fatal(err)
			}
			_ = tg
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = store.CloseTerms(node, 10, "")
			}
		})
	}
}

// BenchmarkOfflineBuild measures the offline stage end to end: corpus
// generation plus TAT graph construction.
func BenchmarkOfflineBuild(b *testing.B) {
	cfg := dblpgen.Config{Seed: 1, Topics: 4, Confs: 8, Authors: 100, Papers: 500}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.New(cfg, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// Benchmark_ServingCache measures the serving layer's three paths for
// one /api/reformulate-shaped request: uncached (full HMM decode plus
// JSON encode, the pre-serving-layer baseline), cache hit (fingerprint
// build plus sharded LRU lookup — must be >=10x faster than uncached),
// and miss (a first sighting: the uncached work plus a failed lookup and
// a Put that keeps nothing).
func Benchmark_ServingCache(b *testing.B) {
	s := benchEnv(b)
	query := []string{"probabilistic", "ranking"}
	compute := func() ([]byte, error) {
		sugs, err := s.TAT.Reformulate(query, 5)
		if err != nil {
			return nil, err
		}
		return json.Marshal(sugs)
	}

	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := compute(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("hit", func(b *testing.B) {
		cache := serving.NewCache(1<<20, time.Minute)
		body, err := compute()
		if err != nil {
			b.Fatal(err)
		}
		for range 2 { // an entry is earned on the second sighting
			cache.Put(serving.Key("reformulate", query, "k=5"), body)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The real hit path builds the fingerprint and then looks
			// it up, so both are inside the timed region.
			key := serving.Key("reformulate", query, "k=5")
			if _, ok := cache.Get(key); !ok {
				b.Fatal("unexpected miss")
			}
		}
	})

	b.Run("miss", func(b *testing.B) {
		cache := serving.NewCache(64<<20, time.Minute)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A distinct key each iteration keeps every lookup a miss:
			// fingerprint, failed Get, engine compute, Put (a first
			// sighting: the doorkeeper remembers it, nothing is kept).
			key := serving.Key("reformulate", query, "k=5", fmt.Sprintf("i=%d", i))
			if _, ok := cache.Get(key); ok {
				b.Fatal("unexpected hit")
			}
			body, err := compute()
			if err != nil {
				b.Fatal(err)
			}
			cache.Put(key, body)
		}
	})
}
