// Live-generation churn experiment (ISSUE 5): measures promotion
// latency and query tail latency while the engine absorbs a continuous
// stream of insert deltas. Querier goroutines hammer Reformulate and
// SimilarTerms throughout; the run fails if any query errors or if the
// epoch ever stops climbing, demonstrating that promotion never blocks
// or breaks the read path.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"kqr"
	"kqr/internal/dblpgen"
)

// LiveConfig shapes one churn run.
type LiveConfig struct {
	// Rounds is how many ingest+promote cycles to drive (≥3 for the
	// acceptance gate).
	Rounds int
	// BatchSize is how many papers each round inserts.
	BatchSize int
	// Queriers is how many concurrent query goroutines run throughout.
	Queriers int
	// Seed drives query sampling and synthetic titles.
	Seed int64
}

// LivePromotion records one ingest+promote cycle.
type LivePromotion struct {
	Epoch      uint64        `json:"epoch"`
	Mode       string        `json:"mode"`
	Inserts    int           `json:"inserts"`
	TotalTerms int           `json:"total_terms"`
	Promote    time.Duration `json:"promote_ns"`
}

// LiveRow is the result of one churn run.
type LiveRow struct {
	Queriers    int             `json:"queriers"`
	Promotions  []LivePromotion `json:"promotions"`
	Queries     int             `json:"queries"`
	QueryErrors int             `json:"query_errors"`
	P50         time.Duration   `json:"query_p50_ns"`
	P99         time.Duration   `json:"query_p99_ns"`
	Wall        time.Duration   `json:"wall_ns"`
	QPS         float64         `json:"queries_per_second"`
}

// LiveChurn opens a live-mode engine over the synthetic corpus and runs
// cfg.Rounds ingest+promote cycles under continuous concurrent query
// load. Each round inserts BatchSize papers whose titles mix existing
// vocabulary with one brand-new term, promotes, and verifies the new
// term became queryable on the new generation.
func LiveChurn(dcfg dblpgen.Config, cfg LiveConfig) (LiveRow, error) {
	var row LiveRow
	if cfg.Rounds <= 0 {
		cfg.Rounds = 3
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 25
	}
	if cfg.Queriers <= 0 {
		cfg.Queriers = 4
	}
	row.Queriers = cfg.Queriers
	corpus, err := dblpgen.Generate(dcfg)
	if err != nil {
		return row, err
	}
	eng, err := kqr.Open(kqr.WrapDatabase(corpus.DB), kqr.Options{Live: true})
	if err != nil {
		return row, err
	}
	defer eng.Close()
	vocab := eng.Vocabulary()
	if len(vocab) < 2 {
		return row, fmt.Errorf("live: vocabulary too small (%d terms)", len(vocab))
	}

	// Queriers run until stop closes, recording every latency. They mix
	// the two read paths the serving layer exposes and never see an
	// error on a healthy engine — promotion swaps generations under
	// them atomically.
	stop := make(chan struct{})
	type querierResult struct {
		lat  []time.Duration
		errs int
	}
	results := make([]querierResult, cfg.Queriers)
	var wg sync.WaitGroup
	for q := 0; q < cfg.Queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(q)))
			res := &results[q]
			for {
				select {
				case <-stop:
					return
				default:
				}
				t1 := vocab[rng.Intn(len(vocab))]
				t2 := vocab[rng.Intn(len(vocab))]
				start := time.Now()
				var err error
				if rng.Intn(2) == 0 {
					_, err = eng.Reformulate([]string{t1, t2}, 5)
				} else {
					_, err = eng.SimilarTerms(t1, 5)
				}
				res.lat = append(res.lat, time.Since(start))
				if err != nil {
					res.errs++
				}
			}
		}(q)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	wallStart := time.Now()
	pid := int64(9_000_000)
	runErr := func() error {
		for round := 0; round < cfg.Rounds; round++ {
			fresh := fmt.Sprintf("liveterm%d", round)
			deltas := make([]kqr.Delta, cfg.BatchSize)
			for i := range deltas {
				pid++
				title := fmt.Sprintf("%s %s %s", fresh,
					vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))])
				deltas[i] = kqr.Delta{
					Op:     kqr.InsertTuple,
					Table:  "papers",
					Values: []any{pid, title, int64(1 + rng.Intn(dcfg.Confs))},
				}
			}
			if err := eng.Ingest(deltas); err != nil {
				return fmt.Errorf("round %d ingest: %w", round, err)
			}
			before := eng.Epoch()
			start := time.Now()
			info, err := eng.Promote(context.Background())
			if err != nil {
				return fmt.Errorf("round %d promote: %w", round, err)
			}
			promote := time.Since(start)
			if info.Epoch <= before {
				return fmt.Errorf("round %d: epoch %d did not advance past %d", round, info.Epoch, before)
			}
			if _, err := eng.SimilarTerms(fresh, 5); err != nil {
				return fmt.Errorf("round %d: new term %q not queryable: %w", round, fresh, err)
			}
			row.Promotions = append(row.Promotions, LivePromotion{
				Epoch:      info.Epoch,
				Mode:       info.Mode,
				Inserts:    info.Inserts,
				TotalTerms: info.TotalTerms,
				Promote:    promote,
			})
		}
		return nil
	}()
	close(stop)
	wg.Wait()
	row.Wall = time.Since(wallStart)
	if runErr != nil {
		return row, runErr
	}

	var all []time.Duration
	for _, r := range results {
		all = append(all, r.lat...)
		row.QueryErrors += r.errs
	}
	row.Queries = len(all)
	row.P50, row.P99 = latencyPercentiles(all)
	row.QPS = float64(len(all)) / row.Wall.Seconds()
	return row, nil
}

// RenderLive formats the churn run for the terminal.
func RenderLive(row LiveRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Live ingestion churn (%d promotions under %d-way query load):\n",
		len(row.Promotions), row.Queriers)
	fmt.Fprintf(&b, "  %-6s %-9s %8s %9s %12s\n", "epoch", "mode", "inserts", "terms", "promote")
	for _, p := range row.Promotions {
		fmt.Fprintf(&b, "  %-6d %-9s %8d %9d %12v\n",
			p.Epoch, p.Mode, p.Inserts, p.TotalTerms, p.Promote.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "  queries   %d (%d errors)\n", row.Queries, row.QueryErrors)
	fmt.Fprintf(&b, "  query p50 %v   p99 %v   throughput %.0f q/s\n",
		row.P50.Round(time.Microsecond), row.P99.Round(time.Microsecond), row.QPS)
	return b.String()
}

// liveReport is the schema of BENCH_live.json.
type liveReport struct {
	Corpus  string  `json:"corpus"`
	MaxProc int     `json:"gomaxprocs"`
	Row     LiveRow `json:"result"`
}

// WriteLiveJSON writes the churn run as indented JSON (the
// `make bench-live` artifact).
func WriteLiveJSON(w io.Writer, cfg dblpgen.Config, row LiveRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(liveReport{
		Corpus:  fmt.Sprintf("dblpgen seed=%d topics=%d confs=%d authors=%d papers=%d", cfg.Seed, cfg.Topics, cfg.Confs, cfg.Authors, cfg.Papers),
		MaxProc: runtime.GOMAXPROCS(0),
		Row:     row,
	})
}
