// CDC ingestion soak experiment (ISSUE 8): a rate-controlled change
// stream feeds a live engine through the full KQRCDC pipe — feeder,
// HTTP stream, receiver, generation manager — under concurrent query
// load, with a mid-run feeder kill and resume. The run gates on exact
// reconciliation: zero lost and zero duplicated deltas against the
// mutator's ground truth, and zero query errors throughout.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kqr"
	"kqr/internal/cdc"
	"kqr/internal/dblpgen"
	"kqr/internal/live"
	"kqr/internal/relstore"
)

// CDCConfig shapes one soak run.
type CDCConfig struct {
	// Batches is the change stream's length; the feeder is killed
	// halfway through (default 30).
	Batches uint64
	// BatchSize is inserts per batch; a quarter are deleted again two
	// batches later (default 12).
	BatchSize int
	// Queriers is how many concurrent query goroutines run throughout
	// (default 4).
	Queriers int
	// Seed drives query sampling and the mutation stream.
	Seed int64
	// MaxPending is the receiver's backpressure bound (default 60 —
	// low enough that a soak run actually exercises withheld acks).
	MaxPending int
	// StalenessMaxDeltas triggers automatic promotion (default 4/5 of
	// MaxPending). It must stay below MaxPending: once the receiver
	// throttles, only an automatic promotion drains the backlog, so a
	// promote threshold at or above the backpressure bound would wedge
	// the stream permanently.
	StalenessMaxDeltas int
	// Rate is the feeder's batches/second (default 150 — slow enough
	// that queriers overlap the feed, fast enough for CI).
	Rate float64
}

// CDCRow is the result of one soak run.
type CDCRow struct {
	Batches    uint64 `json:"batches"`
	BatchSize  int    `json:"batch_size"`
	KilledAt   uint64 `json:"killed_at_batch"`
	ResumedAt  uint64 `json:"resumed_from_seq"`
	Connects   uint64 `json:"feeder_connects"`
	Inserts    int    `json:"inserts"`
	Deletes    int    `json:"deletes"`
	BaseRows   int    `json:"base_rows"`
	FinalRows  int    `json:"final_rows"`
	ExpectRows int    `json:"expect_rows"`
	// Lost and Duplicated are the reconciliation gates: both must be 0.
	Lost       int `json:"lost_deltas"`
	Duplicated int `json:"duplicated_deltas"`
	// StagedBatches/StagedDeltas are what the receiver accepted;
	// DupBatches counts retransmits it acked-but-dropped.
	StagedBatches  uint64        `json:"staged_batches"`
	StagedDeltas   uint64        `json:"staged_deltas"`
	DupBatches     uint64        `json:"duplicate_batches"`
	Throttles      uint64        `json:"throttle_events"`
	ThrottleWait   time.Duration `json:"throttle_wait_ns"`
	MaxPendingSeen int           `json:"max_pending_seen"`
	Promotions     uint64        `json:"promotions"`
	Queriers       int           `json:"queriers"`
	Queries        int           `json:"queries"`
	QueryErrors    int           `json:"query_errors"`
	P50            time.Duration `json:"query_p50_ns"`
	P99            time.Duration `json:"query_p99_ns"`
	QPS            float64       `json:"queries_per_second"`
	Wall           time.Duration `json:"wall_ns"`
}

// mutatorSource adapts the dblpgen change stream to cdc.Source,
// translating neutral Mutations into live deltas.
type mutatorSource struct{ m *dblpgen.Mutator }

func (s mutatorSource) Batch(seq uint64) ([]live.Delta, bool, error) {
	muts, ok, err := s.m.Batch(seq)
	if err != nil || !ok {
		return nil, ok, err
	}
	deltas := make([]live.Delta, len(muts))
	for i, mu := range muts {
		if mu.Insert {
			deltas[i] = live.Delta{Op: live.OpInsert, Table: "papers", Values: []relstore.Value{
				relstore.Int(mu.PID), relstore.String(mu.Title), relstore.Int(mu.Conf)}}
		} else {
			deltas[i] = live.Delta{Op: live.OpDelete, Table: "papers", Key: relstore.Int(mu.PID)}
		}
	}
	return deltas, true, nil
}

// killSource wraps a mutator so the first feeder dies mid-stream: once
// the sequence passes killAt it cancels the feeder's context. The
// replacement feeder sees the unwrapped source and plays to the end.
type killSource struct {
	src    cdc.Source
	killAt uint64
	cancel context.CancelFunc
	fired  atomic.Bool
}

func (k *killSource) Batch(seq uint64) ([]live.Delta, bool, error) {
	if seq > k.killAt && k.fired.CompareAndSwap(false, true) {
		k.cancel()
	}
	return k.src.Batch(seq)
}

// CDCSoak runs the kill/resume soak: generate a corpus, serve it live,
// stream the mutator's change batches through the CDC pipe at a bounded
// rate under query load, kill the feeder halfway, resume with a fresh
// feeder, and reconcile every count against ground truth.
func CDCSoak(dcfg dblpgen.Config, cfg CDCConfig) (CDCRow, error) {
	var row CDCRow
	if cfg.Batches == 0 {
		cfg.Batches = 30
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 12
	}
	if cfg.Queriers <= 0 {
		cfg.Queriers = 4
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 60
	}
	if cfg.StalenessMaxDeltas <= 0 {
		cfg.StalenessMaxDeltas = cfg.MaxPending * 4 / 5
	}
	if cfg.StalenessMaxDeltas >= cfg.MaxPending {
		return row, fmt.Errorf("cdc: StalenessMaxDeltas %d must be below MaxPending %d or a throttled stream never drains",
			cfg.StalenessMaxDeltas, cfg.MaxPending)
	}
	if cfg.Rate == 0 {
		cfg.Rate = 150
	}
	row.Batches, row.BatchSize, row.Queriers = cfg.Batches, cfg.BatchSize, cfg.Queriers

	corpus, err := dblpgen.Generate(dcfg)
	if err != nil {
		return row, err
	}
	var promoteErrs atomic.Int64
	eng, err := kqr.Open(kqr.WrapDatabase(corpus.DB), kqr.Options{
		Live:               true,
		StalenessMaxDeltas: cfg.StalenessMaxDeltas,
		OnPromoteError:     func(error) { promoteErrs.Add(1) },
	})
	if err != nil {
		return row, err
	}
	defer eng.Close()
	vocab := eng.Vocabulary()
	if len(vocab) < 2 {
		return row, fmt.Errorf("cdc: vocabulary too small (%d terms)", len(vocab))
	}

	mgr, _ := eng.Replication()
	baseRows, err := paperRows(mgr)
	if err != nil {
		return row, err
	}
	row.BaseRows = baseRows

	recv := cdc.NewReceiver(mgr, cdc.ReceiverOptions{
		MaxPending:   cfg.MaxPending,
		PollInterval: 2 * time.Millisecond,
	})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cdc/stream", recv.ServeStream)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Queriers hammer the read path for the whole run.
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

	mut, err := dblpgen.NewMutator(corpus, dblpgen.MutatorConfig{
		Seed:      cfg.Seed + 1,
		Batches:   cfg.Batches,
		BatchSize: cfg.BatchSize,
	})
	if err != nil {
		return row, err
	}
	wallStart := time.Now()
	runErr := func() error {
		// Phase 1: feed until the kill switch fires mid-stream.
		ctx1, cancel1 := context.WithCancel(context.Background())
		defer cancel1()
		row.KilledAt = cfg.Batches / 2
		ks := &killSource{src: mutatorSource{mut}, killAt: row.KilledAt, cancel: cancel1}
		f1 := cdc.NewFeeder(srv.URL, cdc.FeederOptions{
			Source:        "soak",
			BatchesPerSec: cfg.Rate,
			Fingerprint:   cdc.SchemaFingerprint(mgr.Current().DB),
		})
		if err := f1.Run(ctx1, ks); err == nil {
			return fmt.Errorf("killed feeder finished cleanly — kill never fired")
		}

		// Phase 2: a fresh feeder resumes from the receiver's ack point
		// and plays the stream to the end.
		f2 := cdc.NewFeeder(srv.URL, cdc.FeederOptions{
			Source:        "soak",
			BatchesPerSec: cfg.Rate,
			Fingerprint:   cdc.SchemaFingerprint(mgr.Current().DB),
		})
		if err := f2.Run(context.Background(), mutatorSource{mut}); err != nil {
			return fmt.Errorf("resumed feeder: %w", err)
		}
		st2 := f2.Status()
		row.ResumedAt = st2.ResumedFrom
		row.Connects = f1.Status().Connects + st2.Connects
		if row.ResumedAt >= cfg.Batches {
			return fmt.Errorf("resume point %d: the kill fired too late to test replay", row.ResumedAt)
		}
		return nil
	}()
	if runErr == nil {
		// Final promotion absorbs the tail, then the books are balanced.
		if _, err := eng.Promote(context.Background()); err != nil {
			runErr = fmt.Errorf("final promote: %w", err)
		}
	}
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

	// Reconciliation against ground truth. Exactly-once staging means
	// staged deltas match the stream exactly, and the papers table
	// lands on base + inserts − deletes; a duplicated insert would
	// also have failed the promotion outright as a duplicate key.
	ins, del := mut.Counts()
	row.Inserts, row.Deletes = ins, del
	row.ExpectRows = baseRows + ins - del
	row.FinalRows, err = paperRows(mgr)
	if err != nil {
		return row, err
	}
	rs := recv.Status()
	row.StagedBatches, row.StagedDeltas, row.DupBatches = rs.Batches, rs.Deltas, rs.Duplicates
	row.Throttles, row.ThrottleWait, row.MaxPendingSeen = rs.ThrottleEvents, rs.ThrottleWait, rs.MaxPendingSeen
	row.Promotions = eng.Epoch() - 1
	if row.FinalRows < row.ExpectRows {
		row.Lost = row.ExpectRows - row.FinalRows
	}
	if over := int(row.StagedDeltas) - (ins + del); over > 0 {
		row.Duplicated = over
	}
	switch {
	case row.Lost != 0 || row.FinalRows != row.ExpectRows:
		return row, fmt.Errorf("cdc: rows do not reconcile: final %d, want %d", row.FinalRows, row.ExpectRows)
	case row.Duplicated != 0:
		return row, fmt.Errorf("cdc: %d deltas staged more than once", row.Duplicated)
	case row.StagedBatches != cfg.Batches:
		return row, fmt.Errorf("cdc: %d batches staged, want %d", row.StagedBatches, cfg.Batches)
	case row.QueryErrors != 0:
		return row, fmt.Errorf("cdc: %d query errors under churn", row.QueryErrors)
	case promoteErrs.Load() != 0:
		return row, fmt.Errorf("cdc: %d automatic promotions failed", promoteErrs.Load())
	}
	// The last batch's marker term must be queryable on the final
	// generation — proof the stream reached the index, not just the
	// staging buffer.
	fresh := mut.FreshTerm(cfg.Batches)
	if _, err := eng.SimilarTerms(fresh, 5); err != nil {
		return row, fmt.Errorf("cdc: fresh term %q not queryable: %w", fresh, err)
	}
	return row, nil
}

// paperRows counts the papers table on the current generation.
func paperRows(mgr *live.Manager) (int, error) {
	tab, err := mgr.Current().DB.Table("papers")
	if err != nil {
		return 0, err
	}
	return tab.Len(), nil
}

// RenderCDC formats the soak run for the terminal.
func RenderCDC(row CDCRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CDC ingestion soak (%d batches × %d inserts, kill at %d, %d-way query load):\n",
		row.Batches, row.BatchSize, row.KilledAt, row.Queriers)
	fmt.Fprintf(&b, "  stream     %d batches staged, %d deltas, %d retransmits dropped, %d connects, resumed from seq %d\n",
		row.StagedBatches, row.StagedDeltas, row.DupBatches, row.Connects, row.ResumedAt)
	fmt.Fprintf(&b, "  reconcile  rows %d → %d (expect %d)   lost %d   duplicated %d\n",
		row.BaseRows, row.FinalRows, row.ExpectRows, row.Lost, row.Duplicated)
	fmt.Fprintf(&b, "  staleness  %d promotions, backlog peak %d, %d throttle events (%v withheld)\n",
		row.Promotions, row.MaxPendingSeen, row.Throttles, row.ThrottleWait.Round(time.Millisecond))
	fmt.Fprintf(&b, "  queries    %d (%d errors)   p50 %v   p99 %v   %.0f q/s\n",
		row.Queries, row.QueryErrors,
		row.P50.Round(time.Microsecond), row.P99.Round(time.Microsecond), row.QPS)
	return b.String()
}

// cdcReport is the schema of BENCH_cdc.json.
type cdcReport struct {
	Corpus  string `json:"corpus"`
	MaxProc int    `json:"gomaxprocs"`
	Row     CDCRow `json:"result"`
}

// WriteCDCJSON writes the soak run as indented JSON (the
// `make bench-cdc` artifact).
func WriteCDCJSON(w io.Writer, cfg dblpgen.Config, row CDCRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cdcReport{
		Corpus:  fmt.Sprintf("dblpgen seed=%d topics=%d confs=%d authors=%d papers=%d", cfg.Seed, cfg.Topics, cfg.Confs, cfg.Authors, cfg.Papers),
		MaxProc: runtime.GOMAXPROCS(0),
		Row:     row,
	})
}
