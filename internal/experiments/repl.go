// Replication churn experiment (ISSUE 6): an in-process leader journals
// promotions into a delta log and N followers bootstrap from its
// snapshot and tail the log, while a round-robin client hammers every
// replica with queries. The run drives cfg.Rounds ingest+promote cycles
// on the leader, kills one follower mid-run and resumes it from its
// last applied offset (proving no snapshot re-download), and finally
// checks every replica's term table is bit-identical to the leader's.
// Any query error, catch-up timeout, extra snapshot fetch, or table
// divergence fails the run.
package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kqr"
	"kqr/internal/dblpgen"
	"kqr/internal/live"
	"kqr/internal/repl"
)

// ReplConfig shapes one replication churn run.
type ReplConfig struct {
	// Followers is how many follower replicas tail the leader (≥3 for
	// the acceptance gate).
	Followers int
	// Rounds is how many ingest+promote cycles the leader drives (≥4
	// for the acceptance gate).
	Rounds int
	// BatchSize is how many papers each round inserts.
	BatchSize int
	// Queriers is how many concurrent round-robin query goroutines run
	// throughout.
	Queriers int
	// Seed drives query sampling and synthetic titles.
	Seed int64
}

// ReplReplica is one replica's end state.
type ReplReplica struct {
	ID              int    `json:"id"`
	Epoch           uint64 `json:"epoch"`
	SnapshotFetches int    `json:"snapshot_fetches"`
	BytesBehind     int64  `json:"bytes_behind"`
	TermTableSHA    string `json:"term_table_sha256"`
	Fingerprint     string `json:"fingerprint"`
	Resumed         bool   `json:"resumed,omitempty"`
}

// LivePromotion records one ingest+promote cycle.
type LivePromotion struct {
	Epoch      uint64        `json:"epoch"`
	Mode       string        `json:"mode"`
	Inserts    int           `json:"inserts"`
	TotalTerms int           `json:"total_terms"`
	Promote    time.Duration `json:"promote_ns"`
}

// ReplRow is the result of one replication churn run.
type ReplRow struct {
	Followers  int             `json:"followers"`
	Promotions []LivePromotion `json:"promotions"`
	// Catchups is, per promotion, how long the slowest live follower
	// took to apply it.
	Catchups       []time.Duration `json:"catchup_ns"`
	Queries        int             `json:"queries"`
	QueryErrors    int             `json:"query_errors"`
	P50            time.Duration   `json:"query_p50_ns"`
	P99            time.Duration   `json:"query_p99_ns"`
	QPS            float64         `json:"queries_per_second"`
	Wall           time.Duration   `json:"wall_ns"`
	KilledFollower int             `json:"killed_follower"`
	LeaderSHA      string          `json:"leader_term_table_sha256"`
	LeaderFP       string          `json:"leader_fingerprint"`
	Replicas       []ReplReplica   `json:"replicas"`
	BitIdentical   bool            `json:"bit_identical"`
}

// replica is one follower's live state during the run.
type replica struct {
	f      *repl.Follower
	eng    *kqr.Engine
	cancel context.CancelFunc
	done   chan error
	dead   bool
	// resumed marks the follower that was killed and restarted.
	resumed bool
}

// start launches (or relaunches) the follower's tail loop.
func (rep *replica) start() {
	ctx, cancel := context.WithCancel(context.Background())
	rep.cancel = cancel
	rep.done = make(chan error, 1)
	rep.dead = false
	f := rep.f
	go func() { rep.done <- f.Run(ctx) }()
}

// stop cancels the tail loop and waits for it; the context.Canceled it
// exits with is the expected shutdown path.
func (rep *replica) stop() error {
	if rep.cancel == nil || rep.dead {
		return nil
	}
	rep.cancel()
	err := <-rep.done
	rep.dead = true
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// ReplChurn runs the replication experiment: leader + cfg.Followers
// followers, concurrent round-robin query load over every replica,
// cfg.Rounds lockstep promotions, a kill/resume of follower 0 in the
// middle, and a final bit-identity audit of all term tables.
func ReplChurn(dcfg dblpgen.Config, cfg ReplConfig) (ReplRow, error) {
	var row ReplRow
	if cfg.Followers <= 0 {
		cfg.Followers = 3
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 4
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 25
	}
	if cfg.Queriers <= 0 {
		cfg.Queriers = 4
	}
	if cfg.Rounds < 4 {
		return row, fmt.Errorf("repl: need ≥4 rounds to cover the kill/resume window, got %d", cfg.Rounds)
	}
	row.Followers = cfg.Followers
	row.KilledFollower = 0

	corpus, err := dblpgen.Generate(dcfg)
	if err != nil {
		return row, err
	}
	leaderEng, err := kqr.Open(kqr.WrapDatabase(corpus.DB), kqr.Options{Live: true})
	if err != nil {
		return row, err
	}
	defer leaderEng.Close()
	lmgr, lcfg := leaderEng.Replication()
	dir, err := os.MkdirTemp("", "kqr-repl-*")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)
	leader, err := repl.NewLeader(lmgr, lcfg, dir, repl.LeaderOptions{
		NoSync: true, Heartbeat: 50 * time.Millisecond,
	})
	if err != nil {
		return row, err
	}
	srv := httptest.NewServer(leader.Handler())

	// Bootstrap every follower from the leader's snapshot and start its
	// tail loop. Followers must be stopped before srv.Close(): the
	// long-lived log streams otherwise keep the test server's shutdown
	// waiting forever.
	reps := make([]*replica, cfg.Followers)
	defer func() {
		for _, rep := range reps {
			if rep != nil {
				rep.stop()
			}
		}
		srv.Close()
		leader.Close()
		for _, rep := range reps {
			if rep != nil && rep.eng != nil {
				rep.eng.Close()
			}
		}
	}()
	for i := range reps {
		f := repl.NewFollower(srv.URL, repl.FollowerOptions{MinBackoff: 10 * time.Millisecond})
		snap, err := f.Bootstrap(context.Background())
		if err != nil {
			return row, fmt.Errorf("follower %d bootstrap: %w", i, err)
		}
		feng, err := kqr.Open(kqr.WrapDatabase(snap.DB), kqr.Options{})
		if err != nil {
			return row, fmt.Errorf("follower %d open: %w", i, err)
		}
		fmgr, fcfg := feng.Replication()
		if err := f.Attach(fmgr, fcfg, snap); err != nil {
			feng.Close()
			return row, fmt.Errorf("follower %d attach: %w", i, err)
		}
		reps[i] = &replica{f: f, eng: feng}
		reps[i].start()
	}

	// The round-robin client: every query goes to the next replica in
	// the ring (leader included), mixing the two read paths. A killed
	// follower keeps serving its last promoted generation, so the error
	// count must stay zero throughout.
	engines := make([]*kqr.Engine, 0, 1+cfg.Followers)
	engines = append(engines, leaderEng)
	for _, rep := range reps {
		engines = append(engines, rep.eng)
	}
	vocab := leaderEng.Vocabulary()
	if len(vocab) < 2 {
		return row, fmt.Errorf("repl: vocabulary too small (%d terms)", len(vocab))
	}
	stop := make(chan struct{})
	type querierResult struct {
		lat  []time.Duration
		errs int
	}
	results := make([]querierResult, cfg.Queriers)
	var rr atomic.Uint64
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
				eng := engines[rr.Add(1)%uint64(len(engines))]
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

	// waitCatchup blocks until every live follower has applied the
	// leader's epoch, returning how long the slowest one took.
	waitCatchup := func(target uint64) (time.Duration, error) {
		start := time.Now()
		deadline := start.Add(3 * time.Minute)
		for i, rep := range reps {
			if rep.dead {
				continue
			}
			for rep.f.Status().Epoch < target {
				if time.Now().After(deadline) {
					return 0, fmt.Errorf("follower %d stuck at epoch %d, leader at %d",
						i, rep.f.Status().Epoch, target)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		return time.Since(start), nil
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	wallStart := time.Now()
	pid := int64(9_500_000)
	runErr := func() error {
		for round := 0; round < cfg.Rounds; round++ {
			fresh := fmt.Sprintf("replterm%d", round)
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
			if err := leaderEng.Ingest(deltas); err != nil {
				return fmt.Errorf("round %d ingest: %w", round, err)
			}
			start := time.Now()
			info, err := leaderEng.Promote(context.Background())
			if err != nil {
				return fmt.Errorf("round %d promote: %w", round, err)
			}
			row.Promotions = append(row.Promotions, LivePromotion{
				Epoch:      info.Epoch,
				Mode:       info.Mode,
				Inserts:    info.Inserts,
				TotalTerms: info.TotalTerms,
				Promote:    time.Since(start),
			})
			catchup, err := waitCatchup(info.Epoch)
			if err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
			row.Catchups = append(row.Catchups, catchup)
			// Lockstep means the round's new term is queryable on every
			// live replica, not just that epoch numbers match.
			for i, rep := range reps {
				if rep.dead {
					continue
				}
				if _, err := rep.eng.SimilarTerms(fresh, 5); err != nil {
					return fmt.Errorf("round %d: term %q not queryable on follower %d: %w",
						round, fresh, i, err)
				}
			}
			// Kill follower 0 after the second promotion and resume it
			// before the last: it misses a full promotion and must
			// resume from its last applied offset, not re-bootstrap.
			if round == 1 {
				if err := reps[0].stop(); err != nil {
					return fmt.Errorf("round %d kill: follower exited with %w", round, err)
				}
			}
			if round == cfg.Rounds-2 {
				reps[0].start()
				reps[0].resumed = true
			}
		}
		// Final convergence: everything alive again, fully drained.
		if _, err := waitCatchup(leaderEng.Epoch()); err != nil {
			return err
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
	if row.QueryErrors > 0 {
		return row, fmt.Errorf("repl: %d of %d queries errored", row.QueryErrors, row.Queries)
	}

	// Bit-identity audit: hash each replica's materialized term table
	// and compare build fingerprints.
	row.LeaderSHA, row.LeaderFP, err = termTableIdentity(lmgr.Current(), lcfg)
	if err != nil {
		return row, err
	}
	row.BitIdentical = true
	for i, rep := range reps {
		st := rep.f.Status()
		fmgr, fcfg := rep.eng.Replication()
		sha, fp, err := termTableIdentity(fmgr.Current(), fcfg)
		if err != nil {
			return row, fmt.Errorf("follower %d: %w", i, err)
		}
		row.Replicas = append(row.Replicas, ReplReplica{
			ID:              i,
			Epoch:           st.Epoch,
			SnapshotFetches: st.SnapshotFetches,
			BytesBehind:     st.BytesBehind,
			TermTableSHA:    sha,
			Fingerprint:     fp,
			Resumed:         rep.resumed,
		})
		switch {
		case st.Epoch != leaderEng.Epoch():
			return row, fmt.Errorf("follower %d finished at epoch %d, leader at %d", i, st.Epoch, leaderEng.Epoch())
		case st.BytesBehind != 0:
			return row, fmt.Errorf("follower %d still %d bytes behind", i, st.BytesBehind)
		case st.SnapshotFetches != 1:
			return row, fmt.Errorf("follower %d fetched the snapshot %d times; resume must reuse the bootstrap", i, st.SnapshotFetches)
		case sha != row.LeaderSHA || fp != row.LeaderFP:
			row.BitIdentical = false
			return row, fmt.Errorf("follower %d term table diverged from leader", i)
		}
	}
	return row, nil
}

// termTableIdentity hashes a generation's materialized term table (the
// artifact vocabulary section: node id, class, text per term) and
// returns it with the generation's build fingerprint.
func termTableIdentity(g *live.Generation, cfg live.Config) (sha, fp string, err error) {
	snap, err := live.ArtifactSnapshot(g, "identity")
	if err != nil {
		return "", "", err
	}
	h := sha256.New()
	for _, c := range snap.Classes {
		fmt.Fprintf(h, "%s\x00", c)
	}
	for _, t := range snap.Vocabulary {
		fmt.Fprintf(h, "%d\x1f%d\x1f%s\x00", t.Node, t.Class, t.Text)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), repl.Fingerprint(g, cfg), nil
}

// RenderRepl formats the replication run for the terminal.
func RenderRepl(row ReplRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Replication churn (%d followers, %d lockstep promotions, follower %d killed+resumed):\n",
		row.Followers, len(row.Promotions), row.KilledFollower)
	fmt.Fprintf(&b, "  %-6s %-9s %8s %9s %12s %12s\n", "epoch", "mode", "inserts", "terms", "promote", "catchup")
	for i, p := range row.Promotions {
		catchup := time.Duration(0)
		if i < len(row.Catchups) {
			catchup = row.Catchups[i]
		}
		fmt.Fprintf(&b, "  %-6d %-9s %8d %9d %12v %12v\n",
			p.Epoch, p.Mode, p.Inserts, p.TotalTerms,
			p.Promote.Round(time.Millisecond), catchup.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "  queries   %d (%d errors) via round-robin over %d replicas\n",
		row.Queries, row.QueryErrors, row.Followers+1)
	fmt.Fprintf(&b, "  query p50 %v   p99 %v   throughput %.0f q/s\n",
		row.P50.Round(time.Microsecond), row.P99.Round(time.Microsecond), row.QPS)
	for _, r := range row.Replicas {
		note := ""
		if r.Resumed {
			note = "  (killed mid-run, resumed from offset)"
		}
		fmt.Fprintf(&b, "  follower %d: epoch %d, %d snapshot fetch, %d bytes behind%s\n",
			r.ID, r.Epoch, r.SnapshotFetches, r.BytesBehind, note)
	}
	fmt.Fprintf(&b, "  term tables bit-identical to leader: %v\n", row.BitIdentical)
	return b.String()
}

// replReport is the schema of BENCH_repl.json.
type replReport struct {
	Corpus  string  `json:"corpus"`
	MaxProc int     `json:"gomaxprocs"`
	Row     ReplRow `json:"result"`
}

// WriteReplJSON writes the replication run as indented JSON (the
// `make bench-repl` artifact).
func WriteReplJSON(w io.Writer, cfg dblpgen.Config, row ReplRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(replReport{
		Corpus:  fmt.Sprintf("dblpgen seed=%d topics=%d confs=%d authors=%d papers=%d", cfg.Seed, cfg.Topics, cfg.Confs, cfg.Authors, cfg.Papers),
		MaxProc: runtime.GOMAXPROCS(0),
		Row:     row,
	})
}
