// Command kqr-server runs the JSON API over a corpus — the backend for
// an Ajax-style query interface like the paper's Figure 6 demo.
//
//	kqr-server -addr :8080 -papers 3000
//	curl 'localhost:8080/api/reformulate?q=probabilistic+ranking&k=5'
//	curl 'localhost:8080/api/facets?q=probabilistic'
//	curl 'localhost:8080/api/metrics'
//
// With -warm the offline stage runs for the *entire* term vocabulary
// before the listener opens — similarity and closeness for every term
// node, fanned out over GOMAXPROCS goroutines — so no request ever
// pays first-touch walk latency.
//
// The offline stage can be persisted as a versioned snapshot for
// instant cold starts: -snapshot-save writes the warmed tables after
// -warm completes (implying -warm if absent), and -snapshot-load
// restores them at startup instead of recomputing, falling back to
// live compute — logged, never fatal — when the file is missing, from
// a different corpus, or corrupt. Point both flags at the same path to
// get warm-once-then-load-forever restarts:
//
//	kqr-server -warm -snapshot-save offline.snapshot   # first deploy
//	kqr-server -snapshot-load offline.snapshot         # every restart
//
// For corpora whose offline tables exceed RAM, -disk-mode serves them
// page-by-page straight from a paged (v2) snapshot instead of loading
// them: save one with -snapshot-save-paged, then point -snapshot-load
// at it with -disk-mode on. Only the page index stays resident; rows
// fault on demand into a fixed set of page frames, allocated on first
// use and reused by every later fault, whose number -table-mem-budget
// MiB bounds, and /api/metrics gains a "disk" block with
// hit/miss/eviction counters and resident bytes. Disk mode is
// read-only: -disk-mode refuses -warm, the save flags and -live — each
// would pull whole tables back into RAM:
//
//	kqr-server -snapshot-save-paged offline.paged          # first deploy
//	kqr-server -snapshot-load offline.paged -disk-mode \
//	           -table-mem-budget 128                       # bounded restart
//
// The serving layer defaults to production posture: a 64 MB response
// cache with a 5-minute TTL, entries earned on a query's second request
// (-cache-mb 0 disables), and a concurrency limit of 4×GOMAXPROCS with a
// bounded wait queue that sheds overload as 503 (-max-inflight 0
// disables).
// SIGINT/SIGTERM drain in-flight requests for up to 10 seconds before
// exit.
//
// With -live the index accepts delta batches over POST /api/admin/ingest
// and swaps in a rebuilt generation on POST /api/admin/promote (or
// automatically once -staleness-max-deltas accumulate or the oldest
// staged delta exceeds -staleness-max-age). Retired generations are
// logged as they are replaced. SIGHUP rebuilds a fresh generation from
// the -snapshot-load file and swaps it in without dropping a request —
// a zero-downtime artifact reload. /healthz and /readyz serve liveness
// and readiness probes; readiness flips on only after warm-up and
// snapshot restore finish.
//
// Replication turns one live server into a read-scaling group. On the
// leader, -repl-dir (with -live) journals every promotion into a
// durable delta log under that directory and serves the replication
// protocol on /repl/. A follower runs with -follow pointing at the
// leader's base URL: it fetches the leader's snapshot (database +
// offline artifact), opens an engine over it, and tails the delta log,
// promoting generations in lockstep — no local corpus flags needed,
// and admin writes are rejected with 409. The follower's /readyz stays
// 503 until it is within one promotion of the leader, and
// /api/metrics reports its replication lag (epoch delta, last applied
// offset, bytes behind):
//
//	kqr-server -addr :8080 -live -repl-dir /var/lib/kqr/log   # leader
//	kqr-server -addr :8081 -follow http://leader:8080         # follower
//
// Query mending is on by default (-mend=false disables): each
// generation carries a deletion-neighbourhood index over its
// vocabulary, and /api/reformulate repairs misspelled, run-together,
// and over-split queries before reformulating (mend=on|off|auto
// parameter, default auto). Repairs are echoed as corrected_query
// with per-token provenance; a query with no recognizable term
// answers 422 with nearest-candidate hints, and /api/metrics gains a
// "mend" block. Queries made of valid terms always pass through
// byte-identically:
//
//	curl 'localhost:8080/api/reformulate?q=probablistic+rankng&k=5'
//	# → corrected_query "probabilistic ranking", suggestions for it
//
// With -cdc (needs -live) the server also accepts streamed change-data
// capture on POST /cdc/stream: long-lived binary KQRCDC streams from
// kqr-feed (or any cdc.Feeder) with per-source sequence numbers for
// exactly-once staging, resume after reconnect, and backpressure by
// withheld acks once -cdc-max-pending deltas are staged. Stream and lag
// stats appear under "cdc" in /api/metrics. Followers reject CDC the
// same way they reject admin writes — feed the leader.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"kqr"
	"kqr/internal/cdc"
	"kqr/internal/repl"
	"kqr/server"
	"kqr/synthetic"
)

// config collects the flag values run needs.
type config struct {
	addr        string
	seed        int64
	papers      int
	warm        bool
	snapSave    string
	snapSavePgd string
	snapLoad    string
	diskMode    bool
	tableMemMB  int64
	cacheMB     int
	maxInflight int
	maxQueue    int
	live        bool
	stalenessN  int
	stalenessT  time.Duration
	replDir     string
	follow      string
	cdc         bool
	cdcPending  int
	mend        bool
}

const (
	// cacheTTL is how long a response-cache entry stays valid. Entries
	// are also keyed by generation epoch, so the TTL only bounds how
	// long a cold entry occupies the LRU.
	cacheTTL = 5 * time.Minute
	// followMaxLag is how many promotions a follower may trail the
	// leader by before its /readyz reports not ready.
	followMaxLag = 1
)

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.Int64Var(&cfg.seed, "seed", 20120401, "corpus seed")
	flag.IntVar(&cfg.papers, "papers", 3000, "corpus size in papers")
	flag.BoolVar(&cfg.warm, "warm", false, "precompute similarity+closeness for the whole vocabulary before serving")
	flag.StringVar(&cfg.snapSave, "snapshot-save", "", "write the offline tables as a snapshot here after warming (implies -warm)")
	flag.StringVar(&cfg.snapSavePgd, "snapshot-save-paged", "", "write the offline tables as a paged (v2) snapshot here after warming, for -disk-mode serving (implies -warm)")
	flag.StringVar(&cfg.snapLoad, "snapshot-load", "", "restore the offline tables from this snapshot at startup (falls back to live compute)")
	flag.BoolVar(&cfg.diskMode, "disk-mode", false, "serve the offline tables page-by-page from the -snapshot-load file (must be paged/v2) instead of decoding them into RAM")
	flag.Int64Var(&cfg.tableMemMB, "table-mem-budget", 64, "resident table byte budget in MiB for -disk-mode (page index + page frames)")
	flag.IntVar(&cfg.cacheMB, "cache-mb", 64, "response cache size in MiB (0 disables caching)")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 4*runtime.GOMAXPROCS(0), "max concurrently executing requests (0 = unlimited)")
	flag.IntVar(&cfg.maxQueue, "max-queue", 64, "max requests waiting for an execution slot before shedding")
	flag.BoolVar(&cfg.live, "live", false, "accept delta ingestion and generation promotion via the admin API")
	flag.IntVar(&cfg.stalenessN, "staleness-max-deltas", 0, "auto-promote once this many deltas are staged (0 = only explicit promote)")
	flag.DurationVar(&cfg.stalenessT, "staleness-max-age", 0, "auto-promote once the oldest staged delta is this old (0 = no age bound)")
	flag.StringVar(&cfg.replDir, "repl-dir", "", "journal promotions into a delta log here and serve the replication protocol (needs -live)")
	flag.StringVar(&cfg.follow, "follow", "", "run as a follower of the leader at this base URL (replaces local corpus flags)")
	flag.BoolVar(&cfg.cdc, "cdc", false, "accept streamed CDC ingestion on POST /cdc/stream (needs -live)")
	flag.IntVar(&cfg.cdcPending, "cdc-max-pending", 0, "withhold CDC acks once this many deltas are staged (0 = receiver default)")
	flag.BoolVar(&cfg.mend, "mend", true, "repair typo'd/run-together/over-split queries against the vocabulary before reformulation (mend=on|off|auto on /api/reformulate)")
	flag.Parse()
	runFn := run
	if cfg.follow != "" {
		runFn = runFollower
	}
	err := cfg.validate()
	if err == nil {
		err = runFn(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kqr-server:", err)
		os.Exit(1)
	}
}

// validate checks every flag-combination rule, before any corpus is
// generated or fetched.
func (cfg config) validate() error {
	switch {
	case cfg.follow != "" && (cfg.live || cfg.replDir != ""):
		return fmt.Errorf("-follow is exclusive with -live and -repl-dir: a follower only replays the leader's log")
	case cfg.follow != "" && (cfg.diskMode || cfg.snapLoad != "" || cfg.snapSave != "" || cfg.snapSavePgd != "" || cfg.warm ||
		cfg.cdc || cfg.cdcPending != 0 || cfg.stalenessN != 0 || cfg.stalenessT != 0):
		return fmt.Errorf("-follow takes no snapshot, -disk-mode, -warm, CDC or staleness flag: a follower's corpus, tables and promotions are the leader's")
	case cfg.diskMode && cfg.snapLoad == "":
		return fmt.Errorf("-disk-mode needs -snapshot-load naming a paged snapshot (save one with -snapshot-save-paged)")
	case cfg.diskMode && cfg.live:
		return fmt.Errorf("-disk-mode conflicts with -live: disk mode is read-only, and a promoted generation's tables would be computed into RAM, outside -table-mem-budget")
	case cfg.diskMode && cfg.warm:
		return fmt.Errorf("-disk-mode conflicts with -warm: warming decodes every table row into RAM, which is exactly what disk mode bounds")
	case cfg.diskMode && (cfg.snapSave != "" || cfg.snapSavePgd != ""):
		return fmt.Errorf("-disk-mode cannot save snapshots: a save reads every table row, which would fault the whole paged file through the bounded page cache; save from a RAM-mode server")
	case cfg.replDir != "" && !cfg.live:
		return fmt.Errorf("-repl-dir needs -live: only promotions are journaled")
	case cfg.cdc && !cfg.live:
		return fmt.Errorf("-cdc needs -live: streamed deltas stage into the live index")
	case (cfg.stalenessN != 0 || cfg.stalenessT != 0) && !cfg.live:
		return fmt.Errorf("-staleness-max-deltas and -staleness-max-age need -live: they bound staged deltas")
	case cfg.cdcPending != 0 && !cfg.cdc:
		return fmt.Errorf("-cdc-max-pending needs -cdc: it bounds streamed deltas")
	}
	return nil
}

// servingOptions assembles what run and runFollower share: the dataset
// line of /api/stats, the readiness latch, the response cache and the
// in-flight limit.
func (cfg config) servingOptions(datasetStats string, ready *atomic.Bool) []server.Option {
	opts := []server.Option{
		server.WithDatasetStats(datasetStats),
		server.WithReadiness(ready.Load),
	}
	if cfg.cacheMB > 0 {
		opts = append(opts, server.WithCache(int64(cfg.cacheMB)<<20, cacheTTL))
		fmt.Printf("serving: %d MiB response cache, ttl %v\n", cfg.cacheMB, cacheTTL)
	}
	if cfg.maxInflight > 0 {
		opts = append(opts, server.WithMaxInflight(cfg.maxInflight, cfg.maxQueue))
		fmt.Printf("serving: max %d in flight, queue %d, overload shed as 503\n", cfg.maxInflight, cfg.maxQueue)
	}
	return opts
}

func run(cfg config) error {
	fmt.Println("building corpus and TAT graph...")
	corpus, err := synthetic.Bibliography(synthetic.Config{Seed: cfg.seed, Papers: cfg.papers})
	if err != nil {
		return err
	}
	eng, err := kqr.Open(corpus.Dataset, kqr.Options{
		ArtifactPath:       cfg.snapLoad,
		DiskMode:           cfg.diskMode,
		TableMemBudget:     cfg.tableMemMB << 20,
		Mend:               cfg.mend,
		Live:               cfg.live,
		StalenessMaxDeltas: cfg.stalenessN,
		StalenessMaxAge:    cfg.stalenessT,
		OnRetire: func(epoch uint64) {
			fmt.Printf("generation %d retired, epoch %d now serving\n", epoch, epoch+1)
		},
		OnPromoteError: func(err error) {
			fmt.Fprintln(os.Stderr, "kqr-server: auto-promote:", err)
		},
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	fmt.Printf("dataset: %s\ngraph:   %s\n", corpus.Dataset.Stats(), eng.GraphStats())
	if ms, ok := eng.MendStats(); ok {
		fmt.Printf("mend: %d terms, %d deletion keys, %.1f KiB resident\n",
			ms.Terms, ms.Keys, float64(ms.Bytes)/(1<<10))
	}
	loaded := eng.Artifact().Loaded
	if cfg.diskMode {
		if ds, ok := eng.DiskTables(); ok {
			fmt.Printf("disk mode: tables %.1f MiB on disk, budget %.1f MiB (index %.1f MiB resident)\n",
				float64(ds.BlobBytes)/(1<<20), float64(ds.Budget)/(1<<20), float64(ds.MetaBytes)/(1<<20))
		}
	}
	if cfg.snapLoad != "" && !loaded {
		fmt.Printf("snapshot %s not used (%s); computing live\n", cfg.snapLoad, eng.Artifact().FallbackReason)
	}

	// -snapshot-save without a restored snapshot needs warm tables to be
	// worth saving, so it implies -warm.
	warm := cfg.warm || ((cfg.snapSave != "" || cfg.snapSavePgd != "") && !loaded)
	if warm {
		fmt.Printf("warming offline caches for the full vocabulary (%d workers)...\n", runtime.GOMAXPROCS(0))
		start := time.Now()
		if err := eng.Warm(context.Background()); err != nil {
			return err
		}
		fmt.Printf("offline caches hot in %v\n", time.Since(start).Round(time.Millisecond))
	}
	for _, save := range []struct {
		path  string
		write func(string) error
		label string
	}{
		{cfg.snapSave, eng.SaveArtifacts, "snapshot"},
		{cfg.snapSavePgd, eng.SaveArtifactsPaged, "paged snapshot"},
	} {
		if save.path == "" {
			continue
		}
		start := time.Now()
		if err := save.write(save.path); err != nil {
			return err
		}
		if st, err := os.Stat(save.path); err == nil {
			fmt.Printf("%s saved to %s (%d bytes) in %v\n",
				save.label, save.path, st.Size(), time.Since(start).Round(time.Millisecond))
		}
	}

	// Startup is synchronous up to this point, so readiness is a simple
	// latch: /readyz turns 200 just before the listener opens.
	var ready atomic.Bool
	opts := cfg.servingOptions(corpus.Dataset.Stats(), &ready)
	if cfg.live {
		fmt.Printf("live mode: admin ingestion on, staleness bounds max-deltas=%d max-age=%v\n",
			cfg.stalenessN, cfg.stalenessT)
	}
	if cfg.replDir != "" {
		mgr, _ := eng.Replication()
		leader, err := repl.NewLeader(mgr, cfg.replDir, repl.LeaderOptions{})
		if err != nil {
			return err
		}
		defer leader.Close()
		opts = append(opts, server.WithReplicationLeader(leader))
		st := leader.Status()
		fmt.Printf("replication leader: delta log in %s (%d segments, next record %d), protocol on /repl/\n",
			cfg.replDir, st.Segments, st.LogEnd)
	}
	if cfg.cdc {
		mgr, _ := eng.Replication()
		recv := cdc.NewReceiver(mgr, cdc.ReceiverOptions{
			MaxPending: cfg.cdcPending,
			Logf: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			},
		})
		opts = append(opts, server.WithCDC(recv))
		fmt.Printf("CDC ingestion: streams on POST /cdc/stream, ack backpressure above %d staged deltas\n",
			recv.Status().MaxPending)
	}
	srv, err := server.New(eng, opts...)
	if err != nil {
		return err
	}

	// SIGHUP swaps in a generation rebuilt from the snapshot file —
	// zero-downtime artifact reload. Queries racing the reload see the
	// old tables or the new ones, never a mix.
	if cfg.snapLoad != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				fmt.Println("SIGHUP: reloading artifacts from", cfg.snapLoad)
				start := time.Now()
				if err := eng.ReloadArtifacts(cfg.snapLoad); err != nil {
					fmt.Fprintln(os.Stderr, "kqr-server: reload:", err)
					continue
				}
				fmt.Printf("reload done in %v, epoch %d serving\n",
					time.Since(start).Round(time.Millisecond), eng.Epoch())
			}
		}()
		defer signal.Stop(hup)
	}

	// Graceful shutdown: SIGINT/SIGTERM stop accepting and drain
	// in-flight requests under the server's 10s grace period.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ready.Store(true)
	return srv.Serve(ctx, cfg.addr)
}

// runFollower runs the server in follower mode: the corpus is the
// leader's, fetched as a snapshot and then kept current by tailing the
// leader's delta log, so validate refuses the live, snapshot, warm and
// CDC flags (-seed and -papers are unused). The serving flags (cache,
// inflight limits, -mend) work as usual.
func runFollower(cfg config) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("bootstrapping from leader %s...\n", cfg.follow)
	f := repl.NewFollower(cfg.follow, repl.FollowerOptions{})
	start := time.Now()
	snap, err := f.Bootstrap(ctx)
	if err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	eng, err := kqr.Open(kqr.WrapDatabase(snap.DB), kqr.Options{Mend: cfg.mend})
	if err != nil {
		return err
	}
	defer eng.Close()
	mgr, _ := eng.Replication()
	if err := f.Attach(mgr, snap); err != nil {
		return fmt.Errorf("attach: %w", err)
	}
	fmt.Printf("bootstrapped at epoch %d in %v\ndataset: %s\ngraph:   %s\n",
		snap.Epoch, time.Since(start).Round(time.Millisecond), snap.DB.Stats().String(), eng.GraphStats())

	// The tail loop reconnects with backoff on transient failures; only
	// divergence from the leader's history is terminal, and then the
	// right move is to exit (and re-bootstrap on restart) rather than
	// keep serving an abandoned timeline.
	tailErr := make(chan error, 1)
	go func() {
		err := f.Run(ctx)
		if err != nil && !errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "kqr-server: replication:", err)
			stop()
		}
		tailErr <- err
	}()

	var ready atomic.Bool
	opts := append(cfg.servingOptions(snap.DB.Stats().String(), &ready),
		server.WithReplicationFollower(f, followMaxLag))
	fmt.Printf("follower mode: admin writes rejected, ready within %d promotions of the leader\n", followMaxLag)
	srv, err := server.New(eng, opts...)
	if err != nil {
		return err
	}
	ready.Store(true)
	serveErr := srv.Serve(ctx, cfg.addr)
	if err := <-tailErr; err != nil && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("replication: %w", err)
	}
	return serveErr
}
