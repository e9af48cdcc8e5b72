package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kqr/internal/cdc"
	"kqr/internal/dblpgen"
	"kqr/internal/live"
	"kqr/internal/relstore"
)

// corpusSeed is kqr-server's default -seed; the benchmark's own -seed
// varies the traffic, never the corpus.
const corpusSeed = 20120401

// sizing fixes how much work a run does. fullSize is what
// BENCHMARK.json is measured at; the smoke test substitutes a size that
// only has to reach every code path in seconds.
type sizing struct {
	papers      int // corpus of the three read workloads
	churnPapers int // corpus of the churn workload
	windows     int // measurement windows per phase
	setups      int // times a workload is set up; setup_s is the median
	zipfPool    int // distinct clean queries behind http_zipf
	zipfDraws   int // length of the Zipf send order (wraps around)
	missStream  int // never-repeating queries behind http_miss/disk_miss
	churnPool   int
	warmZipf    int // warm-up requests, part of setup_s
	warmMiss    int
	// Open-loop arrival rates, requests per second: 40–50 % of what the
	// closed loop sustains on the reference box. Lower, and the vCPUs halt
	// between requests, so the median flips from window to window between
	// two values, with and without the hypervisor's wake-up time; higher,
	// and a slow spell of the host tips the loop into queueing.
	zipfRate  float64
	missRate  float64
	diskRate  float64
	churnRate float64 // per server
	churnMin  int     // promotion cycles at least / at most
	churnMax  int
	replay    int // requests replayed in-process by a traced run
	probes    int // queries per probe set
}

var fullSize = sizing{
	papers: 2000, churnPapers: 600, windows: 12, setups: 3,
	zipfPool: 5000, zipfDraws: 400000, missStream: 90000, churnPool: 2000,
	warmZipf: 3000, warmMiss: 500,
	zipfRate: 8000, missRate: 2000, diskRate: 1200, churnRate: 100,
	churnMin: 3, churnMax: 12, replay: 2000, probes: 200,
}

// Posture of each read workload: request shape and server flags.
const (
	kHead = 5  // suggestions asked by head traffic and the probe sets
	kTail = 50 // suggestions asked by tail traffic
	// diskBudgetMiB is -table-mem-budget for disk_miss: a page cache an
	// order of magnitude smaller than the tables it fronts.
	diskBudgetMiB = 4
)

// run is one workload execution.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizing
	dataset  string // -dataset: replay this saved request list

	root   string // repository root
	bin    string // built kqr-server
	tmp    string // per-run scratch (snapshots, logs, replication log)
	outDir string // bench/out: datasets, reports, span files

	kids *children
	rep  *report
	tr   *tracer
}

// phaseLen is the length of each of the two measured phases.
func (r *run) phaseLen() time.Duration {
	return time.Duration(r.seconds / 2 * float64(time.Second))
}

func (r *run) window() time.Duration { return r.phaseLen() / time.Duration(r.sz.windows) }

func (r *run) logf(format string, args ...any) {
	fmt.Printf("  "+format+"\n", args...)
}

// corpus generates the synthetic bibliography kqr-server builds for
// -seed corpusSeed -papers n, and a query chain trained on its titles.
func corpus(papers int) (*dblpgen.Corpus, *chain, error) {
	c, err := dblpgen.Generate(dblpgen.Config{Seed: corpusSeed, Papers: papers})
	if err != nil {
		return nil, nil, err
	}
	tbl, err := c.DB.Table("papers")
	if err != nil {
		return nil, nil, err
	}
	titles := make([]string, 0, tbl.Len())
	for i := 0; i < tbl.Len(); i++ {
		tp, err := tbl.Tuple(i)
		if err != nil {
			return nil, nil, err
		}
		titles = append(titles, tp.Values[1].Text())
	}
	ch, err := newChain(titles)
	return c, ch, err
}

// loadOrGenerate returns the run's dataset — the -dataset file when one
// was given, a freshly generated one otherwise — and saves it beside
// the report so the run can be replayed.
func (r *run) loadOrGenerate(gen func() *dataset) (*dataset, error) {
	var d *dataset
	if r.dataset != "" {
		var err error
		if d, err = loadDataset(r.dataset); err != nil {
			return nil, err
		}
		if d.Workload != r.workload {
			return nil, fmt.Errorf("dataset %s was generated for workload %q, not %q", r.dataset, d.Workload, r.workload)
		}
	} else {
		d = gen()
	}
	path := filepath.Join(r.outDir, fmt.Sprintf("dataset-%s-%d.json", r.workload, r.seed))
	if path != r.dataset {
		if err := saveJSON(path, d); err != nil {
			return nil, err
		}
	}
	r.rep.Dataset = path
	return d, nil
}

// corpusArgs are the flags every corpus-building server shares.
func corpusArgs(papers int) []string {
	return []string{"-seed", strconv.Itoa(corpusSeed), "-papers", strconv.Itoa(papers)}
}

// startTimeout bounds a child's start-up, cold build included.
const startTimeout = 120 * time.Second

// inflightLine is the server's start-up report of its admission limit,
// 4×GOMAXPROCS by default — the only place the child's GOMAXPROCS
// shows.
var inflightLine = regexp.MustCompile(`serving: max (\d+) in flight`)

func (r *run) noteServerProcs(s *child) {
	b, err := os.ReadFile(s.stdout)
	if err != nil {
		return
	}
	if m := inflightLine.FindSubmatch(b); m != nil {
		n, _ := strconv.Atoi(string(m[1]))
		r.rep.Provenance.ServerGOMAXPROCS = n / 4
	}
}

// warmUp sends the first n requests of d over two connections and
// returns how many it consumed.
func (r *run) warmUp(t *target, d *dataset, n int) int {
	send, closeConns := datasetSender(t, d, 0, 2)
	defer closeConns()
	var left atomic.Int64
	left.Store(int64(n))
	limited := func(worker, seq int) (outcome, int, bool) {
		if left.Add(-1) < 0 {
			return 0, 0, false
		}
		return send(worker, seq)
	}
	st, used := runClosed(wallClock{}, limited, 2, time.Hour, time.Hour)
	r.rep.addPhase("warm-up", st)
	return min(used, n)
}

// readPosture describes one of the three read workloads.
type readPosture struct {
	zipf bool    // head traffic (repeats, faults) rather than the miss stream
	disk bool    // serve the tables from a paged snapshot under a budget
	rate float64 // open-loop arrival rate
	warm int     // warm-up requests
}

func (r *run) posture() readPosture {
	switch r.workload {
	case "http_zipf":
		return readPosture{zipf: true, rate: r.sz.zipfRate, warm: r.sz.warmZipf}
	case "http_miss":
		return readPosture{rate: r.sz.missRate, warm: r.sz.warmMiss}
	default: // disk_miss: the same stream as http_miss, by construction
		return readPosture{disk: true, rate: r.sz.diskRate, warm: r.sz.warmMiss}
	}
}

// runRead executes http_zipf, http_miss or disk_miss.
func (r *run) runRead() error {
	p := r.posture()
	c, ch, err := corpus(r.sz.papers)
	if err != nil {
		return err
	}
	d, err := r.loadOrGenerate(func() *dataset {
		if p.zipf {
			return zipfDataset(ch, r.workload, r.seed, r.sz.papers, r.sz.zipfPool, r.sz.zipfDraws, kHead)
		}
		return missDataset(ch, r.workload, r.seed, r.sz.papers, r.sz.missStream, kTail)
	})
	if err != nil {
		return err
	}
	r.rep.Provenance.Corpus = fmt.Sprintf("-seed %d -papers %d", corpusSeed, r.sz.papers)

	// Offline build: the snapshot the workload's server restarts from.
	// An untraced run times the real server doing it; a traced run
	// builds it in-process so every offline layer gets a span.
	snap := filepath.Join(r.tmp, "offline.snapshot")
	var oracle *inproc
	if r.trace {
		if oracle, err = r.tracedOfflineBuild(c, snap, p.disk); err != nil {
			return err
		}
	} else {
		saveFlag := "-snapshot-save"
		if p.disk {
			saveFlag = "-snapshot-save-paged"
		}
		fix, err := r.kids.spawn(r.bin, r.tmp, "fixture", append(corpusArgs(r.sz.papers), saveFlag, snap)...)
		if err != nil {
			return err
		}
		took, err := fix.waitReady(startTimeout)
		fix.stop()
		if err != nil {
			return err
		}
		r.rep.set("offline_build_s", took.Seconds())
		r.logf("offline build (fixture server, full warm + snapshot save): %.3f s", took.Seconds())
	}
	if st, err := os.Stat(snap); err != nil || st.Size() == 0 {
		return fmt.Errorf("offline build left no snapshot at %s", snap)
	}

	// Set-up, several times over; the last server stays up.
	args := append(corpusArgs(r.sz.papers), "-snapshot-load", snap)
	loadedMark := "offline: snapshot v1"
	if p.disk {
		args = append(args, "-disk-mode", "-table-mem-budget", strconv.Itoa(diskBudgetMiB))
		loadedMark = "disk mode:"
	}
	var srv *child
	var tgt *target
	var setups, readies []float64
	offset := 0
	for i := 0; i < r.setupCount(); i++ {
		if srv != nil {
			srv.stop()
		}
		if srv, err = r.kids.spawn(r.bin, r.tmp, fmt.Sprintf("server%d", i), args...); err != nil {
			return err
		}
		ready, err := srv.waitReady(startTimeout)
		if err != nil {
			return err
		}
		readies = append(readies, ready.Seconds())
		tgt = newTarget(srv.addr, d, true)
		offset = r.warmUp(tgt, d, p.warm)
		setups = append(setups, time.Since(srv.spawned).Seconds())
	}
	defer srv.stop()
	r.rep.set("setup_s", median(setups))
	// No follower here. The contract wants every end-to-end metric from
	// every workload, so this one carries a placeholder of like kind: how
	// long new data (the snapshot) takes to become answerable, spawn →
	// ready, which setup_s already contains.
	r.rep.set("follower_visible_s", median(readies))
	r.logf("set-up ×%d (spawn → ready → %d warm-up requests): median %.3f s", len(setups), p.warm, median(setups))
	r.noteServerProcs(srv)
	// The load path falls back to live compute silently, so a server
	// that did not restore the snapshot must fail the run here.
	r.rep.check("snapshot restored by the server ("+loadedMark+")", srv.stdoutContains(loadedMark))

	m0, err := srv.metrics()
	if err != nil {
		return err
	}
	cpu0, self0, t0 := srv.cpuSeconds(), selfCPUSeconds(), time.Now()
	clk := wallClock{}
	rss := srv.sampleRSS(r.window())
	send, closeConns := datasetSender(tgt, d, offset, 2)
	closed, used := runClosed(clk, send, 2, r.phaseLen(), r.window())
	closeConns()
	offset += used
	r.rep.addPhase("closed loop, 2 clients", closed)
	ws := closed.full(r.sz.windows)
	if len(ws) < r.sz.windows {
		return fmt.Errorf("closed loop finished %d of %d windows: the request stream ran dry; raise the stream size", len(ws), r.sz.windows)
	}
	r.rep.set("throughput_rps", windowMedian(ws, func(w *windowStats) float64 { return float64(w.ok) })/r.window().Seconds())

	send, closeConns = datasetSender(tgt, d, offset, 2)
	open, _ := runOpen(clk, send, openParams{rate: p.rate, dur: r.phaseLen(), window: r.window(), workers: 2})
	closeConns()
	r.rep.addPhase(fmt.Sprintf("open loop, %.0f req/s", p.rate), open)
	if len(open.windows) < r.sz.windows {
		return fmt.Errorf("open loop reached %d of %d windows: the request stream ran dry; raise the stream size", len(open.windows), r.sz.windows)
	}
	r.openLoopMetrics(open.full(r.sz.windows), open)
	r.rep.set("latency_p50_ms", r.rep.Metrics["client.latency_p50_ms"])
	r.rep.set("client.cpu_share", (selfCPUSeconds()-self0)/(time.Since(t0).Seconds()*float64(runtime.NumCPU())))

	m1, err := srv.metrics()
	if err != nil {
		return err
	}
	if err := r.memoryMetrics(srv, rss.stopSampling()); err != nil {
		return err
	}

	// Probe sets: fetched over HTTP now, judged against the in-process
	// engine once the server is gone.
	probes := r.buildProbes(ch, d)
	if err := fetchProbes(srv.addr, probes); err != nil {
		return err
	}
	r.serverCounters(srv, m0, m1, cpu0, closed.ok+open.ok, closed, open)
	srv.stop()

	if oracle == nil {
		// RAM tables even for disk_miss (a paged snapshot loads
		// sequentially too): answers equal to this engine's are equal
		// to http_miss' answers for the same probes.
		if oracle, err = openInproc(c, snap, false); err != nil {
			return err
		}
	}
	defer oracle.close()
	r.judgeProbes(oracle, c, probes)
	if r.trace {
		return r.tracedReplay(oracle, c, d, snap, p.disk, closed)
	}
	return nil
}

// memoryMetrics reports the server's memory under load. rss_peak_mb is
// the median of the resident-set samples taken once per window through
// the measured phases; the true peak, VmHWM when they end, is
// server.rss_hwm_mb: on http_zipf the collector's overshoot moves it
// between 205 and 310 MiB from run to run of one commit.
func (r *run) memoryMetrics(srv *child, samples []float64) error {
	if len(samples) == 0 {
		return fmt.Errorf("%s: no resident-set sample", srv.name)
	}
	hwm, err := srv.statusMiB("VmHWM")
	if err != nil {
		return err
	}
	r.rep.set("rss_peak_mb", median(samples))
	r.rep.set("server.rss_hwm_mb", hwm)
	return nil
}

func (r *run) setupCount() int {
	if r.trace {
		return 1 // a traced run reports no setup_s
	}
	return r.sz.setups
}

// openLoopMetrics derives the latency metrics and the generator's own
// sanity numbers from an open-loop phase.
func (r *run) openLoopMetrics(ws []windowStats, open *phaseStats) {
	r.rep.set("client.latency_p50_ms", nsToMS(windowMedian(ws, func(w *windowStats) float64 { return w.lat.Percentile(50) })))
	r.rep.set("client.latency_p99_ms", nsToMS(windowMedian(ws, func(w *windowStats) float64 { return w.lat.Percentile(99) })))
	pmax, pmaxNS := open.lat.PMax()
	r.rep.PMax = pmax
	r.rep.set("client.latency_pmax_ms", nsToMS(pmaxNS))
	r.rep.set("client.late_p99_ms", nsToMS(open.late.Percentile(99)))
	r.rep.set("client.slo_miss_share", float64(open.lat.Above(sloLimit))/float64(max(open.lat.Count(), 1)))
}

// sloLimit is the open-loop latency limit client.slo_miss_share counts
// against.
const sloLimit = 5 * time.Millisecond

// serverCounters turns the deltas of the server's own /api/metrics and
// the phases' totals into the count-type per-layer metrics. answered is
// how many of the phases' requests srv itself answered.
func (r *run) serverCounters(srv *child, m0, m1 serverMetrics, cpu0 float64, answered int, phases ...*phaseStats) {
	rep := r.rep
	var sent, ok, failed, shed int
	var bytes int64
	for _, p := range phases {
		sent, ok, failed, shed, bytes = sent+p.sent, ok+p.ok, failed+p.failed, shed+p.shed, bytes+p.bytes
	}
	rep.set("client.sent", float64(sent))
	rep.set("client.ok", float64(ok))
	rep.set("client.failed", float64(failed))
	rep.set("client.shed_503", float64(shed))
	rep.set("server.response_bytes_mean", ratio(float64(bytes), float64(ok)))

	e0, e1 := m0.Endpoints["reformulate"], m1.Endpoints["reformulate"]
	reqs := float64(e1.Requests - e0.Requests)
	// The counts below are read by field name: a renamed field would
	// decode as 0 and pass for a quiet layer.
	rep.check("the server's /api/metrics counted the requests it answered", reqs >= float64(answered))
	// Process CPU time is far steadier on a shared box than anything
	// timed by the wall clock; on churn it includes the promotions.
	rep.set("server.cpu_us_per_req", ratio((srv.cpuSeconds()-cpu0)*1e6, reqs))
	rep.set("serving.hit_ratio", ratio(float64(e1.Hits-e0.Hits), reqs))
	rep.set("serving.coalesced", float64(e1.Coalesced-e0.Coalesced))
	rep.set("serving.shed", float64(e1.Shed-e0.Shed))
	rep.set("serving.cache_bytes", float64(m1.CacheBytes))
	if m0.Mend != nil && m1.Mend != nil {
		engaged := float64(m1.Mend.Engaged - m0.Mend.Engaged)
		rep.set("mend.changed_share", ratio(float64(m1.Mend.Mended-m0.Mend.Mended), engaged))
		rep.set("mend.rejected_share", ratio(float64(m1.Mend.Rejected-m0.Mend.Rejected), engaged))
		rep.set("mend.index_bytes", float64(m1.Mend.IndexBytes))
	}
	if m0.Disk != nil && m1.Disk != nil {
		hits, misses := float64(m1.Disk.Hits-m0.Disk.Hits), float64(m1.Disk.Misses-m0.Disk.Misses)
		rep.check("the server's /api/metrics counted page reads", hits+misses > 0)
		rep.set("diskmode.page_hit_ratio", ratio(hits, hits+misses))
		rep.set("diskmode.faults_per_query", ratio(misses, float64(e1.Misses-e0.Misses)))
		rep.set("diskmode.evictions", float64(m1.Disk.Evictions-m0.Disk.Evictions))
		rep.set("diskmode.resident_bytes", float64(m1.Disk.ResidentBytes))
		rep.set("diskmode.corrupt_pages", float64(m1.Disk.CorruptPages))
		rep.check("no corrupt pages served", m1.Disk.CorruptPages == 0)
	}
	var gen struct {
		MendNS int64 `json:"mend_ns"`
	}
	if err := srv.getJSON("/api/admin/generation", &gen); err == nil {
		rep.set("mend.index_build_ms", float64(gen.MendNS)/1e6)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mutationSource adapts dblpgen's mutation batches to the CDC Source
// interface, releasing batches one promotion cycle at a time.
type mutationSource struct {
	m     *dblpgen.Mutator
	upTo  uint64
	count *atomic.Int64 // deltas handed to the feeder
}

func (s mutationSource) Batch(seq uint64) ([]live.Delta, bool, error) {
	if seq > s.upTo {
		return nil, false, nil
	}
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
	s.count.Add(int64(len(deltas)))
	return deltas, true, nil
}

// countingTransport counts the request-body bytes the CDC feeder puts
// on the wire.
type countingTransport struct{ bytes *atomic.Int64 }

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body = countingBody{req.Body, t.bytes}
	}
	return http.DefaultTransport.RoundTrip(req)
}

// stretches records the intervals during which something was going on,
// for a reader on another goroutine to test instants against.
type stretches struct {
	mu    sync.Mutex
	spans [][2]time.Time // an open stretch has a zero end
}

func (s *stretches) begin() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans = append(s.spans, [2]time.Time{time.Now()})
}

func (s *stretches) end() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans[len(s.spans)-1][1] = time.Now()
}

// covers reports whether t lies in a stretch begun so far.
func (s *stretches) covers(t time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sp := range s.spans {
		if !t.Before(sp[0]) && (sp[1].IsZero() || t.Before(sp[1])) {
			return true
		}
	}
	return false
}

// promoteReport is the part of POST /api/admin/promote the benchmark
// reads: live.Provenance's phases.
type promoteReport struct {
	Epoch         uint64 `json:"epoch"`
	Mode          string `json:"mode"`
	AffectedTerms int    `json:"affected_terms"`
	TotalTerms    int    `json:"total_terms"`
	CarriedSim    int    `json:"carried_sim"`
	ApplyNS       int64  `json:"apply_deltas_ns"`
	BuildGraphNS  int64  `json:"build_graph_ns"`
	CarryOverNS   int64  `json:"carry_over_ns"`
	PrecomputeNS  int64  `json:"precompute_ns"`
	PackNS        int64  `json:"pack_ns"`
	MendNS        int64  `json:"mend_ns"`
	TotalNS       int64  `json:"total_ns"`
}

// runChurn executes the churn workload: promotion cycles on a
// leader+follower pair while both serve head-style reads.
func (r *run) runChurn() error {
	sz := r.sz
	c, ch, err := corpus(sz.churnPapers)
	if err != nil {
		return err
	}
	d, err := r.loadOrGenerate(func() *dataset {
		return zipfDataset(ch, r.workload, r.seed, sz.churnPapers, sz.churnPool, sz.zipfDraws/10, kHead)
	})
	if err != nil {
		return err
	}
	r.rep.Provenance.Corpus = fmt.Sprintf("-seed %d -papers %d", corpusSeed, sz.churnPapers)
	mut, err := dblpgen.NewMutator(c, dblpgen.MutatorConfig{Batches: uint64(sz.churnMax), BatchSize: 25})
	if err != nil {
		return err
	}

	var oracle *inproc
	if r.trace {
		// The leader's cold build, replayed in-process for its spans.
		if oracle, err = r.tracedOfflineBuild(c, "", false); err != nil {
			return err
		}
	}

	// Set-up: leader (full warm) then follower (bootstrap from it).
	var leader, follower *child
	var lt, ft *target
	var setups, builds, boots []float64
	stopPair := func() {
		if follower != nil {
			follower.stop()
		}
		if leader != nil {
			leader.stop()
		}
	}
	defer func() { stopPair() }()
	for i := 0; i < r.setupCount(); i++ {
		stopPair()
		replDir := filepath.Join(r.tmp, fmt.Sprintf("repl%d", i))
		leader, err = r.kids.spawn(r.bin, r.tmp, fmt.Sprintf("leader%d", i),
			append(corpusArgs(sz.churnPapers), "-live", "-cdc", "-warm", "-repl-dir", replDir)...)
		if err != nil {
			return err
		}
		built, err := leader.waitReady(startTimeout)
		if err != nil {
			return err
		}
		follower, err = r.kids.spawn(r.bin, r.tmp, fmt.Sprintf("follower%d", i), "-follow", leader.url(""))
		if err != nil {
			return err
		}
		boot, err := follower.waitReady(startTimeout)
		if err != nil {
			return err
		}
		lt, ft = newTarget(leader.addr, d, false), newTarget(follower.addr, d, false)
		r.warmUp(lt, d, sz.warmMiss)
		r.warmUp(ft, d, sz.warmMiss)
		setups = append(setups, time.Since(leader.spawned).Seconds())
		builds = append(builds, built.Seconds())
		boots = append(boots, boot.Seconds())
	}
	r.rep.set("setup_s", median(setups))
	// On churn the offline build is the leader's own cold start: corpus,
	// graph and the full-vocabulary warm the snapshot workloads pay in
	// their fixture.
	r.rep.set("offline_build_s", median(builds))
	r.rep.set("repl.bootstrap_s", median(boots))
	r.logf("set-up ×%d (leader warm %.3f s + follower bootstrap %.3f s + warm-up): median %.3f s",
		len(setups), median(builds), median(boots), median(setups))
	r.noteServerProcs(leader)

	// Probe both replicas at epoch 1, before the corpus moves.
	probes := r.buildProbes(ch, d)
	if err := fetchProbes(leader.addr, probes); err != nil {
		return err
	}
	followerProbes := r.buildProbes(ch, d)
	if err := fetchProbes(follower.addr, followerProbes); err != nil {
		return err
	}
	same := 0
	for i := range probes {
		if probes[i].status == followerProbes[i].status && string(probes[i].body) == string(followerProbes[i].body) {
			same++
		}
	}
	r.rep.checkN("follower answers byte-identical to leader's at epoch 1", len(probes), len(probes)-same)

	lm0, err := leader.metrics()
	if err != nil {
		return err
	}
	cpu0, self0 := leader.cpuSeconds(), selfCPUSeconds()
	rss := leader.sampleRSS(time.Second / 2)
	// Reads: one connection per server, open loop, until the cycles end.
	// rebuilding[i] holds the stretches server i spends building a
	// generation, so that the reads due meanwhile can be told apart.
	stopReads := make(chan struct{})
	var rebuilding [2]stretches
	var readers sync.WaitGroup
	var perServer [2]*phaseStats // leader, follower
	for i, t := range []*target{lt, ft} {
		send, closeConns := datasetSender(t, d, sz.warmMiss+i*len(d.Order)/2, 1)
		readers.Add(1)
		go func() {
			defer readers.Done()
			defer closeConns()
			perServer[i], _ = runOpen(wallClock{}, send, openParams{rate: sz.churnRate, stop: stopReads,
				window: time.Second, workers: 1, busy: rebuilding[i].covers})
		}()
	}

	var staged, promoted, visible, catchup []float64
	var proms []promoteReport
	var wire, deltas atomic.Int64
	fingerprint := cdc.SchemaFingerprint(c.DB)
	lastEpoch := uint64(1)
	monotone, lockstep, fresh := true, true, true
	start := time.Now()
	cycles := 0
	for cycles < sz.churnMax && (cycles < sz.churnMin || time.Since(start).Seconds() < r.seconds) {
		cycles++
		seq := uint64(cycles)
		sp := r.tr.begin(cycles, "churn.cycle", -1)
		t0 := time.Now()
		// A new feeder per cycle: the receiver's per-source ack point
		// makes it resume at exactly this cycle's batch.
		feeder := cdc.NewFeeder(leader.url(""), cdc.FeederOptions{
			Source: "bench", Fingerprint: fingerprint,
			Client: &http.Client{Transport: countingTransport{&wire}},
		})
		s1 := r.tr.begin(cycles, "cdc.stage", sp)
		if err := feeder.Run(context.Background(), mutationSource{m: mut, upTo: seq, count: &deltas}); err != nil {
			return fmt.Errorf("cdc feed, cycle %d: %w", cycles, err)
		}
		r.tr.end(s1)
		tStaged := time.Now()
		var pr promoteReport
		rebuilding[0].begin()
		s2 := r.tr.begin(cycles, "live.promote", sp)
		if err := leader.doJSON(http.MethodPost, "/api/admin/promote", &pr); err != nil {
			return fmt.Errorf("promote, cycle %d: %w", cycles, err)
		}
		r.tr.end(s2)
		rebuilding[0].end()
		rebuilding[1].begin() // the follower starts on the log entry
		tPromoted := time.Now()
		s3 := r.tr.begin(cycles, "repl.catchup", sp)
		term := mut.FreshTerm(seq)
		seen, err := waitForTerm(follower, term, 60*time.Second)
		rebuilding[1].end()
		r.tr.end(s3)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		staged = append(staged, tStaged.Sub(t0).Seconds())
		promoted = append(promoted, tPromoted.Sub(tStaged).Seconds())
		visible = append(visible, seen.Sub(t0).Seconds())
		catchup = append(catchup, seen.Sub(tPromoted).Seconds())
		proms = append(proms, pr)

		if _, err := waitForTerm(leader, term, time.Second); err != nil {
			fresh = false
		}
		var fr struct {
			Epoch uint64 `json:"epoch"`
		}
		if err := follower.getJSON("/readyz", &fr); err != nil || fr.Epoch != pr.Epoch {
			lockstep = false
		}
		if pr.Epoch != lastEpoch+1 {
			monotone = false
		}
		lastEpoch = pr.Epoch
	}
	close(stopReads)
	readers.Wait()
	elapsed := time.Since(start)
	reads := newPhaseStats(time.Second)
	reads.merge(perServer[0])
	reads.merge(perServer[1])
	r.rep.Provenance.Cycles = cycles
	r.rep.addPhase(fmt.Sprintf("open loop beside %d promotion cycles, %.0f req/s × 2 servers", cycles, sz.churnRate), reads)
	r.rep.check("fresh term answers 200 on the leader after every promotion", fresh)
	r.rep.check("leader epochs advance by exactly one per promotion", monotone)
	r.rep.check("follower epoch equals leader epoch after every cycle", lockstep)

	// Windows that lie wholly inside the cycles.
	r.openLoopMetrics(reads.full(int(elapsed/time.Second)), reads)
	// The reads arrive on a schedule, so their throughput is pinned to the
	// offered rate unless a server falls behind for good: a placeholder.
	r.rep.set("throughput_rps", float64(reads.ok)/elapsed.Seconds())
	// Half the reads meet a rebuild on their own server and wait tens to
	// hundreds of milliseconds for a processor, a different amount every
	// run (35–50 % interquartile over ten runs, whatever the estimator),
	// so the median of all reads sits on the edge between two modes. The
	// bounded metric is the median of the other half; the rebuild half is
	// printed as client.rebuild_read_p50_ms.
	r.rep.set("latency_p50_ms", nsToMS(reads.split[0].Percentile(50)))
	r.rep.set("client.rebuild_read_p50_ms", nsToMS(reads.split[1].Percentile(50)))
	r.rep.set("client.cpu_share", (selfCPUSeconds()-self0)/(elapsed.Seconds()*float64(runtime.NumCPU())))
	r.rep.set("promote_s", median(promoted))
	r.rep.set("follower_visible_s", median(visible))
	r.logf("%d cycles: stage %.1f ms, promote %.3f s, follower visible %.3f s (medians)",
		cycles, median(staged)*1e3, median(promoted), median(visible))

	lm1, err := leader.metrics()
	if err != nil {
		return err
	}
	if err := r.memoryMetrics(leader, rss.stopSampling()); err != nil {
		return err
	}
	r.serverCounters(leader, lm0, lm1, cpu0, perServer[0].ok, reads)

	r.promotionMetrics(proms)
	r.rep.set("repl.catchup_s", median(catchup))
	if a, b := lm0.Replication, lm1.Replication; a != nil && b != nil && a.Leader != nil && b.Leader != nil {
		r.rep.set("repl.log_bytes_per_promotion", float64(b.Leader.LogBytes-a.Leader.LogBytes)/float64(cycles))
	}
	r.rep.set("cdc.stage_ms_p50", median(staged)*1e3)
	r.rep.set("cdc.bytes_per_delta", ratio(float64(wire.Load()), float64(deltas.Load())))
	if lm1.CDC != nil {
		r.rep.set("cdc.throttle_wait_s", float64(lm1.CDC.ThrottleWaitNS)/1e9)
		r.rep.check("CDC staged every batch exactly once",
			lm1.CDC.Batches == int64(cycles) && lm1.CDC.Duplicates == 0)
	}
	stopPair()
	leader, follower = nil, nil

	if oracle == nil {
		if oracle, err = openInproc(c, "", false); err != nil {
			return err
		}
	}
	defer oracle.close()
	r.judgeProbes(oracle, c, probes)
	if r.trace {
		return r.tracedReplay(oracle, c, d, "", false, reads)
	}
	return nil
}

// promotionMetrics averages the phases live.Provenance reported for
// each promotion into the live.* metrics.
func (r *run) promotionMetrics(proms []promoteReport) {
	n := float64(len(proms))
	var total, apply, graph, carry, pre, pack, mnd, affected, carried, full float64
	for _, p := range proms {
		total += float64(p.TotalNS)
		apply += float64(p.ApplyNS)
		graph += float64(p.BuildGraphNS)
		carry += float64(p.CarryOverNS)
		pre += float64(p.PrecomputeNS)
		pack += float64(p.PackNS)
		mnd += float64(p.MendNS)
		affected += ratio(float64(p.AffectedTerms), float64(p.TotalTerms))
		carried += ratio(float64(p.CarriedSim), float64(p.TotalTerms))
		if p.Mode == "full" {
			full++
		}
	}
	r.rep.set("live.promote_total_s", total/n/1e9)
	r.rep.set("live.apply_ms", apply/n/1e6)
	r.rep.set("live.build_graph_ms", graph/n/1e6)
	r.rep.set("live.carry_over_ms", carry/n/1e6)
	r.rep.set("live.precompute_s", pre/n/1e9)
	r.rep.set("live.pack_ms", pack/n/1e6)
	r.rep.set("live.mend_ms", mnd/n/1e6)
	r.rep.set("live.affected_share", affected/n)
	r.rep.set("live.carried_share", carried/n)
	r.rep.set("live.full_mode_share", full/n)
}

// waitForTerm polls /api/similar until term resolves on s (it answers
// 400 "not in vocabulary" until the generation holding it is serving)
// and returns when it first did.
func waitForTerm(s *child, term string, timeout time.Duration) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	c := &conn{addr: s.addr}
	defer c.close()
	raw := rawGet("/api/similar?term=" + term + "&k=1")
	for {
		status, _, err := c.get(raw)
		now := time.Now()
		if err == nil && status == http.StatusOK {
			return now, nil
		}
		if now.After(deadline) {
			return now, fmt.Errorf("%s: term %q not visible after %v (status %d, err %v)", s.name, term, timeout, status, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
