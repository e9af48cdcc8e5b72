package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"kqr"
	"kqr/internal/dblpgen"
	"kqr/internal/graph"
	"kqr/internal/hmm"
	"kqr/internal/live"
	"kqr/internal/serving"
	"kqr/internal/tatgraph"
	"kqr/server"
)

// Per-layer attribution, taken from outside: a traced run opens an
// engine in the benchmark process in the server's posture, replays the
// head of the workload's request list against it and times the calls
// into each layer's public functions. This file is the only place the
// benchmark reaches below the HTTP API and the root package, so it is
// also the list of internal signatures the benchmark depends on.

// span is one timed call. Spans of one request share Req; Parent is the
// index of the span that caused this one (-1 for a root). A Replay span
// re-executes work that already ran inside its parent's interval — the
// only way to time a callee from outside — so it is subtracted from the
// parent's self time but does not lie inside it.
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Replay bool   `json:"replay,omitempty"`
	// N is the number of like calls a span batches (closeness lookups).
	N int `json:"n,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs and passes run the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) begin(req int, name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Req: req, Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// beginReplay opens a span marked as a re-execution of part of parent.
func (t *tracer) beginReplay(req int, name string, parent int) int {
	i := t.begin(req, name, parent)
	if i >= 0 {
		t.spans[i].Replay = true
	}
	return i
}

func (t *tracer) end(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	t.spans[i].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// dur is the length of span i.
func (t *tracer) dur(i int) time.Duration {
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error { return saveJSON(path, t.spans) }

// byName collects the durations of every span called name.
func (t *tracer) byName(name string) *hist {
	h := &hist{}
	for i := range t.spans {
		if t.spans[i].Name == name {
			h.Record(t.dur(i))
		}
	}
	return h
}

// simRower is the packed row read the decode path uses; both
// similarity extractors implement it beside live.SimTables.
type simRower interface {
	SimRow(graph.NodeID) ([]graph.NodeID, []float32, bool)
}

// generation returns the engine's serving generation.
func generation(eng *kqr.Engine) *live.Generation {
	mgr, _ := eng.Replication()
	return mgr.Current()
}

// tracedOfflineBuild runs the offline stage inside the benchmark
// process, one span per layer: TAT graph build, similarity precompute,
// closeness precompute, packing, and — when snap names a file — both
// snapshot saves and a load. The server under test then restarts from
// the file written here, and the warmed engine is returned as the
// oracle the probe sets are judged against.
func (r *run) tracedOfflineBuild(c *dblpgen.Corpus, snap string, disk bool) (*inproc, error) {
	tr, rep := r.tr, r.rep
	s := tr.begin(-1, "tatgraph.build", -1)
	if _, err := tatgraph.Build(c.DB, tatgraph.Options{}); err != nil {
		return nil, err
	}
	rep.set("tatgraph.build_ms", tr.end(s).Seconds()*1e3)

	s = tr.begin(-1, "kqr.open", -1)
	o, err := openInproc(c, "", false)
	if err != nil {
		return nil, err
	}
	tr.end(s)
	g := generation(o.eng)
	nodes := g.TG.TermNodeIDs()
	ctx := context.Background()

	s = tr.begin(-1, "randomwalk.precompute", -1)
	if err := g.Sim.Precompute(ctx, nodes); err != nil {
		return nil, err
	}
	d := tr.end(s).Seconds()
	rep.set("randomwalk.precompute_s", d)
	rep.set("randomwalk.terms_per_s", ratio(float64(len(nodes)), d))

	s = tr.begin(-1, "closeness.precompute", -1)
	if err := g.Clos.Precompute(ctx, nodes); err != nil {
		return nil, err
	}
	d = tr.end(s).Seconds()
	rep.set("closeness.precompute_s", d)
	rep.set("closeness.terms_per_s", ratio(float64(len(nodes)), d))

	s = tr.begin(-1, "packed.build", -1)
	g.Sim.Pack()
	g.Clos.Pack()
	rep.set("packed.build_ms", tr.end(s).Seconds()*1e3)

	// Size of the packed tables: one u32 node and one f32 score per
	// entry of every similarity and closeness row.
	entries := 0
	rows := g.Sim.(simRower)
	for _, v := range nodes {
		ns, _, _ := rows.SimRow(v)
		entries += len(ns) + len(g.Clos.From(v))
	}
	rep.set("packed.table_bytes", float64(entries*8))
	if snap == "" {
		return o, nil
	}

	v1, paged := snap, snap+".paged"
	if disk {
		v1, paged = snap+".v1", snap
	}
	s = tr.begin(-1, "artifact.save", -1)
	if err := o.eng.SaveArtifacts(v1); err != nil {
		return nil, err
	}
	rep.set("artifact.save_s", tr.end(s).Seconds())
	s = tr.begin(-1, "artifact.save_paged", -1)
	if err := o.eng.SaveArtifactsPaged(paged); err != nil {
		return nil, err
	}
	rep.set("artifact.save_paged_s", tr.end(s).Seconds())
	s = tr.begin(-1, "artifact.load", -1)
	if err := o.eng.LoadArtifacts(v1); err != nil {
		return nil, err
	}
	rep.set("artifact.load_s", tr.end(s).Seconds())
	for name, path := range map[string]string{"artifact.file_bytes": v1, "artifact.paged_file_bytes": paged} {
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		rep.set(name, float64(st.Size()))
	}
	r.logf("offline build (in-process, traced): walk %.2f s, closeness %.2f s",
		rep.Metrics["randomwalk.precompute_s"], rep.Metrics["closeness.precompute_s"])
	return o, nil
}

// bodyWriter is the least http.ResponseWriter a handler needs.
type bodyWriter struct {
	h    http.Header
	body bytes.Buffer
	code int
}

func (w *bodyWriter) Header() http.Header         { return w.h }
func (w *bodyWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *bodyWriter) WriteHeader(code int)        { w.code = code }

// Production serving posture of kqr-server's flag defaults.
const (
	serverCacheBytes = 64 << 20
	serverCacheTTL   = 5 * time.Minute
)

// newHandler builds kqr-server's handler stack around eng, request log
// to a file as the spawned server's goes to one.
func (r *run) newHandler(eng *kqr.Engine, logName string) (http.Handler, func(), error) {
	f, err := os.Create(filepath.Join(r.tmp, logName))
	if err != nil {
		return nil, nil, err
	}
	srv, err := server.New(eng,
		server.WithCache(serverCacheBytes, serverCacheTTL),
		server.WithLogger(log.New(f, "", log.LstdFlags)))
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return srv.Handler(), func() { f.Close() }, nil
}

// replayUntraced serves reqs through h and returns the time spent
// inside the handler.
func replayUntraced(h http.Handler, reqs []*http.Request) time.Duration {
	w := &bodyWriter{h: http.Header{}}
	var total time.Duration
	for _, req := range reqs {
		w.body.Reset()
		t0 := time.Now()
		h.ServeHTTP(w, req)
		total += time.Since(t0)
	}
	return total
}

// tracedReplay produces the time-type per-layer metrics. httpPhase is
// the phase of the HTTP run whose client-side median the in-process
// handler time is subtracted from to get the HTTP shell's cost.
func (r *run) tracedReplay(oracle *inproc, c *dblpgen.Corpus, d *dataset, snap string, disk bool, httpPhase *phaseStats) error {
	tr, rep := r.tr, r.rep
	eng := oracle.eng
	if disk {
		// What attaching the paged tables costs: a disk-mode Open less
		// a plain one, back to back so both find the same warm caches.
		t0 := time.Now()
		plain, err := openInproc(c, "", false)
		if err != nil {
			return err
		}
		plainOpen := time.Since(t0)
		plain.close()
		t0 = time.Now()
		onDisk, err := openInproc(c, snap, true)
		if err != nil {
			return err
		}
		defer onDisk.close()
		rep.set("diskmode.open_ms", max(0, time.Since(t0)-plainOpen).Seconds()*1e3)
		eng = onDisk.eng
	}
	n := r.sz.replay
	reqs := make([]*http.Request, 0, n)
	queries := make([]string, 0, n)
	for i := 0; i < n; i++ {
		idx, ok := d.at(i)
		if !ok {
			break
		}
		req, err := http.NewRequest(http.MethodGet, reformulatePath(d.Pool[idx].Q, d.K), nil)
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
		queries = append(queries, d.Pool[idx].Q)
	}

	// An untraced pass and a traced one, each on a fresh handler and so
	// a cold response cache: their ratio is the tracing overhead. A first
	// untraced pass is thrown away so both find warm tables and pools.
	var untraced time.Duration
	for range 2 {
		h, closeLog, err := r.newHandler(eng, "replay-untraced.log")
		if err != nil {
			return err
		}
		untraced = replayUntraced(h, reqs)
		closeLog()
	}
	h, closeLog, err := r.newHandler(eng, "replay-traced.log")
	if err != nil {
		return err
	}
	defer closeLog()

	g := generation(eng)
	rows := g.Sim.(simRower)
	nCand := g.Core.Options().CandidatesPerTerm
	cache := serving.NewCache(serverCacheBytes, serverCacheTTL)
	dec := hmm.GetDecoder()
	defer hmm.PutDecoder(dec)
	w := &bodyWriter{h: http.Header{}}
	kOpt := "k=" + strconv.Itoa(d.K)
	var traced time.Duration
	var serverSelf, coreSelf hist
	var misses, states, expanded, lookups int
	for i, req := range reqs {
		w.body.Reset()
		root := tr.begin(i, "server.handler", -1)
		h.ServeHTTP(w, req)
		handler := tr.end(root)
		traced += handler

		// Everything below re-executes, call by call, what the handler
		// just did, to time each layer where the handler enters it.
		s := tr.beginReplay(i, "server.parse", root)
		terms, err := kqr.ParseQuery(queries[i])
		tr.end(s)
		if err != nil {
			return fmt.Errorf("replay: %q: %w", queries[i], err)
		}
		s = tr.beginReplay(i, "mend.mend", root)
		res, err := eng.Mend(terms)
		mendTime := tr.end(s)
		if err != nil {
			return err
		}
		s = tr.beginReplay(i, "serving.key", root)
		key := serving.EpochKey(eng.Epoch(), "reformulate", terms, kOpt, "mendmode=auto", "mend="+strings.Join(res.Terms, "\x1f"))
		tr.end(s)
		s = tr.beginReplay(i, "serving.cache_get", root)
		_, hit := cache.Get(key)
		tr.end(s)
		engineTime := mendTime
		if !hit {
			misses++
			ref := tr.beginReplay(i, "core.reformulate", root)
			if _, err := eng.Reformulate(res.Terms, d.K); err != nil {
				return fmt.Errorf("replay: %q: %w", queries[i], err)
			}
			reformulate := tr.end(ref)
			engineTime += reformulate

			// The table reads and the decode inside Reformulate.
			var inner time.Duration
			cands := make([][]graph.NodeID, len(res.Terms))
			for j, t := range res.Terms {
				s = tr.beginReplay(i, "core.resolve", ref)
				node, err := g.Core.ResolveTerm(t)
				tr.end(s)
				if err != nil {
					return err
				}
				s = tr.beginReplay(i, "packed.sim_row", ref)
				ns, _, _ := rows.SimRow(node)
				inner += tr.end(s)
				cands[j] = append(cands[j], node)
				for _, v := range ns[:min(nCand, len(ns))] {
					if v != node {
						cands[j] = append(cands[j], v)
					}
				}
			}
			lookups += len(cands)
			for j := 1; j < len(cands); j++ {
				s = tr.beginReplay(i, "packed.clos_lookup", ref)
				for _, a := range cands[j-1] {
					for _, b := range cands[j] {
						g.Clos.Clos(a, b)
					}
				}
				inner += tr.end(s)
				if s >= 0 {
					tr.spans[s].N = len(cands[j-1]) * len(cands[j])
				}
				lookups += len(cands[j-1]) * len(cands[j])
			}
			s = tr.beginReplay(i, "core.build_model", ref)
			model, err := g.Core.BuildQueryModel(res.Terms)
			tr.end(s)
			if err != nil {
				return err
			}
			for _, col := range model.Emit {
				states += len(col)
			}
			s = tr.beginReplay(i, "hmm.topk", ref)
			_, stats, err := dec.TopKAStar(model, d.K+len(res.Terms)+2)
			inner += tr.end(s)
			if err != nil {
				return err
			}
			expanded += stats.Expanded
			coreSelf.Record(reformulate - inner)

			s = tr.beginReplay(i, "serving.cache_put", root)
			cache.Put(key, append([]byte(nil), w.body.Bytes()...))
			tr.end(s)
		}
		serverSelf.Record(handler - engineTime)
	}

	rep.set("trace.overhead_share", ratio(float64(traced-untraced), float64(untraced)))
	handlerH := tr.byName("server.handler")
	rep.set("server.handler_us_p50", nsToUS(handlerH.Percentile(50)))
	rep.set("server.self_us_p50", nsToUS(serverSelf.Percentile(50)))
	rep.set("server.http_overhead_us_p50", nsToUS(httpPhase.lat.Percentile(50)-handlerH.Percentile(50)))
	rep.set("serving.key_ns_p50", tr.byName("serving.key").Percentile(50))
	rep.set("serving.cache_get_ns_p50", tr.byName("serving.cache_get").Percentile(50))
	rep.set("serving.cache_put_ns_p50", tr.byName("serving.cache_put").Percentile(50))
	mendH := tr.byName("mend.mend")
	rep.set("mend.mend_us_p50", nsToUS(mendH.Percentile(50)))
	rep.set("mend.mend_us_p99", nsToUS(mendH.Percentile(99)))
	refH := tr.byName("core.reformulate")
	rep.set("core.reformulate_us_p50", nsToUS(refH.Percentile(50)))
	rep.set("core.reformulate_us_p99", nsToUS(refH.Percentile(99)))
	rep.set("core.self_us_p50", nsToUS(coreSelf.Percentile(50)))
	rep.set("hmm.topk_us_p50", nsToUS(tr.byName("hmm.topk").Percentile(50)))
	rep.set("hmm.states_per_query", ratio(float64(states), float64(misses)))
	rep.set("hmm.astar_expanded_mean", ratio(float64(expanded), float64(misses)))
	rowH := tr.byName("packed.sim_row")
	rep.set("packed.sim_row_ns_p50", rowH.Percentile(50))
	rep.set("packed.lookups_per_query", ratio(float64(lookups), float64(misses)))
	// A closeness span batches one slot pair's lookups; its per-lookup
	// time is the span divided by the batch.
	var closH hist
	for i := range tr.spans {
		if sp := &tr.spans[i]; sp.Name == "packed.clos_lookup" && sp.N > 0 {
			closH.Record(tr.dur(i) / time.Duration(sp.N))
		}
	}
	rep.set("packed.clos_lookup_ns_p50", closH.Percentile(50))
	if disk {
		// The same row reads, seen as the page cache's latency.
		rep.set("diskmode.row_us_p50", nsToUS(rowH.Percentile(50)))
		rep.set("diskmode.row_us_p99", nsToUS(rowH.Percentile(99)))
	}

	// Allocations per engine call, mending kept outside the count.
	var mended [][]string
	for _, q := range queries[:min(len(queries), 200)] {
		if res, err := eng.Mend(strings.Fields(q)); err == nil && len(res.Terms) > 0 {
			mended = append(mended, res.Terms)
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, terms := range mended {
		if _, err := eng.Reformulate(terms, d.K); err != nil {
			return fmt.Errorf("replay: %v: %w", terms, err)
		}
	}
	runtime.ReadMemStats(&ms1)
	rep.set("core.allocs_per_op", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(len(mended))))

	path := filepath.Join(r.outDir, fmt.Sprintf("trace-%s.json", r.workload))
	if err := tr.write(path); err != nil {
		return err
	}
	r.logf("replayed %d requests in-process (%d misses); %d spans → %s", len(reqs), misses, len(tr.spans), path)
	return nil
}
