package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"

	"kqr"
	"kqr/internal/dblpgen"
	"kqr/internal/eval"
)

// Correctness: every measured response is checked cheaply as it arrives
// (load.go); here three probe sets are fetched over HTTP and compared,
// value for value, with what an engine opened inside the benchmark
// process answers. The same fetches yield the two quality metrics.

// probe is one verified request.
type probe struct {
	q      string
	k      int
	clean  string // for a faulted probe: the query it was derived from
	kind   string // "quality", "mend" or "traffic"
	status int
	body   []byte
}

// buildProbes assembles the probe sets: a fixed set of clean head-style
// queries (quality_p5), the same number of fixed faulted ones
// (mend_recovery_share) and the first requests of the run's own
// dataset, so the workload's request shape is verified too.
func (r *run) buildProbes(ch *chain, d *dataset) []*probe {
	n := r.sz.probes
	var out []*probe
	clean := ch.distinctQueries(probeRNG(0), n, 2, 3, kHead)
	for _, q := range clean {
		out = append(out, &probe{q: q.Q, k: kHead, kind: "quality"})
	}
	faultBase := ch.distinctQueries(probeRNG(1), n, 2, 3, kHead)
	for _, f := range ch.faultedVariants(probeRNG(2), faultBase) {
		if f.Fault != "" {
			out = append(out, &probe{q: f.Q, k: kHead, clean: f.Clean, kind: "mend"})
		}
	}
	for i := 0; i < n && i < len(d.Pool); i++ {
		out = append(out, &probe{q: d.Pool[i].Q, k: d.K, kind: "traffic"})
	}
	return out
}

// fetchProbes sends every probe over one connection and keeps the
// answers.
func fetchProbes(addr string, probes []*probe) error {
	c := &conn{addr: addr}
	defer c.close()
	for _, p := range probes {
		status, body, err := c.get(rawGet(reformulatePath(p.q, p.k)))
		if err != nil {
			return fmt.Errorf("probe %q: %w", p.q, err)
		}
		p.status, p.body = status, append([]byte(nil), body...)
	}
	return nil
}

// inproc is an engine opened inside the benchmark process over the
// same corpus as the server under test.
type inproc struct {
	eng *kqr.Engine
}

// openInproc opens an engine with the server's options. snapshot, when
// non-empty, restores the offline tables from that file — into RAM, or
// served from disk under the disk_miss budget when disk is set.
func openInproc(c *dblpgen.Corpus, snapshot string, disk bool) (*inproc, error) {
	opts := kqr.Options{Mend: true, ArtifactPath: snapshot}
	if disk {
		opts.DiskMode, opts.TableMemBudget = true, diskBudgetMiB<<20
	}
	eng, err := kqr.Open(kqr.WrapDatabase(c.DB), opts)
	if err != nil {
		return nil, err
	}
	if snapshot != "" && !eng.Artifact().Loaded {
		eng.Close()
		return nil, fmt.Errorf("in-process engine did not restore %s: %s", snapshot, eng.Artifact().FallbackReason)
	}
	return &inproc{eng: eng}, nil
}

func (o *inproc) close() { o.eng.Close() }

// reformulateBody mirrors the JSON of /api/reformulate.
type reformulateBody struct {
	Query          []string `json:"query"`
	CorrectedQuery string   `json:"corrected_query"`
	Suggestions    []struct {
		Terms []string `json:"terms"`
		Score float64  `json:"score"`
	} `json:"suggestions"`
}

// matches reports whether the HTTP answer of p equals the in-process
// engine's: same parsed query, same repair, same suggestions in the
// same order with bit-equal scores. (JSON carries a float64 exactly, so
// equal values here mean equal bytes on the wire.)
func (o *inproc) matches(p *probe) (reformulateBody, bool) {
	var got reformulateBody
	if p.status != http.StatusOK || json.Unmarshal(p.body, &got) != nil {
		return got, false
	}
	terms, err := kqr.ParseQuery(p.q)
	if err != nil {
		return got, false
	}
	sugs, res, err := o.eng.ReformulateMended(terms, p.k)
	if err != nil || !equalStrings(got.Query, terms) || len(got.Suggestions) != len(sugs) {
		return got, false
	}
	wantCorrected := ""
	if res.Changed {
		wantCorrected = kqr.Suggestion{Terms: res.Terms}.String()
	}
	if got.CorrectedQuery != wantCorrected {
		return got, false
	}
	for i, s := range sugs {
		if got.Suggestions[i].Score != s.Score || !equalStrings(got.Suggestions[i].Terms, s.Terms) {
			return got, false
		}
	}
	return got, true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// judgeProbes compares every probe with the in-process engine and
// reads quality_p5 (precision@5 of the clean set under the planted
// ground truth) and mend_recovery_share (faulted probes whose
// corrected_query is the clean query) off the HTTP answers.
func (r *run) judgeProbes(o *inproc, c *dblpgen.Corpus, probes []*probe) {
	judge, err := eval.NewJudge(c.Truth)
	if err != nil {
		r.rep.check("ground-truth judge available", false)
		return
	}
	var wrong, quality, mends, recovered int
	var p5 float64
	for _, p := range probes {
		got, ok := o.matches(p)
		if !ok {
			wrong++
		}
		switch p.kind {
		case "quality":
			orig := strings.Fields(p.q)
			rels := make([]bool, 0, len(got.Suggestions))
			for _, s := range got.Suggestions {
				rels = append(rels, judge.QueryRelevant(orig, s.Terms))
			}
			p5 += eval.PrecisionAtN(rels, 5)
			quality++
		case "mend":
			mends++
			if got.CorrectedQuery == p.clean {
				recovered++
			}
		}
	}
	r.rep.checkN("HTTP answers equal the in-process engine's (RAM tables) on the probe sets", len(probes), wrong)
	r.rep.set("quality_p5", ratio(p5, float64(quality)))
	r.rep.set("mend_recovery_share", ratio(float64(recovered), float64(mends)))
}

// probeSeed fixes the probe sets: they are the yardstick the quality
// metrics are read off, so they must not move with -seed.
const probeSeed = 7

func probeRNG(salt int64) *rand.Rand { return rand.New(rand.NewSource(probeSeed + salt)) }
