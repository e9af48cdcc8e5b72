// Zero-alloc decode hot-path experiment (ISSUE 7): measures the pooled
// DecodePaths against the allocating reference implementation (a fresh
// slot set and model per query, the *Ref decoders) — allocations and
// bytes per decode, and the latency distribution (p50/p99) — after
// verifying that every decoded path matches the reference decoder
// state-for-state and score-for-score. Both read the same packed
// tables: there is no second table form left to compare against.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"kqr/internal/dblpgen"
	"kqr/internal/graph"
	"kqr/internal/hmm"
)

// HotpathConfig shapes one hot-path run.
type HotpathConfig struct {
	// Queries is how many resolvable queries to measure (default 24,
	// mixed lengths 2 and 3).
	Queries int
	// Reps is how many times the measured sweep repeats; per-query
	// latencies accumulate across reps (default 60).
	Reps int
	// K is the top-k fetched per decode (default 10).
	K int
	// Seed drives query sampling.
	Seed int64
	// Strict fails the run if the warmed fast path allocates — the CI
	// regression gate for the zero-alloc invariant.
	Strict bool
}

func (c HotpathConfig) withDefaults() HotpathConfig {
	if c.Queries <= 0 {
		c.Queries = 24
	}
	if c.Reps <= 0 {
		c.Reps = 60
	}
	if c.K <= 0 {
		c.K = 10
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c
}

// HotpathVariant is one measured decode implementation.
type HotpathVariant struct {
	Name        string        `json:"name"`
	AllocsPerOp float64       `json:"allocs_per_op"`
	BytesPerOp  float64       `json:"bytes_per_op"`
	P50         time.Duration `json:"p50_ns"`
	P99         time.Duration `json:"p99_ns"`
	Mean        time.Duration `json:"mean_ns"`
	Ops         int           `json:"ops"`
}

// HotpathRow is the result of one hot-path run.
type HotpathRow struct {
	VocabTerms int `json:"vocab_terms"`
	Queries    int `json:"queries"`
	K          int `json:"k"`
	// PathsCompared counts decoded paths verified bit-identical between
	// the fast and reference decoders (the run errors on any mismatch).
	PathsCompared int            `json:"paths_compared"`
	Fast          HotpathVariant `json:"fast"`
	Ref           HotpathVariant `json:"ref"`
	// SpeedupP99 is Ref.P99 / Fast.P99.
	SpeedupP99 float64 `json:"speedup_p99"`
}

// Hotpath warms and packs the offline tables, proves the flat decoder
// bit-identical to the reference path, then measures both decode
// implementations.
func (s *Setup) Hotpath(cfg HotpathConfig) (HotpathRow, error) {
	cfg = cfg.withDefaults()
	row := HotpathRow{K: cfg.K}

	terms := s.TG.TermNodeIDs()
	row.VocabTerms = len(terms)
	ctx := context.Background()
	if err := s.SimCtx.Precompute(ctx, terms); err != nil {
		return row, fmt.Errorf("warming similarity: %w", err)
	}
	if err := s.Clos.Precompute(ctx, terms); err != nil {
		return row, fmt.Errorf("warming closeness: %w", err)
	}
	s.SimCtx.Pack()
	s.Clos.Pack()

	queries, err := s.sampleHotpathQueries(cfg)
	if err != nil {
		return row, err
	}
	row.Queries = len(queries)

	// Fast decoder must match the reference decoder path-for-path.
	for _, q := range queries {
		n, err := compareDecodes(s, q, cfg.K)
		if err != nil {
			return row, err
		}
		row.PathsCompared += n
	}

	fast := func(q []graph.NodeID, visit func(hmm.Path) bool) error {
		return s.TAT.DecodePaths(q, cfg.K, visit)
	}
	ref := func(q []graph.NodeID, visit func(hmm.Path) bool) error {
		return s.TAT.DecodePathsRef(q, cfg.K, visit)
	}
	// Measure the fast path twice and keep the cleaner run: a GC during
	// measurement may drop pooled scratch, charging warm-up allocations
	// to one run.
	a, err := measureDecode("packed+pooled", queries, cfg.Reps, fast)
	if err != nil {
		return row, err
	}
	b, err := measureDecode("packed+pooled", queries, cfg.Reps, fast)
	if err != nil {
		return row, err
	}
	row.Fast = a
	if b.AllocsPerOp < a.AllocsPerOp {
		row.Fast = b
	}
	if row.Ref, err = measureDecode("allocating-ref", queries, cfg.Reps, ref); err != nil {
		return row, err
	}
	if row.Fast.P99 > 0 {
		row.SpeedupP99 = float64(row.Ref.P99) / float64(row.Fast.P99)
	}
	if cfg.Strict && row.Fast.AllocsPerOp > 0.5 {
		return row, fmt.Errorf("warmed fast path allocates %.2f times per decode, want 0",
			row.Fast.AllocsPerOp)
	}
	return row, nil
}

// sampleHotpathQueries draws the measured workload (half 2-term, half
// 3-term queries) resolved to term nodes.
func (s *Setup) sampleHotpathQueries(cfg HotpathConfig) ([][]graph.NodeID, error) {
	var sampled [][]string
	for i, length := range []int{2, 3} {
		n := cfg.Queries / 2
		if i == 1 {
			n = cfg.Queries - n
		}
		if n == 0 {
			continue
		}
		qs, err := s.SampleQueries(n, length, cfg.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		sampled = append(sampled, qs...)
	}
	out := make([][]graph.NodeID, len(sampled))
	for i, q := range sampled {
		nodes := make([]graph.NodeID, len(q))
		for j, term := range q {
			v, err := s.TAT.ResolveTerm(term)
			if err != nil {
				return nil, err
			}
			nodes[j] = v
		}
		out[i] = nodes
	}
	return out, nil
}

// compareDecodes runs both decoders on one query and errors unless the
// visited paths are bit-identical; it returns how many paths it
// compared.
func compareDecodes(s *Setup, q []graph.NodeID, k int) (int, error) {
	collect := func(decode func([]graph.NodeID, int, func(hmm.Path) bool) error) ([]hmm.Path, error) {
		var out []hmm.Path
		err := decode(q, k, func(p hmm.Path) bool {
			states := make([]int, len(p.States))
			copy(states, p.States)
			out = append(out, hmm.Path{States: states, Score: p.Score})
			return true
		})
		return out, err
	}
	fast, err := collect(s.TAT.DecodePaths)
	if err != nil {
		return 0, err
	}
	ref, err := collect(s.TAT.DecodePathsRef)
	if err != nil {
		return 0, err
	}
	if len(fast) != len(ref) {
		return 0, fmt.Errorf("query %v: fast decoder found %d paths, ref %d", q, len(fast), len(ref))
	}
	for i := range fast {
		if fast[i].Score != ref[i].Score {
			return 0, fmt.Errorf("query %v path %d: fast score %v != ref %v", q, i, fast[i].Score, ref[i].Score)
		}
		for c := range fast[i].States {
			if fast[i].States[c] != ref[i].States[c] {
				return 0, fmt.Errorf("query %v path %d slot %d: fast state %d != ref %d",
					q, i, c, fast[i].States[c], ref[i].States[c])
			}
		}
	}
	return len(fast), nil
}

// measureDecode times one decode implementation over the workload:
// per-query latencies across reps sweeps, with allocation counters read
// around the whole measured region (GOMAXPROCS pinned to 1 so no other
// goroutine's allocations are charged to the loop).
func measureDecode(name string, queries [][]graph.NodeID, reps int,
	decode func([]graph.NodeID, func(hmm.Path) bool) error) (HotpathVariant, error) {
	v := HotpathVariant{Name: name}
	sink := 0
	visit := func(p hmm.Path) bool {
		sink += len(p.States)
		return true
	}
	sweep := func() error {
		for _, q := range queries {
			if err := decode(q, visit); err != nil {
				return err
			}
		}
		return nil
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Warm the scratch pool and the decoder arenas before counting.
	for i := 0; i < 2; i++ {
		if err := sweep(); err != nil {
			return v, err
		}
	}
	ops := reps * len(queries)
	lats := make([]time.Duration, 0, ops)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 0; r < reps; r++ {
		for _, q := range queries {
			t0 := time.Now()
			if err := decode(q, visit); err != nil {
				return v, err
			}
			lats = append(lats, time.Since(t0))
		}
	}
	runtime.ReadMemStats(&m1)
	v.Ops = ops
	v.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(ops)
	v.BytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops)
	var total time.Duration
	for _, l := range lats {
		total += l
	}
	v.Mean = total / time.Duration(ops)
	v.P50, v.P99 = latencyPercentiles(lats)
	_ = sink
	return v, nil
}

// RenderHotpath formats the run for the console.
func RenderHotpath(row HotpathRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hot path — pooled decode vs allocating reference (k=%d):\n", row.K)
	fmt.Fprintf(&b, "  equivalence: %d paths — all bit-identical\n", row.PathsCompared)
	for _, v := range []HotpathVariant{row.Fast, row.Ref} {
		fmt.Fprintf(&b, "  %-14s %7.1f allocs/op  %9.0f B/op  p50 %-9v p99 %-9v (%d ops)\n",
			v.Name, v.AllocsPerOp, v.BytesPerOp,
			v.P50.Round(time.Microsecond), v.P99.Round(time.Microsecond), v.Ops)
	}
	fmt.Fprintf(&b, "  p99 speedup: %.2fx\n", row.SpeedupP99)
	return b.String()
}

// hotpathReport is the schema of BENCH_hotpath.json.
type hotpathReport struct {
	Corpus  string     `json:"corpus"`
	MaxProc int        `json:"gomaxprocs"`
	Row     HotpathRow `json:"result"`
}

// WriteHotpathJSON writes the run as indented JSON (the
// `make bench-hotpath` artifact).
func WriteHotpathJSON(w io.Writer, cfg dblpgen.Config, row HotpathRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(hotpathReport{
		Corpus:  fmt.Sprintf("dblpgen seed=%d topics=%d confs=%d authors=%d papers=%d", cfg.Seed, cfg.Topics, cfg.Confs, cfg.Authors, cfg.Papers),
		MaxProc: runtime.GOMAXPROCS(0),
		Row:     row,
	})
}
