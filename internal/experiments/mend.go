// Query-mending experiment (ISSUE 10): measures how much reformulation
// quality the mending pass recovers from typo'd and mis-segmented
// queries, what the mend lookup costs next to decode, and whether
// mended queries stay available through live promotion. A deterministic
// fault injector corrupts clean vocabulary queries three ways — a
// single-character typo, two tokens run together, one token split in
// two — then the run compares precision@5 of the clean baseline, the
// unmended faulted queries (which mostly fail outright), and the mended
// path, all judged against the ORIGINAL clean query's ground truth.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"kqr"
	"kqr/internal/dblpgen"
	"kqr/internal/eval"
)

// MendConfig shapes one mending run.
type MendConfig struct {
	// Queries is how many clean queries to corrupt and measure (≥ 30
	// for stable precision numbers; default 60).
	Queries int
	// Reps is how many timing repetitions the latency phase runs.
	Reps int
	// Rounds is how many ingest+promote cycles the load phase drives.
	Rounds int
	// BatchSize is how many papers each promotion round inserts.
	BatchSize int
	// Queriers is how many concurrent mended-query goroutines run
	// through the promotion phase.
	Queriers int
	// Seed drives query sampling and fault injection.
	Seed int64
	// Strict additionally enforces the latency gate (mend p99 at most
	// 25% of decode p99); the byte-identity, precision-recovery, and
	// promotion gates are always enforced.
	Strict bool
}

// MendFaults counts the injected corruption by kind.
type MendFaults struct {
	Typos  int `json:"typos"`
	RunOns int `json:"run_ons"`
	Splits int `json:"splits"`
}

// MendRow is the result of one mending run.
type MendRow struct {
	Queries        int           `json:"queries"`
	Faults         MendFaults    `json:"faults"`
	CleanP5        float64       `json:"clean_p5"`
	UnmendedP5     float64       `json:"unmended_p5"`
	MendedP5       float64       `json:"mended_p5"`
	UnmendedErrors int           `json:"unmended_errors"`
	MendedErrors   int           `json:"mended_errors"`
	ByteIdentical  bool          `json:"byte_identical"`
	MendP50        time.Duration `json:"mend_p50_ns"`
	MendP99        time.Duration `json:"mend_p99_ns"`
	DecodeP50      time.Duration `json:"decode_p50_ns"`
	DecodeP99      time.Duration `json:"decode_p99_ns"`
	IndexTerms     int           `json:"index_terms"`
	IndexKeys      int           `json:"index_keys"`
	IndexBytes     int64         `json:"index_bytes"`
	Promotions     int           `json:"promotions"`
	LoadQueries    int           `json:"load_queries"`
	LoadErrors     int           `json:"load_errors"`
	Wall           time.Duration `json:"wall_ns"`
}

// mendFaultKinds cycles deterministically so every run exercises all
// three corruption modes in fixed proportion.
var mendFaultKinds = []string{"typo", "runon", "split"}

// MendRun builds a mending-enabled live engine over the synthetic
// corpus and runs the three phases: precision recovery, latency, and
// promotion under concurrent mended-query load.
func MendRun(dcfg dblpgen.Config, cfg MendConfig) (MendRow, error) {
	var row MendRow
	if cfg.Queries <= 0 {
		cfg.Queries = 60
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 3
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 3
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 25
	}
	if cfg.Queriers <= 0 {
		cfg.Queriers = 4
	}
	wallStart := time.Now()

	corpus, err := dblpgen.Generate(dcfg)
	if err != nil {
		return row, err
	}
	eng, err := kqr.Open(kqr.WrapDatabase(corpus.DB), kqr.Options{Live: true, Mend: true})
	if err != nil {
		return row, err
	}
	defer eng.Close()
	if stats, ok := eng.MendStats(); ok {
		row.IndexTerms, row.IndexKeys, row.IndexBytes = stats.Terms, stats.Keys, stats.Bytes
	} else {
		return row, fmt.Errorf("mend: engine reports no mend index despite Options.Mend")
	}
	judge, err := eval.NewJudge(corpus.Truth)
	if err != nil {
		return row, err
	}

	// Clean queries draw strictly from the engine's own vocabulary so
	// every term resolves and the byte-identity gate is meaningful.
	vocabSet := make(map[string]bool)
	for _, t := range eng.Vocabulary() {
		vocabSet[t] = true
	}
	clean, err := sampleVocabQueries(corpus, vocabSet, cfg.Queries, cfg.Seed)
	if err != nil {
		return row, err
	}
	row.Queries = len(clean)

	// unknown asks the mender itself whether a token resolves: the
	// injector must only plant faults the engine actually sees as
	// faults, or the arms would measure pass-through, not repair.
	unknown := func(tok string) bool {
		res, err := eng.Mend([]string{tok})
		return err == nil && res.Changed
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	faulted := make([][]string, len(clean))
	for i, q := range clean {
		kind := mendFaultKinds[i%len(mendFaultKinds)]
		fq, used, ok := injectFault(rng, q, kind, unknown)
		if !ok {
			return row, fmt.Errorf("mend: could not inject a fault into %v", q)
		}
		faulted[i] = fq
		switch used {
		case "typo":
			row.Faults.Typos++
		case "runon":
			row.Faults.RunOns++
		case "split":
			row.Faults.Splits++
		}
	}

	// Phase 1 — precision recovery and byte identity. Every arm is
	// judged against the ORIGINAL clean query: mending is only worth
	// having if the repaired query serves the same information need.
	row.ByteIdentical = true
	var cleanSum, unmendedSum, mendedSum float64
	for i, q := range clean {
		res, err := eng.Mend(q)
		if err != nil || res.Changed || len(res.Terms) != len(q) {
			row.ByteIdentical = false
		} else {
			for j := range q {
				if res.Terms[j] != q[j] {
					row.ByteIdentical = false
				}
			}
		}
		cleanSum += precisionAt5(judge, q, mustReformulate(eng, q))

		if sugs, err := eng.Reformulate(faulted[i], 5); err != nil {
			row.UnmendedErrors++
		} else {
			unmendedSum += precisionAt5(judge, q, sugs)
		}

		if sugs, _, err := eng.ReformulateMended(faulted[i], 5); err != nil {
			row.MendedErrors++
		} else {
			mendedSum += precisionAt5(judge, q, sugs)
		}
	}
	n := float64(len(clean))
	row.CleanP5 = cleanSum / n
	row.UnmendedP5 = unmendedSum / n
	row.MendedP5 = mendedSum / n

	// Phase 2 — latency. Mend cost is measured on faulted queries (the
	// expensive path: deletion-neighborhood lookups plus the
	// segmentation DP); decode cost on clean ones, matching the serving
	// layer where mending runs ahead of an always-present decode. Each
	// cost runs in its own pass — interleaving would bill one path's
	// allocation pressure to the other's tail — with reps raised until
	// the p99 rests on a meaningful number of samples.
	sampleReps := cfg.Reps
	if min := 1 + 500/len(clean); sampleReps < min {
		sampleReps = min
	}
	mendLat := make([]time.Duration, 0, sampleReps*len(clean))
	decodeLat := make([]time.Duration, 0, sampleReps*len(clean))
	for rep := 0; rep < sampleReps; rep++ {
		for i := range clean {
			start := time.Now()
			if _, err := eng.Mend(faulted[i]); err != nil {
				return row, fmt.Errorf("mend latency phase: %w", err)
			}
			mendLat = append(mendLat, time.Since(start))
		}
	}
	for rep := 0; rep < sampleReps; rep++ {
		for _, q := range clean {
			start := time.Now()
			if _, err := eng.Reformulate(q, 5); err != nil {
				return row, fmt.Errorf("decode latency phase: %w", err)
			}
			decodeLat = append(decodeLat, time.Since(start))
		}
	}
	row.MendP50, row.MendP99 = latencyPercentiles(mendLat)
	row.DecodeP50, row.DecodeP99 = latencyPercentiles(decodeLat)

	// Phase 3 — promotion under concurrent mended-query load:
	// queriers hammer ReformulateMended with faulted
	// queries while the main goroutine ingests and promotes. The gate
	// is zero query errors and strictly climbing epochs — mending must
	// ride the generation swap as atomically as decode does.
	stop := make(chan struct{})
	type loadResult struct {
		queries int
		errs    int
	}
	results := make([]loadResult, cfg.Queriers)
	var wg sync.WaitGroup
	for qi := 0; qi < cfg.Queriers; qi++ {
		wg.Add(1)
		go func(qi int) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(cfg.Seed + 1000 + int64(qi)))
			res := &results[qi]
			for {
				select {
				case <-stop:
					return
				default:
				}
				fq := faulted[qrng.Intn(len(faulted))]
				if _, _, err := eng.ReformulateMended(fq, 5); err != nil {
					res.errs++
				}
				res.queries++
			}
		}(qi)
	}
	pid := int64(9_500_000)
	loadErr := func() error {
		for round := 0; round < cfg.Rounds; round++ {
			deltas := make([]kqr.Delta, cfg.BatchSize)
			fresh := fmt.Sprintf("mendterm%d", round)
			for i := range deltas {
				pid++
				q := clean[rng.Intn(len(clean))]
				title := fmt.Sprintf("%s %s", fresh, strings.Join(q, " "))
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
			info, err := eng.Promote(context.Background())
			if err != nil {
				return fmt.Errorf("round %d promote: %w", round, err)
			}
			if info.Epoch <= before {
				return fmt.Errorf("round %d: epoch %d did not advance past %d", round, info.Epoch, before)
			}
			// The new generation must carry a mend index: a typo'd form
			// of the round's fresh term has to spell-correct to it.
			if res, err := eng.Mend([]string{fresh + "x"}); err != nil {
				return fmt.Errorf("round %d: mend on new generation: %w", round, err)
			} else if len(res.Terms) != 1 || res.Terms[0] != fresh {
				return fmt.Errorf("round %d: %q did not mend to %q on the new generation (got %v)",
					round, fresh+"x", fresh, res.Terms)
			}
			row.Promotions++
		}
		return nil
	}()
	close(stop)
	wg.Wait()
	for _, r := range results {
		row.LoadQueries += r.queries
		row.LoadErrors += r.errs
	}
	row.Wall = time.Since(wallStart)
	if loadErr != nil {
		return row, loadErr
	}

	// Gates. Byte identity, precision recovery, and promotion health
	// are structural promises and always enforced; the latency gate is
	// timing-sensitive and only fails the run under -strict.
	if !row.ByteIdentical {
		return row, fmt.Errorf("mend gate: an all-vocabulary query was not returned byte-identically")
	}
	if row.MendedP5 < 0.9*row.CleanP5 {
		return row, fmt.Errorf("mend gate: mended precision@5 %.3f below 90%% of clean baseline %.3f",
			row.MendedP5, row.CleanP5)
	}
	if row.LoadErrors > 0 {
		return row, fmt.Errorf("mend gate: %d mended-query errors during promotion load", row.LoadErrors)
	}
	if cfg.Strict && row.DecodeP99 > 0 && row.MendP99*4 > row.DecodeP99 {
		return row, fmt.Errorf("mend gate (strict): mend p99 %v exceeds 25%% of decode p99 %v",
			row.MendP99.Round(time.Microsecond), row.DecodeP99.Round(time.Microsecond))
	}
	return row, nil
}

// sampleVocabQueries draws two-term queries whose terms all live in the
// engine vocabulary, over-sampling the corpus generator as needed.
func sampleVocabQueries(c *dblpgen.Corpus, vocab map[string]bool, count int, seed int64) ([][]string, error) {
	var out [][]string
	for attempt := 1; attempt <= 5 && len(out) < count; attempt++ {
		qs, err := eval.RandomQueries(c, count*2*attempt, 2, seed+int64(attempt))
		if err != nil {
			return nil, err
		}
		for _, q := range qs {
			ok := true
			for _, t := range q {
				if !vocab[t] {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, q)
				if len(out) == count {
					break
				}
			}
		}
	}
	if len(out) < count {
		return nil, fmt.Errorf("mend: sampled only %d/%d vocabulary queries", len(out), count)
	}
	return out, nil
}

// injectFault corrupts one clean query with the requested fault kind,
// retrying until the corruption is one the mender actually sees as
// unresolvable (a mutation can accidentally form another real word).
// Kinds that cannot apply — a run-on needs two tokens, a split a long
// one — fall back to a typo, so every query carries exactly one fault.
func injectFault(rng *rand.Rand, q []string, kind string, unknown func(string) bool) (faulted []string, used string, ok bool) {
	const retries = 8
	switch kind {
	case "runon":
		if len(q) >= 2 {
			i := rng.Intn(len(q) - 1)
			joined := q[i] + q[i+1]
			if unknown(joined) {
				out := append(append([]string{}, q[:i]...), joined)
				return append(out, q[i+2:]...), "runon", true
			}
		}
	case "split":
		for attempt := 0; attempt < retries; attempt++ {
			i := rng.Intn(len(q))
			r := []rune(q[i])
			if len(r) < 5 {
				continue
			}
			cut := 2 + rng.Intn(len(r)-4)
			a, b := string(r[:cut]), string(r[cut:])
			if unknown(a) || unknown(b) {
				out := append(append([]string{}, q[:i]...), a, b)
				return append(out, q[i+1:]...), "split", true
			}
		}
	}
	// Typo, also the fallback for inapplicable kinds.
	for attempt := 0; attempt < retries; attempt++ {
		i := rng.Intn(len(q))
		if len([]rune(q[i])) < 4 {
			continue
		}
		tok := typoOf(rng, q[i])
		if unknown(tok) {
			out := append([]string{}, q...)
			out[i] = tok
			return out, "typo", true
		}
	}
	return nil, "", false
}

// typoOf applies one random single-character edit: substitution,
// deletion, insertion, or adjacent transposition.
func typoOf(rng *rand.Rand, w string) string {
	r := []rune(w)
	switch rng.Intn(4) {
	case 0: // substitute
		i := rng.Intn(len(r))
		r[i] = rune('a' + (r[i]-'a'+1+rune(rng.Intn(24)))%26)
	case 1: // delete
		i := rng.Intn(len(r))
		r = append(r[:i], r[i+1:]...)
	case 2: // insert
		i := rng.Intn(len(r) + 1)
		c := rune('a' + rng.Intn(26))
		r = append(r[:i], append([]rune{c}, r[i:]...)...)
	default: // transpose
		if len(r) >= 2 {
			i := rng.Intn(len(r) - 1)
			r[i], r[i+1] = r[i+1], r[i]
		}
	}
	return string(r)
}

// mustReformulate wraps the clean-baseline decode; a resolvable
// vocabulary query failing to decode is a harness bug, not a data
// point, so it surfaces as an empty list and zero precision.
func mustReformulate(e *kqr.Engine, q []string) []kqr.Suggestion {
	sugs, err := e.Reformulate(q, 5)
	if err != nil {
		return nil
	}
	return sugs
}

// precisionAt5 judges the suggestion list against the clean original.
func precisionAt5(j *eval.Judge, orig []string, sugs []kqr.Suggestion) float64 {
	rels := make([]bool, 0, len(sugs))
	for _, s := range sugs {
		rels = append(rels, j.QueryRelevant(orig, s.Terms))
	}
	return eval.PrecisionAtN(rels, 5)
}

// latencyPercentiles returns the p50 and p99 of the sample.
func latencyPercentiles(lat []time.Duration) (p50, p99 time.Duration) {
	if len(lat) == 0 {
		return 0, 0
	}
	sorted := append([]time.Duration{}, lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2], sorted[len(sorted)*99/100]
}

// RenderMend formats the mending run for the terminal.
func RenderMend(row MendRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Query mending (%d queries: %d typos, %d run-ons, %d splits):\n",
		row.Queries, row.Faults.Typos, row.Faults.RunOns, row.Faults.Splits)
	fmt.Fprintf(&b, "  precision@5   clean %.3f   unmended %.3f (%d errors)   mended %.3f (%d errors)\n",
		row.CleanP5, row.UnmendedP5, row.UnmendedErrors, row.MendedP5, row.MendedErrors)
	fmt.Fprintf(&b, "  byte identity %v on all-vocabulary queries\n", row.ByteIdentical)
	fmt.Fprintf(&b, "  mend   p50 %v   p99 %v\n",
		row.MendP50.Round(time.Microsecond), row.MendP99.Round(time.Microsecond))
	fmt.Fprintf(&b, "  decode p50 %v   p99 %v\n",
		row.DecodeP50.Round(time.Microsecond), row.DecodeP99.Round(time.Microsecond))
	fmt.Fprintf(&b, "  index  %d terms, %d deletion keys, %.1f KiB\n",
		row.IndexTerms, row.IndexKeys, float64(row.IndexBytes)/1024)
	fmt.Fprintf(&b, "  load   %d promotions, %d mended queries, %d errors\n",
		row.Promotions, row.LoadQueries, row.LoadErrors)
	return b.String()
}

// mendReport is the schema of BENCH_mend.json.
type mendReport struct {
	Corpus  string  `json:"corpus"`
	MaxProc int     `json:"gomaxprocs"`
	Row     MendRow `json:"result"`
}

// WriteMendJSON writes the mending run as indented JSON (the
// `make bench-mend` artifact).
func WriteMendJSON(w io.Writer, cfg dblpgen.Config, row MendRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(mendReport{
		Corpus:  fmt.Sprintf("dblpgen seed=%d topics=%d confs=%d authors=%d papers=%d", cfg.Seed, cfg.Topics, cfg.Confs, cfg.Authors, cfg.Papers),
		MaxProc: runtime.GOMAXPROCS(0),
		Row:     row,
	})
}
