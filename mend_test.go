package kqr_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kqr"
	"kqr/internal/dblpgen"
	"kqr/internal/eval"
	"kqr/synthetic"
)

// mendEngine opens the bibliography corpus with mending enabled.
func mendEngine(t *testing.T, opts kqr.Options) *kqr.Engine {
	t.Helper()
	opts.Mend = true
	eng, err := kqr.Open(bibliographyDataset(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// TestMendVocabularyNoOp feeds every vocabulary term of a generated
// corpus back through Mend and asserts the pass-through guarantee:
// a query whose tokens already resolve in the vocabulary comes back
// byte-identical with Changed=false.
func TestMendVocabularyNoOp(t *testing.T) {
	c, err := synthetic.Bibliography(synthetic.Config{Seed: 7, Topics: 4, Confs: 8, Authors: 80, Papers: 400})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kqr.Open(c.Dataset, kqr.Options{Mend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	vocab := eng.Vocabulary()
	if len(vocab) == 0 {
		t.Fatal("empty vocabulary")
	}
	for i, term := range vocab {
		// Pair each term with another vocabulary member so multi-token
		// queries exercise the same guarantee as single tokens.
		q := []string{term, vocab[(i+1)%len(vocab)]}
		res, err := eng.Mend(q)
		if err != nil {
			t.Fatalf("Mend(%q): %v", q, err)
		}
		if res.Changed {
			t.Fatalf("Mend(%q) changed a pure-vocabulary query: %v", q, res.Terms)
		}
		if !reflect.DeepEqual(res.Terms, q) {
			t.Fatalf("Mend(%q) = %v, not byte-identical", q, res.Terms)
		}
		if res.Confidence != 1 {
			t.Fatalf("Mend(%q) confidence = %v, want 1", q, res.Confidence)
		}
	}
}

// TestSegmentQueryNotSubsumedByMend pins why SegmentQuery stays beside
// the mender's merge DP (DESIGN §7): when every word of a query is a
// term and so is their join, Mend — which never touches a token that
// resolves — passes the words through, while SegmentQuery joins them
// into the longer term. The two are different operations with different
// answers; a change that makes them agree must decide which one the
// callers of the other were relying on.
func TestSegmentQueryNotSubsumedByMend(t *testing.T) {
	eng, err := kqr.Open(phraseDataset(t), kqr.Options{Phrases: true, Mend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	seg, err := eng.SegmentQuery("association rules mining")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"association rules", "mining"}; !reflect.DeepEqual(seg, want) {
		t.Fatalf("SegmentQuery = %q, want %q", seg, want)
	}
	res, err := eng.Mend([]string{"association", "rules", "mining"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"association", "rules", "mining"}; !reflect.DeepEqual(res.Terms, want) || res.Changed {
		t.Fatalf("Mend = %q (changed %v), want %q unchanged", res.Terms, res.Changed, want)
	}
}

// TestMendEmitsWholeMultiWordTerms: a multi-word vocabulary term (an
// atomic author name) written as separate words, as written or with a
// one-character typo in one word, mends to the whole term, which
// Reformulate accepts — every term Mend emits resolves.
func TestMendEmitsWholeMultiWordTerms(t *testing.T) {
	eng := mendEngine(t, kqr.Options{})
	multi := 0
	for _, term := range eng.Vocabulary() {
		words := strings.Fields(term)
		if len(words) < 2 {
			continue
		}
		multi++
		queries := [][]string{words}
		for i, w := range words {
			typo := slices.Clone(words)
			last := byte('x')
			if w[len(w)-1] == last {
				last = 'q'
			}
			typo[i] = w[:len(w)-1] + string(last)
			queries = append(queries, typo)
		}
		for _, q := range queries {
			res, err := eng.Mend(q)
			if err != nil {
				t.Fatalf("Mend(%q): %v", q, err)
			}
			if !slices.Contains(res.Terms, term) {
				t.Errorf("Mend(%q) = %q, want it to hold %q", q, res.Terms, term)
			}
			if _, err := eng.Reformulate(res.Terms, 5); err != nil {
				t.Errorf("Reformulate(Mend(%q) = %q): %v", q, res.Terms, err)
			}
		}
	}
	if multi == 0 {
		t.Fatal("the corpus has no multi-word term")
	}
}

// TestMendRepairsAndProvenance checks the three repair classes on the
// hand-built corpus — a misspelling, a run-together token, and an
// over-split bigram — and that the per-token provenance names the
// action taken.
func TestMendRepairsAndProvenance(t *testing.T) {
	eng := mendEngine(t, kqr.Options{})
	cases := []struct {
		query  []string
		want   []string
		action kqr.MendAction
	}{
		{[]string{"probabilistc", "data"}, []string{"probabilistic", "data"}, kqr.MendSpell},
		{[]string{"uncertaindata"}, []string{"uncertain", "data"}, kqr.MendSplit},
		{[]string{"uncer", "tain", "data"}, []string{"uncertain", "data"}, kqr.MendMerge},
	}
	for _, tc := range cases {
		res, err := eng.Mend(tc.query)
		if err != nil {
			t.Fatalf("Mend(%q): %v", tc.query, err)
		}
		if !reflect.DeepEqual(res.Terms, tc.want) {
			t.Errorf("Mend(%q) = %v, want %v", tc.query, res.Terms, tc.want)
			continue
		}
		if !res.Changed {
			t.Errorf("Mend(%q) reported Changed=false", tc.query)
		}
		found := false
		for _, tok := range res.Tokens {
			if tok.Action == tc.action {
				found = true
			}
		}
		if !found {
			t.Errorf("Mend(%q) provenance %+v lacks action %v", tc.query, res.Tokens, tc.action)
		}
		// The repaired query must be servable as-is.
		if _, err := eng.Reformulate(res.Terms, 3); err != nil {
			t.Errorf("Reformulate(mended %q): %v", tc.query, err)
		}
	}
}

// TestMendIdempotence asserts Mend(Mend(q)) == Mend(q): once repaired,
// a query is a fixed point of the mender.
func TestMendIdempotence(t *testing.T) {
	eng := mendEngine(t, kqr.Options{})
	queries := [][]string{
		{"probabilistc", "data"},
		{"uncertaindata"},
		{"uncer", "tain", "query"},
		{"probabilistic", "evaluaton"},
		{"xml", "twig", "indexing"},
	}
	for _, q := range queries {
		first, err := eng.Mend(q)
		if err != nil {
			t.Fatalf("Mend(%q): %v", q, err)
		}
		second, err := eng.Mend(first.Terms)
		if err != nil {
			t.Fatalf("re-Mend(%q): %v", first.Terms, err)
		}
		if second.Changed {
			t.Errorf("Mend(%q) is not a fixed point: %v -> %v", q, first.Terms, second.Terms)
		}
		if !reflect.DeepEqual(second.Terms, first.Terms) {
			t.Errorf("re-Mend(%q) = %v, want %v", q, second.Terms, first.Terms)
		}
	}
}

// TestMendNoKnownTermsTypedError drives a query no repair can map onto
// the vocabulary through ReformulateMended and asserts the typed
// error: errors.Is matches the sentinel, errors.As recovers the
// concrete error with the original query, and near-miss tokens carry
// nearest-candidate hints.
func TestMendNoKnownTermsTypedError(t *testing.T) {
	eng := mendEngine(t, kqr.Options{})
	_, _, err := eng.ReformulateMended([]string{"zzzzzzzz", "qqqqqqqq"}, 5)
	if !errors.Is(err, kqr.ErrNoKnownTerms) {
		t.Fatalf("hopeless query error = %v, want ErrNoKnownTerms", err)
	}
	var nke *kqr.NoKnownTermsError
	if !errors.As(err, &nke) {
		t.Fatalf("error %T does not unwrap to *NoKnownTermsError", err)
	}
	if !reflect.DeepEqual(nke.Query, []string{"zzzzzzzz", "qqqqqqqq"}) {
		t.Errorf("NoKnownTermsError.Query = %v", nke.Query)
	}
	if !strings.Contains(err.Error(), "zzzzzzzz") {
		t.Errorf("error %q does not echo the query", err)
	}
	// A mendable query must NOT trip the sentinel.
	if _, _, err := eng.ReformulateMended([]string{"probabilistc", "data"}, 5); err != nil {
		t.Fatalf("mendable query: %v", err)
	}
}

// TestMendDisabledTypedError asserts every mending entry point fails
// closed with ErrMendDisabled on an engine opened without Options.Mend.
func TestMendDisabledTypedError(t *testing.T) {
	eng, err := kqr.Open(bibliographyDataset(t), kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Mend([]string{"probabilistic"}); !errors.Is(err, kqr.ErrMendDisabled) {
		t.Errorf("Mend on mend-less engine = %v, want ErrMendDisabled", err)
	}
	if _, _, err := eng.ReformulateMended([]string{"probabilistic"}, 3); !errors.Is(err, kqr.ErrMendDisabled) {
		t.Errorf("ReformulateMended on mend-less engine = %v, want ErrMendDisabled", err)
	}
	if _, ok := eng.MendStats(); ok {
		t.Error("MendStats ok=true on mend-less engine")
	}
}

// TestMendStats sanity-checks the reported index size against the
// engine vocabulary.
func TestMendStats(t *testing.T) {
	eng := mendEngine(t, kqr.Options{})
	stats, ok := eng.MendStats()
	if !ok {
		t.Fatal("MendStats ok=false on mend-enabled engine")
	}
	if want := len(eng.Vocabulary()); stats.Terms != want {
		t.Errorf("MendStats.Terms = %d, vocabulary has %d", stats.Terms, want)
	}
	if stats.Keys < stats.Terms {
		t.Errorf("MendStats.Keys = %d < Terms = %d", stats.Keys, stats.Terms)
	}
	if stats.Bytes <= 0 {
		t.Errorf("MendStats.Bytes = %d", stats.Bytes)
	}
}

// TestMendRecoversPrecision is the quality promise of mending: over a
// fixed table of typo'd, run-together and over-split queries on a
// 400-paper generated corpus, the suggestions for the mended query —
// judged against the CLEAN query's planted ground truth — reach at least
// 90% of the precision@5 the clean queries get, while the same faulted
// queries fail outright without mending.
func TestMendRecoversPrecision(t *testing.T) {
	corpus, err := dblpgen.Generate(dblpgen.Config{Seed: 7, Topics: 4, Confs: 8, Authors: 80, Papers: 400})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kqr.Open(kqr.WrapDatabase(corpus.DB), kqr.Options{Mend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	judge, err := eval.NewJudge(corpus.Truth)
	if err != nil {
		t.Fatal(err)
	}
	precision := func(clean []string, sugs []kqr.Suggestion) float64 {
		rels := make([]bool, 0, len(sugs))
		for _, s := range sugs {
			rels = append(rels, judge.QueryRelevant(clean, s.Terms))
		}
		return eval.PrecisionAtN(rels, 5)
	}
	cases := []struct{ clean, faulted string }{
		// one-character typos
		{"probabilistic ranking", "probabilistc ranking"},
		{"schema publishing", "schema publsihing"},
		{"skyline uncertain", "skylne uncertain"},
		{"trajectory spatial", "trajectory spatjal"},
		// two tokens run together
		{"twig semistructured", "twigsemistructured"},
		{"frequent itemset", "frequentitemset"},
		{"continuous location", "continuouslocation"},
		{"document streaming", "documentstreaming"},
		// one token split in two
		{"aggregation query", "aggre gation query"},
		{"association rules", "associ ation rules"},
		{"clustering outlier", "cluste ring outlier"},
		{"neighbor tracking", "neigh bor tracking"},
	}
	var cleanSum, mendedSum float64
	for _, c := range cases {
		clean, faulted := strings.Fields(c.clean), strings.Fields(c.faulted)
		sugs, err := eng.Reformulate(clean, 5)
		if err != nil {
			t.Fatalf("clean %q: %v", c.clean, err)
		}
		cleanSum += precision(clean, sugs)
		if _, err := eng.Reformulate(faulted, 5); err == nil {
			t.Errorf("faulted %q reformulated without mending: the case plants no fault", c.faulted)
		}
		sugs, res, err := eng.ReformulateMended(faulted, 5)
		if err != nil {
			t.Errorf("mended %q: %v", c.faulted, err)
			continue
		}
		if !res.Changed {
			t.Errorf("mended %q: query passed through unchanged", c.faulted)
		}
		mendedSum += precision(clean, sugs)
	}
	n := float64(len(cases))
	if cleanSum/n < 0.5 {
		t.Fatalf("clean precision@5 %.3f: the table is too weak to gate on", cleanSum/n)
	}
	if mendedSum < 0.9*cleanSum {
		t.Fatalf("mended precision@5 %.3f below 90%% of the clean baseline %.3f", mendedSum/n, cleanSum/n)
	}

	// Mending runs ahead of every decode, so it has to stay the cheap
	// step: repairing a faulted query must take less, at the median,
	// than reformulating its clean form (it is ~7x less; the tails are
	// the system benchmark's mend.mend_us_p99 / core.reformulate_us_p99).
	const reps = 50
	mend := make([]time.Duration, 0, reps*len(cases))
	decode := make([]time.Duration, 0, reps*len(cases))
	for r := 0; r < reps; r++ {
		for _, c := range cases {
			clean, faulted := strings.Fields(c.clean), strings.Fields(c.faulted)
			start := time.Now()
			if _, err := eng.Mend(faulted); err != nil {
				t.Fatal(err)
			}
			mend = append(mend, time.Since(start))
			start = time.Now()
			if _, err := eng.Reformulate(clean, 5); err != nil {
				t.Fatal(err)
			}
			decode = append(decode, time.Since(start))
		}
	}
	slices.Sort(mend)
	slices.Sort(decode)
	if m, d := mend[len(mend)/2], decode[len(decode)/2]; m >= d {
		t.Fatalf("median mend %v is not below median reformulate %v", m, d)
	}
}

// TestMendedQueriesRaceAcrossPromotions hammers ReformulateMended with
// faulted queries from several goroutines while the main goroutine
// drives promotions, asserting zero query errors and monotone epochs,
// and that each new generation's mender learns the freshly ingested
// vocabulary. Under -race this is the proof that the mending index
// participates in generation swaps without locks on the hot path.
func TestMendedQueriesRaceAcrossPromotions(t *testing.T) {
	eng := mendEngine(t, kqr.Options{Live: true})
	const readers = 4
	const promotions = 4

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := uint64(0)
			for !stop.Load() {
				epoch := eng.Epoch()
				if epoch < last {
					errs <- fmt.Errorf("epoch went backwards: %d after %d", epoch, last)
					return
				}
				last = epoch
				if _, res, err := eng.ReformulateMended([]string{"probabilistc", "data"}, 3); err != nil {
					errs <- fmt.Errorf("ReformulateMended at epoch %d: %w", epoch, err)
					return
				} else if len(res.Terms) == 0 {
					errs <- fmt.Errorf("empty mend at epoch %d", epoch)
					return
				}
			}
		}()
	}

	for i := 0; i < promotions; i++ {
		fresh := fmt.Sprintf("meltdown%d", i)
		err := eng.Ingest([]kqr.Delta{{
			Op:    kqr.InsertTuple,
			Table: "papers",
			Values: []any{
				200 + i, fresh + " stream processing", 1,
			},
		}})
		if err != nil {
			t.Fatalf("promotion %d ingest: %v", i, err)
		}
		if _, err := eng.Promote(context.Background()); err != nil {
			t.Fatalf("promotion %d: %v", i, err)
		}
		// The promoted generation's mender must correct a typo of the
		// term that generation just learned.
		res, err := eng.Mend([]string{fresh + "x"})
		if err != nil {
			t.Fatalf("promotion %d mend: %v", i, err)
		}
		if len(res.Terms) != 1 || res.Terms[0] != fresh {
			t.Fatalf("promotion %d: Mend(%q) = %v, want [%s]", i, fresh+"x", res.Terms, fresh)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
