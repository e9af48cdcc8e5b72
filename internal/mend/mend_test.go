package mend

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func testMender(opts Options) *Mender {
	vocab := []string{
		"database", "systems", "probabilistic", "ranking", "banking",
		"query", "reformulation", "keyword", "structured", "data",
		"semantic", "search", "graph", "index", "stream", "alice ames",
	}
	freqs := []int{90, 70, 40, 25, 60, 80, 30, 55, 45, 95, 20, 65, 35, 50, 15, 10}
	return New(NewIndex(vocab, freqs), opts)
}

func TestPassThroughByteIdentical(t *testing.T) {
	m := testMender(Options{})
	in := []string{"database", "systems", "query"}
	res := m.Mend(in)
	if res.Changed {
		t.Fatalf("all-vocabulary query marked changed: %+v", res)
	}
	if !reflect.DeepEqual(res.Terms, in) {
		t.Fatalf("terms mutated: %v != %v", res.Terms, in)
	}
	if res.Confidence != 1 {
		t.Fatalf("confidence = %v", res.Confidence)
	}
	for i, tok := range res.Tokens {
		if tok.Action != ActionKeep || tok.Original != in[i] {
			t.Fatalf("token %d = %+v", i, tok)
		}
	}
}

func TestResolveHookPreservesToken(t *testing.T) {
	// "XML" is not in the index, but the Resolve hook (standing in
	// for tatgraph.FindTerm's normalisation) accepts it: the token
	// must pass through byte-identically, not be spell-corrected.
	m := testMender(Options{Resolve: func(s string) bool { return s == "XML" }})
	res := m.Mend([]string{"XML", "database"})
	if res.Changed || res.Terms[0] != "XML" {
		t.Fatalf("resolve-hook token altered: %+v", res)
	}
}

func TestSpellCorrect(t *testing.T) {
	m := testMender(Options{})
	res := m.Mend([]string{"databse", "systems"})
	if !res.Changed {
		t.Fatal("typo not flagged as change")
	}
	if !reflect.DeepEqual(res.Terms, []string{"database", "systems"}) {
		t.Fatalf("terms = %v", res.Terms)
	}
	if res.Tokens[0].Action != ActionSpell || res.Tokens[0].Original != "databse" {
		t.Fatalf("token provenance = %+v", res.Tokens[0])
	}
	if res.Confidence <= 0 || res.Confidence > 1 {
		t.Fatalf("confidence = %v", res.Confidence)
	}
}

func TestSplitRunTogether(t *testing.T) {
	m := testMender(Options{})
	res := m.Mend([]string{"databasesystems"})
	if !reflect.DeepEqual(res.Terms, []string{"database", "systems"}) {
		t.Fatalf("terms = %v (tokens %+v)", res.Terms, res.Tokens)
	}
	if res.Tokens[0].Action != ActionSplit {
		t.Fatalf("action = %v", res.Tokens[0].Action)
	}
}

func TestMergeOverSplit(t *testing.T) {
	m := testMender(Options{})
	res := m.Mend([]string{"datab", "ase", "systems"})
	if !reflect.DeepEqual(res.Terms, []string{"database", "systems"}) {
		t.Fatalf("terms = %v (tokens %+v)", res.Terms, res.Tokens)
	}
	if res.Tokens[0].Action != ActionMerge || res.Tokens[0].Original != "datab ase" {
		t.Fatalf("merge provenance = %+v", res.Tokens[0])
	}
}

func TestMergeNeverJoinsTwoValidTerms(t *testing.T) {
	// "data" and "base" are both vocabulary members and their
	// concatenation "database" is too — the strongest temptation to
	// merge. Byte-identical pass-through must win.
	vocab := []string{"data", "base", "database"}
	m := New(NewIndex(vocab, nil), Options{})
	res := m.Mend([]string{"data", "base"})
	if res.Changed {
		t.Fatalf("two valid terms were merged: %+v", res)
	}
	if !reflect.DeepEqual(res.Terms, []string{"data", "base"}) {
		t.Fatalf("terms = %v", res.Terms)
	}
}

func TestDropAndHints(t *testing.T) {
	m := testMender(Options{})
	res := m.Mend([]string{"zzzzqqxx"})
	if len(res.Terms) != 0 {
		t.Fatalf("unmendable token produced terms: %v", res.Terms)
	}
	if res.Tokens[0].Action != ActionDrop || res.Confidence != 0 {
		t.Fatalf("drop provenance = %+v conf %v", res.Tokens[0], res.Confidence)
	}
	// A near-miss drop still carries hints: "rankngx" is two edits from
	// a frequency-1 "ranking", which scores 1/3 × (0.55 + 0.45 × ln 2 /
	// ln 96) ≈ 0.21, below the acceptance threshold.
	rare := New(NewIndex([]string{"ranking", "data"}, []int{1, 95}), Options{})
	res = rare.Mend([]string{"rankngx"})
	hints := res.Hints(3)
	if len(hints) != 1 || hints[0].Token != "rankngx" || len(hints[0].Candidates) == 0 {
		t.Fatalf("hints = %+v (tokens %+v)", hints, res.Tokens)
	}
	if hints[0].Candidates[0] != "ranking" {
		t.Fatalf("nearest candidate = %v", hints[0].Candidates)
	}
}

func TestContextScorerSteersRanking(t *testing.T) {
	// "anking" is distance 1 from both "ranking" (freq 25) and
	// "banking" (freq 60); frequency alone picks banking, but a
	// context scorer that knows the query is about probabilistic
	// ranking must flip it.
	base := testMender(Options{})
	res := base.Mend([]string{"probabilistic", "anking"})
	if res.Terms[1] != "banking" {
		t.Fatalf("frequency baseline picked %v", res.Terms)
	}
	ctx := testMender(Options{
		Context: func(anchor, cand string) float64 {
			if anchor == "probabilistic" && cand == "ranking" {
				return 1
			}
			return 0
		},
	})
	res = ctx.Mend([]string{"probabilistic", "anking"})
	if res.Terms[1] != "ranking" {
		t.Fatalf("context scorer ignored: %v (tokens %+v)", res.Terms, res.Tokens)
	}
}

func TestShortUnknownTokenDropped(t *testing.T) {
	m := testMender(Options{})
	res := m.Mend([]string{"qx", "database"})
	if !reflect.DeepEqual(res.Terms, []string{"database"}) {
		t.Fatalf("terms = %v", res.Terms)
	}
	if res.Tokens[0].Action != ActionDrop {
		t.Fatalf("2-rune unknown token not dropped: %+v", res.Tokens[0])
	}
}

// TestIdempotent is the core property: mending a mended query is a
// no-op, because every emitted term is vocabulary-resident.
func TestIdempotent(t *testing.T) {
	m := testMender(Options{})
	rng := rand.New(rand.NewSource(23))
	vocab := []string{"database", "systems", "probabilistic", "ranking", "query", "reformulation", "keyword", "structured", "data", "semantic"}
	for trial := 0; trial < 300; trial++ {
		nq := 1 + rng.Intn(4)
		q := make([]string, nq)
		for i := range q {
			w := vocab[rng.Intn(len(vocab))]
			if rng.Intn(2) == 0 {
				w = mutate(rng, w, 1+rng.Intn(2))
			}
			q[i] = w
		}
		first := m.Mend(q)
		second := m.Mend(first.Terms)
		if second.Changed {
			t.Fatalf("second mend changed %v -> %v (query %v)", first.Terms, second.Terms, q)
		}
		if !reflect.DeepEqual(first.Terms, second.Terms) {
			t.Fatalf("not idempotent: %v -> %v (query %v)", first.Terms, second.Terms, q)
		}
	}
}

func TestDeterministic(t *testing.T) {
	m := testMender(Options{})
	q := []string{"databse", "systms", "probablistic", "rankng"}
	want := m.Mend(q)
	for i := 0; i < 20; i++ {
		if got := m.Mend(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d diverged: %+v != %+v", i, got, want)
		}
	}
}

func TestConcurrentMend(t *testing.T) {
	m := testMender(Options{})
	queries := [][]string{
		{"databse", "systems"},
		{"databasesystems"},
		{"datab", "ase"},
		{"database", "query"},
		{"zzzzqqxx"},
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := queries[i%len(queries)]
				res := m.Mend(q)
				for _, term := range res.Terms {
					if !m.resolvable(term) {
						t.Errorf("emitted non-vocabulary term %q for %v", term, q)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestEmptyQuery(t *testing.T) {
	m := testMender(Options{})
	res := m.Mend(nil)
	if res.Changed || len(res.Terms) != 0 || res.Confidence != 1 {
		t.Fatalf("empty query = %+v", res)
	}
}

func TestActionText(t *testing.T) {
	for _, a := range []Action{ActionKeep, ActionSpell, ActionSplit, ActionMerge, ActionDrop} {
		b, err := a.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Action
		if err := back.UnmarshalText(b); err != nil || back != a {
			t.Fatalf("round trip %v -> %s -> %v (%v)", a, b, back, err)
		}
	}
	var bad Action
	if err := bad.UnmarshalText([]byte("nope")); err == nil {
		t.Fatal("expected error for unknown action name")
	}
	if got := Action(42).String(); !strings.Contains(got, "42") {
		t.Fatalf("unknown action string = %q", got)
	}
}
