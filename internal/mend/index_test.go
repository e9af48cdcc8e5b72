package mend

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unicode/utf8"

	"kqr/internal/catgen"
	"kqr/internal/dblpgen"
	"kqr/internal/relstore"
	"kqr/internal/tatgraph"
)

// refOSA is an independent full-matrix optimal-string-alignment
// distance used to cross-check both osaDistance and the index's
// deletion-neighbourhood coverage.
func refOSA(a, b []rune) int {
	la, lb := len(a), len(b)
	d := make([][]int, la+1)
	for i := range d {
		d[i] = make([]int, lb+1)
		d[i][0] = i
	}
	for j := 0; j <= lb; j++ {
		d[0][j] = j
	}
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			v := d[i-1][j] + 1
			if x := d[i][j-1] + 1; x < v {
				v = x
			}
			if x := d[i-1][j-1] + cost; x < v {
				v = x
			}
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if x := d[i-2][j-2] + 1; x < v {
					v = x
				}
			}
			d[i][j] = v
		}
	}
	return d[la][lb]
}

func randWord(rng *rand.Rand, minLen, maxLen int) string {
	n := minLen + rng.Intn(maxLen-minLen+1)
	b := make([]rune, n)
	for i := range b {
		b[i] = rune('a' + rng.Intn(26))
	}
	return string(b)
}

// mutate applies `edits` random single-rune edits (delete, insert,
// substitute, transpose) to w.
func mutate(rng *rand.Rand, w string, edits int) string {
	r := []rune(w)
	for e := 0; e < edits; e++ {
		if len(r) == 0 {
			return string(r)
		}
		switch rng.Intn(4) {
		case 0: // delete
			i := rng.Intn(len(r))
			r = append(r[:i], r[i+1:]...)
		case 1: // insert
			i := rng.Intn(len(r) + 1)
			r = append(r[:i], append([]rune{rune('a' + rng.Intn(26))}, r[i:]...)...)
		case 2: // substitute
			i := rng.Intn(len(r))
			r[i] = rune('a' + rng.Intn(26))
		case 3: // transpose
			if len(r) > 1 {
				i := rng.Intn(len(r) - 1)
				r[i], r[i+1] = r[i+1], r[i]
			}
		}
	}
	return string(r)
}

func TestOSADistanceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		a := []rune(randWord(rng, 0, 10))
		b := []rune(mutate(rng, string(a), rng.Intn(4)))
		want := refOSA(a, b)
		got := osaDistance(a, b, maxDist)
		if want <= maxDist {
			if got != want {
				t.Fatalf("osaDistance(%q,%q)=%d want %d", string(a), string(b), got, want)
			}
		} else if got <= maxDist {
			t.Fatalf("osaDistance(%q,%q)=%d want >%d (ref %d)", string(a), string(b), got, maxDist, want)
		}
	}
}

func TestAllowedDist(t *testing.T) {
	cases := map[int]int{1: 0, 2: 0, 3: 1, 5: 1, 6: 2, 12: 2}
	for n, want := range cases {
		if got := AllowedDist(n); got != want {
			t.Fatalf("AllowedDist(%d)=%d want %d", n, got, want)
		}
	}
}

// TestLookupMatchesBruteForce proves the deletion-neighbourhood index
// finds exactly the terms a vocabulary scan would: no false
// negatives from the prefix optimisation, no false positives from
// unverified key collisions.
func TestLookupMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vocab := make([]string, 0, 160)
	seen := map[string]bool{}
	for _, w := range []string{"database", "systems", "probabilistic", "ranking", "query", "reformulation", "keyword", "structured"} {
		vocab, seen[w] = append(vocab, w), true
	}
	for len(vocab) < 160 {
		w := randWord(rng, 3, 12)
		if !seen[w] {
			vocab, seen[w] = append(vocab, w), true
		}
	}
	sort.Strings(vocab)
	freqs := make([]int, len(vocab))
	for i := range freqs {
		freqs[i] = 1 + rng.Intn(100)
	}
	ix := NewIndex(vocab, freqs)

	for trial := 0; trial < 600; trial++ {
		base := vocab[rng.Intn(len(vocab))]
		tok := mutate(rng, base, rng.Intn(3))
		if tok == "" {
			continue
		}
		allowed := AllowedDist(utf8.RuneCountInString(tok))
		want := map[string]int{}
		if seen[tok] {
			// Exact members return only themselves.
			want[tok] = 0
		} else {
			tr := []rune(tok)
			for _, v := range vocab {
				if d := refOSA(tr, []rune(v)); d <= allowed {
					want[v] = d
				}
			}
		}
		got := ix.Lookup(tok, len(vocab))
		gotMap := map[string]int{}
		for _, c := range got {
			gotMap[c.Term] = c.Dist
		}
		if len(gotMap) != len(want) {
			t.Fatalf("token %q (from %q): got %v want %v", tok, base, gotMap, want)
		}
		for term, d := range want {
			if gd, ok := gotMap[term]; !ok || gd != d {
				t.Fatalf("token %q: candidate %q got dist %d,%v want %d", tok, term, gd, ok, d)
			}
		}
	}
}

func TestLookupRanking(t *testing.T) {
	ix := NewIndex([]string{"ranking", "banking", "rankings"}, []int{5, 50, 2})
	// Exact member short-circuits to itself.
	got := ix.Lookup("ranking", 10)
	if len(got) != 1 || got[0].Term != "ranking" || got[0].Dist != 0 {
		t.Fatalf("exact lookup = %+v", got)
	}
	// Ranked output is deterministic and sorted by score.
	got = ix.Lookup("rankng", 10)
	if len(got) == 0 || got[0].Term != "ranking" {
		t.Fatalf("rankng lookup = %+v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatalf("ranking not sorted: %+v", got)
		}
	}
}

func TestIndexStats(t *testing.T) {
	ix := NewIndex([]string{"alpha", "beta", "gamma"}, nil)
	st := ix.IndexStats()
	if st.Terms != 3 || st.Keys == 0 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if ix.Bytes() != st.Bytes || ix.Len() != 3 {
		t.Fatalf("accessors disagree with stats: %d %d", ix.Bytes(), ix.Len())
	}
	if !ix.Has("alpha") || ix.Has("delta") {
		t.Fatal("membership wrong")
	}
	if ix.Freq("alpha") != 1 || ix.Freq("delta") != 0 {
		t.Fatal("freq wrong")
	}
}

func TestLookupShortTokenNoEdits(t *testing.T) {
	ix := NewIndex([]string{"ab", "cd"}, nil)
	if got := ix.Lookup("ax", 10); len(got) != 0 {
		t.Fatalf("2-rune token must admit no edits, got %+v", got)
	}
	if got := ix.Lookup("ab", 10); len(got) != 1 || got[0].Dist != 0 {
		t.Fatalf("exact short token = %+v", got)
	}
}

func TestDeletionKeysBounded(t *testing.T) {
	// C(7,2) + 7 + 1 = 29 variants, all distinct for distinct runes;
	// only the first keyPrefix runes generate them.
	for _, s := range []string{"abcdefg", "abcdefghij"} {
		got := variantSet(s, maxDist)
		if len(got) != 29 || got["abcdefg"] != 1 {
			t.Fatalf("%q: %d variants %v, want 29 distinct of the prefix", s, len(got), got)
		}
		for k, n := range got {
			if n != 1 {
				t.Fatalf("%q: variant %q emitted %d times", s, k, n)
			}
		}
	}
}

// variantSet collects variants' output for s as variant -> emissions.
func variantSet(s string, d int) map[string]int {
	got := map[string]int{}
	var buf []byte
	variants(s, d, &buf, func(key []byte) { got[string(key)]++ })
	return got
}

// refDeletions is the recursive reference for the deletion
// neighbourhood: it adds r and every string reachable from it by
// deleting at most d runes, never the empty string, to keys.
func refDeletions(r []rune, d int, keys map[string]struct{}) {
	keys[string(r)] = struct{}{}
	if d == 0 || len(r) <= 1 {
		return
	}
	for i := range r {
		buf := append(append([]rune{}, r[:i]...), r[i+1:]...)
		refDeletions(buf, d-1, keys)
	}
}

// TestDeletionKeysMatchesRecursive cross-checks the offset-based
// enumeration's variant set against a straightforward recursive
// reference, over repeated-rune and multi-byte inputs where byte
// slicing is easy to get wrong. Repeats are allowed here;
// TestIndexMatchesReference checks that the index drops them.
func TestDeletionKeysMatchesRecursive(t *testing.T) {
	for _, s := range []string{"a", "ab", "aab", "abcdefg", "aaaaaaa", "tümörs", "日本語デー"} {
		for d := 0; d <= maxDist; d++ {
			want := map[string]struct{}{}
			refDeletions([]rune(s), d, want)
			got := variantSet(s, d)
			if len(got) != len(want) {
				t.Fatalf("%q d=%d: got %d variants %v, want %d", s, d, len(got), got, len(want))
			}
			for k := range got {
				if _, ok := want[k]; !ok {
					t.Fatalf("%q d=%d: unexpected variant %q", s, d, k)
				}
			}
		}
	}
}

// TestIndexMatchesReference builds the deletion-neighbourhood index of
// two generated corpora's vocabularies and compares its key -> term ids
// map with one built from refDeletions over each term's first keyPrefix
// runes: the same keys, each with the ids of exactly the terms that
// generate it, strictly increasing.
func TestIndexMatchesReference(t *testing.T) {
	corpora := []struct {
		name string
		db   func() (*relstore.Database, error)
	}{
		{"dblpgen-p2000", func() (*relstore.Database, error) {
			c, err := dblpgen.Generate(dblpgen.Config{Seed: 1, Papers: 2000})
			if err != nil {
				return nil, err
			}
			return c.DB, nil
		}},
		{"catgen", func() (*relstore.Database, error) {
			c, err := catgen.Generate(catgen.Config{})
			if err != nil {
				return nil, err
			}
			return c.DB, nil
		}},
	}
	for _, c := range corpora {
		db, err := c.db()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		tg, err := tatgraph.Build(db, tatgraph.Options{Phrases: true})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		terms := tg.TermTexts()
		want := map[string][]int32{}
		for i, term := range terms {
			r := []rune(term)
			if len(r) > keyPrefix {
				r = r[:keyPrefix]
			}
			keys := map[string]struct{}{}
			refDeletions(r, maxDist, keys)
			for k := range keys {
				want[k] = append(want[k], int32(i))
			}
		}
		ix := NewIndex(terms, nil)
		if len(ix.dels) != len(want) {
			t.Fatalf("%s: index has %d keys, reference %d", c.name, len(ix.dels), len(want))
		}
		for k, at := range ix.dels {
			ids := ix.lists[at]
			if !slices.Equal(ids, want[k]) {
				t.Fatalf("%s: key %q lists %v, reference %v", c.name, k, ids, want[k])
			}
			for j := 1; j < len(ids); j++ {
				if ids[j] <= ids[j-1] {
					t.Fatalf("%s: key %q lists %v, not strictly increasing", c.name, k, ids)
				}
			}
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	vocab := make([]string, 2000)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("%s%d", randWord(rng, 4, 12), i%7)
	}
	ix := NewIndex(vocab, nil)
	toks := make([]string, 64)
	for i := range toks {
		toks[i] = mutate(rng, vocab[rng.Intn(len(vocab))], 1+rng.Intn(2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Lookup(toks[i%len(toks)], 8)
	}
}

// BenchmarkNewIndex builds the index over the dblpgen P=2000
// vocabulary.
func BenchmarkNewIndex(b *testing.B) {
	c, err := dblpgen.Generate(dblpgen.Config{Seed: 1, Papers: 2000})
	if err != nil {
		b.Fatal(err)
	}
	tg, err := tatgraph.Build(c.DB, tatgraph.Options{})
	if err != nil {
		b.Fatal(err)
	}
	terms := tg.TermTexts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewIndex(terms, nil)
	}
}
