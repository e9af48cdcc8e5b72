package textindex

import (
	"strings"
	"testing"
	"unicode"
)

// FuzzTokenize checks the tokenizer never panics and always honors its
// output contract on arbitrary input.
func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"Probabilistic Query Answering", "semi-structured", "", "  ",
		"ünïcödé wörds", "数据库 systems", "a.b.c", strings.Repeat("x", 500),
	} {
		f.Add(seed)
	}
	tok := NewTokenizer()
	f.Fuzz(func(t *testing.T, input string) {
		for _, w := range tok.Tokenize(input) {
			if len([]rune(w)) < 2 {
				t.Fatalf("short token %q from %q", w, input)
			}
			for _, r := range w {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					t.Fatalf("token %q contains separator rune %q", w, r)
				}
				if unicode.IsUpper(r) {
					t.Fatalf("token %q not lowercased", w)
				}
			}
			if stopwords[w] {
				t.Fatalf("stopword %q leaked from %q", w, input)
			}
		}
		// Normalize is idempotent.
		n := Normalize(input)
		if Normalize(n) != n {
			t.Fatalf("Normalize not idempotent on %q", input)
		}
	})
}
