package kqr_test

import (
	"strings"
	"testing"
	"unicode"

	"kqr"
)

// FuzzParseQuery checks the query parser never panics, never returns
// empty or whitespace-padded terms, and that every term list it
// produces survives Suggestion.String → ParseQuery unchanged (the
// serializer quotes and escapes whatever the parser can emit).
func FuzzParseQuery(f *testing.F) {
	for _, seed := range []string{
		`a b c`, `"x y" z`, `"unbalanced`, `""`, `   `, `"a" "b c" d`,
		`tab	separated`, `"nested "quotes" here"`, `q"uote in the middle`,
		"newline\nseparated", "\"multi\nline term\"", `"escaped \" quote"`,
		`"back\\slash" \`, " nbsp ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		terms, err := kqr.ParseQuery(input)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		if len(terms) == 0 {
			t.Fatalf("ParseQuery(%q) returned no terms without error", input)
		}
		for _, term := range terms {
			if term == "" {
				t.Fatalf("ParseQuery(%q) produced an empty term", input)
			}
			if strings.TrimSpace(term) != term {
				t.Fatalf("ParseQuery(%q) produced padded term %q", input, term)
			}
		}
		again, err := kqr.ParseQuery(kqr.Suggestion{Terms: terms}.String())
		if err != nil {
			t.Fatalf("round-trip of %q failed: %v", input, err)
		}
		if len(again) != len(terms) {
			t.Fatalf("round-trip of %q: %v vs %v", input, again, terms)
		}
		for i := range terms {
			if again[i] != terms[i] {
				t.Fatalf("round-trip of %q: term %d %q vs %q", input, i, again[i], terms[i])
			}
		}
	})
}

// quoteTermRef is the rune-wise rendering of one term that
// Suggestion.String started from: the reference for its byte-wise scan.
func quoteTermRef(t string) string {
	if t != "" && !strings.ContainsFunc(t, unicode.IsSpace) && !strings.Contains(t, `"`) {
		return t
	}
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(t); i++ {
		if t[i] == '"' || t[i] == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(t[i])
	}
	b.WriteByte('"')
	return b.String()
}

// FuzzSuggestionString approaches the round-trip from the other side:
// arbitrary term lists (filtered to the engine's invariant of
// non-empty, untrimmed-equal terms) must survive String → ParseQuery.
// For any terms at all, String equals the reference rendering and
// AppendString appends exactly it.
func FuzzSuggestionString(f *testing.F) {
	f.Add("alice ames", "probabilistic", "x")
	f.Add(`he said "hi"`, "new\nline", `back\slash`)
	f.Add(`"`, `\`, `\"`)
	f.Add("nb\u00a0sp", "next\u0085line", "line\u2028sep")
	f.Add("v\vt", "f\ff", "caf\u00e9 \"x\"")
	f.Add("", "\xff\xa0", "\xc2")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		all := kqr.Suggestion{Terms: []string{a, b, c}}
		want := quoteTermRef(a) + " " + quoteTermRef(b) + " " + quoteTermRef(c)
		if got := all.String(); got != want {
			t.Fatalf("String() of %q = %q, reference %q", all.Terms, got, want)
		}
		if got := string(all.AppendString([]byte("q="))); got != "q="+want {
			t.Fatalf("AppendString of %q = %q", all.Terms, got)
		}
		var terms []string
		for _, term := range []string{a, b, c} {
			if term == "" || strings.TrimSpace(term) != term {
				continue
			}
			terms = append(terms, term)
		}
		if len(terms) == 0 {
			return
		}
		q := kqr.Suggestion{Terms: terms}.String()
		got, err := kqr.ParseQuery(q)
		if err != nil {
			t.Fatalf("ParseQuery(%q) for terms %q: %v", q, terms, err)
		}
		if len(got) != len(terms) {
			t.Fatalf("round-trip of %q via %q: got %q", terms, q, got)
		}
		for i := range terms {
			if got[i] != terms[i] {
				t.Fatalf("round-trip of %q via %q: term %d = %q", terms, q, i, got[i])
			}
		}
	})
}
