package textindex

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	tok := NewTokenizer()
	cases := []struct {
		in   string
		want []string
	}{
		{"Probabilistic Query Answering", []string{"probabilistic", "query", "answering"}},
		{"XML and the semi-structured data", []string{"xml", "semi", "structured", "data"}},
		{"top-k queries over uncertain data", []string{"top", "queries", "uncertain", "data"}},
		{"", nil},
		{"a of the", []string{}},
		{"  spaces\t\nand, punctuation!! ", []string{"spaces", "punctuation"}},
		{"R2D2 unit 42", []string{"r2d2", "unit", "42"}},
		{"x y-z 7 ab über ü", []string{"ab", "über"}},
	}
	for _, c := range cases {
		got := tok.Tokenize(c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalize(t *testing.T) {
	if got := Normalize("  Christian   S.  Jensen "); got != "christian s. jensen" {
		t.Fatalf("Normalize = %q", got)
	}
	if got := Normalize(""); got != "" {
		t.Fatalf("Normalize(empty) = %q", got)
	}
}

// Property: tokenization output only contains lowercase tokens of the
// minimum length, never stopwords.
func TestTokenizeInvariantsProperty(t *testing.T) {
	tok := NewTokenizer()
	f := func(s string) bool {
		for _, w := range tok.Tokenize(s) {
			if len([]rune(w)) < 2 {
				return false
			}
			if w != strings.ToLower(w) {
				return false
			}
			if stopwords[w] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPluralFolding(t *testing.T) {
	tok := NewTokenizer(WithPluralFolding())
	cases := map[string]string{
		"queries":  "query",
		"rules":    "rule",
		"indexes":  "index",
		"churches": "church",
		"classes":  "class",  // "sses" strips to "class"
		"class":    "class",  // ss untouched
		"status":   "status", // us untouched
		// "analysis" set below: ends in "is", untouched.
		"cats": "cat",
		"dogs": "dog",
	}
	// "analysis" ends in "is": untouched.
	cases["analysis"] = "analysis"
	for in, want := range cases {
		got := tok.Tokenize(in)
		if len(got) != 1 || got[0] != want {
			t.Errorf("Tokenize(%q) = %v, want [%s]", in, got, want)
		}
	}
	// Off by default.
	plain := NewTokenizer()
	if got := plain.Tokenize("queries"); got[0] != "queries" {
		t.Fatalf("default tokenizer folded: %v", got)
	}
}
