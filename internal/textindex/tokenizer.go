// Package textindex provides the text rules the TAT graph is built
// with: a tokenizer for segmented fields (lowercase, split on anything
// but letters and digits, drop stopwords and 1-rune fragments) and
// Normalize for atomic values. There is no inverted index beside the
// graph: a term node's tuple neighbours are its postings and the edge
// weight is the term frequency (package tatgraph).
package textindex

import (
	"strings"
	"unicode"
)

// stopwords is a compact English stopword list tuned for titles
// and short attribute text; it removes glue words without erasing
// domain terms.
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "by": true, "for": true, "from": true, "has": true, "in": true,
	"is": true, "it": true, "its": true, "of": true, "on": true, "or": true,
	"that": true, "the": true, "to": true, "was": true, "were": true,
	"with": true, "via": true, "using": true, "toward": true, "towards": true,
	"based": true, "over": true, "under": true, "into": true, "about": true,
}

// minTokenLen is the number of runes a token needs to survive.
const minTokenLen = 2

// Tokenizer splits text into lowercase terms, dropping stopwords and
// single-character fragments. Construct with NewTokenizer.
type Tokenizer struct {
	foldPlurals bool
}

// TokenizerOption customizes a Tokenizer.
type TokenizerOption func(*Tokenizer)

// WithPluralFolding makes the tokenizer fold regular English plurals
// onto their singular ("queries"→"query", "indexes"→"index",
// "rules"→"rule") so both forms share one term node. The rules are
// deliberately conservative: words ending in "ss"/"us"/"is" are left
// alone, and nothing shorter than four runes is touched.
func WithPluralFolding() TokenizerOption {
	return func(t *Tokenizer) { t.foldPlurals = true }
}

// foldPlural applies the conservative singularization rules.
func foldPlural(w string) string {
	if len(w) < 4 || !strings.HasSuffix(w, "s") {
		return w
	}
	switch {
	case strings.HasSuffix(w, "ss"), strings.HasSuffix(w, "us"), strings.HasSuffix(w, "is"):
		return w
	case strings.HasSuffix(w, "ies") && len(w) > 4:
		return w[:len(w)-3] + "y"
	case strings.HasSuffix(w, "xes"), strings.HasSuffix(w, "ches"), strings.HasSuffix(w, "shes"), strings.HasSuffix(w, "sses"):
		return w[:len(w)-2]
	default:
		return w[:len(w)-1]
	}
}

// NewTokenizer returns a tokenizer with the English stopword list,
// optionally folding plurals.
func NewTokenizer(opts ...TokenizerOption) *Tokenizer {
	t := &Tokenizer{}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Tokenize splits text on any non-letter/digit rune, lowercases the
// pieces, and drops stopwords and too-short tokens. Duplicates are
// preserved (callers needing term frequency count them).
func (t *Tokenizer) Tokenize(text string) []string {
	if text == "" {
		return nil
	}
	fields := strings.FieldsFunc(text, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	out := make([]string, 0, len(fields))
	for _, f := range fields {
		w := strings.ToLower(f)
		if len([]rune(w)) < minTokenLen || stopwords[w] {
			continue
		}
		if t.foldPlurals {
			w = foldPlural(w)
		}
		out = append(out, w)
	}
	return out
}

// Normalize lowercases and collapses internal whitespace; used for
// atomic (non-segmented) values such as author names so that lookups are
// case- and spacing-insensitive.
func Normalize(text string) string {
	return strings.Join(strings.Fields(strings.ToLower(text)), " ")
}
