package kqr

import (
	"errors"
	"fmt"
	"strings"

	"kqr/internal/mend"
)

// ErrMendDisabled is returned by Mend and ReformulateMended when the
// engine was opened without Options.Mend. Match it with errors.Is.
var ErrMendDisabled = errors.New("kqr: query mending disabled (open with Options.Mend)")

// ErrNoKnownTerms is the sentinel matched (errors.Is) when a query
// resolves to zero vocabulary terms even after mending. The concrete
// error is a *NoKnownTermsError carrying nearest-candidate hints.
var ErrNoKnownTerms = errors.New("kqr: no query term occurs in the data")

// NoKnownTermsError reports a query none of whose tokens could be
// mapped onto the vocabulary, with "did you mean" hints for each.
// It unwraps to ErrNoKnownTerms.
type NoKnownTermsError struct {
	// Query is the original query terms as given.
	Query []string
	// Hints pairs each unmendable token with its nearest vocabulary
	// candidates (may be empty when nothing was within edit range).
	Hints []MendHint
}

// Error renders the query and, when present, the nearest candidates.
func (e *NoKnownTermsError) Error() string {
	msg := fmt.Sprintf("kqr: no term of query %q occurs in the data", strings.Join(e.Query, " "))
	var cands []string
	for _, h := range e.Hints {
		cands = append(cands, h.Candidates...)
	}
	if len(cands) > 0 {
		msg += fmt.Sprintf(" (nearest: %s)", strings.Join(cands, ", "))
	}
	return msg
}

// Unwrap makes errors.Is(err, ErrNoKnownTerms) match.
func (e *NoKnownTermsError) Unwrap() error { return ErrNoKnownTerms }

// MendResult is the outcome of mending one query: the repaired terms,
// per-token provenance, and an overall confidence. Re-exported from
// internal/mend for the public API surface.
type MendResult = mend.Result

// MendedToken is the per-token provenance of one mend decision.
type MendedToken = mend.TokenMend

// MendCandidate is one ranked correction considered for a token.
type MendCandidate = mend.Candidate

// MendHint pairs an unmendable token with its nearest vocabulary
// candidates.
type MendHint = mend.Hint

// MendAction identifies what the mender did to one token (keep,
// spell, split, merge, drop).
type MendAction = mend.Action

// The mend actions, re-exported so callers can match TokenMend
// provenance without importing internal packages.
const (
	// MendKeep passed a vocabulary-resident token through untouched.
	MendKeep MendAction = mend.ActionKeep
	// MendSpell replaced a misspelled token with a correction.
	MendSpell MendAction = mend.ActionSpell
	// MendSplit decomposed a run-together token into vocabulary words.
	MendSplit MendAction = mend.ActionSplit
	// MendMerge joined an over-split bigram back into one term.
	MendMerge MendAction = mend.ActionMerge
	// MendDrop removed a token no repair could map onto the vocabulary.
	MendDrop MendAction = mend.ActionDrop
)

// MendStats summarises the size of the current generation's mending
// index.
type MendStats = mend.Stats

// Mend repairs a query against the current generation's vocabulary:
// vocabulary-resident tokens pass through byte-identically, while
// misspelled tokens are corrected against the deletion-neighbourhood
// index, run-together tokens are split, over-split bigrams re-merged,
// and hopeless tokens dropped. Mending is idempotent and every term
// in the result resolves in the vocabulary, so the result can be
// handed to Reformulate directly. Requires Options.Mend
// (ErrMendDisabled otherwise).
func (e *Engine) Mend(terms []string) (MendResult, error) {
	g := e.cur()
	if g.Mender == nil {
		return MendResult{}, ErrMendDisabled
	}
	return g.Mender.Mend(terms), nil
}

// ReformulateMended mends the query first and reformulates the
// repaired terms, returning the suggestions together with the mend
// provenance. A query that mends to zero vocabulary terms returns a
// *NoKnownTermsError (matching ErrNoKnownTerms) carrying
// nearest-candidate hints instead of an empty suggestion list.
// Requires Options.Mend (ErrMendDisabled otherwise).
func (e *Engine) ReformulateMended(terms []string, k int) ([]Suggestion, MendResult, error) {
	g := e.cur()
	if g.Mender == nil {
		return nil, MendResult{}, ErrMendDisabled
	}
	res := g.Mender.Mend(terms)
	if len(res.Terms) == 0 {
		return nil, res, &NoKnownTermsError{Query: terms, Hints: res.Hints(3)}
	}
	sugs, err := collectSuggestions(g.Core.VisitReformulations, res.Terms, k)
	return sugs, res, err
}

// MendStats reports the size of the current generation's mending
// index; ok is false when the engine was opened without Options.Mend.
func (e *Engine) MendStats() (stats MendStats, ok bool) {
	g := e.cur()
	if g.Mender == nil {
		return MendStats{}, false
	}
	return g.Mender.Stats(), true
}
