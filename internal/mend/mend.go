package mend

import (
	"fmt"
	"strings"
)

// Action identifies what the mender did to one input token.
type Action uint8

// The possible per-token mend actions.
const (
	// ActionKeep passes a vocabulary-resident token through untouched.
	ActionKeep Action = iota
	// ActionSpell replaces a misspelled token with its best
	// edit-distance candidate.
	ActionSpell
	// ActionSplit decomposes a run-together token into vocabulary
	// words.
	ActionSplit
	// ActionMerge joins an over-split bigram back into one term.
	ActionMerge
	// ActionDrop removes a token no repair could map onto the
	// vocabulary.
	ActionDrop
)

// String returns the lowercase name of the action.
func (a Action) String() string {
	switch a {
	case ActionKeep:
		return "keep"
	case ActionSpell:
		return "spell"
	case ActionSplit:
		return "split"
	case ActionMerge:
		return "merge"
	case ActionDrop:
		return "drop"
	default:
		return fmt.Sprintf("action(%d)", uint8(a))
	}
}

// MarshalText encodes the action as its lowercase name, so JSON
// responses carry "spell" rather than an opaque number.
func (a Action) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText decodes a lowercase action name.
func (a *Action) UnmarshalText(b []byte) error {
	switch string(b) {
	case "keep":
		*a = ActionKeep
	case "spell":
		*a = ActionSpell
	case "split":
		*a = ActionSplit
	case "merge":
		*a = ActionMerge
	case "drop":
		*a = ActionDrop
	default:
		return fmt.Errorf("mend: unknown action %q", b)
	}
	return nil
}

// ContextScorer rates how well a candidate correction fits the rest
// of the query: anchor is a vocabulary term the query already
// contains, cand is the proposed correction, and the result is a
// non-negative affinity (larger means closer). Implementations must
// be safe for concurrent use; the engine wires this to the closeness
// store of the generation.
type ContextScorer func(anchor, cand string) float64

const (
	// maxCandidates bounds the ranked candidate list considered per
	// token.
	maxCandidates = 8
	// minScore is the acceptance threshold: a repair scoring below it
	// is rejected and the token dropped instead.
	minScore = 0.25
	// contextWeight scales the closeness-derived context bonus added to
	// candidate scores.
	contextWeight = 0.25
)

// Options configures a Mender's two hooks. The zero value is usable.
type Options struct {
	// Resolve optionally extends the "already valid" predicate beyond
	// exact index membership (e.g. the TAT graph's FindTerm, which
	// also folds plurals). Tokens for which Resolve reports true are
	// never altered.
	Resolve func(term string) bool
	// Context optionally rates candidate corrections against the
	// query's vocabulary-resident terms; see ContextScorer.
	Context ContextScorer
}

// TokenMend is the per-token provenance of one mend decision.
type TokenMend struct {
	// Original is the input token (or the two input tokens joined
	// with a space for ActionMerge) exactly as the user wrote it.
	Original string `json:"original"`
	// Terms are the vocabulary terms this token contributes to the
	// mended query; empty for ActionDrop.
	Terms []string `json:"terms,omitempty"`
	// Action is what the mender did.
	Action Action `json:"action"`
	// Confidence is the unit score of the chosen repair in [0,1];
	// 1 for kept tokens, 0 for dropped ones.
	Confidence float64 `json:"confidence"`
	// Candidates are the ranked corrections that were considered,
	// reported for transparency and for nearest-candidate hints.
	Candidates []Candidate `json:"candidates,omitempty"`
}

// Hint pairs an unmendable token with its nearest vocabulary
// candidates, for "did you mean" error responses.
type Hint struct {
	// Token is the unmendable input token.
	Token string `json:"token"`
	// Candidates are the nearest vocabulary terms, best first; empty
	// when nothing was within edit range.
	Candidates []string `json:"candidates,omitempty"`
}

// Result is the outcome of mending one query.
type Result struct {
	// Terms is the mended query: vocabulary-resident terms ready for
	// reformulation. Byte-identical to the input when Changed is
	// false. Empty when no token could be mapped onto the vocabulary.
	Terms []string `json:"terms"`
	// Tokens is the per-token provenance, in input order.
	Tokens []TokenMend `json:"tokens"`
	// Changed reports whether mending altered the query at all.
	Changed bool `json:"changed"`
	// Confidence is the lowest confidence among altered tokens, or 1
	// when nothing was altered.
	Confidence float64 `json:"confidence"`
}

// Hints returns nearest-candidate hints for every dropped token,
// keeping at most perToken candidates each.
func (r Result) Hints(perToken int) []Hint {
	if perToken <= 0 {
		perToken = 3
	}
	var hints []Hint
	for _, t := range r.Tokens {
		if t.Action != ActionDrop {
			continue
		}
		h := Hint{Token: t.Original}
		for _, c := range t.Candidates {
			if len(h.Candidates) == perToken {
				break
			}
			h.Candidates = append(h.Candidates, c.Term)
		}
		hints = append(hints, h)
	}
	return hints
}

// Mender mends queries against one generation's vocabulary. It holds
// no mutable state and is safe for concurrent use.
type Mender struct {
	ix   *Index
	opts Options
}

// New builds a Mender over the given index. The index must not be
// mutated afterwards.
func New(ix *Index, opts Options) *Mender {
	return &Mender{ix: ix, opts: opts}
}

// Index returns the underlying deletion-neighbourhood index.
func (m *Mender) Index() *Index { return m.ix }

// Bytes reports the estimated resident size of the mender's index,
// for memory-budget accounting.
func (m *Mender) Bytes() int64 { return m.ix.Bytes() }

// Stats reports the size summary of the mender's index.
func (m *Mender) Stats() Stats { return m.ix.IndexStats() }

// resolvable reports whether a token already names a vocabulary term
// (directly or through the optional Resolve hook). Such tokens are
// never altered.
func (m *Mender) resolvable(tok string) bool {
	if m.ix.Has(strings.ToLower(tok)) {
		return true
	}
	if m.opts.Resolve != nil {
		return m.opts.Resolve(tok)
	}
	return false
}

// choice is one DP option: repair tm consuming `consumed` input
// tokens at unit score `score` (per consumed token).
type choice struct {
	tm       TokenMend
	consumed int
	score    float64
}

// Mend repairs a tokenized query against the vocabulary. Tokens that
// already resolve are preserved byte-identically; unknown tokens are
// spell-corrected, split, merged with an unknown neighbour, or
// dropped, chosen by a deterministic DP over token boundaries that
// maximises the total repair score. Every term in the result resolves
// in the vocabulary, which makes Mend idempotent. Safe for concurrent
// use.
func (m *Mender) Mend(terms []string) Result {
	n := len(terms)
	if n == 0 {
		return Result{Confidence: 1}
	}
	known := make([]bool, n)
	allKnown := true
	for i, t := range terms {
		known[i] = m.resolvable(t)
		allKnown = allKnown && known[i]
	}
	toks := make([]TokenMend, 0, n)
	if allKnown {
		out := make([]string, n)
		copy(out, terms)
		for _, t := range terms {
			toks = append(toks, TokenMend{Original: t, Terms: []string{t}, Action: ActionKeep, Confidence: 1})
		}
		return Result{Terms: out, Tokens: toks, Changed: false, Confidence: 1}
	}

	// Anchors: up to two vocabulary-resident terms used to rate
	// candidate corrections by query context.
	var anchors []string
	for i, t := range terms {
		if known[i] && len(anchors) < 2 {
			anchors = append(anchors, strings.ToLower(t))
		}
	}

	// Backward DP over token positions. dp[i] is the best total score
	// for terms[i:], where a repair consuming c tokens at unit score s
	// contributes c*s — so merging two tokens competes fairly with
	// repairing each on its own. Ties prefer the single-token option
	// (fewest structural changes).
	dp := make([]float64, n+1)
	pick := make([]choice, n)
	for i := n - 1; i >= 0; i-- {
		sc := m.singleChoice(terms[i], known[i], anchors)
		best := sc.score + dp[i+1]
		pick[i] = sc
		if i+1 < n && (!known[i] || !known[i+1]) {
			if mc, ok := m.mergeChoice(terms[i], terms[i+1], anchors); ok {
				if v := 2*mc.score + dp[i+2]; v > best {
					best, pick[i] = v, mc
				}
			}
		}
		dp[i] = best
	}

	var out []string
	changed := false
	conf := 1.0
	for i := 0; i < n; {
		c := pick[i]
		toks = append(toks, c.tm)
		out = append(out, c.tm.Terms...)
		if c.tm.Action != ActionKeep {
			changed = true
			if c.tm.Confidence < conf {
				conf = c.tm.Confidence
			}
		}
		i += c.consumed
	}
	return Result{Terms: out, Tokens: toks, Changed: changed, Confidence: conf}
}

// singleChoice picks the best single-token repair: keep (known
// tokens), else the better of spell-correct and split, else drop.
func (m *Mender) singleChoice(tok string, isKnown bool, anchors []string) choice {
	if isKnown {
		return choice{
			tm:       TokenMend{Original: tok, Terms: []string{tok}, Action: ActionKeep, Confidence: 1},
			consumed: 1,
			score:    1,
		}
	}
	low := strings.ToLower(tok)
	cands := m.ix.Lookup(low, maxCandidates)
	m.applyContext(cands, anchors)
	spellScore := -1.0
	if len(cands) > 0 {
		spellScore = clamp1(cands[0].Score)
	}
	splitParts, splitScore, hasSplit := m.splitToken(low)
	if hasSplit && splitScore > spellScore && splitScore >= minScore {
		return choice{
			tm: TokenMend{
				Original: tok, Terms: splitParts, Action: ActionSplit,
				Confidence: splitScore, Candidates: capCands(cands),
			},
			consumed: 1,
			score:    splitScore,
		}
	}
	if spellScore >= minScore {
		return choice{
			tm: TokenMend{
				Original: tok, Terms: []string{cands[0].Term}, Action: ActionSpell,
				Confidence: spellScore, Candidates: capCands(cands),
			},
			consumed: 1,
			score:    spellScore,
		}
	}
	return choice{
		tm:       TokenMend{Original: tok, Action: ActionDrop, Candidates: capCands(cands)},
		consumed: 1,
		score:    0,
	}
}

// mergeChoice proposes re-joining an over-split bigram. At least one
// side must be unknown — merging two valid terms would rewrite a
// well-formed query and break byte-identical pass-through.
func (m *Mender) mergeChoice(a, b string, anchors []string) (choice, bool) {
	cands := m.joinCandidates(strings.ToLower(a), strings.ToLower(b), maxCandidates)
	m.applyContext(cands, anchors)
	if len(cands) == 0 {
		return choice{}, false
	}
	score := clamp1(cands[0].Score)
	if score < minScore {
		return choice{}, false
	}
	return choice{
		tm: TokenMend{
			Original: a + " " + b, Terms: []string{cands[0].Term}, Action: ActionMerge,
			Confidence: score, Candidates: capCands(cands),
		},
		consumed: 2,
		score:    score,
	}, true
}

// applyContext boosts candidate scores by their closeness to the
// query's anchor terms, normalised so the closest candidate gets the
// full contextWeight bonus, then re-sorts.
func (m *Mender) applyContext(cands []Candidate, anchors []string) {
	if m.opts.Context == nil || len(anchors) == 0 || len(cands) < 2 {
		return
	}
	raw := make([]float64, len(cands))
	maxRaw := 0.0
	for i, c := range cands {
		for _, a := range anchors {
			if v := m.opts.Context(a, c.Term); v > raw[i] {
				raw[i] = v
			}
		}
		if raw[i] > maxRaw {
			maxRaw = raw[i]
		}
	}
	if maxRaw <= 0 {
		return
	}
	for i := range cands {
		cands[i].Score += contextWeight * raw[i] / maxRaw
	}
	sortCandidates(cands)
}

// capCands bounds the provenance candidate list kept per token.
func capCands(cs []Candidate) []Candidate {
	const keep = 5
	if len(cs) > keep {
		cs = cs[:keep]
	}
	return cs
}

func clamp1(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}
