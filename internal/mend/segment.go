package mend

// Segmentation: recovering word boundaries the user lost. A
// run-together token ("databasesystems") is split back into
// vocabulary words by a deterministic dynamic program over rune
// boundaries; an over-split bigram ("datab ase") is re-merged by the
// token-level DP in mend.go, which consults joinCandidates below.

const (
	// splitMinPart is the minimum rune length of each split part;
	// shorter fragments are never vocabulary members (the tokenizer
	// drops tokens under two runes) and splitting into them would let
	// noise leak through.
	splitMinPart = 2
	// splitMaxParts caps how many words one token may split into.
	splitMaxParts = 4
	// splitMaxRunes caps the token length the split DP will consider;
	// longer tokens are almost certainly not run-together vocabulary
	// words and the DP cost would be wasted.
	splitMaxRunes = 64
	// splitPenalty discounts each additional word a split introduces,
	// so a two-word split must clearly beat noisier decompositions.
	splitPenalty = 0.85
)

// splitToken tries to decompose a lowercased token into two or more
// exact vocabulary members covering all of its runes. It returns the
// parts, a confidence in (0,1], and whether a decomposition exists.
// The DP maximises the product of per-word scores (frequency-weighted)
// discounted by splitPenalty per extra word, and is deterministic:
// ties prefer fewer parts, then the longer word at each boundary.
func (m *Mender) splitToken(tok string) ([]string, float64, bool) {
	// Rune start offsets let every candidate word be a zero-copy slice
	// of tok; the DP probes O(n²) substrings and must not allocate one
	// string per probe.
	var off [splitMaxRunes + 1]int
	n := 0
	for i := range tok {
		if n == splitMaxRunes {
			return nil, 0, false
		}
		off[n] = i
		n++
	}
	off[n] = len(tok)
	if n < 2*splitMinPart {
		return nil, 0, false
	}
	// best[i][k]: best score decomposing r[i:] into exactly k words;
	// cut[i][k]: the boundary that achieves it. Computed backwards.
	type cell struct {
		score float64
		cut   int
	}
	best := make([][splitMaxParts + 1]cell, n+1)
	for i := range best {
		for k := range best[i] {
			best[i][k] = cell{score: -1, cut: -1}
		}
	}
	best[n][0] = cell{score: 1, cut: n}
	for i := n - splitMinPart; i >= 0; i-- {
		for j := i + splitMinPart; j <= n; j++ {
			word := tok[off[i]:off[j]]
			if !m.ix.hasFiltered(word, j-i) {
				continue
			}
			w := 0.5 + float64(0.5*m.ix.FreqNorm(word))
			for k := 1; k <= splitMaxParts; k++ {
				rest := best[j][k-1]
				if rest.score < 0 {
					continue
				}
				s := w * rest.score
				c := &best[i][k]
				// On score ties prefer the longer word at this
				// position (larger j) so the DP stays deterministic.
				if s > c.score || (s == c.score && j > c.cut) {
					*c = cell{score: s, cut: j}
				}
			}
		}
	}
	bestK, bestScore := 0, -1.0
	for k := 2; k <= splitMaxParts; k++ {
		if best[0][k].score < 0 {
			continue
		}
		s := best[0][k].score * pow(splitPenalty, k-1)
		if s > bestScore {
			bestK, bestScore = k, s
		}
	}
	if bestK == 0 {
		return nil, 0, false
	}
	parts := make([]string, 0, bestK)
	i := 0
	for k := bestK; k > 0; k-- {
		j := best[i][k].cut
		parts = append(parts, tok[off[i]:off[j]])
		i = j
	}
	if bestScore > 1 {
		bestScore = 1
	}
	return parts, bestScore, true
}

// joinCandidates proposes corrections for an over-split bigram: the
// two tokens joined directly ("datab"+"ase" → "datab ase" was really
// "database") and, for multi-word vocabulary entries, joined with a
// space. Exact members win outright; otherwise a distance-1 spell
// lookup of the joined forms is allowed. Returns ranked candidates
// (already context-free; the caller applies context boosts).
func (m *Mender) joinCandidates(a, b string, max int) []Candidate {
	var out []Candidate
	forms := [2]string{a + b, ""}
	nforms := 1
	// A spaced join can only ever match a multi-word vocabulary entry
	// (every single-word candidate within one edit of "a b" is a+b
	// itself, which the direct form already finds at distance 0), so
	// skip it entirely when the vocabulary has none.
	if m.ix.hasSpace {
		forms[1] = a + " " + b
		nforms = 2
	}
	for _, joined := range forms[:nforms] {
		if m.ix.Has(joined) {
			out = append(out, Candidate{
				Term:  joined,
				Dist:  0,
				Freq:  m.ix.Freq(joined),
				Score: m.ix.score(0, m.ix.Freq(joined)),
			})
			continue
		}
		// A merge already asserts a structural change; allow only one
		// further edit so "datab"+"ase" can still reach "database"
		// when the split also ate a rune.
		out = append(out, m.ix.LookupDist(joined, 1, max)...)
	}
	sortCandidates(out)
	out = dedupCandidates(out)
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// dedupCandidates drops repeated terms, keeping the first (highest
// ranked) occurrence. The input must already be sorted.
func dedupCandidates(cs []Candidate) []Candidate {
	if len(cs) < 2 {
		return cs
	}
	seen := make(map[string]struct{}, len(cs))
	out := cs[:0]
	for _, c := range cs {
		if _, dup := seen[c.Term]; dup {
			continue
		}
		seen[c.Term] = struct{}{}
		out = append(out, c)
	}
	return out
}

// pow is a tiny integer-exponent power helper (avoids math.Pow for
// the handful of penalty applications in the split DP).
func pow(x float64, n int) float64 {
	p := 1.0
	for ; n > 0; n-- {
		p *= x
	}
	return p
}
