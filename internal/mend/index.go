package mend

import (
	"math"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"
)

const (
	// maxDist is the largest edit distance the index can answer.
	maxDist = 2
	// keyPrefix bounds the deletion neighbourhood: only the first
	// keyPrefix runes of a term generate deletion variants, which caps
	// the number of keys per term at C(7,2)+7+1 = 29 regardless of
	// term length (the classic SymSpell prefix optimisation).
	keyPrefix = 7
)

// Candidate is one ranked correction proposed by the index for a
// token that does not resolve in the vocabulary.
type Candidate struct {
	// Term is the vocabulary term proposed as the correction.
	Term string `json:"term"`
	// Dist is the Damerau-Levenshtein (optimal string alignment)
	// distance between the looked-up token and Term.
	Dist int `json:"dist"`
	// Freq is the corpus frequency of Term (term-node degree in the
	// TAT graph).
	Freq int `json:"freq"`
	// Score is the ranking score: closeness of the edit blended with
	// normalised corpus frequency, optionally boosted by query-context
	// closeness at the Mender level. Higher is better.
	Score float64 `json:"score"`
}

// Stats summarises the size of a deletion-neighbourhood index.
type Stats struct {
	// Terms is the number of vocabulary terms indexed.
	Terms int `json:"terms"`
	// Keys is the number of distinct deletion-variant keys.
	Keys int `json:"keys"`
	// Bytes is the estimated resident size of the index.
	Bytes int64 `json:"bytes"`
}

// Index is a SymSpell-style deletion-neighbourhood index over a
// vocabulary. It is immutable after construction and safe for
// concurrent lookups.
type Index struct {
	terms   []string
	freqs   []int
	byTerm  map[string]int32
	dels    map[string]int32 // deletion-variant key → index of its term-id list in lists
	lists   [][]int32        // term ids per key, strictly increasing
	logMax  float64
	bytes   int64
	maxFreq int
	// runeLens caches each term's rune length (capped at 255) so
	// lookups reject out-of-range candidates before decoding them.
	runeLens []uint8
	// pref2len is a negative filter for membership probes: bit L of
	// pref2len[c0][c1] is set when some term of rune length L (capped
	// at 63) starts with the ASCII letters c0 c1. Probes whose first
	// two bytes are lowercase ASCII and whose bit is clear cannot be
	// members; all other probes fall through to the byTerm map, so
	// terms outside the a-z/a-z scheme are never filtered away.
	pref2len [26][26]uint64
	// hasSpace records whether any vocabulary entry is multi-word;
	// when none is, merge lookups skip the spaced join form entirely.
	hasSpace bool
	// scratch pools per-lookup working state (deletion keys, rune
	// buffers, OSA rows, candidate marks) so the query hot path does
	// not allocate per call.
	scratch sync.Pool
}

// lookupScratch is the reusable working state of one LookupDist call.
type lookupScratch struct {
	ids  []int32
	mark []bool
	tr   []rune
	cr   []rune
	buf  []byte
	rows [3][]int
}

// NewIndex builds the deletion-neighbourhood index for the given
// vocabulary. terms must be the canonical (normalised, lowercase)
// vocabulary texts; freqs[i] is the corpus frequency of terms[i] and
// may be nil, in which case every term gets frequency 1. The input
// slices are copied.
func NewIndex(terms []string, freqs []int) *Index {
	ix := &Index{
		terms:    make([]string, len(terms)),
		freqs:    make([]int, len(terms)),
		byTerm:   make(map[string]int32, len(terms)),
		dels:     make(map[string]int32),
		runeLens: make([]uint8, len(terms)),
	}
	copy(ix.terms, terms)
	for i := range ix.terms {
		f := 1
		if freqs != nil && i < len(freqs) && freqs[i] > 0 {
			f = freqs[i]
		}
		ix.freqs[i] = f
		if f > ix.maxFreq {
			ix.maxFreq = f
		}
		t := ix.terms[i]
		ix.byTerm[t] = int32(i)
		if strings.ContainsRune(t, ' ') {
			ix.hasSpace = true
		}
		rl := utf8.RuneCountInString(t)
		if rl > 255 {
			rl = 255
		}
		ix.runeLens[i] = uint8(rl)
		if len(t) >= 2 && isLower(t[0]) && isLower(t[1]) {
			bit := rl
			if bit > 63 {
				bit = 63
			}
			ix.pref2len[t[0]-'a'][t[1]-'a'] |= 1 << bit
		}
	}
	// Terms are indexed in id order, so every id list comes out strictly
	// increasing — the deterministic candidate order — once an id that
	// repeats a variant (a repeated rune) is skipped.
	// A variant whose key is already known is a map lookup, which
	// converts its bytes without allocating, and an append to its list;
	// only a new key becomes a string.
	var buf []byte
	for i, t := range ix.terms {
		id := int32(i)
		variants(t, maxDist, &buf, func(key []byte) {
			at, ok := ix.dels[string(key)]
			if !ok {
				at = int32(len(ix.lists))
				ix.dels[string(key)] = at
				ix.lists = append(ix.lists, nil)
			}
			if ids := ix.lists[at]; len(ids) == 0 || ids[len(ids)-1] != id {
				ix.lists[at] = append(ids, id)
			}
		})
	}
	ix.logMax = math.Log1p(float64(ix.maxFreq))
	ix.bytes = ix.estimateBytes()
	ix.scratch.New = func() any {
		return &lookupScratch{mark: make([]bool, len(ix.terms))}
	}
	return ix
}

// Len reports the number of vocabulary terms indexed.
func (ix *Index) Len() int { return len(ix.terms) }

// Bytes reports the estimated resident size of the index, for
// memory-budget accounting (disk mode subtracts this from the table
// budget).
func (ix *Index) Bytes() int64 { return ix.bytes }

// IndexStats reports the size summary of the index.
func (ix *Index) IndexStats() Stats {
	return Stats{Terms: len(ix.terms), Keys: len(ix.dels), Bytes: ix.bytes}
}

// Has reports whether term is an exact member of the indexed
// vocabulary. The term is compared as given; callers normalise first.
func (ix *Index) Has(term string) bool {
	_, ok := ix.byTerm[term]
	return ok
}

// hasFiltered is Has with the pref2len negative filter in front: the
// segmentation DP probes O(n²) substrings per token and most probes
// can be rejected on (first two letters, rune length) without hashing.
// runeLen is the probe's rune count, passed in because the caller
// already knows it.
func (ix *Index) hasFiltered(term string, runeLen int) bool {
	if len(term) >= 2 && isLower(term[0]) && isLower(term[1]) {
		bit := runeLen
		if bit > 63 {
			bit = 63
		}
		if ix.pref2len[term[0]-'a'][term[1]-'a']&(1<<bit) == 0 {
			return false
		}
	}
	_, ok := ix.byTerm[term]
	return ok
}

func isLower(c byte) bool { return 'a' <= c && c <= 'z' }

// Freq returns the corpus frequency of an exact vocabulary member, or
// 0 when the term is not indexed.
func (ix *Index) Freq(term string) int {
	i, ok := ix.byTerm[term]
	if !ok {
		return 0
	}
	return ix.freqs[i]
}

// FreqNorm returns the log-normalised frequency of an exact
// vocabulary member in [0,1], or 0 when the term is not indexed.
func (ix *Index) FreqNorm(term string) float64 {
	i, ok := ix.byTerm[term]
	if !ok {
		return 0
	}
	return ix.freqNorm(ix.freqs[i])
}

func (ix *Index) freqNorm(f int) float64 {
	if ix.logMax <= 0 {
		return 1
	}
	return math.Log1p(float64(f)) / ix.logMax
}

// AllowedDist reports the maximum edit distance the index accepts for
// a token of the given rune length: very short tokens admit no edits
// (too many false friends), mid-length tokens one, and tokens of six
// or more runes the full two.
func AllowedDist(runeLen int) int {
	switch {
	case runeLen <= 2:
		return 0
	case runeLen <= 5:
		return 1
	default:
		return maxDist
	}
}

// Lookup returns up to max ranked correction candidates for token at
// the edit-distance cap AllowedDist allows for its length. The token
// is lowercased before matching; an exact vocabulary member returns
// itself as a single distance-0 candidate. The result order is
// deterministic: score descending, then distance ascending, frequency
// descending, term ascending.
func (ix *Index) Lookup(token string, max int) []Candidate {
	if max <= 0 {
		max = 8
	}
	tok := strings.ToLower(token)
	if i, ok := ix.byTerm[tok]; ok {
		return []Candidate{{
			Term:  ix.terms[i],
			Dist:  0,
			Freq:  ix.freqs[i],
			Score: ix.score(0, ix.freqs[i]),
		}}
	}
	return ix.LookupDist(tok, AllowedDist(utf8.RuneCountInString(tok)), max)
}

// LookupDist is Lookup with an explicit edit-distance cap (clamped to
// the index maximum of 2). The token must already be lowercased.
func (ix *Index) LookupDist(tok string, cap, max int) []Candidate {
	if cap > maxDist {
		cap = maxDist
	}
	if cap < 0 || tok == "" {
		return nil
	}
	if max <= 0 {
		max = 8
	}
	sc := ix.scratch.Get().(*lookupScratch)
	sc.tr = appendRunes(sc.tr, tok)
	var out []Candidate
	consider := func(id int32) {
		if sc.mark[id] {
			return
		}
		sc.mark[id] = true
		sc.ids = append(sc.ids, id)
		// The cached rune length saturates at 255; such terms skip the
		// pre-filter and are measured exactly below.
		if rl := int(ix.runeLens[id]); rl < 255 && abs(rl-len(sc.tr)) > cap {
			return
		}
		term := ix.terms[id]
		sc.cr = appendRunes(sc.cr, term)
		if abs(len(sc.cr)-len(sc.tr)) > cap {
			return
		}
		d := osaRows(sc.tr, sc.cr, cap, &sc.rows)
		if d > cap {
			return
		}
		out = append(out, Candidate{
			Term:  term,
			Dist:  d,
			Freq:  ix.freqs[id],
			Score: ix.score(d, ix.freqs[id]),
		})
	}
	// Only dels is probed: a term that equals a variant has at most
	// keyPrefix runes, so it is its own zero-deletion key and dels lists
	// it there. A repeated variant costs a redundant probe; the mark
	// array dedups candidates.
	variants(tok, cap, &sc.buf, func(key []byte) {
		if at, ok := ix.dels[string(key)]; ok {
			for _, id := range ix.lists[at] {
				consider(id)
			}
		}
	})
	for _, id := range sc.ids {
		sc.mark[id] = false
	}
	sc.ids = sc.ids[:0]
	ix.scratch.Put(sc)
	sortCandidates(out)
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// score blends the closeness of the edit with the normalised corpus
// frequency: a distance-0 hit of the most frequent term scores 1.0.
func (ix *Index) score(dist, freq int) float64 {
	return 1 / float64(1+dist) * (0.55 + float64(0.45*ix.freqNorm(freq)))
}

// sortCandidates orders candidates deterministically: score
// descending, distance ascending, frequency descending, term
// ascending.
func sortCandidates(cs []Candidate) {
	sort.Slice(cs, func(a, b int) bool {
		if cs[a].Score != cs[b].Score {
			return cs[a].Score > cs[b].Score
		}
		if cs[a].Dist != cs[b].Dist {
			return cs[a].Dist < cs[b].Dist
		}
		if cs[a].Freq != cs[b].Freq {
			return cs[a].Freq > cs[b].Freq
		}
		return cs[a].Term < cs[b].Term
	})
}

// prefixOf returns the first keyPrefix runes of s (all of s when it
// is shorter).
func prefixOf(s string) string {
	n := 0
	for i := range s {
		if n == keyPrefix {
			return s[:i]
		}
		n++
	}
	return s
}

// variants calls fn with each deletion variant of s's first keyPrefix
// runes: that prefix itself, then every string reachable from it by
// deleting up to d runes (d at most maxDist), never the empty string.
// Each variant is written into *buf, reused across calls, so fn must
// not keep it. A variant repeats when the prefix repeats a rune.
func variants(s string, d int, buf *[]byte, fn func(key []byte)) {
	p := prefixOf(s)
	b := append((*buf)[:0], p...)
	fn(b)
	var off [keyPrefix + 1]int
	n := 0
	for i := range p {
		off[n] = i
		n++
	}
	off[n] = len(p)
	for i := 0; d >= 1 && n > 1 && i < n; i++ {
		b = append(append(b[:0], p[:off[i]]...), p[off[i+1]:]...)
		fn(b)
		for j := i + 1; d >= 2 && n > 2 && j < n; j++ {
			b = append(append(append(b[:0], p[:off[i]]...), p[off[i+1]:off[j]]...), p[off[j+1]:]...)
			fn(b)
		}
	}
	*buf = b
}

// appendRunes decodes s into dst[:0], reusing its capacity.
func appendRunes(dst []rune, s string) []rune {
	dst = dst[:0]
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

// osaDistance computes the optimal-string-alignment variant of the
// Damerau-Levenshtein distance between a and b (each single-rune
// insertion, deletion, substitution, or adjacent transposition costs
// one). It returns bound+1 as soon as the distance provably exceeds
// bound.
func osaDistance(a, b []rune, bound int) int {
	var rows [3][]int
	return osaRows(a, b, bound, &rows)
}

// osaRows is osaDistance with caller-owned rolling rows, so the lookup
// hot path verifies candidates without per-call allocations.
func osaRows(a, b []rune, bound int, rows *[3][]int) int {
	if abs(len(a)-len(b)) > bound {
		return bound + 1
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	// Three rolling rows: transposition looks two rows back.
	w := len(b) + 1
	for i := range rows {
		if cap(rows[i]) < w {
			rows[i] = make([]int, w)
		}
	}
	prev2 := rows[0][:w]
	prev := rows[1][:w]
	cur := rows[2][:w]
	for j := 0; j <= len(b); j++ {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		best := cur[0]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			v := prev[j] + 1 // deletion
			if ins := cur[j-1] + 1; ins < v {
				v = ins // insertion
			}
			if sub := prev[j-1] + cost; sub < v {
				v = sub // substitution
			}
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if tr := prev2[j-2] + 1; tr < v {
					v = tr // adjacent transposition
				}
			}
			cur[j] = v
			if v < best {
				best = v
			}
		}
		if best > bound {
			return bound + 1
		}
		prev2, prev, cur = prev, cur, prev2
	}
	d := prev[len(b)]
	if d > bound {
		return bound + 1
	}
	return d
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// estimateBytes approximates the resident size of the index: string
// headers and bytes, map buckets, and candidate-id slices.
func (ix *Index) estimateBytes() int64 {
	var n int64
	for _, t := range ix.terms {
		n += int64(len(t)) + 16 // bytes + string header
	}
	n += int64(len(ix.freqs)) * 8
	n += int64(len(ix.runeLens))
	n += 26 * 26 * 8 // pref2len
	// byTerm: key header + ~16 bytes of bucket overhead per entry
	// (keys share backing bytes with terms).
	n += int64(len(ix.byTerm)) * 32
	for key, at := range ix.dels {
		n += int64(len(key)) + 16 // key bytes + header
		n += int64(len(ix.lists[at]))*4 + 24
		n += 32 // bucket overhead
	}
	return n
}
