package core

import (
	"slices"

	"kqr/internal/graph"
	"kqr/internal/hmm"
)

// queryScratch owns every buffer the per-query hot path writes: slot
// candidate lists, the HMM's emission/initial/transition storage (flat,
// each step's column and table a window of one buffer), the flat
// hmm.Decoder and the filter its paths go through. Engines recycle
// scratches through a sync.Pool, so after a few warm-up queries the
// whole online stage — query resolution and candidate fetch through the
// filtered top-k rows — runs without touching the heap.
type queryScratch struct {
	qnodes []graph.NodeID // the resolved query
	slots  []slot

	emit    [][]float64
	emitBuf []float64
	pi      []float64

	// Per-step transition tables: trans[c] is step c's row-major table,
	// a window of transBuf; trans[0] is unused.
	trans    [][]float64
	transBuf []float64

	model hmm.Model
	dec   hmm.Decoder

	// rows filters decoded paths as the decoder completes them: accept
	// is Engine.acceptPath bound to this scratch, want the row count at
	// which it stops the decode.
	rows   rowFilter
	accept func(hmm.Path) bool
	want   int
}

// rowFilter is the filter between an enumeration of candidate queries
// (decoded HMM paths, or the rank-based baseline's combinations) and
// the reformulations a caller sees: it drops the identity query, empty
// rows and repeated term-text sequences — distinct nodes may carry the
// same text in different fields — and holds what it accepted, flat, so
// that filtering allocates nothing once its slices have grown. A row is
// pushed term by term and then committed.
type rowFilter struct {
	terms  []string // all accepted rows, then the pending one
	nodes  []graph.NodeID
	end    []int32 // end[i] is where accepted row i stops in terms/nodes
	scores []float64
	hashes []uint64 // FNV-1a of each accepted row's texts: the cheap half of the duplicate test
}

func (f *rowFilter) reset() {
	f.terms, f.nodes = f.terms[:0], f.nodes[:0]
	f.end, f.scores, f.hashes = f.end[:0], f.scores[:0], f.hashes[:0]
}

// len is the number of accepted rows.
func (f *rowFilter) len() int { return len(f.end) }

// start is where row i begins.
func (f *rowFilter) start(i int) int {
	if i == 0 {
		return 0
	}
	return int(f.end[i-1])
}

// push adds one term to the pending row.
func (f *rowFilter) push(v graph.NodeID, text string) {
	f.nodes = append(f.nodes, v)
	f.terms = append(f.terms, text)
}

// commit closes the pending row: accepted with its score unless it is
// the identity query, empty, or repeats an accepted row's texts.
func (f *rowFilter) commit(score float64, identity bool) {
	lo := f.start(len(f.end))
	row := f.terms[lo:]
	keep := !identity && len(row) > 0
	var h uint64
	if keep {
		h = hashTexts(row)
		for i, hi := range f.hashes {
			if hi == h && slices.Equal(f.terms[f.start(i):f.end[i]], row) {
				keep = false
				break
			}
		}
	}
	if !keep {
		f.terms, f.nodes = f.terms[:lo], f.nodes[:lo]
		return
	}
	f.end = append(f.end, int32(len(f.terms)))
	f.scores = append(f.scores, score)
	f.hashes = append(f.hashes, h)
}

// visit hands the accepted rows to v, in acceptance order.
func (f *rowFilter) visit(v Visitor) {
	n := len(f.end)
	for i := 0; i < n; i++ {
		lo, hi := f.start(i), int(f.end[i])
		v(i, n, Reformulation{Terms: f.terms[lo:hi:hi], Nodes: f.nodes[lo:hi:hi], Score: f.scores[i]})
	}
}

// hashTexts is FNV-1a over the texts with a separator after each, so
// that where one text ends is part of the hash.
func hashTexts(texts []string) uint64 {
	h := uint64(14695981039346656037)
	for _, t := range texts {
		for i := 0; i < len(t); i++ {
			h = (h ^ uint64(t[i])) * 1099511628211
		}
		h = (h ^ 0xff) * 1099511628211
	}
	return h
}

// getScratch takes a warmed scratch from the engine's pool (or builds
// the first one, binding its decode sink once).
func (e *Engine) getScratch() *queryScratch {
	if s, ok := e.pool.Get().(*queryScratch); ok {
		return s
	}
	s := new(queryScratch)
	s.accept = func(p hmm.Path) bool { return e.acceptPath(s, p) }
	return s
}

// putScratch returns a scratch to the pool; the caller must have
// finished with every path and slot view derived from it. A scratch
// grown past MaxQueryTerms slots is dropped, so the pool holds only what
// a capped query needs.
func (e *Engine) putScratch(s *queryScratch) {
	if len(s.slots) <= MaxQueryTerms {
		e.pool.Put(s)
	}
}

// buildSlotsInto fetches the candidate list of every query term into
// the scratch's slots.
func (e *Engine) buildSlotsInto(s *queryScratch, queryNodes []graph.NodeID) error {
	for len(s.slots) < len(queryNodes) {
		s.slots = append(s.slots, slot{})
	}
	for i, q := range queryNodes {
		if err := e.fillSlot(&s.slots[i], i, q); err != nil {
			return err
		}
	}
	return nil
}

// buildModelInto assembles the HMM of §V-B over the scratch's first m
// slots, applying the Eq. 5–6 smoothing: emission columns packed into
// one flat buffer, the initial distribution from term frequency, and
// the per-step transition matrices precomputed (so decoding does each
// closeness lookup once and the smoothing background is deterministic)
// as row-major windows of one flat buffer. Each previous
// candidate's closeness row is read once per step, probed for every
// current candidate at once.
//
// Smoothing note: Eq. 5–6 as printed mix a per-pair score with a sum
// over the *whole* candidate query, which cannot be factored into a
// first-order HMM. We implement the factorable analog with the same
// intent — λ·score + (1−λ)·slotBackground, where the background is the
// mean score over the slot's candidates (emissions) or candidate pairs
// (transitions) — which likewise prevents a single zero factor from
// annihilating an otherwise good query.
func (e *Engine) buildModelInto(s *queryScratch, m int) {
	lam := e.opts.SmoothingLambda
	slots := s.slots[:m]

	total := 0
	for c := range slots {
		total += len(slots[c].cands)
	}
	s.emitBuf = grow(s.emitBuf, total)
	s.emit = grow(s.emit, m)
	at := 0
	for c := range slots {
		sl := &slots[c]
		col := s.emitBuf[at : at+len(sl.cands)]
		at += len(sl.cands)
		bg, cnt := 0.0, 0
		for _, sim := range sl.sims {
			bg += sim
			cnt++
		}
		if cnt > 0 {
			bg /= float64(cnt)
		}
		colSum := 0.0
		for i, sim := range sl.sims {
			col[i] = lam*sim + (1-lam)*bg
			colSum += col[i]
		}
		if colSum > 0 { // normalization Z_B of Eq. 9
			for i := range col {
				col[i] /= colSum
			}
		}
		s.emit[c] = col
	}

	n0 := len(slots[0].cands)
	s.pi = grow(s.pi, n0)
	zPi := 0.0
	for i, v := range slots[0].cands {
		f := 1.0
		if v == voidNode {
			f = voidPenalty
		} else {
			f = float64(e.tg.Freq(v))
		}
		s.pi[i] = f
		zPi += f
	}
	if zPi > 0 { // normalization Z_t of Eq. 7
		for i := range s.pi {
			s.pi[i] /= zPi
		}
	}

	s.trans = grow(s.trans, m)
	s.trans[0] = nil
	tTotal := 0
	for c := 1; c < m; c++ {
		tTotal += len(slots[c-1].cands) * len(slots[c].cands)
	}
	s.transBuf = grow(s.transBuf, tTotal)
	at = 0
	for c := 1; c < m; c++ {
		prev, cur := &slots[c-1], &slots[c]
		np, nc := len(prev.cands), len(cur.cands)
		blk := s.transBuf[at : at+np*nc]
		s.trans[c] = blk
		at += np * nc
		bg, cnt, maxV := 0.0, 0, 0.0
		for i, a := range prev.cands {
			row := blk[i*nc : (i+1)*nc]
			if a != voidNode {
				e.clos.ClosRow(a, cur.cands, row)
			}
			for j, b := range cur.cands {
				if a == voidNode || b == voidNode {
					row[j] = voidPenalty
				}
				v := row[j]
				bg += v
				cnt++
				if v > maxV {
					maxV = v
				}
			}
		}
		if cnt > 0 {
			bg /= float64(cnt)
		}
		// Scale by the step maximum for numeric comparability across
		// steps; a per-step constant factor never changes path ranking.
		scale := 1.0
		if maxV > 0 {
			scale = 1 / maxV
		}
		for i := range blk {
			blk[i] = (lam*blk[i] + (1-lam)*bg) * scale
		}
	}

	s.model.Pi = s.pi
	s.model.Emit = s.emit[:m]
	s.model.Trans = s.trans[:m]
}

// grow returns s with length n, reusing capacity when possible.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
