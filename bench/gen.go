package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"

	"kqr/internal/serving"
)

// The traffic generator. Everything here is a pure function of the
// corpus titles and the -seed argument: the server only ever sees the
// requests a dataset lists, and a dataset saved to JSON replays the
// same run.

// request is one generated /api/reformulate call.
type request struct {
	// Q is the query string as sent (space-separated terms).
	Q string `json:"q"`
	// Clean is the query Q was derived from when a fault was injected.
	Clean string `json:"clean,omitempty"`
	// Fault names the injected fault: typo, runon or split.
	Fault string `json:"fault,omitempty"`
}

// dataset is the replayable input of one run.
type dataset struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Papers   int    `json:"papers"`
	K        int    `json:"k"`
	// Pool holds the distinct requests. In a Zipf dataset the second
	// half holds the faulted variant of each clean entry of the first.
	Pool []request `json:"pool"`
	// Order is the send order as indices into Pool. Empty means "Pool
	// in sequence, each entry once" (the never-repeating miss stream).
	Order []int32 `json:"order,omitempty"`
}

// at returns the i-th request of the send order; ok is false once a
// never-repeating stream is exhausted. A Zipf order wraps around.
func (d *dataset) at(i int) (idx int, ok bool) {
	if len(d.Order) > 0 {
		return int(d.Order[i%len(d.Order)]), true
	}
	if i >= len(d.Pool) {
		return 0, false
	}
	return i, true
}

func saveJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func loadDataset(path string) (*dataset, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d dataset
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("dataset %s: %w", path, err)
	}
	if len(d.Pool) == 0 {
		return nil, fmt.Errorf("dataset %s: empty pool", path)
	}
	for _, i := range d.Order {
		if i < 0 || int(i) >= len(d.Pool) {
			return nil, fmt.Errorf("dataset %s: order index %d outside pool of %d", path, i, len(d.Pool))
		}
	}
	return &d, nil
}

// weighted draws ids in proportion to integer weights.
type weighted struct {
	ids []int32
	cum []int64 // running total of weights
}

func (w *weighted) add(id int32, weight int) {
	total := int64(weight)
	if n := len(w.cum); n > 0 {
		total += w.cum[n-1]
	}
	w.ids = append(w.ids, id)
	w.cum = append(w.cum, total)
}

func (w *weighted) draw(rng *rand.Rand) int32 {
	x := rng.Int63n(w.cum[len(w.cum)-1])
	return w.ids[sort.Search(len(w.cum), func(i int) bool { return w.cum[i] > x })]
}

// chain is a word-state Markov chain over the corpus' paper titles:
// the next query term is drawn in proportion to how often it followed
// the current one in a title, so the terms of a generated query
// co-occur the way the terms of a real keyword query do.
type chain struct {
	words []string
	known map[string]bool
	start weighted   // first words of titles
	next  []weighted // next[w]: successors of word w, bigram-weighted
}

// jumpProb is the chance that a step restarts from a title's first
// word rather than following a bigram. It keeps the space of distinct
// queries far larger than any stream the benchmark needs.
const jumpProb = 0.15

func newChain(titles []string) (*chain, error) {
	first := map[string]int{}
	bigram := map[[2]string]int{}
	vocab := map[string]bool{}
	for _, t := range titles {
		ws := strings.Fields(t)
		for i, w := range ws {
			vocab[w] = true
			if i == 0 {
				first[w]++
			} else {
				bigram[[2]string{ws[i-1], w}]++
			}
		}
	}
	if len(first) == 0 {
		return nil, fmt.Errorf("generator: no titles to learn from")
	}
	c := &chain{known: vocab}
	for w := range vocab {
		c.words = append(c.words, w)
	}
	sort.Strings(c.words)
	id := make(map[string]int32, len(c.words))
	for i, w := range c.words {
		id[w] = int32(i)
	}
	// Maps are walked in sorted order so the same corpus always builds
	// the same chain.
	for _, w := range c.words {
		if n := first[w]; n > 0 {
			c.start.add(id[w], n)
		}
	}
	pairs := make([][2]string, 0, len(bigram))
	for p := range bigram {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	c.next = make([]weighted, len(c.words))
	for _, p := range pairs {
		c.next[id[p[0]]].add(id[p[1]], bigram[p])
	}
	return c, nil
}

// query draws n distinct terms.
func (c *chain) query(rng *rand.Rand, n int) []string {
	terms := make([]string, 0, n)
	seen := map[int32]bool{}
	cur := c.start.draw(rng)
	for len(terms) < n {
		if !seen[cur] {
			seen[cur] = true
			terms = append(terms, c.words[cur])
		}
		if nx := &c.next[cur]; len(nx.ids) > 0 && rng.Float64() >= jumpProb {
			cur = nx.draw(rng)
		} else {
			cur = c.start.draw(rng)
		}
	}
	return terms
}

// distinctQueries draws count queries of minLen..maxLen terms, no two
// sharing a response-cache key, so a stream of them can never hit.
func (c *chain) distinctQueries(rng *rand.Rand, count, minLen, maxLen, k int) []request {
	out := make([]request, 0, count)
	seen := make(map[string]bool, count)
	kOpt := fmt.Sprintf("k=%d", k)
	for len(out) < count {
		terms := c.query(rng, minLen+rng.Intn(maxLen-minLen+1))
		key := serving.Key("reformulate", terms, kOpt)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, request{Q: strings.Join(terms, " ")})
	}
	return out
}

// injectFault corrupts one clean query with a typo, a run-on of two
// adjacent terms, or a split of one term, choosing the kind from rng.
// It retries until the damaged token is outside the vocabulary (an edit
// can form another real word by accident), falling back to a typo when
// the drawn kind cannot apply, and reports ok == false if nothing
// stuck.
func (c *chain) injectFault(rng *rand.Rand, q []string) (faulted []string, kind string, ok bool) {
	const retries = 8
	unknown := func(tok string) bool { return !c.known[tok] }
	switch rng.Intn(3) {
	case 1: // run-on
		if len(q) >= 2 {
			i := rng.Intn(len(q) - 1)
			if joined := q[i] + q[i+1]; unknown(joined) {
				out := append(append([]string{}, q[:i]...), joined)
				return append(out, q[i+2:]...), "runon", true
			}
		}
	case 2: // split
		for a := 0; a < retries; a++ {
			i := rng.Intn(len(q))
			r := []rune(q[i])
			if len(r) < 5 {
				continue
			}
			cut := 2 + rng.Intn(len(r)-4)
			l, rt := string(r[:cut]), string(r[cut:])
			if unknown(l) || unknown(rt) {
				out := append(append([]string{}, q[:i]...), l, rt)
				return append(out, q[i+1:]...), "split", true
			}
		}
	}
	for a := 0; a < retries; a++ {
		i := rng.Intn(len(q))
		if len([]rune(q[i])) < 4 {
			continue
		}
		if tok := typoOf(rng, q[i]); unknown(tok) {
			out := append([]string{}, q...)
			out[i] = tok
			return out, "typo", true
		}
	}
	return nil, "", false
}

// typoOf applies one single-character edit: substitution, deletion,
// insertion or adjacent transposition.
func typoOf(rng *rand.Rand, w string) string {
	r := []rune(w)
	switch rng.Intn(4) {
	case 0:
		i := rng.Intn(len(r))
		r[i] = 'a' + (r[i]-'a'+1+rune(rng.Intn(24)))%26
	case 1:
		i := rng.Intn(len(r))
		r = append(r[:i], r[i+1:]...)
	case 2:
		i := rng.Intn(len(r) + 1)
		r = append(r[:i], append([]rune{'a' + rune(rng.Intn(26))}, r[i:]...)...)
	default:
		i := rng.Intn(len(r) - 1)
		r[i], r[i+1] = r[i+1], r[i]
	}
	return string(r)
}

// faultedVariants returns one faulted variant per clean request. An
// entry no fault would stick to keeps its clean form, so the list
// always lines up with clean index for index.
func (c *chain) faultedVariants(rng *rand.Rand, clean []request) []request {
	out := make([]request, len(clean))
	for i, r := range clean {
		out[i] = r
		if f, kind, ok := c.injectFault(rng, strings.Fields(r.Q)); ok {
			out[i] = request{Q: strings.Join(f, " "), Clean: r.Q, Fault: kind}
		}
	}
	return out
}

// Zipf traffic parameters (ISSUE 11): popularity exponent and the share
// of requests that carry an injected fault.
const (
	zipfS      = 1.1
	faultShare = 0.10
)

// zipfDataset builds head traffic: a pool of distinct 2–3-term queries
// requested with Zipf popularity, a tenth of the requests in their
// faulted form. A query's fault is fixed per pool entry, so a popular
// misspelling repeats the way a real one does.
func zipfDataset(c *chain, workload string, seed int64, papers, pool, draws, k int) *dataset {
	rng := rand.New(rand.NewSource(seed))
	clean := c.distinctQueries(rng, pool, 2, 3, k)
	d := &dataset{Workload: workload, Seed: seed, Papers: papers, K: k}
	d.Pool = append(clean, c.faultedVariants(rng, clean)...)
	z := rand.NewZipf(rng, zipfS, 1, uint64(pool-1))
	d.Order = make([]int32, draws)
	for i := range d.Order {
		idx := int32(z.Uint64())
		if rng.Float64() < faultShare {
			idx += int32(pool)
		}
		d.Order[i] = idx
	}
	return d
}

// missDataset builds tail traffic: count never-repeating 4–7-term
// queries.
func missDataset(c *chain, workload string, seed int64, papers, count, k int) *dataset {
	rng := rand.New(rand.NewSource(seed))
	return &dataset{
		Workload: workload, Seed: seed, Papers: papers, K: k,
		Pool: c.distinctQueries(rng, count, 4, 7, k),
	}
}
