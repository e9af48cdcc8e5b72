package kqr

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"

	"kqr/internal/closeness"
	"kqr/internal/core"
	"kqr/internal/diskmode"
	"kqr/internal/graph"
	"kqr/internal/keywordsearch"
	"kqr/internal/live"
	"kqr/internal/randomwalk"
	"kqr/internal/tatgraph"
)

// SimilarityMode selects the offline term-similarity model.
type SimilarityMode = live.Mode

const (
	// ContextualWalk is the paper's improved random walk (Algorithm 1):
	// restart at the term's weighted context. The default.
	ContextualWalk = live.ModeContextual
	// IndividualWalk restarts at the term itself (the basic model the
	// paper improves on; kept for ablation).
	IndividualWalk = live.ModeIndividual
	// Cooccurrence ranks by shared-tuple counts (the paper's baseline).
	Cooccurrence = live.ModeCooccur
)

// DecodeAlgorithm selects the online top-k decoder.
type DecodeAlgorithm = core.Algorithm

const (
	// AStar is the paper's Algorithm 3 (Viterbi forward + A* backward),
	// the default.
	AStar = core.AlgAStar
	// TopKViterbi is the paper's Algorithm 2.
	TopKViterbi = core.AlgTopKViterbi
)

// Options tunes an Engine. Zero values take the documented defaults;
// Open refuses out-of-range values before it builds anything.
type Options struct {
	// Similarity selects the offline similarity model.
	Similarity SimilarityMode
	// Damping is the random-walk restart complement λ (default 0.8).
	Damping float64
	// CandidatesPerTerm is the per-slot candidate list size n
	// (default 10).
	CandidatesPerTerm int
	// SmoothingLambda is the Eq. 5–6 smoothing weight (default 0.8;
	// 1 disables smoothing).
	SmoothingLambda float64
	// ClosenessMaxLen bounds closeness path length in hops (default 4).
	ClosenessMaxLen int
	// ClosenessBeam prunes each closeness BFS level to the heaviest
	// Beam nodes (0 = exact).
	ClosenessBeam int
	// Algorithm selects the decoder (default AStar).
	Algorithm DecodeAlgorithm
	// AllowDeletion adds void states so suggestions may drop terms.
	AllowDeletion bool
	// DropOriginal removes the original term from each slot's
	// candidates, forcing full reformulations.
	DropOriginal bool
	// SearchMaxResults caps materialized search result trees
	// (default 50).
	SearchMaxResults int
	// SearchMaxRadius bounds the keyword-search join radius (default 3).
	SearchMaxRadius int
	// Phrases also indexes recurring adjacent-word pairs of segmented
	// fields as topical phrases ("association rules"), so queries can
	// match and substitute them (Definition 2 allows a keyword to be "a
	// word or a topical phrase").
	Phrases bool
	// FoldPlurals folds regular English plurals onto their singular
	// during tokenization ("queries" and "query" share one term node).
	FoldPlurals bool
	// Mend builds a query-mending index over each generation's
	// vocabulary (internal/mend): a SymSpell-style deletion
	// neighbourhood plus a segmentation DP that repairs misspelled,
	// run-together, and over-split queries before reformulation. With
	// Mend enabled, Engine.Mend and Engine.ReformulateMended become
	// available (ErrMendDisabled otherwise); plain Reformulate is
	// unaffected. Queries made entirely of vocabulary terms always
	// pass through byte-identically.
	Mend bool
	// PrecomputeWorkers bounds the goroutines the offline stage (Warm,
	// and each promotion of a warmed engine) fans out over; <= 0 means
	// runtime.GOMAXPROCS(0). Per-term extraction is independent, so
	// precompute throughput scales with cores.
	PrecomputeWorkers int
	// ArtifactPath, when non-empty, names a snapshot file previously
	// written by Engine.SaveArtifacts. Open tries to restore the
	// offline tables (similarity and closeness) from it instead of
	// computing them; any failure — missing file, corruption, version
	// or corpus mismatch — is logged and recorded in Engine.Artifact,
	// and the engine falls back to live computation. Never fatal.
	ArtifactPath string
	// DiskMode serves the offline tables directly from a paged (v2)
	// snapshot at ArtifactPath instead of decoding them into RAM: the
	// table payloads stay on disk and rows are faulted on demand
	// through a page cache bounded by TableMemBudget, so the engine can
	// serve corpora whose tables exceed memory. Requires ArtifactPath
	// to name a file written by SaveArtifactsPaged from a warmed
	// engine; unlike the plain restore path, a disk-mode open fails
	// rather than falling back — an operator who bounded table memory
	// must not get an unbounded engine by accident. Disk mode is
	// read-only: Open refuses it with Live.
	DiskMode bool
	// TableMemBudget bounds resident table bytes in disk mode: the
	// always-resident page index plus the decoded-page cache (default
	// 64 MiB). Open fails if the index alone exceeds it. Ignored when
	// DiskMode is false.
	TableMemBudget int64
	// Live enables the delta-ingestion API (Ingest, Promote): the
	// corpus may change after Open, each promotion building a new
	// immutable index generation and atomically swapping it in. With
	// Live false those methods return ErrLiveDisabled.
	Live bool
	// StalenessMaxDeltas, in live mode, promotes automatically once
	// that many deltas are pending (0 = no count bound).
	StalenessMaxDeltas int
	// StalenessMaxAge, in live mode, promotes automatically once the
	// oldest pending delta has waited that long (0 = no age bound).
	StalenessMaxAge time.Duration
	// OnRetire, if set, observes each generation epoch as it stops
	// being current (after the swap; in-flight requests may still be
	// finishing on it).
	OnRetire func(epoch uint64)
	// OnPromoteError, if set, observes failures of staleness-triggered
	// automatic promotions, which have no caller to return an error to.
	OnPromoteError func(error)
}

// Engine is the opened reformulation system: the TAT graph plus the
// offline extractors and the online generator, packaged as one or more
// immutable index generations behind an atomic pointer. See the package
// comment's Concurrency section for which methods may race.
type Engine struct {
	// mgr owns the generations and the resolved configuration they are
	// built with (mgr.Config() — the engine keeps no second copy).
	mgr *live.Manager
	// live gates Ingest and Promote (Options.Live).
	live bool

	artifactMu sync.Mutex // guards artifact (LoadArtifacts may race readers)
	artifact   ArtifactInfo
}

// cur returns the generation serving reads right now — one atomic
// load. Every query-path method resolves it exactly once and uses that
// generation end to end, so a concurrent promotion can never hand a
// request state from two different corpus versions.
func (e *Engine) cur() *live.Generation { return e.mgr.Current() }

// resolve is the one translation of the public Options into what the
// generation manager takes. The knobs this package consumes itself —
// staleness bounds, disk mode and its budget — are checked here; every
// other default and range belongs to the package that consumes the knob
// and is applied by live.NewManager before it builds anything.
func (o Options) resolve() (live.Config, live.Options, error) {
	if o.StalenessMaxDeltas < 0 || o.StalenessMaxAge < 0 {
		return live.Config{}, live.Options{}, fmt.Errorf("kqr: negative staleness bound (Options.StalenessMaxDeltas %d, StalenessMaxAge %v)",
			o.StalenessMaxDeltas, o.StalenessMaxAge)
	}
	if o.DiskMode && o.ArtifactPath == "" {
		return live.Config{}, live.Options{}, fmt.Errorf("kqr: disk mode requires Options.ArtifactPath (a paged snapshot from SaveArtifactsPaged)")
	}
	if o.DiskMode && o.Live {
		return live.Config{}, live.Options{}, fmt.Errorf("kqr: disk mode is read-only and excludes Options.Live: promoted tables would be computed into RAM, outside TableMemBudget")
	}
	disk, err := diskmode.Options{Budget: o.TableMemBudget}.Resolve()
	if err != nil {
		return live.Config{}, live.Options{}, fmt.Errorf("kqr: Options.TableMemBudget: %w", err)
	}
	cfg := live.Config{
		Mode:      o.Similarity,
		Workers:   o.PrecomputeWorkers,
		Walk:      randomwalk.Options{Damping: o.Damping},
		Closeness: closeness.Options{MaxLen: o.ClosenessMaxLen, Beam: o.ClosenessBeam},
		Online: core.Options{
			CandidatesPerTerm: o.CandidatesPerTerm,
			SmoothingLambda:   o.SmoothingLambda,
			DropOriginal:      o.DropOriginal,
			AllowDeletion:     o.AllowDeletion,
			Algorithm:         o.Algorithm,
		},
		Search:      keywordsearch.Options{MaxResults: o.SearchMaxResults, MaxRadius: o.SearchMaxRadius},
		Phrases:     o.Phrases,
		FoldPlurals: o.FoldPlurals,
		Mend:        o.Mend,
	}
	if o.DiskMode {
		cfg.TableMemBudget = disk.Budget
	}
	mopts := live.Options{OnError: o.OnPromoteError}
	if o.Live {
		mopts.StalenessMaxDeltas = o.StalenessMaxDeltas
		mopts.StalenessMaxAge = o.StalenessMaxAge
	}
	// The retire hook always runs: a retired generation may own a paged
	// disk store (g.Pager) that must be closed once it stops being
	// current. Close drains in-flight page faults before unmapping, so
	// it runs off the promotion path; late readers fall back to compute.
	userRetire := o.OnRetire
	mopts.OnRetire = func(g *live.Generation) {
		if g.Pager != nil {
			go g.Pager.Close()
		}
		if userRetire != nil {
			userRetire(g.Provenance.Epoch)
		}
	}
	return cfg, mopts, nil
}

// Open validates the options, builds the TAT graph over the dataset and
// wires the offline and online stages into the initial index generation
// (epoch 1). An invalid option fails before anything is built and
// leaves the dataset unfrozen. Building cost is linear in the data
// size. Open does not warm: without a snapshot the engine is lazy, each
// term's rows computed on first use and cached (DESIGN.md §9 weighs
// that against Warm; a corpus too large to warm at every start restores
// a saved snapshot instead).
func Open(d *Dataset, opts Options) (*Engine, error) {
	if d == nil {
		return nil, fmt.Errorf("kqr: nil dataset")
	}
	cfg, mopts, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	mgr, err := live.NewManager(d.db, cfg, mopts)
	if err != nil {
		return nil, fmt.Errorf("kqr: %w", err)
	}
	e := &Engine{mgr: mgr, live: opts.Live}
	if opts.ArtifactPath != "" {
		info, err := e.restore(mgr.Current(), opts.ArtifactPath)
		if err != nil {
			// Disk mode fails rather than fall back: an operator who
			// bounded table memory must not get an unbounded engine.
			if opts.DiskMode {
				return nil, err
			}
			log.Printf("kqr: snapshot %s not used (%v); falling back to live compute", opts.ArtifactPath, err)
			info = ArtifactInfo{FallbackReason: err.Error()}
		}
		e.artifact = info
	}
	d.frozen = true
	return e, nil
}

// Close stops the live manager's staleness timer and rejects further
// ingestion. The current generation keeps serving reads; Close never
// interrupts in-flight queries.
func (e *Engine) Close() { e.mgr.Close() }

// Suggestion is one reformulated query.
type Suggestion struct {
	// Terms is the suggested query.
	Terms []string
	// Score is the generation probability, comparable within one call.
	Score float64
}

// String joins the terms into a query ParseQuery accepts: terms
// containing whitespace (any Unicode whitespace, not just spaces) or
// double quotes are wrapped in double quotes, with embedded quotes and
// backslashes backslash-escaped. For non-empty terms without leading or
// trailing whitespace — every term the engine produces —
// ParseQuery(s.String()) recovers s.Terms exactly.
func (s Suggestion) String() string {
	n := len(s.Terms)
	for _, t := range s.Terms {
		n += len(t)
	}
	return string(s.AppendString(make([]byte, 0, n)))
}

// AppendString appends String's rendering to dst and returns the
// extended buffer — for callers that build many suggestions into one
// buffer (the server's response encoder).
func (s Suggestion) AppendString(dst []byte) []byte {
	for i, t := range s.Terms {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = appendQuoted(dst, t)
	}
	return dst
}

// appendQuoted renders one term for AppendString, quoting and escaping
// whenever the bare text would parse differently.
func appendQuoted(dst []byte, t string) []byte {
	if !needsQuotes(t) {
		return append(dst, t...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(t); i++ {
		if t[i] == '"' || t[i] == '\\' {
			dst = append(dst, '\\')
		}
		dst = append(dst, t[i])
	}
	return append(dst, '"')
}

// needsQuotes reports whether t is empty or contains a double quote or
// any Unicode whitespace. Terms are mostly ASCII and a response renders
// hundreds of them, so ASCII bytes are tested inline and the rune-wise
// test starts at the first byte that is not.
func needsQuotes(t string) bool {
	for i := 0; i < len(t); i++ {
		switch c := t[i]; {
		case c == '"' || c == ' ' || '\t' <= c && c <= '\r':
			return true
		case c >= utf8.RuneSelf:
			return strings.ContainsFunc(t[i:], unicode.IsSpace) || strings.Contains(t[i:], `"`)
		}
	}
	return t == ""
}

// VisitReformulations decodes up to k substitutive queries for the
// given terms, as Reformulate does, and hands them to visit best first
// instead of returning them: the i-th of n, its Terms aliasing pooled
// decode scratch and valid only during the call. On a warmed engine the
// call itself allocates nothing, so a caller that encodes each
// suggestion where it stands (the HTTP server) pays only for its own
// output.
func (e *Engine) VisitReformulations(terms []string, k int, visit func(i, n int, s Suggestion)) error {
	return e.cur().Core.VisitReformulations(terms, k, func(i, n int, r core.Reformulation) {
		visit(i, n, Suggestion{Terms: r.Terms, Score: r.Score})
	})
}

// Reformulate suggests up to k substitutive queries for the given query
// terms (a term may be a multi-word name). Terms must occur in the data.
func (e *Engine) Reformulate(terms []string, k int) ([]Suggestion, error) {
	return collectSuggestions(e.cur().Core.VisitReformulations, terms, k)
}

// ReformulateQuery parses a query string — whitespace-separated terms,
// double quotes grouping multi-word terms — and reformulates it.
func (e *Engine) ReformulateQuery(query string, k int) ([]Suggestion, error) {
	terms, err := ParseQuery(query)
	if err != nil {
		return nil, err
	}
	return e.Reformulate(terms, k)
}

// ReformulateRankBased runs the similarity-only baseline (no closeness);
// exposed for comparison and benchmarking.
func (e *Engine) ReformulateRankBased(terms []string, k int) ([]Suggestion, error) {
	return collectSuggestions(e.cur().Core.VisitRankBased, terms, k)
}

// collectSuggestions gathers one of the core engine's visits into
// suggestions the caller owns: the result slice plus one flat backing
// for every term.
func collectSuggestions(run func(query []string, k int, visit core.Visitor) error, terms []string, k int) ([]Suggestion, error) {
	out := []Suggestion{}
	var flat []string
	err := run(terms, k, func(i, n int, r core.Reformulation) {
		if i == 0 {
			// At most one term per slot and row.
			out = make([]Suggestion, 0, n)
			flat = make([]string, 0, n*len(terms))
		}
		lo := len(flat)
		flat = append(flat, r.Terms...)
		out = append(out, Suggestion{Terms: flat[lo:len(flat):len(flat)], Score: r.Score})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RankedTerm is a term with provenance and score.
type RankedTerm struct {
	// Term is the normalized term text.
	Term string
	// Field is where the term lives, as "table.column".
	Field string
	// Score is the extractor's score (similarity or closeness),
	// normalized within the returned list.
	Score float64
}

// ErrBadK reports a non-positive result bound passed to SimilarTerms or
// CloseTerms. The internal stores treat k <= 0 as "no limit"; at the
// public surface that silently returned the entire vocabulary-sized
// relation, so it is rejected instead. Match it with errors.Is.
var ErrBadK = errors.New("kqr: k must be at least 1")

// SimilarTerms returns up to k terms similar to the given term under the
// engine's similarity mode — the offline relation behind suggestions.
// k must be at least 1 (ErrBadK otherwise).
func (e *Engine) SimilarTerms(term string, k int) ([]RankedTerm, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrBadK, k)
	}
	g := e.cur()
	node, err := g.Core.ResolveTerm(term)
	if err != nil {
		return nil, err
	}
	list, err := g.Sim.SimilarNodes(node, k)
	if err != nil {
		return nil, err
	}
	return rankedTerms(g.TG, list), nil
}

// ErrQueryTooLong reports a query of more than 64 terms, the longest
// the engine reformulates (DESIGN.md §7 derives it). Match it with
// errors.Is.
var ErrQueryTooLong = core.ErrQueryTooLong

// ErrUnknownField reports a field restriction naming a field with no
// terms in the vocabulary — a "table.column" label that does not exist
// or is not textual. Match it with errors.Is.
var ErrUnknownField = errors.New("kqr: unknown field")

// CloseTerms returns up to k terms closest to the given term
// (the paper's Table I relation). k must be at least 1 (ErrBadK
// otherwise). Restrict to one field by passing its "table.column"
// label, or "" for all fields; a field with no terms in the vocabulary
// returns an error wrapping ErrUnknownField rather than a silently
// empty result.
func (e *Engine) CloseTerms(term string, k int, field string) ([]RankedTerm, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrBadK, k)
	}
	g := e.cur()
	node, err := g.Core.ResolveTerm(term)
	if err != nil {
		return nil, err
	}
	if field != "" && !g.TG.HasTermClass(field) {
		return nil, fmt.Errorf("%w %q (have %s)", ErrUnknownField, field,
			strings.Join(g.TG.TermClasses(), ", "))
	}
	return rankedTerms(g.TG, g.Clos.CloseTerms(node, k, field)), nil
}

func rankedTerms(tg *tatgraph.Graph, list []graph.Scored) []RankedTerm {
	out := make([]RankedTerm, len(list))
	for i, sn := range list {
		out[i] = RankedTerm{
			Term:  tg.TermText(sn.Node),
			Field: tg.Class(sn.Node),
			Score: sn.Score,
		}
	}
	return out
}

// SearchResult is one keyword-search answer tree, rendered.
type SearchResult struct {
	// Tuples describes each tuple in the tree as "table:label".
	Tuples []string
	// Cost is the number of join hops connecting the keywords.
	Cost int
}

// Search runs keyword search over the tuple graph (Definition 3) and
// returns the result trees plus the total number of results.
func (e *Engine) Search(terms []string) ([]SearchResult, int, error) {
	g := e.cur()
	results, total, err := g.Searcher.Search(terms)
	if err != nil {
		return nil, 0, err
	}
	out := make([]SearchResult, len(results))
	for i, r := range results {
		sr := SearchResult{Cost: r.Cost}
		for _, id := range r.Tuples {
			if node, ok := g.TG.TupleNode(id); ok {
				sr.Tuples = append(sr.Tuples, g.TG.DisplayLabel(node))
			}
		}
		out[i] = sr
	}
	return out, total, nil
}

// GraphStats summarizes the built TAT graph and the provenance of the
// offline tables — "offline: snapshot v1 (path)" when they were
// restored from an artifact file, "offline: computed" when they are
// built live — so operators can tell which mode a replica is in.
func (e *Engine) GraphStats() string {
	g := e.cur()
	return fmt.Sprintf("%d nodes (%d terms), %d edges, %d components, offline: %s",
		g.TG.NumNodes(), g.TG.NumTermNodes(), g.TG.CSR().NumEdges(), g.TG.CSR().NumComponents(),
		e.Artifact())
}

// Vocabulary returns the distinct normalized term texts in the TAT
// graph, sorted. It enumerates what Warm precomputes and what a
// snapshot persists — useful for auditing a replica's offline tables.
func (e *Engine) Vocabulary() []string {
	return e.cur().TG.TermTexts()
}

// ParseQuery splits a query string into terms: any Unicode whitespace
// separates (newlines and carriage returns included, matching the
// TrimSpace normalization around terms), and double quotes group
// multi-word terms ("christian s. jensen" spatial). Inside quotes a
// backslash escapes a double quote or another backslash, so quoted
// terms produced by Suggestion.String — including terms that themselves
// contain quotes — parse back exactly; any other backslash is literal.
// Quoted terms are trimmed of surrounding whitespace; a quoted term
// that is empty after trimming is dropped.
func ParseQuery(query string) ([]string, error) {
	var terms []string
	rest := strings.TrimSpace(query)
	for rest != "" {
		if rest[0] == '"' {
			term, tail, ok := parseQuotedTerm(rest)
			if !ok {
				return nil, fmt.Errorf("kqr: unbalanced quote in query %q", query)
			}
			if term != "" {
				terms = append(terms, term)
			}
			rest = strings.TrimSpace(tail)
			continue
		}
		sp := strings.IndexFunc(rest, unicode.IsSpace)
		if sp < 0 {
			terms = append(terms, rest)
			break
		}
		terms = append(terms, rest[:sp])
		rest = strings.TrimSpace(rest[sp:])
	}
	if len(terms) == 0 {
		return nil, fmt.Errorf("kqr: empty query")
	}
	return terms, nil
}

// parseQuotedTerm decodes the double-quoted term opening at rest[0],
// returning the trimmed term text and the remainder after the closing
// quote. ok is false when the quote never closes.
func parseQuotedTerm(rest string) (term, tail string, ok bool) {
	var b strings.Builder
	for i := 1; i < len(rest); i++ {
		switch rest[i] {
		case '\\':
			if i+1 < len(rest) && (rest[i+1] == '"' || rest[i+1] == '\\') {
				b.WriteByte(rest[i+1])
				i++
				continue
			}
			b.WriteByte('\\')
		case '"':
			return strings.TrimSpace(b.String()), rest[i+1:], true
		default:
			b.WriteByte(rest[i])
		}
	}
	return "", "", false
}

// SlotExplanation breaks down why one slot of a suggestion was chosen:
// the substitute's similarity to the original term and its closeness to
// the previous slot's substitute. Re-exported from the core engine.
type SlotExplanation = core.SlotExplanation

// Explain reports the per-slot evidence (similarity and closeness) for a
// suggestion previously produced for the query. Only full-length
// suggestions can be aligned and explained.
func (e *Engine) Explain(query, suggestion []string) ([]SlotExplanation, error) {
	return e.cur().Core.Explain(query, suggestion)
}

// ---- Live generations -------------------------------------------------

// ErrLiveDisabled is returned by Ingest and Promote when the engine was
// opened without Options.Live.
var ErrLiveDisabled = errors.New("kqr: live mode disabled (open with Options.Live)")

// DeltaOp distinguishes the two corpus-change kinds.
type DeltaOp int

const (
	// InsertTuple adds one row.
	InsertTuple DeltaOp = iota
	// DeleteTuple removes the row whose primary key matches Key; rows
	// referencing it are removed too (cascade).
	DeleteTuple
)

// Delta is one staged corpus change for Engine.Ingest. Values follow
// Dataset.Insert's conventions: string for TypeString columns; int64,
// int or int32 for TypeInt.
type Delta struct {
	// Op is the change kind.
	Op DeltaOp
	// Table names the target table.
	Table string
	// Values is the full row in column order (InsertTuple only).
	Values []any
	// Key is the primary-key value of the row to remove (DeleteTuple
	// only).
	Key any
}

// GenerationInfo records how the current index generation came to be:
// its epoch, mode ("initial", "full" for a promotion, "reload"), delta
// counts, and per-phase timings.
type GenerationInfo = live.Provenance

// toLiveDeltas converts public deltas to the internal representation,
// validating value types (schema validation happens at Ingest).
func toLiveDeltas(deltas []Delta) ([]live.Delta, error) {
	out := make([]live.Delta, len(deltas))
	for i, d := range deltas {
		ld := live.Delta{Table: d.Table}
		switch d.Op {
		case InsertTuple:
			ld.Op = live.OpInsert
			vals, err := toValues(d.Values)
			if err != nil {
				return nil, fmt.Errorf("kqr: delta %d (insert %s): %w", i, d.Table, err)
			}
			ld.Values = vals
		case DeleteTuple:
			ld.Op = live.OpDelete
			key, err := toValue(d.Key)
			if err != nil {
				return nil, fmt.Errorf("kqr: delta %d (delete %s): %w", i, d.Table, err)
			}
			ld.Key = key
		default:
			return nil, fmt.Errorf("kqr: delta %d: unknown op %d", i, int(d.Op))
		}
		out[i] = ld
	}
	return out, nil
}

// Ingest validates and stages corpus deltas; they take effect at the
// next Promote (or automatically once a staleness bound is crossed).
// The current generation keeps serving unchanged in the meantime.
func (e *Engine) Ingest(deltas []Delta) error {
	if !e.live {
		return ErrLiveDisabled
	}
	ld, err := toLiveDeltas(deltas)
	if err != nil {
		return err
	}
	return e.mgr.Ingest(ld)
}

// Promote applies the staged deltas to a copy-on-write rebuild of the
// corpus, builds the next index generation (its offline tables
// recomputed in full — the one rebuild mode), and atomically makes it
// current. In-flight requests finish on the generation they started
// with. With nothing pending it is a no-op returning the current
// generation's info.
func (e *Engine) Promote(ctx context.Context) (GenerationInfo, error) {
	if !e.live {
		return GenerationInfo{}, ErrLiveDisabled
	}
	g, err := e.mgr.Promote(ctx)
	if err != nil {
		return GenerationInfo{}, err
	}
	return g.Provenance, nil
}

// Generation returns the current generation's provenance.
func (e *Engine) Generation() GenerationInfo { return e.cur().Provenance }

// Epoch returns the current generation number (1 after Open, +1 per
// promotion or reload). Epochs are monotonically increasing.
func (e *Engine) Epoch() uint64 { return e.mgr.Epoch() }

// PendingDeltas returns how many staged deltas await the next
// promotion.
func (e *Engine) PendingDeltas() int { return e.mgr.Pending() }

// Live reports whether the engine was opened with live ingestion
// enabled. Subsystems that stage deltas through the generation manager
// directly (replication, CDC) check this before bypassing the
// Ingest/Promote gate.
func (e *Engine) Live() bool { return e.live }

// Replication exposes the engine's generation manager and its resolved
// build config to the replication subsystem (internal/repl): the leader
// journals the manager's epoch transitions, a follower drives the
// manager in lockstep with the leader's journal. The returned types
// live in internal packages, so only this module's server and cmd
// packages can consume them — external callers use the kqr-server
// -follow mode instead.
func (e *Engine) Replication() (*live.Manager, live.Config) {
	return e.mgr, e.mgr.Config()
}
