// Package live manages immutable index generations behind an atomic
// pointer, turning the paper's frozen offline stage (TAT graph,
// contextual random walk, closeness tables, §IV) into a read path that
// can follow a changing corpus without downtime.
//
// A Generation bundles everything a query touches — the database copy,
// the TAT graph, the similarity provider, the closeness store, the core
// HMM engine and the keyword searcher — built together over one corpus
// state and never mutated afterwards (lazy row stores still fill, but
// only with values derived from that frozen corpus). A Manager holds
// the current Generation in an atomic pointer and accepts a stream of
// tuple deltas; Promote applies the staged deltas to a copy-on-write
// rebuild of the database, constructs the next Generation, and swaps
// the pointer. Readers that loaded the old pointer finish on the old
// generation; new requests see the new one. No lock sits on the query
// path — the only synchronization a reader pays is one atomic load.
//
// Promotion has one rebuild mode: the next generation's offline tables
// are computed from scratch over the new corpus, precomputed and packed
// in full exactly when the old generation was complete. Carrying rows
// over from the old generation cannot be exact — the contextual walk
// and its idf weighting are global, so one inserted tuple perturbs
// every similarity row, not only those within the closeness horizon —
// and a table that is not bit-equal to a fresh build is not worth its
// bookkeeping. A staleness bound (MaxDeltas / MaxAge) promotes
// automatically so pending deltas cannot accumulate unserved forever.
package live

import (
	"context"
	"fmt"
	"io"
	"time"

	"kqr/internal/artifact"
	"kqr/internal/closeness"
	"kqr/internal/cooccur"
	"kqr/internal/core"
	"kqr/internal/graph"
	"kqr/internal/keywordsearch"
	"kqr/internal/mend"
	"kqr/internal/packed"
	"kqr/internal/randomwalk"
	"kqr/internal/relstore"
	"kqr/internal/tatgraph"
	"kqr/internal/textindex"
)

// Mode selects the offline similarity model a generation is built with
// (the root package's SimilarityMode is this type).
type Mode int

const (
	// ModeContextual is the paper's improved contextual random walk
	// (Algorithm 1): restart at the term's weighted context. The default.
	ModeContextual Mode = iota
	// ModeIndividual restarts the walk at the term itself (the basic
	// model the paper improves on; kept for ablation).
	ModeIndividual
	// ModeCooccur ranks by shared-tuple counts (the paper's baseline).
	ModeCooccur
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeIndividual:
		return "individual-walk"
	case ModeCooccur:
		return "cooccurrence"
	default:
		return "contextual-walk"
	}
}

// Config is an engine's configuration: every knob a generation is built
// with, each in the options struct of the package that consumes it — so
// its default and its range are that package's, declared once.
// NewManager resolves it once (zero values become those defaults,
// out-of-range values are refused) and the Manager's copy
// (Manager.Config) is the one every later reader uses: promotion,
// reload, both fingerprints, disk attach.
type Config struct {
	// Mode selects the similarity model (default ModeContextual).
	Mode Mode
	// Walk is the random walk's λ (Alg. 1); unused by ModeCooccur.
	Walk randomwalk.Options
	// Closeness is the path search's hop bound and beam (§IV-C).
	Closeness closeness.Options
	// Online is the HMM assembly and decoding of §V: n candidates per
	// slot, the Eq. 5–6 smoothing weight, original and void states.
	Online core.Options
	// Search bounds keyword search over the tuple graph (Def. 3).
	Search keywordsearch.Options
	// Phrases also indexes recurring adjacent-word pairs.
	Phrases bool
	// FoldPlurals folds regular English plurals during tokenization.
	FoldPlurals bool
	// Mend builds a query-mending index (internal/mend) over the
	// generation's vocabulary, so typo'd, run-together, and over-split
	// queries can be repaired before reformulation. The index is built
	// alongside the packed tables and participates in promotion,
	// reload, and replication like every other derived structure.
	Mend bool
	// TableMemBudget, when positive, says the offline tables are served
	// from a paged snapshot within that many resident bytes (the root
	// package's disk mode, which resolves it and attaches the store);
	// zero means tables in RAM. Build does not read it.
	TableMemBudget int64
}

// Resolve returns cfg with every zero value replaced by its default, or
// the first range error, by asking each consuming package.
func (cfg Config) Resolve() (Config, error) {
	if cfg.Mode < ModeContextual || cfg.Mode > ModeCooccur {
		return cfg, fmt.Errorf("live: unknown similarity mode %d", int(cfg.Mode))
	}
	var err error
	if cfg.Walk, err = cfg.Walk.Resolve(); err != nil {
		return cfg, err
	}
	if cfg.Closeness, err = cfg.Closeness.Resolve(); err != nil {
		return cfg, err
	}
	if cfg.Online, err = cfg.Online.Resolve(); err != nil {
		return cfg, err
	}
	cfg.Search, err = cfg.Search.Resolve()
	return cfg, err
}

// TableFingerprint renders everything that determines the bits of a
// generation's offline tables: every Config field the extractors read,
// the walk solver, what a closeness row holds, and the shape of the
// graph they run over. The
// snapshot fingerprint (root package) and the replication fingerprint
// (internal/repl) are this plus their own prefix and corpus description
// — a table-affecting knob is added here, once.
func (m *Manager) TableFingerprint(g *Generation) string {
	cfg := m.cfg
	return fmt.Sprintf("mode=%s solver=%s damping=%g closmax=%d closbeam=%d closrows=%s phrases=%t plurals=%t nodes=%d terms=%d edges=%d",
		cfg.Mode, randomwalk.Solver, cfg.Walk.Damping, cfg.Closeness.MaxLen, cfg.Closeness.Beam, closeness.Rows, cfg.Phrases, cfg.FoldPlurals,
		g.TG.NumNodes(), g.TG.NumTermNodes(), g.TG.CSR().NumEdges())
}

// SimTables is the similarity-provider surface a generation needs
// beyond answering queries — the packed.Store operations of the offline
// stage and the artifact boundary, plus the erroring list accessor the
// public API reports through. Both in-tree extractors satisfy it by
// embedding packed.Ranked.
type SimTables interface {
	core.SimilarityProvider
	SimilarNodes(t0 graph.NodeID, k int) ([]graph.Scored, error)
	Precompute(ctx context.Context, nodes []graph.NodeID) error
	Pack()
	Install(*packed.Table)
	Load(*packed.Rows)
	Rows() *packed.Rows
	Complete() bool
}

// Provenance records how a generation came to be — the admin API's
// /api/admin/generation payload and the promote report.
type Provenance struct {
	// Epoch is the generation's monotonically increasing number — the
	// only copy; the initial generation built by Open is epoch 1.
	Epoch uint64 `json:"epoch"`
	// Mode is how the generation was built: "initial", "full" (a
	// promotion), "reload", or "bootstrap" (a follower's first install).
	Mode string `json:"mode"`
	// Inserts and Deletes count the deltas applied relative to the
	// previous generation (zero for "initial" and "reload").
	Inserts int `json:"inserts"`
	Deletes int `json:"deletes"`
	// CascadeDeletes counts rows removed because a row they referenced
	// was deleted.
	CascadeDeletes int `json:"cascade_deletes"`
	// TotalTerms sizes the generation's vocabulary.
	TotalTerms int `json:"total_terms"`
	// Timings of the promotion phases. Pack measures folding the
	// computed rows into the CSR tables the hot decode path reads;
	// Mend measures building the query-mending deletion index.
	ApplyDeltas time.Duration `json:"apply_deltas_ns"`
	BuildGraph  time.Duration `json:"build_graph_ns"`
	Precompute  time.Duration `json:"precompute_ns"`
	Pack        time.Duration `json:"pack_ns"`
	Mend        time.Duration `json:"mend_ns"`
	Total       time.Duration `json:"total_ns"`
	// PromotedAt is when the generation became current.
	PromotedAt time.Time `json:"promoted_at"`
}

// Generation is one immutable index generation: a corpus state plus
// every derived structure the query path reads. Fields are never
// reassigned after Build returns; its row stores start lazy (see
// packed.Store) and are safe for concurrent use.
type Generation struct {
	// DB is the corpus this generation serves.
	DB *relstore.Database
	// TG is the TAT graph built over DB.
	TG *tatgraph.Graph
	// Sim is the similarity provider (walk or co-occurrence); SimKind
	// names the snapshot table it reads and writes. Both walk modes
	// share TableWalk — the fingerprint already tells contextual from
	// individual.
	Sim     SimTables
	SimKind artifact.TableKind
	// Clos is the closeness store.
	Clos *closeness.Store
	// Core is the online HMM engine.
	Core *core.Engine
	// Searcher answers keyword search over the tuple graph.
	Searcher *keywordsearch.Searcher
	// Mender, when non-nil (Config.Mend), repairs messy queries
	// against this generation's vocabulary before reformulation.
	Mender *mend.Mender
	// Pager, when non-nil, owns the paged disk tables this generation's
	// similarity and closeness views read (a diskmode.Store installed
	// by the root package's disk mode). Retiring the generation must
	// Close it — Close waits for in-flight page reads before closing the
	// file, and a reader that faults after the drain falls back to live
	// computation, so closing is always safe. The Manager's OnRetire
	// hook is where the root package does this.
	Pager io.Closer
	// Provenance records how this generation was built; its Epoch is the
	// generation number, stamped by the Manager when it is published.
	Provenance Provenance
}

// Complete reports whether both row stores are complete.
func (g *Generation) Complete() bool { return g.Sim.Complete() && g.Clos.Complete() }

// Build constructs a generation over db, its row stores lazy, under the
// manager's config: the structural fields plus the Provenance.Mend timing of the
// mend-index construction (the Manager stamps the rest when it
// publishes the generation). The initial generation, every promotion
// and the root package's snapshot reload all funnel through it, so they
// are wired identically.
func (m *Manager) Build(db *relstore.Database) (*Generation, error) {
	if db == nil {
		return nil, fmt.Errorf("live: nil database")
	}
	cfg := m.cfg
	var tokOpts []textindex.TokenizerOption
	if cfg.FoldPlurals {
		tokOpts = append(tokOpts, textindex.WithPluralFolding())
	}
	tg, err := tatgraph.Build(db, tatgraph.Options{
		Phrases:   cfg.Phrases,
		Tokenizer: textindex.NewTokenizer(tokOpts...),
	})
	if err != nil {
		return nil, err
	}
	var sim SimTables
	simKind := artifact.TableWalk
	switch cfg.Mode {
	case ModeContextual, ModeIndividual:
		pref := randomwalk.Contextual
		if cfg.Mode == ModeIndividual {
			pref = randomwalk.Individual
		}
		sim = randomwalk.NewExtractor(tg, pref, cfg.Walk)
	case ModeCooccur:
		sim, simKind = cooccur.NewExtractor(tg), artifact.TableCooccur
	}
	clos, err := closeness.New(tg, cfg.Closeness)
	if err != nil {
		return nil, err
	}
	eng, err := core.New(tg, sim, clos, cfg.Online)
	if err != nil {
		return nil, err
	}
	searcher, err := keywordsearch.New(tg, cfg.Search)
	if err != nil {
		return nil, err
	}
	g := &Generation{DB: db, TG: tg, Sim: sim, SimKind: simKind, Clos: clos, Core: eng, Searcher: searcher}
	if cfg.Mend {
		start := time.Now()
		g.Mender = buildMender(tg, clos)
		g.Provenance.Mend = time.Since(start)
	}
	return g, nil
}

// buildMender constructs the query-mending index for a freshly built
// generation: a deletion-neighbourhood index over the vocabulary with
// corpus frequencies, a Resolve hook that mirrors the reformulator's
// own term resolution (so mending never touches a token the engine
// could already answer), and a context scorer backed by the
// generation's closeness store. The scorer resolves its texts the way
// the reformulator does (tatgraph.Graph.ResolveTerm, through FindTerm,
// which answers a stored text with one map lookup before any
// normalization), so it needs no vocabulary map of its own.
func buildMender(tg *tatgraph.Graph, clos *closeness.Store) *mend.Mender {
	texts := tg.TermTexts()
	freqs := make([]int, len(texts))
	for i, t := range texts {
		for _, v := range tg.FindTerm(t) {
			freqs[i] += tg.Freq(v)
		}
	}
	return mend.New(mend.NewIndex(texts, freqs), mend.Options{
		Resolve: func(tok string) bool { return len(tg.FindTerm(tok)) > 0 },
		Context: func(anchor, cand string) float64 {
			a, ok := tg.ResolveTerm(anchor)
			if !ok {
				return 0
			}
			c, ok := tg.ResolveTerm(cand)
			if !ok {
				return 0
			}
			return clos.Clos(a, c)
		},
	})
}
