package kqr

import (
	"context"
	"fmt"

	"kqr/internal/flight"
)

// PrecomputeTerms runs the offline extraction (similarity + closeness)
// for the given terms, computing their rows so subsequent queries over
// those terms are pure lookups. Terms fan out over a worker pool of
// Options.PrecomputeWorkers goroutines (default runtime.GOMAXPROCS(0))
// — the extractors are safe for concurrent use and the work is
// embarrassingly parallel. The first failure stops the pool and is
// returned wrapped with the offending term. This is the paper's offline
// stage made explicit; combine with SaveArtifacts to persist it, or use
// Warm to precompute the whole vocabulary.
func (e *Engine) PrecomputeTerms(terms []string) error {
	g := e.cur()
	err := flight.ForEach(context.Background(), e.mgr.Config().Workers, len(terms), func(i int) error {
		term := terms[i]
		node, err := g.Core.ResolveTerm(term)
		if err != nil {
			return fmt.Errorf("kqr: precompute term %q: %w", term, err)
		}
		cands, err := g.Sim.SimilarNodes(node, 0)
		if err != nil {
			return fmt.Errorf("kqr: precompute term %q: %w", term, err)
		}
		// Closeness is also needed from every candidate (HMM
		// transitions start at candidate nodes); its search never
		// fails, so Row's error is not checked.
		g.Clos.Row(node)
		for _, sn := range cands {
			g.Clos.Row(sn.Node)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Fold the computed rows into the packed CSR tables so queries over
	// the precomputed terms take the lock-free decode path.
	g.Sim.Pack()
	g.Clos.Pack()
	return nil
}

// Warm runs the offline stage for the entire term vocabulary: term
// similarity and closeness for every term node in the TAT graph, fanned
// out over Options.PrecomputeWorkers goroutines. After Warm returns nil
// every reformulation request is served from the packed tables — no
// query ever pays first-touch walk latency. Cancel ctx to stop early; the
// partial warm is kept and the context's error returned.
func (e *Engine) Warm(ctx context.Context) error {
	g := e.cur()
	nodes := g.TG.TermNodeIDs()
	if err := g.Sim.Precompute(ctx, nodes); err != nil {
		return fmt.Errorf("kqr: warming similarity: %w", err)
	}
	if err := g.Clos.Precompute(ctx, nodes); err != nil {
		return fmt.Errorf("kqr: warming closeness: %w", err)
	}
	// Pack after the full warm so every query is served from the flat
	// CSR tables rather than the overlay.
	g.Sim.Pack()
	g.Clos.Pack()
	return nil
}
