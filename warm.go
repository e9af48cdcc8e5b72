package kqr

import (
	"context"
	"fmt"

	"kqr/internal/graph"
)

// PrecomputeTerms runs the offline extraction (similarity + closeness)
// for the given terms, computing their rows so subsequent queries over
// those terms are pure lookups. Every term is resolved first, and an
// unknown one fails the call, named, before anything is computed. The
// rows are then computed the way Warm computes the whole vocabulary:
// batched, over Options.PrecomputeWorkers goroutines (default
// runtime.GOMAXPROCS(0)). This is the paper's offline stage made
// explicit; combine with SaveArtifacts to persist it, or use Warm to
// precompute the whole vocabulary.
func (e *Engine) PrecomputeTerms(terms []string) error {
	g := e.cur()
	nodes := make([]graph.NodeID, len(terms))
	for i, term := range terms {
		node, err := g.Core.ResolveTerm(term)
		if err != nil {
			return fmt.Errorf("kqr: precompute term %q: %w", term, err)
		}
		nodes[i] = node
	}
	ctx := context.Background()
	if err := g.Sim.Precompute(ctx, nodes); err != nil {
		return fmt.Errorf("kqr: precomputing similarity: %w", err)
	}
	// Closeness is also needed from every candidate (HMM transitions
	// start at candidate nodes).
	clos := nodes
	for _, v := range nodes {
		cands, _, _ := g.Sim.SimRow(v)
		clos = append(clos, cands...)
	}
	if err := g.Clos.Precompute(ctx, clos); err != nil {
		return fmt.Errorf("kqr: precomputing closeness: %w", err)
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
