package kqr

import (
	"context"
	"fmt"
)

// Warm runs the offline stage for the entire term vocabulary: term
// similarity and closeness for every term node in the TAT graph, fanned
// out over GOMAXPROCS goroutines, then published as the packed tables.
// After Warm returns nil the generation is complete: every
// reformulation request is served from the packed tables, no query pays
// first-touch walk latency, SaveArtifacts writes every table, and each
// promotion precomputes its successor in full. On an engine whose
// tables are already complete (warmed, or restored from a snapshot)
// Warm returns at once. Cancel ctx to stop early: the rows computed so
// far stay cached as lazy rows and the context's error is returned.
func (e *Engine) Warm(ctx context.Context) error {
	if _, _, err := e.cur().Warm(ctx); err != nil {
		return fmt.Errorf("kqr: warming %w", err)
	}
	return nil
}
