package kqr

import (
	"fmt"

	"kqr/internal/artifact"
	"kqr/internal/diskmode"
	"kqr/internal/live"
)

// DiskStats is the resident-memory and page-cache accounting of a
// disk-mode engine's table store — budget split, resident bytes,
// hit/miss/eviction counters. The server exports it verbatim under
// /api/metrics.
type DiskStats = diskmode.Stats

// attachDiskTables opens the paged snapshot at path and installs its
// page-backed table views into g: the similarity and closeness row
// stores each get a packed view that faults rows from disk
// through the store's budgeted page cache, and g.Pager takes ownership
// of the store so retiring the generation closes it. The snapshot must
// be v2 (SaveArtifactsPaged), carry this engine's fingerprint and
// vocabulary, and contain both tables the mode needs, each with every
// term's row.
func (e *Engine) attachDiskTables(g *live.Generation, path string) error {
	// The mend index is resident by construction (lookups must not
	// fault pages), so it spends from the same table-memory budget the
	// operator set: whatever it uses is no longer available to the
	// page cache, and a budget the index alone exhausts fails Open the
	// same way an undersized page cache would.
	total := e.mgr.Config().TableMemBudget
	budget := total
	if g.Mender != nil {
		budget -= g.Mender.Bytes()
		if budget <= 0 {
			return fmt.Errorf("kqr: disk mode: mend index (%d bytes) exhausts TableMemBudget (%d); raise the budget or disable Options.Mend",
				g.Mender.Bytes(), total)
		}
	}
	store, err := diskmode.Open(path, e.artifactFingerprint(g), diskmode.Options{Budget: budget})
	if err != nil {
		return fmt.Errorf("kqr: disk mode: %w", err)
	}
	idx := store.Index()
	err = live.ValidateVocabulary(g, idx.Classes, idx.Vocabulary)
	for _, kind := range []artifact.TableKind{g.SimKind, artifact.TableCloseness} {
		t := idx.Table(kind)
		if err == nil && t == nil {
			err = fmt.Errorf("no %s table (saved under a different mode?)", kind)
		}
		if err == nil {
			err = live.CheckTable(g, kind, t.Has)
		}
	}
	if err != nil {
		store.Close()
		return fmt.Errorf("kqr: disk mode: %s: %w", path, err)
	}
	g.Sim.Install(store.Table(g.SimKind))
	g.Clos.Install(store.Table(artifact.TableCloseness))
	g.Pager = store
	return nil
}

// diskMode reports whether the engine serves its tables from a paged
// snapshot (Options.DiskMode, resolved to a positive table budget).
func (e *Engine) diskMode() bool { return e.mgr.Config().TableMemBudget > 0 }

// DiskTables reports the current generation's disk-mode table store
// statistics. ok is false when the engine is not serving paged tables
// (not opened with Options.DiskMode, or the generation predates the
// disk attach).
func (e *Engine) DiskTables() (DiskStats, bool) {
	if s, ok := e.cur().Pager.(*diskmode.Store); ok {
		return s.Stats(), true
	}
	return DiskStats{}, false
}
