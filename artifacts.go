package kqr

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"kqr/internal/artifact"
	"kqr/internal/live"
	"kqr/internal/randomwalk"
)

// ArtifactInfo reports the provenance of the engine's offline tables:
// whether they were restored from a snapshot file or are computed live.
// Operators use it (via GraphStats or directly) to tell which mode a
// replica is running in.
type ArtifactInfo struct {
	// Loaded is true when the offline tables were restored from a
	// snapshot file at Open (or by a later LoadArtifacts call).
	Loaded bool
	// Path is the snapshot file the tables came from, when Loaded.
	Path string
	// FormatVersion is the snapshot's on-disk format version, when
	// Loaded.
	FormatVersion uint16
	// FallbackReason explains why a requested snapshot was not used
	// (Options.ArtifactPath set but the load failed); empty otherwise.
	FallbackReason string
	// Disk is true when the tables are served page-by-page from the
	// snapshot file (Options.DiskMode) rather than decoded into RAM.
	Disk bool
}

// String renders the provenance the way GraphStats embeds it.
func (a ArtifactInfo) String() string {
	if a.Loaded && a.Disk {
		return fmt.Sprintf("paged snapshot v%d (%s, disk mode)", a.FormatVersion, a.Path)
	}
	if a.Loaded {
		return fmt.Sprintf("snapshot v%d (%s)", a.FormatVersion, a.Path)
	}
	return "computed"
}

// Artifact returns the provenance of the engine's offline tables. Safe
// to call concurrently with LoadArtifacts/ReloadArtifacts.
func (e *Engine) Artifact() ArtifactInfo {
	e.artifactMu.Lock()
	defer e.artifactMu.Unlock()
	return e.artifact
}

// setArtifact records provenance under the lock so concurrent readers
// (Artifact, GraphStats) never see a torn value.
func (e *Engine) setArtifact(a ArtifactInfo) {
	e.artifactMu.Lock()
	e.artifact = a
	e.artifactMu.Unlock()
}

// artifactFingerprint identifies everything the offline tables depend
// on: the corpus (table row counts), the built graph's shape and
// classes, every option that changes what the extractors compute, and
// the walk solver — two solvers agree to their tolerance, not in the low
// bits, and a partial snapshot is completed by local computation, so
// rows of different solvers must never meet in one table. Two engines
// share a fingerprint exactly when a snapshot saved by one is valid for
// the other.
func (e *Engine) artifactFingerprint(g *live.Generation) string {
	damping := e.opts.Damping
	if damping == 0 {
		damping = 0.8
	}
	closMax := e.opts.ClosenessMaxLen
	if closMax == 0 {
		closMax = 4
	}
	var b strings.Builder
	fmt.Fprintf(&b, "kqr mode=%s solver=%s damping=%g closmax=%d closbeam=%d phrases=%t plurals=%t",
		e.opts.Similarity, randomwalk.Solver, damping, closMax, e.opts.ClosenessBeam, e.opts.Phrases, e.opts.FoldPlurals)
	fmt.Fprintf(&b, " nodes=%d terms=%d edges=%d", g.TG.NumNodes(), g.TG.NumTermNodes(), g.TG.CSR().NumEdges())
	fmt.Fprintf(&b, " classes=%s", strings.Join(g.TG.Classes(), ","))
	fmt.Fprintf(&b, " corpus=%s", g.TG.DB().Stats())
	return b.String()
}

// buildSnapshot assembles the in-memory snapshot of one generation's
// offline stage: the full vocabulary plus whichever similarity table
// the engine's mode maintains, and the closeness table.
func (e *Engine) buildSnapshot(g *live.Generation) (*artifact.Snapshot, error) {
	return live.ArtifactSnapshot(g, e.artifactFingerprint(g))
}

// SaveArtifacts writes the engine's offline tables (similarity and
// closeness, plus the vocabulary that validates them) as a versioned,
// checksummed snapshot file. The write is atomic: a temp file in the
// same directory is renamed over path only after a successful write, so
// a crash never leaves a half-written snapshot behind. Save after Warm
// to capture the complete offline stage; a later Open with
// Options.ArtifactPath then restores it instead of recomputing.
func (e *Engine) SaveArtifacts(path string) error {
	snap, err := e.buildSnapshot(e.cur())
	if err != nil {
		return err
	}
	return writeSnapshotFile(path, snap.Write)
}

// SaveArtifactsPaged writes the offline tables as a KQRART v2 paged
// snapshot: the same vocabulary and tables as SaveArtifacts, but with
// each table split into a resident page index and a page-aligned entry
// blob, so a later Open with Options.DiskMode can serve it without
// decoding the tables into RAM. A v2 file also loads through the plain
// restore path (Options.ArtifactPath without DiskMode) — paged saving
// costs nothing in compatibility. The write is temp-file atomic like
// SaveArtifacts.
func (e *Engine) SaveArtifactsPaged(path string) error {
	snap, err := e.buildSnapshot(e.cur())
	if err != nil {
		return err
	}
	return writeSnapshotFile(path, func(w io.Writer) error {
		return snap.WritePaged(w, artifact.PagedOptions{})
	})
}

// writeSnapshotFile streams a snapshot encoding to path atomically: a
// temp file in the same directory is renamed over path only after a
// successful buffered write.
func writeSnapshotFile(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(dirOf(path), ".kqr-snapshot-*")
	if err != nil {
		return fmt.Errorf("kqr: saving artifacts: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriterSize(tmp, 1<<20)
	if err := write(bw); err != nil {
		tmp.Close()
		return fmt.Errorf("kqr: saving artifacts to %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("kqr: saving artifacts to %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("kqr: saving artifacts to %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("kqr: saving artifacts: %w", err)
	}
	return nil
}

// dirOf returns the directory containing path, "." for a bare name.
func dirOf(path string) string {
	if i := strings.LastIndexByte(path, os.PathSeparator); i >= 0 {
		return path[:i+1]
	}
	return "."
}

// loadSnapshotFile opens, validates and restores a snapshot file into
// the given generation — the shared body of LoadArtifacts and
// ReloadArtifacts.
func (e *Engine) loadSnapshotFile(g *live.Generation, path string) (*artifact.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("kqr: loading artifacts: %w", err)
	}
	defer f.Close()
	snap, err := artifact.Load(bufio.NewReaderSize(f, 1<<20), e.artifactFingerprint(g))
	if err != nil {
		return nil, fmt.Errorf("kqr: loading artifacts from %s: %w", path, err)
	}
	if err := e.restoreSnapshot(g, snap); err != nil {
		return nil, fmt.Errorf("kqr: loading artifacts from %s: %w", path, err)
	}
	return snap, nil
}

// LoadArtifacts restores the offline tables from a snapshot file
// previously written by SaveArtifacts into the current generation. The
// snapshot must carry this engine's exact fingerprint (same corpus,
// graph and offline options) and an intact vocabulary, or a wrapped
// artifact sentinel error (artifact.ErrFingerprint,
// artifact.ErrChecksum, …) is returned and the engine is left
// untouched. On success the provenance reported by Artifact and
// GraphStats updates exactly as if the snapshot had been loaded at Open
// via Options.ArtifactPath (any earlier FallbackReason clears). Open
// calls this automatically when Options.ArtifactPath is set, falling
// back to live compute on any error.
func (e *Engine) LoadArtifacts(path string) error {
	if e.opts.DiskMode {
		// A serving generation's fields are immutable; swapping its disk
		// store in place would race readers mid-fault. The reload path
		// builds a fresh generation, attaches the new store, and swaps —
		// the old store drains and closes when the old generation
		// retires.
		return e.ReloadArtifacts(path)
	}
	snap, err := e.loadSnapshotFile(e.cur(), path)
	if err != nil {
		return err
	}
	e.setArtifact(ArtifactInfo{Loaded: true, Path: path, FormatVersion: snap.Version})
	return nil
}

// ReloadArtifacts builds a fresh generation over the current corpus,
// restores the snapshot into it, and atomically swaps it in as the next
// epoch (mode "reload") — the SIGHUP path. Unlike LoadArtifacts it
// never mutates the serving generation, so queries racing the reload
// see either the old tables or the new ones, wholesale.
func (e *Engine) ReloadArtifacts(path string) error {
	cfg, err := e.liveConfig()
	if err != nil {
		return err
	}
	g, err := live.Build(e.cur().DB, cfg)
	if err != nil {
		return fmt.Errorf("kqr: reloading artifacts: %w", err)
	}
	info := ArtifactInfo{Loaded: true, Path: path}
	if e.opts.DiskMode {
		if err := e.attachDiskTables(g, path); err != nil {
			return err
		}
		info.FormatVersion, info.Disk = artifact.FormatVersionPaged, true
	} else {
		snap, err := e.loadSnapshotFile(g, path)
		if err != nil {
			return err
		}
		info.FormatVersion = snap.Version
	}
	if _, err := e.mgr.Swap(g); err != nil {
		if g.Pager != nil {
			g.Pager.Close()
		}
		return fmt.Errorf("kqr: reloading artifacts: %w", err)
	}
	e.setArtifact(info)
	return nil
}

// restoreSnapshot validates the snapshot's vocabulary against the
// generation's graph node by node, then installs the tables into the
// extractors. The vocabulary check backstops the fingerprint: node ids
// are only meaningful if every term node still carries the same text
// and class.
func (e *Engine) restoreSnapshot(g *live.Generation, snap *artifact.Snapshot) error {
	return live.RestoreArtifact(g, snap)
}

// loadArtifactsOrFallback is Open's never-fatal load path: any failure
// is logged and recorded in ArtifactInfo, and the engine serves with
// live computation instead.
func (e *Engine) loadArtifactsOrFallback(path string) {
	if err := e.LoadArtifacts(path); err != nil {
		log.Printf("kqr: snapshot %s not used (%v); falling back to live compute", path, err)
		e.setArtifact(ArtifactInfo{FallbackReason: err.Error()})
	}
}
