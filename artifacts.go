package kqr

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"kqr/internal/artifact"
	"kqr/internal/live"
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
// on: what the manager's TableFingerprint covers (every option that
// changes what the extractors compute, the built graph's shape, and the
// walk solver — two solvers agree to their tolerance, not in the low
// bits), plus the graph's classes and the corpus (table row counts). Two engines share a
// fingerprint exactly when a snapshot saved by one is valid for the
// other.
func (e *Engine) artifactFingerprint(g *live.Generation) string {
	return fmt.Sprintf("kqr %s classes=%s corpus=%s",
		e.mgr.TableFingerprint(g), strings.Join(g.TG.Classes(), ","), g.TG.DB().Stats())
}

// SaveArtifacts writes the engine's offline tables (similarity and
// closeness, plus the vocabulary that validates them) as a versioned,
// checksummed snapshot file. The write is atomic: a temp file in the
// same directory is renamed over path only after a successful write, so
// a crash never leaves a half-written snapshot behind. Save after Warm
// to capture the complete offline stage; a later Open with
// Options.ArtifactPath then restores it instead of recomputing. A lazy
// engine's snapshot carries the vocabulary and no tables.
func (e *Engine) SaveArtifacts(path string) error {
	return e.saveSnapshot(path, (*artifact.Snapshot).Write)
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
	return e.saveSnapshot(path, func(snap *artifact.Snapshot, w io.Writer) error {
		return snap.WritePaged(w, artifact.PagedOptions{})
	})
}

// saveSnapshot snapshots the current generation's offline stage under
// the engine's fingerprint and streams its encoding to path atomically
// and durably: a temp file in the same directory is synced, renamed
// over path only after a successful write, and the directory synced.
func (e *Engine) saveSnapshot(path string, write func(*artifact.Snapshot, io.Writer) error) error {
	g := e.cur()
	snap := live.ArtifactSnapshot(g, e.artifactFingerprint(g))
	tmp, err := os.CreateTemp(filepath.Dir(path), ".kqr-snapshot-*")
	if err != nil {
		return fmt.Errorf("kqr: saving artifacts: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	// The codec stages its own output in blocks; no buffer is needed here.
	if err := write(snap, tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("kqr: saving artifacts to %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("kqr: saving artifacts to %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("kqr: saving artifacts to %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("kqr: saving artifacts: %w", err)
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("kqr: saving artifacts: %w", err)
	}
	defer dir.Close()
	if err := dir.Sync(); err != nil {
		return fmt.Errorf("kqr: saving artifacts: syncing %s: %w", filepath.Dir(path), err)
	}
	return nil
}

// restore attaches the snapshot at path to g and reports the
// provenance to record — the one restore path of Open, LoadArtifacts
// and ReloadArtifacts. In disk mode it installs page-backed views of a
// paged file (only into a generation no reader holds yet: Open's
// initial one or ReloadArtifacts' fresh build); otherwise it decodes
// the tables into RAM, which the stores publish atomically. Both check
// the fingerprint, then the vocabulary against the graph node by node.
func (e *Engine) restore(g *live.Generation, path string) (ArtifactInfo, error) {
	if e.diskMode() {
		if err := e.attachDiskTables(g, path); err != nil {
			return ArtifactInfo{}, err
		}
		return ArtifactInfo{Loaded: true, Path: path, FormatVersion: artifact.FormatVersionPaged, Disk: true}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return ArtifactInfo{}, fmt.Errorf("kqr: loading artifacts: %w", err)
	}
	defer f.Close()
	snap, err := artifact.Load(bufio.NewReaderSize(f, 1<<20), e.artifactFingerprint(g))
	if err == nil {
		err = live.RestoreArtifact(g, snap)
	}
	if err != nil {
		return ArtifactInfo{}, fmt.Errorf("kqr: loading artifacts from %s: %w", path, err)
	}
	return ArtifactInfo{Loaded: true, Path: path, FormatVersion: snap.Version}, nil
}

// LoadArtifacts restores the offline tables from a snapshot file
// previously written by SaveArtifacts into the current generation. The
// snapshot must carry this engine's exact fingerprint (same corpus,
// graph and offline options) and an intact vocabulary, or a wrapped
// artifact sentinel error (artifact.ErrFingerprint,
// artifact.ErrChecksum, …) is returned and the engine is left
// untouched. On success the provenance reported by Artifact and
// GraphStats updates exactly as if the snapshot had been loaded at Open
// via Options.ArtifactPath (any earlier FallbackReason clears).
func (e *Engine) LoadArtifacts(path string) error {
	if e.diskMode() {
		// A serving generation's fields are immutable; swapping its disk
		// store in place would race readers mid-fault. The reload path
		// builds a fresh generation, attaches the new store, and swaps —
		// the old store drains and closes when the old generation
		// retires.
		return e.ReloadArtifacts(path)
	}
	info, err := e.restore(e.cur(), path)
	if err != nil {
		return err
	}
	e.setArtifact(info)
	return nil
}

// ReloadArtifacts builds a fresh generation over the current corpus,
// restores the snapshot into it, and atomically swaps it in as the next
// epoch (mode "reload") — the SIGHUP path. Unlike LoadArtifacts it
// never mutates the serving generation, so queries racing the reload
// see either the old tables or the new ones, wholesale.
func (e *Engine) ReloadArtifacts(path string) error {
	g, err := e.mgr.Build(e.cur().DB)
	if err != nil {
		return fmt.Errorf("kqr: reloading artifacts: %w", err)
	}
	info, err := e.restore(g, path)
	if err != nil {
		return err
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
