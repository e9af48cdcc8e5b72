package kqr_test

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kqr"
	"kqr/synthetic"
)

// warmAndSavePaged warms an engine over the bibliography corpus and
// saves a v2 paged snapshot.
func warmAndSavePaged(t *testing.T, mode kqr.SimilarityMode) (*kqr.Engine, string) {
	t.Helper()
	eng, err := kqr.Open(bibliographyDataset(t), kqr.Options{Similarity: mode})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "offline.paged")
	if err := eng.SaveArtifactsPaged(path); err != nil {
		t.Fatal(err)
	}
	return eng, path
}

// TestDiskModeRoundTrip is the disk-mode acceptance property: Warm →
// SaveArtifactsPaged → fresh Open with DiskMode yields bit-identical
// SimilarTerms and CloseTerms for every vocabulary term, while the
// table payloads stay on disk behind a byte budget.
func TestDiskModeRoundTrip(t *testing.T) {
	for _, mode := range []kqr.SimilarityMode{kqr.ContextualWalk, kqr.Cooccurrence} {
		warm, path := warmAndSavePaged(t, mode)
		disk, err := kqr.Open(bibliographyDataset(t), kqr.Options{
			Similarity:   mode,
			ArtifactPath: path,
			DiskMode:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if info := disk.Artifact(); !info.Loaded || !info.Disk || info.FormatVersion != 2 {
			t.Fatalf("mode %v: disk provenance wrong: %+v", mode, info)
		}
		if s := disk.GraphStats(); !strings.Contains(s, "disk mode") {
			t.Fatalf("mode %v: GraphStats lacks disk provenance: %q", mode, s)
		}
		stats, ok := disk.DiskTables()
		if !ok || stats.Tables == 0 || stats.ResidentBytes > stats.Budget {
			t.Fatalf("mode %v: disk stats wrong: %+v", mode, stats)
		}
		for _, term := range warm.Vocabulary() {
			want, err := warm.SimilarTerms(term, 10)
			if err != nil {
				t.Fatal(err)
			}
			got, err := disk.SimilarTerms(term, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(got) {
				t.Fatalf("mode %v term %q: %d vs %d similar terms", mode, term, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("mode %v term %q entry %d: %+v != %+v", mode, term, i, got[i], want[i])
				}
			}
			wantC, err := warm.CloseTerms(term, 10, "")
			if err != nil {
				t.Fatal(err)
			}
			gotC, err := disk.CloseTerms(term, 10, "")
			if err != nil {
				t.Fatal(err)
			}
			if len(wantC) != len(gotC) {
				t.Fatalf("mode %v term %q: %d vs %d close terms", mode, term, len(gotC), len(wantC))
			}
			for i := range wantC {
				if wantC[i] != gotC[i] {
					t.Fatalf("mode %v term %q close entry %d: %+v != %+v", mode, term, i, gotC[i], wantC[i])
				}
			}
		}
		if stats, _ := disk.DiskTables(); stats.Misses == 0 {
			t.Fatalf("mode %v: no page faults — tables not actually disk-backed: %+v", mode, stats)
		}
	}
}

// TestDiskModeReformulate: end-to-end suggestions must match between a
// warmed in-RAM engine and a disk-mode engine over the same snapshot.
func TestDiskModeReformulate(t *testing.T) {
	warm, path := warmAndSavePaged(t, kqr.ContextualWalk)
	disk, err := kqr.Open(bibliographyDataset(t), kqr.Options{
		ArtifactPath: path,
		DiskMode:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range [][]string{{"probabilistic", "databases"}, {"uncertain", "data"}} {
		want, err := warm.Reformulate(query, 5)
		if err != nil {
			continue // term not in corpus: same answer both sides
		}
		got, err := disk.Reformulate(query, 5)
		if err != nil {
			t.Fatalf("disk engine failed where warm succeeded: %v", err)
		}
		if len(want) != len(got) {
			t.Fatalf("query %v: %d vs %d suggestions", query, len(got), len(want))
		}
		for i := range want {
			if want[i].Score != got[i].Score || strings.Join(want[i].Terms, " ") != strings.Join(got[i].Terms, " ") {
				t.Fatalf("query %v suggestion %d: %+v != %+v", query, i, got[i], want[i])
			}
		}
	}
}

// TestDiskModeTruncatedUnderStore: a snapshot cut short under an open
// disk-mode engine must not crash it. Every page past the cut fails its
// read, is counted corrupt, and the row is computed live instead — so
// every answer still equals the warmed RAM engine's.
func TestDiskModeTruncatedUnderStore(t *testing.T) {
	corpus := func() *kqr.Dataset {
		c, err := synthetic.Bibliography(synthetic.Config{Seed: 5, Topics: 4, Confs: 8, Authors: 60, Papers: 400})
		if err != nil {
			t.Fatal(err)
		}
		return c.Dataset
	}
	warm, err := kqr.Open(corpus(), kqr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "offline.paged")
	if err := warm.SaveArtifactsPaged(path); err != nil {
		t.Fatal(err)
	}
	disk, err := kqr.Open(corpus(), kqr.Options{ArtifactPath: path, DiskMode: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 4<<10); err != nil {
		t.Fatal(err)
	}
	for _, term := range warm.Vocabulary() {
		want, err := warm.SimilarTerms(term, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := disk.SimilarTerms(term, 10)
		if err != nil {
			t.Fatalf("term %q over the truncated file: %v", term, err)
		}
		wantC, err := warm.CloseTerms(term, 10, "")
		if err != nil {
			t.Fatal(err)
		}
		gotC, err := disk.CloseTerms(term, 10, "")
		if err != nil {
			t.Fatalf("term %q over the truncated file: %v", term, err)
		}
		if !slices.Equal(got, want) || !slices.Equal(gotC, wantC) {
			t.Fatalf("term %q over the truncated file: similar %+v close %+v, RAM mode similar %+v close %+v",
				term, got, gotC, want, wantC)
		}
	}
	if stats, _ := disk.DiskTables(); stats.CorruptPages == 0 || stats.BlobBytes < 8<<10 {
		t.Fatalf("want a blob well past the 4 KiB cut and corrupt pages counted: %+v", stats)
	}
}

// TestDiskModeErrors: misconfiguration must fail at Open with clear
// errors, not fall back silently.
func TestDiskModeErrors(t *testing.T) {
	if _, err := kqr.Open(bibliographyDataset(t), kqr.Options{DiskMode: true}); err == nil {
		t.Fatal("disk mode without ArtifactPath accepted")
	}
	// A v1 snapshot has no page index.
	_, v1path := warmAndSave(t, kqr.ContextualWalk)
	if _, err := kqr.Open(bibliographyDataset(t), kqr.Options{ArtifactPath: v1path, DiskMode: true}); err == nil {
		t.Fatal("disk mode over a v1 snapshot accepted")
	}
	// Disk mode is read-only: a live engine would compute promoted
	// generations' tables into RAM.
	_, paged := warmAndSavePaged(t, kqr.ContextualWalk)
	if _, err := kqr.Open(bibliographyDataset(t), kqr.Options{ArtifactPath: paged, DiskMode: true, Live: true}); err == nil {
		t.Fatal("disk mode with Live accepted")
	}
	// A budget smaller than the resident index must be rejected.
	if _, err := kqr.Open(bibliographyDataset(t), kqr.Options{
		ArtifactPath: paged, DiskMode: true, TableMemBudget: 64,
	}); err == nil {
		t.Fatal("impossible budget accepted")
	}
}

// TestDiskModeReload: ReloadArtifacts in disk mode must swap in a new
// generation with a fresh store and retire (and close) the old one;
// queries keep answering bit-identically throughout.
func TestDiskModeReload(t *testing.T) {
	warm, path := warmAndSavePaged(t, kqr.ContextualWalk)
	retired := make(chan uint64, 4)
	disk, err := kqr.Open(bibliographyDataset(t), kqr.Options{
		ArtifactPath: path,
		DiskMode:     true,
		OnRetire:     func(epoch uint64) { retired <- epoch },
	})
	if err != nil {
		t.Fatal(err)
	}
	term := warm.Vocabulary()[0]
	before, err := disk.SimilarTerms(term, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.ReloadArtifacts(path); err != nil {
		t.Fatal(err)
	}
	select {
	case epoch := <-retired:
		if epoch != 1 {
			t.Fatalf("retired epoch %d, want 1", epoch)
		}
	default:
		t.Fatal("old generation not retired")
	}
	after, err := disk.SimilarTerms(term, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("reload changed results: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("reload changed results at %d: %+v != %+v", i, after[i], before[i])
		}
	}
	if stats, ok := disk.DiskTables(); !ok || stats.Tables == 0 {
		t.Fatalf("reloaded generation has no disk store: %+v", stats)
	}
	// LoadArtifacts in disk mode routes through the reload path.
	if err := disk.LoadArtifacts(path); err != nil {
		t.Fatal(err)
	}
	if epoch := disk.Epoch(); epoch != 3 {
		t.Fatalf("epoch = %d, want 3 after two reloads", epoch)
	}
}
