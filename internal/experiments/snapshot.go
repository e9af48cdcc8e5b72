// Snapshot cold-start experiment (ISSUE 4): measures how much faster a
// replica starts by loading the persistent offline artifact than by
// recomputing the offline stage, and verifies the loaded tables are
// byte-identical to the computed ones.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"kqr"
	"kqr/internal/dblpgen"
)

// SnapshotRow is the result of one snapshot cold-start measurement.
type SnapshotRow struct {
	// Terms is the vocabulary size warmed and persisted.
	Terms int `json:"terms"`
	// Warm is how long the full-vocabulary offline compute took.
	Warm time.Duration `json:"warm_ns"`
	// Save is how long writing the v1 snapshot took; SavePaged the v2
	// paged one (SaveArtifactsPaged) of the same tables.
	Save      time.Duration `json:"save_ns"`
	SavePaged time.Duration `json:"save_paged_ns"`
	// Load is how long restoring the snapshot into a cold engine took.
	Load time.Duration `json:"load_ns"`
	// Speedup is Warm / Load — how many times faster a snapshot-backed
	// cold start is than recomputation.
	Speedup float64 `json:"speedup_load_vs_warm"`
	// FileBytes is the v1 snapshot's size on disk; PagedFileBytes the
	// v2 paged file's.
	FileBytes      int64 `json:"file_bytes"`
	PagedFileBytes int64 `json:"paged_file_bytes"`
	// VerifiedTerms counts vocabulary terms whose SimilarTerms and
	// CloseTerms results were compared between the warm and the loaded
	// engine; it equals Terms when the round trip is exact.
	VerifiedTerms int `json:"verified_terms"`
}

// SnapshotColdStart builds the synthetic DBLP corpus, warms the full
// offline stage, saves the snapshot, restores it into a fresh engine
// and verifies every vocabulary term round-trips exactly. dir hosts the
// snapshot file (use a temp dir); workers sizes the warm pool (0 =
// GOMAXPROCS).
func SnapshotColdStart(cfg dblpgen.Config, dir string, workers int) (SnapshotRow, error) {
	var row SnapshotRow
	corpus, err := dblpgen.Generate(cfg)
	if err != nil {
		return row, err
	}
	ds := kqr.WrapDatabase(corpus.DB)
	opts := kqr.Options{PrecomputeWorkers: workers}
	warm, err := kqr.Open(ds, opts)
	if err != nil {
		return row, err
	}

	start := time.Now()
	if err := warm.Warm(context.Background()); err != nil {
		return row, err
	}
	row.Warm = time.Since(start)

	path := filepath.Join(dir, "offline.snapshot")
	start = time.Now()
	if err := warm.SaveArtifacts(path); err != nil {
		return row, err
	}
	row.Save = time.Since(start)
	if st, err := os.Stat(path); err == nil {
		row.FileBytes = st.Size()
	}
	paged := filepath.Join(dir, "offline.paged.snapshot")
	start = time.Now()
	if err := warm.SaveArtifactsPaged(paged); err != nil {
		return row, err
	}
	row.SavePaged = time.Since(start)
	if st, err := os.Stat(paged); err == nil {
		row.PagedFileBytes = st.Size()
	}

	cold, err := kqr.Open(ds, opts)
	if err != nil {
		return row, err
	}
	start = time.Now()
	if err := cold.LoadArtifacts(path); err != nil {
		return row, err
	}
	row.Load = time.Since(start)
	if row.Load > 0 {
		row.Speedup = float64(row.Warm) / float64(row.Load)
	}

	vocab := warm.Vocabulary()
	row.Terms = len(vocab)
	for _, term := range vocab {
		wantSim, err1 := warm.SimilarTerms(term, 10)
		gotSim, err2 := cold.SimilarTerms(term, 10)
		wantClos, err3 := warm.CloseTerms(term, 10, "")
		gotClos, err4 := cold.CloseTerms(term, 10, "")
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return row, fmt.Errorf("snapshot: verifying %q: %v %v %v %v", term, err1, err2, err3, err4)
		}
		if !reflect.DeepEqual(wantSim, gotSim) || !reflect.DeepEqual(wantClos, gotClos) {
			return row, fmt.Errorf("snapshot: term %q differs between warm and loaded engine", term)
		}
		row.VerifiedTerms++
	}
	return row, nil
}

// RenderSnapshot formats the measurement for the terminal.
func RenderSnapshot(row SnapshotRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Snapshot cold start (%d vocabulary terms, %d workers max):\n", row.Terms, runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "  warm (full offline compute)  %12v\n", row.Warm.Round(time.Millisecond))
	fmt.Fprintf(&b, "  save snapshot                %12v  (%d bytes)\n", row.Save.Round(time.Millisecond), row.FileBytes)
	fmt.Fprintf(&b, "  save paged snapshot          %12v  (%d bytes)\n", row.SavePaged.Round(time.Millisecond), row.PagedFileBytes)
	fmt.Fprintf(&b, "  load snapshot                %12v\n", row.Load.Round(time.Millisecond))
	fmt.Fprintf(&b, "  cold-start speedup           %11.1fx\n", row.Speedup)
	fmt.Fprintf(&b, "  round-trip verified          %9d/%d terms\n", row.VerifiedTerms, row.Terms)
	return b.String()
}

// snapshotReport is the schema of BENCH_snapshot.json.
type snapshotReport struct {
	Corpus  string      `json:"corpus"`
	MaxProc int         `json:"gomaxprocs"`
	Row     SnapshotRow `json:"result"`
}

// WriteSnapshotJSON writes the measurement as indented JSON (the
// `make bench-snapshot` artifact).
func WriteSnapshotJSON(w io.Writer, cfg dblpgen.Config, row SnapshotRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snapshotReport{
		Corpus:  fmt.Sprintf("dblpgen seed=%d topics=%d confs=%d authors=%d papers=%d", cfg.Seed, cfg.Topics, cfg.Confs, cfg.Authors, cfg.Papers),
		MaxProc: runtime.GOMAXPROCS(0),
		Row:     row,
	})
}
