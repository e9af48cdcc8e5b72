// Disk-mode experiment (ISSUE 9): serves the offline tables page by
// page from a v2 paged snapshot behind a byte budget smaller than the
// tables themselves, verifies every vocabulary term answers
// bit-identically to the fully decoded in-RAM engine, and compares the
// query latency distributions (p50/p99) of the two serving modes. The
// headline numbers: how many table bytes the budget kept out of RAM,
// and how much query tail latency that saving costs.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"kqr"
	"kqr/internal/dblpgen"
)

// DiskmodeConfig shapes one disk-mode run.
type DiskmodeConfig struct {
	// Budget is the resident byte budget for the disk-backed tables:
	// page index plus decoded-page cache (default 512 KiB). Pick it
	// below the tables' decoded size or the experiment measures a
	// cache that never evicts.
	Budget int64
	// Queries is how many vocabulary terms the measured sweep probes
	// (default 256, capped at the vocabulary size).
	Queries int
	// Reps is how many times the measured sweep repeats (default 20).
	Reps int
	// Seed drives workload sampling.
	Seed int64
	// Strict fails the run unless the tables actually exceeded the
	// budget and the cache faulted and evicted — the CI gate that the
	// corpus/budget pairing still exercises disk mode.
	Strict bool
}

func (c DiskmodeConfig) withDefaults() DiskmodeConfig {
	if c.Budget <= 0 {
		c.Budget = 512 << 10
	}
	if c.Queries <= 0 {
		c.Queries = 256
	}
	if c.Reps <= 0 {
		c.Reps = 20
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c
}

// DiskmodeVariant is the latency distribution of one serving mode.
type DiskmodeVariant struct {
	Name string        `json:"name"`
	P50  time.Duration `json:"p50_ns"`
	P99  time.Duration `json:"p99_ns"`
	Mean time.Duration `json:"mean_ns"`
	Ops  int           `json:"ops"`
}

// DiskmodeRow is the result of one disk-mode run.
type DiskmodeRow struct {
	// Terms is the vocabulary size; VerifiedTerms counts terms whose
	// SimilarTerms and CloseTerms answers were bit-identical between
	// the in-RAM and the disk-backed engine (the run errors on any
	// mismatch, so on success VerifiedTerms == Terms).
	Terms         int `json:"terms"`
	VerifiedTerms int `json:"verified_terms"`
	Queries       int `json:"queries"`
	// FileBytes is the paged snapshot size on disk; the disk stats
	// below are the store's counters after the measured sweeps.
	FileBytes int64         `json:"file_bytes"`
	Disk      kqr.DiskStats `json:"disk"`
	// RAM and DiskMode are the two measured serving modes; SlowdownP99
	// is DiskMode.P99 / RAM.P99 — the tail-latency price of the byte
	// budget.
	RAM         DiskmodeVariant `json:"ram"`
	DiskMode    DiskmodeVariant `json:"disk_mode"`
	SlowdownP99 float64         `json:"slowdown_p99"`
}

// DiskmodeRun builds the synthetic DBLP corpus, warms the full offline
// stage, saves a v2 paged snapshot, opens it in disk mode under the
// configured byte budget, proves the disk-backed engine bit-identical
// to the warm one over the whole vocabulary, then measures both
// engines' query latencies over the same sampled workload. dir hosts
// the snapshot file (use a temp dir).
func DiskmodeRun(cfg dblpgen.Config, dcfg DiskmodeConfig, dir string) (DiskmodeRow, error) {
	dcfg = dcfg.withDefaults()
	var row DiskmodeRow

	corpus, err := dblpgen.Generate(cfg)
	if err != nil {
		return row, err
	}
	ds := kqr.WrapDatabase(corpus.DB)
	warm, err := kqr.Open(ds, kqr.Options{})
	if err != nil {
		return row, err
	}
	if err := warm.Warm(context.Background()); err != nil {
		return row, err
	}
	path := filepath.Join(dir, "offline.paged")
	if err := warm.SaveArtifactsPaged(path); err != nil {
		return row, err
	}
	if st, err := os.Stat(path); err == nil {
		row.FileBytes = st.Size()
	}

	disk, err := kqr.Open(ds, kqr.Options{
		ArtifactPath:   path,
		DiskMode:       true,
		TableMemBudget: dcfg.Budget,
	})
	if err != nil {
		return row, err
	}

	// Full-vocabulary bit-identity between the two serving modes.
	vocab := warm.Vocabulary()
	row.Terms = len(vocab)
	for _, term := range vocab {
		wantSim, err1 := warm.SimilarTerms(term, 10)
		gotSim, err2 := disk.SimilarTerms(term, 10)
		wantClos, err3 := warm.CloseTerms(term, 10, "")
		gotClos, err4 := disk.CloseTerms(term, 10, "")
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return row, fmt.Errorf("diskmode: verifying %q: %v %v %v %v", term, err1, err2, err3, err4)
		}
		if !reflect.DeepEqual(wantSim, gotSim) || !reflect.DeepEqual(wantClos, gotClos) {
			return row, fmt.Errorf("diskmode: term %q differs between RAM and disk engine", term)
		}
		row.VerifiedTerms++
	}

	// Measured workload: a seeded shuffle of the vocabulary, truncated.
	// Sweeping distinct terms keeps the page cache churning when the
	// blob exceeds the budget — the tail we want to see.
	rng := rand.New(rand.NewSource(dcfg.Seed))
	workload := append([]string(nil), vocab...)
	rng.Shuffle(len(workload), func(i, j int) { workload[i], workload[j] = workload[j], workload[i] })
	if len(workload) > dcfg.Queries {
		workload = workload[:dcfg.Queries]
	}
	row.Queries = len(workload)

	if row.RAM, err = measureTables("in-ram", warm, workload, dcfg.Reps); err != nil {
		return row, err
	}
	if row.DiskMode, err = measureTables("disk-mode", disk, workload, dcfg.Reps); err != nil {
		return row, err
	}
	if row.RAM.P99 > 0 {
		row.SlowdownP99 = float64(row.DiskMode.P99) / float64(row.RAM.P99)
	}

	stats, ok := disk.DiskTables()
	if !ok {
		return row, fmt.Errorf("diskmode: engine reports no disk store")
	}
	row.Disk = stats
	if stats.ResidentBytes > stats.Budget {
		return row, fmt.Errorf("diskmode: resident %d bytes exceed budget %d", stats.ResidentBytes, stats.Budget)
	}
	if dcfg.Strict {
		switch {
		case stats.BlobBytes <= stats.Budget:
			return row, fmt.Errorf("diskmode: tables (%d blob bytes) fit the %d-byte budget — corpus too small to exercise disk mode", stats.BlobBytes, stats.Budget)
		case stats.Misses == 0 || stats.Evictions == 0:
			return row, fmt.Errorf("diskmode: cache never faulted or never evicted (misses=%d evictions=%d)", stats.Misses, stats.Evictions)
		case stats.CorruptPages != 0:
			return row, fmt.Errorf("diskmode: %d corrupt pages", stats.CorruptPages)
		}
	}
	return row, nil
}

// measureTables times the table-serving query surface — one op is
// SimilarTerms plus CloseTerms for one term — over reps sweeps of the
// workload, after one warm-up sweep.
func measureTables(name string, eng *kqr.Engine, workload []string, reps int) (DiskmodeVariant, error) {
	v := DiskmodeVariant{Name: name}
	op := func(term string) error {
		if _, err := eng.SimilarTerms(term, 10); err != nil {
			return err
		}
		_, err := eng.CloseTerms(term, 10, "")
		return err
	}
	for _, term := range workload {
		if err := op(term); err != nil {
			return v, err
		}
	}
	ops := reps * len(workload)
	lats := make([]time.Duration, 0, ops)
	for r := 0; r < reps; r++ {
		for _, term := range workload {
			t0 := time.Now()
			if err := op(term); err != nil {
				return v, err
			}
			lats = append(lats, time.Since(t0))
		}
	}
	v.Ops = ops
	var total time.Duration
	for _, l := range lats {
		total += l
	}
	v.Mean = total / time.Duration(ops)
	v.P50, v.P99 = latencyPercentiles(lats)
	return v, nil
}

// RenderDiskmode formats the run for the console.
func RenderDiskmode(row DiskmodeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Disk mode — paged tables under a byte budget vs fully decoded (%d terms):\n", row.Terms)
	fmt.Fprintf(&b, "  bit-identity verified        %9d/%d terms\n", row.VerifiedTerms, row.Terms)
	fmt.Fprintf(&b, "  snapshot file                %12d bytes (%s faults)\n", row.FileBytes, row.Disk.Mode)
	fmt.Fprintf(&b, "  tables decoded in RAM        %12d bytes\n", row.Disk.BlobBytes)
	fmt.Fprintf(&b, "  budget / resident            %12d / %d bytes\n", row.Disk.Budget, row.Disk.ResidentBytes)
	fmt.Fprintf(&b, "  page cache                   %12d hits, %d misses, %d evictions\n",
		row.Disk.Hits, row.Disk.Misses, row.Disk.Evictions)
	for _, v := range []DiskmodeVariant{row.RAM, row.DiskMode} {
		fmt.Fprintf(&b, "  %-12s p50 %-9v p99 %-9v mean %-9v (%d ops)\n",
			v.Name, v.P50.Round(time.Microsecond), v.P99.Round(time.Microsecond),
			v.Mean.Round(time.Microsecond), v.Ops)
	}
	fmt.Fprintf(&b, "  p99 slowdown: %.2fx\n", row.SlowdownP99)
	return b.String()
}

// diskmodeReport is the schema of BENCH_diskmode.json.
type diskmodeReport struct {
	Corpus  string      `json:"corpus"`
	MaxProc int         `json:"gomaxprocs"`
	Row     DiskmodeRow `json:"result"`
}

// WriteDiskmodeJSON writes the run as indented JSON (the
// `make bench-diskmode` artifact).
func WriteDiskmodeJSON(w io.Writer, cfg dblpgen.Config, row DiskmodeRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(diskmodeReport{
		Corpus:  fmt.Sprintf("dblpgen seed=%d topics=%d confs=%d authors=%d papers=%d", cfg.Seed, cfg.Topics, cfg.Confs, cfg.Authors, cfg.Papers),
		MaxProc: runtime.GOMAXPROCS(0),
		Row:     row,
	})
}
