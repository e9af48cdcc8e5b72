// Offline precompute scaling sweep (ISSUE 2): measures the paper's
// offline stage — contextual random walk and closeness search per term
// — at increasing worker-pool sizes, with fresh caches per point, to
// show the stage is embarrassingly parallel.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"kqr/internal/closeness"
	"kqr/internal/dblpgen"
	"kqr/internal/graph"
	"kqr/internal/randomwalk"
	"kqr/internal/tatgraph"
)

// OfflineRow is one point of the offline precompute scaling sweep.
type OfflineRow struct {
	Workers int           `json:"workers"`
	Terms   int           `json:"terms"`
	Walk    time.Duration `json:"walk_ns"`
	// WalkSweeps is the mean number of solver sweeps a term's walk took
	// to converge (the solver caps a solve at 60).
	WalkSweeps float64       `json:"walk_sweeps_per_term"`
	Closeness  time.Duration `json:"closeness_ns"`
	Total      time.Duration `json:"total_ns"`
	// Speedup is Total(workers=1) / Total(this row); 0 when the sweep
	// has no sequential baseline point.
	Speedup float64 `json:"speedup_vs_sequential"`
}

// OfflineScaling times the parallel offline stage over the first
// `terms` title-term nodes at each worker count. Every point starts
// from cold caches, so the sweep measures pure extraction throughput.
func (s *Setup) OfflineScaling(workerCounts []int, terms int) ([]OfflineRow, error) {
	var nodes []graph.NodeID
	for _, v := range s.TG.TermNodeIDs() {
		if s.TG.Class(v) == "papers.title" {
			nodes = append(nodes, v)
		}
		if terms > 0 && len(nodes) == terms {
			break
		}
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("offline: no title terms in corpus")
	}

	ctx := context.Background()
	out := make([]OfflineRow, 0, len(workerCounts))
	for _, w := range workerCounts {
		ex := randomwalk.NewExtractor(s.TG, randomwalk.Contextual, randomwalk.Options{})
		cl, err := closeness.New(s.TG, closeness.Options{})
		if err != nil {
			return nil, err
		}
		ex.Workers, cl.Workers = w, w
		row := OfflineRow{Workers: w, Terms: len(nodes)}

		start := time.Now()
		if err := ex.Precompute(ctx, nodes); err != nil {
			return nil, err
		}
		row.Walk = time.Since(start)
		if got := ex.Computes(); got != int64(len(nodes)) {
			return nil, fmt.Errorf("offline: %d walks for %d nodes", got, len(nodes))
		}
		row.WalkSweeps = float64(ex.Sweeps()) / float64(len(nodes))

		start = time.Now()
		if err := cl.Precompute(ctx, nodes); err != nil {
			return nil, err
		}
		row.Closeness = time.Since(start)

		row.Total = row.Walk + row.Closeness
		out = append(out, row)
	}
	for i := range out {
		if out[0].Workers == 1 && out[i].Total > 0 {
			out[i].Speedup = float64(out[0].Total) / float64(out[i].Total)
		}
	}
	return out, nil
}

// DefaultOfflineWorkerCounts is the standard sweep: sequential baseline,
// powers of two up to twice the machine's parallelism.
func DefaultOfflineWorkerCounts() []int {
	max := runtime.GOMAXPROCS(0) * 2
	counts := []int{1}
	for w := 2; w <= max; w *= 2 {
		counts = append(counts, w)
	}
	return counts
}

// RenderOffline formats the sweep as a text table.
func RenderOffline(rows []OfflineRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Offline precompute scaling (%d title terms, cold caches per point):\n", rows[0].Terms)
	fmt.Fprintf(&b, "  %-8s %12s %8s %12s %12s %9s\n", "workers", "walk", "sweeps", "closeness", "total", "speedup")
	for _, r := range rows {
		speedup := "-"
		if r.Speedup > 0 {
			speedup = fmt.Sprintf("%.2fx", r.Speedup)
		}
		fmt.Fprintf(&b, "  %-8d %12v %8.1f %12v %12v %9s\n",
			r.Workers, r.Walk.Round(time.Microsecond), r.WalkSweeps, r.Closeness.Round(time.Microsecond),
			r.Total.Round(time.Microsecond), speedup)
	}
	return b.String()
}

// offlineReport is the schema of BENCH_offline.json.
type offlineReport struct {
	Corpus  string       `json:"corpus"`
	Graph   string       `json:"graph"`
	Cores   int          `json:"cores"`
	MaxProc int          `json:"gomaxprocs"`
	Commit  string       `json:"commit"`
	Rows    []OfflineRow `json:"rows"`
}

// WriteOfflineJSON writes the sweep as indented JSON (the
// `make bench-offline` artifact), recording the corpus, the machine's
// core count and the commit the caller says it was measured on.
func WriteOfflineJSON(w io.Writer, cfg dblpgen.Config, tg *tatgraph.Graph, commit string, rows []OfflineRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(offlineReport{
		Corpus:  fmt.Sprintf("dblpgen seed=%d topics=%d confs=%d authors=%d papers=%d", cfg.Seed, cfg.Topics, cfg.Confs, cfg.Authors, cfg.Papers),
		Graph:   fmt.Sprintf("%d nodes, %d terms, %d edges", tg.NumNodes(), tg.NumTermNodes(), tg.CSR().NumEdges()),
		Cores:   runtime.NumCPU(),
		MaxProc: runtime.GOMAXPROCS(0),
		Commit:  commit,
		Rows:    rows,
	})
}
