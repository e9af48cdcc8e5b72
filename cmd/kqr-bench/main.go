// Command kqr-bench regenerates the tables and figures of the paper's
// evaluation section over the synthetic corpus and prints them in the
// paper's layout. Run all experiments or select one:
//
//	kqr-bench                  # everything
//	kqr-bench -list            # experiment catalogue, one line each
//	kqr-bench -exp fig5        # just the precision comparison
//	kqr-bench -papers 10000    # bigger corpus
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"kqr/internal/dblpgen"
	"kqr/internal/experiments"
	"kqr/internal/graph"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: all, table1, table2, fig5, fig7, fig8, fig9, fig10, table3, synonyms, ablation, offline")
		list    = flag.Bool("list", false, "print every experiment with a one-line description and exit")
		seed    = flag.Int64("seed", 20120401, "corpus seed")
		topics  = flag.Int("topics", 8, "latent topics")
		confs   = flag.Int("confs", 32, "conferences")
		authors = flag.Int("authors", 600, "authors")
		papers  = flag.Int("papers", 3000, "papers")
		n       = flag.Int("n", 10, "candidates per query term")
		queries = flag.Int("queries", 25, "queries per timing point")
		reps    = flag.Int("reps", 3, "timing repetitions")
		seeds   = flag.Int("seeds", 1, "query seeds for fig5 (>1 reports mean±std)")
		csvDir  = flag.String("csv", "", "also write experiment data as CSV files into this directory")
		jsonOut = flag.String("json", "", "with -exp offline, write the experiment data as JSON to this file")
		commit  = flag.String("commit", "unknown", "with -exp offline -json, the commit to record in the file (make bench-offline passes git describe)")
	)
	flag.Parse()

	if *list {
		printCatalogue()
		return
	}
	if err := run(*exp, dblpgen.Config{
		Seed: *seed, Topics: *topics, Confs: *confs, Authors: *authors, Papers: *papers,
	}, *n, experiments.TimingConfig{QueriesPerPoint: *queries, Reps: *reps}, *seeds, *csvDir, *jsonOut, *commit); err != nil {
		fmt.Fprintln(os.Stderr, "kqr-bench:", err)
		os.Exit(1)
	}
}

// catalogue lists every experiment in the order the paper (and this
// repo's extensions) introduce them, with the one-liner -list prints.
var catalogue = []struct{ name, desc string }{
	{"table1", "similar-term lists for the paper's three probe terms"},
	{"table2", "close-term lists with attribute filters"},
	{"fig5", "suggestion precision vs k against planted ground truth"},
	{"fig7", "decode latency of Algorithm 2 vs Algorithm 3 by number of query terms"},
	{"fig8", "Algorithm 3 split into its Viterbi and A* stages by number of query terms"},
	{"fig9", "Algorithm 3's A* stage vs top-k suggestions requested"},
	{"fig10", "online reformulation latency vs candidates per term"},
	{"table3", "end-to-end reformulation examples"},
	{"synonyms", "planted-synonym recall over the whole vocabulary"},
	{"ablation", "restart preference, smoothing λ, closeness beam"},
	{"offline", "offline precompute scaling over worker counts (BENCH_offline.json)"},
}

func printCatalogue() {
	fmt.Println("experiments (run one with -exp NAME, everything paper-shaped with -exp all):")
	for _, e := range catalogue {
		fmt.Printf("  %-9s %s\n", e.name, e.desc)
	}
}

func run(exp string, cfg dblpgen.Config, n int, tcfg experiments.TimingConfig, fig5Seeds int, csvDir, jsonOut, commit string) error {
	start := time.Now()
	fmt.Printf("building corpus (seed=%d topics=%d confs=%d authors=%d papers=%d)...\n",
		cfg.Seed, cfg.Topics, cfg.Confs, cfg.Authors, cfg.Papers)
	s, err := experiments.New(cfg, n)
	if err != nil {
		return err
	}
	fmt.Printf("corpus ready in %v: %s\n", time.Since(start).Round(time.Millisecond), s.Corpus.DB.Stats())
	fmt.Printf("TAT graph: %d nodes (%d terms), %d edges\n\n",
		s.TG.NumNodes(), s.TG.NumTermNodes(), s.TG.CSR().NumEdges())

	want := func(name string) bool { return exp == "all" || exp == name }
	ran := false

	if want("table1") {
		ran = true
		rows, err := s.Table1([]string{"probabilistic", "xml", "frequent"}, 8)
		if err != nil {
			return fmt.Errorf("table1: %w", err)
		}
		fmt.Println(experiments.Render(rows))
	}
	if want("table2") {
		ran = true
		rows, err := s.Table2([]string{"xml", "probabilistic"}, 10)
		if err != nil {
			return fmt.Errorf("table2: %w", err)
		}
		fmt.Println(experiments.Render(rows))
	}
	if want("fig5") {
		ran = true
		if fig5Seeds > 1 {
			seedList := make([]int64, fig5Seeds)
			for i := range seedList {
				seedList[i] = int64(5 + i*101)
			}
			rows, err := s.Fig5Multi(10, seedList)
			if err != nil {
				return fmt.Errorf("fig5: %w", err)
			}
			fmt.Println(experiments.Render(rows))
		} else {
			rows, err := s.Fig5(10, 5)
			if err != nil {
				return fmt.Errorf("fig5: %w", err)
			}
			fmt.Println(experiments.Render(rows))
			if err := experiments.SaveCSV(csvDir, "fig5.csv", rows); err != nil {
				return err
			}
		}
	}
	if want("fig7") {
		ran = true
		rows, err := s.Fig7(8, tcfg)
		if err != nil {
			return fmt.Errorf("fig7: %w", err)
		}
		fmt.Println(experiments.Render(rows))
		if err := experiments.SaveCSV(csvDir, "fig7.csv", rows); err != nil {
			return err
		}
	}
	if want("fig8") {
		ran = true
		rows, err := s.Fig8(8, tcfg)
		if err != nil {
			return fmt.Errorf("fig8: %w", err)
		}
		fmt.Println(experiments.Render(rows))
		if err := experiments.SaveCSV(csvDir, "fig8.csv", rows); err != nil {
			return err
		}
	}
	if want("fig9") {
		ran = true
		rows, err := s.Fig9(6, []int{1, 5, 10, 20, 30, 40, 50}, tcfg)
		if err != nil {
			return fmt.Errorf("fig9: %w", err)
		}
		fmt.Println(experiments.Render(rows))
		if err := experiments.SaveCSV(csvDir, "fig9.csv", rows); err != nil {
			return err
		}
	}
	if want("fig10") {
		ran = true
		rows, err := s.Fig10(6, []int{5, 10, 15, 20, 30, 40, 50}, tcfg)
		if err != nil {
			return fmt.Errorf("fig10: %w", err)
		}
		fmt.Println(experiments.Render(rows))
		if err := experiments.SaveCSV(csvDir, "fig10.csv", rows); err != nil {
			return err
		}
	}
	if want("table3") {
		ran = true
		rows, err := s.Table3(19, 4)
		if err != nil {
			return fmt.Errorf("table3: %w", err)
		}
		fmt.Println(experiments.Render(rows))
		if err := experiments.SaveCSV(csvDir, "table3.csv", rows); err != nil {
			return err
		}
	}
	if exp == "ablation" {
		ran = true
		if err := runAblations(s); err != nil {
			return fmt.Errorf("ablation: %w", err)
		}
	}
	if exp == "offline" {
		ran = true
		rows, err := s.OfflineScaling(experiments.DefaultOfflineWorkerCounts(), 0)
		if err != nil {
			return fmt.Errorf("offline: %w", err)
		}
		fmt.Println(experiments.RenderOffline(rows))
		if jsonOut != "" {
			f, err := os.Create(jsonOut)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := experiments.WriteOfflineJSON(f, cfg, s.TG, commit, rows); err != nil {
				return err
			}
			fmt.Println("wrote", jsonOut)
		}
	}
	if exp == "synonyms" || exp == "all" {
		ran = true
		rows, err := s.SynonymRecall(64)
		if err != nil {
			return fmt.Errorf("synonyms: %w", err)
		}
		fmt.Println(experiments.Render(rows))
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want all, table1, table2, fig5, fig7, fig8, fig9, fig10, table3, synonyms, ablation or offline; see -list)", exp)
	}
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runAblations prints the DESIGN.md §6 ablations: preference mode,
// smoothing weight, and closeness beam.
func runAblations(s *experiments.Setup) error {
	fmt.Println("Ablation 1 — restart preference (similar terms of \"probabilistic\"):")
	node, err := s.TAT.ResolveTerm("probabilistic")
	if err != nil {
		return err
	}
	partner := s.Corpus.Truth.Synonym["probabilistic"]
	for _, mode := range []struct {
		name string
		list func() ([]kqrScored, error)
	}{
		{"contextual", func() ([]kqrScored, error) { return s.SimCtx.SimilarNodes(node, 64) }},
		{"individual", func() ([]kqrScored, error) { return s.SimInd.SimilarNodes(node, 64) }},
	} {
		list, err := mode.list()
		if err != nil {
			return err
		}
		rank := -1
		for i, sn := range list {
			if s.TG.TermText(sn.Node) == partner {
				rank = i + 1
				break
			}
		}
		top := make([]string, 0, 5)
		for _, sn := range list[:min(5, len(list))] {
			top = append(top, s.TG.TermText(sn.Node))
		}
		fmt.Printf("  %-11s partner %q rank %d; top: %v\n", mode.name, partner, rank, top)
	}

	fmt.Println("\nAblation 2 — smoothing λ (suggestions for 10 random 3-term queries):")
	queries, err := s.SampleQueries(10, 3, 7)
	if err != nil {
		return err
	}
	for _, lam := range []float64{0.5, 0.8, 1.0} {
		eng, err := experiments.EngineWithLambda(s, lam)
		if err != nil {
			return err
		}
		total := 0
		for _, q := range queries {
			refs, err := eng.Reformulate(q, 10)
			if err != nil {
				return err
			}
			total += len(refs)
		}
		fmt.Printf("  λ=%.1f: %d/%d suggestion slots filled\n", lam, total, 10*len(queries))
	}

	fmt.Println("\nAblation 3 — closeness beam (close terms of \"probabilistic\", beam vs exact):")
	exact, _, err := experiments.ClosenessWithBeam(s, 0)
	if err != nil {
		return err
	}
	exactTop := exact.CloseTerms(node, 10, "papers.title")
	for _, beam := range []int{16, 64, 256} {
		pruned, _, err := experiments.ClosenessWithBeam(s, beam)
		if err != nil {
			return err
		}
		prunedTop := pruned.CloseTerms(node, 10, "papers.title")
		agree := 0
		for i := range prunedTop {
			if i < len(exactTop) && prunedTop[i].Node == exactTop[i].Node {
				agree++
			}
		}
		fmt.Printf("  beam=%-4d top-10 agreement with exact: %d/10\n", beam, agree)
	}
	return nil
}

// kqrScored aliases the internal scored type for the ablation helpers.
type kqrScored = graph.Scored

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
