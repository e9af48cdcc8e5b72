// Command bench is the repository's system benchmark: it builds
// cmd/kqr-server from the working tree, runs it as a separate process
// with its production defaults, drives it over loopback HTTP and
// reports end-to-end metrics (untraced) or per-layer metrics (traced).
// BENCHMARK.json at the repository root fixes the workloads, metric
// names, units and regression bounds; README.md explains them.
//
//	bash bench/run.sh --workload http_zipf --seed 1 --seconds 12 --trace 0
//	go run ./bench -repeat 5          # every workload, five seeds each
//	go run ./bench -workload churn -trace 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// runLimit is the contract's cap on one run, less a margin to stop the
// children and report.
const runLimit = 170 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: every workload in BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "traffic seed; the same seed gives the same requests")
		seconds  = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of end-to-end metrics")
		repeat   = flag.Int("repeat", 1, "runs per workload, on consecutive seeds; above 1 a spread table is printed")
		dataset  = flag.String("dataset", "", "replay the request list saved in this file instead of generating one (needs -workload)")
	)
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace == 1, *repeat, *dataset); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// env is what every run of one invocation shares.
type env struct {
	root   string
	spec   *spec
	bin    string // the built kqr-server
	outDir string
	kids   *children
}

// newEnv finds the repository, reads BENCHMARK.json, prepares the
// build and output directories and builds the server under test.
func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, outDir: filepath.Join(root, "bench", "out"), kids: &children{}}
	if e.spec, err = loadSpec(root); err != nil {
		return nil, err
	}
	buildDir := filepath.Join(root, ".bench_build")
	for _, dir := range []string{filepath.Join(buildDir, "bin"), filepath.Join(buildDir, "tmp"), e.outDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	e.bin, err = buildServer(root, buildDir)
	return e, err
}

// abort stops the child servers, waits for them, and exits: the way
// out for SIGINT, SIGTERM and a run past its time limit.
func (e *env) abort(code int, why string) {
	e.kids.killAll()
	fmt.Fprintln(os.Stderr, "bench:", why)
	os.Exit(code)
}

// runOnce executes one workload once under the run time limit and
// returns its report and the contract's result line.
func (e *env) runOnce(r *run) (*report, result, error) {
	r.root, r.bin, r.outDir, r.kids = e.root, e.bin, e.outDir, e.kids
	watchdog := time.AfterFunc(runLimit, func() { e.abort(3, fmt.Sprintf("%s exceeded %v", r.workload, runLimit)) })
	rep, err := r.execute()
	watchdog.Stop()
	e.kids.killAll()
	if err != nil {
		return nil, result{}, fmt.Errorf("%s: %w", r.workload, err)
	}
	res, err := rep.result(e.spec, r.trace)
	return rep, res, err
}

func mainErr(workload string, seed int64, seconds float64, trace bool, repeat int, dataset string) error {
	e, err := newEnv()
	if err != nil {
		return err
	}
	var names []string
	switch {
	case workload == "":
		if dataset != "" {
			return fmt.Errorf("-dataset needs -workload")
		}
		for _, w := range e.spec.Workloads {
			names = append(names, w.Name)
		}
	case e.spec.hasWorkload(workload):
		names = []string{workload}
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		seconds = float64(e.spec.RunSeconds)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		e.abort(130, "interrupted by "+s.String())
	}()

	failed := false
	var last result
	for _, name := range names {
		var reports []*report
		for i := 0; i < repeat; i++ {
			rep, res, err := e.runOnce(&run{
				workload: name, seed: seed + int64(i), seconds: seconds, trace: trace, sz: fullSize, dataset: dataset,
			})
			if err != nil {
				return err
			}
			rep.print(e.spec)
			failed = failed || !res.Correct
			reports, last = append(reports, rep), res
		}
		if repeat > 1 {
			printSpread(e.spec, name, reports, trace)
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if failed {
		return fmt.Errorf("a correctness check failed (see the report above)")
	}
	return nil
}

// execute runs the workload in a scratch directory of its own and
// saves the report.
func (r *run) execute() (*report, error) {
	tmp, err := os.MkdirTemp(filepath.Join(r.root, ".bench_build", "tmp"), r.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r.tmp = tmp
	r.rep = &report{Workload: r.workload, Provenance: r.provenance(), Metrics: map[string]float64{}}
	if r.trace {
		r.tr = newTracer()
	}
	mode := "untraced"
	if r.trace {
		mode = "traced"
	}
	fmt.Printf("== %s  seed %d  %.0f s measured  %s  (commit %s, %s, nproc %d)\n",
		r.workload, r.seed, r.seconds, mode, r.rep.Provenance.Commit, r.rep.Provenance.GoVersion, r.rep.Provenance.NProc)
	if r.workload == "churn" {
		err = r.runChurn()
	} else {
		err = r.runRead()
	}
	if err != nil {
		return nil, err
	}
	r.rep.finish()
	suffix := ""
	if r.trace {
		suffix = "-trace"
	}
	path := filepath.Join(r.outDir, fmt.Sprintf("report-%s-%d%s.json", r.workload, r.seed, suffix))
	return r.rep, saveJSON(path, r.rep)
}

// quartiles returns the first and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (exclusive method): the
// rule the benchmark's spread is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// printSpread prints min / median / max per metric over the repeated
// runs and, for end-to-end metrics, the interquartile spread as a share
// of the median beside the bound it must stay within.
func printSpread(sp *spec, workload string, reports []*report, traced bool) {
	list := sp.EndToEnd
	if traced {
		list = sp.PerLayer
	}
	fmt.Printf("== %s over %d runs\n  %-34s %12s %12s %12s %9s %7s\n", workload, len(reports),
		"metric", "min", "median", "max", "spread", "bound")
	for _, m := range list {
		vals := make([]float64, len(reports))
		for i, r := range reports {
			vals[i] = r.Metrics[m.Name]
		}
		sort.Float64s(vals)
		med := median(vals)
		q1, q3 := quartiles(vals)
		spread := ratio(q3-q1, med)
		note := ""
		if !traced {
			note = fmt.Sprintf("%7.3f", m.Bound)
			if spread > m.Bound {
				note += "  SPREAD EXCEEDS BOUND"
			}
		}
		fmt.Printf("  %-34s %12.6g %12.6g %12.6g %8.2f%% %s\n", m.Name, vals[0], med, vals[len(vals)-1], spread*100, note)
	}
}
