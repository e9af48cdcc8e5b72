package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// spec is BENCHMARK.json: the one place metric names, units, directions
// and regression bounds are fixed. The benchmark reads it rather than
// repeating it, so the two cannot drift apart.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// phaseReport is the sent / ok / failed line of one phase and what each
// of its windows saw.
type phaseReport struct {
	Name    string         `json:"name"`
	Sent    int            `json:"sent"`
	OK      int            `json:"ok"`
	Failed  int            `json:"failed"`
	Shed    int            `json:"shed_503"`
	P50MS   float64        `json:"p50_ms"` // over the whole phase
	P99MS   float64        `json:"p99_ms"`
	Windows []windowReport `json:"windows,omitempty"`
}

type windowReport struct {
	OK    int     `json:"ok"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
}

// checkReport is one correctness check: how many things it looked at
// and how many were wrong.
type checkReport struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
}

// report is everything one run measured, saved as JSON beside the
// dataset it ran.
type report struct {
	Workload   string        `json:"workload"`
	Provenance provenance    `json:"provenance"`
	Dataset    string        `json:"dataset"`
	Phases     []phaseReport `json:"phases"`
	Checks     []checkReport `json:"checks"`
	// PMax is the percentile client.latency_pmax_ms was read at.
	PMax      float64            `json:"latency_pmax_percentile"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

func (r *report) set(name string, v float64) { r.Metrics[name] = v }

func (r *report) addPhase(name string, st *phaseStats) {
	pr := phaseReport{Name: name, Sent: st.sent, OK: st.ok, Failed: st.failed, Shed: st.shed,
		P50MS: nsToMS(st.lat.Percentile(50)), P99MS: nsToMS(st.lat.Percentile(99))}
	for i := range st.windows {
		w := &st.windows[i]
		pr.Windows = append(pr.Windows, windowReport{w.ok, nsToMS(w.lat.Percentile(50)), nsToMS(w.lat.Percentile(90)), nsToMS(w.lat.Percentile(99))})
	}
	r.Phases = append(r.Phases, pr)
	r.Attempted += st.sent
	r.Failed += st.failed
	fmt.Printf("  %-52s %s\n", name+":", st)
}

func (r *report) check(name string, ok bool) {
	failed := 0
	if !ok {
		failed = 1
	}
	r.checkN(name, 1, failed)
}

func (r *report) checkN(name string, attempted, failed int) {
	r.Checks = append(r.Checks, checkReport{name, attempted, failed})
	r.Attempted += attempted
	r.Failed += failed
	verdict := "ok"
	if failed > 0 {
		verdict = fmt.Sprintf("FAILED (%d of %d)", failed, attempted)
	}
	fmt.Printf("  check: %-60s %s\n", name, verdict)
}

// finish fills error_share once every phase and check is in.
func (r *report) finish() {
	r.set("error_share", ratio(float64(r.Failed), float64(r.Attempted)))
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// onlyOn lists, by name prefix, the per-layer metrics that belong to a
// layer only some workloads enter; a traced run of any other workload
// reports them as 0. Every other listed metric must come from every
// workload.
var onlyOn = []struct {
	prefix    string
	workloads []string
}{
	{"diskmode.", []string{"disk_miss"}},
	{"artifact.", []string{"http_zipf", "http_miss", "disk_miss"}},
	{"client.rebuild_read_p50_ms", []string{"churn"}},
	{"promote_s", []string{"churn"}},
	{"live.", []string{"churn"}},
	{"repl.", []string{"churn"}},
	{"cdc.", []string{"churn"}},
}

// produces reports whether workload is expected to produce metric.
func produces(workload, metric string) bool {
	for _, o := range onlyOn {
		if strings.HasPrefix(metric, o.prefix) {
			return slices.Contains(o.workloads, workload)
		}
	}
	return true
}

// result selects the metrics BENCHMARK.json lists for this kind of run
// — end-to-end for an untraced run, per-layer for a traced one. A
// listed metric the run did not produce is an error (a renamed server
// counter or a dropped span must not read as 0), except a per-layer
// metric of a layer the workload never enters.
func (r *report) result(s *spec, traced bool) (result, error) {
	res := result{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	list := s.EndToEnd
	if traced {
		list = s.PerLayer
	}
	for _, m := range list {
		v, ok := r.Metrics[m.Name]
		if !ok && (!traced || produces(r.Workload, m.Name)) {
			return res, fmt.Errorf("workload %s produced no %s", r.Workload, m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}

// print lists every metric the run produced, by name, with its unit.
func (r *report) print(s *spec) {
	units := map[string]string{}
	for _, m := range append(append([]metricSpec{}, s.EndToEnd...), s.PerLayer...) {
		units[m.Name] = m.Unit
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		// End-to-end names carry no layer prefix; list them first.
		di, dj := strings.Contains(names[i], "."), strings.Contains(names[j], ".")
		if di != dj {
			return !di
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, r.Metrics[n], units[n])
	}
}

// gitCommit names the commit under test, or "unknown" outside a git
// checkout (the driver's checkouts are plain directories).
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// provenance records what a report's numbers were measured on.
type provenance struct {
	Commit              string  `json:"commit"`
	GoVersion           string  `json:"go_version"`
	NProc               int     `json:"nproc"`
	GeneratorGOMAXPROCS int     `json:"generator_gomaxprocs"`
	ServerGOMAXPROCS    int     `json:"server_gomaxprocs"`
	Corpus              string  `json:"corpus_flags"`
	Seed                int64   `json:"seed"`
	Seconds             float64 `json:"measured_seconds"`
	PhaseSeconds        float64 `json:"phase_seconds"`
	WindowSeconds       float64 `json:"window_seconds"`
	Cycles              int     `json:"churn_cycles,omitempty"`
	Traced              bool    `json:"traced"`
}

func (r *run) provenance() provenance {
	return provenance{
		Commit:              gitCommit(r.root),
		GoVersion:           runtime.Version(),
		NProc:               runtime.NumCPU(),
		GeneratorGOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:                r.seed,
		Seconds:             r.seconds,
		PhaseSeconds:        r.phaseLen().Seconds(),
		WindowSeconds:       r.window().Seconds(),
		Traced:              r.trace,
	}
}
