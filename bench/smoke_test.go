package main

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// smokeSize only has to reach every code path in seconds.
var smokeSize = sizing{
	papers: 200, churnPapers: 200, windows: 5, setups: 1,
	zipfPool: 500, zipfDraws: 20000, missStream: 20000, churnPool: 300,
	warmZipf: 200, warmMiss: 50,
	zipfRate: 500, missRate: 200, diskRate: 100, churnRate: 50,
	churnMin: 1, churnMax: 1, replay: 100, probes: 20,
}

// TestSmoke runs every workload, untraced and traced, at the smoke
// size: a real kqr-server built from the working tree, two hundred
// papers, half-second phases. It measures nothing; it proves that the
// names the benchmark emits are exactly the names BENCHMARK.json
// promises, that every answer checks out, and that no listed per-layer
// metric is dead.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.kids.killAll()

	wantWorkloads := []string{"http_zipf", "http_miss", "disk_miss", "churn"}
	var gotWorkloads []string
	for _, w := range e.spec.Workloads {
		gotWorkloads = append(gotWorkloads, w.Name)
	}
	if !equalStrings(gotWorkloads, wantWorkloads) {
		t.Fatalf("BENCHMARK.json workloads %v, want %v", gotWorkloads, wantWorkloads)
	}

	alive := map[string]bool{} // per-layer metrics some workload produced
	for _, name := range wantWorkloads {
		for _, traced := range []bool{false, true} {
			rep, res, err := e.runOnce(&run{workload: name, seed: 1, seconds: 1, trace: traced, sz: smokeSize})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d; checks %+v",
					name, traced, res.Correct, res.Attempted, res.Failed, rep.Checks)
			}
			list := e.spec.EndToEnd
			if traced {
				list = e.spec.PerLayer
			}
			var want, got []string
			for _, m := range list {
				want = append(want, m.Name)
				if res.Metrics[m.Name].Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", name, m.Name, res.Metrics[m.Name].Unit, m.Unit)
				}
			}
			for n := range res.Metrics {
				got = append(got, n)
			}
			sort.Strings(want)
			sort.Strings(got)
			if !equalStrings(got, want) {
				t.Errorf("%s traced=%v emitted %v, BENCHMARK.json lists %v", name, traced, got, want)
			}
			if !traced {
				for _, m := range list {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, m.Name, res.Metrics[m.Name].Value)
					}
				}
				continue
			}
			for n := range rep.Metrics {
				alive[n] = true
			}
			if st, err := os.Stat(filepath.Join(e.outDir, "trace-"+name+".json")); err != nil || st.Size() == 0 {
				t.Errorf("%s: no span file: %v", name, err)
			}
		}
	}
	for _, m := range e.spec.PerLayer {
		if !alive[m.Name] {
			t.Errorf("per-layer metric %s is listed in BENCHMARK.json but no workload produces it", m.Name)
		}
	}
}
