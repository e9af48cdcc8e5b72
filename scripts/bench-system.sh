#!/usr/bin/env bash
# Runs the system benchmark (bench/run.sh) on every workload of
# BENCHMARK.json at seed 1 — untraced for the end-to-end metrics, then
# traced for the per-layer ones — and collects each run's last-line JSON
# with that run's own provenance (commit, Go version, nproc, corpus
# flags) into one file, BENCH_system.json unless a path is given. The
# numbers README and EXPERIMENTS.md quote come from this file.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${1:-$root/BENCH_system.json}"
seed=1
seconds="$(jq .run_seconds "$root/BENCHMARK.json")"
mkdir -p "$root/.bench_build" # the benchmark's own scratch, git-ignored
runs="$(mktemp "$root/.bench_build/runs.XXXXXX")" log="$(mktemp "$root/.bench_build/log.XXXXXX")"
trap 'rm -f "$runs" "$log"' EXIT
for w in $(jq -r '.workloads[].name' "$root/BENCHMARK.json"); do
	for trace in 0 1; do
		bash "$root/bench/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" | tee "$log"
		suffix=""
		if [ "$trace" = 1 ]; then suffix="-trace"; fi
		jq -c --argjson result "$(tail -n 1 "$log")" '{workload, provenance, result: $result}' \
			"$root/bench/out/report-$w-$seed$suffix.json" >>"$runs"
	done
done
jq -s --arg tree "$(git -C "$root" describe --always --dirty=+ 2>/dev/null || echo unknown)" \
	'{tree: $tree, runs: .}' "$runs" >"$out"
echo "wrote $out"
