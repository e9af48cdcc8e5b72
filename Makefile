# Development targets for the kqr repository.

GO ?= go

.PHONY: all check build vet test test-race race cover bench bench-offline bench-snapshot bench-repl bench-cdc bench-hotpath bench-diskmode bench-mend bench-all bench-system docs-check fuzz experiments demo clean

all: check

# Default gate: compile, static checks, doc-comment coverage, tests,
# and the race detector (the serving layer is lock-heavy, so -race is
# part of the gate).
check: build vet docs-check test test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Doc-comment gate: every exported identifier in the listed packages
# must carry a godoc comment, and every listed package must carry a
# package doc comment (vet catches malformed ones; the script catches
# missing ones).
docs-check: vet
	sh scripts/docs-check.sh . internal/frame internal/artifact internal/live internal/repl internal/packed internal/cdc internal/diskmode internal/mend

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

race: test-race

cover:
	$(GO) test -cover ./...

# Full benchmark pass: every paper table/figure plus substrate
# micro-benchmarks and ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# Offline precompute scaling: worker sweep over the batched
# randomwalk / closeness precompute of every title term, with the mean
# solver sweeps per term, written as BENCH_offline.json (corpus, cores
# and commit recorded); then the per-pass and per-search micro-benchmarks
# whose allocs/op must stay at the returned rows (8 and 1).
bench-offline:
	$(GO) run ./cmd/kqr-bench -exp offline -json BENCH_offline.json -commit "$$(git describe --always --dirty=+)"
	$(GO) test -run '^$$' -bench='BenchmarkPass|Benchmark_PrecomputeParallel' -benchmem ./internal/randomwalk/
	$(GO) test -run '^$$' -bench=BenchmarkSearch -benchmem ./internal/closeness/

# Snapshot cold start: warm the full offline stage, persist it, reload
# it into a cold engine and report load-vs-warm speedup as
# BENCH_snapshot.json.
bench-snapshot:
	$(GO) run ./cmd/kqr-bench -exp snapshot -json BENCH_snapshot.json

# Replication churn: a leader journaling promotions into a delta log
# with 3 followers tailing it in lockstep under round-robin query load,
# including a mid-run follower kill/resume, written as BENCH_repl.json.
# The run fails on any query error, snapshot re-download, or term-table
# divergence.
bench-repl:
	$(GO) run ./cmd/kqr-bench -exp repl -papers 1200 -json BENCH_repl.json

# CDC ingestion soak: a feeder streaming mutation batches into a live
# server over the KQRCDC protocol under concurrent query load, with a
# mid-run feeder kill and resume, written as BENCH_cdc.json. The run
# fails on any lost or duplicated delta (row-count and sequence
# reconciliation), any query error, or a stale fresh-term lookup.
bench-cdc:
	$(GO) run ./cmd/kqr-bench -exp cdc -papers 1200 -json BENCH_cdc.json

# Zero-alloc decode hot path: the pooled DecodePaths vs the baseline
# that allocates a fresh slot set and model per query and runs the *Ref
# decoders (both read the same packed tables — there is no map read
# path left to compare against) — allocs/op, B/op, p50/p99, plus a
# path-for-path bit-identity check, written as BENCH_hotpath.json.
# -strict fails the run if the warmed fast path allocates, so this
# target doubles as the regression gate.
bench-hotpath:
	$(GO) run ./cmd/kqr-bench -exp hotpath -strict -json BENCH_hotpath.json

# Disk mode: serve the paged v2 snapshot under a byte budget far below
# the tables' decoded size and compare query p50/p99 against in-RAM
# serving, after a full-vocabulary bit-identity check, written as
# BENCH_diskmode.json. -strict fails the run unless the tables exceed
# the budget and the page cache faulted and evicted, so this target
# doubles as the regression gate.
bench-diskmode:
	$(GO) run ./cmd/kqr-bench -exp diskmode -strict -queries 200 -reps 10 -json BENCH_diskmode.json

# Query mending: inject typos, run-together and over-split tokens into
# clean vocabulary queries, then compare precision@5 of the clean
# baseline, the unmended faulted queries and the mended path, check
# all-vocabulary byte identity, measure mend-vs-decode p50/p99, and
# drive promotions under concurrent mended-query load, written as
# BENCH_mend.json. -strict additionally fails the run if mend p99
# exceeds 25% of decode p99, so this target doubles as the regression
# gate.
bench-mend:
	$(GO) run ./cmd/kqr-bench -exp mend -strict -json BENCH_mend.json

# System benchmark: builds cmd/kqr-server from the working tree, runs it
# as a separate process and drives it over loopback HTTP on each of the
# four workloads BENCHMARK.json declares, printing every end-to-end
# metric (see bench/README.md; add `--trace 1` by hand for the
# per-layer metrics). Build cache, binaries and reports stay under
# .bench_build/ and bench/out/.
bench-system:
	for w in http_zipf http_miss disk_miss churn; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 12 --trace 0 || exit 1; \
	done

# Every in-process bench-* target in one pass; each writes its
# BENCH_*.json.
bench-all: bench-offline bench-snapshot bench-repl bench-cdc bench-hotpath bench-diskmode bench-mend

# Short fuzz pass over the parsers and the cache fingerprint.
fuzz:
	$(GO) test -fuzz=FuzzParseQuery -fuzztime=20s .
	$(GO) test -fuzz=FuzzSuggestionString -fuzztime=20s .
	$(GO) test -fuzz=FuzzTokenize -fuzztime=20s ./internal/textindex/
	$(GO) test -fuzz=FuzzKeyInjective -fuzztime=20s ./internal/serving/
	$(GO) test -fuzz=FuzzCacheKeyCanonical -fuzztime=20s ./server/
	$(GO) test -fuzz=FuzzFrame -fuzztime=20s ./internal/frame/
	$(GO) test -fuzz='FuzzLoad$$' -fuzztime=20s ./internal/artifact/
	$(GO) test -fuzz='FuzzLoadPaged$$' -fuzztime=20s ./internal/artifact/
	$(GO) test -fuzz=FuzzCDCFrame -fuzztime=20s ./internal/cdc/
	$(GO) test -fuzz=FuzzMend -fuzztime=20s ./internal/mend/

# Regenerate every table and figure of the paper (EXPERIMENTS.md data).
experiments:
	$(GO) run ./cmd/kqr-bench
	$(GO) run ./cmd/kqr-bench -exp fig5 -seeds 5
	$(GO) run ./cmd/kqr-bench -exp ablation

demo:
	$(GO) run ./cmd/kqr-demo -query "probabilistic ranking" -facets

clean:
	$(GO) clean ./...
