# Development targets for the kqr repository.

GO ?= go

.PHONY: all check build vet test test-race race cover bench bench-offline bench-system docs-check fuzz experiments demo clean

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
	sh scripts/docs-check.sh . internal/frame internal/artifact internal/live internal/stream internal/repl internal/packed internal/cdc internal/diskmode internal/mend server internal/serving internal/flight \
		internal/closeness internal/cooccur internal/dblpgen internal/eval internal/graph internal/keywordsearch internal/randomwalk internal/relstore internal/tatgraph internal/textindex

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

# System benchmark, the repository's one yardstick: builds
# cmd/kqr-server from the working tree, runs it as a separate process
# and drives it over loopback HTTP on each of the four workloads
# BENCHMARK.json declares — untraced for the end-to-end metrics, then
# `--trace 1` for the per-layer ones (see bench/README.md) — and
# collects every run's result and provenance into BENCH_system.json
# (~6 min; needs jq). Build cache, binaries and per-run reports stay
# under .bench_build/ and bench/out/.
bench-system:
	bash scripts/bench-system.sh BENCH_system.json

# Short fuzz pass over the parsers, the cache fingerprint and the
# response encoder.
fuzz:
	$(GO) test -fuzz=FuzzParseQuery -fuzztime=20s .
	$(GO) test -fuzz=FuzzSuggestionString -fuzztime=20s .
	$(GO) test -fuzz=FuzzTokenize -fuzztime=20s ./internal/textindex/
	$(GO) test -fuzz=FuzzKeyInjective -fuzztime=20s ./internal/serving/
	$(GO) test -fuzz=FuzzCacheKeyCanonical -fuzztime=20s ./server/
	$(GO) test -fuzz=FuzzAppendSuggestionJSON -fuzztime=20s ./server/
	$(GO) test -fuzz=FuzzReformulateHandler -fuzztime=20s ./server/
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
