GO ?= go

.PHONY: verify build test vet lint lint-github race deflaked bench bench-layers bench-groupcommit bench-conflict bench-shard bench-latency bench-mvro bench-tsdb

## verify: the full pre-merge gate — vet, the invariant linter, build, tests,
## and the race detector over the packages with real concurrency.
verify: vet lint build test race

vet:
	$(GO) vet ./...

## lint: machine-check the STM's concurrency invariants (mixed atomic/plain
## access, cache-line padding, *Tx escape, abort taxonomy, hot-path hygiene,
## and the CFG/dataflow suite: lock-order, atomic-publish, hot-path-deep,
## taxonomy-path).
lint:
	$(GO) run ./cmd/stmlint ./...

## lint-github: same checks, emitted as GitHub Actions ::error annotations so
## CI runs attach diagnostics to the offending lines in the diff view.
lint-github:
	$(GO) run ./cmd/stmlint -github ./...

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

## race: the race detector over the packages with real concurrency (including
## core's live /metrics scrape, TestServerHistogramsLiveScrape), then the
## helper-path and cross-shard tests ten times over — a client writing a
## stream's scratch outside its lock only shows on some schedules.
race:
	$(GO) test -race -count=1 ./internal/core/ ./stm/ ./internal/obs/ ./internal/bloom/ ./internal/padded/ ./internal/analysis/
	$(GO) test -race -count=10 -run 'Help|CrossShard' ./internal/core/

## deflaked: the two snapshot-reader tests that used to fail a few runs in a
## hundred (slot reuse; aborts of a reader that fell back), fifty times each
## under the race detector, so a relapse shows in one CI run.
deflaked:
	$(GO) test -race -count=50 -run 'TestROTornPairProperty$$' ./internal/core/
	$(GO) test -race -count=50 -run 'TestRunMVReadOnly$$' ./internal/bench/

## bench: the repository benchmark (BENCHMARK.json): four workloads x four
## engines, 13 end-to-end metrics each, ~2 min. bench-layers prints the
## per-layer micro-metrics alone (~6 s). See benchmark/README.md.
bench:
	$(GO) run ./benchmark -seed 1

bench-layers:
	$(GO) run ./benchmark -seed 1 -layers

## bench-groupcommit: regenerate results/BENCH_group_commit.json (live mode).
bench-groupcommit:
	$(GO) run ./cmd/rinval-bench -exp groupcommit -mode live

## bench-conflict: short-mode conflict-attribution sweep (FP rate, hot-var
## skew, wasted work) into results/BENCH_conflict_attr.json. The checked-in
## report uses -iters 400; this target is sized for a CI smoke run.
bench-conflict:
	$(GO) run ./cmd/rinval-bench -exp conflict -mode live -iters 100

## bench-shard: short-mode sharded-commit-stream sweep (sim scaling + live
## parity/handshake points) into results/BENCH_shard_sweep.json. The
## checked-in report uses -iters 400; this target is sized for a CI smoke run.
bench-shard:
	$(GO) run ./cmd/rinval-bench -exp shardsweep -iters 100

## bench-latency: short-mode critical-path latency decomposition sweep
## (phase p50/p99 per engine x threads x shards) into
## results/BENCH_latency_slo.json. The checked-in report uses -iters 2000;
## this target is sized for a CI smoke run.
bench-latency:
	$(GO) run ./cmd/rinval-bench -exp latencyslo -mode live -iters 300

## bench-mvro: short-mode multi-version read-only sweep (read-ratio x clients
## x Config.Versions) into results/BENCH_mv_readonly.json. The checked-in
## report uses -duration 150ms; this target is sized for a CI smoke run.
bench-mvro:
	$(GO) run ./cmd/rinval-bench -exp mvreadonly -mode live -duration 40ms

## bench-tsdb: SLO burn-rate monitor smoke into results/BENCH_slo_burn.json —
## a steady control run must record zero alerts, a planted phase change must
## trip the abort-rate objective's fast and slow burn windows — plus the
## hot-path overhead proof (TimeSeries off vs on, allocs must match).
bench-tsdb:
	$(GO) run ./cmd/rinval-bench -exp sloburn -mode live
	$(GO) test ./internal/core/ -run TestTimeSeriesOffZeroAllocs -count=1 -v
	$(GO) test ./internal/core/ -run none -bench BenchmarkTimeSeriesOverhead -benchmem -benchtime 20000x
