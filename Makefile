GO ?= go

.PHONY: verify build test vet lint lint-github race deflaked bench bench-layers

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
## helper-path, cross-shard and partition-lock tests ten times over — a
## driver writing a stream's or a partition's scratch outside its lock only
## shows on some schedules.
race:
	$(GO) test -race -count=1 ./internal/core/ ./stm/ ./internal/obs/ ./internal/bloom/ ./internal/padded/ ./internal/analysis/
	$(GO) test -race -count=10 -run 'Help|CrossShard|Partition' ./internal/core/

## deflaked: the snapshot-reader property test (a reader that never fell back
## takes no abort and is no one's victim), which used to fail a few runs in a
## hundred on slot reuse, fifty times under the race detector, so a relapse
## shows in one CI run.
deflaked:
	$(GO) test -race -count=50 -run 'TestROTornPairProperty$$' ./internal/core/

## bench: the repository benchmark (BENCHMARK.json): four workloads x four
## engines, 13 end-to-end metrics each, ~2 min. bench-layers prints the
## per-layer micro-metrics alone (~6 s). See benchmark/README.md.
bench:
	$(GO) run ./benchmark -seed 1

bench-layers:
	$(GO) run ./benchmark -seed 1 -layers
