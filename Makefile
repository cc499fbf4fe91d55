GO ?= go

.PHONY: verify fmt-check build test vet lint lint-github race deflaked sim-check size bench bench-layers bench-core pairs

GOFMT ?= gofmt

## verify: the full pre-merge gate — gofmt, vet, the invariant linter, build,
## tests, and the race detector over the packages with real concurrency.
verify: fmt-check vet lint build test race

## fmt-check: fail when any Go file is not gofmt-formatted.
fmt-check:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

## lint: machine-check the STM's concurrency invariants (mixed atomic/plain
## access, cache-line padding, *Tx escape, hot-path hygiene, and the
## CFG/dataflow suite: lock-order, atomic-publish, hot-path-deep,
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
## core's live /metrics scrape, TestServerHistogramsLiveScrape, and the
## concurrent rbtree and container/ds tests, whose nodes' Vars are initialized
## in place and published through a cell store), then the
## helper-path, cross-shard, partition-lock tests, the attempt-kind rule
## (TestAttemptKindRule), a direct attempt's lock release on every exit
## (TestDirectKindReleasesLock) and the solo- and invisible-attempt tests ten times
## over — a driver writing a stream's or a partition's scratch outside its
## lock, or an attempt whose kind changed as a Thread came or went or as it
## retried, only shows on some schedules —
## then the same -run set at both server layouts,
## whatever the runner's core count: GOMAXPROCS=4, the leg that covers
## partitions (V2/V3 keep InvalServers/Shards per stream and start their
## invalidation-servers; the -run set adds the group-commit, flight-stall,
## trace and server-phase tests that drive them), and GOMAXPROCS=2, where no
## server goroutine runs (coolServers): every RInval commit is InvalSTM's
## inline commit, each touched stream's timestamp its lock, and a lone
## client's attempts are solo kind (validated by timestamps), as a lone NOrec
## or InvalSTM client's are at any GOMAXPROCS. The inline-commit
## tests (Inline: no goroutine started, a visible retry that never touches its
## mailbox, a cross-shard write skew over every attempt kind) run in both
## sets. Tests that need servers or partitions build their System at four Ps
## (atFourPs), so they also run at GOMAXPROCS=2 with that layout.
## internal/verify's churn check (NOrec, InvalSTM and RInval)
## flips a client between solo, invisible and visible attempts, and its
## conservation check on InvalSTM and RInval-V1/V2 at GOMAXPROCS 2
## (TestInvisibleThenVisibleRegimes) runs invisible attempts and their visible
## retries side by side. The spare-cell tests (TestRetryReusesAbortedCells,
## internal/core and stm) race a retry's reuse of its aborted attempt's cells
## against the servers that answered that attempt. container/ds's Map tests run
## in the ten-fold set too: two of them commit a second Thread's transaction
## inside an attempt (an update of another key in the same bucket, which must
## not abort it; a delete and re-insert of the key it read, which must), and
## how the engines order the two depends on the schedule. The snapshot-reader
## tests (TestRO: the snapshot attempt's kind and lifecycle, torn pairs, lapped
## and cross-shard readers) run in both sets, since a snapshot attempt is a kind
## of the shared attempt loop and its fallback's retry takes the layout's rule.
RACE_LAYOUT_RUN = 'Help|CrossShard|Partition|Liveness|Mailbox|Opacity|Differential|Epoch|Solo|Kind|Churn|Invisible|RetryReuses|Inline|TestRO|GroupCommit|FlightPartition|TraceLifecycle|ServerPhase'
race:
	$(GO) test -race -count=1 ./internal/core/ ./stm/ ./internal/obs/ ./internal/bloom/ ./internal/padded/ ./internal/analysis/ ./container/rbtree/ ./container/ds/
	$(GO) test -race -count=10 -run 'Help|CrossShard|Partition|LivenessOneP|Mailbox|Solo|Kind|Churn|Invisible|RetryReuses|Inline|TestRO|Map' ./internal/core/ ./internal/verify/ ./stm/ ./container/ds/
	GOMAXPROCS=4 $(GO) test -race -count=3 -run $(RACE_LAYOUT_RUN) ./internal/core/ ./internal/verify/ ./stm/
	GOMAXPROCS=2 $(GO) test -race -count=3 -run $(RACE_LAYOUT_RUN) ./internal/core/ ./internal/verify/ ./stm/

## deflaked: the snapshot-reader property test (a reader that never fell back
## takes no abort and is no one's victim), which used to fail a few runs in a
## hundred on slot reuse, fifty times under the race detector, so a relapse
## shows in one CI run.
deflaked:
	$(GO) test -race -count=50 -run 'TestROTornPairProperty$$' ./internal/core/

## sim-check: regenerate every simulated figure and ablation (~12 s) with the
## arguments that recorded results/sim_results.txt, and diff against it.
SIM_RUNS = "-exp fig2 -threads 8,16,32,48" "-exp fig3" "-exp fig7a" "-exp fig7b" "-exp fig8" \
	"-exp ablK" "-exp ablJitter" "-exp ablSteps" "-exp ablReadSet" "-exp ablTL2 -threads 4,16,48"
sim-check:
	@for args in $(SIM_RUNS); do $(GO) run ./cmd/rinval-bench $$args; done | diff -u results/sim_results.txt -
	@echo "sim-check: results/sim_results.txt reproduces"

## size: the numbers ROADMAP aim 2 tracks like throughput — tracked Go lines
## per top-level directory (lint fixtures under testdata count as non-test),
## the lines of the three commit-path files ROADMAP item 4's bar counts,
## Config's field count and the OpenMetrics family count, the last two as the
## tests that pin them log them. ROADMAP's state line is copied from here.
COMMIT_PATH = internal/core/engine_rinval.go internal/core/engine_inval.go internal/core/system.go
size:
	@git ls-files '*.go' | xargs wc -l | awk '$$2 != "total" { \
		d = index($$2, "/") ? substr($$2, 1, index($$2, "/") - 1) : "."; \
		if ($$2 ~ /_test\.go$$/) t[d] += $$1; else s[d] += $$1; \
		seen[d] = 1; files++ } \
		END { for (d in seen) { printf "%-10s %6d non-test %6d test\n", d, s[d], t[d]; S += s[d]; T += t[d] } \
		printf "%-10s %6d non-test %6d test  (%d Go files, %d lines)\n", "total", S, T, files, S + T }' | sort
	@cat $(COMMIT_PATH) | wc -l | awk '{ printf "commit path %d non-test (item 4: engine_rinval.go + engine_inval.go + system.go)\n", $$1 }'
	@$(GO) test -count=1 -v -run 'TestConfigFieldCount$$|TestOpenMetricsHelpConformance$$' ./internal/core/ | grep -o 'Config fields: .*\|OpenMetrics families: .*'

## bench: the repository benchmark (BENCHMARK.json): four workloads x four
## engines, 13 end-to-end metrics each, ~2 min. bench-layers prints the
## per-layer micro-metrics alone (~6 s). See benchmark/README.md.
bench:
	$(GO) run ./benchmark -seed 1

bench-layers:
	$(GO) run ./benchmark -seed 1 -layers

## bench-core: every testing.B benchmark of the root package (the paper's
## figures and ablations on the simulator), of internal/core, of stm
## (BenchmarkTypedLoadChain) and of the containers (BenchmarkLookupHit,
## BenchmarkInsertDelete, BenchmarkMapContendedPairs, ...) once, as a smoke
## test that they still build and run; for numbers use -benchtime 200ms.
bench-core:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/core/ ./stm/ ./container/...

## pairs: the ten-pair protocol behind every performance claim in
## EXPERIMENTS.md. Usage: make pairs PARENT=<rev> W=<workload> [N=10]
## [SECONDS=24]. Builds ./benchmark at PARENT (in a temporary git worktree) and
## at the working tree, then runs N pairs of workload W: pair i runs seed 100+i
## on both sides, the side that goes first alternates, every run is -trace 0
## from its own checkout. Prints each run's JSON line tagged parent or change
## with its pair number, then removes the worktree.
N ?= 10
SECONDS ?= 24
pairs:
	@if [ -z "$(PARENT)" ] || [ -z "$(W)" ]; then echo "usage: make pairs PARENT=<rev> W=<workload> [N=10] [SECONDS=24]"; exit 2; fi
	@tmp=$$(mktemp -d); trap 'git worktree remove --force "$$tmp/parent" 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach -q "$$tmp/parent" "$(PARENT)" && \
	(cd "$$tmp/parent" && $(GO) build -o "$$tmp/parent.bin" ./benchmark) && \
	$(GO) build -o "$$tmp/change.bin" ./benchmark || exit 1; \
	for i in $$(seq 1 $(N)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi; \
		for side in $$order; do \
			dir=.; [ $$side = parent ] && dir="$$tmp/parent"; \
			line=$$(cd "$$dir" && "$$tmp/$$side.bin" --workload "$(W)" --seed $$((100 + i)) --seconds $(SECONDS) --trace 0 | tail -n 1); \
			echo "$$side $$i $$line"; \
		done; \
	done
