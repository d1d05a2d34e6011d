GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet test race verify bench bench-e2e bench-layers bench-pair snapshot experiments fuzz-smoke qos-smoke batch-smoke governor-smoke analyze-smoke cache-smoke gateway-smoke bench-check

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -timeout 20m ./...

race:
	$(GO) test -race -short ./...

# verify is the tier-1 gate: everything a PR must keep green.
verify: build vet test race

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-e2e runs BENCHMARK.json's four workloads exactly as the driver does
# (bench/run.sh builds into .bench_build/ and runs ~10 s per workload):
# the ten end-to-end metrics on both clocks, seed 1.
bench-e2e:
	for w in block-mixed block-read-hot pfs-stream object-mixed; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 10 --trace 0 || exit 1; \
	done

# bench-layers runs the per-layer drivers alone (kernel, fabric, cache,
# coherence, disk, RAID, virt, controller, pfs, QoS, gateway, telemetry).
bench-layers:
	$(GO) run ./bench -layers

# snapshot writes the per-PR perf record: the canonical workload run
# unbatched and on the batched fabric plane (per-phase p50/p99 +
# throughput, the critical-path latency budget, plus the E12 balance,
# E13 QoS, E14 governor, E15 cache-tier and E16 gateway summaries),
# diffed against the previous PR's committed record.
snapshot:
	$(GO) run ./cmd/benchrunner -snapshot BENCH_PR10.json

# bench-check regenerates the snapshot into a scratch file and diffs it
# against the committed BENCH_PR10.json: a fabric p99 regression over 10%
# on either plane, an E14 PI victim p99 regression over 10%, an E15Q
# shifting-skew hotcache op p99 regression over 10%, an E16Q sharded
# gateway ceiling drop over 10%, or any phase's tail critical-path share
# growing over 5 points fails loudly.
bench-check:
	$(GO) run ./cmd/benchrunner -snapshot /tmp/bench_check.json -baseline BENCH_PR10.json

# qos-smoke runs the reduced-scale multi-tenant isolation experiment —
# the CI gate that admission control and fair queueing still isolate.
qos-smoke:
	$(GO) run ./cmd/benchrunner -only E13Q

# governor-smoke runs the reduced-scale governor step-response A/B: the
# per-tenant PI controller against the legacy halve/double law under
# identical step and burst aggressors.
governor-smoke:
	$(GO) run ./cmd/benchrunner -only E14Q

# cache-smoke runs the reduced-scale cache-tier crossover: the hot-key
# cache tier vs home migration vs no rebalancing under uniform, static-
# Zipf and fast-shifting-Zipf load, all from one seed.
cache-smoke:
	$(GO) run ./cmd/benchrunner -only E15Q

# gateway-smoke runs the reduced-scale object-gateway shard-scaling
# sweep: closed-loop clients against 1 vs 4 metadata shards, asserting
# the linear region, the single-shard ceiling and the sharded lift via
# the E16 test suite's quick arm.
gateway-smoke:
	$(GO) run ./cmd/benchrunner -only E16Q

# analyze-smoke is the CI gate for critical-path attribution: the
# attribution identities (wall = Σ critical; inclusive = critical +
# delegated + overlap) reconcile against the tracer's own breakdown on
# the canonical workload, same-seed output is byte-identical, cap
# eviction surfaces as counted truncation, and the yottactl
# analyze/critpath commands and -baseline tail-share gate behave.
analyze-smoke:
	$(GO) test -count=1 ./internal/critpath
	$(GO) test -count=1 -run 'TestCritPath|TestCheckCritPath|TestAnalyze|TestCritpath|TestDroppedTrace|TestExemplar|TestPhaseHistogramCarriesExemplars|TestChromeFlowEvents|TestRegistryExemplarFor' ./internal/experiments ./internal/trace ./internal/metrics ./internal/telemetry ./cmd/yottactl ./cmd/benchrunner

# batch-smoke is the CI gate for the batched fabric plane: frame
# coalescing semantics, the batched/unbatched convergence property, and
# the yottactl batch toggle.
batch-smoke:
	$(GO) test -count=1 -run 'TestFrame|TestBatch|TestSetBatchingOffFlushes|TestCastPropagates|TestDup|TestRetryCounter' ./internal/simnet ./internal/coherence ./cmd/yottactl

# experiments regenerates every table in EXPERIMENTS.md on stdout.
experiments:
	$(GO) run ./cmd/benchrunner

# fuzz-smoke runs each native fuzz target briefly (FUZZTIME per target) —
# a coverage-guided shakeout of the erasure-code math and the cache
# tier's routing algebra, not a soak.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzGF256$$' -fuzztime $(FUZZTIME) ./internal/raid
	$(GO) test -run '^$$' -fuzz '^FuzzReconstruct$$' -fuzztime $(FUZZTIME) ./internal/raid
	$(GO) test -run '^$$' -fuzz '^FuzzHotcacheRouting$$' -fuzztime $(FUZZTIME) ./internal/hotcache
	$(GO) test -run '^$$' -fuzz '^FuzzObjectLayout$$' -fuzztime $(FUZZTIME) ./internal/gateway

# bench-pair runs N alternating base/change pairs of one BENCHMARK.json
# workload, or of each in turn with WORKLOAD=all (BASE is any git revision,
# the working tree is the change), and prints each side's median and
# quartiles and the pairs won, per metric. It fails, naming the metric,
# when an end-to-end median is worse than the base's by more than its
# BENCHMARK.json bound, or the change's quartiles lie further apart than
# that bound of the base's median — the pipeline's acceptance rules:
#   make bench-pair BASE=HEAD~1 WORKLOAD=pfs-stream N=10
#   make bench-pair BASE=HEAD~1 WORKLOAD=all
# SIM=identical adds the contract of a host-only change: it also fails,
# naming the first (workload, seed, metric), when any sim_* value of the
# change differs from the base's as printed.
N ?= 10
bench-pair:
	SIM=$(SIM) bash scripts/benchpair.sh $(BASE) $(WORKLOAD) $(N)
