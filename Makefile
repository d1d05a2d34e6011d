GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet test race verify loc knobs orphans bench-e2e bench-layers bench-pair experiments experiments-diff fuzz-smoke

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

# loc prints non-test Go lines per package and in total — the number ROADMAP
# item 9 gates on — of the working tree, or of a revision with REV=<rev>.
loc:
	bash scripts/loc.sh $(REV)

# knobs prints the exported fields of every *Config/*Options struct (and of
# telemetry's watchdogs) per struct, per package and in total — the values
# a caller can set — of the working tree, or of a revision with REV=<rev>.
knobs:
	bash scripts/knobs.sh $(REV)

# orphans prints every internal/ package that no command, example or
# benchmark builds, and fails if there is one.
orphans:
	bash scripts/orphans.sh

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

# experiments regenerates every table in EXPERIMENTS.md on stdout.
experiments:
	$(GO) run ./cmd/benchrunner

# experiments-diff runs benchrunner on BASE (any git revision) and on the
# working tree and fails, printing diff -u, unless the tables are
# byte-identical; ONLY restricts both runs to a list of ids:
#   make experiments-diff BASE=HEAD~1 ONLY=E5,E13Q,A1
experiments-diff:
	bash scripts/tables.sh $(BASE) $(ONLY)

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
