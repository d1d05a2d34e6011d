GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet test race verify loc loc-gate knobs knobs-gate orphans deadcode maporder examples unrun unrun-gate bench-e2e bench-layers bench-pair experiments experiments-diff fuzz-smoke reuse-twin

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
# item 11 gates on — of the working tree, or of a revision with REV=<rev>.
loc:
	bash scripts/loc.sh "$(REV)"

# LOC_MAX is the product-line count (non-test Go outside scripts/) the
# working tree may reach; CI runs loc-gate, so growing past it is a one-line
# diff here.
LOC_MAX = 24353
loc-gate:
	bash scripts/loc.sh "" $(LOC_MAX)

# knobs prints the exported fields of every *Config/*Options struct (and of
# telemetry's watchdogs) per struct, per package and in total — the values
# a caller can set — of the working tree, or of a revision with REV=<rev>.
# With MAX=<n> it fails when the total exceeds n.
knobs:
	bash scripts/knobs.sh "$(REV)" $(MAX)

# KNOBS_MAX is the settable-value total the working tree may reach; CI runs
# knobs-gate, so raising it is a one-line diff here.
KNOBS_MAX = 86
knobs-gate:
	bash scripts/knobs.sh "" $(KNOBS_MAX)

# orphans prints every internal/ package that no command, example or
# benchmark builds, and fails if there is one.
orphans:
	bash scripts/orphans.sh

# deadcode prints every function or method declared in a non-test internal/
# file that no command, example or benchmark binary links (built with
# inlining off), and every package-level var or const there that no non-test
# code names, and fails if one is not named in scripts/deadcode.allow.
deadcode:
	bash scripts/deadcode.sh

# maporder prints every range over a map in non-test internal/ code whose
# body may depend on the visiting order (anything but an append the
# function sorts afterwards or a commutative update), as file:line, and
# fails if scripts/maporder.allow does not name the function with a reason.
maporder:
	$(GO) run ./scripts/maporder

# examples builds every example, runs each twice, and fails on a non-zero
# exit or when the two runs print different output.
examples:
	bash scripts/examples.sh

# unrun prints every function declared in a non-test internal/ file that no
# run of the commands, examples and benchmark executes (each binary built
# with coverage and run as a user runs it), then their count; a few
# minutes. With MAX=<n> it fails when the count exceeds n.
unrun:
	bash scripts/unrun.sh $(MAX)

# UNRUN_MAX is the unrun count the working tree may reach; CI runs
# unrun-gate, so raising it is a one-line diff here.
UNRUN_MAX = 18
unrun-gate:
	bash scripts/unrun.sh $(UNRUN_MAX)

# reuse-twin builds the program with the tag noreuse, in which no spare list
# hands a record out, and fails unless the golden trace, the quick tables,
# E11 and every benchmark sim_* value are the same as with recycling (~1 min).
reuse-twin:
	bash scripts/reusetwin.sh

# bench-e2e runs BENCHMARK.json's four workloads exactly as the driver does
# (bench/run.sh builds into .bench_build/ and runs SECONDS per workload):
# the ten end-to-end metrics on both clocks, seed 1. It fails on the first
# run that exits non-zero; CI runs it with SECONDS=1.
SECONDS ?= 10
bench-e2e:
	for w in block-mixed block-read-hot pfs-stream object-mixed; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds $(SECONDS) --trace 0 || exit 1; \
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
