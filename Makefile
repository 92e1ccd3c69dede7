# Build/test entry points. `make check` is the tier-1 flow: build,
# vet, lint, full tests, plus the race detector over the packages with
# concurrency-sensitive state (the event kernel, the worker-fleet
# scheduler, the metrics registry and its process-wide cycle counter,
# the heartbeat goroutine, the trace buffer, the live observability
# server, the crash-safety layer: the result journal, the fault
# injector and the core resume path above them — the lint call
# graph, whose builder tests run concurrent type-checks — and the
# copy-on-write layers: the machine's frozen-base snapshot path, the
# cache pages and spare lists under it that a branch hands on to the
# next, and the checkpoint base cache, whose tests branch siblings from
# shared frozen state concurrently — and the adaptive sampler, whose
# process-wide counters and live report are fed from fleet workers).
# `make lint` runs varsimlint, the determinism-contract analyzer suite (detwall,
# puritywall, seedflow, maporder, kindexhaust inside the wall;
# synccheck, stickyerr, floatorder outside it; staleallow auditing the
# suppressions themselves) against the checked-in lint.baseline.json —
# see docs/DETERMINISM.md. `make lint-sarif` writes the same run as
# SARIF 2.1.0 to lint.sarif for CI upload and code-scanning ingestion.
# `make bench-json` records the fleet scheduler's
# sequential-vs-parallel cost to BENCH_parallel.json. `make fuzz-smoke`
# runs each native fuzz target briefly over its committed corpus — the
# CI smoke of the journal codec and stats input contracts
# (docs/RESILIENCE.md) and of the workload engine's bulk compute-run
# form against its op-by-op stream. `make spine` runs the benchmark spine
# (./bench, declared by BENCHMARK.json) and `make spine-aa` its A/A noise
# check; `make spine-alloc` gates the one spine metric that repeats
# exactly, the heap a branch_fanout iteration allocates; `make spine-ab
# PARENT=<ref> WORKLOAD=<name>` measures the working tree against a
# parent commit in order-alternated pairs (scripts/ab.sh). `make loc` prints the
# non-test and test Go line counts per package (bench/ apart from the
# rest), the "net lines" a PR reports.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test bench bench-json bench-digest bench-snapshot bench-sampling spine spine-aa spine-alloc spine-ab vet lint lint-sarif lint-baseline race fuzz-smoke loc check clean

all: build

build:
	$(GO) build ./...
	$(GO) build -o bin/varsim ./cmd/varsim
	$(GO) build -o bin/experiments ./cmd/experiments
	$(GO) build -o bin/varsimlint ./cmd/varsimlint

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem .

# One iteration per benchmark: a smoke-speed record of the parallel
# fleet's cost (sequential vs -j 4 BranchSpace, snapshot cost, registry
# snapshot), written as JSON for diffing across commits.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_parallel.json

# Paired digest-overhead record: identical measurement windows with
# interval state digests off vs on, five repeats folded to min ns/op
# to sink host noise, written with the computed digest_overhead_pct
# (acceptance: under 5%).
bench-digest:
	$(GO) run ./cmd/benchjson -bench 'RunDigests' -benchtime 10x -count 5 -out BENCH_digest.json

# Copy-on-write snapshot record: the COW/deep snapshot pair plus the
# branch-then-touch pair (write-fault tax), five repeats folded to min
# ns/op, with the computed snapshot_speedup / snapshot_bytes_ratio
# (acceptance: >=5x and >=10x vs the materialized deep clone).
bench-snapshot:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkSnapshot$$|BenchmarkSnapshotDeep$$|BranchThenTouch' -benchtime 10x -count 5 -out BENCH_snapshot.json

# Adaptive-sampling record: the Table-3-shaped matrix scheduled by the
# paper's §5.1.1 target (±4% at 95%) against a 20-run fixed-N baseline,
# with the computed runs_saved_pct (acceptance: >= 66.7%, i.e. at
# least 3x fewer runs than fixed-N) — see docs/SAMPLING.md.
bench-sampling:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkAdaptiveTable3$$' -benchtime 1x -count 3 -out BENCH_sampling.json

# The benchmark spine BENCHMARK.json declares: five workloads, one
# process each, every end-to-end metric (bench/README.md). spine-aa runs
# it twice on this commit and applies its own bounds to the pair — any
# REGRESSION there is host noise, not a change.
spine:
	$(GO) run ./bench

spine-aa:
	bench/aa.sh

# alloc_mb_per_op is a byte count of a deterministic simulation: it
# repeats exactly on any host, so unlike the clocked metrics it can be
# gated absolutely. 1500 five-transaction branches allocate ~84 MB
# (772 MB while every branch allocated the cache pages it copied, 1826 MB
# while the workload engines still materialised op buffers); the gate
# fails above SPINE_ALLOC_MAX_MB, or if any branch failed.
SPINE_ALLOC_MAX_MB ?= 150

spine-alloc:
	@set -e; out=$$($(GO) run ./bench -workload branch_fanout -seconds 1); \
	echo "$$out" | tail -n 1 | python3 -c 'import json, sys; \
	d = json.load(sys.stdin); mb = d["metrics"]["alloc_mb_per_op"]["value"]; \
	print("branch_fanout: alloc_mb_per_op %.1f MB (gate $(SPINE_ALLOC_MAX_MB)), failed %d of %d" % (mb, d["failed"], d["attempted"])); \
	sys.exit(d["failed"] != 0 or not d["correct"] or mb > $(SPINE_ALLOC_MAX_MB))'

# Paired parent-vs-change runs of one spine workload: per pair every
# end-to-end metric, each side's median and quartiles, wins per metric
# and whether sim_checksum agreed — what a clocked claim on a host that
# drifts 25 % in seconds has to rest on. PAIRS defaults to 10.
PAIRS ?= 10

spine-ab:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || { echo "usage: make spine-ab PARENT=<ref> WORKLOAD=<name> [PAIRS=10] [SEED=...]"; exit 2; }
	scripts/ab.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(SEED)

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/varsimlint -baseline lint.baseline.json ./...

# SARIF artifact for CI upload / GitHub code scanning.
lint-sarif:
	$(GO) run ./cmd/varsimlint -baseline lint.baseline.json -format sarif -o lint.sarif ./...

# Regenerate the accepted-findings baseline (review the diff before
# committing: every new entry is accepted debt).
lint-baseline:
	$(GO) run ./cmd/varsimlint -baseline lint.baseline.json -write-baseline ./...

race:
	$(GO) test -race ./internal/fleet ./internal/sim ./internal/metrics ./internal/report ./internal/trace ./internal/obs ./internal/journal ./internal/faultinject ./internal/core ./internal/precision ./internal/lint/callgraph ./internal/machine ./internal/mem ./internal/checkpoint ./internal/sampling

# Go's fuzzer accepts one target per invocation; each run seeds from the
# committed corpus under the package's testdata/fuzz and then mutates
# for FUZZTIME.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzRecordCodec$$' -fuzztime=$(FUZZTIME) ./internal/journal
	$(GO) test -run='^$$' -fuzz='^FuzzDigestCodec$$' -fuzztime=$(FUZZTIME) ./internal/journal
	$(GO) test -run='^$$' -fuzz='^FuzzCI$$' -fuzztime=$(FUZZTIME) ./internal/stats
	$(GO) test -run='^$$' -fuzz='^FuzzANOVA$$' -fuzztime=$(FUZZTIME) ./internal/stats
	$(GO) test -run='^$$' -fuzz='^FuzzStream$$' -fuzztime=$(FUZZTIME) ./internal/stats
	$(GO) test -run='^$$' -fuzz='^FuzzDecisionCodec$$' -fuzztime=$(FUZZTIME) ./internal/sampling
	$(GO) test -run='^$$' -fuzz='^FuzzBulkRun$$' -fuzztime=$(FUZZTIME) ./internal/workload

# Go lines per package directory, non-test and test (_test.go files and
# testdata fixtures), as `wc -l` counts them; bench/ is totalled apart
# because BENCHMARK.json freezes it.
loc:
	@find . -name '*.go' -not -path './.bench_*' | sort | xargs wc -l | awk ' \
	$$2 == "total" { next } \
	{ d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/\/testdata\/.*/, "", d); \
	  k = ($$2 ~ /_test\.go$$|\/testdata\//) ? "t" : "n"; c[d, k] += $$1; if (!(d in seen)) { seen[d]; o[++m] = d }; \
	  g = (d ~ /^\.\/bench$$/) ? "b" : "r"; tot[g, k] += $$1 } \
	END { printf "%-28s %9s %9s\n", "package", "non-test", "test"; \
	  for (i = 1; i <= m; i++) printf "%-28s %9d %9d\n", o[i], c[o[i], "n"], c[o[i], "t"]; \
	  printf "%-28s %9d %9d\n", "total outside bench/", tot["r", "n"], tot["r", "t"]; \
	  printf "%-28s %9d %9d\n", "bench/", tot["b", "n"], tot["b", "t"] }'

check: vet lint test race
	$(GO) build ./...

clean:
	rm -rf bin
