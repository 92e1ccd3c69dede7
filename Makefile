# Build/test entry points. `make check` is the tier-1 flow: gofmt (`make
# fmt`, which fails listing the files `gofmt -l .` names), build,
# vet, lint, full tests, plus the race detector over the packages with
# concurrency-sensitive state (the `race` target is the list).
# `make lint` runs varsimlint, the determinism-contract analyzer suite (detwall,
# puritywall, seedflow, maporder, kindexhaust inside the wall;
# synccheck, stickyerr, floatorder outside it; staleallow auditing the
# suppressions themselves) — see docs/DETERMINISM.md.
# `make fuzz-smoke` runs each native fuzz target briefly over its
# committed corpus — the CI smoke of the journal codec and stats input
# contracts (docs/RESILIENCE.md) and of the workload engine's bulk
# compute-run form against its op-by-op stream. `make reproduce`
# regenerates results/ and experiments_full.txt at full scale and fails
# on any diff against the committed copies. `make spine` runs the
# benchmark spine (./bench, declared by BENCHMARK.json — the
# repository's one benchmark system) and `make spine-aa` its A/A noise
# check; `make spine-gates`, the CI benchmark step, holds seven of the
# spine's own readings to absolute rules; `make spine-ab PARENT=<ref>
# WORKLOAD=<name>` measures the working tree against a parent commit in
# order-alternated pairs (scripts/ab.sh), and with
# WORKLOAD=experiments:<name> times a full-scale `experiments -j 1`
# run of one paper experiment the same way, stdout held byte-identical. `make loc` prints the
# non-test and test Go line counts per package (bench/ apart from the
# rest), the "net lines" a PR reports.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test reproduce spine spine-aa spine-gates spine-ab fmt vet lint race fuzz-smoke loc check clean

all: build

build:
	$(GO) build ./...
	$(GO) build -o bin/varsim ./cmd/varsim
	$(GO) build -o bin/experiments ./cmd/experiments
	$(GO) build -o bin/varsimlint ./cmd/varsimlint

test:
	$(GO) test ./...

# The full-scale reproduction as a checked artefact: regenerate every
# table at the paper's scale (16 CPUs, 20 runs per configuration; ~95 s
# on two CPUs) and fail on any difference from what is committed. The
# simulator is bit-stable and stdout carries results only, so the
# output is identical on any host at any -j; a diff here means the
# model, a workload or a statistic changed — commit the regenerated
# files with the change that explains them.
reproduce:
	$(GO) run ./cmd/experiments -heartbeat 0 -csv results -json results/tables.json all > experiments_full.txt
	git diff --exit-code -- results experiments_full.txt

# The benchmark spine BENCHMARK.json declares: five workloads, one
# process each, every end-to-end metric (bench/README.md). spine-aa runs
# it twice on this commit and applies its own bounds to the pair — any
# REGRESSION there is host noise, not a change.
spine:
	$(GO) run ./bench

spine-aa:
	bench/aa.sh

# The spine's absolute gates, and the only benchmark step CI runs: four
# one-second passes of one ./bench build, each pass's closing JSON line
# read, every reading printed beside its rule; fails on any miss, on a
# failed operation or on an incorrect pass. A rule is only as tight as
# two runs of one commit agree (bench/README.md):
#   - alloc_mb_per_op is a byte count of a deterministic simulation and
#     repeats to ~0.05 % on any host (the runtime counts heap in whole
#     spans): 1500 five-transaction branches allocate ~2.7 MB, a
#     recycled branch ~1.3 KB (84.5 MB while each branch re-made its
#     kernel, plans and metric registry, 772 MB while every branch
#     allocated the cache pages it copied, 1826 MB while the workload
#     engines still materialised op buffers).
#   - machine.snapshot_kb, what one COW snapshot allocates, reads
#     43.0-45.4 KB with a rare 47.9 (47.6-48.5 while every snapshot
#     wired a metric registry, ~73 KB while a line word was 64 bits; the
#     deep clone it replaced was ~5 MB), and deep/COW
#     — (snapshot_us + 1000 materialize_ms) / snapshot_us, the time to
#     snapshot and then own every page over the time to snapshot — is a
#     ratio taken inside one process (21-59).
#   - sampling.runs_saved_pct is exact, the study's seeds being pinned:
#     70 % of the 20-run fixed-N baseline, where 66.7 is three times
#     fewer runs (docs/SAMPLING.md).
#   - the three tap overheads are clocked differences of a 1-5 % cost
#     that this host reads anywhere in -5..+11 %; 25 %, the spine's own
#     clock bound, catches a tap gone quadratic and leaves a two-point
#     claim to paired runs (`make spine-ab`).
SPINE_ALLOC_MAX_MB ?= 5

spine-gates:
	@set -e; mkdir -p .bench_tmp/gates; $(GO) build -o .bench_tmp/gates/bench ./bench; \
	for pass in "branch_fanout" "branch_fanout -trace 1" "adaptive_verdict -trace 1" "steady_oltp -trace 1"; do \
		.bench_tmp/gates/bench -workload $$pass -seconds 1 | tail -n 1; \
	done | python3 -c 'import json, sys; \
	passes = [json.loads(line) for line in sys.stdin]; \
	fan, fant, adapt, oltp = [p["metrics"] for p in passes]; \
	cow_us = fant["machine.snapshot_us"]["value"]; \
	rows = [ \
	("branch_fanout", "alloc_mb_per_op", fan["alloc_mb_per_op"]["value"], "<=", $(SPINE_ALLOC_MAX_MB)), \
	("branch_fanout -trace 1", "machine.snapshot_kb", fant["machine.snapshot_kb"]["value"], "<=", 50), \
	("branch_fanout -trace 1", "deep/COW snapshot time", (cow_us + 1000 * fant["machine.materialize_ms"]["value"]) / cow_us, ">=", 5), \
	("adaptive_verdict -trace 1", "sampling.runs_saved_pct", adapt["sampling.runs_saved_pct"]["value"], ">=", 66.7), \
	] + [("steady_oltp -trace 1", tap, oltp[tap]["value"], "<", 25) for tap in ("digest.overhead_pct", "metrics.sampling_overhead_pct", "trace.overhead_pct")]; \
	held = [{"<=": v <= b, ">=": v >= b, "<": v < b}[op] for _, _, v, op, b in rows]; \
	print("%-26s %-30s %8s  rule" % ("pass", "reading", "value")); \
	print("".join("%-26s %-30s %8.2f  %2s %-5g %s\n" % (r + ("ok" if h else "MISS",)) for r, h in zip(rows, held)), end=""); \
	print("failed/attempted: %s; correct: %s" % (" ".join("%d/%d" % (p["failed"], p["attempted"]) for p in passes), all(p["correct"] for p in passes))); \
	sys.exit(not all(held) or any(p["failed"] != 0 or not p["correct"] for p in passes))'

# Paired parent-vs-change runs of one spine workload: per pair every
# end-to-end metric, each side's median and quartiles, wins per metric
# and whether sim_checksum agreed — what a clocked claim on a host that
# drifts 25 % in seconds has to rest on. PAIRS defaults to 10.
# WORKLOAD=experiments:<name> (e.g. experiments:table3, ~80 s a run)
# times full-scale `experiments -j 1 -heartbeat 0 <name>` instead:
# each side's wall-clock median and quartiles, failing unless every
# pair's stdouts are byte-identical.
PAIRS ?= 10

spine-ab:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || { echo "usage: make spine-ab PARENT=<ref> WORKLOAD=<name>|experiments:<name> [PAIRS=10] [SEED=...]"; exit 2; }
	scripts/ab.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(SEED)

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

# On a GitHub runner the findings print as workflow annotations, inline
# on the PR diff; the exit status is the same.
lint:
	$(GO) run ./cmd/varsimlint $(if $(GITHUB_ACTIONS),-format github) ./...

race:
	$(GO) test -race ./internal/fleet ./internal/sim ./internal/metrics ./internal/report ./internal/trace ./internal/obs ./internal/journal ./internal/faultinject ./internal/core ./internal/precision ./internal/lint/callgraph ./internal/machine ./internal/mem ./internal/checkpoint ./internal/sampling ./internal/session
	$(GO) test -race -run 'TestTable4ByteIdenticalAcrossWidths|Parallel' ./internal/harness

# Go's fuzzer accepts one target per invocation; each run seeds from the
# committed corpus under the package's testdata/fuzz and then mutates
# for FUZZTIME.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzRecordCodec$$' -fuzztime=$(FUZZTIME) ./internal/journal
	$(GO) test -run='^$$' -fuzz='^FuzzDigestCodec$$' -fuzztime=$(FUZZTIME) ./internal/journal
	$(GO) test -run='^$$' -fuzz='^FuzzCI$$' -fuzztime=$(FUZZTIME) ./internal/stats
	$(GO) test -run='^$$' -fuzz='^FuzzANOVA$$' -fuzztime=$(FUZZTIME) ./internal/stats
	$(GO) test -run='^$$' -fuzz='^FuzzStream$$' -fuzztime=$(FUZZTIME) ./internal/stats
	$(GO) test -run='^$$' -fuzz='^FuzzTTest$$' -fuzztime=$(FUZZTIME) ./internal/stats
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

check: fmt vet lint test race
	$(GO) build ./...

clean:
	rm -rf bin
