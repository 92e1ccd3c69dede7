#!/bin/sh
# Paired parent-vs-change measurement of one spine workload — §8 of the
# choosing-metrics protocol, which a clocked claim on this host needs
# (its speed drifts ~25 % within seconds, so single runs and unpaired
# medians say nothing about a 10–30 % change). Builds ./bench once at
# <parent-ref> (from `git archive`, so nothing is registered in .git) and
# once from the working tree as it stands, then runs <pairs> pairs of
# `bench -workload <workload>`, alternating which side goes first, and
# prints per pair all seven end-to-end metrics, each side's median and
# quartiles, wins/ties per metric and whether sim_checksum agreed.
#
# Given experiments:<name> in place of a workload, it measures one paper
# experiment end to end instead: it builds cmd/experiments on both sides,
# times full-scale `experiments -j 1 -heartbeat 0 <name>` in the same
# alternating pairs, prints each side's wall-clock median and quartiles,
# and exits non-zero unless the two stdouts are byte-identical in every
# pair. Table 3 is measured this way (experiments:table3, ~80 s a run on
# a 2-CPU host) until the spine has a workload for Ocean on the simple
# core.
#
#   scripts/ab.sh <parent-ref> <workload> [pairs=10] [seed]   from the repository root
#   scripts/ab.sh <parent-ref> experiments:<name> [pairs=10]
#
# Everything lives under .bench_tmp/ab/ (the per-run outputs are kept
# there: <side>.<pair>.txt, and for an experiment its stdout
# <side>.<pair>.out and wall-clock seconds <side>.<pair>.s). Interim for
# the `bench -ab` mode ROADMAP's [measure] item asks for; that PR absorbs
# and deletes this script.
set -eu
if [ $# -lt 2 ]; then
	echo "usage: scripts/ab.sh <parent-ref> <workload>|experiments:<name> [pairs=10] [seed]" >&2
	exit 2
fi
parent=$1
workload=$2
pairs=${3:-10}
seed=${4:-0xA1A3}
root=$(pwd)
out=$root/.bench_tmp/ab
rm -rf "$out"
mkdir -p "$out/parent"
git archive "$parent" | tar -x -C "$out/parent"
tool=bench pkg=./bench
case $workload in
experiments:*) tool=experiments pkg=./cmd/experiments name=${workload#experiments:} ;;
esac
(cd "$out/parent" && go build -o "$out/$tool.parent" "$pkg")
go build -o "$out/$tool.change" "$pkg"

# run <side> <pair>: one bench or experiments process, in the tree its
# binary was built from.
run() {
	dir=$root
	[ "$1" = parent ] && dir=$out/parent
	if [ "$tool" = experiments ]; then
		t0=$(date +%s.%N)
		(cd "$dir" && "$out/experiments.$1" -j 1 -heartbeat 0 "$name") >"$out/$1.$2.out" 2>"$out/$1.$2.txt" || {
			echo "ab.sh: $1 run of pair $2 failed; see $out/$1.$2.txt" >&2
			exit 1
		}
		echo "$t0 $(date +%s.%N)" | awk '{ printf "%.3f\n", $2 - $1 }' >"$out/$1.$2.s"
		return
	fi
	(cd "$dir" && "$out/bench.$1" -workload "$workload" -seed "$seed") >"$out/$1.$2.txt" 2>&1 || {
		echo "ab.sh: $1 run of pair $2 failed; see $out/$1.$2.txt" >&2
		exit 1
	}
}

i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$i"
		run change "$i"
	else
		run change "$i"
		run parent "$i"
	fi
	echo "pair $i/$pairs done" >&2
	i=$((i + 1))
done

if [ "$tool" = experiments ]; then
	exec python3 - "$out" "$pairs" "$parent" "$name" <<'EOF'
import filecmp, statistics, sys

out, pairs, parent, name = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
wall = {side: [float(open("%s/%s.%d.s" % (out, side, i)).read()) for i in range(1, pairs + 1)] for side in ("parent", "change")}
same = [filecmp.cmp("%s/parent.%d.out" % (out, i), "%s/change.%d.out" % (out, i), shallow=False) for i in range(1, pairs + 1)]
print("ab: experiments -j 1 %s, parent %s vs working tree, %d pairs (odd pairs run the parent first)" % (name, parent, pairs))
print("\nwall_s (lower is better)")
print("  pair   parent       change       change/parent  stdout")
for i, (a, b) in enumerate(zip(wall["parent"], wall["change"]), 1):
    print("  %-4d   %-12.3f %-12.3f %-14.3f %s" % (i, a, b, b / a, "identical" if same[i - 1] else "DIFFERS"))
meds = {}
for side in ("parent", "change"):
    v = wall[side]
    q1, meds[side], q3 = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else v * 3
    print("  %s median %.3f  q1 %.3f  q3 %.3f  (iqr %.3g)" % (side, meds[side], q1, q3, q3 - q1))
wins = sum(b < a for a, b in zip(wall["parent"], wall["change"]))
print("  change wins %d/%d; medians %+.1f %%" % (wins, pairs, (meds["change"] / meds["parent"] - 1) * 100))
print("\nstdout: %s" % ("byte-identical in every pair" if all(same) else "DIFFERED in pairs %s" % [i + 1 for i, s in enumerate(same) if not s]))
sys.exit(0 if all(same) else 1)
EOF
fi

python3 - "$out" "$pairs" "$parent" "$workload" "$seed" <<'EOF'
import json, re, statistics, sys

out, pairs, parent, workload, seed = sys.argv[1], int(sys.argv[2]), *sys.argv[3:6]
# Direction of each end-to-end metric, as BENCHMARK.json declares it.
higher = {"sim_minstr_per_s", "runs_per_s"}
metrics = ["wall_s", "sim_minstr_per_s", "host_ns_per_event", "runs_per_s", "alloc_mb_per_op", "peak_rss_mb", "setup_s"]

def load(side, i):
    text = open("%s/%s.%d.txt" % (out, side, i)).read()
    res = json.loads(text.strip().splitlines()[-1])
    sums = re.findall(r"sim_checksum ([0-9a-f]+)", text)
    return {m: res["metrics"][m]["value"] for m in metrics if m in res["metrics"]}, sums, res

def quart(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4, method="inclusive")
    return q[0], q[1], q[2]

runs = [(load("parent", i), load("change", i)) for i in range(1, pairs + 1)]
print("ab: %s, parent %s vs working tree, %d pairs, seed %s (odd pairs run the parent first)" % (workload, parent, pairs, seed))
agree = all(p[1] == c[1] and p[1] for p, c in runs)
failed = [(p[2]["failed"], p[2]["attempted"], c[2]["failed"], c[2]["attempted"]) for p, c in runs]
for m in metrics:
    ps = [p[0][m] for p, _ in runs if m in p[0]]
    cs = [c[0][m] for _, c in runs if m in c[0]]
    if len(ps) != pairs or len(cs) != pairs:
        continue
    print("\n%s (%s is better)" % (m, "higher" if m in higher else "lower"))
    print("  pair   parent       change       change/parent")
    wins = ties = 0
    for i, (a, b) in enumerate(zip(ps, cs), 1):
        if a == b:
            ties += 1
        elif (b > a) == (m in higher):
            wins += 1
        print("  %-4d   %-12.6g %-12.6g %.3f" % (i, a, b, b / a if a else float("nan")))
    (p1, p2, p3), (c1, c2, c3) = quart(ps), quart(cs)
    print("  parent median %.6g  q1 %.6g  q3 %.6g  (iqr %.3g)" % (p2, p1, p3, p3 - p1))
    print("  change median %.6g  q1 %.6g  q3 %.6g  (iqr %.3g)" % (c2, c1, c3, c3 - c1))
    delta = (c2 / p2 - 1) * 100 if p2 else float("nan")
    print("  change wins %d/%d, ties %d; medians %+.1f %%; gap %s parent iqr" % (
        wins, pairs, ties, delta, "wider than" if abs(c2 - p2) > p3 - p1 else "within"))
print("\nsim_checksum: %s (%s)" % ("agreed on every pair" if agree else "DIFFERED", " ".join(runs[0][0][1])))
print("failed/attempted: parent %s, change %s" % (
    " ".join("%d/%d" % (f[0], f[1]) for f in failed), " ".join("%d/%d" % (f[2], f[3]) for f in failed)))
sys.exit(0 if agree else 1)
EOF
