#!/bin/sh
# A/A check: the full untraced pass twice on the same commit, then the
# benchmark's own bounds applied to the pair. Any REGRESSION line (and a
# non-zero exit) here is noise the bounds fail to absorb, not a change.
#
#   bench/aa.sh [seed]        run from the repository root
set -eu
seed=${1:-0xA1A3}
out=.bench_tmp/aa
mkdir -p "$out"
go build -o "$out/bench" ./bench
for side in A B; do
	"$out/bench" -seed "$seed" -out "$out/$side.json" >"$out/$side.txt" || {
		echo "aa.sh: pass $side failed; see $out/$side.txt" >&2
		exit 1
	}
done
"$out/bench" -compare "$out/A.json" "$out/B.json"
