#!/usr/bin/env bash
# A/B benchmark of the working tree against a git revision: builds REV in
# a git worktree under .bench_build/ab, then runs perfbench (each side's
# own perfbench/run.sh, end-to-end metrics only) in PAIRS alternating
# pairs, the side that goes first swapping every pair. Each pair gets a
# fresh seed, shared by both sides; the seeds derive from the clock and are
# printed. Results land in .bench_build/ab/<workload>-<stamp>/ and the
# summary (each metric's median, quartiles, pair wins and verdict) is
# printed by scripts/benchab. WORKLOAD=all runs every workload named in
# BENCHMARK.json in turn, with one summary each. After the last summary it
# exits 1 if any workload failed benchab's gate: a change run incorrect or
# failing more ops than its base run, or an end-to-end metric worse than
# its base run by more than its bound in every pair. Run it from any
# directory of the checkout:
#
#   bash scripts/bench_ab.sh REV [PAIRS] [WORKLOAD|all]
#   make bench-ab REV=main PAIRS=10 WORKLOAD=matrix-4c
#   make bench-ab REV=main PAIRS=10 WORKLOAD=all
set -euo pipefail
rev=${1:?usage: bench_ab.sh REV [PAIRS] [WORKLOAD|all]}
pairs=${2:-10}
workload=${3:-matrix-4c}
cd "$(git rev-parse --show-toplevel)"
root=$(pwd)
sha=$(git rev-parse --verify "$rev^{commit}")
secs=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
workloads=$workload
if [[ $workload == all ]]; then
	# The "name" of each entry of the "workloads" list, up to its closing
	# bracket.
	workloads=$(awk '/"workloads"/ { w = 1; next } w && /^  \]/ { exit }
		w && /"name"/ { sub(/.*"name": *"/, ""); sub(/".*/, ""); print }' BENCHMARK.json)
	[[ -n $workloads ]] || { echo "bench_ab: no workloads in BENCHMARK.json" >&2; exit 1; }
fi

ab=$root/.bench_build/ab
base=$ab/base
mkdir -p "$ab"
git worktree remove --force "$base" 2>/dev/null || rm -rf "$base"
git worktree prune
git worktree add --detach "$base" "$sha" >/dev/null
trap 'git worktree remove --force "$base"' EXIT

# side NAME DIR PAIR SEED: one perfbench run of $workload, its result line
# kept as $out/NAME-PAIR.json and its full output beside it.
side() {
	local log=$out/$1-$3.log
	(cd "$2" && CARGO_TARGET_DIR=$ab/$1-build bash perfbench/run.sh \
		--workload "$workload" --seed "$4" --seconds "$secs" --trace 0) >"$log" 2>&1 || {
		echo "bench_ab: $1 run $3 failed, see $log" >&2
		exit 1
	}
	tail -n 1 "$log" >"$out/$1-$3.json"
	echo "pair $3 seed $4 $1: $(tail -n 1 "$log")"
}

status=0
for workload in $workloads; do
	out=$ab/$workload-$(date +%Y%m%dT%H%M%S)
	mkdir -p "$out"
	seed0=$(($(date +%s) % 1000000 * 100))
	echo "bench_ab: $workload, $pairs pairs, base $(git rev-parse --short "$sha"), change = working tree, seeds $((seed0 + 1))..$((seed0 + pairs))"
	for i in $(seq 1 "$pairs"); do
		seed=$((seed0 + i))
		if ((i % 2)); then
			side base "$base" "$i" "$seed"
			side change "$root" "$i" "$seed"
		else
			side change "$root" "$i" "$seed"
			side base "$base" "$i" "$seed"
		fi
	done
	echo
	echo "## $workload"
	echo
	go run ./scripts/benchab "$out" || status=1
	echo
done
exit $status
