#!/usr/bin/env bash
# Same-host A/B of the benchmark: runs the _texbench of a base commit and
# of this checkout alternately on one machine, and fails when a run fails
# or this checkout is worse than the base by more than BENCHMARK.json
# allows.
#
# Usage, from anywhere in the repository:
#
#   bash .github/texbench-ab.sh <base-commit>
#
# The base is checked out into a temporary git worktree under $TMPDIR,
# removed on exit. For each workload in this checkout's BENCHMARK.json,
# each side runs
#
#   bash _texbench/run.sh --workload W --seed 1 --seconds 5 --trace 0
#
# five times, the side that goes first alternating from pair to pair;
# each side builds and runs its own _texbench. The gate fails when
#   - a run of either side exits non-zero, is not "correct", or has
#     "failed" > 0, or
#   - this checkout's median refs_per_s, cpu_ns_per_ref or alloc_mb is
#     worse than the base's median by more than that metric's bound in
#     this checkout's BENCHMARK.json, as a fraction of the base's median.
# setup_s (sub-millisecond), peak_rss_mb (one sample per run) and
# fast_err_max_pct (a deterministic model error) are printed, not gated.
#
# Every run's manifest and result lines (<workload>/<side>-<n>.jsonl) and
# its standard error (<workload>/<side>-<n>.log) are kept in texbench-ab/
# at the repository root, with summary.txt: the failures, then both
# sides' quartiles and median of every end_to_end metric, then the
# verdict, as printed. Exit status: 0 pass, 1 fail, 2 usage error.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: bash .github/texbench-ab.sh <base-commit>" >&2
  exit 2
fi
head_dir=$(git rev-parse --show-toplevel)
cd "$head_dir"
if ! base=$(git rev-parse --verify --quiet "$1^{commit}"); then
  echo "texbench-ab: $1 is not a commit of this repository" >&2
  exit 2
fi

runs=5
seconds=5
gated='["refs_per_s", "cpu_ns_per_ref", "alloc_mb"]'
spec=$head_dir/BENCHMARK.json
out=$head_dir/texbench-ab
summary=$out/summary.txt

tmp=$(mktemp -d)
base_dir=$tmp/base
trap 'rm -rf "$tmp"; git -C "$head_dir" worktree prune' EXIT
git worktree add --quiet --detach "$base_dir" "$base"
rm -rf "$out"
mkdir -p "$out"

note() { echo "$*" | tee -a "$summary"; }

# result prints the result line of a run's standard output, if it has one.
result() {
  tail -n 1 "$1" | jq -c -R 'fromjson? | select(type == "object" and has("metrics"))'
}

# run_side runs one side once and checks its exit status and result.
run_side() {
  local side=$1 dir=$2 w=$3 n=$4
  local log=$out/$w/$side-$n status=0 res
  (cd "$dir" && bash _texbench/run.sh --workload "$w" --seed 1 \
    --seconds "$seconds" --trace 0) >"$log.jsonl" 2>"$log.log" || status=$?
  res=$(result "$log.jsonl")
  if [ "$status" -ne 0 ]; then
    note "FAIL $w $side-$n: exit status $status, see $w/$side-$n.log"
  elif [ -z "$res" ]; then
    note "FAIL $w $side-$n: no result line"
  elif ! jq -e '.correct == true and .failed == 0' <<<"$res" >/dev/null; then
    note "FAIL $w $side-$n: not correct: $(jq -c '{correct, attempted, failed}' <<<"$res")"
  fi
}

note "texbench A/B: base $base, head $(git rev-parse HEAD)$(git diff --quiet HEAD || echo ' with uncommitted changes')"
names=$(jq -r '.workloads[].name' "$spec")
mapfile -t workloads <<<"$names"
for w in "${workloads[@]}"; do
  mkdir -p "$out/$w"
  for n in $(seq 1 "$runs"); do
    if [ $((n % 2)) -eq 1 ]; then
      run_side base "$base_dir" "$w" "$n"
      run_side head "$head_dir" "$w" "$n"
    else
      run_side head "$head_dir" "$w" "$n"
      run_side base "$base_dir" "$w" "$n"
    fi
  done
done

# One row per workload and end_to_end metric: each side's first
# quartile, median and third quartile (the exclusive method, as
# _texbench's own summary computes them), head/base of the medians, and
# the verdict.
rows() {
  local w
  for w in "${workloads[@]}"; do
    jq -n -r --arg w "$w" --argjson gated "$gated" --slurpfile spec "$spec" \
      --slurpfile base <(for f in "$out/$w"/base-*.jsonl; do result "$f"; done) \
      --slurpfile head <(for f in "$out/$w"/head-*.jsonl; do result "$f"; done) '
      def quartiles:
        sort as $d | ($d | length) as $n |
        if $n == 0 then ["-", "-", "-"]
        elif $n == 1 then [$d[0], $d[0], $d[0]]
        else [1, 2, 3 | (. * ($n + 1)) as $im
              | ([([($im / 4 | floor), 1] | max), $n - 1] | min) as $j
              | ($im - $j * 4) as $delta
              | ($d[$j - 1] * (4 - $delta) + $d[$j] * $delta) / 4]
        end;
      def samples($runs; $m): [$runs[] | .metrics[$m].value? // empty] | quartiles;
      $spec[0].end_to_end[] as $e
      | samples($base; $e.name) as $b | samples($head; $e.name) as $h
      | (if ($gated | index([$e.name])) == null then "not gated"
         elif $b[1] == "-" or $h[1] == "-" then "FAIL: no samples"
         elif $b[1] == 0 then "FAIL: base median is 0"
         else (if $e.better == "higher" then ($b[1] - $h[1]) / $b[1]
               else ($h[1] - $b[1]) / $b[1] end) as $worse
           | (if $worse > $e.bound then "FAIL" else "ok" end)
             + ": \($worse | fabs * 1000 | round / 10)% "
             + (if $worse >= 0 then "worse" else "better" end)
             + ", bound \($e.bound * 100)%"
         end) as $verdict
      | [$w, $e.name, $e.unit, $b[], $h[], $verdict] | @tsv'
  done
}

rows | awk -F '\t' '
  function g(x) { return x == "-" ? x : sprintf("%.4g", x) }
  BEGIN {
    printf "%-14s %-17s %-4s %32s   %32s  %9s  %s\n", "workload", "metric", "unit",
      "base q1 / median / q3", "head q1 / median / q3", "head/base", "verdict"
  }
  {
    ratio = ($5 == "-" || $8 == "-" || $5 == 0) ? "-" : sprintf("%.3f", $8 / $5)
    printf "%-14s %-17s %-4s %10s %10s %10s   %10s %10s %10s  %9s  %s\n",
      $1, $2, $3, g($4), g($5), g($6), g($7), g($8), g($9), ratio, $10
  }' | tee -a "$summary"

if grep -q '^FAIL\|  FAIL' "$summary"; then
  note "texbench A/B: FAIL"
  exit 1
fi
note "texbench A/B: PASS"
