#!/usr/bin/env bash
# The bench gate: runs the repository benchmark (bench/) at the merge-base of
# BASE-REV and the checked-out tree (the head) in interleaved pairs, and
# fails when the head regressed:
#
#   bash ci/bench-gate.sh BASE-REV
#
# For every workload of BENCHMARK.json that both sides know, each side runs
# `bench --workload W` PAIRS times for BENCHMARK.json's run_seconds, the
# order alternating pair to pair. ci/bench-verdict.jq then fails the head
# when an end-to-end metric's median is worse than the parent's by more than
# its bound, when a head run reports a wrong output, or when the head's share
# of failed passes is larger than the parent's.
#
# One bench-trace run per side and workload gives the deterministic work
# counters, printed side by side with mismatches flagged. They are reported,
# not gated: bench/expected.json already pins every simulated output, and a
# speed-up may change event or allocation counts on purpose.
#
# stdout gets the Markdown tables (CI appends them to the job summary),
# stderr the progress. Needs git, jq and cargo.
set -euo pipefail

# Five runs a side give a median that two disturbed runs cannot move, at
# about 17 minutes of runs for five 15-second workloads. The gate only has
# to catch regressions beyond the 25% bounds, not resolve small gains.
PAIRS=5

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BASE-REV" >&2
  exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git merge-base "$1" HEAD)
tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/parent" 2> /dev/null; rm -rf "$tmp"' EXIT
git worktree add --quiet --detach "$tmp/parent" "$base"
declare -A dir=([parent]="$tmp/parent" [head]="$root")

# Each side builds into its own checkout, whatever CARGO_TARGET_DIR says.
for side in parent head; do
  echo "building bench/ of the $side" >&2
  cargo build --release --quiet --bins --manifest-path "${dir[$side]}/bench/Cargo.toml" \
    --target-dir "${dir[$side]}/bench/target"
done

seconds=$(jq '.run_seconds' BENCHMARK.json)
mapfile -t workloads < <(jq -r --slurpfile parent "$tmp/parent/BENCHMARK.json" \
  '.workloads[].name | select(IN($parent[0].workloads[].name))' BENCHMARK.json)

# Runs one benchmark binary of one side and prints its result line. Exit
# status 1 only means a wrong output, which the line itself reports.
result() {
  local out line
  out=$("${dir[$1]}/bench/target/release/$2" --workload "$3" --seconds "$seconds") || true
  line=${out##*$'\n'}
  if ! jq -e 'has("correct")' <<< "$line" > /dev/null 2>&1; then
    echo "$2 --workload $3 of the $1 printed no result" >&2
    exit 2
  fi
  echo "$line"
}

for w in "${workloads[@]}"; do
  for ((pair = 1; pair <= PAIRS; pair++)); do
    order=(parent head)
    ((pair % 2)) || order=(head parent)
    for side in "${order[@]}"; do
      echo "$w: pair $pair of $PAIRS, $side" >&2
      result "$side" bench "$w" >> "$tmp/$side.$w.jsonl"
    done
  done
  for side in parent head; do
    echo "$w: counters of the $side" >&2
    result "$side" bench-trace "$w" > "$tmp/$side.$w.trace.json"
  done
done

status=0
echo "### Bench gate: medians of $PAIRS runs a side, parent $(git rev-parse --short "$base")"
echo
echo "| workload | metric | parent | head | head/parent | bound | verdict |"
echo "|---|---|---|---|---|---|---|"
for w in "${workloads[@]}"; do
  jq -n -r -f ci/bench-verdict.jq --arg workload "$w" --slurpfile bench BENCHMARK.json \
    --slurpfile parent "$tmp/parent.$w.jsonl" --slurpfile head "$tmp/head.$w.jsonl" || status=1
done
echo
echo "### Deterministic counters (reported, not gated)"
echo
echo "| workload | counter | parent | head | |"
echo "|---|---|---|---|---|"
for w in "${workloads[@]}"; do
  jq -n -r --arg workload "$w" --slurpfile parent "$tmp/parent.$w.trace.json" \
    --slurpfile head "$tmp/head.$w.trace.json" '
    ($parent[0].metrics + $head[0].metrics | keys_unsorted[]
      | select(test("^(engine\\.(events|activations|messages|allocs)|(lb|faults|open|frontend)\\..*)$")))
      as $k
    | [$parent[0].metrics[$k].value, $head[0].metrics[$k].value] as [$p, $h]
    | "| \($workload) | \($k) | \($p) | \($h) | \(if $p == $h then "" else "**differs**" end) |"'
done
exit "$status"
