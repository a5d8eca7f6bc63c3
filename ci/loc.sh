#!/usr/bin/env bash
# Non-test line counts, the size measure the ROADMAP's simplicity items use:
#
#   bash ci/loc.sh
#
# For each crate under crates/, the lines of its src/ files that come before
# the file's first #[cfg(test)]; files named tests.rs count as test code.
# Then the same count for each file of the dlb-exec engine, and the engine's
# non-test expect(/unwrap() sites. Prints Markdown (CI appends it to the job
# summary) and reports only: it never fails on a number.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# Prints the non-test lines of the given files, each of them or their sum.
nontest() {
  awk -v each="$1" '
    FNR == 1 { skip = (FILENAME ~ /(^|\/)tests\.rs$/) }
    /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
    !skip { n[FILENAME]++; total++ }
    END {
      if (each) for (f in n) print f, n[f]
      else print total + 0
    }' "${@:2}"
}

# The Rust files under a directory, in a stable order.
sources() {
  find "$1" -name '*.rs' | LC_ALL=C sort
}

echo "| crate | non-test lines |"
echo "|---|---:|"
sum=0
for dir in $(find crates -name Cargo.toml -printf '%h\n' | LC_ALL=C sort); do
  [[ -d $dir/src ]] || continue
  mapfile -t files < <(sources "$dir/src")
  n=$(nontest 0 "${files[@]}")
  echo "| ${dir#crates/} | $n |"
  case $dir in crates/dlb-exec | crates/dlb-core) sum=$((sum + n)) ;; esac
done
echo "| dlb-exec + dlb-core | $sum |"
echo

engine=crates/dlb-exec/src/engine
[[ -d $engine ]] || engine=$engine.rs
mapfile -t files < <(sources "$engine")
echo "| engine file | non-test lines |"
echo "|---|---:|"
nontest 1 "${files[@]}" | LC_ALL=C sort | while read -r f n; do
  [[ $n -gt 0 ]] && echo "| ${f#crates/dlb-exec/src/} | $n |"
done
echo "| total | $(nontest 0 "${files[@]}") |"
echo

sites=$(awk '
  FNR == 1 { skip = (FILENAME ~ /(^|\/)tests\.rs$/) }
  /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
  !skip { n += gsub(/expect\(|unwrap\(\)/, "") }
  END { print n + 0 }' "${files[@]}")
echo "Engine non-test \`expect(\`/\`unwrap()\` sites: $sites"
