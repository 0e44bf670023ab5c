#!/usr/bin/env bash
# Scores the workspace's tests by the mutants they kill.
#
#   bash crates/spec/mutate.sh
#
# A mutant is a unified diff against the tree (`patch -p1`) whose first
# line names the rule it breaks. The tree is copied to
# $TMPDIR/pscd-mutants/src (the working tree is never patched), and
# `cargo test --workspace --release --no-fail-fast -q` runs there once
# unpatched, which must pass, then once per mutant, the patch applied
# before the run and reverted after it. A test binary kills a mutant when
# cargo reports it failed (``error: test failed, to rerun pass `-p X
# --test Y` ``); the tests in its `failures:` list are the ones that
# caught it. The release target directory stays in $TMPDIR/pscd-mutants
# between runs.
#
# Prints a markdown matrix (test binaries × mutants; a cell is the number
# of the binary's tests that failed) and each mutant's failed tests.
# Exits non-zero when a patch does not apply, the unpatched tree fails, a
# mutant does not build or runs past the time limit, the comment-only
# control M0 is killed, or another mutant survives every binary.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
mutants=$root/crates/spec/mutants
base=${TMPDIR:-/tmp}/pscd-mutants
src=$base/src
logs=$base/logs
limit=1800 # seconds for one test run, build included
export CARGO_TARGET_DIR=$base/target

mapfile -t names < <(
  for p in "$mutants"/*.patch; do basename "$p" .patch; done | sort -V
)

# A fresh copy of every file git does not ignore, each stamped with the
# time of the copy: the last run's target directory may hold a mutant's
# build, which an older source stamp would let cargo reuse.
rm -rf "$src" "$logs"
mkdir -p "$src" "$logs"
(
  cd "$root"
  git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do
      if [ -e "$f" ]; then printf '%s\0' "$f"; fi
    done |
    tar -cf - --null -T -
) | tar -xmf - -C "$src"

status=0
for m in "${names[@]}"; do
  if ! (cd "$src" && patch -p1 -F0 -s --dry-run <"$mutants/$m.patch" >/dev/null); then
    echo "error: $m.patch does not apply" >&2
    status=1
  fi
done
[ $status -eq 0 ] || exit $status

# Runs the suite in the copy; the output goes to $1.
run_tests() {
  (cd "$src" && timeout "$limit" cargo test --workspace --release --no-fail-fast -q) >"$1" 2>&1
}

# Prints one `binary<TAB>test` line per failed test of the log $1; a
# binary that failed with no `failures:` list (it crashed) gets one line
# naming no test.
kills() {
  awk '
    /^failures:$/ { listing = 1; n = 0; next }
    listing && /^    / { sub(/^    /, ""); name[++n] = $0; next }
    { listing = 0 }
    /^test result: FAILED/ { pending = n; for (i = 1; i <= n; i++) failed[i] = name[i] }
    /^error: (doc)?test failed, to rerun pass `/ {
      match($0, /`[^`]*`/)
      bin = substr($0, RSTART + 1, RLENGTH - 2)
      sub(/^-p /, "", bin)
      if (pending == 0) print bin "\t(the binary crashed)"
      for (i = 1; i <= pending; i++) print bin "\t" failed[i]
      pending = 0
    }' "$1"
}

start=$SECONDS
echo "unpatched tree ..." >&2
if ! run_tests "$logs/unpatched.txt"; then
  echo "error: the unpatched tree fails its tests; see $logs/unpatched.txt" >&2
  exit 1
fi

: >"$base/kills.tsv"
declare -A verdict
for m in "${names[@]}"; do
  t0=$SECONDS
  (cd "$src" && patch -p1 -F0 -s <"$mutants/$m.patch")
  rc=0
  run_tests "$logs/$m.txt" || rc=$?
  (cd "$src" && patch -R -p1 -F0 -s <"$mutants/$m.patch")
  kills "$logs/$m.txt" | sed "s/^/$m\t/" >>"$base/kills.tsv"
  n=$(awk -F'\t' -v m="$m" '$1 == m { print $2 }' "$base/kills.tsv" | sort -u | wc -l)
  if [ $rc -eq 124 ]; then
    verdict[$m]="error: timed out after ${limit}s"
  elif grep -q -e '^error: could not compile' -e '^error\[E' "$logs/$m.txt"; then
    verdict[$m]="error: does not build"
  elif [ $rc -ne 0 ] && [ "$n" -eq 0 ]; then
    verdict[$m]="error: cargo exited $rc with no failed binary named"
  elif [ $rc -eq 0 ] && [ "$n" -eq 0 ]; then
    verdict[$m]="survived"
  else
    verdict[$m]="killed by $n"
  fi
  case "$m:${verdict[$m]}" in
    M0:survived) ;;
    M0:*) verdict[$m]="error: the control is ${verdict[$m]}" ;;
  esac
  case "${verdict[$m]}" in
    error*) status=1 ;;
    survived) [ "$m" = M0 ] || status=1 ;;
  esac
  echo "$m: ${verdict[$m]} ($((SECONDS - t0)) s)" >&2
done

echo "## Kill matrix"
echo
printf '| test binary |'
printf ' %s |' "${names[@]}"
echo
printf '|---|'
printf -- '---|%.0s' "${names[@]}"
echo
cut -f2 "$base/kills.tsv" | sort -u | while IFS= read -r bin; do
  printf '| `%s` |' "$bin"
  for m in "${names[@]}"; do
    c=$(awk -F'\t' -v m="$m" -v b="$bin" '$1 == m && $2 == b' "$base/kills.tsv" | wc -l)
    if [ "$c" -eq 0 ]; then printf ' · |'; else printf ' %s |' "$c"; fi
  done
  echo
done
printf '| **binaries that kill it** |'
for m in "${names[@]}"; do
  printf ' %s |' "$(awk -F'\t' -v m="$m" '$1 == m { print $2 }' "$base/kills.tsv" | sort -u | wc -l)"
done
echo
echo
echo "## Mutants"
echo
for m in "${names[@]}"; do
  echo "- **$m** ($(head -n1 "$mutants/$m.patch" | sed 's/^[^:]*: //')): ${verdict[$m]}"
  awk -F'\t' -v m="$m" '$1 == m { print $2 "\t" $3 }' "$base/kills.tsv" |
    awk -F'\t' '{ t[$1] = t[$1] (t[$1] ? ", " : "") $2 } END { for (b in t) print "  - `" b "`: " t[b] }' |
    sort
done
echo
echo "One run, $(( (SECONDS - start) / 60 )) min $(( (SECONDS - start) % 60 )) s."
exit $status
