# Sourced by every CI step that runs tests by filter:
#
#   source .github/filtered.sh
#   filtered --release -p pscd-sim --lib prefetch -- --nocapture
#
# `cargo test FILTER` exits 0 when FILTER matches nothing, so a renamed or
# deleted test would leave its step green and empty. `filtered` runs
# `cargo test "$@"` and also fails when a test binary it ran reported
# "running 0 tests" — so name one binary (`--lib` or `--test NAME`): without
# that, cargo also runs the package's other binaries and its doc-tests, which
# the filter rightly empties.
filtered() {
  cargo test "$@" 2>&1 | tee /tmp/filtered.txt
  local status=${PIPESTATUS[0]}
  if [ "$status" -ne 0 ]; then
    return "$status"
  fi
  if grep -q '^running 0 tests$' /tmp/filtered.txt; then
    echo "filter matched no tests: cargo test $*" >&2
    return 1
  fi
}
