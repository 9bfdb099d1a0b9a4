#!/usr/bin/env bash
# The one command of the libdat benchmark.
#
#   benchmark/run.sh                      whole suite: every workload, 10 timed
#                                         runs + 1 traced run each, results in
#                                         benchmark/out/results.json
#   benchmark/run.sh --quick              the same, ~8x shorter (smoke only)
#   benchmark/run.sh --selfcheck          suite twice on this tree, then compare
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run, as the driver calls it; the
#                                         last line of stdout is the result
#
# Builds the benchmark package (its own workspace, path deps on ../crates)
# into $CARGO_TARGET_DIR, or the repo's target/ so it shares the tier-1
# artefacts. Build output goes to stderr: stdout belongs to the results.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" 1>&2
bin="$target/release/dat-benchmark"

# What a suite result is stamped with (nproc, shards and seed are added
# by the binary). Not computed for single runs: the driver's checkout is
# not a git repository and git would go looking above it.
stamp() {
    echo --commit "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
         --rustc "$(rustc --version | cut -d' ' -f2)"
}

# A run names its workload; everything else is the suite.
mode=suite
for arg in "$@"; do
    [[ $arg == --workload ]] && mode=run
done
case "${1:-}" in
spec | compare) mode=run ;;
--selfcheck) mode=selfcheck ;;
esac

case "$mode" in
run)
    exec "$bin" "$@"
    ;;
selfcheck)
    shift
    mkdir -p benchmark/out
    # shellcheck disable=SC2046  # word splitting of the stamp is intended
    "$bin" suite $(stamp) --out benchmark/out/selfcheck-a.json "$@"
    # shellcheck disable=SC2046
    "$bin" suite $(stamp) --out benchmark/out/selfcheck-b.json "$@"
    exec "$bin" compare benchmark/out/selfcheck-a.json benchmark/out/selfcheck-b.json
    ;;
suite)
    # shellcheck disable=SC2046
    exec "$bin" suite $(stamp) "$@"
    ;;
esac
