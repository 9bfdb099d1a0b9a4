#!/usr/bin/env bash
# Local CI gate: formatting, lints, then the tier-1 build + test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> clippy: unwrap_used denied in self-healing + observability + health modules"
# The failure-semantics layer (PR 3) must not panic its way out of a
# degraded state, the observability crate (PR 4) must never crash the
# node it instruments, the health plane (PR 6) must never panic the
# failure detector it runs inside, and the wire-robustness layer (PR 8:
# codec error paths, fuzz driver, corruption campaign) must never panic on
# hostile input, and the async cluster host + its bins (PR 9) must never
# panic a 1k-node fleet, and the event engine (PR 10, one engine since
# PR 14: sim/src/net.rs + shard.rs) must never panic a worker thread
# of its own accord (an actor's panic is carried out of the run; the
# engine's own would be a bug in the barrier protocol itself), and the
# real-socket host core (PR 12) must never panic a node's only thread
# or task, and the per-message tallies (PR 13:
# chord::Metrics, bumped on every send and receive of every layer) must
# never panic the message path, and the DAT codec and protocol
# (core/src/codec.rs + proto.rs) must never panic on a hostile frame or
# inside the aggregation handler; the modules opt in via
# #![deny(clippy::unwrap_used)] and this check keeps the attribute from
# being dropped silently.
for f in crates/sim/src/campaign.rs crates/bench/src/experiments/degradation.rs \
         crates/bench/src/experiments/partition.rs \
         crates/obs/src/lib.rs crates/chord/src/health.rs \
         crates/sim/src/queue.rs crates/sim/src/net.rs \
         crates/chord/src/wire.rs crates/sim/src/fuzz.rs \
         crates/cluster/src/lib.rs crates/cluster/src/bin/clusterd.rs \
         crates/sim/src/shard.rs \
         crates/chord/src/host.rs crates/chord/src/metrics.rs \
         crates/core/src/codec.rs crates/core/src/proto.rs; do
  grep -q '#!\[deny(clippy::unwrap_used)\]' "$f" \
    || { echo "missing #![deny(clippy::unwrap_used)] in $f"; exit 1; }
done

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
# `default-members` in Cargo.toml makes this every member's tests, not
# only the root package's: the scheduler lockstep harness and full-stack
# parity in dat-sim, the host core in dat-chord, both real hosts, the
# runtime shim's smoke tests.
cargo test -q

echo "==> repro smoke: every experiment's qualitative checks, twice, byte-identical"
# --quick --check all runs all fourteen experiments at small sizes in
# under a second and exits non-zero if a paper claim fails. Running it
# twice catches what no single run can: output that follows the
# process's hash seed (a map walked for its order) instead of the
# experiment's seed.
repro_a="$(cargo run --release -q -p dat-bench --bin repro -- --quick --check all)"
repro_b="$(cargo run --release -q -p dat-bench --bin repro -- --quick --check all)"
diff <(echo "$repro_a") <(echo "$repro_b") \
  || { echo "two runs of repro --quick --check all differ: unseeded order leaked into an experiment"; exit 1; }

echo "==> EXPERIMENTS.md: its recorded output is what repro all --check prints now"
# The fenced block under "## Recorded output" is the full-size run's
# stdout, byte for byte (progress lines go to stderr); ~10 s. A change
# that moves a number regenerates the block in the same diff.
recorded="$(awk '/^## Recorded output/ { f = 1; next } f && /^```/ { if (b) exit; b = 1; next } b' EXPERIMENTS.md)"
full="$(cargo run --release -q -p dat-bench --bin repro -- all --check)"
diff <(echo "$recorded") <(echo "$full") \
  || { echo "EXPERIMENTS.md's recorded output is stale: paste in repro all --check"; exit 1; }

echo "==> repro smoke: fig8a with tracing on; the fleet Prometheus dump must parse"
# --metrics merges every node's registry and validates the exposition
# (non-empty, grammar, no duplicate series); --check turns a validation
# failure into a non-zero exit. Capture first: a -q grep would close the
# pipe mid-dump and kill the producer with SIGPIPE under pipefail.
metrics_out="$(cargo run --release -p dat-bench --bin repro -- --quick --check --metrics fig8a)"
grep -q "parses clean" <<<"$metrics_out" \
  || { echo "fig8a --metrics produced no validated Prometheus dump"; exit 1; }

# The three campaign suites print one summary line per seed (score, fleet
# tallies, plan digest). `campaign` runs one suite, echoes its output and
# keeps those lines for the campaign pin after the corruption step.
campaign_lines=""
campaign() {
  local out
  out="$(cargo test -q --test "$1" -- --nocapture 2>&1)" || { echo "$out"; return 1; }
  echo "$out"
  campaign_lines+="$(grep -E '^(Churn \{|Gray seed|Corrupt seed)' <<<"$out")"$'\n'
}

echo "==> soak smoke: bounded churn matrix (failing seeds print their replay line)"
# Two simulated hours of seeded churn per seed; ~10 s wall-clock each
# thanks to the per-crate opt-level overrides. Extend the matrix with
# e.g. SOAK_SEEDS="2 9 41" for a deeper sweep.
SOAK_SEEDS="${SOAK_SEEDS:-2}" campaign soak_churn

echo "==> gray-failure smoke: slow/half-open/overload/flapping matrix"
# Four scored gray-fault episodes against a 32-node continuous
# aggregation (~1 s wall-clock per seed); failing seeds print their
# replay line. Extend with e.g. GRAY_SEEDS="3 5 8" for a deeper sweep.
GRAY_SEEDS="${GRAY_SEEDS:-2}" campaign gray_failures

echo "==> decode fuzz smoke: 50k seeded mutations per wire codec"
# Structure-aware mutation fuzz over all four decoders (chord frames,
# DAT payloads, MAAN payloads, Prometheus text); a hit prints the seed,
# iteration and hex input for offline replay. Plain `cargo test` runs
# 5k per codec; CI runs 50k. Deepen with e.g. FUZZ_ITERS=500000.
FUZZ_ITERS="${FUZZ_ITERS:-50000}" cargo test -q --test codec_fuzz -- --nocapture

echo "==> corruption soak smoke: scored byte-damage campaign, 3 seeds"
# ~3 simulated minutes of wire damage per seed (bit-flip noise floor, a
# garbage jam on the biggest subtree's uplink, a poisoning burst on a
# ring-neighbor link) against a 24-node continuous aggregation. Scored:
# zero silently-wrong reports, detection counted, completeness dips and
# heals, poisoned peer quarantined and released. Failing seeds print
# their replay line. Extend with e.g. CORRUPT_SEEDS="9 17".
campaign corruption_soak

echo "==> campaign pin: the default seeds' summary lines must hash to the pinned digest"
# Churn seeds 1-2, gray 1-2 and corruption 1-3: every Score field, every
# fleet tally, event and report counts. The plan digest token is cut
# first, so a change that re-encodes a fault plan without moving one
# scheduled event passes with this line unedited; one that moves a
# campaign byte re-pins it in the same diff. A seed override (SOAK_SEEDS,
# GRAY_SEEDS, CORRUPT_SEEDS) runs other seeds, so it skips the check.
CAMPAIGN_SCORE_DIGEST=cc8aa0cb603f0978
if [ -z "${SOAK_SEEDS:-}${GRAY_SEEDS:-}${CORRUPT_SEEDS:-}" ]; then
  campaign_digest="$(printf '%s' "$campaign_lines" | sed -E 's/digest 0x[0-9a-f]+, //' | sha256sum | cut -c1-16)"
  [ "$campaign_digest" = "$CAMPAIGN_SCORE_DIGEST" ] \
    || { echo "campaign pin: summary lines hash to $campaign_digest, not $CAMPAIGN_SCORE_DIGEST (a campaign byte moved: re-pin it here, knowingly)"; exit 1; }
else
  echo "campaign pin skipped: seed override in effect"
fi

echo "==> campaign sweep: churn and corruption campaigns over seeds 1-24, bounded wall clock"
# The smokes above run two or three seeds each; this runs every scored
# invariant of the churn and corruption campaigns on seeds 1-24 (a
# failing seed prints its replay line). The wall-clock budget (default
# 900 s, enforced by timeout(1)) bounds the step; raise
# CAMPAIGN_SWEEP_BUDGET_S on slow hardware. Gray stays at its smoke seeds:
# a gray seed can fail with no live peer suspecting the slowed parent
# (ROADMAP item 2).
sweep_seeds="$(seq -s ' ' 1 24)"
SOAK_SEEDS="$sweep_seeds" timeout "${CAMPAIGN_SWEEP_BUDGET_S:-900}" \
  cargo test -q --test soak_churn \
  || { echo "campaign sweep: a churn seed in 1-24 failed or the step exceeded its budget"; exit 1; }
CORRUPT_SEEDS="$sweep_seeds" timeout "${CAMPAIGN_SWEEP_BUDGET_S:-900}" \
  cargo test -q --test corruption_soak \
  || { echo "campaign sweep: a corruption seed in 1-24 failed or the step exceeded its budget"; exit 1; }

echo "==> WAN loss sweep: coverage and reports above n at 10 % and 20 % loss, seeds 1-24"
# The loss campaign at n = 128 over 24 seeds (~8 s in release): mean,
# lowest and highest coverage while the loss runs, and the reports above
# n summed over the seeds, one line per loss rate: the spread a
# single-seed `repro wan` row is read against. The test fails on a seed
# whose coverage passes 1.1, and when the mean coverage capped at n
# falls below 0.97 at 10 % loss or 0.80 at 20 %; the reports above n are
# printed, not gated. A change to Chord maintenance moves them.
sweep_out="$(cargo test --release -q -p dat-bench --lib -- --ignored wan_loss_sweep_over_seeds --nocapture 2>&1)" \
  || { echo "$sweep_out"; echo "WAN loss sweep failed"; exit 1; }
grep -E '^loss ' <<<"$sweep_out"

echo "==> scale smoke: 100k-node ring, 1 s virtual, bounded wall clock"
# The million-node engine's CI-sized proxy: an ignored dat-sim test
# builds a 98,304-node prestabilized ring, runs one virtual second
# through the timer wheel and fails on any clamped or dropped event. The
# wall-clock budget (default 300 s, enforced by timeout(1)) catches
# complexity regressions in the hot path: the run takes seconds, so a
# trip means something got slower in kind, not degree. Raise
# SCALE_BUDGET_S on slow hardware.
timeout "${SCALE_BUDGET_S:-300}" \
  cargo test --release -q -p dat-sim --lib -- --ignored a_100k_ring_runs_a_virtual_second_clean \
  || { echo "100k scale smoke failed or exceeded ${SCALE_BUDGET_S:-300}s budget"; exit 1; }

echo "==> cluster smoke: 64 real UDP nodes through the tokio host"
# Boots 64 real nodes (one UDP socket + three tasks each) with the
# prestabilized harness, runs 6 DAT epochs + a MAAN discovery, scrapes
# every node, and exits non-zero unless the root answer was exact
# (sum 64·63/2) and completeness held at 1.0. ~5 s wall-clock; scale
# with e.g. CLUSTER_SMOKE_NODES=256.
cargo run --release -p dat-cluster --bin clusterd -- \
  --nodes "${CLUSTER_SMOKE_NODES:-64}" --epochs 6 --epoch-ms 500 --quiet

echo "==> cluster smoke: real UDP nodes through the threads host"
# The same layers on dat_rpc::RpcCluster, one OS thread per node: the
# udp_query_threads workload at its quick size (64 nodes, closed-loop
# on-demand queries, every answer checked exact) for 2 s. Its last line
# is the run's JSON result; it must say correct with no failed query.
threads_out="$(bash benchmark/run.sh --workload udp_query_threads --quick --seed 1 --seconds 2 --trace 0)" \
  || { echo "$threads_out"; echo "threads-host smoke: the run failed"; exit 1; }
threads_last="$(tail -n 1 <<<"$threads_out")"
grep -q '"correct":true' <<<"$threads_last" && grep -Eq '"failed":0[,}]' <<<"$threads_last" \
  || { echo "$threads_out"; echo "threads-host smoke: a query failed or an answer was wrong"; exit 1; }

echo "==> benchmark build: benchmark/ compiles against the workspace, lock and spec exact"
# benchmark/ is its own workspace with a committed Cargo.lock and path
# deps on crates/*; the driver builds it --offline from a clean checkout.
# `spec` builds the package and prints BENCHMARK.json's source; a crate
# that grew a dependency or renamed something the benchmark calls fails
# the build, one that moved the lock fails the diff.
bash benchmark/run.sh spec >/dev/null
git diff --exit-code -- benchmark/Cargo.lock BENCHMARK.json \
  || { echo "building the benchmark changed its lock file or BENCHMARK.json"; exit 1; }

echo "==> maintenance smoke: a seeded sim_maint run must reproduce the pinned digest at two shard counts"
# Chord maintenance only (stabilization timers, finger fixes, the
# traffic they cause): 512 nodes, seed 1, one second, traced. On a host
# with two or more cores the traced run adds a pass at a second shard
# count; it exits non-zero if any pass clamped or dropped an event or
# the shard counts disagree on the digest.
# A change that claims "no protocol byte moved" passes with this line
# unedited; one that does move bytes (message order, timer schedule, RNG
# draws) re-pins it in the same diff.
MAINT_SMOKE_DIGEST=7bb9549b9677f226
maint_out="$(bash benchmark/run.sh --workload sim_maint --quick --seed 1 --seconds 1 --trace 1)" \
  || { echo "maintenance smoke: a gate failed (clamped/dropped event or shard-count digest divergence)"; exit 1; }
grep -qx "# digest: $MAINT_SMOKE_DIGEST" <<<"$maint_out" \
  || { echo "maintenance smoke: run digest moved off $MAINT_SMOKE_DIGEST (protocol bytes changed: re-pin it here, knowingly)"; exit 1; }
# Events per virtual second at 512 nodes: 7 periodic timers per node and
# the traffic they cause. A Chord request times out through its node's
# own timers; a timer per request coming back adds 8 events per node. A
# finger fix inside the successor's arc resolves from stabilization; a
# lookup per fix coming back adds ~4.7 events per node. A notify per
# stabilization and a ping per predecessor check coming back add 4.
MAINT_SMOKE_EVENTS=8424.3333
maint_events="$(awk '$1 == "sim.events_per_op" { print $2 }' <<<"$maint_out")"
[ -n "$maint_events" ] && awk -v e="$maint_events" -v pin="$MAINT_SMOKE_EVENTS" 'BEGIN { exit !(e == pin) }' \
  || { echo "maintenance smoke: events per op ${maint_events:-missing}, not $MAINT_SMOKE_EVENTS (per-request timers, per-fix lookups, notifies or predecessor pings back?)"; exit 1; }
# Messages per node per virtual second, exact for the seed, from the same
# run untraced: 13.4535 with a notify after every stabilization and a ping
# every predecessor check, 9.4535 with each sent only when the receiver
# lacks what it says.
MAINT_SMOKE_MSGS=9.4535
maint_msgs="$(bash benchmark/run.sh --workload sim_maint --quick --seed 1 --seconds 1 --trace 0 \
  | awk '$1 == "msgs_per_node_op" { print $2 }')"
[ "$maint_msgs" = "$MAINT_SMOKE_MSGS" ] \
  || { echo "maintenance smoke: msgs_per_node_op ${maint_msgs:-missing}, not $MAINT_SMOKE_MSGS (a notify to a successor that already names us, or a ping to a predecessor heard within check_pred_ms, is back?)"; exit 1; }

echo "==> DAT-path smoke: a seeded sim_epoch run must reproduce the pinned digest and event count"
# The maintenance smoke above pins Chord maintenance only. This is its
# twin for the aggregation path (epoch ticks, hold deadlines, parent
# decisions, Update / Prune / RootState, the failure detector's say in
# who is waited for): 1024 nodes x 4 keys, seed 1, one second, untraced.
# A change that claims "no protocol byte moved" passes with both
# constants unedited; one that does move bytes edits them in the same
# diff.
EPOCH_SMOKE_DIGEST=8e93f4d2c0de68ff
# Events per epoch at 1024 nodes: the DAT handler wakes at its earliest
# deadline (tick or hold), so a hold its children beat costs no timer; a
# timer per held key coming back adds ~1.1 events per node. The parent
# probe rides the epoch's first update: a separate parent ping adds one
# event per node. The updates an input sends to one parent share one
# frame: a frame per update adds ~1.1 events per node.
EPOCH_SMOKE_EVENTS=6906
# Frames per node per epoch, exact for the seed: four updates and a pong
# would read 5.0039; updates to one parent sharing a frame read 3.9277.
EPOCH_SMOKE_MSGS=3.9277
epoch_out="$(bash benchmark/run.sh --workload sim_epoch --quick --seed 1 --seconds 1 --trace 0)"
grep -qx "# digest: $EPOCH_SMOKE_DIGEST" <<<"$epoch_out" \
  || { echo "DAT-path smoke: run digest moved off $EPOCH_SMOKE_DIGEST (protocol bytes changed: re-pin it here, knowingly)"; exit 1; }
grep -qx "# events_per_op: $EPOCH_SMOKE_EVENTS" <<<"$epoch_out" \
  || { echo "DAT-path smoke: events per epoch moved off $EPOCH_SMOKE_EVENTS"; exit 1; }
epoch_msgs="$(awk '$1 == "msgs_per_node_op" { print $2 }' <<<"$epoch_out")"
[ "$epoch_msgs" = "$EPOCH_SMOKE_MSGS" ] \
  || { echo "DAT-path smoke: msgs_per_node_op ${epoch_msgs:-missing}, not $EPOCH_SMOKE_MSGS (updates to one parent no longer share a frame?)"; exit 1; }
# Per-node state is most of this run's resident set (DESIGN §11 "Event
# tracer"): 36.4 MiB with 256-event DAT rings and tree-map children,
# ~22.5 MiB with 40-slot finger tables, 65-bucket histograms and a
# tree-map health detector, ~16.8 MiB with 64-byte trace events and
# child tables grown by doubling, ~13.8 MiB with 120-byte scheduled
# events and per-key configuration inline, ~11.8 MiB since (the cap is
# that plus ~15 %). A change that regrows what every node keeps fails
# here.
EPOCH_SMOKE_RSS_MIB=13.5
epoch_rss="$(awk '$1 == "peak_rss_mib" { print $2 }' <<<"$epoch_out")"
[ -n "$epoch_rss" ] && awk -v r="$epoch_rss" -v cap="$EPOCH_SMOKE_RSS_MIB" 'BEGIN { exit !(r <= cap) }' \
  || { echo "DAT-path smoke: peak_rss_mib ${epoch_rss:-missing} above $EPOCH_SMOKE_RSS_MIB MiB"; exit 1; }

echo "==> examples build"
cargo build --release --examples

echo "==> examples smoke: quickstart (sim) + rpc_cluster (UDP, 8 nodes) + resource_discovery (live MAAN) + gossip_vs_dat + grid_monitor + churn_storm"
# Each example asserts its own result and exits non-zero on failure:
# every node counted, no missed match, the exact average, trace error
# under 5 %, over 90 % coverage after churn.
cargo run --release --example quickstart
cargo run --release --example rpc_cluster -- 8
cargo run --release --example resource_discovery
cargo run --release --example gossip_vs_dat
cargo run --release --example grid_monitor
cargo run --release --example churn_storm

echo "==> rustdoc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

if [ "${TSAN:-0}" = "1" ]; then
  echo "==> TSAN lane: multi-shard engine tests under ThreadSanitizer (opt-in)"
  # -Zsanitizer=thread needs nightly plus the rust-src component (std must
  # be rebuilt instrumented). The lane is opt-in (TSAN=1) and skips
  # gracefully where nightly is absent, so the default gate stays usable
  # on stable-only hosts; run it before touching the barrier protocol or
  # the cross-shard mailboxes.
  if rustup toolchain list 2>/dev/null | grep -q '^nightly' \
     && rustup component list --toolchain nightly 2>/dev/null \
        | grep -q 'rust-src (installed)'; then
    tsan_target="$(rustc -vV | sed -n 's/^host: //p')"
    RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
      cargo +nightly test -Zbuild-std --target "$tsan_target" \
      -p dat-sim --lib -- shard:: net:: shard_count_invariant \
      || { echo "TSAN lane: data race or test failure in the multi-shard engine"; exit 1; }
  else
    echo "TSAN lane: nightly toolchain with rust-src not installed; skipping"
  fi
else
  echo "==> TSAN lane skipped (opt in with TSAN=1; needs nightly + rust-src)"
fi

echo "CI green."

# Reported, not gated: the workspace line count the ROADMAP's north star
# tracks ("it should go down"). `find`, not `git ls-files`, so a checkout
# that is no git repository counts the same files; build output under any
# `target/` is skipped. `cat` first, so a file list xargs splits over
# several invocations still sums to one number.
rust_lines="$(find crates src tests examples shims benchmark/src -name '*.rs' -not -path '*/target/*' -print0 \
  | xargs -0 cat | wc -l)"
echo "==> code size: $rust_lines tracked Rust lines"
