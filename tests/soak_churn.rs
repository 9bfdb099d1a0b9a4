//! Churn soak: simulated hours of randomized faults against a 256-node
//! continuous aggregation, checking the self-healing invariants end to
//! end (see `dat_sim::campaign`).
//!
//! The schedule composes crash bursts, partitions, flaky links and
//! duplication bursts, plus one mid-epoch crash of the acting root to
//! exercise warm failover (a report within two epochs of the crash is one
//! of the scored invariants).
//!
//! Extra seeds can be soaked via `SOAK_SEEDS=2,9,17 cargo test --test
//! soak_churn` (the CI smoke keeps the default single-seed matrix).

mod common;

use dat_sim::{Campaign, Scenario};

#[test]
fn soak_two_hours_of_churn_self_heals() {
    let scenario = |seed| Scenario {
        nodes: 256,
        seed,
        epoch_ms: 10_000,
        warmup_ms: 120_000,
        // Two simulated hours of faults + fault-free tail.
        faults_ms: 3_600_000,
        quiesce_ms: 3_600_000,
        child_ttl_epochs: 3,
        campaign: Campaign::Churn {
            episodes: 12,
            crash_root: true,
        },
    };
    for out in common::sweep("SOAK_SEEDS", &[1], scenario) {
        let (seed, score) = (out.scenario.seed, &out.score);
        // The schedule actually degraded the aggregate — a soak that never
        // dents completeness proves nothing.
        assert!(
            score.min_ratio_during_faults < 1.0,
            "seed {seed}: churn never degraded completeness"
        );
        // Warm failover: the first report after the root's crash already
        // carried most of the grid — a replica takeover, not a cold
        // rebuild.
        let contributors = score.failover_contributors.unwrap_or(0);
        assert!(
            contributors as f64 >= 0.9 * 256.0,
            "seed {seed}: first post-crash report covered only {contributors}/256 nodes"
        );
    }
}
