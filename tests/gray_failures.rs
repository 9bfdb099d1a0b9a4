//! Gray-failure soak: slow parents, half-open links, overload bursts and
//! flapping peers against a continuous aggregation, checking that the
//! health plane — phi-accrual suspicion, proactive re-parenting, flap
//! quarantine, bounded inboxes — keeps reports flowing end to end (see
//! `dat_sim::campaign`). On top of what every campaign is scored on: the
//! report gap bound (epoch + 2×RTO), and the full suspicion pipeline
//! firing (suspects → proactive re-parents → quarantine → rejoin) with
//! the overload shed.
//!
//! Extra seeds via `GRAY_SEEDS=2,9,17 cargo test --test gray_failures`.

mod common;

use dat_sim::Scenario;

#[test]
fn gray_failures_degrade_but_never_stall() {
    for out in common::sweep("GRAY_SEEDS", &[1], Scenario::gray) {
        // The root never stands down here, so the dent must show in what
        // it publishes, not only as silence.
        assert!(
            out.score.min_ratio_during_faults < 1.0,
            "seed {}: the gray faults never dented completeness",
            out.scenario.seed
        );
    }
}
