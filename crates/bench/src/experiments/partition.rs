//! Network partition and heal — the fault-injection robustness experiment.
//!
//! The paper's prototype was only ever exercised on a healthy cluster; §7
//! leaves wide-area failure modes to future work, and §2.3 claims the
//! implicit DAT adapts to failures with no repair protocol. This
//! experiment runs the partition campaign (`dat_sim::Campaign::Partition`):
//! every 4th ring position is cut off at 20 s, the split holds for 60
//! virtual seconds — long enough for every cross-side child to expire from
//! the soft state — and heals at 80 s, followed by 150 s of recovery. The
//! run is judged by the campaign's one scorer and printed as the same
//! completeness-over-time table `repro degradation` uses, plus when the
//! successor ring re-knit.
//!
//! Expectation: completeness dips while the split lasts and the report
//! *says so*, then the ring re-unifies through fallen-peer probes and
//! stabilize rectification, and the tree re-forms by re-parenting, with no
//! operator action and no silently wrong value anywhere.
#![deny(clippy::unwrap_used)]

use dat_sim::{Outcome, Scenario};

use crate::experiments::degradation::{completeness_rows, completeness_table, CompletenessRow};
use crate::table::Table;

/// Experiment output: the scored campaign plus the bucketed series.
pub struct Partition {
    /// The scored partition campaign.
    pub outcome: Outcome,
    /// Ten-second buckets across warmup → split → quiesce.
    pub rows: Vec<CompletenessRow>,
}

/// Run the partition/heal campaign on an `n`-node ring.
pub fn run(n: usize, seed: u64) -> Partition {
    let outcome = Scenario::partition(n, seed).run();
    let rows = completeness_rows(&outcome, 10_000, "split");
    Partition { outcome, rows }
}

impl Partition {
    /// Completeness time series across the split and the heal.
    pub fn table(&self) -> Table {
        completeness_table("partition/heal, 3:1 split", &self.outcome, &self.rows)
    }

    /// Qualitative checks: the campaign's invariant scoring (no wrong
    /// value, bounded recovery, one settled reporter, strict fence), plus a
    /// re-knit ring and a dip the accounting actually published.
    pub fn check(&self) -> Vec<String> {
        let mut bad = self.outcome.violations.clone();
        if self.outcome.ring_reunified_ms.is_none() {
            bad.push("the successor ring never re-unified after the heal".into());
        }
        if self.outcome.score.min_ratio_during_faults >= 1.0 {
            bad.push("the split never degraded completeness — nothing was measured".into());
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_and_aggregate_recover_after_heal() {
        let p = run(64, 7);
        let bad = p.check();
        assert!(bad.is_empty(), "{bad:?}");
        assert!(p.table().to_markdown().contains("min completeness"));
        for phase in ["warmup", "split", "quiesce"] {
            let seen = p.rows.iter().any(|r| r.phase == phase);
            assert!(seen, "missing phase {phase}");
        }
        // The schedule itself is deterministic input, not simulation output.
        assert_eq!(p.outcome.digest, run(64, 8).outcome.digest);
    }
}
