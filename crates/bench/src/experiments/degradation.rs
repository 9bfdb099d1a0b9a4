//! Degradation under churn — completeness accounting as an experiment.
//!
//! PR 3's failure-semantics layer claims a degraded report *says so*: the
//! root's completeness ratio drops while faults are active and returns to
//! 1.0 within a bounded number of epochs after they stop. This experiment
//! runs the seeded churn campaign (`dat_sim::campaign`) at bench scale and folds
//! the report stream into a time series — minimum and mean completeness
//! per bucket, plus the warm-failover and recovery numbers the soak
//! scores — so the self-healing story shows up as a table, not just a
//! passing test. The fold and the table are shared with `repro
//! partition` ([`completeness_rows`], [`completeness_table`]).
#![deny(clippy::unwrap_used)]

use dat_sim::{Campaign, Outcome, Scenario};

use crate::table::Table;

/// One time bucket of a campaign's report stream.
#[derive(Clone, Copy, Debug)]
pub struct CompletenessRow {
    /// Bucket start, virtual seconds.
    pub t_s: u64,
    /// "warmup", the campaign's fault phase, or "quiesce".
    pub phase: &'static str,
    /// Reports observed in the bucket.
    pub reports: usize,
    /// Minimum completeness ratio in the bucket (1.0 when empty).
    pub min_ratio: f64,
    /// Mean completeness ratio in the bucket.
    pub mean_ratio: f64,
    /// Worst staleness bound (ms) in the bucket.
    pub max_staleness_ms: u64,
}

/// Fold a campaign's report stream into `bucket_ms` time buckets, each
/// labelled "warmup" (wholly before the faults), `fault_phase` (overlapping
/// the fault window) or "quiesce".
pub fn completeness_rows(
    outcome: &Outcome,
    bucket_ms: u64,
    fault_phase: &'static str,
) -> Vec<CompletenessRow> {
    let sc = &outcome.scenario;
    let buckets = sc.total_ms().div_ceil(bucket_ms);
    let row = |b: u64| {
        let (lo, hi) = (b * bucket_ms, (b + 1) * bucket_ms);
        let in_bucket: Vec<_> = (outcome.log.iter())
            .filter(|r| r.t_ms >= lo && r.t_ms < hi)
            .collect();
        let reports = in_bucket.len();
        let ratios = || in_bucket.iter().map(|r| r.completeness.ratio);
        let min_ratio = ratios().fold(f64::INFINITY, f64::min);
        let sum: f64 = ratios().sum();
        CompletenessRow {
            t_s: lo / 1_000,
            phase: if hi <= sc.warmup_ms {
                "warmup"
            } else if lo < sc.faults_end_ms() {
                fault_phase
            } else {
                "quiesce"
            },
            reports,
            min_ratio: if reports == 0 { 1.0 } else { min_ratio },
            mean_ratio: if reports == 0 {
                1.0
            } else {
                sum / reports as f64
            },
            max_staleness_ms: (in_bucket.iter())
                .map(|r| r.completeness.staleness_ms)
                .max()
                .unwrap_or(0),
        }
    };
    (0..buckets).map(row).collect()
}

/// The completeness-over-time table of `rows`, folded from `outcome`,
/// titled by `what` ran.
pub fn completeness_table(what: &str, outcome: &Outcome, rows: &[CompletenessRow]) -> Table {
    let sc = &outcome.scenario;
    let mut t = Table::new(
        &format!(
            "{what} — completeness over time (n = {}, seed {}, plan digest {:#018x})",
            sc.nodes, sc.seed, outcome.digest
        ),
        &[
            "t (s)",
            "phase",
            "reports",
            "min completeness",
            "mean completeness",
            "max staleness (ms)",
        ],
    );
    for r in rows {
        t.row(vec![
            r.t_s.to_string(),
            r.phase.to_string(),
            r.reports.to_string(),
            format!("{:.3}", r.min_ratio),
            format!("{:.3}", r.mean_ratio),
            r.max_staleness_ms.to_string(),
        ]);
    }
    t
}

/// Experiment output: the scored soak plus the bucketed series.
pub struct Degradation {
    /// Network size.
    pub n: usize,
    /// The scored soak run.
    pub outcome: Outcome,
    /// Minute buckets across warmup → churn → quiesce.
    pub rows: Vec<CompletenessRow>,
}

/// Run the bench-scale soak: `n` nodes, ~8 virtual minutes of randomized
/// faults (crash bursts, partitions, flaky links, duplication, one root
/// crash), then a fault-free tail.
pub fn run(n: usize, seed: u64) -> Degradation {
    let cfg = Scenario {
        nodes: n,
        seed,
        epoch_ms: 5_000,
        warmup_ms: 60_000,
        faults_ms: 480_000,
        quiesce_ms: 240_000,
        campaign: Campaign::Churn {
            episodes: 8,
            crash_root: true,
        },
    };
    let outcome = cfg.run();
    let rows = completeness_rows(&outcome, 60_000, "churn");
    Degradation { n, outcome, rows }
}

impl Degradation {
    /// Completeness time series across the fault schedule.
    pub fn table(&self) -> Table {
        completeness_table("degradation under churn", &self.outcome, &self.rows)
    }

    /// Fleet-wide transport-health tallies for the run — the timeout /
    /// retransmission / drop counters every node keeps but (before the
    /// observability registry) nothing ever reported.
    pub fn health_table(&self) -> Table {
        let mut t = Table::new(
            &format!("transport health over the soak (n = {})", self.n),
            &["metric", "fleet total"],
        );
        for (metric, counter) in [
            ("request timeouts", "timeouts_total"),
            ("datagram retransmits", "retransmits_total"),
            ("undecodable payloads dropped", "dropped_total"),
            ("peers suspected (phi-accrual)", "suspects_total"),
            ("peers quarantined (flap damping)", "quarantines_total"),
            ("payloads shed (inbox backpressure)", "engine_shed_total"),
        ] {
            let total = self.outcome.fleet[counter];
            t.row(vec![metric.into(), total.to_string()]);
        }
        t
    }

    /// Qualitative checks: the campaign's own invariant scoring (exact
    /// values, bounded recovery, warm failover within an epoch, double
    /// counting, split-brain reporters, fence monotonicity) feeds in
    /// directly; on top, the dent must show in a *published* report.
    pub fn check(&self) -> Vec<String> {
        let mut bad = self.outcome.violations.clone();
        if self.outcome.score.min_ratio_during_faults >= 1.0 {
            bad.push("churn never degraded completeness — nothing was measured".into());
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_recovers_and_tables_render() {
        let d = run(48, 5);
        let bad = d.check();
        assert!(bad.is_empty(), "{bad:?}");
        let md = d.table().to_markdown();
        assert!(md.contains("min completeness"));
        let health = d.health_table().to_markdown();
        assert!(health.contains("request timeouts"));
        // A churn soak crashes nodes mid-request: the fleet must have
        // observed at least one timeout for the counters to be live.
        let timeouts = d.outcome.fleet["timeouts_total"];
        assert!(timeouts > 0, "no timeouts ever counted");
        // The series spans all three phases.
        for phase in ["warmup", "churn", "quiesce"] {
            assert!(
                d.rows.iter().any(|r| r.phase == phase),
                "missing phase {phase}"
            );
        }
    }
}
