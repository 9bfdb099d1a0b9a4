//! Wide-area robustness — the paper's "continuing efforts" experiment.
//!
//! §7 suggests testing the DAT prototype "in a wide-area environment such
//! as the PlanetLab or the DETER testbed". The loss campaign
//! (`dat_sim::Campaign::Loss`) simulates that environment: log-normal WAN
//! latency for the whole run and i.i.d. packet loss over its fault window.
//! This sweep runs it at five loss rates and tabulates how the continuous
//! balanced-DAT aggregation degrades — coverage (fraction of nodes
//! reflected in a root report) and report availability while the loss
//! lasts — next to the campaign's own score. The qualitative expectation:
//! graceful degradation (soft-state children expire and re-appear; no
//! structural repair is ever needed).

use dat_sim::{Campaign, Outcome, Report, Scenario};

use crate::table::Table;

/// The swept loss rates, lossless first.
const RATES: [f64; 5] = [0.0, 0.01, 0.05, 0.10, 0.20];

/// Experiment output.
pub struct Wan {
    /// Network size.
    pub n: usize,
    /// One scored loss campaign per swept rate, lossless first.
    pub rows: Vec<Outcome>,
}

/// Sweep packet loss at PlanetLab-like latencies.
pub fn run(n: usize, seed: u64) -> Wan {
    let rows = RATES
        .iter()
        .map(|&rate| Scenario::loss(n, seed, rate).run())
        .collect();
    Wan { n, rows }
}

/// The loss rate `o` ran at.
fn rate(o: &Outcome) -> f64 {
    match o.scenario.campaign {
        Campaign::Loss { rate } => rate,
        _ => 0.0,
    }
}

/// The reports published while the loss ran.
fn during_loss(o: &Outcome) -> impl Iterator<Item = &Report> {
    let (from, to) = (o.scenario.warmup_ms, o.scenario.faults_end_ms());
    o.log.iter().filter(move |r| from <= r.t_ms && r.t_ms < to)
}

/// Mean coverage (contributors / n) of the reports published while the
/// loss ran; 0 if there was none. A report above n reads more than full
/// coverage here; [`capped_coverage`] counts it as full.
fn coverage(o: &Outcome) -> f64 {
    mean_coverage(o, u64::MAX)
}

/// [`coverage`] with each report counted at most n, so a double count
/// cannot make up for a node missing from another report.
fn capped_coverage(o: &Outcome) -> f64 {
    mean_coverage(o, o.scenario.population() as u64)
}

fn mean_coverage(o: &Outcome, cap: u64) -> f64 {
    let count = |(sum, k), r: &Report| (sum + r.completeness.contributors.min(cap), k + 1);
    let (sum, reports) = during_loss(o).fold((0, 0), count);
    sum as f64 / (reports * o.scenario.population()).max(1) as f64
}

/// Fraction of the epochs the loss ran in that saw a published report.
fn report_rate(o: &Outcome) -> f64 {
    let sc = &o.scenario;
    let slots = sc.faults_end_ms() / sc.epoch_ms - sc.warmup_ms / sc.epoch_ms;
    1.0 - o.score.silent_slots_during_faults as f64 / slots.max(1) as f64
}

/// A fleet-wide tally of `o`.
fn tally(o: &Outcome, name: &str) -> u64 {
    o.fleet.get(name).copied().unwrap_or(0)
}

impl Wan {
    /// Degradation table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            &format!(
                "WAN robustness — log-normal latency (median 80 ms, σ 0.6), loss sweep (n = {})",
                self.n
            ),
            &[
                "loss",
                "coverage",
                "capped at n",
                "report rate",
                "reports above n",
                "max ratio",
                "timeouts",
                "retransmits",
                "dropped",
                "suspects",
                "shed",
                "violations",
            ],
        );
        for o in &self.rows {
            t.row(vec![
                format!("{:.0}%", rate(o) * 100.0),
                format!("{:.3}", coverage(o)),
                format!("{:.3}", capped_coverage(o)),
                format!("{:.2}", report_rate(o)),
                o.score.over_n_during_faults.to_string(),
                format!("{:.3}", o.score.max_over_n_ratio),
                tally(o, "timeouts_total").to_string(),
                tally(o, "retransmits_total").to_string(),
                tally(o, "dropped_total").to_string(),
                tally(o, "suspects_total").to_string(),
                tally(o, "engine_shed_total").to_string(),
                o.violations.len().to_string(),
            ]);
        }
        t
    }

    /// Qualitative checks: lossless WAN ≈ full coverage; graceful (not
    /// cliff-edge) degradation under loss.
    pub fn check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let lossless = coverage(&self.rows[0]);
        if lossless < 0.99 {
            bad.push(format!("lossless WAN coverage {lossless:.3} < 0.99"));
        }
        for o in &self.rows {
            let (cov, loss) = (coverage(o), rate(o) * 100.0);
            if cov > 1.1 {
                bad.push(format!(
                    "coverage {cov:.3} at {loss:.0}% loss — duplicate counting"
                ));
            }
            if loss <= 5.0 && cov < 0.85 {
                bad.push(format!(
                    "coverage {cov:.3} at {loss:.0}% loss — not graceful"
                ));
            }
            let reported = report_rate(o);
            if reported < 0.8 {
                bad.push(format!("report rate {reported:.2} at {loss:.0}% loss"));
            }
        }
        // Updates carry no acks/retransmissions (like the paper's UDP
        // prototype). Soft-state TTLs bridge isolated losses, so coverage
        // stays near 1 through ~10% loss; at 20% i.i.d. loss the failure
        // detector itself starts flapping (two consecutive lost probes) and
        // the tree thrashes — an unacked protocol needs retransmissions at
        // that point, which is beyond the paper's design. We only require
        // the system to keep producing partial reports rather than halting.
        if let Some(last) = self.rows.last() {
            let (cov, loss) = (coverage(last), rate(last) * 100.0);
            if cov < 0.08 {
                bad.push(format!("coverage collapsed to {cov:.3} at {loss:.0}% loss"));
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wan_degrades_gracefully() {
        let w = run(48, 11);
        let bad = w.check();
        assert!(bad.is_empty(), "{bad:?}");
        assert!(w.table().to_markdown().contains("retransmits"));
        // Retry pressure grows with loss. (Even the lossless run
        // retransmits a little: log-normal latency tails overshoot the
        // adaptive RTO — so compare, don't expect zero.)
        let retransmits = |o| tally(o, "retransmits_total");
        assert!(
            retransmits(w.rows.last().unwrap()) > retransmits(&w.rows[0]),
            "20% loss did not raise retransmissions over lossless"
        );
        // Lossless coverage is essentially exact; lossy runs may wobble a
        // few percent either way (transient double counting while subtrees
        // re-parent), so compare with tolerance.
        assert!(coverage(&w.rows[0]) + 0.05 >= coverage(w.rows.last().unwrap()));
    }

    /// Coverage (raw and capped at n), and the reports above n, at 10 % and
    /// 20 % loss over seeds 1–24 (n = 128, the recorded run's size): the
    /// spread the single-seed rows of `repro wan` are read against. Prints
    /// one line per loss rate and fails when the capped mean falls below
    /// its floor; ~10 s in release:
    /// `cargo test --release -p dat-bench --lib -- --ignored wan_loss_sweep --nocapture`
    #[test]
    #[ignore]
    fn wan_loss_sweep_over_seeds() {
        // Capped mean coverage floors. Both means are deterministic for the
        // code: 0.979 and 0.803 with maintenance that sends only news,
        // 0.973 and 0.809 before it.
        for (rate, floor) in [(0.10, 0.97), (0.20, 0.80)] {
            let runs: Vec<Outcome> = (1..=24u64)
                .map(|seed| Scenario::loss(128, seed, rate).run())
                .collect();
            let cov: Vec<(u64, f64)> = runs
                .iter()
                .map(|o| (o.scenario.seed, coverage(o)))
                .collect();
            let over_n: u64 = runs.iter().map(|o| o.score.over_n_during_faults).sum();
            let reports: usize = runs.iter().map(|o| during_loss(o).count()).sum();
            let ratio = runs
                .iter()
                .map(|o| o.score.max_over_n_ratio)
                .fold(0.0, f64::max);
            let mean = cov.iter().map(|c| c.1).sum::<f64>() / cov.len() as f64;
            let capped = runs.iter().map(capped_coverage).sum::<f64>() / runs.len() as f64;
            let by_cov = |a: &&(u64, f64), b: &&(u64, f64)| a.1.total_cmp(&b.1);
            let (lo, hi) = (
                cov.iter().min_by(by_cov).unwrap(),
                cov.iter().max_by(by_cov).unwrap(),
            );
            println!(
                "loss {:.0}%: mean coverage {mean:.3} (capped at n {capped:.3}), min {:.3} (seed {}), \
                 max {:.3} (seed {}); \
                 over_n_during_faults {over_n} of {reports} reports summed over seeds, \
                 largest max_over_n_ratio {ratio:.3}",
                rate * 100.0,
                lo.1,
                lo.0,
                hi.1,
                hi.0,
            );
            assert!(
                hi.1 <= 1.1,
                "duplicate counting at seed {}: {:.3}",
                hi.0,
                hi.1
            );
            assert!(
                capped >= floor,
                "capped coverage {capped:.3} at {:.0}% loss, floor {floor}",
                rate * 100.0
            );
        }
    }
}
