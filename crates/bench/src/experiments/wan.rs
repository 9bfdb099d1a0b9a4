//! Wide-area robustness — the paper's "continuing efforts" experiment.
//!
//! §7 suggests testing the DAT prototype "in a wide-area environment such
//! as the PlanetLab or the DETER testbed". We simulate that environment:
//! log-normal WAN latencies and i.i.d. packet loss, then measure how the
//! continuous balanced-DAT aggregation degrades — coverage (fraction of
//! nodes reflected in the root's report) and report availability as loss
//! climbs. The qualitative expectation: graceful degradation (soft-state
//! children expire and re-appear; no structural repair is ever needed).

use dat_chord::{ChordConfig, IdPolicy, IdSpace, RoutingScheme, StaticRing};
use dat_core::{AggregationMode, DatConfig, DatEvent, StackNode};
use dat_sim::harness::{addr_book, prestabilized_dat};
use dat_sim::{LatencyModel, LossModel, SimNet};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::table::{f, Table};

/// One measured condition.
#[derive(Clone, Copy, Debug)]
pub struct WanRow {
    /// Packet-loss probability.
    pub loss: f64,
    /// Median one-way latency (ms).
    pub median_latency_ms: f64,
    /// Mean coverage of root reports (contributing nodes / n), steady state.
    pub coverage: f64,
    /// Fraction of epochs that produced a root report at all.
    pub report_rate: f64,
    /// Observed reports covering more than `n` nodes: a subtree counted
    /// along two paths at once.
    pub over_n: u64,
    /// Observed reports (one per reported epoch).
    pub reports: u64,
    /// Fleet-wide request timeouts over the whole run (Chord maintenance
    /// and lookups — DAT updates are unacked by design).
    pub timeouts: u64,
    /// Fleet-wide datagram retransmissions over the whole run.
    pub retransmits: u64,
    /// Fleet-wide undecodable payloads dropped over the whole run.
    pub dropped: u64,
    /// Fleet-wide phi-accrual suspicion transitions (Healthy → Suspect) —
    /// loss-proportional on a WAN, since every lost probe stretches an
    /// inter-arrival the detector has learned to expect shorter.
    pub suspects: u64,
    /// Fleet-wide payloads shed by the bounded engine inboxes. Zero here
    /// (the WAN sweep runs without an inbox policy); the column keeps the
    /// table aligned with the soak's transport-health reporting.
    pub shed: u64,
}

/// Experiment output.
pub struct Wan {
    /// Network size.
    pub n: usize,
    /// Rows across loss rates.
    pub rows: Vec<WanRow>,
}

/// Sweep packet loss at PlanetLab-like latencies.
pub fn run(n: usize, seed: u64) -> Wan {
    let rows = [0.0, 0.01, 0.05, 0.10, 0.20]
        .iter()
        .map(|&loss| run_one(n, loss, seed))
        .collect();
    Wan { n, rows }
}

fn run_one(n: usize, loss: f64, seed: u64) -> WanRow {
    let space = IdSpace::new(32);
    let mut rng = SmallRng::seed_from_u64(seed);
    let ring = StaticRing::build(space, n, IdPolicy::Probed, &mut rng);
    let ccfg = ChordConfig {
        space,
        stabilize_ms: 5_000,
        fix_fingers_ms: 2_500,
        check_pred_ms: 5_000,
        req_timeout_ms: 4_000,
        ..ChordConfig::default()
    };
    let median = 80.0;
    let dcfg = DatConfig {
        scheme: RoutingScheme::Balanced,
        epoch_ms: 10_000,
        // WAN tails: give the cascade a window an order of magnitude above
        // the median one-way latency.
        hold_ms: 2_000,
        // Bridge up to two consecutive lost updates per child; re-parent
        // duplicates are bounded by the repeated prune notices instead.
        child_ttl_epochs: 3,
        d0_hint: Some(ring.d0()),
        ..DatConfig::default()
    };
    let mut net: SimNet<StackNode> = prestabilized_dat(&ring, ccfg, dcfg, seed);
    net.set_latency(LatencyModel::LogNormal {
        median_ms: median,
        sigma: 0.6,
    });
    net.set_loss(LossModel::new(loss));
    let book = addr_book(&ring);
    let key = dat_chord::hash_to_id(space, b"cpu-usage");
    for &id in ring.ids() {
        let node = net.node_mut(book[&id]).unwrap();
        let k = node.register("cpu-usage", AggregationMode::Continuous);
        node.set_local(k, 33.0);
    }
    let root = book[&ring.successor(key)];
    // Warm-up, then observe 20 epochs and drain the root's reports once
    // (each report carries its epoch index, so the rate is the number of
    // distinct reported epochs over the observation span).
    net.run_for(30_000);
    let first_epoch = net
        .node_mut(root)
        .map(|r| {
            let _ = r.take_events();
            r.epoch()
        })
        .unwrap_or(0);
    let epochs = 20u64;
    net.run_for(epochs * 10_000 + 5_000);
    let mut seen = std::collections::BTreeMap::new();
    if let Some(r) = net.node_mut(root) {
        for e in r.take_events() {
            if let DatEvent::Report {
                key: k,
                epoch,
                partial,
                ..
            } = e
            {
                if k == key && epoch > first_epoch {
                    seen.insert(epoch, partial.count);
                }
            }
        }
    }
    let reports = seen.len() as u64;
    let covered: f64 = seen.values().map(|&c| c as f64 / n as f64).sum();
    // Loss-proportional retry pressure, read off the merged registry (the
    // counters were always kept per node; now they get reported).
    let fleet = dat_sim::fleet_registry(&net);
    WanRow {
        loss,
        median_latency_ms: median,
        timeouts: fleet.counter_sum("timeouts_total"),
        retransmits: fleet.counter_sum("retransmits_total"),
        dropped: fleet.counter_sum("dropped_total"),
        suspects: fleet.counter_sum("suspects_total"),
        shed: fleet.counter_sum("engine_shed_total"),
        coverage: if reports == 0 {
            0.0
        } else {
            covered / reports as f64
        },
        report_rate: (reports as f64 / epochs as f64).min(1.0),
        over_n: seen.values().filter(|&&c| c > n as u64).count() as u64,
        reports,
    }
}

impl Wan {
    /// Degradation table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            &format!(
                "WAN robustness — log-normal latency, loss sweep (n = {})",
                self.n
            ),
            &[
                "loss",
                "median RTT/2 (ms)",
                "coverage",
                "report rate",
                "timeouts",
                "retransmits",
                "dropped",
                "suspects",
                "shed",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                format!("{:.0}%", r.loss * 100.0),
                f(r.median_latency_ms),
                format!("{:.3}", r.coverage),
                format!("{:.2}", r.report_rate),
                r.timeouts.to_string(),
                r.retransmits.to_string(),
                r.dropped.to_string(),
                r.suspects.to_string(),
                r.shed.to_string(),
            ]);
        }
        t
    }

    /// Qualitative checks: lossless WAN ≈ full coverage; graceful (not
    /// cliff-edge) degradation under loss.
    pub fn check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let lossless = &self.rows[0];
        if lossless.coverage < 0.99 {
            bad.push(format!(
                "lossless WAN coverage {:.3} < 0.99",
                lossless.coverage
            ));
        }
        for r in &self.rows {
            if r.coverage > 1.1 {
                bad.push(format!(
                    "coverage {:.3} at {:.0}% loss — duplicate counting",
                    r.coverage,
                    r.loss * 100.0
                ));
            }
            if r.loss <= 0.05 && r.coverage < 0.85 {
                bad.push(format!(
                    "coverage {:.3} at {:.0}% loss — not graceful",
                    r.coverage,
                    r.loss * 100.0
                ));
            }
            if r.report_rate < 0.8 {
                bad.push(format!(
                    "report rate {:.2} at {:.0}% loss",
                    r.report_rate,
                    r.loss * 100.0
                ));
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
            if last.coverage < 0.08 {
                bad.push(format!(
                    "coverage collapsed to {:.3} at {:.0}% loss",
                    last.coverage,
                    last.loss * 100.0
                ));
            }
            if last.coverage > 1.1 {
                bad.push(format!(
                    "coverage {:.3} > 1 at {:.0}% loss — duplicate counting",
                    last.coverage,
                    last.loss * 100.0
                ));
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
        assert!(
            w.rows.last().unwrap().retransmits > w.rows[0].retransmits,
            "20% loss did not raise retransmissions over lossless"
        );
        // Lossless coverage is essentially exact; lossy runs may wobble a
        // few percent either way (transient double counting while subtrees
        // re-parent), so compare with tolerance.
        assert!(w.rows[0].coverage + 0.05 >= w.rows.last().unwrap().coverage);
    }

    /// Coverage, and the reports above n, at 10 % and 20 % loss over seeds
    /// 1–24 (n = 128, the recorded run's size): the spread the single-seed
    /// rows of `repro wan` are read against. Prints one line per loss
    /// rate; ~10 s in release:
    /// `cargo test --release -p dat-bench --lib -- --ignored wan_loss_sweep --nocapture`
    #[test]
    #[ignore]
    fn wan_loss_sweep_over_seeds() {
        for loss in [0.10, 0.20] {
            let rows: Vec<(u64, WanRow)> = (1..=24u64)
                .map(|seed| (seed, run_one(128, loss, seed)))
                .collect();
            let cov: Vec<(u64, f64)> = rows.iter().map(|(s, r)| (*s, r.coverage)).collect();
            let over_n: u64 = rows.iter().map(|(_, r)| r.over_n).sum();
            let reports: u64 = rows.iter().map(|(_, r)| r.reports).sum();
            let mean = cov.iter().map(|c| c.1).sum::<f64>() / cov.len() as f64;
            let by_cov = |a: &&(u64, f64), b: &&(u64, f64)| a.1.total_cmp(&b.1);
            let (lo, hi) = (
                cov.iter().min_by(by_cov).unwrap(),
                cov.iter().max_by(by_cov).unwrap(),
            );
            println!(
                "loss {:.0}%: mean {mean:.3}, reports above n {over_n} of {reports}, \
                 min {:.3} (seed {}), max {:.3} (seed {}), above 1.05: {}",
                loss * 100.0,
                lo.1,
                lo.0,
                hi.1,
                hi.0,
                cov.iter().filter(|c| c.1 > 1.05).count()
            );
            assert!(
                hi.1 <= 1.1,
                "duplicate counting at seed {}: {:.3}",
                hi.0,
                hi.1
            );
        }
    }
}
