//! Ablations over the design choices DESIGN.md calls out.
//!
//! * **hold_ms** — the convergecast-within-a-slot synchronization (§4
//!   "aggregation synchronization"): with `hold = 0` updates do not cascade
//!   and the root's view lags by `height × epoch` (pure pipelining); with a
//!   hold window the report reflects the current epoch. Measured as Fig. 9
//!   accuracy (MAPE) on the same trace.
//! * **child_ttl_epochs** — soft-state expiry, run as the departure-burst
//!   campaign (`dat_sim::Campaign::Departures`): a fifth of the ring
//!   crashes for good, and the departed partials stay counted until the
//!   TTL expires them (over-coverage); a short TTL drops slow children
//!   instead (under-coverage).

use dat_monitor::{CpuTrace, GridMonitorSim, MonitorConfig, TraceSensor};
use dat_sim::{LatencyModel, Outcome, Scenario};

use crate::table::Table;

/// Accuracy vs hold window.
#[derive(Clone, Copy, Debug)]
pub struct HoldRow {
    /// Hold window, ms.
    pub hold_ms: u64,
    /// Mean absolute percentage error of the aggregated totals.
    pub mape: f64,
    /// Mean coverage.
    pub coverage: f64,
}

/// Ablation output.
pub struct Ablation {
    /// hold_ms sweep.
    pub hold: Vec<HoldRow>,
    /// TTL sweep: one scored departure burst per TTL.
    pub ttl: Vec<Outcome>,
}

/// The most contributors a report counted after the burst (departed
/// partials still counted — ideal is the live-node count).
fn max_after_burst(o: &Outcome) -> u64 {
    let after = o.log.iter().filter(|r| r.t_ms >= o.scenario.warmup_ms);
    after
        .map(|r| r.completeness.contributors)
        .max()
        .unwrap_or(0)
}

/// Epochs from the burst until a report first matches the live count.
fn epochs_to_recover(o: &Outcome) -> Option<u64> {
    let (sc, live) = (&o.scenario, o.scenario.population() as u64);
    let mut after = o.log.iter().filter(|r| r.t_ms >= sc.warmup_ms);
    let back = after.find(|r| r.completeness.contributors == live)?;
    Some((back.t_ms - sc.warmup_ms).div_ceil(sc.epoch_ms))
}

/// Run both ablations (sizes kept moderate; the effects are not
/// size-sensitive).
pub fn run(n: usize, seed: u64) -> Ablation {
    let hold = [0u64, 50, 250, 500]
        .iter()
        .map(|&h| hold_accuracy(n, h, seed))
        .collect();
    let ttl = [1u64, 3, 8]
        .iter()
        .map(|&t| Scenario::departures(n, seed, t).run())
        .collect();
    Ablation { hold, ttl }
}

fn hold_accuracy(n: usize, hold_ms: u64, seed: u64) -> HoldRow {
    let trace = CpuTrace::generate(1200, seed);
    let cfg = MonitorConfig {
        nodes: n,
        epoch_ms: 10_000,
        seed,
        hold_ms: Some(hold_ms),
        latency: LatencyModel::Constant(2),
    };
    let mut sim = GridMonitorSim::new(cfg, "cpu-usage", |_| {
        Box::new(TraceSensor::new("cpu-usage", trace.clone(), 0, 1.0))
    });
    sim.run_epochs(120);
    let acc = sim.accuracy();
    HoldRow {
        hold_ms,
        mape: acc.mape,
        coverage: acc.coverage,
    }
}

impl Ablation {
    /// Render both sweeps.
    pub fn tables(&self) -> (Table, Table) {
        let mut th = Table::new(
            "Ablation — hold window vs aggregation accuracy (convergecast sync)",
            &["hold_ms", "MAPE %", "coverage"],
        );
        for r in &self.hold {
            th.row(vec![
                r.hold_ms.to_string(),
                format!("{:.3}", r.mape),
                format!("{:.3}", r.coverage),
            ]);
        }
        let mut tt = Table::new(
            "Ablation — child TTL vs coverage after a 20% departure burst",
            &[
                "ttl (epochs)",
                "live nodes",
                "max reported after",
                "epochs to re-cover",
                "reports above live",
                "violations",
            ],
        );
        for o in &self.ttl {
            tt.row(vec![
                o.scenario.child_ttl_epochs.to_string(),
                o.scenario.population().to_string(),
                max_after_burst(o).to_string(),
                epochs_to_recover(o).map_or_else(|| "-".into(), |e| e.to_string()),
                o.score.over_n_during_faults.to_string(),
                o.violations.len().to_string(),
            ]);
        }
        (th, tt)
    }

    /// Qualitative checks: the hold window must improve accuracy; no TTL
    /// may let the report match the live count before ghosts can expire,
    /// and every TTL must settle on it.
    pub fn check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let no_hold = self.hold.iter().find(|r| r.hold_ms == 0);
        let with_hold = self.hold.iter().find(|r| r.hold_ms == 250);
        match (no_hold, with_hold) {
            (Some(a), Some(b)) => {
                if b.mape >= a.mape {
                    bad.push(format!(
                        "hold window does not improve accuracy ({:.3}% vs {:.3}%)",
                        b.mape, a.mape
                    ));
                }
                if b.mape > 1.0 {
                    bad.push(format!("hold=250ms MAPE {:.3}% > 1%", b.mape));
                }
            }
            _ => bad.push("hold sweep incomplete".into()),
        }
        // Ghost contributions from *departed* nodes cannot be pruned (the
        // departed never re-parent), so the report can only settle to the
        // live count after the soft-state TTL expires: recovery time is
        // bounded below by the TTL, and every TTL must eventually recover.
        for o in &self.ttl {
            let (ttl, live) = (o.scenario.child_ttl_epochs, o.scenario.population() as u64);
            match epochs_to_recover(o) {
                None => bad.push(format!("ttl={ttl} never re-covered")),
                Some(e) if e + 1 < ttl => bad.push(format!(
                    "ttl={ttl} recovered after {e} epochs — before ghosts can expire?!"
                )),
                Some(_) => {}
            }
            let max = max_after_burst(o);
            if max < live {
                bad.push(format!(
                    "ttl={ttl}: report never reached the live count {live} (max {max})"
                ));
            }
            // Once the TTL has passed, every report counts exactly the live
            // nodes, from one reporter: the campaign's settled invariants.
            bad.extend(o.violations.iter().map(|v| format!("ttl={ttl}: {v}")));
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_shapes_hold() {
        let a = run(48, 3);
        let bad = a.check();
        assert!(bad.is_empty(), "{bad:?}");
        let (th, tt) = a.tables();
        assert!(th.to_markdown().contains("hold_ms"));
        assert!(tt.to_markdown().contains("ttl"));
    }
}
