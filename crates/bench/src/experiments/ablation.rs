//! Ablations over the design choices DESIGN.md calls out.
//!
//! * **hold_ms** — the convergecast-within-a-slot synchronization (§4
//!   "aggregation synchronization"): with `hold = 0` updates do not cascade
//!   and the root's view lags by `height × epoch` (pure pipelining); with a
//!   hold window the report reflects the current epoch. Measured as Fig. 9
//!   accuracy (MAPE) on the same trace.
//! * **child_ttl_epochs** — soft-state expiry: a short TTL drops slow
//!   children (under-coverage); a long TTL keeps ghost contributions after
//!   departures (over-coverage under churn).

use dat_monitor::{CpuTrace, GridMonitorSim, MonitorConfig, TraceSensor};
use dat_sim::LatencyModel;

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
    /// ttl sweep: (ttl, ghost overshoot after leaves, epochs to re-cover).
    pub ttl: Vec<TtlRow>,
}

/// Coverage behaviour vs child TTL under departures.
#[derive(Clone, Copy, Debug)]
pub struct TtlRow {
    /// TTL in epochs.
    pub ttl: u64,
    /// Max reported count *after* the departures (ghost contributions —
    /// ideal is the live-node count).
    pub max_after_leave: u64,
    /// Live nodes after the departures.
    pub live: u64,
    /// Epochs until the report first matches the live count.
    pub epochs_to_recover: Option<u64>,
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
        .map(|&t| ttl_behaviour(n, t, seed))
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
        ..MonitorConfig::default()
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

fn ttl_behaviour(n: usize, ttl: u64, seed: u64) -> TtlRow {
    use dat_core::DatEvent;
    let cfg = MonitorConfig {
        nodes: n,
        epoch_ms: 1_000,
        seed,
        child_ttl_epochs: Some(ttl),
        fast_maintenance: true,
        ..MonitorConfig::default()
    };
    let mut sim = GridMonitorSim::new(cfg, "cpu-usage", |_| {
        Box::new(dat_monitor::ConstantSensor::new("cpu-usage", 1.0))
    });
    sim.run_epochs(8);
    // A burst of graceful departures (a fifth of the fleet, sparing the root).
    let root = sim.root_addr();
    let victims: Vec<_> = sim
        .net()
        .iter_nodes()
        .map(|(a, _)| *a)
        .filter(|&a| a != root)
        .take(n / 5)
        .collect();
    for v in &victims {
        sim.net_mut().with_node(*v, |node| ((), node.leave()));
    }
    let live = (n - victims.len()) as u64;
    // Watch the root's reports for the next epochs.
    let key = sim.key();
    let mut max_after = 0u64;
    let mut recovered = None;
    for e in 0..40u64 {
        sim.net_mut().run_for(1_000);
        let reports: Vec<u64> = sim
            .net_mut()
            .node_mut(root)
            .map(|r| {
                r.take_events()
                    .into_iter()
                    .filter_map(|ev| match ev {
                        DatEvent::Report {
                            key: k, partial, ..
                        } if k == key => Some(partial.count),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default();
        for c in reports {
            max_after = max_after.max(c);
            if recovered.is_none() && c == live {
                recovered = Some(e + 1);
            }
        }
    }
    TtlRow {
        ttl,
        max_after_leave: max_after,
        live,
        epochs_to_recover: recovered,
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
            ],
        );
        for r in &self.ttl {
            tt.row(vec![
                r.ttl.to_string(),
                r.live.to_string(),
                r.max_after_leave.to_string(),
                r.epochs_to_recover
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        (th, tt)
    }

    /// Qualitative checks: the hold window must improve accuracy; longer
    /// TTLs must keep ghosts around longer.
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
        // leaver never re-parents), so the report can only settle to the
        // live count after the soft-state TTL expires: recovery time is
        // bounded below by the TTL, and every TTL must eventually recover.
        for r in &self.ttl {
            match r.epochs_to_recover {
                None => bad.push(format!("ttl={} never re-covered", r.ttl)),
                Some(e) => {
                    if e + 1 < r.ttl {
                        bad.push(format!(
                            "ttl={} recovered after {e} epochs — before ghosts can expire?!",
                            r.ttl
                        ));
                    }
                }
            }
            if r.max_after_leave < r.live {
                bad.push(format!(
                    "ttl={}: report never reached the live count {} (max {})",
                    r.ttl, r.live, r.max_after_leave
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
    fn ablation_shapes_hold() {
        let a = run(48, 3);
        let bad = a.check();
        assert!(bad.is_empty(), "{bad:?}");
        let (th, tt) = a.tables();
        assert!(th.to_markdown().contains("hold_ms"));
        assert!(tt.to_markdown().contains("ttl"));
    }
}
