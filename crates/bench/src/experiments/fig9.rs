//! Fig. 9 — accuracy of Grid resource monitoring (§5.4).
//!
//! A simulated Grid of 512 nodes, each replaying the (synthetic, see
//! DESIGN.md §4) 2-hour CPU-usage trace; the balanced DAT continuously
//! aggregates the global total/average. Panel (a) is the time series of
//! actual vs aggregated total usage; panel (b) the scatter of aggregated
//! vs actual — the paper reports points "clustered around the diagonal".

use dat_monitor::{CpuTrace, GridMonitorSim, MonitorConfig, TraceSensor};

use crate::table::{f, Table};

/// Experiment output.
pub struct Fig9 {
    /// The simulation after the run (records inside).
    pub sim: GridMonitorSim,
    /// Number of nodes.
    pub n: usize,
}

/// Run the accuracy experiment: `n` nodes, a trace of `duration_s`
/// seconds, aggregation epoch `epoch_s`.
pub fn run(n: usize, duration_s: u64, epoch_s: u64, seed: u64) -> Fig9 {
    let trace = CpuTrace::generate(duration_s, seed);
    let cfg = MonitorConfig {
        nodes: n,
        epoch_ms: epoch_s * 1_000,
        seed,
        ..MonitorConfig::default()
    };
    // Paper §5.4: "each node has the same CPU usage as in the trace".
    let mut sim = GridMonitorSim::new(cfg, "cpu-usage", |_| {
        Box::new(TraceSensor::new("cpu-usage", trace.clone(), 0, 1.0))
    });
    sim.run_epochs(duration_s / epoch_s);
    Fig9 { sim, n }
}

impl Fig9 {
    /// Fig. 9a: the time series (sampled down to ~20 rows).
    pub fn table_series(&self) -> Table {
        let mut t = Table::new(
            &format!(
                "Fig 9a — actual vs aggregated total CPU usage over time (n = {})",
                self.n
            ),
            &["t (min)", "actual total", "aggregated total", "error %"],
        );
        let records = self.sim.records();
        let step = (records.len() / 20).max(1);
        for r in records.iter().step_by(step) {
            let (agg, err) = match r.reported_total {
                Some(v) => {
                    let e = if r.actual_total > 0.0 {
                        (v - r.actual_total) / r.actual_total * 100.0
                    } else {
                        0.0
                    };
                    (f(v), format!("{e:+.2}"))
                }
                None => ("-".into(), "-".into()),
            };
            t.row(vec![format!("{}", r.t_s / 60), f(r.actual_total), agg, err]);
        }
        t
    }

    /// Fig. 9b: scatter summary — correlation and error statistics of
    /// aggregated vs actual.
    pub fn table_scatter(&self) -> Table {
        let pairs: Vec<(f64, f64)> = self
            .sim
            .records()
            .iter()
            .filter_map(|r| r.reported_total.map(|v| (r.actual_total, v)))
            .collect();
        let acc = self.sim.accuracy();
        let corr = correlation(&pairs);
        let mut t = Table::new(
            "Fig 9b — aggregated vs actual scatter (diagonal fit)",
            &["metric", "value"],
        );
        t.row(vec!["points".into(), pairs.len().to_string()]);
        t.row(vec!["pearson r".into(), format!("{corr:.4}")]);
        t.row(vec!["MAPE %".into(), format!("{:.3}", acc.mape)]);
        t.row(vec!["max APE %".into(), format!("{:.3}", acc.max_ape)]);
        t.row(vec!["node coverage".into(), format!("{:.4}", acc.coverage)]);
        t
    }

    /// Qualitative checks: points cluster on the diagonal.
    pub fn check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let acc = self.sim.accuracy();
        if acc.reported_epochs < 5 {
            bad.push(format!("only {} reported epochs", acc.reported_epochs));
        }
        // NaN (no data) must fail the check too, hence not `>= 5.0`.
        if acc.mape.partial_cmp(&5.0) != Some(std::cmp::Ordering::Less) {
            bad.push(format!("MAPE {:.2}% too high (expect < 5%)", acc.mape));
        }
        if acc.coverage < 0.95 {
            bad.push(format!("coverage {:.3} < 0.95", acc.coverage));
        }
        let pairs: Vec<(f64, f64)> = self
            .sim
            .records()
            .iter()
            .filter_map(|r| r.reported_total.map(|v| (r.actual_total, v)))
            .collect();
        let corr = correlation(&pairs);
        if corr.partial_cmp(&0.9) != Some(std::cmp::Ordering::Greater) {
            bad.push(format!("diagonal correlation {corr:.3} < 0.9"));
        }
        bad
    }
}

/// Pearson correlation of (x, y) pairs.
pub fn correlation(pairs: &[(f64, f64)]) -> f64 {
    let n = pairs.len() as f64;
    if pairs.len() < 2 {
        return f64::NAN;
    }
    let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for &(x, y) in pairs {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        // A perfectly flat series that matches is perfectly correlated for
        // our purposes.
        return if (mx - my).abs() < 1e-9 { 1.0 } else { 0.0 };
    }
    sxy / (sxx * syy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlation_basics() {
        let perfect: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, i as f64 * 2.0)).collect();
        assert!((correlation(&perfect) - 1.0).abs() < 1e-12);
        let anti: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, -(i as f64))).collect();
        assert!((correlation(&anti) + 1.0).abs() < 1e-12);
        assert!(correlation(&[]).is_nan());
    }

    #[test]
    fn small_run_clusters_on_diagonal() {
        let fig = run(64, 600, 10, 3);
        let bad = fig.check();
        assert!(bad.is_empty(), "{bad:?}");
        let md = fig.table_series().to_markdown();
        assert!(md.contains("aggregated total"));
        let md = fig.table_scatter().to_markdown();
        assert!(md.contains("pearson r"));
    }
}
