//! Grid monitoring end-to-end: a 512-node simulated Grid aggregates a
//! 30-minute CPU-usage trace through the balanced DAT (the paper's §5.4
//! scenario, shortened; pass `--full` for the whole 2 hours).
//!
//! ```text
//! cargo run --release --example grid_monitor [-- --full]
//! ```

use libdat::monitor::{CpuTrace, GridMonitorSim, MonitorConfig, TraceSensor};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let duration_s = if full { 7200 } else { 1800 };
    let epoch_s = 10;

    let trace = CpuTrace::generate(duration_s, CpuTrace::DEFAULT_SEED);
    println!(
        "trace: {}s, {} samples, lag-1 autocorrelation {:.3}",
        duration_s,
        trace.len(),
        trace.lag1_autocorr()
    );

    let cfg = MonitorConfig {
        nodes: 512,
        epoch_ms: epoch_s * 1_000,
        ..MonitorConfig::default()
    };
    // Paper §5.4: every node replays the same trace.
    let mut sim = GridMonitorSim::new(cfg, "cpu-usage", |_| {
        Box::new(TraceSensor::new("cpu-usage", trace.clone(), 0, 1.0))
    });

    println!("\n  t(min)   actual-total   aggregated     err%");
    let epochs = duration_s / epoch_s;
    for e in 0..epochs {
        sim.step_epoch();
        if e % 18 == 0 || e == epochs - 1 {
            let r = sim.records().last().unwrap();
            match r.reported_total {
                Some(v) => println!(
                    "  {:>5}   {:>12.1}   {:>10.1}   {:+.2}",
                    r.t_s / 60,
                    r.actual_total,
                    v,
                    (v - r.actual_total) / r.actual_total * 100.0
                ),
                None => println!("  {:>5}   {:>12.1}   (warm-up)", r.t_s / 60, r.actual_total),
            }
        }
    }

    let acc = sim.accuracy();
    println!(
        "\naccuracy over {} reported epochs: MAPE {:.3}%, worst {:.3}%, node coverage {:.1}%",
        acc.reported_epochs,
        acc.mape,
        acc.max_ape,
        acc.coverage * 100.0
    );
    assert!(acc.mape < 5.0, "aggregation should track the trace closely");
    println!("ok: the aggregated view tracks ground truth (Fig 9 shape)");
}
