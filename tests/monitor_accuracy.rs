//! Integration: the P-GMA monitoring stack tracks ground truth (Fig. 9
//! shape) and discovery answers stay consistent with monitored state.

use libdat::monitor::{
    ConstantSensor, CpuTrace, GridMonitorSim, MonitorConfig, RandomWalkSensor, TraceSensor,
};

#[test]
fn trace_aggregation_clusters_on_diagonal() {
    let trace = CpuTrace::generate(1200, CpuTrace::DEFAULT_SEED);
    let cfg = MonitorConfig {
        nodes: 128,
        epoch_ms: 10_000,
        ..MonitorConfig::default()
    };
    let mut sim = GridMonitorSim::new(cfg, "cpu-usage", |_| {
        Box::new(TraceSensor::new("cpu-usage", trace.clone(), 0, 1.0))
    });
    sim.run_epochs(120);
    let acc = sim.accuracy();
    assert!(acc.reported_epochs >= 100, "{acc:?}");
    assert!(acc.mape < 3.0, "{acc:?}");
    assert!(acc.coverage > 0.99, "{acc:?}");
    // Scatter stays near the diagonal point-by-point too.
    for r in sim.records().iter().skip(10) {
        if let Some(v) = r.reported_total {
            let ape = ((v - r.actual_total) / r.actual_total).abs();
            assert!(ape < 0.15, "epoch {}: {} vs {}", r.epoch, v, r.actual_total);
        }
    }
}

#[test]
fn heterogeneous_sensors_aggregate_to_true_mean() {
    // Different constants per node: the global average must be exact.
    let cfg = MonitorConfig {
        nodes: 60,
        epoch_ms: 1_000,
        ..MonitorConfig::default()
    };
    let mut sim = GridMonitorSim::new(cfg, "cpu-usage", |i| {
        Box::new(ConstantSensor::new("cpu-usage", i as f64))
    });
    sim.run_epochs(15);
    let r = sim
        .records()
        .iter()
        .rev()
        .find(|r| r.reported_count == Some(60))
        .expect("full report");
    let want_total: f64 = (0..60).map(|i| i as f64).sum();
    assert_eq!(r.reported_total.unwrap(), want_total);
    assert!((r.reported_avg.unwrap() - want_total / 60.0).abs() < 1e-9);
}

#[test]
fn random_walk_metrics_stay_in_domain() {
    let cfg = MonitorConfig {
        nodes: 40,
        epoch_ms: 2_000,
        ..MonitorConfig::default()
    };
    let mut sim = GridMonitorSim::new(cfg, "memory-free", |i| {
        Box::new(RandomWalkSensor::new(
            "memory-free",
            32.0,
            0.0,
            64.0,
            2.0,
            i as u64,
        ))
    });
    sim.run_epochs(30);
    for r in sim.records() {
        assert!(r.actual_avg >= 0.0 && r.actual_avg <= 64.0);
        if let Some(avg) = r.reported_avg {
            assert!((0.0..=64.0).contains(&avg), "avg {avg} out of domain");
        }
    }
}

#[test]
fn discovery_consistency_with_advertised_state() {
    use libdat::chord::NodeAddr;
    use libdat::maan::{Predicate, Resource};
    let cfg = MonitorConfig {
        nodes: 64,
        epoch_ms: 1_000,
        seed: 31,
        ..MonitorConfig::default()
    };
    let mut sim = GridMonitorSim::new(cfg, "cpu-usage", |_| {
        Box::new(ConstantSensor::new("cpu-usage", 1.0))
    });
    let origin = NodeAddr(0);
    // Advertise machines mirroring a monitored fleet.
    let usages: Vec<f64> = (0..40).map(|i| (i * 97 % 101) as f64).collect();
    for (i, &u) in usages.iter().enumerate() {
        let r = Resource::new(&format!("grid://m{i}"))
            .with("cpu-usage", u)
            .with("cpu-speed", 2.0)
            .with("os", "linux");
        sim.register_resource(origin, &r);
    }
    // Every usage band returns exactly the machines in that band.
    for (lo, hi) in [(0.0, 25.0), (25.0, 75.0), (75.0, 100.0)] {
        let hits = sim
            .discover(origin, &[Predicate::range("cpu-usage", lo, hi)])
            .expect("answered");
        let want = usages.iter().filter(|&&u| u >= lo && u <= hi).count();
        assert_eq!(hits.len(), want, "band [{lo},{hi}]");
    }
}
