//! P-GMA assembly: the full monitoring stack in one simulated Grid.
//!
//! Wires the layers of the paper's Fig. 1 together — sensors feed
//! producers (the per-node [`dat_core::DatProtocol`] local values), the
//! aggregation layer pushes partials along the DAT tree every epoch, and
//! the consumer reads per-epoch global reports at the rendezvous root.
//! [`GridMonitorSim`] is the engine behind the §5.4 accuracy experiment
//! (Fig. 9): it tracks ground truth (the sum of every sensor's current
//! value) against the root's aggregated view.
//!
//! Every Grid node is one [`StackNode`] hosting *both* P-GMA services on
//! one Chord substrate: DAT continuous aggregation and MAAN resource
//! discovery — the paper's layered architecture, literally stacked.

use std::collections::HashMap;

use dat_chord::{ChordConfig, Id, IdPolicy, IdSpace, NodeAddr, RoutingScheme, StaticRing};
use dat_core::{
    AggFunc, AggregationMode, Completeness, DatConfig, DatEvent, DatProtocol, StackNode,
};
use dat_maan::{AttrSchema, MaanProtocol, MaanStack, Predicate, Resource};
use dat_sim::harness::{addr_book, prestabilized_stack};
use dat_sim::{LatencyModel, SimNet};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::discovery::discover;
use crate::sensor::Sensor;

/// The Grid attribute schemas of the MAAN index hosted next to the
/// aggregation layer (the paper's running examples: CPU speed in GHz, CPU
/// usage in percent, memory in MB, operating system and site as keywords).
pub fn grid_schemas() -> Vec<AttrSchema> {
    vec![
        AttrSchema::numeric("cpu-speed", 0.0, 8.0),
        AttrSchema::numeric("cpu-usage", 0.0, 100.0),
        AttrSchema::numeric("memory", 0.0, 65_536.0),
        AttrSchema::keyword("os"),
        AttrSchema::keyword("site"),
    ]
}

/// Identifier-space width of every monitored ring.
const SPACE_BITS: u8 = 32;

/// Configuration of a monitoring simulation: a probed ring of `nodes`
/// Grid nodes, continuously aggregating one attribute over the balanced
/// DAT (the paper's §5.4 setup).
#[derive(Clone, Copy, Debug)]
pub struct MonitorConfig {
    /// Number of Grid nodes (paper §5.4: 512).
    pub nodes: usize,
    /// Epoch length in virtual milliseconds.
    pub epoch_ms: u64,
    /// Network latency model.
    pub latency: LatencyModel,
    /// Determinism seed.
    pub seed: u64,
    /// Override the DAT hold window (ms); `None` uses the DAT default.
    pub hold_ms: Option<u64>,
    /// Override the soft-state child TTL (epochs); `None` uses the default.
    pub child_ttl_epochs: Option<u64>,
    /// Use churn-grade ring maintenance (1 s stabilization, 0.5 s finger
    /// fixing) instead of the relaxed static-overlay defaults. Required
    /// when the run injects departures/failures and expects the trees to
    /// re-form within seconds.
    pub fast_maintenance: bool,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            nodes: 512,
            epoch_ms: 10_000,
            latency: LatencyModel::Constant(2),
            seed: 0xCA1,
            hold_ms: None,
            child_ttl_epochs: None,
            fast_maintenance: false,
        }
    }
}

/// Ground truth vs aggregated view for one epoch (one point of Fig. 9).
#[derive(Clone, Copy, Debug)]
pub struct EpochRecord {
    /// Root-side epoch index.
    pub epoch: u64,
    /// Wall (virtual) time of the record, seconds.
    pub t_s: u64,
    /// True sum of every node's current sensor value.
    pub actual_total: f64,
    /// True average.
    pub actual_avg: f64,
    /// Aggregated sum as reported at the root (None until the first report
    /// reaches the root).
    pub reported_total: Option<f64>,
    /// Aggregated average.
    pub reported_avg: Option<f64>,
    /// Number of nodes contributing to the report.
    pub reported_count: Option<u64>,
    /// The report's completeness accounting (contributors vs estimated
    /// ring size, staleness bound, report fence) — the consumer-side view
    /// of how degraded the number is.
    pub completeness: Option<Completeness>,
}

/// Accuracy summary over a run.
#[derive(Clone, Copy, Debug)]
pub struct AccuracyStats {
    /// Epochs with a root report.
    pub reported_epochs: usize,
    /// Mean absolute percentage error of the reported total vs actual.
    pub mape: f64,
    /// Worst absolute percentage error.
    pub max_ape: f64,
    /// Mean node-count coverage (reported count / n).
    pub coverage: f64,
    /// Mean self-reported completeness ratio over the counted epochs (the
    /// root's own estimate, no global view — compare against `coverage`).
    pub mean_completeness: f64,
    /// Worst staleness bound (ms) over the counted epochs.
    pub max_staleness_ms: u64,
}

/// The monitoring simulation: n nodes, one trace-driven sensor each,
/// continuous aggregation of the configured attribute.
pub struct GridMonitorSim {
    net: SimNet<StackNode>,
    sensors: HashMap<NodeAddr, Box<dyn Sensor>>,
    current: HashMap<NodeAddr, f64>,
    key: Id,
    root_addr: NodeAddr,
    cfg: MonitorConfig,
    records: Vec<EpochRecord>,
    epoch: u64,
}

impl GridMonitorSim {
    /// Build the Grid: a pre-stabilized DAT overlay plus one sensor per
    /// node produced by `make_sensor(index)`.
    pub fn new<F>(cfg: MonitorConfig, attr: &str, mut make_sensor: F) -> Self
    where
        F: FnMut(usize) -> Box<dyn Sensor>,
    {
        let space = IdSpace::new(SPACE_BITS);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let ring = StaticRing::build(space, cfg.nodes, IdPolicy::Probed, &mut rng);
        let ccfg = if cfg.fast_maintenance {
            ChordConfig {
                space,
                stabilize_ms: 1_000,
                fix_fingers_ms: 500,
                check_pred_ms: 1_500,
                req_timeout_ms: 2_500,
                ..ChordConfig::default()
            }
        } else {
            ChordConfig {
                space,
                // The monitored overlay is pre-converged and static for the
                // accuracy experiment: relax ring maintenance so simulated
                // time is dominated by aggregation traffic.
                stabilize_ms: 30_000,
                fix_fingers_ms: 20_000,
                check_pred_ms: 30_000,
                ..ChordConfig::default()
            }
        };
        let mut dcfg = DatConfig {
            scheme: RoutingScheme::Balanced,
            epoch_ms: cfg.epoch_ms,
            d0_hint: Some(ring.d0()),
            ..DatConfig::default()
        };
        if let Some(h) = cfg.hold_ms {
            dcfg.hold_ms = h;
        }
        if let Some(t) = cfg.child_ttl_epochs {
            dcfg.child_ttl_epochs = t;
        }
        let mut net = prestabilized_stack(&ring, ccfg, cfg.seed, |_, id, addr| {
            StackNode::new(ccfg, id, addr)
                .with_app(DatProtocol::new(dcfg))
                .with_app(MaanProtocol::new(grid_schemas()))
        });
        net.set_latency(cfg.latency);
        net.set_record_upcalls(false);
        // Phase-shift the sampling windows: every node's epoch tick fires at
        // multiples of epoch_ms; by advancing `settle_ms` past the start we
        // make each step_epoch window contain exactly one tick *plus* the
        // full convergecast that follows it, so the root's report for epoch
        // k is computed entirely from the sensor values set for epoch k.
        let settle_ms = (2 * dcfg.hold_ms + 100).min(cfg.epoch_ms / 2).max(1);
        net.run_for(settle_ms);

        // Register the aggregation everywhere and attach sensors.
        let book = addr_book(&ring);
        let mut key = Id(0);
        let mut sensors: HashMap<NodeAddr, Box<dyn Sensor>> = HashMap::new();
        let mut current = HashMap::new();
        for (i, &id) in ring.ids().iter().enumerate() {
            let addr = book[&id];
            let node = net.node_mut(addr).expect("node exists");
            key = node.register(attr, AggregationMode::Continuous);
            sensors.insert(addr, make_sensor(i));
            current.insert(addr, 0.0);
        }
        let root_addr = book[&ring.successor(key)];
        GridMonitorSim {
            net,
            sensors,
            current,
            key,
            root_addr,
            cfg,
            records: Vec::new(),
            epoch: 0,
        }
    }

    /// The rendezvous key of the monitored attribute.
    pub fn key(&self) -> Id {
        self.key
    }

    /// The simulator address of the aggregation root.
    pub fn root_addr(&self) -> NodeAddr {
        self.root_addr
    }

    /// The simulation network (for ad-hoc inspection).
    pub fn net(&self) -> &SimNet<StackNode> {
        &self.net
    }

    /// Mutable network access (e.g. to inject churn mid-run).
    pub fn net_mut(&mut self) -> &mut SimNet<StackNode> {
        &mut self.net
    }

    /// The monitoring fleet's merged Prometheus dump — every node's
    /// Chord + DAT + MAAN registries folded into one exposition, the same
    /// text a single node serves over `ChordMsg::StatsRequest`.
    pub fn fleet_prometheus(&self) -> String {
        dat_sim::fleet_prometheus(&self.net)
    }

    /// Register a Grid resource in the MAAN index (hosted on the same
    /// overlay nodes as the aggregation layer), entering at `at`.
    pub fn register_resource(&mut self, at: NodeAddr, resource: &Resource) {
        let r = resource.clone();
        self.net.with_node(at, |n| ((), n.maan_register(&r)));
        // Let the registration routes land.
        self.net.run_for(2_000);
    }

    /// Discover the resources satisfying every predicate of `preds` from
    /// node `from`: issues a MAAN query over the same overlay that carries
    /// the aggregation traffic and runs the network until its answer
    /// arrives, for at most [`crate::discovery::DISCOVER_BOUND_MS`] of
    /// virtual time. `None` when no answer came in time.
    pub fn discover(&mut self, from: NodeAddr, preds: &[Predicate]) -> Option<Vec<Resource>> {
        discover(&mut self.net, from, preds).map(|d| d.hits)
    }

    /// Collected per-epoch records.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// Advance one epoch: sample every sensor, publish local values, run
    /// the network for one epoch, and record actual vs reported.
    pub fn step_epoch(&mut self) {
        let t_s = self.net.now().as_secs();
        // Sensors → producers.
        let key = self.key;
        for (addr, sensor) in self.sensors.iter_mut() {
            let v = sensor.sample(t_s);
            self.current.insert(*addr, v);
            if let Some(node) = self.net.node_mut(*addr) {
                node.set_local(key, v);
            }
        }
        // One epoch of protocol time.
        self.net.run_for(self.cfg.epoch_ms);
        self.epoch += 1;
        // Ground truth.
        let n = self.current.len() as f64;
        let actual_total: f64 = self.current.values().sum();
        // Root report (latest).
        let report = self
            .net
            .node_mut(self.root_addr)
            .map(|root| {
                root.take_events()
                    .into_iter()
                    .filter_map(|e| match e {
                        DatEvent::Report {
                            key: k,
                            partial,
                            completeness,
                            ..
                        } if k == key => Some((partial, completeness)),
                        _ => None,
                    })
                    .next_back()
            })
            .unwrap_or(None);
        self.records.push(EpochRecord {
            epoch: self.epoch,
            t_s,
            actual_total,
            actual_avg: actual_total / n,
            reported_total: report.as_ref().map(|(p, _)| p.finalize(AggFunc::Sum)),
            reported_avg: report.as_ref().map(|(p, _)| p.finalize(AggFunc::Avg)),
            reported_count: report.as_ref().map(|(p, _)| p.count),
            completeness: report.as_ref().map(|(_, c)| *c),
        });
    }

    /// Run `epochs` epochs.
    pub fn run_epochs(&mut self, epochs: u64) {
        for _ in 0..epochs {
            self.step_epoch();
        }
    }

    /// Accuracy of the aggregated totals vs ground truth, skipping the
    /// warm-up epochs before the first full report.
    pub fn accuracy(&self) -> AccuracyStats {
        let n = self.sensors.len() as f64;
        let mut count = 0usize;
        let mut ape_sum = 0.0;
        let mut ape_max = 0.0f64;
        let mut cov_sum = 0.0;
        let mut ratio_sum = 0.0;
        let mut stale_max = 0u64;
        for r in &self.records {
            let (Some(total), Some(c)) = (r.reported_total, r.reported_count) else {
                continue;
            };
            // Skip partial warm-up reports.
            if (c as f64) < 0.5 * n {
                continue;
            }
            count += 1;
            let ape = if r.actual_total == 0.0 {
                0.0
            } else {
                ((total - r.actual_total) / r.actual_total).abs() * 100.0
            };
            ape_sum += ape;
            ape_max = ape_max.max(ape);
            cov_sum += c as f64 / n;
            if let Some(cm) = r.completeness {
                ratio_sum += cm.ratio;
                stale_max = stale_max.max(cm.staleness_ms);
            }
        }
        AccuracyStats {
            reported_epochs: count,
            mape: if count == 0 {
                f64::NAN
            } else {
                ape_sum / count as f64
            },
            max_ape: ape_max,
            coverage: if count == 0 {
                0.0
            } else {
                cov_sum / count as f64
            },
            mean_completeness: if count == 0 {
                0.0
            } else {
                ratio_sum / count as f64
            },
            max_staleness_ms: stale_max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor::ConstantSensor;
    use crate::trace::{CpuTrace, TraceConfig};
    use crate::TraceSensor;

    #[test]
    fn constant_signal_aggregates_exactly() {
        let cfg = MonitorConfig {
            nodes: 32,
            epoch_ms: 1_000,
            ..MonitorConfig::default()
        };
        let mut sim = GridMonitorSim::new(cfg, "cpu-usage", |_| {
            Box::new(ConstantSensor::new("cpu-usage", 50.0))
        });
        sim.run_epochs(12);
        let acc = sim.accuracy();
        assert!(acc.reported_epochs >= 5, "reports: {acc:?}");
        // A constant signal must aggregate exactly once converged.
        assert!(acc.mape < 1e-6, "{acc:?}");
        assert!((acc.coverage - 1.0).abs() < 1e-9, "{acc:?}");
        // The d0 hint makes the root's ring-size estimate exact, so the
        // self-reported completeness agrees with the true coverage, and a
        // healthy run's reports are at most a couple epochs stale.
        assert!((acc.mean_completeness - 1.0).abs() < 1e-9, "{acc:?}");
        assert!(acc.max_staleness_ms <= 2 * 1_000, "{acc:?}");
    }

    #[test]
    fn trace_signal_tracks_closely() {
        let trace = CpuTrace::generate(TraceConfig {
            duration_s: 600,
            ..TraceConfig::default()
        });
        let cfg = MonitorConfig {
            nodes: 64,
            epoch_ms: 5_000,
            ..MonitorConfig::default()
        };
        let mut sim = GridMonitorSim::new(cfg, "cpu-usage", |i| {
            Box::new(TraceSensor::new("cpu-usage", trace.clone(), i as u64, 1.0))
        });
        sim.run_epochs(40);
        let acc = sim.accuracy();
        assert!(acc.reported_epochs >= 30, "{acc:?}");
        // Pipelined aggregation lags the signal slightly; an
        // autocorrelated trace should still track within a few percent.
        assert!(acc.mape < 10.0, "{acc:?}");
        assert!(acc.coverage > 0.95, "{acc:?}");
    }

    #[test]
    fn discovery_rides_the_monitoring_overlay() {
        // The same StackNodes carry DAT aggregation and MAAN discovery:
        // register two resources, range-query one, and keep aggregating.
        let cfg = MonitorConfig {
            nodes: 16,
            epoch_ms: 1_000,
            ..MonitorConfig::default()
        };
        let mut sim = GridMonitorSim::new(cfg, "cpu-usage", |_| {
            Box::new(ConstantSensor::new("cpu-usage", 2.0))
        });
        sim.register_resource(
            NodeAddr(0),
            &Resource::new("grid://m1")
                .with("cpu-speed", 2.8)
                .with("os", "linux"),
        );
        sim.register_resource(
            NodeAddr(3),
            &Resource::new("grid://m2").with("cpu-speed", 6.0),
        );
        let hits = sim
            .discover(NodeAddr(5), &[Predicate::range("cpu-speed", 2.0, 3.0)])
            .unwrap();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].uri, "grid://m1");
        let fast = [Predicate::range("cpu-speed", 7.0, 8.0)];
        assert_eq!(sim.discover(NodeAddr(7), &fast), Some(Vec::new()));
        sim.run_epochs(8);
        let acc = sim.accuracy();
        assert!(acc.reported_epochs >= 1, "{acc:?}");
        assert!(
            acc.mape < 1e-6,
            "aggregation unharmed by discovery: {acc:?}"
        );
    }

    #[test]
    fn full_domain_discovery_waits_for_its_answer() {
        // A full-domain range walks all 512 nodes one hop at a time: about
        // 20 s under a 40 ms-median WAN latency, far past a fixed 5 s wait.
        let cfg = MonitorConfig {
            nodes: 512,
            latency: LatencyModel::LogNormal {
                median_ms: 40.0,
                sigma: 0.6,
            },
            ..MonitorConfig::default()
        };
        let mut sim = GridMonitorSim::new(cfg, "cpu-usage", |_| {
            Box::new(ConstantSensor::new("cpu-usage", 1.0))
        });
        for (i, ghz) in [0.5, 4.0, 7.5].into_iter().enumerate() {
            let r = Resource::new(&format!("grid://m{i}")).with("cpu-speed", ghz);
            sim.register_resource(NodeAddr(i as u64 * 100), &r);
        }
        let start = sim.net().now();
        let hits = sim
            .discover(NodeAddr(300), &[Predicate::range("cpu-speed", 0.0, 8.0)])
            .expect("answered within the bound");
        assert_eq!(hits.len(), 3, "{hits:?}");
        let took_ms = sim.net().now().saturating_since(start);
        assert!(took_ms > 5_000, "{took_ms} ms");
    }

    #[test]
    fn records_have_monotone_epochs() {
        let cfg = MonitorConfig {
            nodes: 8,
            epoch_ms: 500,
            ..MonitorConfig::default()
        };
        let mut sim = GridMonitorSim::new(cfg, "cpu-usage", |_| {
            Box::new(ConstantSensor::new("cpu-usage", 1.0))
        });
        sim.run_epochs(5);
        let e: Vec<u64> = sim.records().iter().map(|r| r.epoch).collect();
        assert_eq!(e, vec![1, 2, 3, 4, 5]);
    }
}
