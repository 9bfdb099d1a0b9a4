//! Real-cluster harness: boot a full DAT+MAAN stack over the tokio
//! transport, run the multi-service workload, scrape every node's
//! Prometheus exposition and check the paper's invariants.
//!
//! This is the real-network analogue of `tests/multi_service.rs`: the
//! same protocol stack (continuous DAT aggregation of `cpu-usage` plus
//! MAAN range discovery of `cpu-speed`) on the same pre-built topology,
//! but every node is a live tokio task with its own UDP socket, and every
//! assertion runs against wall-clock behavior. The paper's testbed ran
//! "up to 64 DAT instances on each machine to create a network of 512
//! nodes" (§4); [`run_harness`] boots 1024+ instances in one process.
//!
//! Two boot paths, mirroring `dat_sim::harness`:
//!
//! * [`BootMode::Prestabilized`] — finger tables are materialised from a
//!   [`StaticRing`] global view before launch, so even a 1k-node overlay
//!   is converged in milliseconds of wall time;
//! * [`BootMode::StagedJoin`] — nodes run the real join + stabilization
//!   protocol in batches against node 0, then the harness waits for the
//!   ring to converge to the `StaticRing` prediction.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use dat_chord::host::TransportStats;
use dat_chord::{ChordConfig, Id, IdPolicy, IdSpace, NodeAddr, RoutingScheme, StaticRing};
use dat_core::{AggFunc, AggregationMode, DatConfig, DatEvent, DatProtocol, StackNode};
use dat_maan::{MaanEvent, MaanProtocol, MaanStack, Resource};
use dat_monitor::grid_schemas;
use dat_obs::Registry;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::host::{ClusterHost, HostConfig};

/// How the overlay comes up.
#[derive(Clone, Copy, Debug)]
pub enum BootMode {
    /// Materialise converged finger tables from the global ring view.
    Prestabilized,
    /// Live joins against node 0 in batches of `batch`, sleeping
    /// `settle_ms` between batches, then wait for convergence.
    StagedJoin {
        /// Nodes joining per batch.
        batch: usize,
        /// Settle pause between batches, milliseconds.
        settle_ms: u64,
    },
}

/// Everything the harness needs to run one cluster experiment.
#[derive(Clone, Copy, Debug)]
pub struct HarnessConfig {
    /// Number of real nodes to boot.
    pub nodes: usize,
    /// Topology / workload seed.
    pub seed: u64,
    /// Identifier-space width in bits.
    pub bits: u8,
    /// Boot path.
    pub boot: BootMode,
    /// DAT epoch length (wall milliseconds).
    pub epoch_ms: u64,
    /// How many root reports to observe before declaring the run done.
    pub epochs: u64,
    /// Transport knobs.
    pub host: HostConfig,
    /// How many machines advertise MAAN resources (multi-service side).
    pub machines: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            nodes: 64,
            seed: 0x5AC,
            bits: 32,
            boot: BootMode::Prestabilized,
            epoch_ms: 500,
            epochs: 16,
            host: HostConfig {
                inbox_capacity: 256,
                outbox_capacity: 256,
            },
            machines: 16,
        }
    }
}

/// What one harness run measured and concluded.
#[derive(Clone, Debug)]
pub struct HarnessReport {
    /// Nodes booted.
    pub nodes: usize,
    /// Wall time to a converged overlay, ms.
    pub boot_ms: u64,
    /// Wall time of the workload phase, ms.
    pub run_ms: u64,
    /// Root reports observed for the registered attribute.
    pub reports_seen: u64,
    /// Wall-clock gaps between consecutive root reports, ms.
    pub report_intervals_ms: Vec<u64>,
    /// Contributor count of the last full report.
    pub root_count: u64,
    /// Sum of the last full report.
    pub root_sum: f64,
    /// What the sum must be: `Σ i for i in 0..nodes`.
    pub expected_sum: f64,
    /// Completeness ratio of the last report (1.0 = full coverage).
    pub completeness: f64,
    /// Resource URIs the MAAN range query returned, sorted.
    pub maan_hits: Vec<String>,
    /// Transport counters at the end of the run.
    pub stats: TransportStats,
    /// Total Prometheus samples scraped across every node exposition.
    pub scrape_samples: usize,
    /// `engine_shed_total` over all layers, fleet plus transport.
    pub sheds: u64,
    /// `root_sum == expected_sum` and every node contributed.
    pub exact: bool,
    /// Last report covered the whole grid (ratio 1.0).
    pub complete: bool,
}

impl HarnessReport {
    /// `true` when the run met the paper's invariants end to end.
    pub fn ok(&self) -> bool {
        self.exact && self.complete && self.reports_seen > 0
    }

    /// Percentile (0.0..=1.0) of the report inter-arrival gaps, ms.
    pub fn report_interval_pct(&self, p: f64) -> u64 {
        if self.report_intervals_ms.is_empty() {
            return 0;
        }
        let mut v = self.report_intervals_ms.clone();
        v.sort_unstable();
        let idx = ((v.len() - 1) as f64 * p).round() as usize;
        v[idx.min(v.len() - 1)]
    }

    /// One-object JSON rendering (hand-rolled; no serde in the tree).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nodes\": {}, \"boot_ms\": {}, \"run_ms\": {}, \
             \"reports_seen\": {}, \"report_ms_p50\": {}, \"report_ms_p99\": {}, \
             \"root_count\": {}, \"root_sum\": {:.1}, \"expected_sum\": {:.1}, \
             \"completeness\": {:.4}, \"maan_hits\": {}, \
             \"sent\": {}, \"received\": {}, \"decode_errors\": {}, \
             \"shed_total\": {}, \"socket_errors\": {}, \
             \"scrape_samples\": {}, \"exact\": {}, \"complete\": {}}}",
            self.nodes,
            self.boot_ms,
            self.run_ms,
            self.reports_seen,
            self.report_interval_pct(0.50),
            self.report_interval_pct(0.99),
            self.root_count,
            self.root_sum,
            self.expected_sum,
            self.completeness,
            self.maan_hits.len(),
            self.stats.sent,
            self.stats.received,
            self.stats.decode_errors,
            self.sheds,
            self.stats.socket_recv_errors + self.stats.socket_send_errors,
            self.scrape_samples,
            self.exact,
            self.complete,
        )
    }
}

/// Map ring identifiers to cluster addresses `0..n` (sorted-id order).
fn addr_book(ring: &StaticRing) -> HashMap<Id, NodeAddr> {
    ring.ids()
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, NodeAddr(i as u64)))
        .collect()
}

/// Boot the overlay, run the DAT+MAAN workload, scrape, and report.
///
/// Returns `Err` on harness-level failures (socket exhaustion, a node
/// that stops answering); invariant violations are reported in the
/// returned [`HarnessReport`] (`exact` / `complete`), so callers decide
/// whether to assert or just record.
pub fn run_harness(cfg: HarnessConfig) -> Result<HarnessReport, String> {
    let n = cfg.nodes;
    if n < 2 {
        return Err("harness needs at least 2 nodes".into());
    }
    let space = IdSpace::new(cfg.bits);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let ring = StaticRing::build(space, n, IdPolicy::Probed, &mut rng);
    let book = addr_book(&ring);

    // Maintenance cadence: quiet for a pre-converged ring (the workload,
    // not stabilization, should own the wire), live for staged joins.
    let ccfg = match cfg.boot {
        BootMode::Prestabilized => ChordConfig {
            space,
            stabilize_ms: 60_000,
            fix_fingers_ms: 60_000,
            check_pred_ms: 60_000,
            ..ChordConfig::default()
        },
        BootMode::StagedJoin { .. } => ChordConfig {
            space,
            stabilize_ms: 150,
            fix_fingers_ms: 60,
            check_pred_ms: 500,
            ..ChordConfig::default()
        },
    };
    let dcfg = DatConfig {
        scheme: RoutingScheme::Balanced,
        epoch_ms: cfg.epoch_ms,
        d0_hint: Some(ring.d0()),
        ..DatConfig::default()
    };

    let mut actors = Vec::with_capacity(n);
    for (i, &id) in ring.ids().iter().enumerate() {
        actors.push(
            StackNode::new(ccfg, id, NodeAddr(i as u64))
                .with_app(DatProtocol::new(dcfg))
                .with_app(MaanProtocol::new(grid_schemas())),
        );
    }

    let boot_t0 = Instant::now();
    let cluster = ClusterHost::launch_with(actors, cfg.host).map_err(|e| e.to_string())?;
    boot(&cluster, &ring, &book, cfg.boot)?;
    let boot_ms = boot_t0.elapsed().as_millis() as u64;

    // DAT side: register the global attribute everywhere, local value =
    // ring position, so the exact root sum is n(n-1)/2.
    let key = cluster
        .call(NodeAddr(0), |node| {
            let key = node.register("cpu-usage", AggregationMode::Continuous);
            node.set_local(key, 0.0);
            (key, vec![])
        })
        .ok_or("node 0 stopped answering during registration")?;
    for i in 1..n {
        cluster.cast(NodeAddr(i as u64), move |node| {
            let key = node.register("cpu-usage", AggregationMode::Continuous);
            node.set_local(key, i as f64);
            vec![]
        });
    }

    // MAAN side: `machines` hosts advertise their cpu-speed from
    // scattered origin nodes (0.0, 0.5, … GHz).
    for j in 0..cfg.machines {
        let res = Resource::new(&format!("grid://host-{j:02}")).with("cpu-speed", j as f64 * 0.5);
        let origin = NodeAddr(((j * 4) % n) as u64);
        cluster.cast(origin, move |node| node.maan_register(&res));
    }

    // Workload phase: watch the root until `epochs` reports arrived and
    // the last one is exact, or the deadline passes.
    let root = book[&ring.successor(key)];
    let expected_sum = (n * (n - 1) / 2) as f64;
    let run_t0 = Instant::now();
    let deadline = run_t0 + Duration::from_millis(cfg.epoch_ms * cfg.epochs * 3 + 15_000);
    let mut reports_seen = 0u64;
    let mut intervals = Vec::new();
    let mut last_report_t: Option<Instant> = None;
    let (mut root_count, mut root_sum, mut completeness) = (0u64, 0f64, 0f64);
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(cfg.epoch_ms.min(200)));
        let events = cluster
            .call(root, |node| (node.take_events(), vec![]))
            .ok_or("root stopped answering during the workload")?;
        for e in events {
            if let DatEvent::Report {
                key: k,
                partial,
                completeness: c,
                ..
            } = e
            {
                if k != key {
                    continue;
                }
                reports_seen += 1;
                let now = Instant::now();
                if let Some(prev) = last_report_t {
                    intervals.push(now.duration_since(prev).as_millis() as u64);
                }
                last_report_t = Some(now);
                root_count = partial.count;
                root_sum = partial.finalize(AggFunc::Sum);
                completeness = c.ratio;
            }
        }
        if reports_seen >= cfg.epochs && root_count as usize == n && root_sum == expected_sum {
            break;
        }
    }

    // Discovery runs against the same overlay while aggregation
    // continues: cpu-speed ∈ [2.0, 3.0] GHz selects hosts 04, 05, 06.
    let asker = NodeAddr((n / 2) as u64);
    let qid = cluster
        .call(asker, |node| node.maan_range_query("cpu-speed", 2.0, 3.0))
        .ok_or("asker stopped answering")?;
    let query_deadline = Instant::now() + Duration::from_secs(30);
    let mut maan_hits: Vec<String> = Vec::new();
    'query: while Instant::now() < query_deadline {
        std::thread::sleep(Duration::from_millis(100));
        let events = cluster
            .call(asker, |node| (node.take_maan_events(), vec![]))
            .ok_or("asker stopped answering mid-query")?;
        for e in events {
            let MaanEvent::QueryDone { qid: q, hits } = e;
            if q == qid {
                maan_hits = hits.into_iter().map(|r| r.uri).collect();
                maan_hits.sort();
                break 'query;
            }
        }
    }
    let run_ms = run_t0.elapsed().as_millis() as u64;

    // Scrape every node's exposition — each must parse standalone — and
    // fold the engine registries plus the transport registry into one
    // fleet view for the shed total.
    let mut scrape_samples = 0usize;
    let mut fleet = Registry::new();
    for i in 0..n {
        let (text, reg) = cluster
            .call(NodeAddr(i as u64), |node| {
                ((node.render_prometheus(), node.obs_registry()), vec![])
            })
            .ok_or_else(|| format!("node {i} stopped answering during scrape"))?;
        scrape_samples +=
            dat_obs::validate_prometheus(&text).map_err(|e| format!("node {i} exposition: {e}"))?;
        fleet.merge(&reg);
    }
    fleet.merge(&cluster.transport_registry());
    let sheds = fleet.counter_sum("engine_shed_total");

    let stats = cluster.stats();
    cluster.shutdown();

    let exact = root_count as usize == n && root_sum == expected_sum;
    Ok(HarnessReport {
        nodes: n,
        boot_ms,
        run_ms,
        reports_seen,
        report_intervals_ms: intervals,
        root_count,
        root_sum,
        expected_sum,
        completeness,
        maan_hits,
        stats,
        scrape_samples,
        sheds,
        exact,
        complete: completeness >= 1.0,
    })
}

/// Bring the ring up according to `mode`; returns once converged.
fn boot(
    cluster: &ClusterHost<StackNode>,
    ring: &StaticRing,
    book: &HashMap<Id, NodeAddr>,
    mode: BootMode,
) -> Result<(), String> {
    let n = ring.ids().len();
    match mode {
        BootMode::Prestabilized => {
            let succ_len = cluster
                .call(NodeAddr(0), |node| {
                    (node.chord().config().succ_list_len, vec![])
                })
                .ok_or("node 0 stopped answering during boot")?;
            for (i, &id) in ring.ids().iter().enumerate() {
                let addr_of = |id: Id| book[&id];
                let table = ring.table_of_with(id, succ_len, &addr_of);
                cluster.cast(NodeAddr(i as u64), move |node| node.start_with_table(table));
            }
            Ok(())
        }
        BootMode::StagedJoin { batch, settle_ms } => {
            let bootstrap = cluster
                .call(NodeAddr(0), |node| (node.me(), node.start_create()))
                .ok_or("node 0 stopped answering during boot")?;
            let mut next = 1usize;
            while next < n {
                let end = (next + batch.max(1)).min(n);
                for i in next..end {
                    cluster.cast(NodeAddr(i as u64), move |node| node.start_join(bootstrap));
                }
                next = end;
                std::thread::sleep(Duration::from_millis(settle_ms));
            }
            // Converged = every node's successor matches the global view.
            let ids = ring.ids();
            let deadline = Instant::now() + Duration::from_secs(60 + n as u64 / 4);
            'wait: while Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(200));
                for i in 0..n {
                    let want = ids[(i + 1) % n];
                    let got = cluster
                        .call(NodeAddr(i as u64), |node| {
                            (node.chord().table().successor().map(|s| s.id), vec![])
                        })
                        .ok_or_else(|| format!("node {i} stopped answering during boot"))?;
                    if got != Some(want) {
                        continue 'wait;
                    }
                }
                return Ok(());
            }
            Err(format!(
                "staged join did not converge within the deadline (n={n})"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    /// A small real cluster end to end: both boot paths complete the
    /// multi-service workload with exact sums over genuine UDP.
    #[test]
    fn small_cluster_completes_the_workload() {
        let report = run_harness(HarnessConfig {
            nodes: 16,
            epochs: 6,
            epoch_ms: 300,
            ..HarnessConfig::default()
        })
        .expect("harness runs");
        assert!(report.ok(), "invariants failed: {report:?}");
        assert_eq!(report.root_count, 16);
        assert_eq!(report.root_sum, 120.0);
        assert_eq!(
            report.maan_hits,
            vec!["grid://host-04", "grid://host-05", "grid://host-06"]
        );
        assert!(report.scrape_samples > 0);
        assert_eq!(report.stats.decode_errors, 0);
    }

    #[test]
    fn staged_join_boots_a_real_ring() {
        let report = run_harness(HarnessConfig {
            nodes: 8,
            epochs: 4,
            epoch_ms: 300,
            boot: BootMode::StagedJoin {
                batch: 4,
                settle_ms: 300,
            },
            ..HarnessConfig::default()
        })
        .expect("harness runs");
        assert!(report.ok(), "invariants failed: {report:?}");
        assert_eq!(report.root_count, 8);
    }
}
