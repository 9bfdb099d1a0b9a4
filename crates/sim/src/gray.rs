//! Gray-failure soak harness: slow nodes, half-open links, overload
//! bursts and flapping peers against one continuous aggregation.
//!
//! The churn soak ([`crate::soak`]) exercises *clean* failures — crashes,
//! partitions, loss — which the RTO machinery alone recovers from. This
//! harness exercises the failures it cannot see: nodes that answer late
//! rather than never ([`crate::FaultEvent::Slowdown`]), links degraded in
//! one direction only ([`crate::FaultEvent::DegradeLink`]), junk floods
//! ([`crate::FaultEvent::Overload`]) and peers that oscillate between
//! healthy and slow. The health plane — phi-accrual suspicion, proactive
//! re-parenting, flap-damping quarantine, bounded inboxes — is what keeps
//! reports flowing, and the scored invariants check exactly that:
//!
//! * reports never stall: no gap between consecutive root reports exceeds
//!   one epoch plus `2 × RTO` (plus the drain-step quantization);
//! * degradation is *reported*, not hidden: completeness dips below 1.0
//!   while the faults are live, and returns to 1.0 in the quiesce tail;
//! * the suspicion path actually fires: at least one proactive re-parent
//!   (phi-triggered, ahead of any timeout) happens fleet-wide;
//! * flappers are quarantined and, once stable, rejoin;
//! * overload is shed (counted, visible) instead of queued unboundedly;
//! * every new counter renders into valid Prometheus exposition.
//!
//! Every run is fully determined by [`GrayConfig::seed`]; the generated
//! [`FaultPlan`]'s digest is the replay fingerprint.

// New module: failures here must carry context, never a bare unwrap panic.
#![deny(clippy::unwrap_used)]

use dat_chord::{ChordConfig, HealthConfig, Id, IdPolicy, IdSpace, RoutingScheme, StaticRing};
use dat_core::tree::DatTree;
use dat_core::{AggregationMode, DatConfig, DatEvent, InboxPolicy, StackNode};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::fault::{FaultPlan, LinkFault};
use crate::harness::{addr_book, prestabilized_dat};
use crate::net::SimNet;
use crate::soak::SoakReport;

/// The attribute every node registers and feeds with `1.0`.
pub const GRAY_ATTR: &str = "cpu-usage";

/// Parameters of one gray-failure soak run.
#[derive(Clone, Copy, Debug)]
pub struct GrayConfig {
    /// Ring size.
    pub nodes: usize,
    /// Identifier-space width (bits).
    pub space_bits: u8,
    /// Seed for ring construction and the transport.
    pub seed: u64,
    /// Aggregation epoch length, ms.
    pub epoch_ms: u64,
    /// Fault-free head (ring warms up, detector learns its baselines).
    pub warmup_ms: u64,
    /// Length of the slow-parent and flapper episodes, ms.
    pub episode_ms: u64,
    /// Fault-free tail (quarantine expiry, rejoin and healing land here).
    pub quiesce_ms: u64,
}

impl Default for GrayConfig {
    fn default() -> Self {
        GrayConfig {
            nodes: 32,
            space_bits: 32,
            seed: 1,
            epoch_ms: 5_000,
            warmup_ms: 40_000,
            episode_ms: 45_000,
            quiesce_ms: 90_000,
        }
    }
}

impl GrayConfig {
    /// Episode schedule: `(slow_at, degrade_at, overload_at, flap_at,
    /// faults_end)`. Episodes run back-to-back so each failure mode gets a
    /// clean window.
    fn schedule(&self) -> (u64, u64, u64, u64, u64) {
        let slow_at = self.warmup_ms;
        let degrade_at = slow_at + self.episode_ms;
        let overload_at = degrade_at + self.episode_ms / 2;
        let flap_at = overload_at + self.episode_ms / 2;
        let faults_end = flap_at + self.episode_ms;
        (slow_at, degrade_at, overload_at, flap_at, faults_end)
    }

    /// Total virtual run length, ms.
    pub fn total_ms(&self) -> u64 {
        self.schedule().4 + self.quiesce_ms
    }
}

/// Everything a gray run measured. `violations` embeds the seed, so
/// asserting emptiness prints the replay handle for free.
#[derive(Clone, Debug)]
pub struct GrayOutcome {
    /// The seed that produced this run.
    pub seed: u64,
    /// Digest of the generated fault schedule.
    pub digest: u64,
    /// Virtual run length, ms.
    pub sim_ms: u64,
    /// Discrete events the simulator processed.
    pub events_processed: u64,
    /// Every root report observed, in drain order.
    pub log: Vec<SoakReport>,
    /// Invariant breaches (empty for a healthy run).
    pub violations: Vec<String>,
    /// Largest gap between consecutive root reports after warmup, ms.
    pub max_report_gap_ms: u64,
    /// Lowest coverage ratio while faults were live.
    pub min_ratio_during_faults: f64,
    /// Coverage ratio of the final report.
    pub final_ratio: f64,
    /// Fleet-wide Healthy → Suspect transitions.
    pub fleet_suspects: u64,
    /// Fleet-wide flap-damping quarantines.
    pub fleet_quarantines: u64,
    /// Fleet-wide quarantine → Healthy rejoins.
    pub fleet_rejoins: u64,
    /// Fleet-wide phi-triggered re-parents (ahead of any RTO).
    pub fleet_proactive_reparents: u64,
    /// Fleet-wide payloads shed by the bounded inboxes (all classes).
    pub fleet_sheds: u64,
}

/// Run one gray-failure soak: pre-stabilized ring, deterministic victim
/// selection from the implicit DAT, four failure episodes, scored tail.
pub fn run_gray(cfg: &GrayConfig) -> GrayOutcome {
    run_gray_on(cfg, 1)
}

/// [`run_gray`] on `shards` engine shards; the outcome does not depend on
/// the count.
fn run_gray_on(cfg: &GrayConfig, shards: usize) -> GrayOutcome {
    let space = IdSpace::new(cfg.space_bits);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let ring = StaticRing::build(space, cfg.nodes, IdPolicy::Probed, &mut rng);
    let ccfg = ChordConfig {
        space,
        stabilize_ms: 2_500,
        fix_fingers_ms: 1_000,
        check_pred_ms: 2_000,
        req_timeout_ms: 1_200,
        rto_max_ms: 4_000,
        max_retries: 1,
        ..ChordConfig::default()
    };
    let dcfg = DatConfig {
        scheme: RoutingScheme::Balanced,
        epoch_ms: cfg.epoch_ms,
        hold_ms: 500,
        d0_hint: Some(ring.d0()),
        ..DatConfig::default()
    };
    let mut net: SimNet<StackNode> = prestabilized_dat(&ring, ccfg, dcfg, cfg.seed);
    net.set_shards(shards);
    net.set_record_upcalls(false);
    let book = addr_book(&ring);
    let key = dat_chord::hash_to_id(space, GRAY_ATTR.as_bytes());
    // Health plane tuned for the soak's timescales: shorter quarantine so
    // rejoin lands inside the quiesce tail, and a flap window wide enough
    // to catch the injected oscillation.
    let hcfg = HealthConfig {
        quarantine_ms: 25_000,
        flap_window_ms: 60_000,
        flap_threshold: 3,
        ..HealthConfig::default()
    };
    // Bounded inboxes on: the overload burst must be shed, not queued.
    let inbox = InboxPolicy {
        service_ms: 20,
        agg_capacity: 64,
        stats_capacity: 8,
    };
    for &id in ring.ids() {
        if let Some(node) = net.node_mut(book[&id]) {
            let k = node.register(GRAY_ATTR, AggregationMode::Continuous);
            node.set_local(k, 1.0);
            node.set_health_config(hcfg);
            node.set_inbox_policy(inbox);
        }
    }

    // Deterministic victim selection from the implicit DAT: interior
    // (parent) nodes carry subtrees, so slowing one visibly degrades
    // completeness without silencing the root. Ranked by branching so the
    // slow-parent episode hits the biggest subtree.
    let tree = DatTree::build(&ring, key, RoutingScheme::Balanced);
    let root_id = tree.root();
    let mut interior: Vec<Id> = tree.interior_nodes().filter(|v| *v != root_id).collect();
    interior.sort_by_key(|v| (std::cmp::Reverse(tree.branching(*v)), v.0));
    // Leaves (for the flapper / overload victims) — nodes whose slowness
    // must be *detected* but whose subtree loss is small.
    let mut leaves: Vec<Id> = tree
        .all_ids()
        .copied()
        .filter(|v| *v != root_id && tree.branching(*v) == 0)
        .collect();
    leaves.sort_by_key(|v| v.0);
    let slow_victim = book[interior.first().unwrap_or(&ring.ids()[0])];
    let degrade_victim = book[interior.get(1).or(leaves.first()).unwrap_or(&ring.ids()[0])];
    let degrade_parent = tree
        .parent(*interior.get(1).or(leaves.first()).unwrap_or(&ring.ids()[0]))
        .map(|p| book[&p])
        .unwrap_or(book[&root_id]);
    let overload_victim = book[leaves.first().unwrap_or(&ring.ids()[0])];
    let flap_victim = book[leaves.get(1).unwrap_or(&ring.ids()[0])];

    let (slow_at, degrade_at, overload_at, flap_at, faults_end) = cfg.schedule();
    let mut plan = FaultPlan::new()
        // Episode 1 — slow parent: serializes every delivery through a
        // multi-second processing budget. Children must suspect it and
        // re-parent proactively; the root keeps reporting with degraded
        // completeness.
        .slowdown_at(slow_at, slow_victim, 3_000, cfg.episode_ms)
        // Episode 2 — half-open link: the victim's traffic toward its DAT
        // parent is mostly lost and jittered, the reverse direction is
        // clean. The parent must suspect the child and stop waiting on it.
        .degrade_link_at(
            degrade_at,
            degrade_victim,
            degrade_parent,
            LinkFault {
                loss: 0.9,
                extra_latency_ms: 400,
            },
            300,
            cfg.episode_ms / 2,
        )
        // Episode 3 — overload burst: junk floods one node faster than its
        // virtual service rate; the bounded inbox must shed, not stall.
        .overload_at(overload_at, overload_victim, 400, 2_000);
    // Episode 4 — flapper: short slowdowns with clean gaps, oscillating
    // Suspect → recover until flap damping quarantines the peer.
    let cycle = 15_000u64;
    let mut t = flap_at;
    while t + cycle <= faults_end {
        plan = plan.slowdown_at(t, flap_victim, 3_000, 10_000);
        t += cycle;
    }
    let digest = plan.digest();
    net.set_fault_plan(plan);

    // Drive in half-epoch steps, draining every node's reports.
    let total = cfg.total_ms();
    let step = (cfg.epoch_ms / 2).max(1);
    let mut log: Vec<SoakReport> = Vec::new();
    // Gray faults never change membership (nothing crashes), so one
    // sorted address snapshot serves the whole drive loop; the membership
    // epoch check is belt-and-braces against future fault kinds.
    let mut cached_addrs = net.addrs();
    let mut cached_epoch = net.membership_epoch();
    while net.now().as_millis() < total {
        let now = net.now().as_millis();
        net.run_for(step.min(total - now));
        let t = net.now().as_millis();
        if net.membership_epoch() != cached_epoch {
            cached_addrs = net.addrs();
            cached_epoch = net.membership_epoch();
        }
        for &addr in &cached_addrs {
            let Some(node) = net.node_mut(addr) else {
                continue;
            };
            for ev in node.take_events() {
                if let DatEvent::Report {
                    key: k,
                    epoch,
                    completeness,
                    ..
                } = ev
                {
                    if k == key {
                        log.push(SoakReport {
                            t_ms: t,
                            addr,
                            epoch,
                            completeness,
                        });
                    }
                }
            }
        }
    }

    let fleet = crate::obs::fleet_registry(&net);
    let fleet_suspects = fleet.counter_sum("suspects_total");
    let fleet_quarantines = fleet.counter_sum("quarantines_total");
    let fleet_rejoins = fleet.counter_sum("rejoins_total");
    let fleet_proactive_reparents = fleet.counter_sum("proactive_reparents_total");
    let fleet_sheds = fleet.counter_sum("engine_shed_total");

    let seed = cfg.seed;
    let n = cfg.nodes as u64;
    let mut violations = Vec::new();

    // The overloaded node's own exposition must carry the new counters and
    // parse as valid Prometheus text.
    match net.node(overload_victim) {
        Some(node) => {
            let text = node.render_prometheus();
            for series in ["engine_shed_total", "suspects_total"] {
                if !text.contains(series) {
                    violations.push(format!(
                        "seed {seed}: `{series}` missing from the Prometheus exposition"
                    ));
                }
            }
            if let Err(e) = dat_obs::validate_prometheus(&text) {
                violations.push(format!("seed {seed}: invalid Prometheus exposition: {e}"));
            }
        }
        None => violations.push(format!("seed {seed}: overload victim vanished")),
    }

    // No stalls: consecutive root reports never drift further apart than
    // one epoch plus 2×RTO (the proactive bound) plus drain quantization.
    let gap_bound = cfg.epoch_ms + 2 * ccfg.rto_max_ms + step;
    let mut max_gap = 0u64;
    let after_warmup: Vec<&SoakReport> = log.iter().filter(|r| r.t_ms >= cfg.warmup_ms).collect();
    if after_warmup.len() < 2 {
        violations.push(format!("seed {seed}: too few reports after warmup"));
    }
    for w in after_warmup.windows(2) {
        let gap = w[1].t_ms - w[0].t_ms;
        max_gap = max_gap.max(gap);
        if gap > gap_bound {
            violations.push(format!(
                "seed {seed}: epoch report stalled — {gap} ms between reports at {} ms \
                 exceeds the {gap_bound} ms bound (epoch + 2×RTO + drain step)",
                w[1].t_ms
            ));
        }
    }

    // Degradation must be *visible* in completeness while faults are live…
    let min_ratio_during_faults = log
        .iter()
        .filter(|r| r.t_ms >= slow_at && r.t_ms < faults_end)
        .map(|r| r.completeness.ratio)
        .fold(f64::INFINITY, f64::min);
    if min_ratio_during_faults >= 1.0 {
        violations.push(format!(
            "seed {seed}: completeness never dipped below 1.0 — the gray faults were \
             invisible to the accounting"
        ));
    }
    // …and healed by the end of the quiesce tail.
    let final_ratio = log.last().map(|r| r.completeness.ratio).unwrap_or(0.0);
    let healed = log
        .iter()
        .any(|r| r.t_ms >= faults_end && r.completeness.contributors >= n);
    if !healed {
        violations.push(format!(
            "seed {seed}: completeness never returned to full coverage after the \
             faults ended at {faults_end} ms"
        ));
    }

    // The suspicion machinery must have actually fired, each stage of it.
    if fleet_suspects == 0 {
        violations.push(format!(
            "seed {seed}: no peer was ever suspected — the detector slept through \
             the gray failures"
        ));
    }
    if fleet_proactive_reparents == 0 {
        violations.push(format!(
            "seed {seed}: no proactive re-parent — every failover waited for an RTO"
        ));
    }
    if fleet_quarantines == 0 {
        violations.push(format!(
            "seed {seed}: the flapping peer was never quarantined"
        ));
    }
    if fleet_rejoins == 0 {
        violations.push(format!(
            "seed {seed}: no quarantined peer ever rejoined after stabilizing"
        ));
    }
    if fleet_sheds == 0 {
        violations.push(format!(
            "seed {seed}: the overload burst was never shed — the inbox queued it all"
        ));
    }

    GrayOutcome {
        seed,
        digest,
        sim_ms: total,
        events_processed: net.events_processed(),
        max_report_gap_ms: max_gap,
        min_ratio_during_faults,
        final_ratio,
        log,
        violations,
        fleet_suspects,
        fleet_quarantines,
        fleet_rejoins,
        fleet_proactive_reparents,
        fleet_sheds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_ordered_and_bounded() {
        let cfg = GrayConfig::default();
        let (slow, degrade, overload, flap, end) = cfg.schedule();
        assert!(cfg.warmup_ms <= slow && slow < degrade);
        assert!(degrade < overload && overload < flap && flap < end);
        assert_eq!(cfg.total_ms(), end + cfg.quiesce_ms);
    }

    /// Two identically-seeded runs must inject the identical schedule and
    /// observe the identical report log — the replay guarantee the digest
    /// stands for. (Full invariant runs live in tests/gray_failures.rs.)
    #[test]
    fn gray_run_is_seed_replayable() {
        let cfg = GrayConfig {
            nodes: 12,
            warmup_ms: 20_000,
            episode_ms: 20_000,
            quiesce_ms: 30_000,
            seed: 7,
            ..GrayConfig::default()
        };
        let a = run_gray(&cfg);
        let b = run_gray(&cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.log.len(), b.log.len());
        for (x, y) in a.log.iter().zip(&b.log) {
            assert_eq!((x.t_ms, x.addr, x.epoch), (y.t_ms, y.addr, y.epoch));
            assert_eq!(x.completeness.contributors, y.completeness.contributors);
        }
    }

    /// Slowdown requeues, link degradation, an overload burst and a
    /// flapping link on four worker threads: the same log, scores and
    /// counters as on one, for the seeds CI scores.
    #[test]
    fn gray_run_is_shard_count_invariant() {
        for seed in [1, 2] {
            let cfg = GrayConfig {
                seed,
                ..GrayConfig::default()
            };
            assert_eq!(
                format!("{:?}", run_gray_on(&cfg, 4)),
                format!("{:?}", run_gray_on(&cfg, 1)),
                "seed {seed}: the shard count changed the gray soak"
            );
        }
    }
}
