//! Churn soak harness: simulated hours of randomized faults against one
//! continuous aggregation, with per-epoch invariant accounting.
//!
//! The paper's churn experiments (§6) run minutes of a single fault kind.
//! This harness composes every fault the simulator can inject — crashes
//! with restarts, partitions with heals, flaky links, duplication bursts,
//! and (optionally) a root crash mid-epoch — into a seed-replayable
//! schedule, then checks the *self-healing* properties the failure
//! semantics promise:
//!
//! * completeness returns to 1.0 within a bounded number of epochs after
//!   the fault schedule drains, and stays there;
//! * no contributor is double-counted once re-parenting transients (at
//!   most `child_ttl_epochs` + tree height epochs) have passed;
//! * exactly one node reports per key per epoch once the report fence has
//!   settled;
//! * a root crash loses at most one epoch of reports, and the failed-over
//!   root's *first* report already covers (nearly) the whole grid — the
//!   warm-failover replica, not a cold rebuild.
//!
//! Every run is fully determined by [`SoakConfig::seed`]; the generated
//! [`FaultPlan`]'s digest is returned so a failing run can be replayed
//! bit-for-bit.

// New module: crashes in a soak run must carry context, never a bare
// unwrap panic.
#![deny(clippy::unwrap_used)]

use std::collections::{HashMap, HashSet};

use dat_chord::{ChordConfig, Id, IdPolicy, IdSpace, NodeAddr, RoutingScheme, StaticRing};
use dat_core::{AggregationMode, Completeness, DatConfig, DatEvent, DatProtocol, StackNode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fault::{FaultPlan, LinkFault};
use crate::harness::{addr_book, prestabilized_dat};
use crate::net::SimNet;

/// The attribute every soak node registers and feeds with `1.0`, so the
/// ground-truth Sum/Count/contributors all equal the node count.
pub const SOAK_ATTR: &str = "cpu-usage";

/// Parameters of one soak run. Everything is virtual time; a run is fully
/// determined by `seed`.
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// Ring size.
    pub nodes: usize,
    /// Identifier-space width (bits).
    pub space_bits: u8,
    /// Seed for ring construction, the fault schedule and the transport.
    pub seed: u64,
    /// Aggregation epoch length, ms.
    pub epoch_ms: u64,
    /// Fault-free head (ring warms up, reports reach steady state).
    pub warmup_ms: u64,
    /// Randomized-fault window length.
    pub churn_ms: u64,
    /// Fault-free tail (the self-healing claims are checked here).
    pub quiesce_ms: u64,
    /// Number of fault episodes spread over the churn window.
    pub episodes: usize,
    /// Also crash the acting root mid-epoch (warm-failover probe).
    pub crash_root: bool,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            nodes: 64,
            space_bits: 32,
            seed: 1,
            epoch_ms: 5_000,
            warmup_ms: 30_000,
            churn_ms: 240_000,
            quiesce_ms: 150_000,
            episodes: 6,
            crash_root: true,
        }
    }
}

impl SoakConfig {
    /// Total virtual run length, ms.
    pub fn total_ms(&self) -> u64 {
        self.warmup_ms + self.churn_ms + self.quiesce_ms
    }

    /// When the fault schedule drains (start of the quiesce tail), ms.
    pub fn churn_end_ms(&self) -> u64 {
        self.warmup_ms + self.churn_ms
    }

    /// Epochs allowed for completeness to return to 1.0 after the faults
    /// stop: soft-state expiry plus one cascade through the tree height,
    /// plus slack for the chord maintenance timers to re-converge.
    pub fn recovery_bound_epochs(&self) -> u64 {
        let height = (usize::BITS - self.nodes.leading_zeros()) as u64;
        DatConfig::default().child_ttl_epochs + height + 4
    }
}

/// One root report observed during the run (timestamp quantized to the
/// half-epoch drain step).
#[derive(Clone, Copy, Debug)]
pub struct SoakReport {
    /// Drain time, virtual ms.
    pub t_ms: u64,
    /// The reporting node's simulator address.
    pub addr: NodeAddr,
    /// The reporter's local epoch index.
    pub epoch: u64,
    /// The report's completeness accounting.
    pub completeness: Completeness,
}

/// Everything a soak run measured. `violations` lists every invariant
/// breach with the seed embedded, so asserting `violations.is_empty()`
/// prints the replay handle for free.
#[derive(Clone, Debug)]
pub struct SoakOutcome {
    /// The seed that produced this run (replay handle).
    pub seed: u64,
    /// Digest of the generated fault schedule (replay fingerprint).
    pub digest: u64,
    /// Virtual run length, ms.
    pub sim_ms: u64,
    /// Discrete events the simulator processed.
    pub events_processed: u64,
    /// Nodes alive when the run ended (all of them, for a healthy run —
    /// every crash is paired with a restart).
    pub live_nodes_final: usize,
    /// Every root report observed, in drain order.
    pub log: Vec<SoakReport>,
    /// Invariant breaches (empty for a healthy run).
    pub violations: Vec<String>,
    /// First time after the churn window with full coverage, if any.
    pub recovered_at_ms: Option<u64>,
    /// Epochs from churn end to recovery, if recovery happened.
    pub recovery_epochs: Option<u64>,
    /// The bound `recovery_epochs` is expected to respect.
    pub recovery_bound_epochs: u64,
    /// Lowest coverage ratio observed during the churn window (shows the
    /// accounting actually registered the injected degradation).
    pub min_ratio_during_churn: f64,
    /// Contributors in the final observed report.
    pub final_contributors: u64,
    /// Coverage ratio of the final observed report.
    pub final_ratio: f64,
    /// When the acting root was crashed, if `crash_root` was set.
    pub root_crash_at_ms: Option<u64>,
    /// Delay from the root crash to the next report from any node.
    pub failover_delay_ms: Option<u64>,
    /// Contributors in that first post-crash report (warm ≈ ring size).
    pub failover_contributors: Option<u64>,
    /// Fleet-wide request timeouts over the whole run (all layers), from
    /// the merged observability registry.
    pub fleet_timeouts: u64,
    /// Fleet-wide datagram retransmissions over the whole run.
    pub fleet_retransmits: u64,
    /// Fleet-wide undecodable/dropped payloads over the whole run.
    pub fleet_dropped: u64,
    /// Fleet-wide failure-detector suspicion transitions (Healthy →
    /// Suspect) over the whole run.
    pub fleet_suspects: u64,
    /// Fleet-wide flap-damping quarantines over the whole run.
    pub fleet_quarantines: u64,
    /// Fleet-wide payloads shed by the bounded engine inboxes (all
    /// classes) over the whole run.
    pub fleet_sheds: u64,
}

/// Run one soak: build a pre-stabilized ring, inject the seeded fault
/// schedule, drain reports every half epoch, then score the run.
pub fn run_soak(cfg: &SoakConfig) -> SoakOutcome {
    run_soak_on(cfg, 1)
}

/// [`run_soak`] on `shards` engine shards; the outcome does not depend on
/// the count.
fn run_soak_on(cfg: &SoakConfig, shards: usize) -> SoakOutcome {
    let space = IdSpace::new(cfg.space_bits);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let ring = StaticRing::build(space, cfg.nodes, IdPolicy::Probed, &mut rng);
    // Aggressive maintenance: a crashed node leaves stale fingers behind,
    // and a lookup forwarded through one is dropped silently (forwarding
    // is unacked, like the paper's UDP prototype). The only repair lever
    // is the round-robin finger fixer — at the default cadence one
    // full two-strike eviction takes minutes, longer than the quiesce
    // tail, so joins through a stale route would starve. One fixer step
    // per second bounds stale-finger lifetime to ~2·space_bits seconds.
    let ccfg = ChordConfig {
        space,
        stabilize_ms: 2_500,
        fix_fingers_ms: 1_000,
        check_pred_ms: 2_000,
        req_timeout_ms: 1_200,
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
    let key = dat_chord::hash_to_id(space, SOAK_ATTR.as_bytes());
    for &id in ring.ids() {
        if let Some(node) = net.node_mut(book[&id]) {
            let k = node.register(SOAK_ATTR, AggregationMode::Continuous);
            node.set_local(k, 1.0);
        }
    }
    let root_addr = book[&ring.successor(key)];
    // One node is exempt from every fault so restarts always have a live,
    // reachable bootstrap in the majority component.
    let stable_addr = if root_addr == NodeAddr(0) {
        NodeAddr(1)
    } else {
        NodeAddr(0)
    };
    let bootstrap = match net.node(stable_addr) {
        Some(n) => n.me(),
        None => unreachable!("stable node exists at construction"),
    };
    let id_of: HashMap<NodeAddr, Id> = book.iter().map(|(id, a)| (*a, *id)).collect();
    // A crash-restart is a new incarnation: it must come back under a
    // fresh id *and* a fresh address. Reusing the old address deadlocks
    // the rejoin — the joiner answers pings and neighbor queries at the
    // address its dead identity is known by, so neighbors never evict it
    // and keep routing the join lookup straight back to the joiner, which
    // cannot serve lookups while joining. The id is perturbed per
    // incarnation so the ring-position bookkeeping (e.g. the root's id
    // staying just past the key) is preserved. The registry maps a live
    // address back to its lineage and is shared between the fault-plan
    // restart hook and the rejoin supervisor below.
    type Lineage = (HashMap<NodeAddr, (Id, u64)>, u64);
    let registry: std::rc::Rc<std::cell::RefCell<Lineage>> =
        std::rc::Rc::new(std::cell::RefCell::new((HashMap::new(), cfg.nodes as u64)));
    let spawn = {
        let registry = std::rc::Rc::clone(&registry);
        move |addr: NodeAddr| -> Option<(StackNode, Vec<dat_chord::Output>)> {
            let mut reg = registry.borrow_mut();
            let (lineage, next_addr) = &mut *reg;
            let (base, gen) = match lineage.remove(&addr) {
                Some(l) => l,
                None => (*id_of.get(&addr)?, 0),
            };
            let id = space.add(base, gen + 1);
            let fresh = NodeAddr(*next_addr);
            *next_addr += 1;
            lineage.insert(fresh, (base, gen + 1));
            let mut node = StackNode::new(ccfg, id, fresh).with_app(DatProtocol::new(dcfg));
            let k = node.register(SOAK_ATTR, AggregationMode::Continuous);
            node.set_local(k, 1.0);
            let outs = node.start_join(bootstrap);
            Some((node, outs))
        }
    };
    net.set_restart_fn(spawn.clone());
    let all = net.addrs();
    let (plan, root_crash_at_ms) = build_plan(&mut rng, cfg, &all, root_addr, stable_addr);
    let digest = plan.digest();
    net.set_fault_plan(plan);

    // Drive in half-epoch steps, draining every node's reports so a
    // report's timestamp is within half an epoch of when it was emitted.
    let total = cfg.total_ms();
    let step = (cfg.epoch_ms / 2).max(1);
    // A restart that lands while stale routes still point at the node's
    // dead incarnation can exhaust the chord layer's join retries and park
    // the node in `Joining` forever. Real grid daemons retry; this
    // supervisor does the same — a node stuck joining for a few epochs is
    // torn down and re-joined through the stable bootstrap.
    let rejoin_after_ms = 4 * cfg.epoch_ms;
    let mut joining_since: HashMap<NodeAddr, u64> = HashMap::new();
    let mut log: Vec<SoakReport> = Vec::new();
    // The sorted address list is only rebuilt when membership actually
    // changed (crash/restart), not on every half-epoch step — the engine's
    // membership epoch is the cache key. Within a step the cache may
    // briefly name a node the supervisor below just tore down; the
    // per-address lookups already tolerate that (dead → `None` → skip),
    // exactly as a fresh `addrs()` snapshot taken before the teardown
    // would.
    let mut cached_addrs: Vec<NodeAddr> = net.addrs();
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
        for &addr in &cached_addrs {
            let stuck = net
                .node(addr)
                .is_some_and(|n| n.status() == dat_chord::NodeStatus::Joining);
            if !stuck {
                joining_since.remove(&addr);
                continue;
            }
            let since = *joining_since.entry(addr).or_insert(t);
            if t.saturating_sub(since) >= rejoin_after_ms {
                let _ = net.crash(addr);
                if let Some((node, outs)) = spawn(addr) {
                    let fresh = node.me().addr;
                    net.add_node(node);
                    net.apply(fresh, outs);
                }
                joining_since.insert(addr, t);
            }
        }
    }
    let live = net.addrs().len();
    // Fleet-wide loss/retry tallies: counted per node all along, surfaced
    // here via the merged observability registry (survivors only — a
    // crashed incarnation's counters die with it, like real monitoring).
    let fleet = crate::obs::fleet_registry(&net);
    let fleet_totals = (
        fleet.counter_sum("timeouts_total"),
        fleet.counter_sum("retransmits_total"),
        fleet.counter_sum("dropped_total"),
        fleet.counter_sum("suspects_total"),
        fleet.counter_sum("quarantines_total"),
        fleet.counter_sum("engine_shed_total"),
    );
    score(
        cfg,
        digest,
        net.events_processed(),
        live,
        log,
        root_crash_at_ms,
        fleet_totals,
    )
}

/// Check the run's invariants and fold everything into a [`SoakOutcome`].
fn score(
    cfg: &SoakConfig,
    digest: u64,
    events_processed: u64,
    live_nodes_final: usize,
    log: Vec<SoakReport>,
    root_crash_at_ms: Option<u64>,
    fleet_totals: (u64, u64, u64, u64, u64, u64),
) -> SoakOutcome {
    let (
        fleet_timeouts,
        fleet_retransmits,
        fleet_dropped,
        fleet_suspects,
        fleet_quarantines,
        fleet_sheds,
    ) = fleet_totals;
    let seed = cfg.seed;
    let n = cfg.nodes as u64;
    let churn_end = cfg.churn_end_ms();
    let recovery_bound_epochs = cfg.recovery_bound_epochs();
    let settle_start = churn_end + recovery_bound_epochs * cfg.epoch_ms;
    let mut violations = Vec::new();

    // Every crash in the plan is paired with a restart, so the population
    // must come back to exactly `nodes` — a leak here would make the
    // contributor invariants below lie in both directions.
    if live_nodes_final != cfg.nodes {
        violations.push(format!(
            "seed {seed}: harness population leak — {live_nodes_final} live nodes              at end of run, configured {}",
            cfg.nodes
        ));
    }

    // The settled tail: after soft-state expiry and one full cascade, the
    // self-healing claims must hold on *every* report.
    let settled: Vec<&SoakReport> = log.iter().filter(|r| r.t_ms >= settle_start).collect();
    if settled.is_empty() {
        violations.push(format!(
            "seed {seed}: no reports at all after settle point {settle_start} ms"
        ));
    }
    for r in &settled {
        if r.completeness.contributors > n {
            violations.push(format!(
                "seed {seed}: {} contributors > {n} nodes at {} ms — double counting \
                 survived past the decay bound",
                r.completeness.contributors, r.t_ms
            ));
        }
        if r.completeness.contributors < n {
            violations.push(format!(
                "seed {seed}: coverage stuck at {}/{n} at {} ms — completeness never \
                 healed",
                r.completeness.contributors, r.t_ms
            ));
        }
    }
    let reporters: HashSet<NodeAddr> = settled.iter().map(|r| r.addr).collect();
    if reporters.len() > 1 {
        violations.push(format!(
            "seed {seed}: {} distinct nodes still reporting after the fence settled: \
             {reporters:?}",
            reporters.len()
        ));
    } else {
        // A single surviving reporter must advance its fence strictly.
        for w in settled.windows(2) {
            if w[1].completeness.seq <= w[0].completeness.seq {
                violations.push(format!(
                    "seed {seed}: report fence not strictly monotone at {} ms \
                     ({} -> {})",
                    w[1].t_ms, w[0].completeness.seq, w[1].completeness.seq
                ));
                break;
            }
        }
    }

    let recovered_at_ms = log
        .iter()
        .find(|r| r.t_ms >= churn_end && r.completeness.contributors >= n)
        .map(|r| r.t_ms);
    if recovered_at_ms.is_none() {
        violations.push(format!(
            "seed {seed}: completeness never returned to 1.0 after the fault \
             schedule drained at {churn_end} ms"
        ));
    }
    let recovery_epochs = recovered_at_ms.map(|t| (t - churn_end).div_ceil(cfg.epoch_ms));

    let min_ratio_during_churn = log
        .iter()
        .filter(|r| r.t_ms >= cfg.warmup_ms && r.t_ms < churn_end)
        .map(|r| r.completeness.ratio)
        .fold(f64::INFINITY, f64::min);

    let (failover_delay_ms, failover_contributors) = match root_crash_at_ms {
        Some(rc) => match log.iter().find(|r| r.t_ms > rc) {
            Some(first) => (Some(first.t_ms - rc), Some(first.completeness.contributors)),
            None => {
                violations.push(format!(
                    "seed {seed}: no report from any node after the root crash at {rc} ms"
                ));
                (None, None)
            }
        },
        None => (None, None),
    };

    let (final_contributors, final_ratio) = log
        .last()
        .map(|r| (r.completeness.contributors, r.completeness.ratio))
        .unwrap_or((0, 0.0));

    SoakOutcome {
        seed,
        digest,
        sim_ms: cfg.total_ms(),
        events_processed,
        live_nodes_final,
        log,
        violations,
        recovered_at_ms,
        recovery_epochs,
        recovery_bound_epochs,
        min_ratio_during_churn,
        final_contributors,
        final_ratio,
        root_crash_at_ms,
        failover_delay_ms,
        failover_contributors,
        fleet_timeouts,
        fleet_retransmits,
        fleet_dropped,
        fleet_suspects,
        fleet_quarantines,
        fleet_sheds,
    }
}

/// Generate the seeded fault schedule: the churn window is sliced into
/// `episodes` non-overlapping slots, each holding one randomized episode
/// (crash burst, partition, flaky links, or a duplication burst), every
/// crash paired with a restart and every partition with a heal inside its
/// own slot — so the quiesce tail is genuinely fault-free. When
/// `crash_root` is set, the middle slot is reserved for crashing the
/// acting root mid-epoch.
fn build_plan(
    rng: &mut SmallRng,
    cfg: &SoakConfig,
    all: &[NodeAddr],
    root_addr: NodeAddr,
    stable_addr: NodeAddr,
) -> (FaultPlan, Option<u64>) {
    let churn_start = cfg.warmup_ms;
    let churn_end = cfg.churn_end_ms();
    let episodes = cfg.episodes.max(1) as u64;
    let slot = (cfg.churn_ms / episodes).max(4 * cfg.epoch_ms);
    let mut plan = FaultPlan::new();
    let mut root_crash_at = None;
    let crash_pool: Vec<NodeAddr> = all
        .iter()
        .copied()
        .filter(|a| *a != stable_addr && *a != root_addr)
        .collect();
    let part_pool: Vec<NodeAddr> = all.iter().copied().filter(|a| *a != stable_addr).collect();
    // One crash per lineage per plan: a restarted node comes back at a
    // fresh address, so a second crash aimed at the original address would
    // kill nothing while its paired restart still fires — silently growing
    // the population (and faulting the no-double-count scoring with a
    // perfectly honest 49-of-48 report).
    let mut crashed: HashSet<NodeAddr> = HashSet::new();
    for i in 0..cfg.episodes {
        let t0 = churn_start + i as u64 * slot;
        let t_end = (t0 + slot).min(churn_end);
        if t_end <= t0 + 3 * cfg.epoch_ms {
            continue; // degenerate tail slot — skip rather than overflow
        }
        if cfg.crash_root && i == cfg.episodes / 2 {
            // Crash the acting root exactly mid-epoch, restart it a few
            // epochs later (it then re-takes the key from the interim
            // root — a second, reverse handoff for free).
            let at = ((t0 / cfg.epoch_ms) + 1) * cfg.epoch_ms + cfg.epoch_ms / 2;
            let back = (at + 6 * cfg.epoch_ms)
                .min(t_end.saturating_sub(cfg.epoch_ms))
                .max(at + cfg.epoch_ms);
            plan = plan.crash_at(at, root_addr).restart_at(back, root_addr);
            root_crash_at = Some(at);
            continue;
        }
        plan = match rng.random_range(0u32..100) {
            // Crash burst: a few nodes die, each restarts within the slot.
            0..=39 => {
                let burst = rng.random_range(1..=(all.len() / 32).max(1));
                let mut p = plan;
                for _ in 0..burst {
                    let v = crash_pool[rng.random_range(0..crash_pool.len())];
                    if !crashed.insert(v) {
                        continue; // this lineage already crashed once
                    }
                    let at = t0 + rng.random_range(0..slot / 4).max(1);
                    let back = (at + cfg.epoch_ms * rng.random_range(2u64..=5))
                        .min(t_end.saturating_sub(cfg.epoch_ms))
                        .max(at + cfg.epoch_ms);
                    p = p.crash_at(at, v).restart_at(back, v);
                }
                p
            }
            // Partition: an eighth to a quarter of the ring, healed in-slot.
            40..=69 => {
                let g =
                    rng.random_range((part_pool.len() / 8).max(1)..=(part_pool.len() / 4).max(1));
                let mut pool = part_pool.clone();
                for j in 0..g {
                    let k = rng.random_range(j..pool.len());
                    pool.swap(j, k);
                }
                pool.truncate(g);
                let at = t0 + rng.random_range(0..slot / 4);
                let heal = (at + cfg.epoch_ms * rng.random_range(4u64..=8))
                    .min(t_end.saturating_sub(cfg.epoch_ms))
                    .max(at + cfg.epoch_ms);
                plan.partition_at(at, pool).heal_at(heal)
            }
            // Flaky links: a handful of lossy, slow directed links.
            70..=84 => {
                let m = rng.random_range(3u32..=8);
                let mut p = plan;
                for _ in 0..m {
                    let from = all[rng.random_range(0..all.len())];
                    let to = all[rng.random_range(0..all.len())];
                    if from == to {
                        continue;
                    }
                    let fault = LinkFault {
                        loss: 0.3 + 0.6 * rng.random::<f64>(),
                        extra_latency_ms: rng.random_range(0u64..50),
                    };
                    let at = t0 + rng.random_range(0..slot / 2);
                    let for_ms = rng
                        .random_range(cfg.epoch_ms..=(slot / 2).max(cfg.epoch_ms + 1))
                        .min(t_end.saturating_sub(at));
                    p = p.flaky_link_at(at, from, to, fault, for_ms);
                }
                p
            }
            // Duplication burst: the transport replays datagrams for a while.
            _ => {
                let prob = 0.05 + 0.25 * rng.random::<f64>();
                let at = t0 + rng.random_range(0..slot / 4);
                let off = (at + cfg.epoch_ms * rng.random_range(3u64..=6)).min(t_end);
                plan.duplication_at(at, prob).duplication_at(off, 0.0)
            }
        };
    }
    (plan, root_crash_at)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_seed_deterministic_and_self_healing() {
        let cfg = SoakConfig::default();
        let mk = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let all: Vec<NodeAddr> = (0..64).map(NodeAddr).collect();
            build_plan(&mut rng, &cfg, &all, NodeAddr(5), NodeAddr(0))
        };
        let (a, rc_a) = mk(7);
        let (b, rc_b) = mk(7);
        assert_eq!(a.digest(), b.digest(), "same seed, same schedule");
        assert_eq!(rc_a, rc_b);
        let (c, _) = mk(8);
        assert_ne!(a.digest(), c.digest(), "different seed, different schedule");
        // Every crash has a later restart; every partition a later heal;
        // everything resolves before the churn window ends.
        use crate::fault::FaultEvent;
        let mut pending_crash: HashMap<NodeAddr, u64> = HashMap::new();
        let mut pending_part: Option<u64> = None;
        for (at, ev) in a.events() {
            assert!(*at < cfg.churn_end_ms(), "fault after churn end: {ev:?}");
            match ev {
                FaultEvent::Crash { node } => {
                    assert!(pending_crash.insert(*node, *at).is_none());
                }
                FaultEvent::Restart { node } => {
                    let t = pending_crash.remove(node).expect("restart without crash");
                    assert!(*at > t, "restart not after crash");
                }
                FaultEvent::Partition { .. } => {
                    assert!(pending_part.is_none(), "overlapping partitions");
                    pending_part = Some(*at);
                }
                FaultEvent::Heal => {
                    let t = pending_part.take().expect("heal without partition");
                    assert!(*at > t);
                }
                _ => {}
            }
        }
        assert!(pending_crash.is_empty(), "unrestarted crash victims");
        assert!(pending_part.is_none(), "unhealed partition");
        // The reserved middle slot crashes the root mid-epoch.
        let rc = rc_a.expect("crash_root set");
        assert_eq!(rc % cfg.epoch_ms, cfg.epoch_ms / 2, "root crash mid-epoch");
    }

    #[test]
    fn short_soak_heals_and_reports_once() {
        // A bounded smoke of the full pipeline: one minute of churn over a
        // small ring, every invariant checked. The simulated-hours runs
        // live in tests/soak_churn.rs.
        let cfg = SoakConfig {
            nodes: 24,
            seed: 3,
            epoch_ms: 2_000,
            warmup_ms: 20_000,
            churn_ms: 60_000,
            quiesce_ms: 60_000,
            episodes: 3,
            crash_root: false,
            ..SoakConfig::default()
        };
        let out = run_soak(&cfg);
        assert!(
            out.violations.is_empty(),
            "replay with seed {}: {:#?}",
            out.seed,
            out.violations
        );
        assert_eq!(out.final_contributors, 24);
        assert!((out.final_ratio - 1.0).abs() < 1e-9);
        assert!(out
            .recovery_epochs
            .is_some_and(|e| e <= out.recovery_bound_epochs));
        // Crashes, restarts, partitions, flaky links and duplication on
        // four worker threads: the same log, scores and counters.
        for seed in [1, 2, 3] {
            let cfg = SoakConfig { seed, ..cfg };
            assert_eq!(
                format!("{:?}", run_soak_on(&cfg, 4)),
                format!("{:?}", run_soak_on(&cfg, 1)),
                "seed {seed}: the shard count changed the soak"
            );
        }
    }
}
