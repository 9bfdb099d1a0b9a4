//! Fault campaigns: one scenario, one drive loop and one invariant scorer
//! for every fault plane the simulator can inject.
//!
//! The paper's robustness claim is one sentence — the implicit tree adapts
//! to arrivals, departures and failures with no repair protocol, and the
//! root keeps answering (§2.3, §6). A [`Campaign`] is a seeded
//! [`FaultPlan`] generator aimed at one continuous aggregation in which
//! every node feeds the same constant. Whatever the plane, the run is
//! judged on one [`Score`], computed from the root's report stream alone:
//! no silently wrong value anywhere; degradation *reported* (a completeness
//! dip, or an epoch with no report) while faults are live, and healed
//! within a bounded number of epochs after they stop; past that bound
//! exactly the expected population ([`Scenario::population`]: every node,
//! less a departure burst) as contributors, one reporter, a strictly
//! advancing fence and no silent epoch, on *every* report. What a plane
//! adds is data (`Expect`): the counters its faults must have moved, the
//! series its victim's exposition must carry, a bound on the report gap
//! where it has one, and a bound on the longest run of silent slots while
//! faults are live (two under churn, whose root crash costs a slot or two;
//! none elsewhere). A new plane is one more generator; there are six —
//! churn, gray, corrupt, partition, loss and departures. Every link fault a
//! generator injects is one [`crate::FaultEvent::Link`] episode: churn's
//! flaky links, gray's half-open link and corruption's noise, jam and
//! poison differ only in the [`LinkFault`] they carry. Besides the score,
//! the drive loop times the successor ring's re-knit after the faults end
//! ([`Outcome::ring_reunified_ms`]), which the partition plane reads.

// Crashes in a campaign must carry context, never a bare unwrap panic.
#![deny(clippy::unwrap_used)]

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::rc::Rc;

use dat_chord::{
    ChordConfig, HealthConfig, Id, IdPolicy, IdSpace, NodeAddr, NodeStatus, Output, RoutingScheme,
    StaticRing,
};
use dat_core::tree::DatTree;
use dat_core::{
    AggregationMode, Completeness, DatConfig, DatEvent, DatProtocol, InboxPolicy, StackNode,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fault::{CorruptMode, FaultPlan, LinkFault};
use crate::harness::{addr_book, prestabilized_dat, ring_converged};
use crate::latency::LatencyModel;
use crate::net::SimNet;

/// The attribute every node registers.
const ATTR: &str = "cpu-usage";

/// The local value every node contributes, so a correct root report
/// satisfies `sum == contributors × VALUE` (and `min == max == VALUE`)
/// exactly; a single undetected corrupted partial folded into the tree
/// breaks the identity. Not 1.0, so that a sum never passes for a count.
pub const VALUE: f64 = 10.0;

/// Identifier-space width of every campaign ring.
const SPACE_BITS: u8 = 32;

/// Background corruption probability on tree links for the whole fault
/// window (the "hostile wire" noise floor, 1–5%).
const NOISE_PROB: f64 = 0.03;

/// Heavy corruption probability for the jam and poison episodes.
const BURST_PROB: f64 = 0.9;

/// Median one-way latency of a [`Campaign::Loss`] run, ms.
const WAN_MEDIAN_MS: f64 = 80.0;

/// Shape of the [`Campaign::Loss`] latency (σ of its underlying normal).
const WAN_SIGMA: f64 = 0.6;

/// One-way latency of every message in a [`Campaign::Loss`] run: the
/// heavy-tailed wide-area fit (PlanetLab-like).
pub const WAN_LATENCY: LatencyModel = LatencyModel::LogNormal {
    median_ms: WAN_MEDIAN_MS,
    sigma: WAN_SIGMA,
};

/// Which fault plane a [`Scenario`] injects.
#[derive(Clone, Copy, Debug)]
pub enum Campaign {
    /// *Clean* failures, which the RTO machinery alone recovers from:
    /// crashes with restarts, partitions with heals, flaky links and
    /// duplication bursts, one randomized episode per slot.
    Churn {
        /// Number of fault episodes spread over the fault window.
        episodes: usize,
        /// Also crash the acting root mid-epoch (warm-failover probe).
        crash_root: bool,
    },
    /// The failures the RTO cannot see: a node that answers late rather
    /// than never ([`crate::FaultEvent::Slowdown`]), a link degraded one way
    /// (a lossy, jittered [`crate::FaultEvent::Link`] episode), a junk flood
    /// ([`crate::FaultEvent::Overload`]) and a flapping peer. The health
    /// plane — phi-accrual suspicion, proactive re-parenting, flap-damping
    /// quarantine, bounded inboxes — is what keeps reports flowing.
    Gray,
    /// *Byte* pathologies ([`crate::LinkFault::corrupt`]): bit-flip
    /// noise, a garbage jam and a poisoning burst, scoring the full
    /// detection → containment → recovery pipeline.
    Corrupt,
    /// One wide-area split (§7): every 4th ring position is cut off for
    /// the whole fault window, then the partition heals. Nothing but the
    /// ring's own maintenance — fallen-peer probes, stabilization — knits
    /// the two sides back together; [`Outcome::ring_reunified_ms`] says
    /// when.
    Partition,
    /// Wide-area loss (§7): every message takes [`WAN_LATENCY`] for the
    /// whole run and, from the start of the fault window to its end, is
    /// dropped with probability `rate` ([`crate::FaultEvent::SetLoss`]).
    /// DAT updates carry no ack; the children's soft state and the next
    /// epoch's push are all that bridge a lost one.
    Loss {
        /// Loss probability during the fault window, in `[0, 1]`.
        rate: f64,
    },
    /// A departure burst (§2.3): a fixed fifth of the ring crashes at the
    /// start of the fault window and never comes back; the root and the
    /// stable node are spared. A departed child's partial stays counted
    /// until [`Scenario::child_ttl_epochs`] expires it, and the run is
    /// judged against the nodes that remain ([`Scenario::population`]).
    Departures,
}

/// Parameters of one campaign run. Everything is virtual time; a run is
/// fully determined by `seed`.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Ring size: a dozen at least, for the generators to have an interior
    /// node and two leaves to aim at.
    pub nodes: usize,
    /// Seed for ring construction, the fault schedule, the transport, and
    /// every mutation coin.
    pub seed: u64,
    /// Aggregation epoch length, ms.
    pub epoch_ms: u64,
    /// Fault-free head (ring warms up, reports reach steady state, the
    /// detector learns its baselines).
    pub warmup_ms: u64,
    /// Fault window: every fault starts and ends inside it.
    pub faults_ms: u64,
    /// Fault-free tail (quarantine expiry, rejoin and healing land here;
    /// the self-healing claims are checked on it).
    pub quiesce_ms: u64,
    /// Epochs a parent keeps a child's partial with no fresh update (the
    /// DAT soft-state TTL): how long a departed child is still counted,
    /// and so a term of [`Scenario::recovery_bound_epochs`].
    pub child_ttl_epochs: u64,
    /// The fault plane.
    pub campaign: Campaign,
}

impl Scenario {
    /// The scored gray-failure scenario: 32 nodes, four episodes in 135 s.
    pub fn gray(seed: u64) -> Scenario {
        Scenario {
            nodes: 32,
            seed,
            epoch_ms: 5_000,
            warmup_ms: 40_000,
            faults_ms: 135_000,
            quiesce_ms: 90_000,
            child_ttl_epochs: DatConfig::default().child_ttl_epochs,
            campaign: Campaign::Gray,
        }
    }

    /// The scored wire-corruption scenario: 24 nodes, 90 s of damage.
    pub fn corrupt(seed: u64) -> Scenario {
        Scenario {
            nodes: 24,
            faults_ms: 90_000,
            campaign: Campaign::Corrupt,
            ..Scenario::gray(seed)
        }
    }

    /// The scored 3:1 partition/heal scenario: split at 20 s, heal at
    /// 80 s, 150 s of recovery.
    pub fn partition(nodes: usize, seed: u64) -> Scenario {
        Scenario {
            nodes,
            seed,
            epoch_ms: 5_000,
            warmup_ms: 20_000,
            faults_ms: 60_000,
            quiesce_ms: 150_000,
            child_ttl_epochs: DatConfig::default().child_ttl_epochs,
            campaign: Campaign::Partition,
        }
    }

    /// The scored WAN loss scenario: 30 s of lossless warmup, `rate` loss
    /// for 20 epochs of 5 s, 100 s of lossless recovery.
    pub fn loss(nodes: usize, seed: u64, rate: f64) -> Scenario {
        Scenario {
            warmup_ms: 30_000,
            faults_ms: 100_000,
            quiesce_ms: 100_000,
            campaign: Campaign::Loss { rate },
            ..Scenario::partition(nodes, seed)
        }
    }

    /// The scored departure burst under a `child_ttl_epochs` TTL: the
    /// fault window spans the departed partials' life plus four epochs for
    /// the orphans to re-parent, and the quiesce tail holds four settled
    /// epochs past the recovery bound.
    pub fn departures(nodes: usize, seed: u64, child_ttl_epochs: u64) -> Scenario {
        let mut sc = Scenario {
            child_ttl_epochs,
            campaign: Campaign::Departures,
            ..Scenario::partition(nodes, seed)
        };
        sc.faults_ms = (child_ttl_epochs + 4) * sc.epoch_ms;
        sc.quiesce_ms = (sc.recovery_bound_epochs() + 4) * sc.epoch_ms;
        sc
    }

    /// The nodes a correct report covers: every node, less the ones a
    /// [`Campaign::Departures`] burst removes for good.
    pub fn population(&self) -> usize {
        match self.campaign {
            Campaign::Departures => self.nodes - self.nodes / 5,
            _ => self.nodes,
        }
    }

    /// When the fault schedule drains (start of the quiesce tail), ms.
    pub fn faults_end_ms(&self) -> u64 {
        self.warmup_ms + self.faults_ms
    }

    /// Total virtual run length, ms.
    pub fn total_ms(&self) -> u64 {
        self.faults_end_ms() + self.quiesce_ms
    }

    /// Epochs allowed for completeness to return to 1.0 after the faults
    /// stop: soft-state expiry plus one cascade through the tree height,
    /// plus slack for the chord maintenance timers to re-converge.
    pub fn recovery_bound_epochs(&self) -> u64 {
        self.child_ttl_epochs + self.height() + 4
    }

    /// A bound on the DAT's height: ⌊log2 n⌋ + 1 levels.
    fn height(&self) -> u64 {
        (usize::BITS - self.nodes.leading_zeros()) as u64
    }

    /// How long a node waits for its children's updates after a tick, ms:
    /// long enough for the whole cascade to reach the root in the same
    /// epoch. On a LAN 500 ms is ample; on the [`WAN_LATENCY`] a level
    /// costs up to its 95th percentile, 1.645 σ above the median.
    fn hold_ms(&self) -> u64 {
        match self.campaign {
            Campaign::Loss { .. } => {
                let hop = WAN_MEDIAN_MS * (1.645 * WAN_SIGMA).exp();
                (self.height() as f64 * hop).round() as u64
            }
            _ => 500,
        }
    }

    /// The settle point, ms: after soft-state expiry and one full cascade
    /// the self-healing claims must hold on *every* report.
    pub fn settle_ms(&self) -> u64 {
        self.faults_end_ms() + self.recovery_bound_epochs() * self.epoch_ms
    }

    fn chord_config(&self) -> ChordConfig {
        // Aggressive maintenance: a crashed node leaves stale fingers
        // behind, and a lookup forwarded through one is dropped silently
        // (forwarding is unacked, like the paper's UDP prototype). The only
        // repair lever is the round-robin finger fixer — at the default
        // cadence one full two-strike eviction takes minutes, longer than
        // the quiesce tail, so joins through a stale route would starve.
        // One fixer step per second bounds stale-finger lifetime to
        // ~2·space_bits seconds.
        let mut ccfg = ChordConfig {
            space: IdSpace::new(SPACE_BITS),
            stabilize_ms: 2_500,
            fix_fingers_ms: 1_000,
            check_pred_ms: 2_000,
            req_timeout_ms: 1_200,
            max_retries: 1,
            ..ChordConfig::default()
        };
        if self.tuned() {
            // The RTO ceiling is a term of gray's report-gap bound.
            ccfg.rto_max_ms = 4_000;
        }
        ccfg
    }

    /// Gray and corrupt run a tuned health plane and RTO ceiling; churn
    /// and partition, whose failures are clean, run the defaults.
    fn tuned(&self) -> bool {
        matches!(self.campaign, Campaign::Gray | Campaign::Corrupt)
    }

    fn dat_config(&self, d0_hint: Option<u64>) -> DatConfig {
        DatConfig {
            scheme: RoutingScheme::Balanced,
            epoch_ms: self.epoch_ms,
            child_ttl_epochs: self.child_ttl_epochs,
            hold_ms: self.hold_ms(),
            d0_hint,
            ..DatConfig::default()
        }
    }

    /// Register the campaign attribute on `node`, feed it [`VALUE`], and
    /// tune its health plane and inbox to the campaign.
    fn equip(&self, node: &mut StackNode) {
        let k = node.register(ATTR, AggregationMode::Continuous);
        node.set_local(k, VALUE);
        if self.tuned() {
            // Health plane tuned for the campaign's timescales: quarantine
            // short enough that release and rejoin land inside the quiesce
            // tail, and a flap window wide enough to catch the injected
            // oscillation (gray) and to collect the poison episode's
            // repeated threshold trips (corrupt).
            node.set_health_config(HealthConfig {
                quarantine_ms: 25_000,
                flap_window_ms: 60_000,
            });
        }
        if matches!(self.campaign, Campaign::Gray) {
            // Bounded inboxes on: the overload burst must be shed, not
            // queued.
            node.set_inbox_policy(InboxPolicy { service_ms: 20 });
        }
    }

    /// Run the campaign: build a pre-stabilized ring, inject the seeded
    /// fault schedule, drain reports every half epoch, then score the run.
    pub fn run(&self) -> Outcome {
        self.run_on(1)
    }

    /// [`Scenario::run`] on `shards` engine shards; the outcome does not
    /// depend on the count.
    fn run_on(&self, shards: usize) -> Outcome {
        let ccfg = self.chord_config();
        let space = ccfg.space;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let ring = StaticRing::build(space, self.nodes, IdPolicy::Probed, &mut rng);
        let dcfg = self.dat_config(Some(ring.d0()));
        let mut net: SimNet<StackNode> = prestabilized_dat(&ring, ccfg, dcfg, self.seed);
        net.set_shards(shards);
        if let Campaign::Loss { .. } = self.campaign {
            net.set_latency(WAN_LATENCY);
        }
        for addr in net.addrs() {
            if let Some(node) = net.node_mut(addr) {
                self.equip(node);
            }
        }
        let key = dat_chord::hash_to_id(space, ATTR.as_bytes());
        let topo = Topology::of(&ring, key);
        let stable = net.node(topo.stable);
        let bootstrap = stable.expect("stable node exists at construction").me();
        // A crash-restart is a new incarnation: it must come back under a
        // fresh id *and* a fresh address. Reusing the old address deadlocks
        // the rejoin — the joiner answers pings and neighbor queries at the
        // address its dead identity is known by, so neighbors never evict it
        // and keep routing the join lookup straight back to the joiner, which
        // cannot serve lookups while joining. The id is perturbed per
        // incarnation so the ring-position bookkeeping (e.g. the root's id
        // staying just past the key) is preserved. The registry maps a live
        // address back to its lineage and is shared between the fault-plan
        // restart hook and the rejoin supervisor in `drive`.
        type Lineage = (HashMap<NodeAddr, (Id, u64)>, u64);
        let registry: Rc<RefCell<Lineage>> =
            Rc::new(RefCell::new((HashMap::new(), self.nodes as u64)));
        let (sc, ids) = (*self, ring.ids().to_vec());
        let spawn = move |addr: NodeAddr| -> Option<(StackNode, Vec<Output>)> {
            let mut reg = registry.borrow_mut();
            let (lineage, next_addr) = &mut *reg;
            let (base, gen) = match lineage.remove(&addr) {
                Some(l) => l,
                None => (*ids.get(addr.0 as usize)?, 0),
            };
            let id = space.add(base, gen + 1);
            let fresh = NodeAddr(*next_addr);
            *next_addr += 1;
            lineage.insert(fresh, (base, gen + 1));
            let mut node = StackNode::new(ccfg, id, fresh).with_app(DatProtocol::new(dcfg));
            sc.equip(&mut node);
            let outs = node.start_join(bootstrap);
            Some((node, outs))
        };
        net.set_restart_fn(spawn.clone());
        let (plan, expect) = match self.campaign {
            Campaign::Churn {
                episodes,
                crash_root,
            } => churn_plan(self, &topo, &mut rng, (episodes, crash_root)),
            Campaign::Gray => gray_plan(self, &topo),
            Campaign::Corrupt => corrupt_plan(self, &topo),
            Campaign::Partition => partition_plan(self, &topo),
            Campaign::Loss { rate } => loss_plan(self, &topo, rate),
            Campaign::Departures => departures_plan(self, &topo),
        };
        let digest = plan.digest();
        net.set_fault_plan(plan);

        let (log, ring_reunified_ms) = drive(&mut net, self, key, spawn);

        let victim = net.node(expect.exposition.0);
        let exposition = victim.map(|n| n.render_prometheus()).unwrap_or_default();
        let score = Score::of(self, expect.root_crash_at_ms, &log);
        let fleet = fleet_counters(&net);
        let live = net.addrs().len();
        Outcome {
            violations: violations(self, &expect, live, &exposition, &score, &fleet),
            scenario: *self,
            digest,
            events_processed: net.events_processed(),
            log,
            ring_reunified_ms,
            score,
            fleet,
        }
    }
}

/// Where a generator may aim: the victim picks from the implicit DAT —
/// deterministic in the ring, whose addresses are `0..nodes` in id order.
struct Topology {
    /// The acting root of the campaign key.
    root: NodeAddr,
    /// One node is exempt from every churn fault so restarts always have a
    /// live, reachable bootstrap in the majority component.
    stable: NodeAddr,
    /// Non-root interior nodes, each with its DAT parent: they carry
    /// subtrees, so slowing or jamming one visibly degrades completeness
    /// without silencing the root. Biggest subtree first.
    interior: Vec<(NodeAddr, NodeAddr)>,
    /// Leaves with their parents, by id — nodes whose slowness must be
    /// *detected* but whose subtree loss is small.
    leaves: Vec<(NodeAddr, NodeAddr)>,
}

impl Topology {
    fn of(ring: &StaticRing, key: Id) -> Topology {
        let book = addr_book(ring);
        let tree = DatTree::build(ring, key, RoutingScheme::Balanced);
        let root = book[&tree.root()];
        let mut links: Vec<(usize, Id, Id)> =
            (tree.edges().map(|(v, p)| (tree.branching(v), v, p))).collect();
        links.sort_by_key(|(kids, v, _)| (std::cmp::Reverse(*kids), v.0));
        let pick = |interior: bool| -> Vec<(NodeAddr, NodeAddr)> {
            let picked = links.iter().filter(|(kids, ..)| (*kids > 0) == interior);
            picked.map(|(_, v, p)| (book[v], book[p])).collect()
        };
        Topology {
            root,
            stable: NodeAddr(if root == NodeAddr(0) { 1 } else { 0 }),
            interior: pick(true),
            leaves: pick(false),
        }
    }
}

/// What a campaign's faults must leave behind, on top of the invariants
/// every campaign is held to.
struct Expect {
    /// When the acting root is crashed, if the plan does that.
    root_crash_at_ms: Option<u64>,
    /// [`FleetCounters`] entries the faults must have moved off zero.
    nonzero: &'static [&'static str],
    /// A victim, and the series its own exposition must carry.
    exposition: (NodeAddr, &'static [&'static str]),
    /// The campaign's bound on [`Score::max_report_gap_ms`] (`u64::MAX`:
    /// none).
    max_gap_ms: u64,
    /// The campaign's bound on [`Score::max_silent_run_during_faults`].
    max_silent_run: u64,
}

impl Expect {
    /// Nothing beyond the invariants every campaign is held to, the
    /// `root`'s exposition valid, and no silent slot.
    fn plain(root: NodeAddr) -> Expect {
        Expect {
            root_crash_at_ms: None,
            nonzero: &[],
            exposition: (root, &[]),
            max_gap_ms: u64::MAX,
            max_silent_run: 0,
        }
    }
}

/// Generate the seeded churn schedule: the fault window is sliced into
/// `episodes` non-overlapping slots, each holding one randomized episode
/// (crash burst, partition, flaky links, or a duplication burst), every
/// crash paired with a restart and every partition with a heal inside its
/// own slot — so the quiesce tail is genuinely fault-free. When
/// `crash_root` is set, the middle slot is reserved for crashing the
/// acting root mid-epoch.
fn churn_plan(
    sc: &Scenario,
    topo: &Topology,
    rng: &mut SmallRng,
    (episodes, crash_root): (usize, bool),
) -> (FaultPlan, Expect) {
    let all: Vec<NodeAddr> = (0..sc.nodes as u64).map(NodeAddr).collect();
    let epoch_ms = sc.epoch_ms;
    let slot = (sc.faults_ms / episodes.max(1) as u64).max(4 * epoch_ms);
    let mut plan = FaultPlan::new();
    let mut root_crash_at_ms = None;
    let part_pool: Vec<NodeAddr> = all.iter().copied().filter(|a| *a != topo.stable).collect();
    let crash_pool: Vec<NodeAddr> =
        (part_pool.iter().copied().filter(|a| *a != topo.root)).collect();
    // One crash per lineage per plan: a restarted node comes back at a
    // fresh address, so a second crash aimed at the original address would
    // kill nothing while its paired restart still fires — silently growing
    // the population (and faulting the no-double-count scoring with a
    // perfectly honest 49-of-48 report).
    let mut crashed: HashSet<NodeAddr> = HashSet::new();
    for i in 0..episodes {
        let t0 = sc.warmup_ms + i as u64 * slot;
        let t_end = (t0 + slot).min(sc.faults_end_ms());
        if t_end <= t0 + 3 * epoch_ms {
            continue; // degenerate tail slot — skip rather than overflow
        }
        if crash_root && i == episodes / 2 {
            // Crash the acting root exactly mid-epoch, restart it a few
            // epochs later (it then re-takes the key from the interim
            // root — a second, reverse handoff for free).
            let at = ((t0 / epoch_ms) + 1) * epoch_ms + epoch_ms / 2;
            let back = (at + 6 * epoch_ms)
                .min(t_end.saturating_sub(epoch_ms))
                .max(at + epoch_ms);
            plan = plan.crash_at(at, topo.root).restart_at(back, topo.root);
            root_crash_at_ms = Some(at);
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
                    let back = (at + epoch_ms * rng.random_range(2u64..=5))
                        .min(t_end.saturating_sub(epoch_ms))
                        .max(at + epoch_ms);
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
                let heal = (at + epoch_ms * rng.random_range(4u64..=8))
                    .min(t_end.saturating_sub(epoch_ms))
                    .max(at + epoch_ms);
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
                        ..LinkFault::default()
                    };
                    let at = t0 + rng.random_range(0..slot / 2);
                    let for_ms = rng
                        .random_range(epoch_ms..=(slot / 2).max(epoch_ms + 1))
                        .min(t_end.saturating_sub(at));
                    p = p.link_at(at, from, to, fault, for_ms);
                }
                p
            }
            // Duplication burst: the transport replays datagrams for a while.
            _ => {
                let prob = 0.05 + 0.25 * rng.random::<f64>();
                let at = t0 + rng.random_range(0..slot / 4);
                let off = (at + epoch_ms * rng.random_range(3u64..=6)).min(t_end);
                plan.duplication_at(at, prob).duplication_at(off, 0.0)
            }
        };
    }
    let expect = Expect {
        root_crash_at_ms,
        // A crashed root costs its slot and, at worst, the next one before
        // a successor's warm failover reports.
        max_silent_run: 2,
        ..Expect::plain(topo.stable)
    };
    (plan, expect)
}

fn gray_plan(sc: &Scenario, topo: &Topology) -> (FaultPlan, Expect) {
    // Episodes run back-to-back so each failure mode gets a clean window:
    // a third of the fault window each for the slow parent and the flapper,
    // the middle third split between the half-open link and the overload.
    let episode = sc.faults_ms / 3;
    let (slow_at, degrade_at) = (sc.warmup_ms, sc.warmup_ms + episode);
    let (overload_at, flap_at) = (degrade_at + episode / 2, degrade_at + episode);
    let ((slow_victim, _), (overload_victim, _)) = (topo.interior[0], topo.leaves[0]);
    let (flap_victim, _) = topo.leaves[1];
    let (child, parent) = *topo.interior.get(1).unwrap_or(&topo.leaves[0]);
    let half_open = LinkFault {
        loss: 0.9,
        extra_latency_ms: 400,
        jitter_ms: 300,
        corrupt: None,
    };
    let mut plan = FaultPlan::new()
        // Episode 1 — slow parent: serializes every delivery through a
        // multi-second processing budget. Children must suspect it and
        // re-parent proactively; the root keeps reporting with degraded
        // completeness.
        .slowdown_at(slow_at, slow_victim, 3_000, episode)
        // Episode 2 — half-open link: the victim's traffic toward its DAT
        // parent is mostly lost and jittered, the reverse direction is
        // clean. The parent must suspect the child and stop waiting on it.
        .link_at(degrade_at, child, parent, half_open, episode / 2)
        // Episode 3 — overload burst: junk floods one node faster than its
        // virtual service rate; the bounded inbox must shed, not stall.
        .overload_at(overload_at, overload_victim, 400, 2_000);
    // Episode 4 — flapper: short slowdowns with clean gaps, oscillating
    // Suspect → recover until flap damping quarantines the peer.
    let cycle = 15_000u64;
    let mut t = flap_at;
    while t + cycle <= flap_at + episode {
        plan = plan.slowdown_at(t, flap_victim, 3_000, 10_000);
        t += cycle;
    }
    let expect = Expect {
        // The suspicion machinery must have actually fired, each stage of
        // it — a peer suspected, a re-parent ahead of any RTO, the flapper
        // quarantined and, once stable, rejoined — and the overload must
        // be shed (counted, visible) instead of queued unboundedly.
        nonzero: &[
            "suspects_total",
            "proactive_reparents_total",
            "quarantines_total",
            "rejoins_total",
            "engine_shed_total",
        ],
        exposition: (overload_victim, &["engine_shed_total", "suspects_total"]),
        // No stalls: consecutive root reports never drift further apart
        // than one epoch plus 2×RTO (the proactive bound) plus drain
        // quantization.
        max_gap_ms: sc.epoch_ms + 2 * sc.chord_config().rto_max_ms + sc.epoch_ms / 2,
        ..Expect::plain(overload_victim)
    };
    (plan, expect)
}

fn corrupt_plan(sc: &Scenario, topo: &Topology) -> (FaultPlan, Expect) {
    // Noise spans the whole fault window; jam and poison run back-to-back
    // inside it.
    let episode = sc.faults_ms / 2;
    let (jam_at, poison_at) = (sc.warmup_ms, sc.warmup_ms + episode);
    // Noise floor: low-probability bit flips on every interior uplink
    // (capped at four links).
    let corrupt = |prob, mode| LinkFault {
        corrupt: Some((prob, mode)),
        ..LinkFault::default()
    };
    let mut plan = FaultPlan::new();
    for &(child, parent) in topo.interior.iter().take(4) {
        let noise = corrupt(NOISE_PROB, CorruptMode::BitFlip);
        plan = plan.link_at(sc.warmup_ms, child, parent, noise, sc.faults_ms);
    }
    // The jam hits the biggest subtree's uplink (child → parent), so
    // destroying its update frames visibly dents completeness. The poison
    // hits a ring-neighbor link *into* a victim — the root, from its ring
    // predecessor: stabilization traffic (notify, neighbor queries) flows
    // there continuously, the victim provably knows the sender, so
    // bad-frame scoring has something to attribute and escalate.
    let (child, parent) = topo.interior[0];
    // (Addresses follow ring order, so the predecessor is one address down.)
    let (root, n) = (topo.root, sc.nodes as u64);
    let pred = NodeAddr((root.0 + n - 1) % n);
    let jam = corrupt(BURST_PROB, CorruptMode::Garbage);
    let poison = corrupt(BURST_PROB, CorruptMode::Truncate);
    plan = plan
        // Jam: heavy garbage. Update frames are destroyed (and detected),
        // the cached child partial ages out, completeness dips — then
        // heals after expiry.
        .link_at(jam_at, child, parent, jam, episode)
        // Poison: heavy corruption, alternating mutation shapes across the
        // episode via truncation. Surviving ~10% of frames keeps heartbeats
        // trickling through, so the victim oscillates Suspect → recover —
        // exactly the flap pattern quarantine exists for.
        .link_at(poison_at, pred, root, poison, episode);
    let expect = Expect {
        // The attack actually ran, the checksum caught some of it and the
        // engine's bad-frame accounting saw that; then containment:
        // scoring escalated, quarantine fired, and released.
        nonzero: &[
            "corrupt_injected",
            "corrupt_rejected",
            "bad_frames_total",
            "bad_frame_suspects_total",
            "quarantines_total",
            "rejoins_total",
        ],
        exposition: (root, &["bad_frames_total", "bad_frame_suspects_total"]),
        ..Expect::plain(root)
    };
    (plan, expect)
}

fn partition_plan(sc: &Scenario, topo: &Topology) -> (FaultPlan, Expect) {
    // Addresses follow ring order, so every 4th address is every 4th ring
    // position: a 3:1 split that cuts every tree path crossing it.
    let minority: Vec<NodeAddr> = (0..sc.nodes as u64).step_by(4).map(NodeAddr).collect();
    let plan = FaultPlan::new()
        .partition_at(sc.warmup_ms, minority)
        .heal_at(sc.faults_end_ms());
    // The root sits in the majority: the split shows in what it reports,
    // never as silence.
    (plan, Expect::plain(topo.root))
}

fn loss_plan(sc: &Scenario, topo: &Topology, rate: f64) -> (FaultPlan, Expect) {
    let plan = FaultPlan::new()
        .loss_at(sc.warmup_ms, rate)
        .loss_at(sc.faults_end_ms(), 0.0);
    (plan, Expect::plain(topo.root))
}

fn departures_plan(sc: &Scenario, topo: &Topology) -> (FaultPlan, Expect) {
    // Every 5th of the nodes the burst may hit; addresses follow ring
    // order, so the victims are spread round the ring and no successor
    // list loses all its entries at once.
    let spared = |a: &NodeAddr| *a != topo.root && *a != topo.stable;
    let pool = (0..sc.nodes as u64).map(NodeAddr).filter(spared);
    let victims = pool.step_by(5).take(sc.nodes - sc.population());
    let plan = victims.fold(FaultPlan::new(), |plan, v| plan.crash_at(sc.warmup_ms, v));
    (plan, Expect::plain(topo.root))
}

/// One root report observed during the run (timestamp quantized to the
/// half-epoch drain step).
#[derive(Clone, Copy, Debug)]
pub struct Report {
    /// Drain time, virtual ms.
    pub t_ms: u64,
    /// The reporting node's simulator address.
    pub addr: NodeAddr,
    /// The report's completeness accounting.
    pub completeness: Completeness,
    /// The merged partial's `(sum, count, min, max)`.
    pub value: (f64, u64, f64, f64),
}

/// Drive the run to its end in half-epoch steps, draining every node's
/// reports for `key` after each — so a report's timestamp is within half
/// an epoch of when it was emitted. Also returns the first step at or
/// after the end of the fault window at which the successor ring was
/// whole again.
fn drive(
    net: &mut SimNet<StackNode>,
    sc: &Scenario,
    key: Id,
    mut respawn: impl FnMut(NodeAddr) -> Option<(StackNode, Vec<Output>)>,
) -> (Vec<Report>, Option<u64>) {
    let (total, step) = (sc.total_ms(), (sc.epoch_ms / 2).max(1));
    // A restart that lands while stale routes still point at the node's
    // dead incarnation can exhaust the chord layer's join retries and park
    // the node in `Joining` forever. Real grid daemons retry; this
    // supervisor does the same — a node stuck joining for a few epochs is
    // torn down and re-joined through the stable bootstrap. (Only churn
    // plans restart anything; elsewhere no node is ever `Joining`.)
    let rejoin_after_ms = 4 * sc.epoch_ms;
    let joining = |n: &StackNode| n.status() == NodeStatus::Joining;
    let mut joining_since: HashMap<NodeAddr, u64> = HashMap::new();
    let mut log: Vec<Report> = Vec::new();
    let mut ring_reunified_ms = None;
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
        let t_ms = net.now().as_millis();
        if net.membership_epoch() != cached_epoch {
            cached_addrs = net.addrs();
            cached_epoch = net.membership_epoch();
        }
        for &addr in &cached_addrs {
            let events = net.node_mut(addr).map(|n| n.take_events());
            for ev in events.unwrap_or_default() {
                let DatEvent::Report {
                    key: k,
                    partial: p,
                    completeness: c,
                    ..
                } = ev
                else {
                    continue;
                };
                let (value, completeness) = ((p.sum, p.count, p.min, p.max), c);
                log.extend((k == key).then_some(Report {
                    t_ms,
                    addr,
                    completeness,
                    value,
                }));
            }
        }
        for &addr in &cached_addrs {
            if !net.node(addr).is_some_and(joining) {
                joining_since.remove(&addr);
                continue;
            }
            let since = *joining_since.entry(addr).or_insert(t_ms);
            if t_ms.saturating_sub(since) >= rejoin_after_ms {
                let _ = net.crash(addr);
                if let Some((node, outs)) = respawn(addr) {
                    let fresh = node.me().addr;
                    net.add_node(node);
                    net.apply(fresh, outs);
                }
                joining_since.insert(addr, t_ms);
            }
        }
        if ring_reunified_ms.is_none() && t_ms >= sc.faults_end_ms() && ring_whole(net) {
            ring_reunified_ms = Some(t_ms);
        }
    }
    (log, ring_reunified_ms)
}

/// Is every live `Active` node's successor the next live `Active` id?
fn ring_whole(net: &SimNet<StackNode>) -> bool {
    let active = net
        .iter_nodes()
        .map(|(_, n)| n)
        .filter(|n| n.status() == NodeStatus::Active);
    let mut ids: Vec<Id> = active.map(|n| n.me().id).collect();
    ids.sort_unstable();
    ring_converged(net, &ids)
}

/// Fleet-wide tallies over the whole run, by name: ten counter sums of
/// the merged observability registry — counted per node all along,
/// surfaced here (survivors only: a crashed incarnation's counters die
/// with it, like real monitoring) — and the engine's wire-corruption
/// tallies: frames mutated, mutated frames the codec rejected, and mutated
/// frames that still decoded.
pub type FleetCounters = BTreeMap<&'static str, u64>;

fn fleet_counters(net: &SimNet<StackNode>) -> FleetCounters {
    let fleet = crate::obs::fleet_registry(net);
    let sums = [
        "timeouts_total",
        "retransmits_total",
        "dropped_total",
        "suspects_total",
        "quarantines_total",
        "rejoins_total",
        "proactive_reparents_total",
        "engine_shed_total",
        "bad_frames_total",
        "bad_frame_suspects_total",
    ];
    let c = net.corruption;
    let corrupt = [
        ("corrupt_injected", c.injected),
        ("corrupt_rejected", c.rejected),
        ("corrupt_passed", c.passed),
    ];
    let sums = sums.map(|name| (name, fleet.counter_sum(name)));
    sums.into_iter().chain(corrupt).collect()
}

/// The invariant score of one report stream. A *slot* is one epoch of
/// drain time (`t_ms / epoch_ms`); *during faults* is
/// `[warmup_ms, faults_end_ms)`; *settled* is from [`Scenario::settle_ms`]
/// to the end of the run; `n` is [`Scenario::population`].
#[derive(Clone, Debug)]
pub struct Score {
    /// Reports *published* during faults that cover more than `n` nodes:
    /// a subtree counted along two paths at once. Measured, not yet
    /// bounded by [`Outcome::violations`].
    pub over_n_during_faults: u64,
    /// The largest `contributors / n` among the reports published during
    /// faults; 0 if there was none.
    pub max_over_n_ratio: f64,
    /// Reports, anywhere in the run, that are not [`VALUE`]-exact.
    pub wrong_values: u64,
    /// Distinct nodes reporting after the settle point: exactly one, once
    /// the report fence has settled.
    pub settled_reporters: u64,
    /// Settled reports covering more than `n` nodes — double counting that
    /// survived past the decay bound.
    pub settled_over_n: u64,
    /// Settled reports covering fewer than `n` nodes — never healed.
    pub settled_under_n: u64,
    /// Settled reports whose fence `seq` did not advance on the one
    /// before: a single surviving reporter must advance it strictly.
    pub settled_fence_repeats: u64,
    /// Settled slots nobody published in.
    pub settled_silent_slots: u64,
    /// Lowest coverage ratio among the reports *published* during faults
    /// (shows the accounting actually registered the injected
    /// degradation); infinite if there was none.
    pub min_ratio_during_faults: f64,
    /// Slots during faults nobody published in. A root that loses its
    /// predecessor to quarantine stands down; that silence is a dip in its
    /// own right, scored apart from the ratio so neither hides the other.
    pub silent_slots_during_faults: u64,
    /// Longest run of consecutive silent slots during faults.
    pub max_silent_run_during_faults: u64,
    /// Largest gap between consecutive reports after warmup, ms.
    pub max_report_gap_ms: u64,
    /// Epochs from the end of the fault window to the first report with
    /// full coverage, if there was one.
    pub recovery_epochs: Option<u64>,
    /// Delay from the marked root crash to the next report from any node.
    pub failover_delay_ms: Option<u64>,
    /// Contributors in that first post-crash report (warm ≈ ring size).
    pub failover_contributors: Option<u64>,
}

impl Score {
    /// Score `log` (in drain order) against the scenario's windows.
    fn of(sc: &Scenario, root_crash_at_ms: Option<u64>, log: &[Report]) -> Score {
        let n = sc.population() as u64;
        let epoch = sc.epoch_ms.max(1);
        let (warmup, faults_end, settle) = (sc.warmup_ms, sc.faults_end_ms(), sc.settle_ms());
        let covers = |r: &&Report| r.completeness.contributors.cmp(&n);
        let settled: Vec<&Report> = log.iter().filter(|r| r.t_ms >= settle).collect();
        let reporters: HashSet<NodeAddr> = settled.iter().map(|r| r.addr).collect();
        let fence = |w: &&[&Report]| w[1].completeness.seq <= w[0].completeness.seq;
        // Off the [`VALUE`] identity: corrupted bytes folded in undetected.
        let wrong = |r: &&Report| {
            let ((sum, count, min, max), c) = (r.value, r.completeness.contributors);
            let range_ok = count == 0 || (min == VALUE && max == VALUE);
            (sum - c as f64 * VALUE).abs() >= 1e-9 || !range_ok
        };

        let published: BTreeSet<u64> = log.iter().map(|r| r.t_ms / epoch).collect();
        let silent = |slots: std::ops::Range<u64>| slots.filter(|s| !published.contains(s));
        let fault_slots = warmup / epoch..faults_end / epoch;
        let tail_slots = settle.div_ceil(epoch)..sc.total_ms() / epoch;
        // Each silent slot's run length: one more than its left neighbour's.
        let mut runs: BTreeMap<u64, u64> = BTreeMap::new();
        for slot in silent(fault_slots) {
            let before = slot.checked_sub(1).and_then(|prev| runs.get(&prev));
            runs.insert(slot, before.map_or(1, |run| run + 1));
        }

        let during_faults = log
            .iter()
            .filter(|r| warmup <= r.t_ms && r.t_ms < faults_end);
        let times: Vec<u64> = (log.iter().map(|r| r.t_ms).filter(|t| *t >= warmup)).collect();
        let recovered = (log.iter()).find(|r| r.t_ms >= faults_end && covers(r).is_ge());
        let failover = root_crash_at_ms.and_then(|rc| {
            let next = log.iter().find(|r| r.t_ms > rc);
            next.map(|r| (r.t_ms - rc, r.completeness.contributors))
        });
        Score {
            over_n_during_faults: during_faults.clone().filter(|r| covers(r).is_gt()).count()
                as u64,
            max_over_n_ratio: during_faults
                .clone()
                .map(|r| r.completeness.contributors as f64 / n as f64)
                .fold(0.0, f64::max),
            wrong_values: log.iter().filter(wrong).count() as u64,
            settled_reporters: reporters.len() as u64,
            settled_over_n: settled.iter().filter(|r| covers(r).is_gt()).count() as u64,
            settled_under_n: settled.iter().filter(|r| covers(r).is_lt()).count() as u64,
            settled_fence_repeats: settled.windows(2).filter(fence).count() as u64,
            settled_silent_slots: silent(tail_slots).count() as u64,
            min_ratio_during_faults: during_faults
                .map(|r| r.completeness.ratio)
                .fold(f64::INFINITY, f64::min),
            silent_slots_during_faults: runs.len() as u64,
            max_silent_run_during_faults: runs.values().copied().max().unwrap_or(0),
            max_report_gap_ms: (times.windows(2).map(|w| w[1] - w[0])).max().unwrap_or(0),
            recovery_epochs: recovered.map(|r| (r.t_ms - faults_end).div_ceil(epoch)),
            failover_delay_ms: failover.map(|(delay, _)| delay),
            failover_contributors: failover.map(|(_, contributors)| contributors),
        }
    }
}

/// Everything a campaign run measured. `violations` lists every invariant
/// breach with the seed embedded, so asserting `violations.is_empty()`
/// prints the replay handle for free.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// What was run; its `seed` is the replay handle.
    pub scenario: Scenario,
    /// Digest of the generated fault schedule (replay fingerprint).
    pub digest: u64,
    /// Discrete events the simulator processed.
    pub events_processed: u64,
    /// Every root report observed, in drain order.
    pub log: Vec<Report>,
    /// The first drain step at or after the end of the fault window at
    /// which every live `Active` node's successor was the next live id;
    /// `None` if the ring never re-knit. Not scored: [`Campaign::Partition`]
    /// reads it, the other planes leave it unasserted.
    pub ring_reunified_ms: Option<u64>,
    /// The log, scored.
    pub score: Score,
    /// Fleet-wide tallies over the whole run.
    pub fleet: FleetCounters,
    /// Invariant breaches (empty for a healthy run).
    pub violations: Vec<String>,
}

impl Outcome {
    /// One line for a test log: the replay fingerprint, the score, the
    /// fleet tallies.
    pub fn summary(&self) -> String {
        let (sc, score, fleet) = (&self.scenario, &self.score, &self.fleet);
        let (digest, events, reports) = (self.digest, self.events_processed, self.log.len());
        let (campaign, seed, bound) = (sc.campaign, sc.seed, sc.recovery_bound_epochs());
        format!(
            "{campaign:?} seed {seed}: digest {digest:#018x}, {events} events, {reports} reports, \
             recovery bound {bound}; {score:?}; {fleet:?}"
        )
    }
}

/// Judge a run — its final population, score, fleet tallies and the
/// victim's exposition — against the invariants every campaign is held to
/// and the campaign's own `expect`. A breach is named by its [`Score`]
/// field.
fn violations(
    sc: &Scenario,
    expect: &Expect,
    live: usize,
    exposition: &str,
    s: &Score,
    fleet: &FleetCounters,
) -> Vec<String> {
    let tally = |name: &str| fleet.get(name).copied().unwrap_or(0);
    let decoded = tally("corrupt_rejected") + tally("corrupt_passed");
    let (bound, gap) = (sc.recovery_bound_epochs(), Some(s.max_report_gap_ms));
    let exact = [
        // Every crash in a plan but a departure is paired with a restart,
        // so the population must come back to exactly what the score
        // expects — a leak here would make the contributor invariants
        // below lie in both directions.
        (
            "live nodes at end of run",
            live as u64,
            sc.population() as u64,
        ),
        ("wrong_values (SILENTLY WRONG reports)", s.wrong_values, 0),
        ("settled_reporters", s.settled_reporters, 1),
        ("settled_over_n", s.settled_over_n, 0),
        ("settled_under_n", s.settled_under_n, 0),
        ("settled_fence_repeats", s.settled_fence_repeats, 0),
        ("settled_silent_slots", s.settled_silent_slots, 0),
        // Detection is total: every mutated frame is either rejected by the
        // codec or decodes to a valid frame.
        (
            "corrupt_rejected + corrupt_passed",
            decoded,
            tally("corrupt_injected"),
        ),
    ];
    let mut bounded = vec![
        // The dent must heal, within the bound.
        ("recovery_epochs", s.recovery_epochs, bound),
        ("max_report_gap_ms", gap, expect.max_gap_ms),
        (
            "max_silent_run_during_faults",
            Some(s.max_silent_run_during_faults),
            expect.max_silent_run,
        ),
    ];
    if expect.root_crash_at_ms.is_some() {
        // Warm failover: some node reports within ~one epoch of the root's
        // crash (at most one epoch of reports lost; the half-epoch drain
        // quantization adds slack).
        bounded.push(("failover_delay_ms", s.failover_delay_ms, 2 * sc.epoch_ms));
    }
    let mut bad = Vec::new();
    for (what, got, want) in exact {
        if got != want {
            bad.push(format!("{what} is {got}, want {want}"));
        }
    }
    for (what, got, bound) in bounded {
        if got.is_none_or(|got| got > bound) {
            bad.push(format!("{what} is {got:?}, bound {bound}"));
        }
    }
    // A campaign that never dents completeness proves nothing.
    if s.min_ratio_during_faults >= 1.0 && s.silent_slots_during_faults == 0 {
        bad.push("completeness never dipped — the faults were invisible to the accounting".into());
    }
    for name in expect.nonzero.iter().filter(|name| tally(name) == 0) {
        bad.push(format!("`{name}` never moved — the faults missed it"));
    }
    // The victim's own exposition must carry the campaign's counters and
    // parse as valid Prometheus text (a vanished victim renders nothing,
    // which does not).
    let series = expect.exposition.1.iter();
    for name in series.filter(|name| !exposition.contains(**name)) {
        bad.push(format!("`{name}` missing from the Prometheus exposition"));
    }
    if let Err(e) = dat_obs::validate_prometheus(exposition) {
        bad.push(format!("invalid Prometheus exposition: {e}"));
    }
    let seeded = |what| format!("seed {}: {what}", sc.seed);
    bad.into_iter().map(seeded).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultEvent;

    /// The generators' view of a real `n`-node ring.
    fn topology(n: usize) -> Topology {
        let space = IdSpace::new(SPACE_BITS);
        let mut rng = SmallRng::seed_from_u64(1);
        let ring = StaticRing::build(space, n, IdPolicy::Probed, &mut rng);
        let key = dat_chord::hash_to_id(space, ATTR.as_bytes());
        Topology::of(&ring, key)
    }

    /// `episodes` ten-epoch slots of churn. The bounded smoke of the full
    /// pipeline is one minute of it over a small ring; the simulated-hours
    /// runs live in tests/soak_churn.rs.
    fn churn(nodes: usize, seed: u64, episodes: usize, crash_root: bool) -> Scenario {
        Scenario {
            nodes,
            seed,
            epoch_ms: 2_000,
            warmup_ms: 20_000,
            faults_ms: 20_000 * episodes as u64,
            quiesce_ms: 60_000,
            child_ttl_epochs: 3,
            campaign: Campaign::Churn {
                episodes,
                crash_root,
            },
        }
    }

    #[test]
    fn plans_are_seed_deterministic_bounded_and_self_healing() {
        // Gray and corrupt episodes start at warmup, each at its own time,
        // and stay inside the fault window.
        let (gray, corrupt) = (Scenario::gray(1), Scenario::corrupt(1));
        let plans = [
            (gray, gray_plan(&gray, &topology(32)).0, 4),
            (corrupt, corrupt_plan(&corrupt, &topology(24)).0, 2),
        ];
        for (sc, plan, episodes) in plans {
            let starts: BTreeSet<u64> = plan.events().iter().map(|(at, _)| *at).collect();
            assert_eq!(starts.first(), Some(&sc.warmup_ms), "{sc:?}");
            assert!(starts.len() >= episodes, "{sc:?}: episodes overlap");
            assert!(starts.last() < Some(&sc.faults_end_ms()), "{sc:?}");
        }
        let (sc, topo) = (churn(64, 0, 6, true), topology(64));
        let mk = |seed| churn_plan(&sc, &topo, &mut SmallRng::seed_from_u64(seed), (6, true));
        let ((a, ea), (b, eb), (c, _)) = (mk(7), mk(7), mk(8));
        assert_eq!(a.digest(), b.digest(), "same seed, same schedule");
        assert_eq!(ea.root_crash_at_ms, eb.root_crash_at_ms);
        assert_ne!(a.digest(), c.digest(), "different seed, different schedule");
        // Every crash has a later restart; every partition a later heal;
        // everything resolves before the fault window ends.
        let mut pending_crash: HashMap<NodeAddr, u64> = HashMap::new();
        let mut pending_part: Option<u64> = None;
        for (at, ev) in a.events() {
            assert!(*at < sc.faults_end_ms(), "fault after the window: {ev:?}");
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
        let rc = ea.root_crash_at_ms.expect("crash_root set");
        assert_eq!(rc % sc.epoch_ms, sc.epoch_ms / 2, "root crash mid-epoch");
    }

    /// The replay guarantee the digest stands for, and shard invariance, on
    /// the seeds CI scores: a second run and a run on four worker threads
    /// inject the same schedule, mutate the same frames and observe the
    /// same log, ring re-knit time, scores and counters (every loss,
    /// latency and mutation coin is drawn from the receiving node's
    /// stream).
    #[test]
    fn campaigns_heal_replay_and_are_shard_count_invariant() {
        let churn = [1, 2, 3].map(|seed| churn(24, seed, 3, false));
        let (gray, corrupt) = ([1, 2].map(Scenario::gray), [1, 2, 3].map(Scenario::corrupt));
        let partition = [0xda7, 1].map(|seed| Scenario::partition(64, seed));
        let (loss, departures) = (Scenario::loss(48, 1, 0.1), Scenario::departures(48, 1, 3));
        let all = churn
            .into_iter()
            .chain(gray)
            .chain(corrupt)
            .chain(partition)
            .chain([loss, departures]);
        for sc in all {
            let first = sc.run_on(1);
            assert!(first.violations.is_empty(), "{:#?}", first.violations);
            if let Campaign::Partition = sc.campaign {
                assert_eq!(first.digest, 0xdd7d3409acf1f4a3, "{sc:?}: plan moved");
                assert!(
                    first.ring_reunified_ms.is_some(),
                    "{sc:?}: ring never re-knit"
                );
            }
            for shards in [1, 4] {
                let again = format!("{:?}", sc.run_on(shards));
                assert_eq!(format!("{first:?}"), again, "{sc:?} on {shards} shards");
            }
        }
    }

    /// A departure burst crashes ⌊n/5⌋ nodes at the start of the fault
    /// window, never the root or the stable node, and restarts none.
    #[test]
    fn departures_remove_a_fifth_sparing_root_and_stable() {
        for n in [12, 13, 24, 64, 128] {
            let (sc, topo) = (Scenario::departures(n, 1, 3), topology(n));
            assert_eq!(sc.population(), n - n / 5);
            let (plan, _) = departures_plan(&sc, &topo);
            let mut victims = HashSet::new();
            for (at, ev) in plan.events() {
                let FaultEvent::Crash { node } = ev else {
                    panic!("n = {n}: a departure burst only crashes: {ev:?}");
                };
                assert_eq!(*at, sc.warmup_ms, "n = {n}");
                assert!(*node != topo.root && *node != topo.stable, "n = {n}");
                victims.insert(*node);
            }
            assert_eq!(victims.len(), n / 5, "n = {n}");
        }
    }

    /// The TTL ablation's claim, scored: with TTL `t` the departed nodes'
    /// partials keep every report off the live count for at least `t`
    /// epochs after the burst, and every settled report counts exactly
    /// the live nodes, from one reporter.
    #[test]
    fn departed_partials_count_until_the_ttl_passes() {
        for ttl in [1, 3, 8] {
            let sc = Scenario::departures(48, 1, ttl);
            let out = sc.run();
            assert!(
                out.violations.is_empty(),
                "ttl {ttl}: {:#?}",
                out.violations
            );
            let live = sc.population() as u64;
            let ghosted = sc.warmup_ms..sc.warmup_ms + ttl * sc.epoch_ms;
            for r in out.log.iter().filter(|r| ghosted.contains(&r.t_ms)) {
                let c = r.completeness.contributors;
                assert_ne!(c, live, "ttl {ttl}: live count reported at {} ms", r.t_ms);
            }
            let settled = out.log.iter().filter(|r| r.t_ms >= sc.settle_ms());
            assert!(settled.clone().count() > 0, "ttl {ttl}: nothing settled");
            assert!(settled.clone().all(|r| r.completeness.contributors == live));
        }
    }

    /// A loss plan is the same schedule for a seed, pinned; at rate 0 it
    /// drops nothing, where any other rate does.
    #[test]
    fn loss_plans_are_pinned_and_rate_zero_drops_nothing() {
        let plan = |rate| loss_plan(&Scenario::loss(12, 5, rate), &topology(12), rate).0;
        assert_eq!(plan(0.1).digest(), plan(0.1).digest());
        assert_eq!(plan(0.1).digest(), 0x998bdea6e79f6697, "plan moved");
        assert_ne!(plan(0.1).digest(), plan(0.2).digest());
        let dropped = |rate| {
            let sc = Scenario::loss(12, 5, rate);
            let space = IdSpace::new(SPACE_BITS);
            let ring =
                StaticRing::build(space, 12, IdPolicy::Probed, &mut SmallRng::seed_from_u64(5));
            let mut net = prestabilized_dat(&ring, sc.chord_config(), sc.dat_config(None), 5);
            net.set_latency(WAN_LATENCY);
            net.set_fault_plan(plan(rate));
            net.run_for(sc.total_ms());
            (net.dropped, net.events_processed())
        };
        let (none, events) = dropped(0.0);
        assert_eq!(none, 0, "rate 0 dropped a message");
        assert!(events > 0);
        assert!(dropped(0.1).0 > 0, "rate 0.1 dropped nothing");
    }

    /// The scorer's scenario: 4 nodes, 1 s epochs, faults over [2 s, 6 s),
    /// settle point 6 s + (3 + 3 + 4) epochs = 16 s, end of run 20 s.
    const TINY: Scenario = Scenario {
        nodes: 4,
        seed: 9,
        epoch_ms: 1_000,
        warmup_ms: 2_000,
        faults_ms: 4_000,
        quiesce_ms: 14_000,
        child_ttl_epochs: 3,
        campaign: Campaign::Gray,
    };

    fn report(t_ms: u64, contributors: u64) -> Report {
        let completeness = Completeness {
            contributors,
            expected: 4,
            ratio: contributors as f64 / 4.0,
            staleness_ms: 0,
            seq: t_ms / 1_000,
            root: Id(3),
        };
        Report {
            t_ms,
            addr: NodeAddr(3),
            completeness,
            value: (contributors as f64 * VALUE, contributors, VALUE, VALUE),
        }
    }

    /// One report per slot, drained mid-slot; coverage dips to 3 of 4 for
    /// one epoch of the fault window. `edit` then breaks it.
    fn stream(edit: impl Fn(&mut Vec<Report>)) -> Vec<Report> {
        let full = |slot: u64| report(slot * 1_000 + 500, if slot == 4 { 3 } else { 4 });
        let mut log = (0..20).map(full).collect();
        edit(&mut log);
        log
    }

    /// Judge `log` under `TINY` with nothing campaign-specific expected:
    /// it must break exactly the invariants `want` names, in order.
    fn assert_judged(log: Vec<Report>, root_crash_at_ms: Option<u64>, want: &[&str]) {
        let expect = Expect {
            root_crash_at_ms,
            max_silent_run: 2,
            ..Expect::plain(NodeAddr(0))
        };
        let score = Score::of(&TINY, root_crash_at_ms, &log);
        let fleet = FleetCounters::new();
        let got = violations(&TINY, &expect, TINY.nodes, "up 1\n", &score, &fleet);
        assert_eq!(got.len(), want.len(), "{got:#?} vs {want:?}");
        for (g, w) in got.iter().zip(want) {
            assert!(g.starts_with(&format!("seed 9: {w}")), "{g:?} vs {w:?}");
        }
    }

    #[test]
    fn each_broken_invariant_is_the_only_one_named() {
        assert_eq!((TINY.settle_ms(), TINY.total_ms()), (16_000, 20_000));
        assert_judged(stream(|_| {}), None, &[]);
        assert_judged(stream(|_| {}), Some(3_000), &[]);
        // A settled slot passes with nothing published.
        let silent = stream(|log| drop(log.drain(17..18)));
        assert_judged(silent, None, &["settled_silent_slots is 1"]);
        // A report over n after the settle point.
        let over = stream(|log| log[18] = report(18_500, 5));
        assert_judged(over, None, &["settled_over_n is 1"]);
        // Two reporters after the settle point.
        let split = stream(|log| log[18].addr = NodeAddr(2));
        assert_judged(split, None, &["settled_reporters is 2"]);
        // The fence repeats a `seq`.
        let stuck = stream(|log| log[18].completeness.seq = 17);
        assert_judged(stuck, None, &["settled_fence_repeats is 1"]);
        // A sum off by one value, anywhere in the run; then min != max.
        let off = stream(|log| log[3].value.0 += VALUE);
        assert_judged(off, None, &["wrong_values (SILENTLY WRONG reports) is 1"]);
        let skew = stream(|log| log[9].value.2 = VALUE - 1.0);
        assert_judged(skew, None, &["wrong_values (SILENTLY WRONG reports) is 1"]);
        // Never back to n, so every settled report is short as well.
        let short = stream(|log| (5..20).for_each(|i| log[i] = report(log[i].t_ms, 3)));
        let want = ["settled_under_n is 4", "recovery_epochs is None"];
        assert_judged(short, None, &want);
        // Back to n at the settle point, a drain step past the bound.
        let late = stream(|log| (6..16).for_each(|i| log[i] = report(log[i].t_ms, 3)));
        assert_judged(late, None, &["recovery_epochs is Some(11), bound 10"]);
        // Nothing published after the root-crash mark.
        assert_judged(stream(|_| {}), Some(19_500), &["failover_delay_ms is None"]);
        // A fault window nobody could see.
        let flat = stream(|log| log[4] = report(4_500, 4));
        assert_judged(flat, None, &["completeness never dipped"]);
        // Three silent slots in a row during the faults, one past the bound.
        let mute = stream(|log| drop(log.drain(3..6)));
        let want = ["max_silent_run_during_faults is Some(3), bound 2"];
        assert_judged(mute, None, &want);
        // Slots 3 and 4 of the fault window pass with nothing published:
        // the ratio reads what *was* published, the silence is counted —
        // and the next report comes more than an epoch after a root crash.
        let hole = stream(|log| drop(log.drain(3..5)));
        let s = Score::of(&TINY, None, &hole);
        let silent = (s.silent_slots_during_faults, s.max_silent_run_during_faults);
        assert_eq!(
            (s.min_ratio_during_faults, silent, s.max_report_gap_ms),
            (1.0, (2, 2), 3_000)
        );
        assert_judged(
            hole,
            Some(2_500),
            &["failover_delay_ms is Some(3000), bound 2000"],
        );
        // A report drained a half-epoch step late still fills its slot;
        // reports outside the window do not score.
        let late = stream(|log| (log[3].t_ms, log[1]) = (3_999, report(1_500, 1)));
        let s = Score::of(&TINY, None, &late);
        assert_eq!(
            (s.silent_slots_during_faults, s.min_ratio_during_faults),
            (0, 0.75)
        );
    }
}
