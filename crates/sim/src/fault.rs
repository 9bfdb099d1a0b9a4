//! Deterministic fault injection for the simulated network.
//!
//! A [`FaultPlan`] is a declarative schedule of fault events in virtual
//! time: network partitions and their heals, directed-link episodes,
//! network-wide loss, message duplication, node crashes, restarts,
//! slowdowns and overload bursts. A link episode ([`FaultEvent::Link`])
//! carries one [`LinkFault`] — loss, extra latency, jitter and byte
//! corruption, any mix of them — for a bounded time; a later episode on
//! the same link replaces it. The engine cuts every run at the plan's event
//! times and applies each event on the calling thread *between* two run
//! segments, so a fault at `T` fires before every protocol event at `T`
//! for any shard count, and the worker threads only ever read the
//! controller. The schedule replays identically for a given seed — the
//! *only* randomness consumed (link loss coins and jitter at send,
//! duplication coins, corruption draws at delivery) comes from the
//! private stream of the node being processed, and none at all is drawn
//! when no plan is installed. [`FaultPlan::digest`] hashes
//! a canonical byte encoding of the schedule, which is what the
//! reproducibility tests compare across runs.

use std::collections::{HashMap, HashSet};

use dat_chord::NodeAddr;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::time::SimTime;

/// Everything that goes wrong on one directed link during an episode.
/// The default is a clean link; set only the fields the episode needs.
///
/// The sender's stream draws the loss coin (when `loss > 0`), then the
/// jitter (when `jitter_ms > 0`); the receiver's stream draws the
/// corruption coin and damage at delivery (when `corrupt` is set).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkFault {
    /// Drop probability applied on top of the global loss model.
    pub loss: f64,
    /// Extra one-way latency (ms) added to every surviving message.
    pub extra_latency_ms: u64,
    /// Upper bound of a uniform per-message jitter drawn from
    /// `0..=jitter_ms` and added to the latency.
    pub jitter_ms: u64,
    /// Byte corruption: each delivered frame is mutated with this
    /// probability, in this shape. Mutated frames travel through the real
    /// codec — the receiver sees whatever the decoder makes of the damaged
    /// bytes, which exercises checksum detection, bad-frame accounting
    /// and poisoned-peer quarantine end to end.
    pub corrupt: Option<(f64, CorruptMode)>,
}

/// How a corrupted frame's bytes are mutated (see
/// [`LinkFault::corrupt`]). Each mode models a different wire
/// pathology; all of them must be caught by the frame checksum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptMode {
    /// Flip one random bit — the classic undetected-by-UDP single-bit
    /// error.
    BitFlip,
    /// Cut the frame at a random offset — a fragmented or clipped
    /// datagram.
    Truncate,
    /// Replace a random run of bytes with random garbage — memory
    /// corruption in a middlebox, or a hostile writer.
    Garbage,
    /// Overwrite the message-tag byte with a random value — the
    /// "parseable but wrong message" shape that most tempts a decoder
    /// into silent misinterpretation.
    TagRewrite,
}

impl CorruptMode {
    /// Canonical byte for digest encoding.
    fn code(self) -> u8 {
        match self {
            CorruptMode::BitFlip => 0,
            CorruptMode::Truncate => 1,
            CorruptMode::Garbage => 2,
            CorruptMode::TagRewrite => 3,
        }
    }

    /// Damage an encoded frame in place. All randomness comes from `rng`
    /// (the receiving node's seeded stream), so a corruption episode
    /// replays byte-identically for a given seed.
    pub(crate) fn damage(self, bytes: &mut Vec<u8>, rng: &mut SmallRng) {
        if bytes.is_empty() {
            return;
        }
        match self {
            CorruptMode::BitFlip => {
                let bit = rng.random_range(0..bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            CorruptMode::Truncate => {
                let keep = rng.random_range(0..bytes.len());
                bytes.truncate(keep);
            }
            CorruptMode::Garbage => {
                let start = rng.random_range(0..bytes.len());
                let len = rng.random_range(1..=bytes.len() - start);
                for b in &mut bytes[start..start + len] {
                    *b = rng.random();
                }
            }
            CorruptMode::TagRewrite => {
                // A hostile *writer*, not line noise: rewrite the message tag
                // and recompute a valid checksum, so the decoder's own tag and
                // structure validation — not the CRC — must catch the frame.
                let trailer = dat_chord::codec::CRC_TRAILER;
                if bytes.len() > 2 + trailer {
                    bytes[2] = rng.random();
                    let body_end = bytes.len() - trailer;
                    let crc = dat_chord::wire::crc32c(&bytes[..body_end]);
                    bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
                }
            }
        }
    }

    /// Stable label (reports, replay lines).
    pub fn label(self) -> &'static str {
        match self {
            CorruptMode::BitFlip => "bit_flip",
            CorruptMode::Truncate => "truncate",
            CorruptMode::Garbage => "garbage",
            CorruptMode::TagRewrite => "tag_rewrite",
        }
    }
}

/// One scheduled fault.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// Sever all traffic between `group` and the rest of the network, in
    /// both directions. A new partition replaces any active one.
    Partition {
        /// Addresses on one side of the cut.
        group: Vec<NodeAddr>,
    },
    /// Remove the active partition.
    Heal,
    /// An episode of `fault` on the directed link `from → to`, active from
    /// its firing for `for_ms` (a zero-length episode applies nothing). The
    /// reverse direction is untouched, so a lossy episode leaves the victim
    /// *hearing* its peer while its own traffic wanders — the half-open
    /// link. A later episode on the same link replaces this one.
    Link {
        /// Sending side.
        from: NodeAddr,
        /// Receiving side.
        to: NodeAddr,
        /// What the link does to traffic during the episode.
        fault: LinkFault,
        /// Episode length (ms).
        for_ms: u64,
    },
    /// Deliver every message twice with this probability (the second copy
    /// draws its own latency). Models the duplicate-delivery hazard of
    /// retransmitting transports. The coin is flipped per transmission, so
    /// duplication compounds across multi-hop forwarding chains — keep
    /// `prob` small (a few percent); values near 1 amplify deep routes
    /// exponentially.
    SetDuplication {
        /// Duplication probability in `[0, 1]`.
        prob: f64,
    },
    /// Drop every message with this probability, network-wide: sets the
    /// engine's own [`crate::LossModel`] (the coin every send already
    /// flips), which stays until the next `SetLoss` or
    /// [`crate::SimNet::set_loss`].
    SetLoss {
        /// Loss probability in `[0, 1]`.
        prob: f64,
    },
    /// Abruptly remove a node, exactly like [`crate::SimNet::crash`]:
    /// in-flight traffic to it is dropped, its timers die silently.
    Crash {
        /// The node to remove.
        node: NodeAddr,
    },
    /// Re-create a previously crashed node with fresh state through the
    /// host's restart hook ([`crate::SimNet::set_restart_fn`]). Ignored if
    /// the node is still alive or no hook is installed.
    Restart {
        /// The node to bring back.
        node: NodeAddr,
    },
    /// Gray failure: `node` keeps running but serializes message
    /// processing, consuming `process_ms` of virtual time per delivered
    /// message for the duration of the episode. The node never goes
    /// silent — it answers *late*, the failure mode clean crash detection
    /// cannot see.
    Slowdown {
        /// The slowed node.
        node: NodeAddr,
        /// Virtual processing time consumed per delivered message.
        process_ms: u64,
        /// Episode length (ms).
        for_ms: u64,
    },
    /// Overload burst: `msgs` junk application messages (an undecodable
    /// DAT payload from a sentinel sender) are delivered to `node`,
    /// spread evenly over `spread_ms`. They burn inbox capacity and
    /// decode as garbage — exercising priority shedding rather than the
    /// protocol itself.
    Overload {
        /// The node to swamp.
        node: NodeAddr,
        /// Number of junk messages injected.
        msgs: u64,
        /// Window over which the deliveries are spread (ms).
        spread_ms: u64,
    },
}

impl FaultEvent {
    /// Append a canonical byte encoding (stable across runs and platforms).
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            FaultEvent::Partition { group } => {
                buf.push(0);
                buf.extend((group.len() as u64).to_le_bytes());
                for a in group {
                    buf.extend(a.0.to_le_bytes());
                }
            }
            FaultEvent::Heal => buf.push(1),
            FaultEvent::Link {
                from,
                to,
                fault,
                for_ms,
            } => {
                buf.push(12);
                buf.extend(from.0.to_le_bytes());
                buf.extend(to.0.to_le_bytes());
                buf.extend(fault.loss.to_bits().to_le_bytes());
                buf.extend(fault.extra_latency_ms.to_le_bytes());
                buf.extend(fault.jitter_ms.to_le_bytes());
                match fault.corrupt {
                    None => buf.push(0),
                    Some((prob, mode)) => {
                        buf.push(1 + mode.code());
                        buf.extend(prob.to_bits().to_le_bytes());
                    }
                }
                buf.extend(for_ms.to_le_bytes());
            }
            FaultEvent::SetDuplication { prob } => {
                buf.push(5);
                buf.extend(prob.to_bits().to_le_bytes());
            }
            FaultEvent::SetLoss { prob } => {
                buf.push(13);
                buf.extend(prob.to_bits().to_le_bytes());
            }
            FaultEvent::Crash { node } => {
                buf.push(6);
                buf.extend(node.0.to_le_bytes());
            }
            FaultEvent::Restart { node } => {
                buf.push(7);
                buf.extend(node.0.to_le_bytes());
            }
            FaultEvent::Slowdown {
                node,
                process_ms,
                for_ms,
            } => {
                buf.push(8);
                buf.extend(node.0.to_le_bytes());
                buf.extend(process_ms.to_le_bytes());
                buf.extend(for_ms.to_le_bytes());
            }
            FaultEvent::Overload {
                node,
                msgs,
                spread_ms,
            } => {
                buf.push(10);
                buf.extend(node.0.to_le_bytes());
                buf.extend(msgs.to_le_bytes());
                buf.extend(spread_ms.to_le_bytes());
            }
        }
    }

    /// Build-time validation: every probability parameter must be a finite
    /// value in `[0.0, 1.0]`. Catching a NaN or out-of-range loss here —
    /// when the plan is *built* — beats silently misbehaving coin flips at
    /// delivery time. Panics with the offending field and value.
    fn validate(&self) {
        fn check_prob(what: &str, p: f64) {
            assert!(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "{what} must be a finite probability in [0.0, 1.0], got {p}"
            );
        }
        match self {
            FaultEvent::Link { fault, .. } => {
                check_prob("LinkFault.loss", fault.loss);
                if let Some((prob, _)) = fault.corrupt {
                    check_prob("corruption prob", prob);
                }
            }
            FaultEvent::SetDuplication { prob } => check_prob("duplication prob", *prob),
            FaultEvent::SetLoss { prob } => check_prob("loss prob", *prob),
            _ => {}
        }
    }
}

/// A deterministic schedule of fault events in virtual time.
///
/// Built with the fluent `*_at` methods; install it with
/// [`crate::SimNet::set_fault_plan`]; events already in the past at
/// install time fire at the start of the next run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<(u64, FaultEvent)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedule `event` at virtual time `at_ms`.
    ///
    /// Every builder funnels through here, so probability parameters
    /// (link loss, network loss, corruption, duplication) are validated
    /// into `[0.0, 1.0]` at build time; an out-of-range or NaN value panics
    /// immediately instead of corrupting coin flips mid-run.
    pub fn at(mut self, at_ms: u64, event: FaultEvent) -> Self {
        event.validate();
        self.events.push((at_ms, event));
        self
    }

    /// Partition `group` away from everyone else at `at_ms`.
    pub fn partition_at(self, at_ms: u64, group: Vec<NodeAddr>) -> Self {
        self.at(at_ms, FaultEvent::Partition { group })
    }

    /// Heal the active partition at `at_ms`.
    pub fn heal_at(self, at_ms: u64) -> Self {
        self.at(at_ms, FaultEvent::Heal)
    }

    /// An episode of `fault` on `from → to`, from `at_ms` for `for_ms`.
    pub fn link_at(
        self,
        at_ms: u64,
        from: NodeAddr,
        to: NodeAddr,
        fault: LinkFault,
        for_ms: u64,
    ) -> Self {
        self.at(
            at_ms,
            FaultEvent::Link {
                from,
                to,
                fault,
                for_ms,
            },
        )
    }

    /// Set the message-duplication probability at `at_ms`.
    pub fn duplication_at(self, at_ms: u64, prob: f64) -> Self {
        self.at(at_ms, FaultEvent::SetDuplication { prob })
    }

    /// Set the network-wide loss probability at `at_ms`.
    pub fn loss_at(self, at_ms: u64, prob: f64) -> Self {
        self.at(at_ms, FaultEvent::SetLoss { prob })
    }

    /// Crash `node` at `at_ms`.
    pub fn crash_at(self, at_ms: u64, node: NodeAddr) -> Self {
        self.at(at_ms, FaultEvent::Crash { node })
    }

    /// Restart `node` (fresh state) at `at_ms`.
    pub fn restart_at(self, at_ms: u64, node: NodeAddr) -> Self {
        self.at(at_ms, FaultEvent::Restart { node })
    }

    /// A gray processing-slowdown episode on `node` starting at `at_ms`.
    pub fn slowdown_at(self, at_ms: u64, node: NodeAddr, process_ms: u64, for_ms: u64) -> Self {
        self.at(
            at_ms,
            FaultEvent::Slowdown {
                node,
                process_ms,
                for_ms,
            },
        )
    }

    /// An overload burst of `msgs` junk messages on `node` at `at_ms`.
    pub fn overload_at(self, at_ms: u64, node: NodeAddr, msgs: u64, spread_ms: u64) -> Self {
        self.at(
            at_ms,
            FaultEvent::Overload {
                node,
                msgs,
                spread_ms,
            },
        )
    }

    /// The scheduled `(at_ms, event)` pairs, in declaration order.
    pub fn events(&self) -> &[(u64, FaultEvent)] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// FNV-1a hash of the canonical byte encoding of the whole schedule,
    /// in declaration order. Two runs configured with equal plans produce
    /// equal digests — the reproducibility tests' byte-identity check.
    pub fn digest(&self) -> u64 {
        let mut buf = Vec::new();
        for (at, ev) in &self.events {
            buf.extend(at.to_le_bytes());
            ev.encode(&mut buf);
        }
        // Not `dat_obs::fnv1a`: the multiplier differs, and every recorded
        // plan digest depends on this one.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in buf {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
        h
    }
}

/// What the engine must do for node-level fault events (the controller
/// handles link-level state itself).
#[derive(Clone, Copy, Debug)]
pub(crate) enum FaultAction {
    Crash(NodeAddr),
    Restart(NodeAddr),
    /// Set the engine's loss probability.
    Loss(f64),
    /// Install a processing slowdown: (node, process_ms, for_ms).
    Slow(NodeAddr, u64, u64),
    /// Schedule an overload burst: (node, msgs, spread_ms).
    Overload(NodeAddr, u64, u64),
}

/// Live fault state derived from a [`FaultPlan`] as its events fire.
/// Only [`FaultController::fire_next`] mutates it, on the engine's calling
/// thread between run segments; every query is `&self`, so worker threads
/// share one controller. Episodes expire by comparison against the
/// caller's clock, never by removal.
#[derive(Debug)]
pub(crate) struct FaultController {
    plan: FaultPlan,
    /// Plan indices in firing order: by time, declaration order within a
    /// millisecond.
    order: Vec<usize>,
    /// How many entries of `order` have fired.
    fired: usize,
    /// Addresses on the minority side of the active partition, if any.
    partition: Option<HashSet<NodeAddr>>,
    /// The latest episode on each directed link, with its expiry.
    links: HashMap<(NodeAddr, NodeAddr), (LinkFault, SimTime)>,
    dup_prob: f64,
}

impl FaultController {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let mut order: Vec<usize> = (0..plan.events.len()).collect();
        order.sort_by_key(|&i| plan.events[i].0);
        FaultController {
            plan,
            order,
            fired: 0,
            partition: None,
            links: HashMap::new(),
            dup_prob: 0.0,
        }
    }

    /// Scheduled time (ms) of the next un-fired event.
    pub(crate) fn next_at(&self) -> Option<u64> {
        self.order.get(self.fired).map(|&i| self.plan.events[i].0)
    }

    /// Fire the next scheduled event at engine time `now` (its scheduled
    /// time, or later when the plan was installed late); node-level events
    /// are returned for the engine to execute.
    pub(crate) fn fire_next(&mut self, now: SimTime) -> Option<FaultAction> {
        let &idx = self.order.get(self.fired)?;
        self.fired += 1;
        match self.plan.events[idx].1.clone() {
            FaultEvent::Partition { group } => {
                self.partition = Some(group.into_iter().collect());
                None
            }
            FaultEvent::Heal => {
                self.partition = None;
                None
            }
            FaultEvent::Link {
                from,
                to,
                fault,
                for_ms,
            } => {
                self.links.insert((from, to), (fault, now + for_ms));
                None
            }
            FaultEvent::SetDuplication { prob } => {
                self.dup_prob = prob.clamp(0.0, 1.0);
                None
            }
            FaultEvent::SetLoss { prob } => Some(FaultAction::Loss(prob)),
            FaultEvent::Crash { node } => Some(FaultAction::Crash(node)),
            FaultEvent::Restart { node } => Some(FaultAction::Restart(node)),
            FaultEvent::Slowdown {
                node,
                process_ms,
                for_ms,
            } => Some(FaultAction::Slow(node, process_ms, for_ms)),
            FaultEvent::Overload {
                node,
                msgs,
                spread_ms,
            } => Some(FaultAction::Overload(node, msgs, spread_ms)),
        }
    }

    /// Is traffic `from → to` severed by the active partition?
    pub(crate) fn blocked(&self, from: NodeAddr, to: NodeAddr) -> bool {
        match &self.partition {
            Some(group) => group.contains(&from) != group.contains(&to),
            None => false,
        }
    }

    /// The episode on `from → to`, while it runs: from its firing up to,
    /// not including, its expiry. `None` — and so no randomness drawn —
    /// on every link no episode touches.
    pub(crate) fn link(&self, from: NodeAddr, to: NodeAddr, now: SimTime) -> Option<&LinkFault> {
        match self.links.get(&(from, to)) {
            Some((fault, expiry)) if now < *expiry => Some(fault),
            _ => None,
        }
    }

    pub(crate) fn dup_prob(&self) -> f64 {
        self.dup_prob
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u64) -> NodeAddr {
        NodeAddr(n)
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let build = || {
            FaultPlan::new()
                .partition_at(10_000, vec![a(1), a(2)])
                .heal_at(70_000)
                .crash_at(80_000, a(3))
        };
        assert_eq!(build().digest(), build().digest());
        let reordered = FaultPlan::new()
            .heal_at(70_000)
            .partition_at(10_000, vec![a(1), a(2)])
            .crash_at(80_000, a(3));
        assert_ne!(build().digest(), reordered.digest());
        let tweaked = FaultPlan::new()
            .partition_at(10_000, vec![a(1), a(2)])
            .heal_at(70_001)
            .crash_at(80_000, a(3));
        assert_ne!(build().digest(), tweaked.digest());
        assert_ne!(FaultPlan::new().digest(), build().digest());
    }

    #[test]
    fn partition_blocks_both_directions_until_heal() {
        let plan = FaultPlan::new().partition_at(0, vec![a(1)]).heal_at(10);
        let mut fc = FaultController::new(plan);
        fc.fire_next(SimTime(0));
        assert!(fc.blocked(a(1), a(2)));
        assert!(fc.blocked(a(2), a(1)));
        assert!(!fc.blocked(a(2), a(3)), "same side unaffected");
        assert!(!fc.blocked(a(1), a(1)));
        fc.fire_next(SimTime(10));
        assert!(!fc.blocked(a(1), a(2)));
    }

    #[test]
    fn events_fire_by_time_then_declaration_order() {
        let plan = FaultPlan::new()
            .heal_at(20)
            .partition_at(10, vec![a(1)])
            .duplication_at(10, 0.5);
        let mut fc = FaultController::new(plan);
        assert_eq!(fc.next_at(), Some(10));
        fc.fire_next(SimTime(10));
        assert!(fc.blocked(a(1), a(2)) && fc.dup_prob() == 0.0);
        assert_eq!(fc.next_at(), Some(10));
        fc.fire_next(SimTime(10));
        assert_eq!(fc.dup_prob(), 0.5);
        assert_eq!(fc.next_at(), Some(20));
        fc.fire_next(SimTime(20));
        assert!(!fc.blocked(a(1), a(2)));
        assert_eq!(fc.next_at(), None);
    }

    fn lossy(loss: f64, extra_latency_ms: u64) -> LinkFault {
        LinkFault {
            loss,
            extra_latency_ms,
            ..LinkFault::default()
        }
    }

    fn noisy(prob: f64, mode: CorruptMode) -> LinkFault {
        LinkFault {
            corrupt: Some((prob, mode)),
            ..LinkFault::default()
        }
    }

    #[test]
    fn link_episode_is_directed_and_inactive_from_its_expiry() {
        let fault = lossy(0.5, 100);
        let plan = FaultPlan::new().link_at(30, a(1), a(2), fault, 50);
        let mut fc = FaultController::new(plan);
        assert_eq!(fc.link(a(1), a(2), SimTime(30)), None, "not yet fired");
        fc.fire_next(SimTime(30));
        assert_eq!(fc.link(a(1), a(2), SimTime(30)), Some(&fault));
        assert_eq!(fc.link(a(1), a(2), SimTime(79)), Some(&fault));
        assert_eq!(
            fc.link(a(1), a(2), SimTime(80)),
            None,
            "over at at + for_ms"
        );
        assert_eq!(fc.link(a(2), a(1), SimTime(30)), None, "directed");
    }

    #[test]
    fn a_second_episode_on_a_link_replaces_the_first() {
        let all_four = LinkFault {
            jitter_ms: 25,
            corrupt: Some((0.5, CorruptMode::Garbage)),
            ..lossy(0.3, 40)
        };
        let plan = FaultPlan::new()
            .link_at(0, a(1), a(2), all_four, 10_000)
            .link_at(100, a(1), a(2), noisy(0.9, CorruptMode::BitFlip), 200)
            .link_at(1_000, a(1), a(2), lossy(1.0, 0), 5_000)
            .link_at(2_000, a(1), a(2), all_four, 0);
        let mut fc = FaultController::new(plan);
        fc.fire_next(SimTime(0));
        assert_eq!(fc.link(a(1), a(2), SimTime(50)), Some(&all_four));
        // Corruption alone replaces all four kinds, loss alone replaces
        // corruption, and an ended episode does not bring back the one it
        // replaced.
        fc.fire_next(SimTime(100));
        let replaced = fc.link(a(1), a(2), SimTime(100));
        assert_eq!(replaced, Some(&noisy(0.9, CorruptMode::BitFlip)));
        assert_eq!(fc.link(a(1), a(2), SimTime(300)), None);
        fc.fire_next(SimTime(1_000));
        assert_eq!(fc.link(a(1), a(2), SimTime(1_000)), Some(&lossy(1.0, 0)));
        // A zero-length episode ends the running one and applies nothing.
        fc.fire_next(SimTime(2_000));
        assert_eq!(fc.link(a(1), a(2), SimTime(2_000)), None);
    }

    #[test]
    fn zero_length_episode_is_legal_and_inert() {
        let plan = FaultPlan::new().link_at(5, a(1), a(2), noisy(1.0, CorruptMode::Truncate), 0);
        let mut fc = FaultController::new(plan);
        assert!(fc.fire_next(SimTime(5)).is_none());
        assert_eq!(fc.link(a(1), a(2), SimTime(5)), None);
    }

    #[test]
    #[should_panic(expected = "finite probability")]
    fn link_loss_above_one_rejected_at_build_time() {
        let _ = FaultPlan::new().link_at(0, a(1), a(2), lossy(1.5, 0), 100);
    }

    #[test]
    #[should_panic(expected = "finite probability")]
    fn link_loss_nan_rejected_at_build_time() {
        let _ = FaultPlan::new().link_at(0, a(1), a(2), lossy(f64::NAN, 0), 100);
    }

    #[test]
    #[should_panic(expected = "finite probability")]
    fn duplication_prob_out_of_range_rejected_at_build_time() {
        let _ = FaultPlan::new().duplication_at(0, -0.1);
    }

    #[test]
    fn gray_events_surface_actions_and_cover_digest() {
        let fault = LinkFault {
            jitter_ms: 40,
            ..lossy(0.3, 20)
        };
        let build = |jitter_ms| {
            FaultPlan::new()
                .slowdown_at(10, a(1), 500, 5_000)
                .link_at(20, a(1), a(2), LinkFault { jitter_ms, ..fault }, 5_000)
                .overload_at(30, a(3), 64, 1_000)
        };
        // Every variant and every link field lands in the canonical digest.
        assert_eq!(build(40).digest(), build(40).digest());
        assert_ne!(build(40).digest(), build(41).digest());
        let tweaked = FaultPlan::new()
            .slowdown_at(10, a(1), 501, 5_000)
            .link_at(20, a(1), a(2), fault, 5_000)
            .overload_at(30, a(3), 64, 1_000);
        assert_ne!(build(40).digest(), tweaked.digest());

        let mut fc = FaultController::new(build(40));
        assert!(matches!(
            fc.fire_next(SimTime(10)),
            Some(FaultAction::Slow(n, 500, 5_000)) if n == a(1)
        ));
        assert!(fc.fire_next(SimTime(20)).is_none());
        assert_eq!(fc.link(a(1), a(2), SimTime(100)), Some(&fault));
        assert_eq!(fc.link(a(1), a(2), SimTime(5_020)), None, "expired");
        assert!(matches!(
            fc.fire_next(SimTime(30)),
            Some(FaultAction::Overload(n, 64, 1_000)) if n == a(3)
        ));
    }

    #[test]
    fn corrupt_link_covers_digest_and_expires() {
        let build = |first: CorruptMode, prob: f64| {
            FaultPlan::new()
                .link_at(100, a(1), a(2), noisy(prob, first), 5_000)
                .link_at(200, a(2), a(3), noisy(0.5, CorruptMode::Garbage), 1_000)
        };
        let plan = || build(CorruptMode::BitFlip, 0.05);
        assert_eq!(plan().digest(), plan().digest());
        let other_mode = build(CorruptMode::Truncate, 0.05);
        assert_ne!(plan().digest(), other_mode.digest(), "mode is content");
        let other_prob = build(CorruptMode::BitFlip, 0.06);
        assert_ne!(plan().digest(), other_prob.digest(), "prob is content");
        let clean = FaultPlan::new()
            .link_at(100, a(1), a(2), LinkFault::default(), 5_000)
            .link_at(200, a(2), a(3), noisy(0.5, CorruptMode::Garbage), 1_000);
        assert_ne!(plan().digest(), clean.digest(), "corruption is content");

        let mut fc = FaultController::new(plan());
        assert!(fc.fire_next(SimTime(100)).is_none());
        let episode = fc
            .link(a(1), a(2), SimTime(5_099))
            .and_then(|lf| lf.corrupt);
        assert_eq!(episode, Some((0.05, CorruptMode::BitFlip)));
        assert_eq!(fc.link(a(2), a(1), SimTime(200)), None, "directed");
        assert_eq!(fc.link(a(1), a(2), SimTime(5_100)), None, "episode over");
    }

    #[test]
    fn corrupt_link_digest_vector_is_pinned() {
        // Golden digest: guards the canonical encoding of a link episode
        // (tag 12, LE fields, the corruption byte: 0 for none, else 1 +
        // the mode code, then the probability) against accidental
        // re-numbering. If this changes, every recorded replay line
        // referencing a link-fault plan breaks.
        let fault = LinkFault {
            jitter_ms: 5,
            corrupt: Some((0.25, CorruptMode::TagRewrite)),
            ..lossy(0.125, 40)
        };
        let plan = FaultPlan::new().link_at(1_000, a(7), a(9), fault, 30_000);
        assert_eq!(plan.digest(), 0x5c33_ec5f_e7e7_869c);
    }

    #[test]
    #[should_panic(expected = "finite probability")]
    fn corruption_prob_nan_rejected_at_build_time() {
        let _ = FaultPlan::new().link_at(0, a(1), a(2), noisy(f64::NAN, CorruptMode::BitFlip), 100);
    }

    #[test]
    #[should_panic(expected = "finite probability")]
    fn corruption_prob_above_one_rejected_at_build_time() {
        let _ = FaultPlan::new().link_at(0, a(1), a(2), noisy(1.01, CorruptMode::Garbage), 100);
    }

    #[test]
    fn duplication_applies_and_crash_restart_surface_actions() {
        let plan = FaultPlan::new()
            .duplication_at(0, 1.0)
            .loss_at(0, 0.25)
            .crash_at(1, a(9))
            .restart_at(2, a(9));
        let mut fc = FaultController::new(plan);
        assert!(fc.fire_next(SimTime(0)).is_none());
        assert_eq!(fc.dup_prob(), 1.0);
        assert!(matches!(fc.fire_next(SimTime(0)), Some(FaultAction::Loss(p)) if p == 0.25));
        assert!(matches!(
            fc.fire_next(SimTime(1)),
            Some(FaultAction::Crash(n)) if n == a(9)
        ));
        assert!(matches!(
            fc.fire_next(SimTime(2)),
            Some(FaultAction::Restart(n)) if n == a(9)
        ));
        assert!(
            fc.fire_next(SimTime(3)).is_none(),
            "an exhausted plan is inert"
        );
    }
}
