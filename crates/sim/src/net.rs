//! The simulated network: hosts sans-io actors, delivers messages with
//! modeled latency/loss, and fires timers — all in deterministic virtual
//! time. This file is the engine's control plane — membership, faults, the
//! public surface — all of it on the calling thread. [`crate::shard`] is
//! the data plane that executes events, one worker thread per shard, and
//! documents the ordering rules that make a seed fix every byte at any
//! shard count.
//!
//! ## Membership
//!
//! Nodes live in an arena of slots addressed by dense indices and dealt
//! across the shards (slot `g` on shard `g % S`). Per-link counters,
//! slowdown state, RNG stream and key counter are fields of the slot, so
//! a delivery costs one `Vec` index and one address compare. A crash
//! frees the slot; [`SimNet::add_node`] reuses it under a bumped
//! generation, and hands a restarted address its own slot back while that
//! is still free. A message is delivered iff its destination address is
//! live in the targeted slot when it lands: traffic in flight to a
//! crashed node reaches a restarted incarnation of the address and is
//! counted in [`SimNet::dropped`] otherwise; a message sent while nobody
//! holds the address is dropped on the spot. Timers die with the
//! incarnation that armed them.
//!
//! ## Faults
//!
//! [`SimNet::run_until`] cuts the run at each pending [`FaultPlan`] time,
//! runs the segment before it, and applies the event here with
//! `&mut self`: a fault at `T` fires before every protocol event at `T`,
//! and the parallel section never sees fault state change. A directed
//! link's episode is read twice per message: at send for its loss coin,
//! latency and jitter, and at delivery for its corruption.
//!
//! Messages pass between co-hosted actors zero-copy (payload bytes are
//! shared `Arc` buffers); [`SimNet::set_codec_parity`] proves that agrees
//! with wire delivery byte for byte.

#![deny(clippy::unwrap_used)]

use std::collections::HashMap;

use dat_chord::{ChordMsg, Id, NodeAddr, NodeRef, Output, Upcall};

use crate::fault::{FaultAction, FaultController, FaultPlan};
use crate::latency::{LatencyModel, LossModel};
use crate::shard::{key, run_segment, Env, Event, Parcel, Shard, Slot, ENGINE_IDX};
use crate::time::SimTime;

pub use dat_chord::Actor;

/// An upcall surfaced by some node, timestamped.
#[derive(Clone, Debug)]
pub struct UpcallRecord {
    /// When it fired.
    pub at: SimTime,
    /// Which node surfaced it.
    pub node: NodeAddr,
    /// The upcall payload.
    pub upcall: Upcall,
}

/// Per-node transport-level counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkStats {
    /// Messages this node handed to the transport.
    pub sent: u64,
    /// Messages delivered to this node.
    pub delivered: u64,
}

/// The discrete-event network engine.
///
/// Generic over the hosted [`Actor`] so the same engine runs bare Chord
/// overlays, DAT stacks, and the monitoring application — exactly the
/// layering of the paper's prototype simulator (§4).
pub struct SimNet<A: Actor> {
    shards: Vec<Shard<A>>,
    /// Address → global slot index of every live node.
    addr_map: HashMap<NodeAddr, u32>,
    /// Slots dealt so far, live and free.
    slots: u32,
    /// Crashed slots awaiting reuse.
    free: Vec<u32>,
    /// Bumped on every add/crash so hosts can cache membership-derived
    /// structures (address lists, id maps) and rebuild only on change.
    membership_epoch: u64,
    seed: u64,
    now: SimTime,
    latency: LatencyModel,
    loss: LossModel,
    /// Recorded upcalls with their upcall keys; `(at, key)` is the
    /// shard-count-invariant order [`SimNet::take_upcalls`] returns.
    upcalls: Vec<(u64, UpcallRecord)>,
    record_upcalls: bool,
    /// Counters of nodes that crashed, frozen at crash time (accumulated
    /// across repeated crashes of the same address).
    retired_stats: HashMap<NodeAddr, LinkStats>,
    faults: Option<FaultController>,
    /// Builds a fresh actor (plus its start outputs) for a
    /// [`crate::FaultEvent::Restart`] of the given address.
    #[allow(clippy::type_complexity)]
    restart_fn: Option<Box<dyn FnMut(NodeAddr) -> Option<(A, Vec<Output>)>>>,
    /// Round-trip every delivered message through the wire codec and
    /// assert equality (zero-copy parity proof; costs an encode+decode
    /// per delivery, so it is opt-in).
    codec_parity: bool,
    /// Counter behind the keys of engine-originated events.
    engine_ctr: u64,
    /// Messages dropped by the loss model, an active partition/link fault,
    /// or addressed to dead nodes.
    pub dropped: u64,
    /// Wire-corruption bookkeeping (all zero unless a link episode with
    /// [`crate::LinkFault::corrupt`] set fired).
    pub corruption: CorruptionStats,
    events_processed: u64,
    /// Clamps no live queue counts: fault events already overdue when
    /// their plan was installed, and queues retired by `set_shards`.
    clamped: u64,
}

/// Counters for byte-level wire corruption injected by link episodes
/// ([`crate::LinkFault::corrupt`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CorruptionStats {
    /// Frames whose bytes were actually mutated (the per-message coin
    /// landed inside an active episode).
    pub injected: u64,
    /// Mutated frames the decoder rejected — delivered to the victim as
    /// [`dat_chord::Input::BadFrame`] so its containment layer sees the
    /// attack.
    pub rejected: u64,
    /// Mutated frames that still decoded — either the mutation was a
    /// no-op (random bytes matched the originals) or a hostile rewrite
    /// produced a different-but-valid frame. Delivered as whatever the
    /// decoder produced, because that is exactly what a real receiver
    /// would see.
    pub passed: u64,
}

impl<A: Actor> SimNet<A> {
    /// A fresh engine with the given determinism seed: one shard, run on
    /// the calling thread.
    pub fn new(seed: u64) -> Self {
        SimNet {
            shards: vec![Shard::new(0, SimTime::ZERO)],
            addr_map: HashMap::new(),
            slots: 0,
            free: Vec::new(),
            membership_epoch: 0,
            seed,
            now: SimTime::ZERO,
            latency: LatencyModel::default(),
            loss: LossModel::NONE,
            upcalls: Vec::new(),
            record_upcalls: false,
            retired_stats: HashMap::new(),
            faults: None,
            restart_fn: None,
            codec_parity: false,
            engine_ctr: 0,
            dropped: 0,
            corruption: CorruptionStats::default(),
            events_processed: 0,
            clamped: 0,
        }
    }

    /// Spread the arena over `shards` worker shards (`0` behaves as `1`);
    /// runs spawn one thread per shard when there is more than one. Call
    /// between runs, any number of times: slots are re-dealt by index and
    /// pending events re-filed under their existing `(at, key)`, so the
    /// schedule — and every byte a seeded run produces — cannot move.
    pub fn set_shards(&mut self, shards: usize) {
        let s = shards.max(1);
        let old = self.shards.len();
        if s == old {
            return;
        }
        self.fold();
        let mut fresh: Vec<Shard<A>> = (0..s).map(|id| Shard::new(id, self.now)).collect();
        let mut dealt: Vec<_> = self
            .shards
            .iter_mut()
            .map(|sh| std::mem::take(&mut sh.nodes).into_iter())
            .collect();
        for g in 0..self.slots as usize {
            fresh[g % s].nodes.extend(dealt[g % old].next());
        }
        for sh in &mut self.shards {
            self.clamped += sh.queue.clamped_events();
            while let Some(mut ev) = sh.queue.pop() {
                let target = ev.event.target_mut();
                let g = *target as usize * old + sh.id;
                *target = (g / s) as u32;
                fresh[g % s].queue.push_at_keyed(ev.at, ev.seq, ev.event);
            }
        }
        self.shards = fresh;
    }

    /// Install a fault schedule, replacing any previous one: un-fired
    /// events of the old plan never fire, and the link, partition and
    /// duplication state it built up is gone. Events whose time has
    /// already passed fire at the start of the next run, in schedule
    /// order, and count as [`SimNet::clamped_events`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let overdue = plan.events().iter().filter(|(at, _)| *at < self.now.0);
        self.clamped += overdue.count() as u64;
        self.faults = Some(FaultController::new(plan));
    }

    /// Install the hook that [`crate::FaultEvent::Restart`] uses to build
    /// a replacement actor (fresh state — a restart never resurrects the
    /// crashed actor's memory). Return `None` to skip a restart.
    pub fn set_restart_fn<F>(&mut self, f: F)
    where
        F: FnMut(NodeAddr) -> Option<(A, Vec<Output>)> + 'static,
    {
        self.restart_fn = Some(Box::new(f));
    }

    /// Replace the latency model (its [`LatencyModel::min_ms`] is also the
    /// lookahead window of multi-shard runs).
    pub fn set_latency(&mut self, model: LatencyModel) {
        self.latency = model;
    }

    /// Replace the loss model.
    pub fn set_loss(&mut self, model: LossModel) {
        self.loss = model;
    }

    /// Start/stop recording upcalls for [`SimNet::take_upcalls`]. Off by
    /// default: only a caller that reads them pays their memory. Recording
    /// draws nothing from a node's event keys or RNG stream: a run is the
    /// same either way.
    pub fn set_record_upcalls(&mut self, on: bool) {
        self.record_upcalls = on;
    }

    /// Enable the zero-copy/wire parity proof: every delivered message is
    /// encoded with [`dat_chord::codec`], decoded back, and compared. Any
    /// divergence panics with the offending message. Off by default.
    pub fn set_codec_parity(&mut self, on: bool) {
        self.codec_parity = on;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of hosted (live) nodes.
    pub fn len(&self) -> usize {
        self.addr_map.len()
    }

    /// `true` when no nodes are hosted.
    pub fn is_empty(&self) -> bool {
        self.addr_map.is_empty()
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Pending events (messages in flight + armed timers).
    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(|sh| sh.queue.len()).sum()
    }

    /// Events that were scheduled in the past and clamped to "now".
    /// Persistently growing values point at stale-deadline bugs in hosts
    /// (or a violated lookahead window); surfaced here so scale runs can
    /// assert on it.
    pub fn clamped_events(&self) -> u64 {
        let queued: u64 = self.shards.iter().map(|sh| sh.queue.clamped_events()).sum();
        self.clamped + queued
    }

    /// Bumped on every membership change (add or crash). Hosts that
    /// derive per-node structures from the address list can cache them
    /// keyed on this epoch instead of rebuilding each iteration.
    pub fn membership_epoch(&self) -> u64 {
        self.membership_epoch
    }

    fn slot(&self, g: u32) -> &Slot<A> {
        let s = self.shards.len();
        &self.shards[g as usize % s].nodes[g as usize / s]
    }

    fn slot_mut(&mut self, g: u32) -> &mut Slot<A> {
        let s = self.shards.len();
        &mut self.shards[g as usize % s].nodes[g as usize / s]
    }

    /// The shards plus the read-only view of everything else that the
    /// data plane runs against.
    fn split(&mut self) -> (&mut [Shard<A>], Env<'_>) {
        let env = Env {
            latency: self.latency,
            loss: self.loss,
            shards: self.shards.len(),
            record_upcalls: self.record_upcalls,
            codec_parity: self.codec_parity,
            addr_map: &self.addr_map,
            faults: self.faults.as_ref(),
        };
        (&mut self.shards, env)
    }

    /// Move the shards' run tallies into the engine's totals.
    fn fold(&mut self) {
        for sh in &mut self.shards {
            self.events_processed += std::mem::take(&mut sh.events);
            self.dropped += std::mem::take(&mut sh.dropped);
            let c = std::mem::take(&mut sh.corruption);
            self.corruption.injected += c.injected;
            self.corruption.rejected += c.rejected;
            self.corruption.passed += c.passed;
            self.upcalls.append(&mut sh.upcalls);
        }
    }

    /// Add a node. Panics if the address is taken.
    pub fn add_node(&mut self, actor: A) {
        let addr = actor.addr();
        assert!(
            !self.addr_map.contains_key(&addr),
            "duplicate node address {addr:?}"
        );
        // A restarted address takes its old slot back while that is still
        // free, so traffic in flight to the old incarnation reaches it.
        let reuse = self
            .free
            .iter()
            .rposition(|&g| self.slot(g).addr == addr)
            .or(self.free.len().checked_sub(1));
        let g = match reuse {
            Some(i) => {
                let g = self.free.remove(i);
                let slot = self.slot_mut(g);
                slot.addr = addr;
                slot.gen = slot.gen.wrapping_add(1);
                slot.actor = Some(actor);
                g
            }
            None => {
                let g = self.slots;
                assert!(g < ENGINE_IDX, "slot index overflows the event key");
                self.slots += 1;
                let s = self.shards.len();
                self.shards[g as usize % s]
                    .nodes
                    .push(Slot::new(self.seed, g, addr, actor));
                g
            }
        };
        self.addr_map.insert(addr, g);
        self.membership_epoch += 1;
    }

    /// Immutable access to a node.
    pub fn node(&self, addr: NodeAddr) -> Option<&A> {
        self.slot(*self.addr_map.get(&addr)?).actor.as_ref()
    }

    /// Mutable access to a node (does not process outputs — use
    /// [`Self::with_node`] to run protocol actions).
    pub fn node_mut(&mut self, addr: NodeAddr) -> Option<&mut A> {
        let g = *self.addr_map.get(&addr)?;
        self.slot_mut(g).actor.as_mut()
    }

    /// All live node addresses (sorted).
    pub fn addrs(&self) -> Vec<NodeAddr> {
        let mut a: Vec<NodeAddr> = self.addr_map.keys().copied().collect();
        a.sort_unstable();
        a
    }

    /// Iterate over live nodes in arena order (insertion order with slot
    /// reuse after crashes): deterministic, the same for any shard count.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (&NodeAddr, &A)> {
        (0..self.slots).filter_map(|g| {
            let slot = self.slot(g);
            slot.actor.as_ref().map(|a| (&slot.addr, a))
        })
    }

    /// Run `f` against node `addr` and process the outputs it returns.
    /// This is how hosts start joins, trigger aggregations, etc.
    pub fn with_node<F, R>(&mut self, addr: NodeAddr, f: F) -> Option<R>
    where
        F: FnOnce(&mut A) -> (R, Vec<Output>),
    {
        let now = self.now.as_millis();
        let actor = self.node_mut(addr)?;
        actor.set_now(now);
        let (r, out) = f(actor);
        self.apply(addr, out);
        Some(r)
    }

    /// Crash a node: remove it abruptly. In-flight traffic to it is lost
    /// (counted in [`SimNet::dropped`]) unless the address is back in the
    /// slot by the time it lands, its pending timers die silently,
    /// and its transport counters are retired into
    /// [`SimNet::retired_link_stats`] rather than left to go stale; peers
    /// discover the failure via timeouts (ungraceful churn).
    pub fn crash(&mut self, addr: NodeAddr) -> Option<A> {
        let g = self.addr_map.remove(&addr)?;
        let slot = self.slot_mut(g);
        let actor = slot.actor.take();
        let s = std::mem::take(&mut slot.stats);
        slot.slow = None;
        slot.busy_until = SimTime::ZERO;
        let r = self.retired_stats.entry(addr).or_default();
        r.sent += s.sent;
        r.delivered += s.delivered;
        self.free.push(g);
        self.membership_epoch += 1;
        actor
    }

    /// Process the outputs `from` produced, at the current time (setup
    /// traffic: initial timers, joins, seed messages). Outputs of an
    /// address that is not hosted are discarded.
    pub fn apply(&mut self, from: NodeAddr, outputs: Vec<Output>) {
        let Some(&g) = self.addr_map.get(&from) else {
            return;
        };
        let now = self.now;
        let (shards, env) = self.split();
        let s = shards.len();
        let mut cross: Vec<Vec<_>> = (0..s).map(|_| Vec::new()).collect();
        shards[g as usize % s].apply_outputs(g / s as u32, now, outputs, &env, &mut cross);
        for (dst, buf) in cross.into_iter().enumerate() {
            for m in buf {
                shards[dst].queue.push_at_keyed(m.at, m.seq, m.event);
            }
        }
        self.fold();
    }

    /// Apply the next due event of the installed plan.
    fn fire_fault(&mut self) {
        let now = self.now;
        let action = self.faults.as_mut().and_then(|fc| fc.fire_next(now));
        match action {
            Some(FaultAction::Loss(prob)) => self.loss = LossModel::new(prob),
            Some(FaultAction::Crash(node)) => drop(self.crash(node)),
            Some(FaultAction::Restart(node)) if !self.addr_map.contains_key(&node) => {
                let spawned = self.restart_fn.as_mut().and_then(|f| f(node));
                if let Some((actor, out)) = spawned {
                    let addr = actor.addr();
                    self.add_node(actor);
                    self.apply(addr, out);
                }
            }
            Some(FaultAction::Slow(node, process_ms, for_ms)) => {
                if let Some(&g) = self.addr_map.get(&node) {
                    self.slot_mut(g).slow = Some((process_ms, now + for_ms));
                }
            }
            Some(FaultAction::Overload(node, msgs, spread_ms)) => {
                // Junk DAT-proto messages from a sentinel sender: they
                // burn inbox slots on delivery and fail to decode at the
                // protocol layer (counted dropped). Scheduled
                // deterministically — no RNG consumed, keys from the
                // engine's own counter. One shared payload buffer for the
                // whole burst.
                let Some(&g) = self.addr_map.get(&node) else {
                    self.dropped += msgs;
                    return;
                };
                let s = self.shards.len();
                let junk = NodeRef::new(Id(u64::MAX), NodeAddr(u64::MAX));
                let junk_payload = dat_chord::Payload::from(vec![0xFF]);
                for i in 0..msgs {
                    let delay = if msgs > 1 {
                        i * spread_ms / (msgs - 1)
                    } else {
                        0
                    };
                    let seq = key(self.engine_ctr, ENGINE_IDX);
                    self.engine_ctr += 1;
                    self.shards[g as usize % s].queue.push_at_keyed(
                        now + delay,
                        seq,
                        Event::Deliver {
                            to: g / s as u32,
                            parcel: Box::new(Parcel {
                                to_addr: node,
                                from: junk.addr,
                                msg: ChordMsg::App {
                                    proto: 1,
                                    from: junk,
                                    payload: junk_payload.clone(),
                                },
                            }),
                        },
                    );
                }
            }
            // Restart of a still-live node, or a link-level event the
            // controller absorbed.
            _ => {}
        }
    }

    /// Execute every event with `at <= t` and land the clock exactly on
    /// `t`, so that back-to-back bounded runs cover contiguous, exact
    /// windows.
    fn run_events_until(&mut self, t: SimTime) {
        let (shards, env) = self.split();
        run_segment(shards, t.0, &env);
        for sh in shards {
            sh.queue.advance_to(t);
        }
        self.now = self.now.max(t);
        self.fold();
    }

    /// Run until virtual time reaches `t` (events at exactly `t` included)
    /// or the queue drains. Each fault of the installed plan due by `t`
    /// fires between two segments of the run, before any protocol event
    /// of its own millisecond.
    pub fn run_until(&mut self, t: SimTime) {
        let due = |net: &Self| net.faults.as_ref()?.next_at().filter(|&at| at <= t.0);
        while let Some(at) = due(self) {
            if at > self.now.0 {
                self.run_events_until(SimTime(at - 1));
                self.now = SimTime(at);
            }
            self.fire_fault();
        }
        self.run_events_until(t);
    }

    /// Run for `ms` more virtual milliseconds.
    pub fn run_for(&mut self, ms: u64) {
        let deadline = self.now + ms;
        self.run_until(deadline);
    }

    /// Drain the recorded upcalls, in `(at, key)` order — identical for
    /// any shard count. Empty unless [`SimNet::set_record_upcalls`] turned
    /// recording on.
    pub fn take_upcalls(&mut self) -> Vec<UpcallRecord> {
        let mut all = std::mem::take(&mut self.upcalls);
        all.sort_by_key(|(key, rec)| (rec.at, *key));
        all.into_iter().map(|(_, rec)| rec).collect()
    }

    /// Transport counters for one node.
    pub fn link_stats(&self, addr: NodeAddr) -> LinkStats {
        match self.addr_map.get(&addr) {
            Some(&g) => self.slot(g).stats,
            None => LinkStats::default(),
        }
    }

    /// Transport counters retired when `addr` crashed (zero if it never
    /// did). Live counters move here at crash time so [`SimNet::link_stats`]
    /// never reports stale numbers for a dead node.
    pub fn retired_link_stats(&self, addr: NodeAddr) -> LinkStats {
        self.retired_stats.get(&addr).copied().unwrap_or_default()
    }

    /// Reset all transport counters (e.g. after warm-up).
    pub fn reset_link_stats(&mut self) {
        for sh in &mut self.shards {
            for slot in &mut sh.nodes {
                slot.stats = LinkStats::default();
            }
        }
        self.dropped = 0;
        self.corruption = CorruptionStats::default();
    }
}

#[allow(clippy::unwrap_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{CorruptMode, LinkFault};
    use dat_chord::{ChordConfig, ChordNode, Id, IdSpace};

    fn cfg() -> ChordConfig {
        ChordConfig {
            space: IdSpace::new(16),
            ..ChordConfig::default()
        }
    }

    fn noisy(prob: f64, mode: CorruptMode) -> LinkFault {
        LinkFault {
            corrupt: Some((prob, mode)),
            ..LinkFault::default()
        }
    }

    fn two_node_net() -> SimNet<ChordNode> {
        let mut net = SimNet::new(7);
        let mut a = ChordNode::new(cfg(), Id(100), NodeAddr(1));
        let out = a.start_create();
        net.add_node(a);
        net.apply(NodeAddr(1), out);
        let mut b = ChordNode::new(cfg(), Id(40_000), NodeAddr(2));
        let bootstrap = net.node(NodeAddr(1)).unwrap().me();
        let out = b.start_join(bootstrap);
        net.add_node(b);
        net.apply(NodeAddr(2), out);
        net
    }

    #[test]
    fn two_nodes_converge_to_a_ring() {
        let mut net = two_node_net();
        net.run_for(30_000);
        let a = net.node(NodeAddr(1)).unwrap();
        let b = net.node(NodeAddr(2)).unwrap();
        assert_eq!(a.table().successor().unwrap().id, Id(40_000));
        assert_eq!(b.table().successor().unwrap().id, Id(100));
        assert_eq!(a.table().predecessor().unwrap().id, Id(40_000));
        assert_eq!(b.table().predecessor().unwrap().id, Id(100));
    }

    #[test]
    fn joined_upcall_recorded() {
        let mut net = two_node_net();
        net.set_record_upcalls(true);
        net.run_for(30_000);
        let ups = net.take_upcalls();
        assert!(ups
            .iter()
            .any(|u| u.node == NodeAddr(2) && matches!(u.upcall, Upcall::Joined { .. })));
        // Drained.
        assert!(net.take_upcalls().is_empty());
    }

    #[test]
    fn crash_is_discovered_by_timeout() {
        let mut net = two_node_net();
        net.run_for(30_000);
        net.crash(NodeAddr(2));
        net.run_for(30_000);
        let a = net.node(NodeAddr(1)).unwrap();
        // Successor list purged; back alone in the ring.
        assert!(a.table().successor().is_none());
        assert!(a.table().predecessor().is_none());
        assert!(net.dropped > 0);
    }

    #[test]
    fn lookup_resolves_across_nodes() {
        let mut net = two_node_net();
        net.set_record_upcalls(true);
        net.run_for(30_000);
        net.take_upcalls();
        // From node 1, look up a key owned by node 2.
        let req = net
            .with_node(NodeAddr(1), |n| n.lookup(Id(20_000)))
            .unwrap();
        net.run_for(5_000);
        let ups = net.take_upcalls();
        let done = ups
            .iter()
            .find_map(|u| match &u.upcall {
                Upcall::LookupDone { req: r, owner, .. } if *r == req => Some(owner.id),
                _ => None,
            })
            .expect("lookup must complete");
        assert_eq!(done, Id(40_000));
    }

    #[test]
    fn loss_model_drops_messages() {
        let mut net = two_node_net();
        net.set_loss(LossModel::new(1.0));
        net.run_for(10_000);
        // With total loss nothing converges...
        assert!(net.dropped > 0);
        let b = net.node(NodeAddr(2)).unwrap();
        assert_ne!(
            b.status(),
            dat_chord::NodeStatus::Active,
            "node joined through a fully lossy network?!"
        );
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let mut net = two_node_net();
            net.set_latency(LatencyModel::Uniform { lo: 5, hi: 50 });
            net.run_for(60_000);
            (
                net.events_processed(),
                net.link_stats(NodeAddr(1)).sent,
                net.link_stats(NodeAddr(2)).delivered,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn corruption_episode_is_detected_counted_and_deterministic() {
        let run = || {
            let mut net = two_node_net();
            net.run_for(30_000);
            // Every frame 1 → 2 is bit-flipped for 10 s. CRC32C detects
            // all single-bit errors, so every injected frame must be
            // rejected and surfaced as a BadFrame — never silently
            // delivered damaged.
            let plan = FaultPlan::new().link_at(
                30_000,
                NodeAddr(1),
                NodeAddr(2),
                noisy(1.0, CorruptMode::BitFlip),
                10_000,
            );
            net.set_fault_plan(plan);
            net.run_for(60_000);
            net.corruption
        };
        let stats = run();
        assert!(stats.injected > 0, "traffic flowed through the episode");
        assert_eq!(
            stats.rejected, stats.injected,
            "a single bit flip must never survive the checksum"
        );
        assert_eq!(stats.passed, 0);
        assert_eq!(run(), stats, "corruption replays byte-identically");

        // The ring survives: the episode expires and stabilization heals.
        let mut net = two_node_net();
        net.run_for(30_000);
        net.set_fault_plan(FaultPlan::new().link_at(
            30_000,
            NodeAddr(1),
            NodeAddr(2),
            noisy(1.0, CorruptMode::Garbage),
            10_000,
        ));
        net.run_for(60_000);
        let a = net.node(NodeAddr(1)).unwrap();
        assert_eq!(a.table().successor().unwrap().id, Id(40_000));
    }

    #[test]
    fn idle_corruption_episode_leaves_the_run_untouched() {
        // An episode on a link that carries no traffic must not perturb
        // the rest of the run: no coins drawn, identical transport stats.
        let baseline = || {
            let mut net = two_node_net();
            net.run_for(60_000);
            (
                net.link_stats(NodeAddr(1)).sent,
                net.link_stats(NodeAddr(2)).delivered,
                net.dropped,
            )
        };
        let with_idle_episode = || {
            let mut net = two_node_net();
            net.set_fault_plan(FaultPlan::new().link_at(
                1_000,
                NodeAddr(77),
                NodeAddr(78),
                noisy(1.0, CorruptMode::Garbage),
                50_000,
            ));
            net.run_for(60_000);
            assert_eq!(net.corruption, CorruptionStats::default());
            (
                net.link_stats(NodeAddr(1)).sent,
                net.link_stats(NodeAddr(2)).delivered,
                net.dropped,
            )
        };
        assert_eq!(baseline(), with_idle_episode());
    }

    #[test]
    fn tag_rewrite_forges_valid_checksums() {
        // TagRewrite models a hostile writer who computes correct CRCs:
        // rejections must come from structural validation (BadTag and
        // friends), and some frames may legitimately survive — decoding
        // as a different-but-valid message. What matters is that nothing
        // panics and the episode is fully accounted.
        let mut net = two_node_net();
        net.run_for(30_000);
        net.set_fault_plan(FaultPlan::new().link_at(
            30_000,
            NodeAddr(2),
            NodeAddr(1),
            noisy(1.0, CorruptMode::TagRewrite),
            10_000,
        ));
        net.run_for(60_000);
        let stats = net.corruption;
        assert!(stats.injected > 0);
        assert_eq!(stats.rejected + stats.passed, stats.injected);
        assert!(stats.rejected > 0, "random tags are mostly invalid");
    }

    #[test]
    fn crash_retires_stats_kills_timers_and_drops_inflight() {
        let mut net = two_node_net();
        net.run_for(30_000);
        let before = net.link_stats(NodeAddr(2));
        assert!(before.sent > 0 && before.delivered > 0);
        let dropped_before = net.dropped;
        let pending_before = net.pending_events();
        assert!(pending_before > 0, "stabilization keeps timers armed");
        net.crash(NodeAddr(2));
        // Live counters are retired, not left stale.
        assert_eq!(net.link_stats(NodeAddr(2)).sent, 0);
        assert_eq!(net.link_stats(NodeAddr(2)).delivered, 0);
        let retired = net.retired_link_stats(NodeAddr(2));
        assert_eq!(retired.sent, before.sent);
        assert_eq!(retired.delivered, before.delivered);
        // In-flight deliveries and post-crash sends to the dead node are
        // counted in `dropped`; node 2's timers fire into the void without
        // panicking or producing traffic.
        net.run_for(30_000);
        assert!(net.dropped > dropped_before);
        assert_eq!(
            net.retired_link_stats(NodeAddr(2)).delivered,
            retired.delivered
        );
        assert_eq!(net.len(), 1);
    }

    #[test]
    fn partitioned_ring_reunifies_after_heal() {
        let mut net = two_node_net();
        net.set_fault_plan(
            FaultPlan::new()
                .partition_at(30_000, vec![NodeAddr(2)])
                .heal_at(90_000),
        );
        net.run_for(30_000); // converge before the cut
        assert_eq!(
            net.node(NodeAddr(1))
                .unwrap()
                .table()
                .successor()
                .unwrap()
                .id,
            Id(40_000)
        );
        let dropped_before = net.dropped;
        net.run_for(60_000); // partitioned window
        assert!(net.dropped > dropped_before, "partition blocks traffic");
        let a = net.node(NodeAddr(1)).unwrap();
        assert!(a.table().successor().is_none(), "peer evicted during cut");
        // After the heal the fallen-peer probes rediscover the other side
        // and the two singleton rings merge back into one.
        net.run_for(120_000);
        let a = net.node(NodeAddr(1)).unwrap();
        let b = net.node(NodeAddr(2)).unwrap();
        assert_eq!(a.table().successor().unwrap().id, Id(40_000));
        assert_eq!(b.table().successor().unwrap().id, Id(100));
    }

    #[test]
    fn plan_crash_and_restart_rejoin_with_fresh_state() {
        let mut net = two_node_net();
        net.set_fault_plan(
            FaultPlan::new()
                .crash_at(30_000, NodeAddr(2))
                .restart_at(75_000, NodeAddr(2)),
        );
        net.set_restart_fn(|addr| {
            let mut n = ChordNode::new(cfg(), Id(40_000), addr);
            let out = n.start_join(dat_chord::NodeRef::new(Id(100), NodeAddr(1)));
            Some((n, out))
        });
        net.run_for(60_000);
        assert_eq!(net.len(), 1, "crash event removed node 2");
        let retired = net.retired_link_stats(NodeAddr(2));
        assert!(retired.sent > 0);
        net.run_for(60_000);
        assert_eq!(net.len(), 2, "restart hook re-created node 2");
        let b = net.node(NodeAddr(2)).unwrap();
        assert_eq!(b.status(), dat_chord::NodeStatus::Active);
        assert_eq!(b.table().successor().unwrap().id, Id(100));
        // The retired counters stay frozen at their crash-time values; the
        // reborn node accumulates live stats from zero under the same
        // address.
        assert_eq!(net.retired_link_stats(NodeAddr(2)).sent, retired.sent);
        assert!(net.link_stats(NodeAddr(2)).sent > 0);
    }

    #[test]
    fn link_fault_blocks_until_cleared() {
        let mut net = two_node_net();
        let cut = LinkFault {
            loss: 1.0,
            ..LinkFault::default()
        };
        net.set_fault_plan(FaultPlan::new().link_at(0, NodeAddr(1), NodeAddr(2), cut, 20_000));
        net.run_for(15_000);
        // Join replies all travel 1 → 2 and the directed episode eats them.
        let b = net.node(NodeAddr(2)).unwrap();
        assert_ne!(b.status(), dat_chord::NodeStatus::Active);
        assert!(net.dropped > 0);
        net.run_for(60_000);
        let b = net.node(NodeAddr(2)).unwrap();
        assert_eq!(
            b.status(),
            dat_chord::NodeStatus::Active,
            "the link heals when its episode ends"
        );
    }

    #[test]
    fn one_episode_applies_loss_latency_jitter_and_corruption() {
        // Two idle nodes (no timers); 200 pings 1 → 2 through one episode
        // carrying all four kinds of damage.
        let mut net: SimNet<ChordNode> = SimNet::new(7);
        for (id, addr) in [(100, 1), (40_000, 2)] {
            net.add_node(ChordNode::new(cfg(), Id(id), NodeAddr(addr)));
        }
        let fault = LinkFault {
            loss: 0.5,
            extra_latency_ms: 100,
            jitter_ms: 40,
            corrupt: Some((0.5, CorruptMode::BitFlip)),
        };
        net.set_fault_plan(FaultPlan::new().link_at(0, NodeAddr(1), NodeAddr(2), fault, 10_000));
        net.run_for(1); // the episode fires
        let (sender, to) = (
            NodeRef::new(Id(100), NodeAddr(1)),
            NodeRef::new(Id(40_000), NodeAddr(2)),
        );
        net.with_node(NodeAddr(1), |_| {
            let ping = |req| Output::Send {
                to,
                msg: ChordMsg::Ping { req, sender },
            };
            ((), (0..200).map(ping).collect())
        });
        let delivered = |net: &SimNet<ChordNode>| net.link_stats(NodeAddr(2)).delivered;
        // Sent at 1 with a 1 ms base latency: nothing lands before 102.
        net.run_for(100);
        assert_eq!(delivered(&net), 0, "extra latency applied");
        net.run_for(1);
        let first = delivered(&net);
        net.run_for(40);
        let all = delivered(&net);
        assert!(
            0 < first && first < all,
            "jitter spreads arrivals over 102..=142"
        );
        assert!(
            net.dropped > 0 && all + net.dropped == 200,
            "loss coin applied"
        );
        let c = net.corruption;
        assert!(
            0 < c.injected && c.injected < all,
            "corruption coin applied"
        );
        assert_eq!(c.rejected, c.injected, "bit flips never pass the checksum");
    }

    #[test]
    fn duplication_inflates_delivery_counts() {
        // Keep the rate in the realistic regime: duplication compounds per
        // forwarding hop (each copy of a routed message is a fresh
        // transmission), so rates near 1.0 amplify deep `find_successor`
        // chains exponentially.
        let mut net = two_node_net();
        net.set_fault_plan(FaultPlan::new().duplication_at(0, 0.05));
        net.run_for(30_000);
        let sent = net.link_stats(NodeAddr(1)).sent + net.link_stats(NodeAddr(2)).sent;
        let delivered =
            net.link_stats(NodeAddr(1)).delivered + net.link_stats(NodeAddr(2)).delivered;
        assert!(
            delivered > sent + sent / 50,
            "5% duplication should measurably inflate deliveries ({delivered} vs {sent})"
        );
    }

    #[test]
    fn fault_schedule_replays_identically_for_a_seed() {
        let run = || {
            let mut net = two_node_net();
            net.set_latency(LatencyModel::Uniform { lo: 5, hi: 50 });
            let plan = FaultPlan::new()
                .partition_at(20_000, vec![NodeAddr(2)])
                .duplication_at(25_000, 0.3)
                .heal_at(45_000)
                .crash_at(70_000, NodeAddr(2))
                .restart_at(80_000, NodeAddr(2));
            let digest = plan.digest();
            net.set_fault_plan(plan);
            net.set_restart_fn(|addr| {
                let mut n = ChordNode::new(cfg(), Id(40_000), addr);
                let out = n.start_join(dat_chord::NodeRef::new(Id(100), NodeAddr(1)));
                Some((n, out))
            });
            net.run_for(120_000);
            (
                digest,
                net.events_processed(),
                net.dropped,
                net.link_stats(NodeAddr(1)).sent,
                net.link_stats(NodeAddr(1)).delivered,
                net.link_stats(NodeAddr(2)).sent,
                net.retired_link_stats(NodeAddr(2)).delivered,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn slowdown_delays_but_never_silences() {
        // A slowed node still answers — late. Compare time-to-converge
        // of a join under a slowdown episode vs the same seed without.
        let run = |slow: bool| {
            let mut net = two_node_net();
            if slow {
                net.set_fault_plan(FaultPlan::new().slowdown_at(0, NodeAddr(1), 400, 20_000));
            }
            net.run_for(15_000);
            let b = net.node(NodeAddr(2)).unwrap();
            (b.status(), net.events_processed())
        };
        let (status_slow, ev_slow) = run(true);
        let (status_fast, ev_fast) = run(false);
        assert_eq!(status_fast, dat_chord::NodeStatus::Active);
        // The slowed run serializes every delivery through a 400 ms
        // processing budget, so it requeues (extra events) and falls
        // behind — but nothing is dropped by the slowdown itself.
        assert!(ev_slow != ev_fast, "slowdown must perturb the schedule");
        // After the episode ends the backlog drains and the join finishes.
        let mut net = two_node_net();
        net.set_fault_plan(FaultPlan::new().slowdown_at(0, NodeAddr(1), 400, 20_000));
        net.run_for(60_000);
        let b = net.node(NodeAddr(2)).unwrap();
        assert_eq!(b.status(), dat_chord::NodeStatus::Active);
        let _ = status_slow;
    }

    #[test]
    fn degraded_link_is_asymmetric() {
        // Degrade only 1 → 2 with total loss: node 2's requests still
        // reach node 1 (the healthy direction keeps `delivered` climbing)
        // but every reply wanders into the void, so the join stalls —
        // the half-open-link shape.
        let mut net = two_node_net();
        let half_open = LinkFault {
            loss: 1.0,
            jitter_ms: 25,
            ..LinkFault::default()
        };
        net.set_fault_plan(FaultPlan::new().link_at(
            0,
            NodeAddr(1),
            NodeAddr(2),
            half_open,
            20_000,
        ));
        net.run_for(15_000);
        let b = net.node(NodeAddr(2)).unwrap();
        assert_ne!(b.status(), dat_chord::NodeStatus::Active);
        assert!(net.dropped > 0, "degradation loss coin must fire");
        assert!(
            net.link_stats(NodeAddr(1)).delivered > 0,
            "reverse direction must stay clean"
        );
        // Episode expires; the retry machinery completes the join.
        net.run_for(120_000);
        let b = net.node(NodeAddr(2)).unwrap();
        assert_eq!(b.status(), dat_chord::NodeStatus::Active);
    }

    #[test]
    fn overload_burst_delivers_junk_deterministically() {
        let run = || {
            let mut net = two_node_net();
            net.run_for(30_000);
            let before = net.link_stats(NodeAddr(1)).delivered;
            net.set_fault_plan(FaultPlan::new().overload_at(31_000, NodeAddr(1), 50, 2_000));
            net.run_for(30_000);
            (before, net.link_stats(NodeAddr(1)).delivered)
        };
        let (before, after) = run();
        assert!(
            after >= before + 50,
            "all 50 junk messages must be delivered ({before} → {after})"
        );
        assert_eq!(run(), (before, after), "burst replays identically");
    }

    #[test]
    fn link_stats_count_both_directions() {
        let mut net = two_node_net();
        net.run_for(30_000);
        let s1 = net.link_stats(NodeAddr(1));
        let s2 = net.link_stats(NodeAddr(2));
        assert!(s1.sent > 0 && s1.delivered > 0);
        assert!(s2.sent > 0 && s2.delivered > 0);
        net.reset_link_stats();
        assert_eq!(net.link_stats(NodeAddr(1)).sent, 0);
    }

    #[test]
    fn codec_parity_mode_round_trips_all_traffic() {
        // Every message a converging two-node ring exchanges must survive
        // a wire round-trip unchanged, or delivery panics.
        let mut net = two_node_net();
        net.set_codec_parity(true);
        net.run_for(30_000);
        assert!(net.link_stats(NodeAddr(1)).delivered > 0);
        let a = net.node(NodeAddr(1)).unwrap();
        assert_eq!(
            a.table().successor().unwrap().id,
            Id(40_000),
            "ring must converge with parity checks on"
        );
    }

    #[test]
    fn clamped_events_are_counted() {
        let mut net = two_node_net();
        assert_eq!(net.clamped_events(), 0);
        net.run_for(10_000);
        // A fault event whose time is already in the past fires at the
        // start of the next run — and is counted as clamped.
        let plan = FaultPlan::new().crash_at(5_000, NodeAddr(2));
        net.set_fault_plan(plan);
        assert_eq!(net.clamped_events(), 1);
        net.run_for(1_000);
        assert!(net.node(NodeAddr(2)).is_none(), "clamped crash still fires");
    }

    #[test]
    fn a_second_fault_plan_replaces_the_first() {
        let mut net = two_node_net();
        net.run_for(30_000);
        net.set_fault_plan(FaultPlan::new().crash_at(40_000, NodeAddr(2)));
        net.set_fault_plan(FaultPlan::new().duplication_at(35_000, 0.05));
        net.run_for(30_000);
        assert!(
            net.node(NodeAddr(2)).is_some(),
            "an un-fired event of a replaced plan never fires"
        );
        // Overdue events fire at the next run in schedule order, whatever
        // order they were declared in: the partition (due 20 s ago), then
        // the heal (due 10 s ago) — so nothing is ever blocked.
        let plan = FaultPlan::new()
            .heal_at(50_000)
            .partition_at(40_000, vec![NodeAddr(2)]);
        net.set_fault_plan(plan);
        assert_eq!(net.clamped_events(), 2);
        let dropped = net.dropped;
        net.run_for(20_000);
        assert_eq!(net.dropped, dropped, "partition, then heal, in one instant");
    }

    #[test]
    fn a_restarted_address_takes_its_slot_back() {
        let mut net = two_node_net();
        net.run_for(30_000);
        let g = net.addr_map[&NodeAddr(2)];
        let ctr = net.slot(g).ctr;
        assert!(ctr > 0 && net.pending_events() > 0);
        // Node 1 pings node 2; node 2 crashes and restarts before the
        // ping lands. A third address crashing in between must not take
        // the slot away from the address that owned it.
        let extra = ChordNode::new(cfg(), Id(50_000), NodeAddr(3));
        net.add_node(extra);
        let target = net.node(NodeAddr(2)).unwrap().me();
        let delivered = |net: &SimNet<ChordNode>| net.link_stats(NodeAddr(2)).delivered;
        net.with_node(NodeAddr(1), |_| {
            let msg = ChordMsg::Notify { sender: target };
            ((), vec![Output::Send { to: target, msg }])
        });
        net.crash(NodeAddr(2));
        net.crash(NodeAddr(3));
        let reborn = ChordNode::new(cfg(), Id(40_000), NodeAddr(2));
        net.add_node(reborn);
        assert_eq!(net.addr_map[&NodeAddr(2)], g, "same address, same slot");
        assert_eq!(net.slot(g).gen, 1);
        assert_eq!(
            net.slot(g).ctr,
            ctr,
            "the key counter carries over, so no new key can collide with \
             a pending key of the old incarnation"
        );
        let dropped = net.dropped;
        net.run_for(1);
        assert!(
            delivered(&net) >= 1,
            "in-flight traffic reaches the new one"
        );
        assert_eq!(net.dropped, dropped);
        // The old incarnation's timers died with it instead of re-arming
        // on the new one: with its peer gone too, the queue drains.
        net.crash(NodeAddr(1));
        net.run_for(10_000);
        assert_eq!((net.len(), net.pending_events()), (1, 0));
    }

    /// One seeded full-stack fleet driven through a plan holding every
    /// [`FaultEvent`](crate::FaultEvent) variant and every kind of link
    /// damage; everything observable, as one string.
    fn every_fault_digest(shards: usize) -> String {
        let (run, upcalls) = every_fault_run(shards, true);
        format!("{run}\n{upcalls}")
    }

    /// [`every_fault_digest`] in two parts: the run (event count, queue,
    /// drops, corruption tallies, per-node traffic, root reports) and the
    /// recorded upcalls, recording switched on or off after set-up.
    fn every_fault_run(shards: usize, record: bool) -> (String, String) {
        use dat_core::{AggregationMode, DatConfig, DatEvent, DatProtocol, StackNode};
        let space = IdSpace::new(32);
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(0xFA17);
        let ring = dat_chord::StaticRing::build(space, 24, dat_chord::IdPolicy::Probed, &mut rng);
        let ccfg = ChordConfig {
            space,
            stabilize_ms: 1_000,
            fix_fingers_ms: 500,
            check_pred_ms: 1_000,
            ..ChordConfig::default()
        };
        let dcfg = DatConfig {
            epoch_ms: 1_000,
            d0_hint: Some(ring.d0()),
            ..DatConfig::default()
        };
        let mut net = crate::harness::prestabilized_dat(&ring, ccfg, dcfg, 0xFA17);
        net.set_shards(shards);
        net.set_record_upcalls(record);
        net.set_latency(LatencyModel::Uniform { lo: 2, hi: 20 });
        net.set_loss(LossModel::new(0.01));
        let feed = |node: &mut StackNode| {
            let k = node.register("cpu", AggregationMode::Continuous);
            node.set_local(k, 1.0);
        };
        for a in net.addrs() {
            feed(net.node_mut(a).unwrap());
        }
        let ids = ring.ids().to_vec();
        let bootstrap = net.node(NodeAddr(0)).unwrap().me();
        net.set_restart_fn(move |addr| {
            let id = space.add(ids[addr.0 as usize], 1);
            let mut node = StackNode::new(ccfg, id, addr).with_app(DatProtocol::new(dcfg));
            feed(&mut node);
            let outs = node.start_join(bootstrap);
            Some((node, outs))
        });
        // Every link below joins ring neighbours, so stabilization keeps
        // traffic on it.
        let a = NodeAddr;
        let lossy = |loss, extra_latency_ms| LinkFault {
            loss,
            extra_latency_ms,
            ..LinkFault::default()
        };
        let jittery = LinkFault {
            jitter_ms: 25,
            ..lossy(0.2, 15)
        };
        // Five seconds of noise: ~80 damaged frames over the four links.
        let noise = |mode| noisy(0.8, mode);
        let plan = FaultPlan::new()
            .partition_at(3_000, (18..24).map(a).collect())
            .heal_at(6_000)
            .link_at(3_500, a(2), a(3), lossy(0.5, 30), 5_500)
            .link_at(4_000, a(4), a(5), lossy(0.3, 10), 4_000)
            .duplication_at(5_000, 0.05)
            .duplication_at(11_000, 0.0)
            .crash_at(7_000, a(7))
            .restart_at(10_000, a(7))
            .slowdown_at(8_000, a(9), 40, 5_000)
            .link_at(8_500, a(11), a(12), jittery, 5_000)
            .overload_at(9_500, a(13), 200, 1_000)
            .link_at(12_000, a(14), a(15), noise(CorruptMode::BitFlip), 5_000)
            .link_at(12_000, a(15), a(14), noise(CorruptMode::Truncate), 5_000)
            .link_at(12_000, a(16), a(17), noise(CorruptMode::Garbage), 5_000)
            .link_at(12_000, a(17), a(16), noise(CorruptMode::TagRewrite), 5_000);
        net.set_fault_plan(plan);
        let mut reports = Vec::new();
        for _ in 0..40 {
            net.run_for(500);
            for addr in net.addrs() {
                for ev in net.node_mut(addr).unwrap().take_events() {
                    if let DatEvent::Report {
                        epoch,
                        completeness,
                        ..
                    } = ev
                    {
                        reports.push((net.now().0, addr.0, epoch, completeness.contributors));
                    }
                }
            }
        }
        assert_eq!(net.clamped_events(), 0, "conservative window violated");
        let stats: Vec<_> = (0..24)
            .map(|i| (net.link_stats(a(i)), net.retired_link_stats(a(i))))
            .collect();
        let upcalls = net.take_upcalls();
        assert!(net.retired_link_stats(a(7)).sent > 0 && net.link_stats(a(7)).sent > 0);
        assert!(
            net.corruption.rejected > 40,
            "all four corrupted links carry traffic"
        );
        assert!(upcalls.len() > 24 || !record);
        assert!(reports.len() > 10 && net.dropped > 200);
        let run = format!(
            "{} {} {} {:?}\n{stats:?}\n{reports:?}",
            net.events_processed(),
            net.pending_events(),
            net.dropped,
            net.corruption,
        );
        (run, format!("{upcalls:?}"))
    }

    /// Recording upcalls is an observer: switching it off leaves every
    /// event, message, drop and report of the run where it was.
    #[test]
    fn recording_upcalls_moves_no_byte() {
        let (on, recorded) = every_fault_run(1, true);
        let (off, setup_only) = every_fault_run(1, false);
        assert_eq!(on, off, "recording upcalls moved the run");
        assert!(recorded.len() > setup_only.len(), "nothing was recorded");
    }

    #[test]
    fn every_fault_is_shard_count_invariant() {
        let base = every_fault_digest(1);
        // The plan digest is not part of the fingerprint, so a re-encoded
        // plan passes; a moved send or delivery draw does not.
        assert_eq!(
            dat_obs::fnv1a(base.as_bytes()),
            0x2ee1_58ff_2a39_1062,
            "the 1-shard run moved off its pinned fingerprint"
        );
        for shards in [2, 4, 8] {
            assert!(
                every_fault_digest(shards) == base,
                "{shards}-shard run diverged from the 1-shard run"
            );
        }
    }

    #[test]
    fn membership_epoch_tracks_adds_and_crashes() {
        let mut net: SimNet<ChordNode> = SimNet::new(1);
        assert_eq!(net.membership_epoch(), 0);
        let mut a = ChordNode::new(cfg(), Id(100), NodeAddr(1));
        let out = a.start_create();
        net.add_node(a);
        net.apply(NodeAddr(1), out);
        assert_eq!(net.membership_epoch(), 1);
        let b = ChordNode::new(cfg(), Id(200), NodeAddr(2));
        net.add_node(b);
        assert_eq!(net.membership_epoch(), 2);
        net.crash(NodeAddr(2));
        assert_eq!(net.membership_epoch(), 3);
        // Crashing an unknown address is a no-op on the epoch.
        net.crash(NodeAddr(99));
        assert_eq!(net.membership_epoch(), 3);
    }

    #[test]
    fn slot_reuse_after_crash_keeps_addresses_distinct() {
        // Crash a node, add a *different* address: the freed slot is
        // reused with a bumped generation, and lookups stay correct.
        let mut net: SimNet<ChordNode> = SimNet::new(1);
        let mut a = ChordNode::new(cfg(), Id(100), NodeAddr(1));
        let out = a.start_create();
        net.add_node(a);
        net.apply(NodeAddr(1), out);
        let b = ChordNode::new(cfg(), Id(200), NodeAddr(2));
        net.add_node(b);
        net.crash(NodeAddr(2));
        let c = ChordNode::new(cfg(), Id(300), NodeAddr(3));
        net.add_node(c);
        assert_eq!(net.len(), 2);
        assert!(net.node(NodeAddr(2)).is_none());
        assert!(net.node(NodeAddr(3)).is_some());
        let addrs = net.addrs();
        assert_eq!(addrs, vec![NodeAddr(1), NodeAddr(3)]);
    }

    #[test]
    fn heap_and_wheel_schedulers_produce_identical_runs() {
        // Same seed, same workload, both scheduler backends: every
        // externally observable counter must match exactly.
        use crate::queue::tests::{on_scheduler, SchedulerKind};
        let run = |kind: SchedulerKind| {
            let mut net = on_scheduler(kind, two_node_net);
            net.run_for(60_000);
            let s1 = net.link_stats(NodeAddr(1));
            let s2 = net.link_stats(NodeAddr(2));
            (
                net.events_processed(),
                net.dropped,
                s1.sent,
                s1.delivered,
                s2.sent,
                s2.delivered,
                net.now(),
            )
        };
        assert_eq!(run(SchedulerKind::Wheel), run(SchedulerKind::Heap));
    }
}
