//! The simulated network: hosts sans-io actors, delivers messages with
//! modeled latency/loss, and fires timers — all in deterministic virtual
//! time.
//!
//! ## Storage layout (the million-node hot path)
//!
//! Nodes live in an arena (`Vec<Slot>`) addressed by dense indices, with a
//! generation counter per slot so crash/restart can reuse both slots and
//! transport addresses without aliasing. Every internally scheduled event
//! carries a `(slot, generation)` hint captured at schedule time: on the
//! fast path a delivery resolves its target with a single `Vec` index and
//! a generation compare instead of the five `HashMap` probes (`nodes`,
//! `stats`, `slow`, `busy_until`, plus the delivered-counter update) the
//! old layout paid. Per-link counters, slowdown state and busy horizons
//! are fields of the same slot, so one cache line serves the whole
//! delivery. A stale hint (the target crashed, and possibly a new node
//! took its address) falls back to the address map, which preserves the
//! original semantics exactly: in-flight traffic to a re-used address
//! reaches the *new* incarnation, and traffic to a dead address is
//! counted in [`SimNet::dropped`].
//!
//! Messages pass between co-hosted actors zero-copy: the decoded
//! [`ChordMsg`] moves through the queue by value and payload bytes are
//! shared `Arc` buffers ([`dat_chord::Payload`]). The optional codec
//! parity mode ([`SimNet::set_codec_parity`]) re-encodes and decodes every
//! delivered message through the real wire codec and asserts equality,
//! proving in-memory delivery and wire delivery agree byte for byte.

#![deny(clippy::unwrap_used)]

use std::collections::HashMap;

use dat_chord::{ChordMsg, Id, Input, NodeAddr, NodeRef, Output, TimerKind, Upcall};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fault::{CorruptMode, FaultAction, FaultController, FaultPlan};
use crate::latency::{LatencyModel, LossModel};
use crate::queue::EventQueue;
use crate::time::SimTime;

pub use dat_chord::Actor;

/// A `(slot index, generation)` pair captured when an event is scheduled.
/// Resolving it is one bounds check + one compare; a mismatch (slot reused
/// after a crash) falls back to the address map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SlotHint {
    idx: u32,
    gen: u32,
}

impl SlotHint {
    const NONE: SlotHint = SlotHint {
        idx: u32::MAX,
        gen: u32::MAX,
    };
}

/// Events the engine schedules internally.
#[derive(Clone, Debug)]
enum SimEvent {
    Deliver {
        to: NodeAddr,
        hint: SlotHint,
        from: NodeAddr,
        msg: ChordMsg,
    },
    Timer {
        node: NodeAddr,
        hint: SlotHint,
        kind: TimerKind,
    },
    /// The `i`-th event of the installed [`FaultPlan`] comes due.
    Fault(usize),
}

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

/// One arena cell: the hosted actor plus all per-node engine state that
/// the delivery hot path touches.
struct Slot<A> {
    /// Transport address of the current (or last) occupant.
    addr: NodeAddr,
    /// Bumped every time the slot is re-occupied; stale hints miss on it.
    gen: u32,
    /// The hosted actor; `None` after a crash until the slot is reused.
    actor: Option<A>,
    /// Live transport counters of the occupant.
    stats: LinkStats,
    /// Active processing slowdown: `(process_ms, episode end)`.
    slow: Option<(u64, SimTime)>,
    /// Virtual-time busy horizon of a slowed node: deliveries landing
    /// before it are requeued, so a slow node answers *late*, not never.
    busy_until: SimTime,
}

/// The discrete-event network engine.
///
/// Generic over the hosted [`Actor`] so the same engine runs bare Chord
/// overlays, DAT stacks, and the monitoring application — exactly the
/// layering of the paper's prototype simulator (§4).
pub struct SimNet<A: Actor> {
    queue: EventQueue<SimEvent>,
    /// Arena of node slots; crashed slots are reused via `free`.
    slots: Vec<Slot<A>>,
    free: Vec<u32>,
    /// Address → slot index for the cold paths (API lookups, stale hints).
    addr_map: HashMap<NodeAddr, u32>,
    live: usize,
    /// Bumped on every add/crash so hosts can cache membership-derived
    /// structures (address lists, id maps) and rebuild only on change.
    membership_epoch: u64,
    rng: SmallRng,
    latency: LatencyModel,
    loss: LossModel,
    upcalls: Vec<UpcallRecord>,
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
    /// Messages dropped by the loss model, an active partition/link fault,
    /// or addressed to dead nodes.
    pub dropped: u64,
    /// Wire-corruption bookkeeping (all zero unless a
    /// [`crate::FaultEvent::CorruptLink`] episode fired).
    pub corruption: CorruptionStats,
    events_processed: u64,
}

/// Counters for byte-level wire corruption injected by
/// [`crate::FaultEvent::CorruptLink`] episodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CorruptionStats {
    /// Frames whose bytes were actually mutated (the per-message coin
    /// landed inside an active episode).
    pub injected: u64,
    /// Mutated frames the decoder rejected — delivered to the victim as
    /// [`Input::BadFrame`] so its containment layer sees the attack.
    pub rejected: u64,
    /// Mutated frames that still decoded — either the mutation was a
    /// no-op (random bytes matched the originals) or a hostile rewrite
    /// produced a different-but-valid frame. Delivered as whatever the
    /// decoder produced, because that is exactly what a real receiver
    /// would see.
    pub passed: u64,
}

impl<A: Actor> SimNet<A> {
    /// A fresh engine with the given determinism seed.
    pub fn new(seed: u64) -> Self {
        SimNet {
            queue: EventQueue::new(),
            slots: Vec::new(),
            free: Vec::new(),
            addr_map: HashMap::new(),
            live: 0,
            membership_epoch: 0,
            rng: SmallRng::seed_from_u64(seed),
            latency: LatencyModel::default(),
            loss: LossModel::NONE,
            upcalls: Vec::new(),
            record_upcalls: true,
            retired_stats: HashMap::new(),
            faults: None,
            restart_fn: None,
            codec_parity: false,
            dropped: 0,
            corruption: CorruptionStats::default(),
            events_processed: 0,
        }
    }

    /// Install a fault schedule. Each event becomes a queue event at its
    /// `at_ms`, so the whole schedule replays identically for a given seed.
    /// Must be installed before the engine runs past the first event time;
    /// a second call replaces the previous plan (its un-fired events keep
    /// firing but hit the new controller's indices — don't do that; install
    /// one plan per run).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        for (i, (at_ms, _)) in plan.events().iter().enumerate() {
            self.queue.push_at(SimTime(*at_ms), SimEvent::Fault(i));
        }
        self.faults = Some(FaultController::new(plan));
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|f| f.plan())
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

    /// Replace the latency model.
    pub fn set_latency(&mut self, model: LatencyModel) {
        self.latency = model;
    }

    /// Replace the loss model.
    pub fn set_loss(&mut self, model: LossModel) {
        self.loss = model;
    }

    /// Stop/start recording upcalls (recording is on by default; long churn
    /// runs may want it off to bound memory).
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
        self.queue.now()
    }

    /// Number of hosted (live) nodes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no nodes are hosted.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Pending events (messages in flight + armed timers).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Events that were scheduled in the past and clamped to "now" by the
    /// queue. Persistently growing values point at stale-deadline bugs in
    /// hosts; surfaced here so scale runs can assert on it.
    pub fn clamped_events(&self) -> u64 {
        self.queue.clamped_events()
    }

    /// Bumped on every membership change (add or crash). Hosts that
    /// derive per-node structures from the address list can cache them
    /// keyed on this epoch instead of rebuilding each iteration.
    pub fn membership_epoch(&self) -> u64 {
        self.membership_epoch
    }

    /// Add a node. Panics if the address is taken.
    pub fn add_node(&mut self, actor: A) {
        let addr = actor.addr();
        assert!(
            !self.addr_map.contains_key(&addr),
            "duplicate node address {addr:?}"
        );
        let idx = match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                slot.addr = addr;
                slot.gen = slot.gen.wrapping_add(1);
                slot.actor = Some(actor);
                slot.stats = LinkStats::default();
                slot.slow = None;
                slot.busy_until = SimTime::ZERO;
                idx
            }
            None => {
                let idx = self.slots.len() as u32;
                self.slots.push(Slot {
                    addr,
                    gen: 0,
                    actor: Some(actor),
                    stats: LinkStats::default(),
                    slow: None,
                    busy_until: SimTime::ZERO,
                });
                idx
            }
        };
        self.addr_map.insert(addr, idx);
        self.live += 1;
        self.membership_epoch += 1;
    }

    /// Slot index of a live node.
    fn idx_of(&self, addr: NodeAddr) -> Option<usize> {
        let idx = *self.addr_map.get(&addr)? as usize;
        self.slots[idx].actor.as_ref()?;
        Some(idx)
    }

    /// Resolve a delivery target: generation-checked arena hit first,
    /// address-map fallback second (slot reused, or event scheduled before
    /// the target existed).
    fn resolve(&self, to: NodeAddr, hint: SlotHint) -> Option<usize> {
        let idx = hint.idx as usize;
        if idx < self.slots.len() {
            let s = &self.slots[idx];
            if s.gen == hint.gen && s.actor.is_some() {
                debug_assert_eq!(s.addr, to, "hint generation matched a different address");
                return Some(idx);
            }
        }
        self.idx_of(to)
    }

    /// The hint to stamp on an event targeting `addr` right now.
    fn hint_for(&self, addr: NodeAddr) -> SlotHint {
        match self.addr_map.get(&addr) {
            Some(&idx) => SlotHint {
                idx,
                gen: self.slots[idx as usize].gen,
            },
            None => SlotHint::NONE,
        }
    }

    /// Immutable access to a node.
    pub fn node(&self, addr: NodeAddr) -> Option<&A> {
        self.slots[self.idx_of(addr)?].actor.as_ref()
    }

    /// Mutable access to a node (does not process outputs — use
    /// [`Self::with_node`] to run protocol actions).
    pub fn node_mut(&mut self, addr: NodeAddr) -> Option<&mut A> {
        let idx = self.idx_of(addr)?;
        self.slots[idx].actor.as_mut()
    }

    /// All live node addresses (sorted).
    pub fn addrs(&self) -> Vec<NodeAddr> {
        let mut a: Vec<NodeAddr> = self
            .slots
            .iter()
            .filter(|s| s.actor.is_some())
            .map(|s| s.addr)
            .collect();
        a.sort_unstable();
        a
    }

    /// Iterate over live nodes (arena order: insertion order with slot
    /// reuse after crashes — deterministic, unlike the old map order).
    pub fn iter_nodes(&self) -> impl Iterator<Item = (&NodeAddr, &A)> {
        self.slots
            .iter()
            .filter_map(|s| s.actor.as_ref().map(|a| (&s.addr, a)))
    }

    /// Run `f` against node `addr` and process the outputs it returns.
    /// This is how hosts start joins, trigger aggregations, etc.
    pub fn with_node<F, R>(&mut self, addr: NodeAddr, f: F) -> Option<R>
    where
        F: FnOnce(&mut A) -> (R, Vec<Output>),
    {
        let now = self.queue.now().as_millis();
        let idx = self.idx_of(addr)?;
        let actor = self.slots[idx].actor.as_mut()?;
        actor.set_now(now);
        let (r, out) = f(actor);
        self.apply_from(Some(idx), addr, out);
        Some(r)
    }

    /// Crash a node: remove it abruptly. In-flight traffic to it is lost
    /// (counted in [`SimNet::dropped`]), its pending timers die silently,
    /// and its transport counters are retired into
    /// [`SimNet::retired_link_stats`] rather than left to go stale; peers
    /// discover the failure via timeouts (ungraceful churn).
    pub fn crash(&mut self, addr: NodeAddr) -> Option<A> {
        let idx = *self.addr_map.get(&addr)?;
        let slot = &mut self.slots[idx as usize];
        let actor = slot.actor.take()?;
        let s = slot.stats;
        slot.stats = LinkStats::default();
        slot.slow = None;
        slot.busy_until = SimTime::ZERO;
        let r = self.retired_stats.entry(addr).or_default();
        r.sent += s.sent;
        r.delivered += s.delivered;
        self.addr_map.remove(&addr);
        self.free.push(idx);
        self.live -= 1;
        self.membership_epoch += 1;
        Some(actor)
    }

    /// Process the outputs `from` produced.
    pub fn apply(&mut self, from: NodeAddr, outputs: Vec<Output>) {
        let idx = self.idx_of(from);
        self.apply_from(idx, from, outputs);
    }

    /// Output processing with the sender's slot already resolved (the hot
    /// path hands it down so sends don't re-probe the address map).
    fn apply_from(&mut self, from_idx: Option<usize>, from: NodeAddr, outputs: Vec<Output>) {
        for o in outputs {
            match o {
                Output::Send { to, msg } => {
                    if let Some(i) = from_idx {
                        self.slots[i].stats.sent += 1;
                    }
                    // Consult the fault controller first; when no plan is
                    // installed this consumes no randomness, preserving
                    // traces of fault-free runs byte for byte.
                    let now = self.queue.now();
                    let (blocked, link, degrade, dup_prob) = match self.faults.as_mut() {
                        Some(fc) => (
                            fc.blocked(from, to.addr),
                            fc.link(from, to.addr, now),
                            fc.degrade(from, to.addr, now),
                            fc.dup_prob(),
                        ),
                        None => (false, None, None, 0.0),
                    };
                    if blocked || self.loss.drops(&mut self.rng) {
                        self.dropped += 1;
                        continue;
                    }
                    if let Some(lf) = link {
                        if lf.loss > 0.0 && self.rng.random::<f64>() < lf.loss {
                            self.dropped += 1;
                            continue;
                        }
                    }
                    // Gray degradation composes on top of any plain link
                    // override: its own loss coin, then extra latency plus
                    // uniform per-message jitter.
                    if let Some((lf, _)) = degrade {
                        if lf.loss > 0.0 && self.rng.random::<f64>() < lf.loss {
                            self.dropped += 1;
                            continue;
                        }
                    }
                    let mut extra = link.map_or(0, |l| l.extra_latency_ms);
                    if let Some((lf, jitter)) = degrade {
                        extra += lf.extra_latency_ms;
                        if jitter > 0 {
                            extra += self.rng.random_range(0..=jitter);
                        }
                    }
                    let hint = self.hint_for(to.addr);
                    if dup_prob > 0.0 && self.rng.random::<f64>() < dup_prob {
                        let delay = self.latency.sample(&mut self.rng) + extra;
                        self.queue.push_after(
                            delay,
                            SimEvent::Deliver {
                                to: to.addr,
                                hint,
                                from,
                                // Shared payload buffers make this clone a
                                // refcount bump, not a byte copy.
                                msg: msg.clone(),
                            },
                        );
                    }
                    let delay = self.latency.sample(&mut self.rng) + extra;
                    self.queue.push_after(
                        delay,
                        SimEvent::Deliver {
                            to: to.addr,
                            hint,
                            from,
                            msg,
                        },
                    );
                }
                Output::SetTimer { kind, delay_ms } => {
                    let hint = match from_idx {
                        Some(i) => SlotHint {
                            idx: i as u32,
                            gen: self.slots[i].gen,
                        },
                        None => SlotHint::NONE,
                    };
                    self.queue.push_after(
                        delay_ms,
                        SimEvent::Timer {
                            node: from,
                            hint,
                            kind,
                        },
                    );
                }
                Output::Upcall(upcall) => {
                    if self.record_upcalls {
                        self.upcalls.push(UpcallRecord {
                            at: self.queue.now(),
                            node: from,
                            upcall,
                        });
                    }
                }
            }
        }
    }

    /// Deliver one admitted message to the resolved slot: wire corruption
    /// (if an episode covers the link), parity check, counters, actor
    /// input, output processing.
    fn deliver_one(&mut self, idx: usize, from: NodeAddr, msg: ChordMsg) {
        let to_addr = self.slots[idx].addr;
        // Byte-level corruption rides the real codec path: the message is
        // encoded, its bytes damaged, and the damaged frame decoded —
        // whatever the decoder makes of it is what the victim receives.
        // The `any_corrupt` gate plus per-link lookup mean clean runs draw
        // zero randomness here, keeping their seeded digests byte-identical.
        let mut input = None;
        if let Some(fc) = self.faults.as_mut() {
            if fc.any_corrupt() {
                let now = self.queue.now();
                if let Some((prob, mode)) = fc.corrupt(from, to_addr, now) {
                    if prob > 0.0 && self.rng.random::<f64>() < prob {
                        self.corruption.injected += 1;
                        let mut bytes = dat_chord::codec::encode(&msg);
                        corrupt_frame(&mut bytes, mode, &mut self.rng);
                        input = Some(match dat_chord::codec::decode(&bytes) {
                            Ok(survived) => {
                                self.corruption.passed += 1;
                                Input::Message {
                                    from,
                                    msg: survived,
                                }
                            }
                            Err(error) => {
                                self.corruption.rejected += 1;
                                Input::BadFrame {
                                    from: Some(from),
                                    error,
                                }
                            }
                        });
                    }
                }
            }
        }
        let input = match input {
            Some(i) => i,
            None => {
                if self.codec_parity {
                    let bytes = dat_chord::codec::encode(&msg);
                    match dat_chord::codec::decode(&bytes) {
                        Ok(rt) => {
                            assert_eq!(rt, msg, "codec parity: wire round-trip changed the message")
                        }
                        Err(e) => panic!("codec parity: {e} while round-tripping {:?}", msg.kind()),
                    }
                }
                Input::Message { from, msg }
            }
        };
        let now_ms = self.queue.now().as_millis();
        let slot = &mut self.slots[idx];
        slot.stats.delivered += 1;
        let Some(actor) = slot.actor.as_mut() else {
            return;
        };
        actor.set_now(now_ms);
        let out = actor.on_input(input);
        self.apply_from(Some(idx), to_addr, out);
    }

    /// Pop and process a single queue entry. Returns `false` when the
    /// queue is empty. A delivery additionally batch-drains the target's
    /// same-instant inbox (consecutive due deliveries to the same slot)
    /// without re-entering the pop machinery per message.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        self.events_processed += 1;
        let now_ms = self.queue.now().as_millis();
        match ev.event {
            SimEvent::Deliver {
                to,
                hint,
                from,
                msg,
            } => {
                let Some(idx) = self.resolve(to, hint) else {
                    self.dropped += 1; // destination crashed
                    return true;
                };
                // Gray slowdown: a slowed node serializes processing in
                // virtual time. A delivery landing while the node is busy
                // is requeued at the busy horizon (never dropped — the
                // node answers late, which is the whole point); an
                // admitted delivery pushes the horizon out by the per-
                // message processing cost. Episodes expire lazily.
                let slot = &mut self.slots[idx];
                if let Some((process_ms, until)) = slot.slow {
                    let now = self.queue.now();
                    if now >= until {
                        slot.slow = None;
                        slot.busy_until = SimTime::ZERO;
                    } else {
                        let busy = slot.busy_until;
                        if busy > now {
                            let hint = SlotHint {
                                idx: idx as u32,
                                gen: slot.gen,
                            };
                            self.queue.push_at(
                                busy,
                                SimEvent::Deliver {
                                    to,
                                    hint,
                                    from,
                                    msg,
                                },
                            );
                            return true;
                        }
                        slot.busy_until = now + process_ms;
                    }
                }
                self.deliver_one(idx, from, msg);
                // Batch drain: take the rest of this node's due inbox —
                // consecutive head-of-queue deliveries at the same instant
                // whose hints match this slot's current generation. Taking
                // only head events preserves the exact sequential order,
                // and outputs pushed mid-batch carry later sequence
                // numbers, so the schedule is byte-identical to stepping.
                // Slowed nodes are excluded (each admission must move the
                // busy horizon through the requeue path above).
                let gen = self.slots[idx].gen;
                let want = SlotHint {
                    idx: idx as u32,
                    gen,
                };
                while self.slots[idx].slow.is_none() {
                    let next = self
                        .queue
                        .pop_if(|e| matches!(e, SimEvent::Deliver { hint, .. } if *hint == want));
                    let Some(next) = next else {
                        break;
                    };
                    self.events_processed += 1;
                    let SimEvent::Deliver { from, msg, .. } = next.event else {
                        break;
                    };
                    self.deliver_one(idx, from, msg);
                }
            }
            SimEvent::Timer {
                node: addr,
                hint,
                kind,
            } => {
                let Some(idx) = self.resolve(addr, hint) else {
                    return true; // node gone; timer dies silently
                };
                let Some(node) = self.slots[idx].actor.as_mut() else {
                    return true;
                };
                node.set_now(now_ms);
                let out = node.on_input(Input::Timer(kind));
                self.apply_from(Some(idx), addr, out);
            }
            SimEvent::Fault(i) => {
                let now = self.queue.now();
                let action = self.faults.as_mut().and_then(|fc| fc.apply(i, now));
                match action {
                    Some(FaultAction::Crash(node)) => {
                        let _ = self.crash(node);
                    }
                    Some(FaultAction::Restart(node)) if self.idx_of(node).is_none() => {
                        let spawned = self.restart_fn.as_mut().and_then(|f| f(node));
                        if let Some((actor, out)) = spawned {
                            let addr = actor.addr();
                            self.add_node(actor);
                            self.apply(addr, out);
                        }
                    }
                    Some(FaultAction::Slow(node, process_ms, for_ms)) => {
                        if let Some(idx) = self.idx_of(node) {
                            self.slots[idx].slow = Some((process_ms, now + for_ms));
                        }
                    }
                    Some(FaultAction::Overload(node, msgs, spread_ms)) => {
                        // Junk DAT-proto messages from a sentinel sender:
                        // they burn inbox slots on delivery and fail to
                        // decode at the protocol layer (counted dropped).
                        // Scheduled deterministically — no RNG consumed.
                        // One shared payload buffer for the whole burst.
                        let junk = NodeRef::new(Id(u64::MAX), NodeAddr(u64::MAX));
                        let junk_payload = dat_chord::Payload::from(vec![0xFF]);
                        let hint = self.hint_for(node);
                        for i in 0..msgs {
                            let delay = if msgs > 1 {
                                i * spread_ms / (msgs - 1)
                            } else {
                                0
                            };
                            self.queue.push_after(
                                delay,
                                SimEvent::Deliver {
                                    to: node,
                                    hint,
                                    from: NodeAddr(u64::MAX),
                                    msg: ChordMsg::App {
                                        proto: 1,
                                        from: junk,
                                        payload: junk_payload.clone(),
                                    },
                                },
                            );
                        }
                    }
                    // Restart of a still-live node, or no action due.
                    _ => {}
                }
            }
        }
        true
    }

    /// Run until virtual time reaches `t` (events at exactly `t` included)
    /// or the queue drains.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(next) = self.queue.peek_time() {
            if next > t {
                break;
            }
            self.step();
        }
        // Land exactly on the deadline so that back-to-back bounded runs
        // cover contiguous, exact windows.
        self.queue.advance_to(t);
    }

    /// Run for `ms` more virtual milliseconds.
    pub fn run_for(&mut self, ms: u64) {
        let deadline = self.now() + ms;
        self.run_until(deadline);
    }

    /// Drain the recorded upcalls.
    pub fn take_upcalls(&mut self) -> Vec<UpcallRecord> {
        std::mem::take(&mut self.upcalls)
    }

    /// Transport counters for one node.
    pub fn link_stats(&self, addr: NodeAddr) -> LinkStats {
        match self.idx_of(addr) {
            Some(idx) => self.slots[idx].stats,
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
        for s in &mut self.slots {
            s.stats = LinkStats::default();
        }
        self.dropped = 0;
        self.corruption = CorruptionStats::default();
    }
}

/// Damage an encoded frame in place according to `mode`. All randomness
/// comes from the engine's seeded generator, so a corruption episode
/// replays byte-identically for a given seed.
fn corrupt_frame(bytes: &mut Vec<u8>, mode: CorruptMode, rng: &mut SmallRng) {
    if bytes.is_empty() {
        return;
    }
    match mode {
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

#[allow(clippy::unwrap_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use dat_chord::{ChordConfig, ChordNode, Id, IdSpace};

    fn cfg() -> ChordConfig {
        ChordConfig {
            space: IdSpace::new(16),
            ..ChordConfig::default()
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
            let plan = FaultPlan::new().corrupt_link_at(
                30_000,
                NodeAddr(1),
                NodeAddr(2),
                1.0,
                CorruptMode::BitFlip,
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
        net.set_fault_plan(FaultPlan::new().corrupt_link_at(
            30_000,
            NodeAddr(1),
            NodeAddr(2),
            1.0,
            CorruptMode::Garbage,
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
            net.set_fault_plan(FaultPlan::new().corrupt_link_at(
                1_000,
                NodeAddr(77),
                NodeAddr(78),
                1.0,
                CorruptMode::Garbage,
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
        net.set_fault_plan(FaultPlan::new().corrupt_link_at(
            30_000,
            NodeAddr(2),
            NodeAddr(1),
            1.0,
            CorruptMode::TagRewrite,
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
        net.set_fault_plan(
            FaultPlan::new()
                .link_fault_at(
                    0,
                    NodeAddr(1),
                    NodeAddr(2),
                    crate::fault::LinkFault {
                        loss: 1.0,
                        extra_latency_ms: 0,
                    },
                )
                .clear_link_at(20_000, NodeAddr(1), NodeAddr(2)),
        );
        net.run_for(15_000);
        // Join replies all travel 1 → 2 and the directed override eats them.
        let b = net.node(NodeAddr(2)).unwrap();
        assert_ne!(b.status(), dat_chord::NodeStatus::Active);
        assert!(net.dropped > 0);
        net.run_for(60_000);
        let b = net.node(NodeAddr(2)).unwrap();
        assert_eq!(
            b.status(),
            dat_chord::NodeStatus::Active,
            "cleared link heals"
        );
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
        net.set_fault_plan(FaultPlan::new().degrade_link_at(
            0,
            NodeAddr(1),
            NodeAddr(2),
            crate::fault::LinkFault {
                loss: 1.0,
                extra_latency_ms: 0,
            },
            25,
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
        // A fault plan whose event time is already in the past gets
        // clamped to "now" by the queue — and counted.
        let plan = FaultPlan::new().crash_at(5_000, NodeAddr(2));
        net.set_fault_plan(plan);
        assert_eq!(net.clamped_events(), 1);
        net.run_for(1_000);
        assert!(net.node(NodeAddr(2)).is_none(), "clamped crash still fires");
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
