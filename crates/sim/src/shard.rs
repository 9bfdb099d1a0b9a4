//! The engine's data plane: what one shard — one worker thread — owns and
//! runs. [`crate::net::SimNet`] is the control plane around it (membership,
//! faults, the public surface); everything in this file executes inside a
//! run segment and touches only the shard it is called on.
//!
//! The node arena is dealt across `S` shards (slot `g` lives on shard
//! `g % S` at local index `g / S`). Each shard owns a private
//! [`EventQueue`] (timer wheel) and runs its nodes' deliveries and timers;
//! cross-shard sends become time-stamped messages drained at a barrier.
//!
//! ## The determinism contract
//!
//! Every seeded run produces the same bytes **regardless of shard
//! count**. Three rules make that hold:
//!
//! 1. **Keys are assigned at push time, never at arrival time.** Each
//!    event carries `(ctr << IDX_BITS) | sender_slot`, where `ctr` is the
//!    sending slot's private monotone counter (it survives a crash, so a
//!    new incarnation can never collide with its predecessor's pending
//!    keys). Which shard's mailbox a message lands in first — or which
//!    thread happens to run ahead — can never influence the key, so the
//!    total order `(at, key)` is a pure function of the seed.
//! 2. **Randomness is per node, not per engine.** Every slot owns a
//!    `SmallRng` stream seeded from `(engine seed, slot index)`. A node's
//!    events are processed in `(at, key)` order by whichever single shard
//!    owns it, so its stream is consumed in the same order for any `S` —
//!    which in turn makes every latency sample, loss coin, corruption draw
//!    and key identical for any `S`.
//! 3. **Conservative lookahead.** The minimum link latency
//!    ([`LatencyModel::min_ms`], always ≥ 1 ms) bounds how far any shard
//!    may run ahead: in each round the shards agree on the global minimum
//!    pending time `gmin` and execute only the window
//!    `[gmin, gmin + lookahead)`. Any message sent inside the window is
//!    delivered no earlier than `gmin + lookahead`, i.e. strictly after
//!    the window, so no shard can ever receive a message "from the past".
//!    Timers and slowdown requeues are shard-local and need no lookahead.
//!
//! Faults never enter this file as events: the control plane applies them
//! between segments, and workers only *read* the fault controller.
//!
//! The merge rule itself — next event is the `(at, key)` minimum across
//! shards — is proven single-threaded by the test-only lane-merge
//! reference in [`crate::queue`].
//!
//! ## The barrier protocol
//!
//! Per round, two barriers and a pair of parity-indexed atomic minima:
//! each thread drains its inbound mailboxes, publishes its earliest
//! pending time with `fetch_min`, and crosses barrier A; all threads then
//! read the same `gmin`, execute the window, flush outbound mailboxes and
//! cross barrier B (shard 0 resets the *other* parity slot between the
//! barriers). `gmin > deadline` is observed by every thread in the same
//! round, so the loop exits uniformly with all mailboxes empty. With one
//! shard there are no threads, barriers or mailboxes: the window is
//! "everything due".

#![deny(clippy::unwrap_used)]

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use dat_chord::{Actor, ChordMsg, Input, NodeAddr, Output, TimerKind};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fault::FaultController;
use crate::latency::{LatencyModel, LossModel};
use crate::net::{CorruptionStats, LinkStats, SimNet, UpcallRecord};
use crate::queue::{EventQueue, Scheduled};
use crate::time::SimTime;

/// Low bits of a key reserved for the sender's slot index; the counter
/// occupies the remaining 40 bits. 16.7M nodes × 1.1T events per node
/// before either field saturates.
const IDX_BITS: u32 = 24;

/// The slot index engine-originated events (overload bursts) are keyed
/// from; no node is ever dealt it.
pub(crate) const ENGINE_IDX: u32 = (1 << IDX_BITS) - 1;

/// The push-time key of the `ctr`-th event originated by slot `idx`.
pub(crate) fn key(ctr: u64, idx: u32) -> u64 {
    (ctr << IDX_BITS) | u64::from(idx)
}

/// splitmix64 finalizer — decorrelates per-node RNG seeds.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything the engine schedules. Targets are *local* slot indices of
/// the shard whose queue holds the event.
///
/// A message and its addresses sit behind a `Box`: most pending events
/// are timers (a DAT node keeps about four armed between epochs), and an
/// inline 80-byte [`ChordMsg`] would make every one of them pay for a
/// message it never carries. Boxed, a scheduled event is 40 bytes.
pub(crate) enum Event {
    /// Deliver a message to local slot `to`.
    Deliver { to: u32, parcel: Box<Parcel> },
    /// Fire a protocol timer on incarnation `gen` of local slot `node`;
    /// timers never outlive the incarnation that armed them.
    Timer {
        node: u32,
        gen: u32,
        kind: TimerKind,
    },
}

/// A message in flight, as [`Event::Deliver`] carries it: delivered
/// provided `to_addr` still lives at the target slot, so traffic in
/// flight to a crashed node reaches a restarted incarnation of the same
/// address and is dropped otherwise.
pub(crate) struct Parcel {
    pub(crate) to_addr: NodeAddr,
    pub(crate) from: NodeAddr,
    pub(crate) msg: ChordMsg,
}

impl Event {
    /// The local slot index this event targets.
    pub(crate) fn target_mut(&mut self) -> &mut u32 {
        match self {
            Event::Deliver { to, .. } => to,
            Event::Timer { node, .. } => node,
        }
    }
}

/// One arena cell: the hosted actor plus all per-node engine state the
/// delivery hot path touches. The key counter and RNG stream belong to the
/// slot, not the occupant, so they stay monotone across incarnations.
pub(crate) struct Slot<A> {
    /// Transport address of the current (or last) occupant.
    pub(crate) addr: NodeAddr,
    /// Bumped every time the slot is re-occupied.
    pub(crate) gen: u32,
    /// The hosted actor; `None` after a crash until the slot is reused.
    pub(crate) actor: Option<A>,
    /// Live transport counters of the occupant.
    pub(crate) stats: LinkStats,
    /// Active processing slowdown: `(process_ms, episode end)`.
    pub(crate) slow: Option<(u64, SimTime)>,
    /// Virtual-time busy horizon of a slowed node: deliveries landing
    /// before it are requeued, so a slow node answers *late*, not never.
    pub(crate) busy_until: SimTime,
    /// Private RNG stream — every coin and sample drawn while this node is
    /// being processed comes from here, in event order.
    rng: SmallRng,
    /// Private monotone counter — the high bits of every key this slot
    /// assigns.
    pub(crate) ctr: u64,
    /// Private monotone counter of recorded upcalls — their order keys.
    /// Separate from `ctr`, so recording them moves no event key.
    up_ctr: u64,
    /// Global slot index (the low bits of every key).
    idx: u32,
}

impl<A> Slot<A> {
    pub(crate) fn new(seed: u64, idx: u32, addr: NodeAddr, actor: A) -> Self {
        Slot {
            addr,
            gen: 0,
            actor: Some(actor),
            stats: LinkStats::default(),
            slow: None,
            busy_until: SimTime::ZERO,
            rng: SmallRng::seed_from_u64(mix64(seed ^ mix64(u64::from(idx)))),
            ctr: 0,
            up_ctr: 0,
            idx,
        }
    }

    fn next_key(&mut self) -> u64 {
        let k = key(self.ctr, self.idx);
        self.ctr += 1;
        k
    }

    fn next_upcall_key(&mut self) -> u64 {
        let k = key(self.up_ctr, self.idx);
        self.up_ctr += 1;
        k
    }
}

/// Read-only engine parameters shared by every worker thread.
#[derive(Clone, Copy)]
pub(crate) struct Env<'a> {
    pub(crate) latency: LatencyModel,
    pub(crate) loss: LossModel,
    pub(crate) shards: usize,
    pub(crate) record_upcalls: bool,
    pub(crate) codec_parity: bool,
    /// Address → global slot index of every live node.
    pub(crate) addr_map: &'a HashMap<NodeAddr, u32>,
    pub(crate) faults: Option<&'a FaultController>,
}

/// Outbound cross-shard sends of one window, one buffer per destination.
pub(crate) type Outbox = [Vec<Scheduled<Event>>];

/// One shard: a private event queue plus the slots it owns. All mutation
/// during a run happens from exactly one worker thread.
pub(crate) struct Shard<A> {
    pub(crate) id: usize,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) nodes: Vec<Slot<A>>,
    // Tallies of the current run; the control plane folds them into the
    // engine's totals when the run returns.
    pub(crate) events: u64,
    pub(crate) dropped: u64,
    pub(crate) corruption: CorruptionStats,
    /// Upcalls tagged with their node's upcall key, so the merged
    /// fleet-wide order is `(at, key)` — deterministic for any shard count.
    pub(crate) upcalls: Vec<(u64, UpcallRecord)>,
}

impl<A: Actor> Shard<A> {
    pub(crate) fn new(id: usize, now: SimTime) -> Self {
        let mut queue = EventQueue::new();
        queue.advance_to(now);
        Shard {
            id,
            queue,
            nodes: Vec::new(),
            events: 0,
            dropped: 0,
            corruption: CorruptionStats::default(),
            upcalls: Vec::new(),
        }
    }

    /// Execute every pending event with `at < wend`. Local sends and
    /// timers go straight onto the private queue (and may fire within
    /// this same window); cross-shard sends accumulate in `cross` for the
    /// caller to flush after the window.
    fn run_window(&mut self, wend: u64, env: &Env<'_>, cross: &mut Outbox) {
        while self.queue.peek_time().is_some_and(|t| t.0 < wend) {
            let Some(ev) = self.queue.pop() else {
                break;
            };
            self.events += 1;
            let at = ev.at;
            match ev.event {
                Event::Deliver { to, parcel } => {
                    self.deliver(to, at, parcel, env, cross);
                    // Batch drain: take the rest of this node's due inbox
                    // (consecutive head-of-queue deliveries at the same
                    // instant) without re-entering the pop machinery per
                    // message. Order-preserving: only exact head events
                    // are taken, and mid-batch outputs carry later keys.
                    loop {
                        let next = self
                            .queue
                            .pop_if(|e| matches!(e, Event::Deliver { to: t2, .. } if *t2 == to));
                        let Some(Scheduled {
                            event: Event::Deliver { parcel, .. },
                            ..
                        }) = next
                        else {
                            break;
                        };
                        self.events += 1;
                        self.deliver(to, at, parcel, env, cross);
                    }
                }
                Event::Timer { node, gen, kind } => {
                    let n = &mut self.nodes[node as usize];
                    if n.gen != gen {
                        continue; // armed by an earlier incarnation
                    }
                    let Some(actor) = n.actor.as_mut() else {
                        continue; // node gone; timer dies silently
                    };
                    actor.set_now(at.as_millis());
                    let out = actor.on_input(Input::Timer(kind));
                    self.apply_outputs(node, at, out, env, cross);
                }
            }
        }
    }

    /// Deliver one message to local slot `to`: liveness, gray slowdown,
    /// wire corruption (if an episode covers the link), parity check,
    /// counters, actor input, output processing.
    fn deliver(
        &mut self,
        to: u32,
        at: SimTime,
        parcel: Box<Parcel>,
        env: &Env<'_>,
        cross: &mut Outbox,
    ) {
        let (to_addr, from) = (parcel.to_addr, parcel.from);
        let n = &mut self.nodes[to as usize];
        if n.addr != to_addr || n.actor.is_none() {
            self.dropped += 1; // destination crashed
            return;
        }
        // Gray slowdown: a slowed node serializes processing in virtual
        // time. A delivery landing while the node is busy is requeued at
        // the busy horizon under a fresh key of the receiver (never
        // dropped — the node answers late, which is the whole point); an
        // admitted delivery pushes the horizon out by the per-message
        // processing cost. Episodes expire lazily.
        if let Some((process_ms, until)) = n.slow {
            if at >= until {
                n.slow = None;
                n.busy_until = SimTime::ZERO;
            } else if n.busy_until > at {
                let (busy, key) = (n.busy_until, n.next_key());
                self.queue
                    .push_at_keyed(busy, key, Event::Deliver { to, parcel });
                return;
            } else {
                n.busy_until = at + process_ms;
            }
        }
        // Byte-level corruption rides the real codec path: the message is
        // encoded, its bytes damaged, and the damaged frame decoded —
        // whatever the decoder makes of it is what the victim receives.
        // No corruption on the link, no randomness drawn.
        let damage = env
            .faults
            .and_then(|fc| fc.link(from, to_addr, at)?.corrupt);
        let input = match damage {
            Some((prob, mode)) if prob > 0.0 && n.rng.random::<f64>() < prob => {
                self.corruption.injected += 1;
                let mut bytes = dat_chord::codec::encode(&parcel.msg);
                mode.damage(&mut bytes, &mut n.rng);
                match dat_chord::codec::decode(&bytes) {
                    Ok(msg) => {
                        self.corruption.passed += 1;
                        Input::Message { from, msg }
                    }
                    Err(error) => {
                        self.corruption.rejected += 1;
                        let from = Some(from);
                        Input::BadFrame { from, error }
                    }
                }
            }
            _ => {
                if env.codec_parity {
                    let msg = &parcel.msg;
                    let bytes = dat_chord::codec::encode(msg);
                    match dat_chord::codec::decode(&bytes) {
                        Ok(rt) => {
                            assert_eq!(
                                &rt, msg,
                                "codec parity: wire round-trip changed the message"
                            )
                        }
                        Err(e) => panic!("codec parity: {e} while round-tripping {:?}", msg.kind()),
                    }
                }
                Input::Message {
                    from,
                    msg: parcel.msg,
                }
            }
        };
        n.stats.delivered += 1;
        let Some(actor) = n.actor.as_mut() else {
            return;
        };
        actor.set_now(at.as_millis());
        let out = actor.on_input(input);
        self.apply_outputs(to, at, out, env, cross);
    }

    /// Process the outputs of local slot `sender`. Every RNG draw and key
    /// assignment comes from the *sender's* private streams, in output
    /// order — the whole determinism contract reduces to this function
    /// being a pure function of (slot state, outputs, fault state), and
    /// fault state only changes between segments. With no plan installed
    /// the draws per send are exactly: loss coin, latency sample, key.
    pub(crate) fn apply_outputs(
        &mut self,
        sender: u32,
        at: SimTime,
        outputs: Vec<Output>,
        env: &Env<'_>,
        cross: &mut Outbox,
    ) {
        for o in outputs {
            let n = &mut self.nodes[sender as usize];
            match o {
                Output::Send { to, msg } => {
                    n.stats.sent += 1;
                    let from = n.addr;
                    let blocked = env.faults.is_some_and(|fc| fc.blocked(from, to.addr));
                    if blocked || env.loss.drops(&mut n.rng) {
                        self.dropped += 1;
                        continue;
                    }
                    let mut extra = 0;
                    let mut duplicate = false;
                    if let Some(fc) = env.faults {
                        // A link episode flips its loss coin, then adds its
                        // latency plus uniform per-message jitter.
                        if let Some(lf) = fc.link(from, to.addr, at) {
                            if lf.loss > 0.0 && n.rng.random::<f64>() < lf.loss {
                                self.dropped += 1;
                                continue;
                            }
                            extra = lf.extra_latency_ms;
                            if lf.jitter_ms > 0 {
                                extra += n.rng.random_range(0..=lf.jitter_ms);
                            }
                        }
                        let dup = fc.dup_prob();
                        duplicate = dup > 0.0 && n.rng.random::<f64>() < dup;
                    }
                    if duplicate {
                        // Shared payload buffers make this clone a
                        // refcount bump, not a byte copy.
                        self.send(sender, at, extra, to.addr, msg.clone(), env, cross);
                    }
                    self.send(sender, at, extra, to.addr, msg, env, cross);
                }
                Output::SetTimer { kind, delay_ms } => {
                    let (key, gen) = (n.next_key(), n.gen);
                    let node = sender;
                    self.queue
                        .push_at_keyed(at + delay_ms, key, Event::Timer { node, gen, kind });
                }
                Output::Upcall(upcall) => {
                    if env.record_upcalls {
                        let (key, node) = (n.next_upcall_key(), n.addr);
                        self.upcalls.push((key, UpcallRecord { at, node, upcall }));
                    }
                }
            }
        }
    }

    /// Put one admitted copy of a message on the wire: latency sample and
    /// key from the sender's streams, then the destination's queue (ours)
    /// or mailbox (another shard's).
    #[allow(clippy::too_many_arguments)]
    fn send(
        &mut self,
        sender: u32,
        at: SimTime,
        extra_ms: u64,
        to_addr: NodeAddr,
        msg: ChordMsg,
        env: &Env<'_>,
        cross: &mut Outbox,
    ) {
        let n = &mut self.nodes[sender as usize];
        let at = at + env.latency.sample(&mut n.rng) + extra_ms;
        let seq = n.next_key();
        let from = n.addr;
        // The sample and key above are drawn before the lookup, so the
        // sender's streams do not depend on it.
        let Some(&g) = env.addr_map.get(&to_addr) else {
            self.dropped += 1; // nobody at that address
            return;
        };
        let (dst, to) = (g as usize % env.shards, g / env.shards as u32);
        let parcel = Box::new(Parcel { to_addr, from, msg });
        let event = Event::Deliver { to, parcel };
        if dst == self.id {
            self.queue.push_at_keyed(at, seq, event);
        } else {
            cross[dst].push(Scheduled { at, seq, event });
        }
    }
}

/// Execute every event with `at <= deadline` on all shards: on the
/// calling thread when there is one shard, otherwise one worker thread
/// per shard under the window protocol of the module docs.
pub(crate) fn run_segment<A: Actor>(shards: &mut [Shard<A>], deadline: u64, env: &Env<'_>) {
    let s = shards.len();
    let past_deadline = deadline.saturating_add(1);
    if s == 1 {
        let mut cross = [Vec::new()];
        shards[0].run_window(past_deadline, env, &mut cross);
        debug_assert!(cross[0].is_empty(), "self-send routed cross-shard");
        return;
    }
    if shards
        .iter()
        .all(|sh| sh.queue.peek_time().is_none_or(|t| t.0 > deadline))
    {
        return; // nothing due: not worth S threads
    }
    let lookahead = env.latency.min_ms();
    // `S × S` mailboxes, indexed `src * S + dst`, touched only between
    // the barriers of the round protocol.
    let grid: Vec<Mutex<Vec<Scheduled<Event>>>> =
        (0..s * s).map(|_| Mutex::new(Vec::new())).collect();
    let barrier = Barrier::new(s);
    let mins = [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)];
    // A panic inside a window (an actor's, the codec-parity assert) must
    // not strand the other workers at a barrier, which does not poison:
    // the worker keeps the payload and all leave after that round's B.
    let panicked = Mutex::new(None);
    std::thread::scope(|scope| {
        for shard in shards.iter_mut() {
            let (grid, barrier, mins, panicked) = (&grid, &barrier, &mins, &panicked);
            scope.spawn(move || {
                let mut cross: Vec<Vec<Scheduled<Event>>> = (0..s).map(|_| Vec::new()).collect();
                let mut round = 0usize;
                loop {
                    // Drain inbound mailboxes. Barrier B of the previous
                    // round guarantees every message sent in that round
                    // is already here, so the local minimum below is
                    // exact.
                    for src in 0..s {
                        for m in grid[src * s + shard.id].lock().drain(..) {
                            shard.queue.push_at_keyed(m.at, m.seq, m.event);
                        }
                    }
                    let local_min = shard.queue.peek_time().map_or(u64::MAX, |t| t.0);
                    let p = round & 1;
                    mins[p].fetch_min(local_min, Ordering::AcqRel);
                    barrier.wait(); // A: all minima published
                    let gmin = mins[p].load(Ordering::Acquire);
                    if gmin > deadline {
                        // Uniform exit: every thread reads the same gmin
                        // in the same round, after draining, having
                        // flushed nothing since — so all mailboxes are
                        // empty and every event ≤ deadline has been
                        // executed.
                        break;
                    }
                    let wend = gmin.saturating_add(lookahead).min(past_deadline);
                    let window = AssertUnwindSafe(|| shard.run_window(wend, env, &mut cross));
                    if let Err(payload) = catch_unwind(window) {
                        panicked.lock().get_or_insert(payload);
                    }
                    for (dst, buf) in cross.iter_mut().enumerate() {
                        if !buf.is_empty() {
                            grid[shard.id * s + dst].lock().append(buf);
                        }
                    }
                    if shard.id == 0 {
                        // Reset the *other* parity slot for the round
                        // after next; everyone is past its last read
                        // (barrier A) and before its next write
                        // (barrier B).
                        mins[1 - p].store(u64::MAX, Ordering::Release);
                    }
                    barrier.wait(); // B: all sends flushed
                    if panicked.lock().is_some() {
                        break; // only written between A and B: same for all
                    }
                    round += 1;
                }
            });
        }
    });
    if let Some(payload) = panicked.into_inner() {
        resume_unwind(payload);
    }
    debug_assert!(
        grid.iter().all(|c| c.lock().is_empty()),
        "cross-shard mailboxes not drained at exit"
    );
}

/// [`SimNet`] at a shard count fixed at construction, upcall recording
/// off — the spelling multi-core callers use. No engine logic lives here.
pub struct ShardedNet<A: Actor>(SimNet<A>);

impl<A: Actor> ShardedNet<A> {
    /// A fresh engine with `shards` worker shards (`0` behaves as `1`).
    pub fn new(seed: u64, shards: usize) -> Self {
        let mut net = SimNet::new(seed);
        net.set_shards(shards);
        ShardedNet(net)
    }

    /// Messages dropped so far ([`SimNet::dropped`]).
    pub fn dropped(&self) -> u64 {
        self.0.dropped
    }
}

impl<A: Actor> Deref for ShardedNet<A> {
    type Target = SimNet<A>;
    fn deref(&self) -> &SimNet<A> {
        &self.0
    }
}

impl<A: Actor> DerefMut for ShardedNet<A> {
    fn deref_mut(&mut self) -> &mut SimNet<A> {
        &mut self.0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use dat_chord::{Id, NodeRef, Payload, Upcall};

    /// A toy protocol that generates dense cross-shard traffic: every
    /// timer tick fans a message out to all peers, every third delivery
    /// echoes back to the sender, every seventh surfaces an upcall.
    struct PingActor {
        me: NodeRef,
        peers: Vec<NodeAddr>,
        rounds: u32,
        delivered: u64,
        now: u64,
    }

    impl Actor for PingActor {
        fn addr(&self) -> NodeAddr {
            self.me.addr
        }

        fn on_input(&mut self, input: Input) -> Vec<Output> {
            match input {
                Input::Timer(TimerKind::App(k)) => {
                    if self.rounds == 0 {
                        return vec![];
                    }
                    self.rounds -= 1;
                    let mut out: Vec<Output> = self
                        .peers
                        .iter()
                        .map(|&p| Output::Send {
                            to: NodeRef::new(Id(p.0), p),
                            msg: ChordMsg::App {
                                proto: 7,
                                from: self.me,
                                payload: Payload::from(vec![k as u8]),
                            },
                        })
                        .collect();
                    out.push(Output::SetTimer {
                        kind: TimerKind::App(k),
                        delay_ms: 25,
                    });
                    out
                }
                Input::Message { from, .. } => {
                    self.delivered += 1;
                    if self.delivered.is_multiple_of(3) {
                        vec![Output::Send {
                            to: NodeRef::new(Id(from.0), from),
                            msg: ChordMsg::App {
                                proto: 7,
                                from: self.me,
                                payload: Payload::from(vec![0xEE]),
                            },
                        }]
                    } else if self.delivered.is_multiple_of(7) {
                        vec![Output::Upcall(Upcall::Joined {
                            id: Id(self.delivered),
                        })]
                    } else {
                        vec![]
                    }
                }
                _ => vec![],
            }
        }

        fn set_now(&mut self, now_ms: u64) {
            self.now = now_ms;
        }
    }

    /// Full observable state of a run, for digest comparison.
    type Digest = (u64, u64, u64, Vec<(u64, u64, u64)>, Vec<(u64, u64)>);

    fn run(shards: usize, n: usize, latency: LatencyModel, loss: f64, ms: u64) -> Digest {
        let mut net: ShardedNet<PingActor> = ShardedNet::new(0xD1CE, shards);
        net.set_latency(latency);
        net.set_loss(LossModel::new(loss));
        net.set_record_upcalls(true);
        let addrs: Vec<NodeAddr> = (0..n as u64).map(|i| NodeAddr(1000 + i)).collect();
        for (i, &a) in addrs.iter().enumerate() {
            let peers = addrs
                .iter()
                .copied()
                .filter(|&p| p != a)
                .collect::<Vec<_>>();
            net.add_node(PingActor {
                me: NodeRef::new(Id(a.0), a),
                peers,
                rounds: 4 + (i as u32 % 3),
                delivered: 0,
                now: 0,
            });
        }
        for (i, &a) in addrs.iter().enumerate() {
            net.apply(
                a,
                vec![Output::SetTimer {
                    kind: TimerKind::App(i as u64),
                    delay_ms: 1 + (i as u64 % 5),
                }],
            );
        }
        // Split the horizon into two bounded runs to cover the
        // window-resume path (advance_to landing between events).
        net.run_for(ms / 2);
        net.run_until(SimTime(ms));
        let stats = addrs
            .iter()
            .map(|&a| {
                let s = net.link_stats(a);
                (a.0, s.sent, s.delivered)
            })
            .collect();
        let ups = net
            .take_upcalls()
            .into_iter()
            .map(|u| (u.at.0, u.node.0))
            .collect();
        assert_eq!(net.clamped_events(), 0, "conservative window violated");
        assert_eq!(net.now(), SimTime(ms));
        (
            net.events_processed(),
            net.dropped(),
            net.pending_events() as u64,
            stats,
            ups,
        )
    }

    #[test]
    fn a_scheduled_event_takes_40_bytes() {
        assert!(std::mem::size_of::<Scheduled<Event>>() <= 40);
    }

    #[test]
    fn digest_is_shard_count_invariant_lan() {
        // Constant 1 ms latency — the minimum lookahead, so the window
        // protocol runs the maximum number of rounds.
        let base = run(1, 10, LatencyModel::Constant(1), 0.0, 400);
        assert!(base.0 > 500, "workload too small: {} events", base.0);
        for s in [2usize, 3, 4, 8] {
            assert_eq!(
                run(s, 10, LatencyModel::Constant(1), 0.0, 400),
                base,
                "{s}-shard digest diverged from 1-shard"
            );
        }
    }

    #[test]
    fn digest_is_shard_count_invariant_with_jitter_and_loss() {
        // Uniform jitter exercises per-node latency streams; loss
        // exercises per-node coin streams. Both must stay byte-identical
        // for any shard count.
        let model = LatencyModel::Uniform { lo: 3, hi: 9 };
        let base = run(1, 12, model, 0.08, 600);
        assert!(base.1 > 0, "loss model never fired");
        assert!(!base.4.is_empty(), "no upcalls recorded");
        for s in [2usize, 4, 5, 8] {
            assert_eq!(run(s, 12, model, 0.08, 600), base);
        }
    }

    #[test]
    fn more_shards_than_nodes_is_fine() {
        let base = run(1, 3, LatencyModel::Constant(2), 0.0, 200);
        assert_eq!(run(8, 3, LatencyModel::Constant(2), 0.0, 200), base);
    }

    #[test]
    fn upcall_merge_is_globally_time_ordered() {
        let mut net: ShardedNet<PingActor> = ShardedNet::new(1, 4);
        net.set_record_upcalls(true);
        let addrs: Vec<NodeAddr> = (0..8u64).map(NodeAddr).collect();
        for &a in &addrs {
            let peers = addrs.iter().copied().filter(|&p| p != a).collect();
            net.add_node(PingActor {
                me: NodeRef::new(Id(a.0), a),
                peers,
                rounds: 6,
                delivered: 0,
                now: 0,
            });
        }
        for &a in &addrs {
            net.apply(
                a,
                vec![Output::SetTimer {
                    kind: TimerKind::App(0),
                    delay_ms: 1,
                }],
            );
        }
        net.run_for(500);
        let ups = net.take_upcalls();
        assert!(!ups.is_empty());
        assert!(
            ups.windows(2).all(|w| w[0].at <= w[1].at),
            "merged upcalls out of time order"
        );
    }

    /// Panics on any input.
    struct Bomb(NodeAddr);

    impl Actor for Bomb {
        fn addr(&self) -> NodeAddr {
            self.0
        }
        fn on_input(&mut self, _: Input) -> Vec<Output> {
            panic!("boom")
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn a_panicking_actor_fails_the_run_instead_of_hanging_it() {
        // Three workers only cross barriers; the fourth panics in its window.
        let mut net: ShardedNet<Bomb> = ShardedNet::new(3, 4);
        (0..4).for_each(|i| net.add_node(Bomb(NodeAddr(i))));
        let (kind, delay_ms) = (TimerKind::App(0), 5);
        net.apply(NodeAddr(2), vec![Output::SetTimer { kind, delay_ms }]);
        net.run_for(50);
    }

    #[test]
    fn with_node_routes_outputs() {
        let mut net: ShardedNet<PingActor> = ShardedNet::new(2, 2);
        let a = NodeAddr(1);
        let b = NodeAddr(2);
        for &x in &[a, b] {
            net.add_node(PingActor {
                me: NodeRef::new(Id(x.0), x),
                peers: vec![],
                rounds: 0,
                delivered: 0,
                now: 0,
            });
        }
        net.with_node(a, |actor| {
            let me = actor.me;
            (
                (),
                vec![Output::Send {
                    to: NodeRef::new(Id(b.0), b),
                    msg: ChordMsg::App {
                        proto: 7,
                        from: me,
                        payload: Payload::from(vec![1]),
                    },
                }],
            )
        });
        assert_eq!(net.pending_events(), 1);
        net.run_for(50);
        assert_eq!(net.link_stats(a).sent, 1);
        assert_eq!(net.link_stats(b).delivered, 1);
        assert_eq!(net.events_processed(), 1);
    }
}
