//! The multi-core simulation engine: conservative parallel discrete-event
//! execution with a deterministic cross-shard merge.
//!
//! [`ShardedNet`] partitions the node arena across `S` shards (node →
//! shard by `global index % S`, the same dense-index assignment the
//! single-core engine's `SlotHint`s rely on). Each shard owns a private
//! [`EventQueue`] (timer wheel) and runs its nodes' deliveries and timers
//! on its own worker thread; cross-shard sends become time-stamped
//! messages drained at a barrier.
//!
//! ## The determinism contract
//!
//! Every seeded run must produce the same digest **regardless of shard
//! count**. Three rules make that hold:
//!
//! 1. **Keys are assigned at push time, never at arrival time.** Each
//!    event carries `global_seq = (ctr << IDX_BITS) | sender_idx`, where
//!    `ctr` is the sending node's private monotone counter. Which shard's
//!    mailbox a message lands in first — or which thread happens to run
//!    ahead — can never influence the key, so the total order
//!    `(at, global_seq)` is a pure function of the seed.
//! 2. **Randomness is per node, not per engine.** Every node owns a
//!    `SmallRng` stream seeded from `(engine seed, node index)`. A node's
//!    events are processed in `(at, key)` order by whichever single shard
//!    owns it, so its stream is consumed in the same order for any `S` —
//!    which in turn makes every latency sample, loss coin and key
//!    identical for any `S`. (This is the one place the sharded engine
//!    deliberately differs from [`crate::net::SimNet`], whose single
//!    global RNG cannot survive parallel execution; the two engines'
//!    digests are therefore self-consistent but not mutually comparable.)
//! 3. **Conservative lookahead.** The minimum link latency
//!    ([`LatencyModel::min_ms`], always ≥ 1 ms) bounds how far any shard
//!    may run ahead: in each round the shards agree on the global minimum
//!    pending time `gmin` and execute only the window
//!    `[gmin, gmin + lookahead)`. Any message sent inside the window is
//!    delivered no earlier than `gmin + lookahead`, i.e. strictly after
//!    the window, so no shard can ever receive a message "from the past".
//!    Timers are shard-local and need no lookahead.
//!
//! The merge rule itself — next event is the `(at, key)` minimum across
//! shards — is proven single-threaded by the test-only lane-merge
//! reference in [`crate::queue`], which runs the identical K-way merge
//! under the full existing stack and fingerprints byte-identical to the
//! wheel.
//!
//! ## The barrier protocol
//!
//! Per round, two barriers and a pair of parity-indexed atomic minima:
//! each thread drains its inbound mailboxes, publishes its earliest
//! pending time with `fetch_min`, and crosses barrier A; all threads then
//! read the same `gmin`, execute the window, flush outbound mailboxes and
//! cross barrier B (shard 0 resets the *other* parity slot between the
//! barriers). `gmin > deadline` is observed by every thread in the same
//! round, so the loop exits uniformly with all mailboxes empty.
//!
//! Faults, crashes and wire corruption are not modeled here — the
//! single-core engine remains the reference for those planes; this engine
//! exists to scale the fault-free hot path (`sim::scale`) across cores.

#![deny(clippy::unwrap_used)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use dat_chord::{ChordMsg, Input, NodeAddr, Output, TimerKind};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::latency::{LatencyModel, LossModel};
use crate::net::{LinkStats, UpcallRecord};
use crate::queue::EventQueue;
use crate::time::SimTime;

pub use dat_chord::Actor;

/// Low bits of a key reserved for the sender's global node index; the
/// counter occupies the remaining 40 bits. 16.7M nodes × 1.1T events per
/// node before either field saturates.
const IDX_BITS: u32 = 24;

/// splitmix64 finalizer — decorrelates per-node RNG seeds.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Events a shard schedules on its private queue.
enum ShardEvent {
    /// Deliver `msg` to the local node at arena index `to`.
    Deliver {
        to: u32,
        from: NodeAddr,
        msg: ChordMsg,
    },
    /// Fire a protocol timer on the local node at arena index `node`.
    Timer { node: u32, kind: TimerKind },
}

/// A cross-shard send in flight: everything the destination shard needs
/// to schedule the delivery, with the key already assigned by the sender.
struct CrossMsg {
    at: SimTime,
    key: u64,
    to_local: u32,
    from: NodeAddr,
    msg: ChordMsg,
}

/// One hosted node: the actor plus the per-node determinism state.
struct ShardNode<A> {
    addr: NodeAddr,
    actor: A,
    stats: LinkStats,
    /// Private RNG stream — every latency sample and loss coin this node's
    /// sends consume comes from here, in event order.
    rng: SmallRng,
    /// Private monotone counter — the high bits of every key this node
    /// assigns.
    ctr: u64,
    /// Dense global index (the low bits of every key).
    gidx: u32,
}

impl<A> ShardNode<A> {
    fn next_key(&mut self) -> u64 {
        let key = (self.ctr << IDX_BITS) | u64::from(self.gidx);
        self.ctr += 1;
        key
    }
}

/// Read-only engine parameters shared by every worker thread.
#[derive(Clone, Copy)]
struct Env<'a> {
    latency: LatencyModel,
    loss: LossModel,
    shards: usize,
    record_upcalls: bool,
    addr_to_gidx: &'a HashMap<NodeAddr, u32>,
}

/// One shard: a private event queue plus the nodes it owns. All mutation
/// during a run happens from exactly one worker thread.
struct Shard<A> {
    id: usize,
    queue: EventQueue<ShardEvent>,
    nodes: Vec<ShardNode<A>>,
    events: u64,
    dropped: u64,
    /// Upcalls tagged with the key drawn at emission time, so the merged
    /// fleet-wide order is `(at, key)` — deterministic for any shard count.
    upcalls: Vec<(u64, UpcallRecord)>,
}

impl<A: Actor> Shard<A> {
    /// Execute every pending event with `at < wend`. Local sends and
    /// timers go straight onto the private queue (and may fire within
    /// this same window); cross-shard sends accumulate in `cross` for the
    /// caller to flush after the window.
    fn run_window(&mut self, wend: u64, env: &Env<'_>, cross: &mut [Vec<CrossMsg>]) {
        while self.queue.peek_time().is_some_and(|t| t.0 < wend) {
            let Some(ev) = self.queue.pop() else {
                break;
            };
            self.events += 1;
            let at = ev.at;
            match ev.event {
                ShardEvent::Deliver { to, from, msg } => {
                    self.deliver(to, at, from, msg, env, cross);
                    // Batch drain: take the rest of this node's due inbox
                    // (consecutive head-of-queue deliveries at the same
                    // instant) without re-entering the pop machinery per
                    // message. Order-preserving: only exact head events
                    // are taken, and mid-batch outputs carry later keys.
                    loop {
                        let next = self.queue.pop_if(
                            |e| matches!(e, ShardEvent::Deliver { to: t2, .. } if *t2 == to),
                        );
                        let Some(next) = next else {
                            break;
                        };
                        self.events += 1;
                        let ShardEvent::Deliver { from, msg, .. } = next.event else {
                            break;
                        };
                        self.deliver(to, at, from, msg, env, cross);
                    }
                }
                ShardEvent::Timer { node, kind } => {
                    let n = &mut self.nodes[node as usize];
                    n.actor.set_now(at.as_millis());
                    let out = n.actor.on_input(Input::Timer(kind));
                    self.apply_outputs(node, at, out, env, cross);
                }
            }
        }
    }

    fn deliver(
        &mut self,
        to: u32,
        at: SimTime,
        from: NodeAddr,
        msg: ChordMsg,
        env: &Env<'_>,
        cross: &mut [Vec<CrossMsg>],
    ) {
        let n = &mut self.nodes[to as usize];
        n.stats.delivered += 1;
        n.actor.set_now(at.as_millis());
        let out = n.actor.on_input(Input::Message { from, msg });
        self.apply_outputs(to, at, out, env, cross);
    }

    /// Process one node's outputs. Every RNG draw and key assignment
    /// comes from the *sender's* private streams, in output order — the
    /// whole determinism contract reduces to this function being a pure
    /// function of (node state, outputs).
    fn apply_outputs(
        &mut self,
        sender: u32,
        at: SimTime,
        outputs: Vec<Output>,
        env: &Env<'_>,
        cross: &mut [Vec<CrossMsg>],
    ) {
        for o in outputs {
            match o {
                Output::Send { to, msg } => {
                    let n = &mut self.nodes[sender as usize];
                    n.stats.sent += 1;
                    if env.loss.drops(&mut n.rng) {
                        self.dropped += 1;
                        continue;
                    }
                    let delay = env.latency.sample(&mut n.rng);
                    let key = n.next_key();
                    let from = n.addr;
                    let Some(&gidx) = env.addr_to_gidx.get(&to.addr) else {
                        // Unknown destination (membership is static here);
                        // the coin, sample and key above are still drawn so
                        // the sender's streams do not depend on the lookup.
                        self.dropped += 1;
                        continue;
                    };
                    let deliver_at = at + delay;
                    let to_local = gidx / env.shards as u32;
                    let dst = (gidx as usize) % env.shards;
                    if dst == self.id {
                        self.queue.push_at_keyed(
                            deliver_at,
                            key,
                            ShardEvent::Deliver {
                                to: to_local,
                                from,
                                msg,
                            },
                        );
                    } else {
                        cross[dst].push(CrossMsg {
                            at: deliver_at,
                            key,
                            to_local,
                            from,
                            msg,
                        });
                    }
                }
                Output::SetTimer { kind, delay_ms } => {
                    let n = &mut self.nodes[sender as usize];
                    let key = n.next_key();
                    self.queue.push_at_keyed(
                        at + delay_ms,
                        key,
                        ShardEvent::Timer { node: sender, kind },
                    );
                }
                Output::Upcall(upcall) => {
                    if env.record_upcalls {
                        let n = &mut self.nodes[sender as usize];
                        let key = n.next_key();
                        let node = n.addr;
                        self.upcalls.push((key, UpcallRecord { at, node, upcall }));
                    }
                }
            }
        }
    }
}

/// The multi-core discrete-event engine. Same hosting surface as
/// [`crate::net::SimNet`] (minus fault injection): add actors, inject
/// outputs, run bounded windows of virtual time, read stats and upcalls.
pub struct ShardedNet<A: Actor> {
    shards: Vec<Shard<A>>,
    /// `S × S` mailboxes, indexed `src * S + dst`. Only the worker threads
    /// touch these, between the barriers of the round protocol.
    grid: Vec<Mutex<Vec<CrossMsg>>>,
    addr_to_gidx: HashMap<NodeAddr, u32>,
    /// Insertion order — node `i` here has global index `i`.
    addr_order: Vec<NodeAddr>,
    seed: u64,
    latency: LatencyModel,
    loss: LossModel,
    record_upcalls: bool,
    now: SimTime,
}

impl<A: Actor> ShardedNet<A> {
    /// A fresh engine with `shards` worker shards (`0` behaves as `1`).
    pub fn new(seed: u64, shards: usize) -> Self {
        let s = shards.max(1);
        ShardedNet {
            shards: (0..s)
                .map(|id| Shard {
                    id,
                    queue: EventQueue::new(),
                    nodes: Vec::new(),
                    events: 0,
                    dropped: 0,
                    upcalls: Vec::new(),
                })
                .collect(),
            grid: (0..s * s).map(|_| Mutex::new(Vec::new())).collect(),
            addr_to_gidx: HashMap::new(),
            addr_order: Vec::new(),
            seed,
            latency: LatencyModel::default(),
            loss: LossModel::NONE,
            record_upcalls: false,
            now: SimTime::ZERO,
        }
    }

    /// Number of shards (== worker threads during a run).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Replace the latency model (also sets the lookahead bound via
    /// [`LatencyModel::min_ms`]).
    pub fn set_latency(&mut self, model: LatencyModel) {
        self.latency = model;
    }

    /// Replace the loss model.
    pub fn set_loss(&mut self, model: LossModel) {
        self.loss = model;
    }

    /// Record upcalls for [`ShardedNet::take_upcalls`].
    pub fn set_record_upcalls(&mut self, on: bool) {
        self.record_upcalls = on;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Host an actor. Nodes are assigned dense global indices in insertion
    /// order and distributed round-robin across shards (`gidx % S`), so
    /// identical insertion sequences give identical per-node RNG streams
    /// for any shard count.
    pub fn add_node(&mut self, actor: A) {
        let gidx = self.addr_order.len() as u32;
        assert!(u64::from(gidx) < 1 << IDX_BITS, "node index overflows key");
        let addr = actor.addr();
        let prev = self.addr_to_gidx.insert(addr, gidx);
        assert!(prev.is_none(), "duplicate node address {addr:?}");
        self.addr_order.push(addr);
        let s = self.shards.len();
        self.shards[gidx as usize % s].nodes.push(ShardNode {
            addr,
            actor,
            stats: LinkStats::default(),
            rng: SmallRng::seed_from_u64(mix64(self.seed ^ mix64(u64::from(gidx)))),
            ctr: 0,
            gidx,
        });
    }

    /// Inject outputs on behalf of `from` (setup traffic: initial timers,
    /// seed messages). Runs on the caller's thread; cross-shard sends are
    /// routed immediately.
    pub fn apply(&mut self, from: NodeAddr, outputs: Vec<Output>) {
        let Some(&gidx) = self.addr_to_gidx.get(&from) else {
            return;
        };
        let s = self.shards.len();
        let env = Env {
            latency: self.latency,
            loss: self.loss,
            shards: s,
            record_upcalls: self.record_upcalls,
            addr_to_gidx: &self.addr_to_gidx,
        };
        let mut cross: Vec<Vec<CrossMsg>> = (0..s).map(|_| Vec::new()).collect();
        let now = self.now;
        let local = gidx / s as u32;
        self.shards[gidx as usize % s].apply_outputs(local, now, outputs, &env, &mut cross);
        for (dst, buf) in cross.into_iter().enumerate() {
            for m in buf {
                self.shards[dst].queue.push_at_keyed(
                    m.at,
                    m.key,
                    ShardEvent::Deliver {
                        to: m.to_local,
                        from: m.from,
                        msg: m.msg,
                    },
                );
            }
        }
    }

    /// Borrow a node's actor.
    pub fn node(&self, addr: NodeAddr) -> Option<&A> {
        let &gidx = self.addr_to_gidx.get(&addr)?;
        let s = self.shards.len();
        Some(&self.shards[gidx as usize % s].nodes[(gidx / s as u32) as usize].actor)
    }

    /// Mutably borrow a node's actor. Outputs produced while holding the
    /// borrow are not routed — prefer [`ShardedNet::with_node`].
    pub fn node_mut(&mut self, addr: NodeAddr) -> Option<&mut A> {
        let &gidx = self.addr_to_gidx.get(&addr)?;
        let s = self.shards.len();
        Some(&mut self.shards[gidx as usize % s].nodes[(gidx / s as u32) as usize].actor)
    }

    /// Run `f` against a node and route the outputs it returns.
    pub fn with_node<F, R>(&mut self, addr: NodeAddr, f: F) -> Option<R>
    where
        F: FnOnce(&mut A) -> (R, Vec<Output>),
    {
        let actor = self.node_mut(addr)?;
        let (r, out) = f(actor);
        self.apply(addr, out);
        Some(r)
    }

    /// All hosted addresses, in insertion (global index) order.
    pub fn addrs(&self) -> Vec<NodeAddr> {
        self.addr_order.clone()
    }

    /// Transport counters for one node.
    pub fn link_stats(&self, addr: NodeAddr) -> LinkStats {
        let s = self.shards.len();
        match self.addr_to_gidx.get(&addr) {
            Some(&gidx) => self.shards[gidx as usize % s].nodes[(gidx / s as u32) as usize].stats,
            None => LinkStats::default(),
        }
    }

    /// Total events executed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }

    /// Messages dropped (loss model or unknown destination).
    pub fn dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped).sum()
    }

    /// Events still pending across all shard queues.
    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Events scheduled in the past and clamped (always 0 under the
    /// conservative window protocol; exported so a violation is visible).
    pub fn clamped_events(&self) -> u64 {
        self.shards.iter().map(|s| s.queue.clamped_events()).sum()
    }

    /// Drain recorded upcalls, merged into the deterministic `(at, key)`
    /// order — identical for any shard count.
    pub fn take_upcalls(&mut self) -> Vec<UpcallRecord> {
        let mut all: Vec<(u64, UpcallRecord)> = Vec::new();
        for sh in &mut self.shards {
            all.append(&mut sh.upcalls);
        }
        all.sort_by_key(|(key, rec)| (rec.at, *key));
        all.into_iter().map(|(_, rec)| rec).collect()
    }

    /// Run for `ms` more virtual milliseconds.
    pub fn run_for(&mut self, ms: u64) {
        let deadline = self.now + ms;
        self.run_until(deadline);
    }

    /// Run until virtual time reaches `t` (events at exactly `t`
    /// included), spawning one worker thread per shard when `S > 1`.
    pub fn run_until(&mut self, t: SimTime) {
        let deadline = t.0;
        let lookahead = self.latency.min_ms();
        let s = self.shards.len();
        let env = Env {
            latency: self.latency,
            loss: self.loss,
            shards: s,
            record_upcalls: self.record_upcalls,
            addr_to_gidx: &self.addr_to_gidx,
        };
        if s == 1 {
            // Single shard: the window protocol degenerates to "run
            // everything due" — no threads, no barriers, no mailboxes.
            let mut cross: Vec<Vec<CrossMsg>> = vec![Vec::new()];
            self.shards[0].run_window(deadline.saturating_add(1), &env, &mut cross);
            debug_assert!(cross[0].is_empty(), "self-send routed cross-shard");
        } else {
            let grid = &self.grid;
            let barrier = Barrier::new(s);
            let mins = [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)];
            std::thread::scope(|scope| {
                for shard in self.shards.iter_mut() {
                    let barrier = &barrier;
                    let mins = &mins;
                    scope.spawn(move || {
                        let mut cross: Vec<Vec<CrossMsg>> = (0..s).map(|_| Vec::new()).collect();
                        let mut round = 0usize;
                        loop {
                            // Drain inbound mailboxes. Barrier B of the
                            // previous round guarantees every message sent
                            // in that round is already here, so the local
                            // minimum below is exact.
                            for src in 0..s {
                                let mut cell = grid[src * s + shard.id].lock();
                                for m in cell.drain(..) {
                                    shard.queue.push_at_keyed(
                                        m.at,
                                        m.key,
                                        ShardEvent::Deliver {
                                            to: m.to_local,
                                            from: m.from,
                                            msg: m.msg,
                                        },
                                    );
                                }
                            }
                            let local_min = shard.queue.peek_time().map_or(u64::MAX, |t| t.0);
                            let p = round & 1;
                            mins[p].fetch_min(local_min, Ordering::AcqRel);
                            barrier.wait(); // A: all minima published
                            let gmin = mins[p].load(Ordering::Acquire);
                            if gmin > deadline {
                                // Uniform exit: every thread reads the same
                                // gmin in the same round, after draining,
                                // having flushed nothing since — so all
                                // mailboxes are empty and every event
                                // ≤ deadline has been executed.
                                break;
                            }
                            let wend = gmin
                                .saturating_add(lookahead)
                                .min(deadline.saturating_add(1));
                            shard.run_window(wend, &env, &mut cross);
                            for (dst, buf) in cross.iter_mut().enumerate() {
                                if !buf.is_empty() {
                                    grid[shard.id * s + dst].lock().append(buf);
                                }
                            }
                            if shard.id == 0 {
                                // Reset the *other* parity slot for the
                                // round after next; everyone is past its
                                // last read (barrier A) and before its next
                                // write (barrier B).
                                mins[1 - p].store(u64::MAX, Ordering::Release);
                            }
                            barrier.wait(); // B: all sends flushed
                            round += 1;
                        }
                    });
                }
            });
            debug_assert!(
                self.grid.iter().all(|c| c.lock().is_empty()),
                "cross-shard mailboxes not drained at exit"
            );
        }
        // Land exactly on the deadline so that back-to-back bounded runs
        // cover contiguous, exact windows.
        for shard in &mut self.shards {
            shard.queue.advance_to(t);
        }
        self.now = t;
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
