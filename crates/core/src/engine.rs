//! The protocol-stack engine: one overlay node, many aggregation services.
//!
//! The paper's prototype layers every service — DAT continuous aggregation,
//! on-demand queries, MAAN discovery — over a *single* Chord substrate
//! (§4). This module is that hosting layer. A [`StackNode`] owns one
//! [`ChordNode`] (one finger table, one RTO estimator, one stabilization
//! schedule) and dispatches its upcalls to any number of registered
//! [`AppProtocol`] handlers, demultiplexed by their 1-byte protocol
//! discriminator:
//!
//! | proto byte | protocol | crate |
//! |-----------:|----------|-------|
//! | 1 | DAT aggregation ([`crate::codec::DAT_PROTO`]) | `dat-core` |
//! | 2 | explicit-tree baseline ([`crate::explicit::EXPLICIT_PROTO`]) | `dat-core` |
//! | 3 | gossip baseline ([`crate::gossip::GOSSIP_PROTO`]) | `dat-core` |
//! | 4 | MAAN discovery (`dat_maan::proto::MAAN_PROTO`) | `dat-maan` |
//!
//! Handlers never see the Chord node directly; they act through a [`Ctx`]
//! that scopes sends and wake-ups to their own proto byte. Three properties
//! fall out of the design:
//!
//! * **Transparency** — a `StackNode` with no handlers behaves exactly like
//!   a bare `ChordNode`: every upcall and output passes through untouched.
//!   Transports therefore host *only* `StackNode`s (the one [`Actor`] impl
//!   in the workspace).
//! * **Timer isolation** — a handler keeps its deadlines in its own state
//!   and asks to be woken at the earliest ([`Ctx::wake_at`]). Its pending
//!   wakes are its own (the token carries its proto byte and the due
//!   time), so one handler's wake never covers, steals or fires another's.
//! * **One clock** — the engine owns `now_ms` and forwards it to the Chord
//!   layer exactly once per [`StackNode::set_now`]; handlers read the clock
//!   from [`Ctx::now_ms`], so no handler can observe a stale clock no
//!   matter how many protocols are stacked.
//!
//! Routed (rendezvous-keyed) payloads are engine-tagged: [`Ctx::route`]
//! prepends the handler's proto byte, and the engine strips it again when
//! the `Routed` upcall surfaces at the key's owner. Untagged payloads (or
//! tags without a registered handler) pass through to the host unchanged.

use std::any::Any;
use std::collections::{HashMap, VecDeque};

use dat_chord::{
    Actor, ChordConfig, ChordNode, FingerTable, Id, IdSpace, Input, Metrics, NodeAddr, NodeRef,
    NodeStatus, Output, ReqId, SuspicionLevel, TimerKind, Upcall,
};
use dat_obs::{Event, Key, Registry};

/// Human-readable layer label for a proto byte (metric `layer` label).
pub fn proto_label(proto: u8) -> &'static str {
    match proto {
        1 => "dat",
        2 => "explicit",
        3 => "gossip",
        4 => "maan",
        _ => "app",
    }
}

/// Bit position of the proto byte inside a `TimerKind::App` token.
const PROTO_SHIFT: u32 = 56;
/// Mask of the due-time bits of a `TimerKind::App` token.
const DUE_MASK: u64 = (1 << PROTO_SHIFT) - 1;

/// Backpressure policy for the engine's per-node inbox.
///
/// The engine processes messages synchronously, so "queueing" is modelled
/// in virtual time: every admitted application payload advances a
/// busy-until horizon by [`InboxPolicy::service_ms`], and the backlog is
/// how many service slots the horizon sits ahead of the clock. Once the
/// backlog exceeds a class's capacity, further arrivals of that class are
/// *shed* (dropped and counted) instead of processed — an overloaded node
/// degrades loudly rather than stalling its whole subtree.
///
/// Priorities are expressed as capacities: Chord control traffic never
/// passes through the inbox at all (it is what keeps the ring alive), the
/// aggregation class gets `AGG_CAPACITY` (64 slots), and stats serving
/// gets the smaller `STATS_CAPACITY` (8) — so under pressure the order of
/// sacrifice is stats first, aggregation second, control never.
///
/// The default `service_ms = 0` disables the model entirely: the inbox is
/// unbounded and nothing is ever shed (the pre-health-plane behavior).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InboxPolicy {
    /// Virtual service time per application payload (0 = unbounded inbox).
    pub service_ms: u64,
}

/// Backlog (in service slots) above which aggregation-class payloads
/// (`AppMessage` / engine-tagged `Routed`) are shed.
const AGG_CAPACITY: u64 = 64;
/// Backlog above which incoming stats requests are shed (answered never,
/// not late). Below `AGG_CAPACITY`: stats are diagnostics.
const STATS_CAPACITY: u64 = 8;

// Scoring of undecodable frames (`Input::BadFrame`).
//
// A lossy WAN produces the odd mangled datagram even from honest peers,
// so one bad frame is noise; a *burst* from one peer is a poisoned link
// or a hostile sender. The engine counts bad frames per source address
// inside a sliding window, and when a window accumulates
// `BAD_FRAME_THRESHOLD` frames the peer is reported to the shared failure
// detector as a hard miss (forced Suspect). Repeated episodes then ride
// the detector's existing flap damping into a bounded-length quarantine —
// the same machinery that contains flapping-slow peers contains
// wire-poisoning ones. The per-peer table is bounded at
// `BAD_FRAME_MAX_TRACKED` entries (stalest window evicted first) so a
// spray of spoofed source addresses cannot grow node memory.

/// Sliding window (engine ms) over which bad frames from one peer
/// accumulate toward the threshold.
const BAD_FRAME_WINDOW_MS: u64 = 10_000;
/// Bad frames inside one window that force the peer Suspect.
const BAD_FRAME_THRESHOLD: u32 = 3;
/// Upper bound on concurrently tracked source addresses.
const BAD_FRAME_MAX_TRACKED: usize = 64;

/// Admit one payload of a class with the given backlog capacity, advancing
/// the shared busy horizon on admission.
fn inbox_admit(policy: &InboxPolicy, busy_until_ms: &mut u64, now_ms: u64, capacity: u64) -> bool {
    if policy.service_ms == 0 {
        return true;
    }
    let backlog = busy_until_ms.saturating_sub(now_ms) / policy.service_ms;
    if backlog >= capacity {
        return false;
    }
    *busy_until_ms = (*busy_until_ms).max(now_ms) + policy.service_ms;
    true
}

/// The engine-side context handed to every [`AppProtocol`] callback.
///
/// Wraps the shared Chord node, the engine clock, and the output queue.
/// All sends and wake-ups are scoped to the handler's proto byte.
pub struct Ctx<'a> {
    chord: &'a mut ChordNode,
    queue: &'a mut VecDeque<Output>,
    slot: &'a mut Slot,
    proto: u8,
    now_ms: u64,
}

impl Ctx<'_> {
    /// This node's reference.
    pub fn me(&self) -> NodeRef {
        self.chord.me()
    }

    /// The identifier space.
    pub fn space(&self) -> IdSpace {
        self.chord.space()
    }

    /// The live finger table.
    pub fn table(&self) -> &FingerTable {
        self.chord.table()
    }

    /// Lifecycle status of the shared Chord node.
    pub fn status(&self) -> NodeStatus {
        self.chord.status()
    }

    /// Whether this node currently owns `key`.
    pub fn owns(&self, key: Id) -> bool {
        self.chord.owns(key)
    }

    /// The first `k` distinct successors (replication targets — the nodes
    /// that would take over this node's keys if it crashed).
    pub fn successors(&self, k: usize) -> Vec<NodeRef> {
        self.chord.successors(k)
    }

    /// The engine clock (monotonic ms), identical for every stacked
    /// protocol on this node.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Send an application payload directly to `to`, tagged with this
    /// handler's proto byte.
    pub fn send(&mut self, to: NodeRef, payload: Vec<u8>) {
        self.slot.sent += 1;
        let out = self.chord.send_app(to, self.proto, payload);
        self.queue.push_back(out);
    }

    /// Route an application payload to the owner of `key`. The engine
    /// prepends this handler's proto byte so the owner's engine can
    /// dispatch the payload back to the same protocol.
    pub fn route(&mut self, key: Id, payload: Vec<u8>) {
        self.slot.sent += 1;
        let mut tagged = Vec::with_capacity(payload.len() + 1);
        tagged.push(self.proto);
        tagged.extend_from_slice(&payload);
        let outs = self.chord.route(key, tagged);
        self.queue.extend(outs);
    }

    /// [`Ctx::send`] that also probes `to`'s liveness: the payload rides a
    /// `ProbedApp` frame that `to` answers with a `Pong`, and silence runs
    /// the Chord ping machinery (retries as plain pings, the shared RTO
    /// estimator and failure detector, eviction on timeout).
    pub fn send_probed(&mut self, to: NodeRef, payload: Vec<u8>) {
        self.slot.sent += 1;
        let outs = self.chord.send_app_probed(to, self.proto, payload);
        self.queue.extend(outs);
    }

    /// Evaluate a peer's suspicion level via the shared phi-accrual
    /// failure detector (see `dat_chord::health`). Evaluation advances the
    /// detector's state machine — silence alone can raise suspicion.
    pub fn suspicion(&mut self, peer: Id) -> SuspicionLevel {
        self.chord.suspicion(peer)
    }

    /// The raw phi value for a peer (diagnostics; prefer
    /// [`Ctx::suspicion`] for decisions).
    pub fn phi(&self, peer: Id) -> f64 {
        self.chord.health().phi(peer, self.now_ms)
    }

    /// Proactively evict a suspect peer from the shared routing table,
    /// before any request to it times out. The resulting
    /// `NeighborhoodChanged` upcall flows through the engine queue, so
    /// every stacked handler observes the change.
    pub fn evict_suspect(&mut self, target: NodeRef) {
        let outs = self.chord.evict_suspect(target);
        self.queue.extend(outs);
    }

    /// Ask for [`AppProtocol::on_wake`] at engine time `due_ms` or soon
    /// after. A timer is armed only when none of this handler's pending
    /// wakes comes at or before `due_ms`: that one covers it, and the
    /// handler asks again for whatever is left when it wakes.
    pub fn wake_at(&mut self, due_ms: u64) {
        debug_assert!(due_ms <= DUE_MASK, "wake due {due_ms} overflows");
        if self.slot.wakes.iter().any(|&w| w <= due_ms) {
            return;
        }
        self.slot.wakes.push(due_ms);
        self.queue.push_back(Output::SetTimer {
            kind: TimerKind::App(((self.proto as u64) << PROTO_SHIFT) | (due_ms & DUE_MASK)),
            delay_ms: due_ms.saturating_sub(self.now_ms),
        });
    }
}

/// One application protocol hosted on a [`StackNode`].
///
/// Implementations are pure state machines: they hold their own protocol
/// state (aggregation tables, query registries, stores …) and act on the
/// overlay only through the [`Ctx`] passed to each callback. A handler is
/// identified by its [`AppProtocol::proto`] byte, which keys message,
/// routed-payload and wake-up dispatch.
pub trait AppProtocol: Send + 'static {
    /// The 1-byte protocol discriminator (must be unique per node).
    fn proto(&self) -> u8;

    /// The shared Chord node became active (create, join, or table
    /// preload). Ask for the first wake-up here.
    fn on_start(&mut self, _cx: &mut Ctx<'_>) {}

    /// A directly-addressed application message with this handler's proto
    /// byte arrived.
    fn on_message(&mut self, cx: &mut Ctx<'_>, from: NodeRef, payload: &[u8]);

    /// A wake this handler asked for ([`Ctx::wake_at`]) came due. Do what
    /// is due by [`Ctx::now_ms`], then ask to wake at the earliest deadline
    /// left. A wake another one superseded finds nothing due.
    fn on_wake(&mut self, _cx: &mut Ctx<'_>) {}

    /// A rendezvous-routed payload tagged with this handler's proto byte
    /// reached this node (the owner of `key`).
    fn on_routed(&mut self, _cx: &mut Ctx<'_>, _key: Id, _origin: NodeRef, _payload: &[u8]) {}

    /// The Chord neighborhood (successor/predecessor) changed.
    fn on_neighborhood_changed(&mut self, _cx: &mut Ctx<'_>) {}

    /// The node is about to leave the ring gracefully; send goodbyes.
    fn on_leave(&mut self, _cx: &mut Ctx<'_>) {}

    /// Reset this handler's own counters (called by
    /// [`StackNode::reset_metrics`], e.g. after an experiment's warm-up).
    fn reset_metrics(&mut self) {}

    /// This handler's metrics/tracer shim, if it keeps one. Handlers that
    /// return `Some` are folded into [`StackNode::obs_registry`] under
    /// their proto's layer label.
    fn metrics(&self) -> Option<&Metrics> {
        None
    }

    /// Upcast for typed access via [`StackNode::app`].
    fn as_any(&self) -> &dyn Any;

    /// Upcast for typed access via [`StackNode::app_mut`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// What the engine keeps per registered handler: application payloads
/// sent, dispatched and shed under its proto byte, and the due times of
/// its wake timers armed and not yet fired (a handful at most: a wake is
/// armed only ahead of every pending one).
#[derive(Debug, Default)]
struct Slot {
    sent: u64,
    received: u64,
    shed: u64,
    wakes: Vec<u64>,
}

/// A protocol-stack node: one shared [`ChordNode`] plus any number of
/// [`AppProtocol`] handlers, multiplexed by proto byte.
///
/// This is the only [`Actor`] implementation in the workspace — both the
/// simulator and the UDP cluster host `StackNode`s exclusively, whether a
/// node runs zero protocols (bare overlay) or several concurrently.
pub struct StackNode {
    chord: ChordNode,
    handlers: Vec<Box<dyn AppProtocol>>,
    /// Per-handler tallies and pending wakes, parallel to `handlers`.
    slots: Vec<Slot>,
    now_ms: u64,
    /// Backpressure model for application payloads (default: unbounded).
    inbox: InboxPolicy,
    /// Virtual-time horizon up to which the inbox is busy serving
    /// already-admitted payloads.
    inbox_busy_until_ms: u64,
    /// Stats requests shed (lowest priority class).
    stats_shed: u64,
    /// Undecodable frames seen, by [`dat_chord::wire::ERROR_KINDS`] index.
    bad_frames_by_kind: [u64; dat_chord::wire::ERROR_KINDS.len()],
    /// Per-source sliding window: (window start, bad frames in window).
    bad_peer_window: HashMap<NodeAddr, (u64, u32)>,
    /// Bad-frame bursts that escalated into a failure-detector miss.
    bad_frame_suspects: u64,
}

impl StackNode {
    /// A fresh node with no application protocols.
    pub fn new(cfg: ChordConfig, id: Id, addr: NodeAddr) -> Self {
        Self::from_chord(ChordNode::new(cfg, id, addr))
    }

    /// Wrap an existing Chord node (e.g. one pre-loaded with a stabilized
    /// table by an experiment harness).
    pub fn from_chord(chord: ChordNode) -> Self {
        StackNode {
            chord,
            handlers: Vec::new(),
            slots: Vec::new(),
            now_ms: 0,
            inbox: InboxPolicy::default(),
            inbox_busy_until_ms: 0,
            stats_shed: 0,
            bad_frames_by_kind: [0; dat_chord::wire::ERROR_KINDS.len()],
            bad_peer_window: HashMap::new(),
            bad_frame_suspects: 0,
        }
    }

    /// Undecodable frames seen so far, all error kinds summed.
    pub fn bad_frames_total(&self) -> u64 {
        self.bad_frames_by_kind.iter().sum()
    }

    /// Undecodable frames of one error kind (a
    /// [`dat_chord::wire::ERROR_KINDS`] label); unknown labels read 0.
    pub fn bad_frame_count(&self, kind: &str) -> u64 {
        dat_chord::wire::ERROR_KINDS
            .iter()
            .position(|&k| k == kind)
            .map(|i| self.bad_frames_by_kind[i])
            .unwrap_or(0)
    }

    /// Bad-frame bursts that escalated into a forced-Suspect report
    /// against a resolved peer.
    pub fn bad_frame_suspects(&self) -> u64 {
        self.bad_frame_suspects
    }

    /// Source addresses currently tracked by the bad-frame scorer (always
    /// ≤ 64).
    pub fn bad_peers_tracked(&self) -> usize {
        self.bad_peer_window.len()
    }

    /// Install or change the bounded-inbox policy. See [`InboxPolicy`].
    pub fn set_inbox_policy(&mut self, policy: InboxPolicy) {
        self.inbox = policy;
    }

    /// `proto`'s handler's tally `f` (0 when none is registered).
    fn tally(&self, proto: u8, f: impl Fn(&Slot) -> u64) -> u64 {
        slot_of(&self.handlers, proto).map_or(0, |i| f(&self.slots[i]))
    }

    /// Aggregation-class payloads shed so far for `proto`.
    pub fn shed_count(&self, proto: u8) -> u64 {
        self.tally(proto, |s| s.shed)
    }

    /// Stats requests shed so far.
    pub fn stats_shed_count(&self) -> u64 {
        self.stats_shed
    }

    /// Register an application protocol (builder style). Panics if the
    /// proto byte is already taken on this node.
    pub fn with_app(mut self, handler: impl AppProtocol) -> Self {
        let p = handler.proto();
        assert!(
            self.handlers.iter().all(|h| h.proto() != p),
            "proto byte {p} already registered on this StackNode"
        );
        self.handlers.push(Box::new(handler));
        self.slots.push(Slot::default());
        self
    }

    /// The underlying Chord node (read-only).
    pub fn chord(&self) -> &ChordNode {
        &self.chord
    }

    /// Replace the shared failure detector's tuning (phi threshold, flap
    /// damping, quarantine length). One detector serves every stacked
    /// protocol on this node.
    pub fn set_health_config(&mut self, cfg: dat_chord::HealthConfig) {
        *self.chord.health_mut().config_mut() = cfg;
    }

    /// This node's reference.
    pub fn me(&self) -> NodeRef {
        self.chord.me()
    }

    /// Lifecycle status of the shared Chord node.
    pub fn status(&self) -> NodeStatus {
        self.chord.status()
    }

    /// The live finger table.
    pub fn table(&self) -> &FingerTable {
        self.chord.table()
    }

    /// The identifier space.
    pub fn space(&self) -> IdSpace {
        self.chord.space()
    }

    /// Whether this node currently owns `key`.
    pub fn owns(&self, key: Id) -> bool {
        self.chord.owns(key)
    }

    /// Proto bytes of the registered handlers, in registration order.
    pub fn protocols(&self) -> Vec<u8> {
        self.handlers.iter().map(|h| h.proto()).collect()
    }

    /// Whether a handler for `proto` is registered.
    pub fn hosts(&self, proto: u8) -> bool {
        self.handlers.iter().any(|h| h.proto() == proto)
    }

    /// Application messages sent so far, attributed to `proto` (counts
    /// `ChordMsg::App` sends; engine-tagged routed payloads are counted at
    /// the receiver instead, since routing hops are Chord traffic).
    pub fn proto_sent(&self, proto: u8) -> u64 {
        self.tally(proto, |s| s.sent)
    }

    /// Application payloads received and dispatched to `proto`'s handler
    /// (direct messages and engine-tagged routed payloads).
    pub fn proto_received(&self, proto: u8) -> u64 {
        self.tally(proto, |s| s.received)
    }

    /// Reset every counter on this node: the Chord-layer metrics, the
    /// per-proto tallies, and each handler's own metrics (e.g. after an
    /// experiment's warm-up phase, so steady state is measured alone).
    pub fn reset_metrics(&mut self) {
        self.chord.metrics_mut().reset();
        for s in &mut self.slots {
            (s.sent, s.received, s.shed) = (0, 0, 0);
        }
        self.stats_shed = 0;
        self.bad_frames_by_kind = [0; dat_chord::wire::ERROR_KINDS.len()];
        self.bad_peer_window.clear();
        self.bad_frame_suspects = 0;
        let health = self.chord.health_mut();
        health.suspects = 0;
        health.quarantines = 0;
        health.rejoins = 0;
        for h in &mut self.handlers {
            h.reset_metrics();
        }
    }

    /// Chord-layer message counters (alias for `chord().metrics()`).
    pub fn chord_metrics(&self) -> &Metrics {
        self.chord.metrics()
    }

    /// One merged observability registry for this node: the Chord layer's
    /// metrics stamped `layer="chord"`, each handler's metrics stamped with
    /// its proto label ([`proto_label`]), plus the engine's own per-proto
    /// payload tallies as `engine_sent_total` / `engine_received_total`.
    ///
    /// Snapshots from many nodes merge associatively
    /// ([`Registry::merge`]) into fleet-wide totals and percentiles.
    pub fn obs_registry(&self) -> Registry {
        let mut reg = Registry::default();
        self.chord.metrics().export_into(&mut reg, "chord");
        for h in &self.handlers {
            if let Some(m) = h.metrics() {
                m.export_into(&mut reg, proto_label(h.proto()));
            }
        }
        // Sent / received series appear with their first payload; shed
        // counters exist (at zero) for every registered handler and for
        // the stats class, so the series are visible before the first
        // shed; health-plane counters come from the shared detector.
        for (h, t) in self.handlers.iter().zip(&self.slots) {
            let stamped = |name| Key::new(name).label("layer", proto_label(h.proto()));
            if t.sent > 0 {
                reg.counter_add(stamped("engine_sent_total"), t.sent);
            }
            if t.received > 0 {
                reg.counter_add(stamped("engine_received_total"), t.received);
            }
            reg.counter_add(stamped("engine_shed_total"), t.shed);
        }
        reg.counter_add(
            Key::new("engine_shed_total").label("layer", "stats"),
            self.stats_shed,
        );
        let health = self.chord.health();
        reg.counter_add(
            Key::new("suspects_total").label("layer", "chord"),
            health.suspects,
        );
        reg.counter_add(
            Key::new("quarantines_total").label("layer", "chord"),
            health.quarantines,
        );
        reg.counter_add(
            Key::new("rejoins_total").label("layer", "chord"),
            health.rejoins,
        );
        // The full decode-error taxonomy is pre-registered at zero, so a
        // clean wire still exports every kind and fleet merges line up.
        for (i, &kind) in dat_chord::wire::ERROR_KINDS.iter().enumerate() {
            reg.counter_add(
                Key::new("bad_frames_total").label("kind", kind),
                self.bad_frames_by_kind[i],
            );
        }
        reg.counter_add(
            Key::new("bad_frame_suspects_total").label("layer", "chord"),
            self.bad_frame_suspects,
        );
        reg
    }

    /// Ask `target` for its observability snapshot over the wire. The
    /// remote stack answers with its merged Prometheus dump; the reply
    /// surfaces here as `Upcall::StatsReceived`. Fire-and-forget, like the
    /// underlying [`ChordNode::request_stats`].
    pub fn request_stats(&mut self, target: NodeRef) -> (ReqId, Vec<Output>) {
        let (req, outs) = self.chord.request_stats(target);
        (req, self.dispatch(outs))
    }

    /// Prometheus text exposition of [`StackNode::obs_registry`]. Served
    /// over the wire in reply to `ChordMsg::StatsRequest`.
    pub fn render_prometheus(&self) -> String {
        self.obs_registry().render_prometheus()
    }

    /// Every buffered trace event on this node: the Chord layer's tracer
    /// followed by each handler's, in registration order. Feed these —
    /// paired with this node's id — to `EpochTrace::assemble` or
    /// `digest_events`.
    pub fn trace_events(&self) -> Vec<Event> {
        let mut ev: Vec<Event> = self.chord.metrics().tracer().events().collect();
        for h in &self.handlers {
            if let Some(m) = h.metrics() {
                ev.extend(m.tracer().events());
            }
        }
        ev
    }

    /// Typed read access to a registered handler, if present.
    pub fn try_app<P: AppProtocol>(&self) -> Option<&P> {
        self.handlers
            .iter()
            .find_map(|h| h.as_any().downcast_ref::<P>())
    }

    /// Typed mutable access to a registered handler, if present.
    pub fn try_app_mut<P: AppProtocol>(&mut self) -> Option<&mut P> {
        self.handlers
            .iter_mut()
            .find_map(|h| h.as_any_mut().downcast_mut::<P>())
    }

    /// Typed read access to a registered handler; panics if absent.
    pub fn app<P: AppProtocol>(&self) -> &P {
        self.try_app()
            .expect("protocol not registered on this StackNode")
    }

    /// Typed mutable access to a registered handler; panics if absent.
    pub fn app_mut<P: AppProtocol>(&mut self) -> &mut P {
        self.try_app_mut()
            .expect("protocol not registered on this StackNode")
    }

    /// Run a closure against a registered handler *with engine context* —
    /// the entry point for application-initiated actions that must emit
    /// outputs (queries, registrations, probes). Outputs the closure
    /// produces through [`Ctx`] are dispatched like any other batch; the
    /// remainder is returned for the transport.
    ///
    /// Panics if `P` is not registered.
    pub fn drive<P: AppProtocol, R>(
        &mut self,
        f: impl FnOnce(&mut P, &mut Ctx<'_>) -> R,
    ) -> (R, Vec<Output>) {
        let StackNode {
            chord,
            handlers,
            slots,
            now_ms,
            ..
        } = self;
        let now = *now_ms;
        let mut queue = VecDeque::new();
        let mut result = None;
        let mut f = Some(f);
        for (h, slot) in handlers.iter_mut().zip(slots.iter_mut()) {
            let proto = h.proto();
            if let Some(p) = h.as_any_mut().downcast_mut::<P>() {
                let mut cx = Ctx {
                    chord: &mut *chord,
                    queue: &mut queue,
                    slot,
                    proto,
                    now_ms: now,
                };
                result = Some((f.take().unwrap())(p, &mut cx));
                break;
            }
        }
        let r = result.expect("protocol not registered on this StackNode");
        let outs = self.dispatch(queue.into_iter().collect());
        (r, outs)
    }

    /// Advance the engine clock. Forwarded to the Chord layer exactly once;
    /// handlers observe the same value via [`Ctx::now_ms`].
    pub fn set_now(&mut self, now_ms: u64) {
        self.now_ms = self.now_ms.max(now_ms);
        self.chord.set_now(now_ms);
    }

    /// Start as the first ring member.
    pub fn start_create(&mut self) -> Vec<Output> {
        let outs = self.chord.start_create();
        self.dispatch(outs)
    }

    /// Join through `bootstrap`.
    pub fn start_join(&mut self, bootstrap: NodeRef) -> Vec<Output> {
        let outs = self.chord.start_join(bootstrap);
        self.dispatch(outs)
    }

    /// Start with a pre-materialised routing table (see
    /// [`ChordNode::start_with_table`]); used by experiment harnesses.
    pub fn start_with_table(&mut self, table: FingerTable) -> Vec<Output> {
        let outs = self.chord.start_with_table(table);
        self.dispatch(outs)
    }

    /// Gracefully leave the ring. Handlers say goodbye first (e.g. the
    /// explicit tree detaches from its parent), then the Chord layer hands
    /// off its key range.
    pub fn leave(&mut self) -> Vec<Output> {
        let StackNode {
            chord,
            handlers,
            slots,
            now_ms,
            ..
        } = self;
        let mut queue = VecDeque::new();
        for (h, slot) in handlers.iter_mut().zip(slots.iter_mut()) {
            let proto = h.proto();
            let mut cx = Ctx {
                chord: &mut *chord,
                queue: &mut queue,
                slot,
                proto,
                now_ms: *now_ms,
            };
            h.on_leave(&mut cx);
        }
        queue.extend(chord.leave());
        let all: Vec<Output> = queue.into_iter().collect();
        self.dispatch(all)
    }

    /// Start a Chord key lookup (host-level; answers arrive as
    /// `Upcall::LookupDone`).
    pub fn lookup(&mut self, key: Id) -> (ReqId, Vec<Output>) {
        let (req, outs) = self.chord.lookup(key);
        (req, self.dispatch(outs))
    }

    /// Route a raw host-level payload to the owner of `key`. The payload is
    /// *not* proto-tagged; it surfaces at the owner as a pass-through
    /// `Upcall::Routed` (unless its first byte collides with a registered
    /// proto byte — prefer [`Ctx::route`] from inside a handler).
    pub fn route(&mut self, key: Id, payload: Vec<u8>) -> Vec<Output> {
        let outs = self.chord.route(key, payload);
        self.dispatch(outs)
    }

    /// Drive one input through the stack.
    ///
    /// Stats requests are answered here rather than in the Chord layer: a
    /// bare `ChordNode` only surfaces `Upcall::StatsRequested`, while the
    /// stack consumes that upcall and replies with its merged
    /// [`StackNode::render_prometheus`] dump (the one engine-level service
    /// that does not pass through transparently).
    pub fn handle(&mut self, input: Input) -> Vec<Output> {
        if let Input::BadFrame { from, error } = input {
            self.on_bad_frame(from, error);
            return Vec::new();
        }
        let mut outs = self.chord.handle(input);
        let mut stats: Vec<(ReqId, NodeRef)> = Vec::new();
        outs.retain(|o| match o {
            Output::Upcall(Upcall::StatsRequested { req, from }) => {
                stats.push((*req, *from));
                false
            }
            _ => true,
        });
        for (req, from) in stats {
            // Stats are the lowest-priority class: under backlog they are
            // shed outright (never answered late) so aggregation and
            // control keep the remaining capacity.
            if !inbox_admit(
                &self.inbox,
                &mut self.inbox_busy_until_ms,
                self.now_ms,
                STATS_CAPACITY,
            ) {
                self.stats_shed += 1;
                continue;
            }
            let text = self.render_prometheus().into_bytes();
            outs.push(self.chord.reply_stats(from, req, text));
        }
        self.dispatch(outs)
    }

    /// Score one undecodable frame: count it by error kind, advance the
    /// source's sliding window, and when the window crosses the threshold
    /// report the resolved peer to the failure detector as a hard miss
    /// (forced Suspect — repeat episodes quarantine via flap damping).
    fn on_bad_frame(&mut self, from: Option<NodeAddr>, error: dat_chord::wire::CodecError) {
        self.bad_frames_by_kind[error.kind_index()] += 1;
        let Some(addr) = from else {
            // Unattributable garbage: counted, nobody to score.
            return;
        };
        let now = self.now_ms;
        if !self.bad_peer_window.contains_key(&addr)
            && self.bad_peer_window.len() >= BAD_FRAME_MAX_TRACKED
        {
            // Bounded table: evict the stalest window so spoofed source
            // sprays cannot grow node memory.
            if let Some(stale) = self
                .bad_peer_window
                .iter()
                .min_by_key(|(a, (start, _))| (*start, a.0))
                .map(|(a, _)| *a)
            {
                self.bad_peer_window.remove(&stale);
            }
        }
        let entry = self.bad_peer_window.entry(addr).or_insert((now, 0));
        if now.saturating_sub(entry.0) > BAD_FRAME_WINDOW_MS {
            *entry = (now, 0);
        }
        entry.1 += 1;
        if entry.1 >= BAD_FRAME_THRESHOLD {
            // Reset the window so the *next* burst escalates again — each
            // escalation is one Suspect episode, and it is the episode
            // cadence the detector's flap damping turns into quarantine.
            *entry = (now, 0);
            if let Some(peer) = self.chord.suspect_addr(addr) {
                self.bad_frame_suspects += 1;
                self.chord.metrics_mut().trace(
                    now,
                    0,
                    dat_obs::EventKind::Poisoned { node: peer.id.0 },
                );
            }
        }
    }

    /// Intercept chord outputs: dispatch upcalls to the matching handlers,
    /// tally per-proto traffic, pass everything else through.
    fn dispatch(&mut self, outs: Vec<Output>) -> Vec<Output> {
        let StackNode {
            chord,
            handlers,
            slots,
            now_ms,
            inbox,
            inbox_busy_until_ms,
            ..
        } = self;
        let now = *now_ms;
        let mut scan: VecDeque<Output> = outs.into();
        let mut pass = Vec::with_capacity(scan.len());
        while let Some(o) = scan.pop_front() {
            match o {
                send @ Output::Send { .. } => pass.push(send),
                Output::Upcall(up) => match up {
                    Upcall::Joined { id } => {
                        fire(chord, handlers, slots, now, &mut scan, None, |h, cx| {
                            h.on_start(cx)
                        });
                        pass.push(Output::Upcall(Upcall::Joined { id }));
                    }
                    Upcall::AppTimer(token) => {
                        match slot_of(handlers, (token >> PROTO_SHIFT) as u8) {
                            Some(i) => {
                                let wakes = &mut slots[i].wakes;
                                if let Some(at) = wakes.iter().position(|&w| w == token & DUE_MASK)
                                {
                                    wakes.swap_remove(at);
                                }
                                fire(chord, handlers, slots, now, &mut scan, Some(i), |h, cx| {
                                    h.on_wake(cx)
                                });
                            }
                            None => pass.push(Output::Upcall(Upcall::AppTimer(token))),
                        }
                    }
                    Upcall::AppMessage {
                        proto,
                        from,
                        payload,
                    } => match slot_of(handlers, proto) {
                        Some(i) => {
                            if !inbox_admit(inbox, inbox_busy_until_ms, now, AGG_CAPACITY) {
                                slots[i].shed += 1;
                                continue;
                            }
                            slots[i].received += 1;
                            fire(chord, handlers, slots, now, &mut scan, Some(i), |h, cx| {
                                h.on_message(cx, from, &payload)
                            });
                        }
                        None => pass.push(Output::Upcall(Upcall::AppMessage {
                            proto,
                            from,
                            payload,
                        })),
                    },
                    Upcall::Routed {
                        key,
                        payload,
                        origin,
                        hops,
                    } => match payload.first().and_then(|&p| slot_of(handlers, p)) {
                        Some(i) => {
                            if !inbox_admit(inbox, inbox_busy_until_ms, now, AGG_CAPACITY) {
                                slots[i].shed += 1;
                                continue;
                            }
                            slots[i].received += 1;
                            fire(chord, handlers, slots, now, &mut scan, Some(i), |h, cx| {
                                h.on_routed(cx, key, origin, &payload[1..])
                            });
                        }
                        None => pass.push(Output::Upcall(Upcall::Routed {
                            key,
                            payload,
                            origin,
                            hops,
                        })),
                    },
                    Upcall::NeighborhoodChanged => {
                        fire(chord, handlers, slots, now, &mut scan, None, |h, cx| {
                            h.on_neighborhood_changed(cx)
                        });
                        pass.push(Output::Upcall(Upcall::NeighborhoodChanged));
                    }
                    other => pass.push(Output::Upcall(other)),
                },
                timer @ Output::SetTimer { .. } => pass.push(timer),
            }
        }
        pass
    }
}

impl Actor for StackNode {
    fn addr(&self) -> NodeAddr {
        self.chord.me().addr
    }

    fn on_input(&mut self, input: Input) -> Vec<Output> {
        self.handle(input)
    }

    fn set_now(&mut self, now_ms: u64) {
        StackNode::set_now(self, now_ms);
    }
}

/// Index of `proto`'s handler — and of its slot.
fn slot_of(handlers: &[Box<dyn AppProtocol>], proto: u8) -> Option<usize> {
    handlers.iter().position(|h| h.proto() == proto)
}

/// Invoke `f` on every handler (or only the one in slot `only`), each
/// under a fresh [`Ctx`] feeding the shared scan queue and that handler's
/// slot.
fn fire<F>(
    chord: &mut ChordNode,
    handlers: &mut [Box<dyn AppProtocol>],
    slots: &mut [Slot],
    now_ms: u64,
    scan: &mut VecDeque<Output>,
    only: Option<usize>,
    mut f: F,
) where
    F: FnMut(&mut dyn AppProtocol, &mut Ctx<'_>),
{
    let range = match only {
        Some(i) => i..i + 1,
        None => 0..handlers.len(),
    };
    for (h, slot) in handlers[range.clone()].iter_mut().zip(&mut slots[range]) {
        let mut cx = Ctx {
            chord: &mut *chord,
            queue: &mut *scan,
            slot,
            proto: h.proto(),
            now_ms,
        };
        f(h.as_mut(), &mut cx);
    }
}

/// A test clock for the wake-ups a stack asks for: it keeps the
/// application timers the stack's outputs arm and fires them in due order,
/// moving the engine clock to each. Chord's own timers never fire.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct WakeClock {
    /// Armed application timers as `(due, token)`, in arming order.
    pub pending: Vec<(u64, u64)>,
    /// The engine time it last set.
    pub now_ms: u64,
    /// Application timers armed so far.
    pub armed: u64,
    /// Application timers fired so far.
    pub fired: u64,
}

#[cfg(test)]
impl WakeClock {
    /// Keep the application timers `outs` arms, due from now.
    pub fn absorb(&mut self, outs: &[Output]) {
        for o in outs {
            if let Output::SetTimer {
                kind: TimerKind::App(token),
                delay_ms,
            } = o
            {
                self.pending.push((self.now_ms + delay_ms, *token));
                self.armed += 1;
            }
        }
    }

    /// Fire every timer due by `until_ms`, earliest first (ties in arming
    /// order), then move the clock to `until_ms`. Each output comes back
    /// with the time of the firing that produced it. Panics on a handler
    /// that keeps asking to be woken at an instant that never moves on.
    pub fn run_until(&mut self, node: &mut StackNode, until_ms: u64) -> Vec<(u64, Output)> {
        let mut all = Vec::new();
        let mut same_instant = 0;
        while let Some(i) = (0..self.pending.len())
            .filter(|&i| self.pending[i].0 <= until_ms)
            .min_by_key(|&i| self.pending[i].0)
        {
            let (due, token) = self.pending.remove(i);
            same_instant = if due > self.now_ms {
                0
            } else {
                same_instant + 1
            };
            assert!(same_instant < 100, "wakes at {due} ms keep coming back");
            self.now_ms = self.now_ms.max(due);
            node.set_now(self.now_ms);
            let outs = node.handle(Input::Timer(TimerKind::App(token)));
            self.fired += 1;
            self.absorb(&outs);
            all.extend(outs.into_iter().map(|o| (self.now_ms, o)));
        }
        self.now_ms = self.now_ms.max(until_ms);
        node.set_now(self.now_ms);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dat_chord::{ChordMsg, IdSpace};

    fn cfg() -> ChordConfig {
        ChordConfig {
            space: IdSpace::new(8),
            ..ChordConfig::default()
        }
    }

    /// A minimal protocol for engine tests: echoes every message back,
    /// asks to wake at 100 ms on start, and records what it saw.
    struct Echo {
        proto: u8,
        seen: Vec<Vec<u8>>,
        /// The engine clock at each wake.
        woken: Vec<u64>,
        started: bool,
    }

    impl Echo {
        fn new(proto: u8) -> Self {
            Echo {
                proto,
                seen: Vec::new(),
                woken: Vec::new(),
                started: false,
            }
        }
    }

    impl AppProtocol for Echo {
        fn proto(&self) -> u8 {
            self.proto
        }
        fn on_start(&mut self, cx: &mut Ctx<'_>) {
            self.started = true;
            cx.wake_at(100);
        }
        fn on_message(&mut self, cx: &mut Ctx<'_>, from: NodeRef, payload: &[u8]) {
            self.seen.push(payload.to_vec());
            cx.send(from, payload.to_vec());
        }
        fn on_wake(&mut self, cx: &mut Ctx<'_>) {
            self.woken.push(cx.now_ms());
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn zero_handler_stack_is_transparent() {
        let mut bare = ChordNode::new(cfg(), Id(10), NodeAddr(1));
        let mut stack = StackNode::new(cfg(), Id(10), NodeAddr(1));
        assert_eq!(bare.start_create(), stack.start_create());
        let msg = ChordMsg::Ping {
            req: 9,
            sender: NodeRef::new(Id(20), NodeAddr(2)),
        };
        let input = Input::Message {
            from: NodeAddr(2),
            msg,
        };
        assert_eq!(bare.handle(input.clone()), stack.handle(input));
        assert_eq!(bare.me(), stack.me());
        assert_eq!(bare.status(), stack.status());
    }

    /// `(token, delay)` of every application timer in `outs`.
    fn wakes(outs: &[Output]) -> Vec<(u64, u64)> {
        outs.iter()
            .filter_map(|o| match o {
                Output::SetTimer {
                    kind: TimerKind::App(t),
                    delay_ms,
                } => Some((*t, *delay_ms)),
                _ => None,
            })
            .collect()
    }

    fn echoes(stack: &StackNode) -> Vec<&Echo> {
        stack
            .handlers
            .iter()
            .filter_map(|h| h.as_any().downcast_ref::<Echo>())
            .collect()
    }

    /// Two handlers never share a wake: both ask for 100 ms, each gets its
    /// own timer, and firing one wakes only its owner.
    #[test]
    fn timer_tokens_are_partitioned_by_proto() {
        let mut stack = StackNode::new(cfg(), Id(10), NodeAddr(1))
            .with_app(Echo::new(40))
            .with_app(Echo::new(41));
        let armed = wakes(&stack.start_create());
        assert_eq!(armed.len(), 2, "{armed:?}");
        assert_ne!(armed[0].0, armed[1].0);
        assert_eq!(armed[0].0 & DUE_MASK, 100);
        stack.set_now(100);
        let _ = stack.handle(Input::Timer(TimerKind::App(armed[0].0)));
        let e = echoes(&stack);
        assert_eq!(
            (e[0].woken.as_slice(), e[1].woken.as_slice()),
            (&[100][..], &[][..])
        );
        assert_eq!(
            stack.slots[1].wakes,
            vec![100],
            "the other wake still pends"
        );
    }

    #[test]
    fn an_earlier_wake_arms_an_earlier_timer_and_a_later_one_is_covered() {
        let mut stack = StackNode::new(cfg(), Id(10), NodeAddr(1)).with_app(Echo::new(40));
        assert_eq!(wakes(&stack.start_create()).len(), 1, "the 100 ms wake");
        stack.set_now(20);
        let wake_at = |stack: &mut StackNode, due: u64| {
            wakes(&stack.drive::<Echo, _>(|_, cx| cx.wake_at(due)).1)
        };
        assert_eq!(
            wake_at(&mut stack, 60),
            vec![((40 << PROTO_SHIFT) | 60, 40)]
        );
        for due in [60, 100, 300] {
            assert!(wake_at(&mut stack, due).is_empty(), "{due} is covered");
        }
        assert_eq!(stack.slots[0].wakes, vec![100, 60]);
    }

    #[test]
    fn a_superseded_firing_is_inert_and_a_fired_wake_no_longer_covers() {
        let mut stack = StackNode::new(cfg(), Id(10), NodeAddr(1)).with_app(Echo::new(40));
        let _ = stack.start_create();
        let ((), outs) = stack.drive::<Echo, _>(|_, cx| cx.wake_at(60));
        let early = wakes(&outs)[0].0;
        stack.set_now(60);
        assert!(stack.handle(Input::Timer(TimerKind::App(early))).is_empty());
        // The 100 ms wake was superseded; it still fires, and still only
        // calls on_wake, which has nothing to do.
        stack.set_now(100);
        let late = (40 << PROTO_SHIFT) | 100;
        assert!(stack.handle(Input::Timer(TimerKind::App(late))).is_empty());
        assert_eq!(stack.app::<Echo>().woken, vec![60, 100]);
        assert!(stack.slots[0].wakes.is_empty());
        // Nothing pends any more: the next ask arms again.
        let ((), outs) = stack.drive::<Echo, _>(|_, cx| cx.wake_at(500));
        assert_eq!(wakes(&outs), vec![((40 << PROTO_SHIFT) | 500, 400)]);
    }

    #[test]
    fn messages_dispatch_by_proto_byte_and_tally() {
        let mut stack = StackNode::new(cfg(), Id(10), NodeAddr(1)).with_app(Echo::new(40));
        let _ = stack.start_create();
        let peer = NodeRef::new(Id(20), NodeAddr(2));
        let outs = stack.handle(Input::Message {
            from: NodeAddr(2),
            msg: ChordMsg::App {
                proto: 40,
                from: peer,
                payload: vec![1, 2, 3].into(),
            },
        });
        // Handler consumed it and echoed back.
        assert_eq!(stack.app::<Echo>().seen, vec![vec![1, 2, 3]]);
        assert!(outs.iter().any(|o| matches!(
            o,
            Output::Send {
                msg: ChordMsg::App { proto: 40, .. },
                ..
            }
        )));
        assert_eq!(stack.proto_received(40), 1);
        assert_eq!(stack.proto_sent(40), 1);
        // A proto byte with no handler passes through untouched.
        let outs = stack.handle(Input::Message {
            from: NodeAddr(2),
            msg: ChordMsg::App {
                proto: 99,
                from: peer,
                payload: vec![9].into(),
            },
        });
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Upcall(Upcall::AppMessage { proto: 99, .. }))));
        assert_eq!(stack.proto_received(99), 0);
    }

    #[test]
    fn on_start_fires_for_every_handler() {
        let mut stack = StackNode::new(cfg(), Id(10), NodeAddr(1))
            .with_app(Echo::new(40))
            .with_app(Echo::new(41));
        let _ = stack.start_create();
        assert!(stack
            .handlers
            .iter()
            .filter_map(|h| h.as_any().downcast_ref::<Echo>())
            .all(|e| e.started));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_proto_byte_rejected() {
        let _ = StackNode::new(cfg(), Id(10), NodeAddr(1))
            .with_app(Echo::new(40))
            .with_app(Echo::new(40));
    }

    #[test]
    fn inbox_policy_off_never_sheds() {
        let mut stack = StackNode::new(cfg(), Id(10), NodeAddr(1)).with_app(Echo::new(40));
        let _ = stack.start_create();
        let peer = NodeRef::new(Id(20), NodeAddr(2));
        for i in 0..200u8 {
            let _ = stack.handle(Input::Message {
                from: NodeAddr(2),
                msg: ChordMsg::App {
                    proto: 40,
                    from: peer,
                    payload: vec![i].into(),
                },
            });
        }
        assert_eq!(stack.proto_received(40), 200);
        assert_eq!(stack.shed_count(40), 0);
        assert_eq!(stack.stats_shed_count(), 0);
    }

    #[test]
    fn overload_sheds_aggregation_beyond_capacity() {
        let mut stack = StackNode::new(cfg(), Id(10), NodeAddr(1)).with_app(Echo::new(40));
        stack.set_inbox_policy(InboxPolicy { service_ms: 5 });
        let _ = stack.start_create();
        let peer = NodeRef::new(Id(20), NodeAddr(2));
        // A burst at one instant: the virtual-time inbox admits up to
        // `AGG_CAPACITY` payloads before the backlog horizon fills.
        for i in 0..AGG_CAPACITY as u8 + 6 {
            let _ = stack.handle(Input::Message {
                from: NodeAddr(2),
                msg: ChordMsg::App {
                    proto: 40,
                    from: peer,
                    payload: vec![i].into(),
                },
            });
        }
        assert_eq!(stack.proto_received(40), AGG_CAPACITY);
        assert_eq!(stack.shed_count(40), 6);
        assert_eq!(stack.app::<Echo>().seen.len(), AGG_CAPACITY as usize);
        // Control traffic is never shed: chord pings still get pongs.
        let outs = stack.handle(Input::Message {
            from: NodeAddr(2),
            msg: ChordMsg::Ping {
                req: 77,
                sender: peer,
            },
        });
        assert!(outs.iter().any(|o| matches!(
            o,
            Output::Send {
                msg: ChordMsg::Pong { req: 77, .. },
                ..
            }
        )));
        // Once virtual time drains the backlog, admission resumes.
        stack.set_now(10_000);
        let _ = stack.handle(Input::Message {
            from: NodeAddr(2),
            msg: ChordMsg::App {
                proto: 40,
                from: peer,
                payload: vec![99].into(),
            },
        });
        assert_eq!(stack.proto_received(40), AGG_CAPACITY + 1);
        // Shed counters surface in the obs registry with a proto label.
        let reg = stack.obs_registry();
        assert_eq!(reg.counter_with("engine_shed_total", proto_label(40)), 6);
    }

    #[test]
    fn stats_class_sheds_before_aggregation() {
        let mut stack = StackNode::new(cfg(), Id(10), NodeAddr(1)).with_app(Echo::new(40));
        stack.set_inbox_policy(InboxPolicy { service_ms: 5 });
        let _ = stack.start_create();
        let peer = NodeRef::new(Id(20), NodeAddr(2));
        for req in 0..STATS_CAPACITY + 4 {
            let _ = stack.handle(Input::Message {
                from: NodeAddr(2),
                msg: ChordMsg::StatsRequest { req, sender: peer },
            });
        }
        assert_eq!(stack.stats_shed_count(), 4);
        let reg = stack.obs_registry();
        assert_eq!(reg.counter_with("engine_shed_total", "stats"), 4);
    }

    #[test]
    fn drive_emits_through_engine() {
        let mut stack = StackNode::new(cfg(), Id(10), NodeAddr(1)).with_app(Echo::new(40));
        let _ = stack.start_create();
        let peer = NodeRef::new(Id(20), NodeAddr(2));
        let (r, outs) = stack.drive::<Echo, _>(|_e, cx| {
            cx.send(peer, vec![5]);
            42u32
        });
        assert_eq!(r, 42);
        assert!(matches!(
            outs.as_slice(),
            [Output::Send {
                msg: ChordMsg::App { proto: 40, .. },
                ..
            }]
        ));
        assert_eq!(stack.proto_sent(40), 1);
    }

    /// A stack whose chord node knows one peer (taught via Notify).
    fn stack_with_peer() -> (StackNode, NodeRef) {
        let mut stack = StackNode::new(cfg(), Id(10), NodeAddr(1));
        let _ = stack.start_create();
        let peer = NodeRef::new(Id(20), NodeAddr(2));
        let _ = stack.handle(Input::Message {
            from: NodeAddr(2),
            msg: ChordMsg::Notify { sender: peer },
        });
        assert!(stack.chord().peer_by_addr(NodeAddr(2)).is_some());
        (stack, peer)
    }

    fn checksum_err() -> dat_chord::wire::CodecError {
        dat_chord::wire::CodecError::BadChecksum {
            computed: 1,
            stored: 2,
        }
    }

    #[test]
    fn bad_frame_bursts_escalate_to_suspicion() {
        let (mut stack, peer) = stack_with_peer();
        // Two bad frames inside the window: counted but below threshold.
        for _ in 0..2 {
            let outs = stack.handle(Input::BadFrame {
                from: Some(NodeAddr(2)),
                error: checksum_err(),
            });
            assert!(outs.is_empty(), "a bad frame produces no outputs");
        }
        assert_eq!(stack.bad_frames_total(), 2);
        assert_eq!(stack.bad_frame_count("bad_checksum"), 2);
        assert_eq!(stack.bad_frame_suspects(), 0);
        assert_eq!(
            stack.chord().health().peek(peer.id),
            SuspicionLevel::Healthy
        );
        // The third crosses the default threshold: forced Suspect + trace.
        let _ = stack.handle(Input::BadFrame {
            from: Some(NodeAddr(2)),
            error: checksum_err(),
        });
        assert_eq!(stack.bad_frame_suspects(), 1);
        assert_eq!(
            stack.chord().health().peek(peer.id),
            SuspicionLevel::Suspect
        );
        assert!(stack
            .trace_events()
            .iter()
            .any(|e| matches!(e.kind, dat_obs::EventKind::Poisoned { node } if node == peer.id.0)));
        let reg = stack.obs_registry();
        assert_eq!(reg.counter_with("bad_frames_total", "bad_checksum"), 3);
        assert_eq!(reg.counter_sum("bad_frame_suspects_total"), 1);
    }

    #[test]
    fn unattributable_and_unknown_sources_count_without_scoring() {
        let (mut stack, peer) = stack_with_peer();
        for _ in 0..10 {
            let _ = stack.handle(Input::BadFrame {
                from: None,
                error: dat_chord::wire::CodecError::Truncated,
            });
        }
        // An address that resolves to no known peer is scored but cannot
        // be suspected.
        for _ in 0..10 {
            let _ = stack.handle(Input::BadFrame {
                from: Some(NodeAddr(99)),
                error: checksum_err(),
            });
        }
        assert_eq!(stack.bad_frames_total(), 20);
        assert_eq!(stack.bad_frame_count("truncated"), 10);
        assert_eq!(stack.bad_frame_suspects(), 0);
        assert_eq!(
            stack.chord().health().peek(peer.id),
            SuspicionLevel::Healthy
        );
    }

    #[test]
    fn bad_frame_window_expires_and_table_is_bounded() {
        let (mut stack, _) = stack_with_peer();
        // Threshold − 1 bad frames, then the window expires: as many again
        // do not reach the threshold either.
        let below = u64::from(BAD_FRAME_THRESHOLD - 1);
        for t in (0..below).chain((0..below).map(|i| BAD_FRAME_WINDOW_MS + 1 + i)) {
            stack.set_now(t);
            let _ = stack.handle(Input::BadFrame {
                from: Some(NodeAddr(2)),
                error: checksum_err(),
            });
        }
        assert_eq!(stack.bad_frame_suspects(), 0);
        // A spray of spoofed sources stays bounded at the table's size.
        for i in 0..2 * BAD_FRAME_MAX_TRACKED as u64 {
            let _ = stack.handle(Input::BadFrame {
                from: Some(NodeAddr(1_000 + i)),
                error: checksum_err(),
            });
        }
        assert_eq!(stack.bad_peers_tracked(), BAD_FRAME_MAX_TRACKED);
    }

    #[test]
    fn repeated_poisoning_episodes_quarantine_then_release() {
        let (mut stack, peer) = stack_with_peer();
        stack.set_health_config(dat_chord::HealthConfig {
            flap_window_ms: 60_000,
            quarantine_ms: 5_000,
        });
        let mut now = 0u64;
        // Three poison-burst → heartbeat-recovery cycles inside the flap
        // window: the third recovery trips quarantine.
        for _ in 0..3 {
            for _ in 0..3 {
                now += 10;
                stack.set_now(now);
                let _ = stack.handle(Input::BadFrame {
                    from: Some(NodeAddr(2)),
                    error: checksum_err(),
                });
            }
            now += 500;
            stack.set_now(now);
            let _ = stack.handle(Input::Message {
                from: NodeAddr(2),
                msg: ChordMsg::Notify { sender: peer },
            });
        }
        assert_eq!(
            stack.chord().health().peek(peer.id),
            SuspicionLevel::Quarantined
        );
        assert_eq!(stack.chord().health().quarantines, 1);
        // Quarantine served + the peer talking again → it rejoins.
        now += 6_000;
        stack.set_now(now);
        let _ = stack.handle(Input::Message {
            from: NodeAddr(2),
            msg: ChordMsg::Notify { sender: peer },
        });
        assert_eq!(
            stack.chord().health().peek(peer.id),
            SuspicionLevel::Healthy
        );
        assert_eq!(stack.chord().health().rejoins, 1);
    }
}
