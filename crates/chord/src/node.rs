//! The sans-io Chord protocol node.
//!
//! [`ChordNode`] implements ring creation, joining (optionally with
//! identifier probing, §3.5/§4), recursive greedy lookup routing,
//! stabilization, finger fixing with FOF refresh, predecessor liveness
//! checking, graceful departure and application payload routing (keyed or
//! direct). It performs no I/O: hosts feed [`Input`]s and interpret the
//! returned [`Output`]s, which is what lets the identical protocol code run
//! over both the discrete-event simulator and the UDP RPC transport, as in
//! the paper's prototype (§4).
//!
//! Request/response exchanges are retransmitted on timeout (bounded
//! retries, exponential backoff) with the retransmission timeout adapted
//! from a smoothed RTT estimate (Jacobson/Karn, as in TCP); with
//! `max_retries = 0` a request is sent once and its first timeout is
//! final.
//!
//! Request timeouts are deadlines, not timers. Each in-flight request
//! carries the host time its latest transmission expires at, and every
//! input starts by expiring the requests whose deadline has passed, in
//! (deadline, arming order). The node only has to make sure *some* timer
//! of its own fires by the earliest deadline: a periodic timer it re-armed
//! itself usually does (the default RTO floor equals the finger-fix
//! period), and otherwise one [`TimerKind::ReqDeadline`] is armed for the
//! whole table. Hosts must therefore report time, through
//! [`ChordNode::handle_at`] or [`ChordNode::set_now`], before every input.

use std::collections::VecDeque;

use dat_obs::EventKind as ObsEventKind;

use crate::finger::{FingerInfo, FingerTable, NodeAddr, NodeRef};
use crate::health::{HealthDetector, SuspicionLevel};
use crate::id::{Id, IdSpace};
use crate::metrics::Metrics;
use crate::msg::{ChordMsg, Input, Output, ReqId, TimerKind, Upcall};
use crate::payload::Payload;
use crate::probing;

/// Tunables for the Chord layer. Times are in host milliseconds (virtual
/// milliseconds under simulation).
#[derive(Clone, Copy, Debug)]
pub struct ChordConfig {
    /// Identifier space width.
    pub space: IdSpace,
    /// Successor-list length (fault tolerance).
    pub succ_list_len: usize,
    /// Stabilization period.
    pub stabilize_ms: u64,
    /// Finger-fixing period (one finger per firing, round-robin).
    pub fix_fingers_ms: u64,
    /// Predecessor liveness-check period.
    pub check_pred_ms: u64,
    /// Request timeout before the first RTT sample (the adaptive RTO's
    /// fallback).
    pub req_timeout_ms: u64,
    /// Use identifier probing at join time (§3.5).
    pub probe_on_join: bool,
    /// Give up joining after this many attempts.
    pub max_join_retries: u32,
    /// Retransmissions allowed per request before it is declared failed.
    /// `0` disables retransmission: a request gets exactly one
    /// transmission.
    pub max_retries: u32,
    /// Upper clamp for the adaptive RTO and its exponential backoff.
    pub rto_max_ms: u64,
}

/// Hop budget for recursive routing (loop protection during churn).
const MAX_HOPS: u32 = 160;

/// Every `FOF_REFRESH_EVERY`-th finger-fix firing refreshes the FOF data
/// of one existing finger instead of looking a finger up.
const FOF_REFRESH_EVERY: u32 = 4;

/// Lower clamp for the adaptive retransmission timeout.
pub const RTO_MIN_MS: u64 = 250;

impl Default for ChordConfig {
    fn default() -> Self {
        ChordConfig {
            space: IdSpace::new(64),
            succ_list_len: 8,
            stabilize_ms: 500,
            fix_fingers_ms: 250,
            check_pred_ms: 1_000,
            req_timeout_ms: 2_000,
            probe_on_join: false,
            max_join_retries: 8,
            max_retries: 2,
            rto_max_ms: 8_000,
        }
    }
}

/// Bounded memory for peers evicted on timeout: how many are remembered
/// for later ring unification, and how many liveness probes each gets.
/// One probe fires per `CheckPredecessor` round (round-robin over the
/// queue), so a lone fallen peer is probed for `FALLEN_PROBES *
/// check_pred_ms` — about 2 minutes at the 1 s default, comfortably
/// longer than the partitions the repro experiments inject — and a full
/// queue stretches that by up to `FALLEN_CAP`× (see DESIGN.md §8).
const FALLEN_CAP: usize = 8;
const FALLEN_PROBES: u8 = 128;

/// Lifecycle of a node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeStatus {
    /// Constructed, not yet started.
    Created,
    /// Join protocol in progress.
    Joining,
    /// Full ring member.
    Active,
    /// Gracefully departed; ignores all traffic.
    Departed,
}

/// What an outstanding request is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pending {
    /// Probe-join phase 1: find the successor of a random anchor id.
    JoinFindAnchor,
    /// Probe-join phase 2: waiting for the designated identifier.
    ProbeJoin,
    /// Final join phase: find the successor of our own identifier.
    JoinFindSuccessor,
    /// Stabilization round: `GetNeighbors` to our successor.
    Stabilize,
    /// Fixing finger `j`.
    FixFinger(u8),
    /// Refreshing the FOF data of finger `j`.
    FofRefresh(u8),
    /// Application lookup.
    Lookup,
    /// Predecessor liveness ping.
    PingPred,
    /// Generic liveness ping to an arbitrary node (evicted on timeout).
    PingNode,
    /// A [`ChordMsg::ProbedApp`]'s liveness probe: retried as a plain
    /// `Ping` and timed out exactly like [`Pending::PingNode`]. Its own
    /// kind only so the retries it costs can be counted apart from the
    /// ring's.
    AppProbe,
    /// Liveness probe to a previously-evicted peer (ring unification).
    FallenProbe,
    /// Neighborhood pull from a risen peer to re-merge severed rings.
    Unify,
}

impl Pending {
    /// Is the request's target suspected (failure detector, strikes) when
    /// the retry budget runs out? Not a bootstrap node, which is no table
    /// member yet, nor a fallen peer, whose silence is the expected outcome.
    fn suspects_target(self) -> bool {
        !matches!(
            self,
            Pending::JoinFindAnchor
                | Pending::ProbeJoin
                | Pending::JoinFindSuccessor
                | Pending::FallenProbe
                | Pending::Unify
        )
    }
}

/// An in-flight request: its purpose, plus retransmission and RTT state.
#[derive(Clone, Debug)]
struct Outstanding {
    kind: Pending,
    /// First hop the request was (and will again be) sent to.
    to: NodeRef,
    /// The exact datagram to re-send.
    msg: ChordMsg,
    /// Transmissions so far (1 = the original send).
    attempts: u32,
    /// Arming order of `deadline_ms`: equal deadlines expire in it. It
    /// wraps after 2^32 arms, which only reorders a tie.
    armed: u32,
    /// Timeout of the latest transmission (doubles per retry).
    rto_ms: u64,
    /// Host time the latest transmission times out at; minus `rto_ms`,
    /// when it was sent.
    deadline_ms: u64,
}

/// The in-flight request table, unordered. A node has a few requests out
/// at most (one parent probe per epoch on a quiet DAT ring), so a scan
/// beats hashing, and the table grows one entry at a time to the most it
/// ever held at once.
#[derive(Debug, Default)]
struct Requests(Vec<(ReqId, Outstanding)>);

impl Requests {
    fn insert(&mut self, req: ReqId, o: Outstanding) {
        debug_assert!(self.get(req).is_none(), "request {req} tracked twice");
        self.0.reserve_exact(1);
        self.0.push((req, o));
    }

    fn get(&self, req: ReqId) -> Option<&Outstanding> {
        self.0.iter().find(|(r, _)| *r == req).map(|(_, o)| o)
    }

    fn remove(&mut self, req: ReqId) -> Option<Outstanding> {
        let i = self.0.iter().position(|(r, _)| *r == req)?;
        Some(self.0.swap_remove(i).1)
    }

    /// The request to expire first among those due by `now_ms`: earliest
    /// deadline, then arming order.
    fn first_due(&self, now_ms: u64) -> Option<ReqId> {
        self.0
            .iter()
            .filter(|(_, o)| o.deadline_ms <= now_ms)
            .min_by_key(|(_, o)| (o.deadline_ms, o.armed))
            .map(|(req, _)| *req)
    }

    fn earliest_deadline(&self) -> Option<u64> {
        self.0.iter().map(|(_, o)| o.deadline_ms).min()
    }

    fn clear(&mut self) {
        self.0.clear();
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Consecutive timeout strikes per suspected node, unordered. A node holds
/// strikes against a peer or two at a time, usually none: a scan, and a
/// table that grows and shrinks one peer at a time, where a hash map
/// costs every node 48 bytes inline and a bucket array once used.
#[derive(Debug, Default)]
struct Strikes(Vec<(Id, u8)>);

impl Strikes {
    /// One more strike against `peer`; returns its count.
    fn add(&mut self, peer: Id) -> u8 {
        let i = match self.0.iter().position(|(p, _)| *p == peer) {
            Some(i) => i,
            None => {
                self.0.reserve_exact(1);
                self.0.push((peer, 0));
                self.0.len() - 1
            }
        };
        self.0[i].1 += 1;
        self.0[i].1
    }

    /// Clear `peer`'s strikes.
    fn clear(&mut self, peer: Id) {
        if let Some(i) = self.0.iter().position(|(p, _)| *p == peer) {
            self.0.swap_remove(i);
            self.0.shrink_to_fit();
        }
    }
}

/// The Chord protocol state machine.
pub struct ChordNode {
    cfg: ChordConfig,
    table: FingerTable,
    status: NodeStatus,
    bootstrap: Option<NodeRef>,
    next_req: ReqId,
    next_finger: u8,
    fix_round: u32,
    join_attempts: u32,
    /// Consecutive timeout strikes per suspected node; eviction needs two,
    /// so one lost datagram on a lossy network does not tear down a live
    /// neighbor. Any reply from the node clears its strikes.
    strikes: Strikes,
    /// Host clock (ms) as last reported via `set_now` / `handle_at`.
    now_ms: u64,
    /// Smoothed RTT (ms); `None` until the first sample.
    srtt_ms: Option<f64>,
    /// RTT mean deviation (ms), per Jacobson.
    rttvar_ms: f64,
    /// In-flight requests by id: `send_tracked` in, reply or final timeout out.
    outstanding: Requests,
    /// Counter behind [`Outstanding::armed`].
    next_arm: u32,
    /// Due time of each periodic timer this node re-armed itself
    /// (`Stabilize`, `FixFingers`, `CheckPredecessor`; `u64::MAX` until
    /// then). The first arming is not recorded: a host may delay it.
    periodic_due: [u64; 3],
    /// Due time of the latest armed [`TimerKind::ReqDeadline`] that has
    /// not fired yet (`u64::MAX`: none).
    deadline_timer: u64,
    /// Timeout-evicted peers remembered for ring unification, each with a
    /// remaining probe budget (FIFO, capped at `FALLEN_CAP`).
    fallen: VecDeque<(NodeRef, u8)>,
    /// Phi-accrual failure detector: per-peer suspicion from the cadence
    /// of acks/replies, with flap damping (see [`crate::health`]).
    health: HealthDetector,
    /// The latest stabilization reply's responder with its predecessor
    /// and first successor: what a `FoundSuccessor` from it would carry.
    succ_fof: Option<FingerInfo>,
    metrics: Metrics,
}

impl ChordNode {
    /// Create a node with identifier `id` reachable at `addr`.
    pub fn new(cfg: ChordConfig, id: Id, addr: NodeAddr) -> Self {
        let me = NodeRef::new(cfg.space.id(id.raw()), addr);
        let table = FingerTable::new(cfg.space, me, cfg.succ_list_len);
        ChordNode {
            cfg,
            table,
            status: NodeStatus::Created,
            bootstrap: None,
            // Seed request ids with the address so traces are readable;
            // only local uniqueness matters.
            next_req: addr.0 << 20,
            next_finger: 2,
            fix_round: 0,
            join_attempts: 0,
            strikes: Strikes::default(),
            now_ms: 0,
            srtt_ms: None,
            rttvar_ms: 0.0,
            outstanding: Requests::default(),
            next_arm: 0,
            periodic_due: [u64::MAX; 3],
            deadline_timer: u64::MAX,
            fallen: VecDeque::new(),
            health: HealthDetector::default(),
            succ_fof: None,
            metrics: Metrics::default(),
        }
    }

    /// This node's reference (id may change during a probing join).
    pub fn me(&self) -> NodeRef {
        self.table.me()
    }

    /// Identifier space.
    pub fn space(&self) -> IdSpace {
        self.cfg.space
    }

    /// Current lifecycle status.
    pub fn status(&self) -> NodeStatus {
        self.status
    }

    /// The routing state (read-only).
    pub fn table(&self) -> &FingerTable {
        &self.table
    }

    /// The first `k` distinct successors (excluding this node itself) —
    /// the replication set used by layers that keep warm state on the
    /// nodes that would take over this node's keys if it crashed.
    pub fn successors(&self, k: usize) -> Vec<NodeRef> {
        let me = self.table.me().id;
        let mut out: Vec<NodeRef> = Vec::with_capacity(k);
        for s in self.table.successor_list() {
            if s.id != me && !out.iter().any(|o| o.id == s.id) {
                out.push(*s);
                if out.len() == k {
                    break;
                }
            }
        }
        out
    }

    /// Message counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access to counters (hosts may fold transport-level stats in).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Configuration in effect.
    pub fn config(&self) -> &ChordConfig {
        &self.cfg
    }

    /// The phi-accrual failure detector (read-only).
    pub fn health(&self) -> &HealthDetector {
        &self.health
    }

    /// Mutable access to the failure detector (harnesses tune thresholds
    /// and quarantine durations).
    pub fn health_mut(&mut self) -> &mut HealthDetector {
        &mut self.health
    }

    /// Evaluate `peer`'s suspicion level at the current host time. This
    /// advances the detector's Healthy↔Suspect↔Quarantined state machine
    /// (silence alone raises suspicion), so it takes `&mut self`.
    pub fn suspicion(&mut self, peer: Id) -> SuspicionLevel {
        self.health.level(peer, self.now_ms)
    }

    /// Proactively evict a suspect peer from the routing table, *before*
    /// any request to it times out. The peer is remembered on the fallen
    /// list exactly like a timeout eviction, so it is probed and re-merged
    /// once it stabilizes. Returns the resulting outputs (a
    /// [`Upcall::NeighborhoodChanged`] when the table actually changed).
    pub fn evict_suspect(&mut self, target: NodeRef) -> Vec<Output> {
        let mut out = Vec::new();
        if target.id == self.me().id {
            return out;
        }
        self.strikes.clear(target.id);
        if self.table.evict(target.id) {
            self.remember_fallen(target);
            out.push(Output::Upcall(Upcall::NeighborhoodChanged));
        }
        out
    }

    fn fresh_req(&mut self) -> ReqId {
        self.next_req += 1;
        self.next_req
    }

    /// Does this node currently own `key`?
    pub fn owns(&self, key: Id) -> bool {
        match self.table.predecessor() {
            Some(p) => self.cfg.space.in_open_closed(key, p.id, self.me().id),
            // Alone on the ring: owner of everything.
            None => self.table.successor().is_none(),
        }
    }

    fn send(&mut self, out: &mut Vec<Output>, to: NodeRef, msg: ChordMsg) {
        self.metrics.on_send(self.now_ms, 0, msg.kind(), to.id.0);
        out.push(Output::Send { to, msg });
    }

    fn arm(&self, out: &mut Vec<Output>, kind: TimerKind, delay_ms: u64) {
        out.push(Output::SetTimer { kind, delay_ms });
    }

    /// Advance the node's notion of host time (wall or virtual ms). The
    /// clock only moves forward; it feeds RTT estimation and decides which
    /// requests are past their deadline.
    pub fn set_now(&mut self, now_ms: u64) {
        self.now_ms = self.now_ms.max(now_ms);
    }

    /// [`ChordNode::handle`] with a host clock update first.
    pub fn handle_at(&mut self, input: Input, now_ms: u64) -> Vec<Output> {
        self.set_now(now_ms);
        self.handle(input)
    }

    /// Smoothed RTT estimate (ms), once at least one sample was taken.
    pub fn srtt_ms(&self) -> Option<f64> {
        self.srtt_ms
    }

    /// The retransmission timeout the next request will be armed with:
    /// `SRTT + 4·RTTVAR` clamped into `[RTO_MIN_MS, rto_max_ms]`, or the
    /// configured `req_timeout_ms` before any RTT sample exists.
    pub fn current_rto(&self) -> u64 {
        match self.srtt_ms {
            Some(srtt) => {
                ((srtt + 4.0 * self.rttvar_ms) as u64).clamp(RTO_MIN_MS, self.cfg.rto_max_ms)
            }
            None => self.cfg.req_timeout_ms,
        }
    }

    fn observe_rtt(&mut self, sample_ms: u64) {
        self.metrics.observe("rtt_ms", sample_ms);
        let s = sample_ms as f64;
        match self.srtt_ms {
            None => {
                self.srtt_ms = Some(s);
                self.rttvar_ms = s / 2.0;
            }
            Some(srtt) => {
                self.rttvar_ms = 0.75 * self.rttvar_ms + 0.25 * (srtt - s).abs();
                self.srtt_ms = Some(0.875 * srtt + 0.125 * s);
            }
        }
    }

    /// Send a request and register it for timeout tracking and (when the
    /// retry budget allows) retransmission of the same datagram. The
    /// public entry point that got here ends with
    /// [`ChordNode::cover_deadlines`].
    fn send_tracked(
        &mut self,
        out: &mut Vec<Output>,
        to: NodeRef,
        msg: ChordMsg,
        req: ReqId,
        kind: Pending,
    ) {
        self.track(to, msg.clone(), req, kind);
        self.send(out, to, msg);
    }

    /// Register request `req` to `to` as sent now: its deadline is one RTO
    /// away, and each expiry within the retry budget re-sends `retry_msg`.
    /// Whether the target is marked for failure suspicion on final timeout
    /// follows from `kind` ([`Pending::suspects_target`]).
    fn track(&mut self, to: NodeRef, retry_msg: ChordMsg, req: ReqId, kind: Pending) {
        let rto = self.current_rto();
        self.metrics.observe("rto_ms", rto);
        let mut o = Outstanding {
            kind,
            to,
            msg: retry_msg,
            attempts: 1,
            armed: 0,
            rto_ms: rto,
            deadline_ms: 0,
        };
        self.set_deadline(&mut o);
        self.outstanding.insert(req, o);
    }

    /// Start the timeout of `o`'s latest transmission: `rto_ms` from now.
    fn set_deadline(&mut self, o: &mut Outstanding) {
        o.deadline_ms = self.now_ms.saturating_add(o.rto_ms);
        o.armed = self.next_arm;
        self.next_arm = self.next_arm.wrapping_add(1);
    }

    /// Time out every request whose deadline is not after now, in
    /// (deadline, arming order) — the order one timer per request would
    /// have fired in. A retransmission gets a later deadline; a retry that
    /// is itself due again (a zero RTO) expires in this same pass.
    fn expire_requests(&mut self, out: &mut Vec<Output>) {
        while let Some(req) = self.outstanding.first_due(self.now_ms) {
            self.on_req_timeout(req, out);
        }
    }

    /// Make sure a timer of this node's own fires no later than the
    /// earliest request deadline: a periodic timer it re-armed itself, or
    /// the pending [`TimerKind::ReqDeadline`]. Failing both, arm one
    /// `ReqDeadline` for that deadline.
    fn cover_deadlines(&mut self, out: &mut Vec<Output>) {
        let Some(due) = self.outstanding.earliest_deadline() else {
            return;
        };
        let cover = self
            .periodic_due
            .into_iter()
            .fold(self.deadline_timer, u64::min);
        if cover <= due {
            return;
        }
        self.deadline_timer = due;
        self.arm(
            out,
            TimerKind::ReqDeadline(due),
            due.saturating_sub(self.now_ms),
        );
    }

    /// Re-arm periodic timer `kind` from its own handler, and remember
    /// when it fires: until then it covers every deadline at or before it.
    fn rearm(&mut self, out: &mut Vec<Output>, kind: TimerKind, period_ms: u64) {
        let slot = match kind {
            TimerKind::Stabilize => 0,
            TimerKind::FixFingers => 1,
            _ => 2,
        };
        self.periodic_due[slot] = self.now_ms + period_ms;
        self.arm(out, kind, period_ms);
    }

    fn untrack(&mut self, req: ReqId) -> Option<Pending> {
        let o = self.outstanding.remove(req)?;
        // Karn's rule: only exchanges that were never retransmitted
        // yield RTT samples (a retransmitted reply is ambiguous), and for
        // those the latest transmission is the first.
        if o.attempts == 1 {
            let sent_ms = o.deadline_ms - o.rto_ms;
            self.observe_rtt(self.now_ms.saturating_sub(sent_ms));
        }
        Some(o.kind)
    }

    /// Start as the first node of a new ring.
    pub fn start_create(&mut self) -> Vec<Output> {
        assert_eq!(self.status, NodeStatus::Created, "already started");
        let mut out = Vec::new();
        self.status = NodeStatus::Active;
        self.arm_periodic(&mut out);
        out.push(Output::Upcall(Upcall::Joined { id: self.me().id }));
        out
    }

    /// Start with a fully materialised routing table (e.g. produced by
    /// [`crate::ring::StaticRing::table_of`]) and become active immediately,
    /// skipping the join protocol. Experiment harnesses use this to build
    /// large pre-stabilized overlays in O(n log n) without simulating
    /// thousands of joins.
    pub fn start_with_table(&mut self, table: FingerTable) -> Vec<Output> {
        assert_eq!(self.status, NodeStatus::Created, "already started");
        assert_eq!(
            table.me().id,
            self.me().id,
            "table belongs to a different node"
        );
        self.replace_table(table);
        self.status = NodeStatus::Active;
        let mut out = Vec::new();
        self.arm_periodic(&mut out);
        out.push(Output::Upcall(Upcall::Joined { id: self.me().id }));
        out
    }

    /// Start joining an existing ring through `bootstrap`.
    pub fn start_join(&mut self, bootstrap: NodeRef) -> Vec<Output> {
        assert_eq!(self.status, NodeStatus::Created, "already started");
        self.status = NodeStatus::Joining;
        self.bootstrap = Some(bootstrap);
        let mut out = Vec::new();
        self.begin_join_attempt(&mut out);
        self.cover_deadlines(&mut out);
        out
    }

    fn begin_join_attempt(&mut self, out: &mut Vec<Output>) {
        let bootstrap = self.bootstrap.expect("join without bootstrap");
        let req = self.fresh_req();
        let kind = if self.cfg.probe_on_join {
            Pending::JoinFindAnchor
        } else {
            Pending::JoinFindSuccessor
        };
        let msg = ChordMsg::FindSuccessor {
            req,
            key: self.me().id,
            origin: self.me(),
            hops: 0,
        };
        self.send_tracked(out, bootstrap, msg, req, kind);
    }

    fn arm_periodic(&self, out: &mut Vec<Output>) {
        self.arm(out, TimerKind::Stabilize, self.cfg.stabilize_ms);
        self.arm(out, TimerKind::FixFingers, self.cfg.fix_fingers_ms);
        self.arm(out, TimerKind::CheckPredecessor, self.cfg.check_pred_ms);
    }

    /// Issue an application lookup for `key`. Completion is reported via
    /// [`Upcall::LookupDone`] / [`Upcall::LookupFailed`] carrying the
    /// returned request id.
    pub fn lookup(&mut self, key: Id) -> (ReqId, Vec<Output>) {
        let mut out = Vec::new();
        let req = self.fresh_req();
        if self.owns(key) {
            out.push(Output::Upcall(Upcall::LookupDone {
                req,
                owner: self.me(),
                owner_pred: self.table.predecessor(),
                hops: 0,
            }));
            return (req, out);
        }
        let msg = ChordMsg::FindSuccessor {
            req,
            key,
            origin: self.me(),
            hops: 0,
        };
        match self.next_hop(key) {
            Some(next) => self.send_tracked(&mut out, next, msg, req, Pending::Lookup),
            None => out.push(Output::Upcall(Upcall::LookupFailed { req })),
        }
        self.cover_deadlines(&mut out);
        (req, out)
    }

    /// Route an opaque payload to the owner of `key`
    /// ([`Upcall::Routed`] fires there).
    pub fn route(&mut self, key: Id, payload: impl Into<Payload>) -> Vec<Output> {
        let payload = payload.into();
        let mut out = Vec::new();
        if self.owns(key) {
            out.push(Output::Upcall(Upcall::Routed {
                key,
                payload,
                origin: self.me(),
                hops: 0,
            }));
            return out;
        }
        let msg = ChordMsg::Route {
            key,
            payload,
            origin: self.me(),
            hops: 0,
        };
        if let Some(next) = self.next_hop(key) {
            self.send(&mut out, next, msg);
        }
        out
    }

    /// Probe an arbitrary node's liveness. If no pong arrives within the
    /// request timeout the node is evicted from the routing table (failure
    /// suspicion) — upper layers use this to detect dead DAT parents.
    pub fn ping_node(&mut self, target: NodeRef) -> Vec<Output> {
        let mut out = Vec::new();
        if target.id == self.me().id || self.status != NodeStatus::Active {
            return out;
        }
        let req = self.fresh_req();
        let msg = ChordMsg::Ping {
            req,
            sender: self.me(),
        };
        self.send_tracked(&mut out, target, msg, req, Pending::PingNode);
        self.cover_deadlines(&mut out);
        out
    }

    /// Ask `target` for its observability snapshot. The reply (if the
    /// remote host serves stats) surfaces as [`Upcall::StatsReceived`].
    /// Fire-and-forget: no retransmission, no timeout — stats are a
    /// diagnostic, not a protocol dependency.
    pub fn request_stats(&mut self, target: NodeRef) -> (ReqId, Vec<Output>) {
        let mut out = Vec::new();
        let req = self.fresh_req();
        let msg = ChordMsg::StatsRequest {
            req,
            sender: self.me(),
        };
        self.send(&mut out, target, msg);
        (req, out)
    }

    /// Build the reply to a [`Upcall::StatsRequested`] — hosts call this
    /// with whatever exposition text they serve.
    pub fn reply_stats(&mut self, to: NodeRef, req: ReqId, text: impl Into<Payload>) -> Output {
        let msg = ChordMsg::StatsReply {
            req,
            sender: self.me(),
            text: text.into(),
        };
        self.metrics.on_send(self.now_ms, 0, msg.kind(), to.id.0);
        Output::Send { to, msg }
    }

    /// Send a direct application-layer message to `to` (single hop, no
    /// routing). The remote side receives [`Upcall::AppMessage`].
    pub fn send_app(&mut self, to: NodeRef, proto: u8, payload: impl Into<Payload>) -> Output {
        let msg = ChordMsg::App {
            proto,
            from: self.me(),
            payload: payload.into(),
        };
        self.metrics.on_send(self.now_ms, 0, msg.kind(), to.id.0);
        Output::Send { to, msg }
    }

    /// [`ChordNode::send_app`] that doubles as a [`ChordNode::ping_node`]:
    /// the payload goes out once in a [`ChordMsg::ProbedApp`], whose
    /// receiver answers with a `Pong`. Until one arrives the probe is a
    /// `ping_node` request — the same RTO, Karn's rule, retries and
    /// two-strike eviction — except that its retries are plain `Ping`s:
    /// re-sending the payload could deliver it after a newer one. A probe
    /// the node would not ping (itself, or before it is active) goes out
    /// as a plain `App`.
    pub fn send_app_probed(
        &mut self,
        to: NodeRef,
        proto: u8,
        payload: impl Into<Payload>,
    ) -> Vec<Output> {
        if to.id == self.me().id || self.status != NodeStatus::Active {
            return vec![self.send_app(to, proto, payload)];
        }
        let mut out = Vec::new();
        let req = self.fresh_req();
        let from = self.me();
        self.track(
            to,
            ChordMsg::Ping { req, sender: from },
            req,
            Pending::AppProbe,
        );
        let msg = ChordMsg::ProbedApp {
            req,
            proto,
            from,
            payload: payload.into(),
        };
        self.send(&mut out, to, msg);
        self.cover_deadlines(&mut out);
        out
    }

    /// Gracefully leave the ring.
    pub fn leave(&mut self) -> Vec<Output> {
        let mut out = Vec::new();
        if self.status != NodeStatus::Active {
            self.status = NodeStatus::Departed;
            return out;
        }
        let me = self.me();
        if let Some(p) = self.table.predecessor() {
            let msg = ChordMsg::LeaveToPred {
                leaver: me,
                succ_list: self.table.successor_list().to_vec(),
            };
            self.send(&mut out, p, msg);
        }
        if let Some(s) = self.table.successor() {
            let msg = ChordMsg::LeaveToSucc {
                leaver: me,
                pred: self.table.predecessor(),
            };
            self.send(&mut out, s, msg);
        }
        self.status = NodeStatus::Departed;
        self.outstanding.clear();
        self.fallen.clear();
        out
    }

    /// Greedy next hop toward `key`; `None` when the table is empty.
    fn next_hop(&self, key: Id) -> Option<NodeRef> {
        let space = self.cfg.space;
        let succ = self.table.successor()?;
        if space.in_open_closed(key, self.me().id, succ.id) {
            return Some(succ);
        }
        self.table.closest_preceding(key).or(Some(succ))
    }

    /// Drive one input through the state machine: first time out every
    /// request past its deadline, then the input, then make sure a timer
    /// covers the earliest deadline left.
    pub fn handle(&mut self, input: Input) -> Vec<Output> {
        let mut out = Vec::new();
        if self.status == NodeStatus::Departed {
            return out;
        }
        self.expire_requests(&mut out);
        match input {
            Input::Timer(kind) => self.on_timer(kind, &mut out),
            Input::Message { from, msg } => {
                // Trace peer is the transport address (the UDP transport
                // reports a sentinel); cross-transport digests use the
                // application-layer events, which carry real node ids.
                self.metrics.on_recv(self.now_ms, 0, msg.kind(), from.0);
                self.on_message(from, msg, &mut out);
            }
            // An undecodable frame carried nothing the ring layer can act
            // on by itself; the stack host scores it per peer and feeds
            // the failure detector (see `core::engine`).
            Input::BadFrame { .. } => {}
        }
        self.cover_deadlines(&mut out);
        out
    }

    /// Resolve a transport address to the known peer behind it, if that
    /// peer is anywhere in the routing state (successor list, predecessor
    /// or fingers).
    pub fn peer_by_addr(&self, addr: NodeAddr) -> Option<NodeRef> {
        self.table
            .known_nodes()
            .into_iter()
            .find(|n| n.addr == addr)
    }

    /// Register hard evidence that the peer behind `addr` is poisoning
    /// the wire (a burst of undecodable frames). Forces the peer Suspect
    /// in the failure detector — repeated episodes trip its flap-damped
    /// quarantine — and returns the peer it resolved to, or `None` when
    /// the address maps to no known peer (nothing to quarantine).
    pub fn suspect_addr(&mut self, addr: NodeAddr) -> Option<NodeRef> {
        let peer = self.peer_by_addr(addr)?;
        self.health.miss(peer.id, self.now_ms);
        Some(peer)
    }

    fn on_timer(&mut self, kind: TimerKind, out: &mut Vec<Output>) {
        match kind {
            TimerKind::Stabilize => {
                if self.status == NodeStatus::Active {
                    if let Some(s) = self.table.successor() {
                        let req = self.fresh_req();
                        let msg = ChordMsg::GetNeighbors {
                            req,
                            sender: self.me(),
                        };
                        self.send_tracked(out, s, msg, req, Pending::Stabilize);
                    }
                }
                self.rearm(out, TimerKind::Stabilize, self.cfg.stabilize_ms);
            }
            TimerKind::FixFingers => {
                if self.status == NodeStatus::Active {
                    self.fix_next_finger(out);
                }
                self.rearm(out, TimerKind::FixFingers, self.cfg.fix_fingers_ms);
            }
            TimerKind::CheckPredecessor => {
                if self.status == NodeStatus::Active {
                    // A live predecessor's own stabilization reaches us
                    // every `stabilize_ms`; the ping is for one gone quiet.
                    if let Some(p) = self
                        .table
                        .predecessor()
                        .filter(|p| !self.heard_within(p.id, self.cfg.check_pred_ms))
                    {
                        let req = self.fresh_req();
                        let msg = ChordMsg::Ping {
                            req,
                            sender: self.me(),
                        };
                        self.send_tracked(out, p, msg, req, Pending::PingPred);
                    }
                    self.probe_fallen(out);
                    self.keepalive_probe(out);
                }
                self.rearm(out, TimerKind::CheckPredecessor, self.cfg.check_pred_ms);
            }
            // The deadlines it was armed for expired before this input ran;
            // a superseded firing (an earlier one was armed since) is inert.
            TimerKind::ReqDeadline(due) => {
                if self.deadline_timer == due {
                    self.deadline_timer = u64::MAX;
                }
            }
            TimerKind::App(sub) => out.push(Output::Upcall(Upcall::AppTimer(sub))),
        }
    }

    fn fix_next_finger(&mut self, out: &mut Vec<Output>) {
        self.fix_round = self.fix_round.wrapping_add(1);
        // Periodically refresh FOF data of an existing finger instead of
        // re-looking one up; probing and child computation depend on it.
        if self.fix_round.is_multiple_of(FOF_REFRESH_EVERY) {
            let target = self
                .table
                .iter()
                .nth((self.fix_round / FOF_REFRESH_EVERY) as usize % self.table.populated().max(1));
            if let Some((j, f)) = target {
                let req = self.fresh_req();
                let msg = ChordMsg::GetNeighbors {
                    req,
                    sender: self.me(),
                };
                self.send_tracked(out, f.node, msg, req, Pending::FofRefresh(j));
                return;
            }
        }
        let bits = self.cfg.space.bits();
        let j = self.next_finger;
        self.next_finger = if self.next_finger >= bits {
            2
        } else {
            self.next_finger + 1
        };
        let target = self.cfg.space.finger_start(self.me().id, j);
        if self.owns(target) {
            // The finger interval wraps back to ourselves: no such finger.
            return;
        }
        if let Some(info) = self.resolved_by_stabilization(target) {
            self.table.set_finger(j, info);
            return;
        }
        let req = self.fresh_req();
        let msg = ChordMsg::FindSuccessor {
            req,
            key: target,
            origin: self.me(),
            hops: 0,
        };
        if let Some(next) = self.next_hop(target) {
            self.send_tracked(out, next, msg, req, Pending::FixFinger(j));
        }
    }

    /// What a lookup of `key` would bring back, when stabilization already
    /// holds it (Stoica et al., SIGCOMM 2001, Fig. 6): `key` lies in `(me,
    /// successor]`, so the successor owns it, and the successor's latest
    /// stabilization reply carries the FOF detail a `FoundSuccessor` from it
    /// would. Only while the successor was heard within the last
    /// `stabilize_ms`: a silent one is sent the lookup, and so still earns
    /// the timeouts and strikes that evict a dead successor.
    fn resolved_by_stabilization(&self, key: Id) -> Option<FingerInfo> {
        let succ = self.table.successor()?;
        let fof = self.succ_fof.filter(|f| f.node == succ)?;
        let fresh = self.heard_within(succ.id, self.cfg.stabilize_ms);
        (fresh && self.cfg.space.in_open_closed(key, self.me().id, succ.id)).then_some(fof)
    }

    /// Has the failure detector heard `peer` within the last `ms`?
    fn heard_within(&self, peer: Id, ms: u64) -> bool {
        self.health
            .last_heard(peer)
            .is_some_and(|h| self.now_ms.saturating_sub(h) <= ms)
    }

    /// Probe one remembered fallen peer per firing (round-robin). A Pong
    /// from it triggers a `Unify` neighborhood pull — the mechanism that
    /// re-merges two sub-rings after a network partition heals.
    fn probe_fallen(&mut self, out: &mut Vec<Output>) {
        let Some((node, budget)) = self.fallen.pop_front() else {
            return;
        };
        let req = self.fresh_req();
        let msg = ChordMsg::Ping {
            req,
            sender: self.me(),
        };
        self.send_tracked(out, node, msg, req, Pending::FallenProbe);
        if budget > 1 {
            self.fallen.push_back((node, budget - 1));
        }
    }

    /// Adaptive keepalive: ping the routing-table neighbor the detector
    /// has heard from least recently (one per `CheckPredecessor` round,
    /// only when its silence exceeds the keepalive bar). Regular protocol
    /// chatter keeps busy links fed; this covers the quiet ones so the
    /// phi estimate never starves — a peer the detector cannot hear is a
    /// peer it cannot clear.
    fn keepalive_probe(&mut self, out: &mut Vec<Output>) {
        let me = self.me().id;
        let mut neigh: Vec<NodeRef> = Vec::new();
        let push = |n: NodeRef, neigh: &mut Vec<NodeRef>| {
            if n.id != me && !neigh.iter().any(|x| x.id == n.id) {
                neigh.push(n);
            }
        };
        for s in self.table.successor_list() {
            push(*s, &mut neigh);
        }
        if let Some(p) = self.table.predecessor() {
            push(p, &mut neigh);
        }
        for (_, fi) in self.table.runs() {
            push(fi.node, &mut neigh);
        }
        let ids: Vec<Id> = neigh.iter().map(|n| n.id).collect();
        if let Some(target) = self.health.stalest(&ids, self.now_ms) {
            if let Some(&r) = neigh.iter().find(|n| n.id == target) {
                let req = self.fresh_req();
                let msg = ChordMsg::Ping {
                    req,
                    sender: self.me(),
                };
                self.send_tracked(out, r, msg, req, Pending::PingNode);
            }
        }
    }

    /// Remember a timeout-evicted peer so the ring can unify again if it
    /// (or the path to it) comes back. Deduplicated, FIFO-bounded.
    fn remember_fallen(&mut self, node: NodeRef) {
        if node.id == self.me().id || self.fallen.iter().any(|(n, _)| n.id == node.id) {
            return;
        }
        if self.fallen.len() == FALLEN_CAP {
            self.fallen.pop_front();
        }
        self.fallen.push_back((node, FALLEN_PROBES));
    }

    /// Request `req` reached its deadline unanswered.
    fn on_req_timeout(&mut self, req: ReqId, out: &mut Vec<Output>) {
        // Not `untrack`: no RTT sample from a timeout.
        let Some(mut o) = self.outstanding.remove(req) else {
            return;
        };
        // Retransmit the identical datagram to the identical first hop
        // while the retry budget lasts, doubling the timeout each round.
        if o.attempts <= self.cfg.max_retries {
            o.attempts += 1;
            o.rto_ms = (o.rto_ms * 2).min(self.cfg.rto_max_ms);
            self.set_deadline(&mut o);
            let (to, msg, o_kind) = (o.to, o.msg.clone(), o.kind);
            self.outstanding.insert(req, o);
            self.metrics.retransmits += 1;
            if o_kind == Pending::AppProbe {
                self.metrics.inc("probe_retries_total");
            }
            self.send(out, to, msg);
            return;
        }
        let (kind, to) = (o.kind, o.to);
        // Suspect the node that failed to answer. Two consecutive strikes
        // are required before eviction so a single lost datagram on a lossy
        // network cannot tear down a live neighbor; stabilization relearns
        // a genuinely-alive successor and the arc up to it, finger lookups
        // relearn the fingers beyond it.
        if kind.suspects_target() {
            let dead = to.id;
            // Hard evidence for the failure detector: the full retry
            // budget burned with no reply. Not for a peer the detector has
            // forgotten and nothing holds any more (one that said goodbye
            // while this request was out): the miss would re-create it.
            if self.health.last_heard(dead).is_some() || self.holds(dead) {
                self.health.miss(dead, self.now_ms);
            }
            if self.strikes.add(dead) >= 2 {
                self.strikes.clear(dead);
                if self.table.evict(dead) {
                    self.remember_fallen(to);
                    out.push(Output::Upcall(Upcall::NeighborhoodChanged));
                }
            }
        }
        self.metrics.timeouts += 1;
        match kind {
            Pending::JoinFindAnchor | Pending::ProbeJoin | Pending::JoinFindSuccessor => {
                self.join_attempts += 1;
                if self.join_attempts >= self.cfg.max_join_retries {
                    out.push(Output::Upcall(Upcall::JoinFailed));
                } else {
                    self.begin_join_attempt(out);
                }
            }
            // Stabilize / predecessor-ping targets were already evicted by
            // the generic suspicion above (`send_tracked` marks both kinds
            // for it); the successor list/notify machinery re-links.
            Pending::Stabilize | Pending::PingPred => {}
            Pending::Lookup => out.push(Output::Upcall(Upcall::LookupFailed { req })),
            // The generic suspect-eviction above already handled the target.
            Pending::PingNode | Pending::AppProbe => {}
            Pending::FixFinger(_) | Pending::FofRefresh(_) => {}
            // Fallen peers are not table members; silence is the expected
            // outcome until a partition heals. The last probe of a spent
            // budget unanswered, the peer is tracked nowhere any more.
            Pending::FallenProbe => self.forget_if_untracked(to.id),
            Pending::Unify => {}
        }
    }

    /// Drop `peer`'s failure-detector state when neither the routing table
    /// nor the fallen queue holds it. Eviction into the fallen queue keeps
    /// it: flap damping and the rejoin path read that history.
    fn forget_if_untracked(&mut self, peer: Id) {
        if !self.holds(peer) {
            self.health.forget(peer);
        }
    }

    /// Does the routing table or the fallen queue hold `peer`?
    fn holds(&self, peer: Id) -> bool {
        self.fallen.iter().any(|(n, _)| n.id == peer)
            || self.table.known_nodes().iter().any(|n| n.id == peer)
    }

    fn on_message(&mut self, from: NodeAddr, msg: ChordMsg, out: &mut Vec<Output>) {
        let _ = from;
        // Any message that names its direct sender doubles as a heartbeat
        // for the phi-accrual detector — the "every ack/reply the RTO
        // machinery observes" feed, plus unsolicited traffic for free.
        // (FindSuccessor/Route carry an *origin*, which may be several
        // forwarding hops away; those are not direct evidence.)
        let heard = match &msg {
            ChordMsg::GetNeighbors { sender, .. }
            | ChordMsg::Notify { sender }
            | ChordMsg::Ping { sender, .. }
            | ChordMsg::Pong { sender, .. }
            | ChordMsg::StatsRequest { sender, .. }
            | ChordMsg::StatsReply { sender, .. } => Some(*sender),
            ChordMsg::Neighbors { me, .. } => Some(*me),
            ChordMsg::FoundSuccessor { owner, .. } => Some(*owner),
            ChordMsg::App { from, .. } | ChordMsg::ProbedApp { from, .. } => Some(*from),
            _ => None,
        };
        if let Some(p) = heard {
            if p.id != self.me().id {
                self.health.heartbeat(p.id, self.now_ms);
            }
        }
        match msg {
            ChordMsg::FindSuccessor {
                req,
                key,
                origin,
                hops,
            } => self.on_find_successor(req, key, origin, hops, out),
            ChordMsg::FoundSuccessor {
                req,
                owner,
                owner_pred,
                owner_succ,
                hops,
            } => self.on_found_successor(req, owner, owner_pred, owner_succ, hops, out),
            ChordMsg::GetNeighbors { req, sender } => {
                let reply = ChordMsg::Neighbors {
                    req,
                    me: self.me(),
                    pred: self.table.predecessor(),
                    succ_list: self.table.successor_list().to_vec(),
                };
                self.send(out, sender, reply);
            }
            ChordMsg::Neighbors {
                req,
                me: responder,
                pred,
                succ_list,
            } => self.on_neighbors(req, responder, pred, succ_list, out),
            ChordMsg::Notify { sender } => {
                let mut changed = self.table.notify(sender);
                // Bootstrap case: a lone ring creator adopts its first
                // notifier as successor.
                if self.table.successor().is_none() {
                    self.table.set_successor(sender);
                    changed = true;
                }
                if changed {
                    out.push(Output::Upcall(Upcall::NeighborhoodChanged));
                }
            }
            ChordMsg::Ping { req, sender } => {
                let reply = ChordMsg::Pong {
                    req,
                    sender: self.me(),
                };
                self.send(out, sender, reply);
            }
            ChordMsg::Pong { req, sender } => {
                self.strikes.clear(sender.id);
                if self
                    .outstanding
                    .get(req)
                    .is_some_and(|o| o.kind == Pending::AppProbe && o.attempts > 1)
                {
                    self.metrics.inc("probe_retry_pongs_total");
                }
                if self.untrack(req) == Some(Pending::FallenProbe) {
                    // A previously-evicted peer answered: whatever cut it
                    // off has healed. Pull its neighborhood to re-merge
                    // the (possibly severed) rings.
                    self.fallen.retain(|(n, _)| n.id != sender.id);
                    let req = self.fresh_req();
                    let msg = ChordMsg::GetNeighbors {
                        req,
                        sender: self.me(),
                    };
                    self.send_tracked(out, sender, msg, req, Pending::Unify);
                }
            }
            ChordMsg::ProbeJoin { req, origin } => {
                let designated = self.designate_id();
                let reply = ChordMsg::ProbeJoinReply { req, designated };
                self.send(out, origin, reply);
            }
            ChordMsg::ProbeJoinReply { req, designated } => {
                if self.untrack(req) != Some(Pending::ProbeJoin) {
                    return;
                }
                self.adopt_id(designated);
                let bootstrap = self.bootstrap.expect("probing join without bootstrap");
                let req = self.fresh_req();
                let msg = ChordMsg::FindSuccessor {
                    req,
                    key: self.me().id,
                    origin: self.me(),
                    hops: 0,
                };
                self.send_tracked(out, bootstrap, msg, req, Pending::JoinFindSuccessor);
            }
            ChordMsg::LeaveToPred { leaver, succ_list } => {
                // A peer that said goodbye is nobody's to watch any more.
                self.health.forget(leaver.id);
                if self.table.successor().map(|s| s.id) == Some(leaver.id) {
                    self.table.evict(leaver.id);
                    self.table.set_successor_list(succ_list);
                    out.push(Output::Upcall(Upcall::NeighborhoodChanged));
                } else {
                    self.table.evict(leaver.id);
                }
            }
            ChordMsg::LeaveToSucc { leaver, pred } => {
                self.health.forget(leaver.id);
                if self.table.predecessor().map(|p| p.id) == Some(leaver.id) {
                    self.table.evict(leaver.id);
                    self.table
                        .set_predecessor(pred.filter(|p| p.id != self.me().id));
                    out.push(Output::Upcall(Upcall::NeighborhoodChanged));
                } else {
                    self.table.evict(leaver.id);
                }
            }
            ChordMsg::Route {
                key,
                payload,
                origin,
                hops,
            } => {
                if hops >= MAX_HOPS {
                    self.metrics.dropped += 1;
                    return;
                }
                if self.owns(key) {
                    self.metrics.observe("route_hops", hops as u64);
                    self.metrics
                        .trace(self.now_ms, 0, ObsEventKind::RouteHop { key: key.0, hops });
                    out.push(Output::Upcall(Upcall::Routed {
                        key,
                        payload,
                        origin,
                        hops,
                    }));
                } else if let Some(next) = self.next_hop(key) {
                    let fwd = ChordMsg::Route {
                        key,
                        payload,
                        origin,
                        hops: hops + 1,
                    };
                    self.send(out, next, fwd);
                } else {
                    self.metrics.dropped += 1;
                }
            }
            ChordMsg::App {
                proto,
                from,
                payload,
            } => {
                out.push(Output::Upcall(Upcall::AppMessage {
                    proto,
                    from,
                    payload,
                }));
            }
            // Liveness is the node's: the pong goes out even if the layer
            // above sheds the payload.
            ChordMsg::ProbedApp {
                req,
                proto,
                from,
                payload,
            } => {
                let reply = ChordMsg::Pong {
                    req,
                    sender: self.me(),
                };
                self.send(out, from, reply);
                out.push(Output::Upcall(Upcall::AppMessage {
                    proto,
                    from,
                    payload,
                }));
            }
            ChordMsg::StatsRequest { req, sender } => {
                out.push(Output::Upcall(Upcall::StatsRequested { req, from: sender }));
            }
            ChordMsg::StatsReply { req, sender, text } => {
                out.push(Output::Upcall(Upcall::StatsReceived {
                    req,
                    from: sender,
                    text,
                }));
            }
        }
    }

    fn on_find_successor(
        &mut self,
        req: ReqId,
        key: Id,
        origin: NodeRef,
        hops: u32,
        out: &mut Vec<Output>,
    ) {
        if hops >= MAX_HOPS {
            self.metrics.dropped += 1;
            return;
        }
        if self.status != NodeStatus::Active {
            // Joining nodes cannot serve lookups; origin will retry.
            self.metrics.dropped += 1;
            return;
        }
        if self.owns(key) {
            let reply = ChordMsg::FoundSuccessor {
                req,
                owner: self.me(),
                owner_pred: self.table.predecessor(),
                owner_succ: self.table.successor(),
                hops,
            };
            self.send(out, origin, reply);
            return;
        }
        match self.next_hop(key) {
            Some(next) => {
                let fwd = ChordMsg::FindSuccessor {
                    req,
                    key,
                    origin,
                    hops: hops + 1,
                };
                self.send(out, next, fwd);
            }
            None => self.metrics.dropped += 1,
        }
    }

    fn on_found_successor(
        &mut self,
        req: ReqId,
        owner: NodeRef,
        owner_pred: Option<NodeRef>,
        owner_succ: Option<NodeRef>,
        hops: u32,
        out: &mut Vec<Output>,
    ) {
        self.strikes.clear(owner.id);
        let Some(kind) = self.untrack(req) else {
            return; // late reply, already timed out
        };
        match kind {
            Pending::JoinFindAnchor => {
                // Probe the anchor's owner for a designated identifier.
                let req = self.fresh_req();
                let msg = ChordMsg::ProbeJoin {
                    req,
                    origin: self.me(),
                };
                self.send_tracked(out, owner, msg, req, Pending::ProbeJoin);
            }
            Pending::JoinFindSuccessor => {
                if owner.id == self.me().id {
                    // Identifier collision: re-draw by perturbing ours.
                    let new_id = self.cfg.space.add(self.me().id, 1);
                    self.adopt_id(new_id);
                    self.join_attempts += 1;
                    if self.join_attempts >= self.cfg.max_join_retries {
                        out.push(Output::Upcall(Upcall::JoinFailed));
                    } else {
                        self.begin_join_attempt(out);
                    }
                    return;
                }
                self.table.set_successor(owner);
                if let Some(p) = owner_pred {
                    // Tentative predecessor hint; stabilization will verify.
                    self.table.notify(p);
                }
                let _ = owner_succ;
                self.status = NodeStatus::Active;
                self.arm_periodic(out);
                let notify = ChordMsg::Notify { sender: self.me() };
                self.send(out, owner, notify);
                out.push(Output::Upcall(Upcall::Joined { id: self.me().id }));
            }
            Pending::FixFinger(j) => {
                let info = FingerInfo {
                    node: owner,
                    pred: owner_pred,
                    succ: owner_succ,
                };
                self.table.set_finger(j, info);
            }
            Pending::Lookup => {
                self.metrics.observe("route_hops", hops as u64);
                out.push(Output::Upcall(Upcall::LookupDone {
                    req,
                    owner,
                    owner_pred,
                    hops,
                }));
            }
            // A FoundSuccessor can never answer these.
            Pending::ProbeJoin
            | Pending::Stabilize
            | Pending::FofRefresh(_)
            | Pending::PingPred
            | Pending::PingNode
            | Pending::AppProbe
            | Pending::FallenProbe
            | Pending::Unify => {}
        }
    }

    fn on_neighbors(
        &mut self,
        req: ReqId,
        responder: NodeRef,
        pred: Option<NodeRef>,
        succ_list: Vec<NodeRef>,
        out: &mut Vec<Output>,
    ) {
        self.strikes.clear(responder.id);
        let Some(kind) = self.untrack(req) else {
            return;
        };
        match kind {
            Pending::Stabilize => {
                self.succ_fof = Some(FingerInfo {
                    node: responder,
                    pred,
                    succ: succ_list.first().copied(),
                });
                let space = self.cfg.space;
                let me = self.me();
                let settled = pred.is_some_and(|p| p.id == me.id) && !succ_list.is_empty();
                let mut changed = false;
                // Rule: if succ.pred ∈ (me, succ) it is a closer successor.
                if let Some(x) = pred {
                    if x.id != me.id
                        && self
                            .table
                            .successor()
                            .is_some_and(|s| space.in_open_open(x.id, me.id, s.id))
                    {
                        self.table.set_successor(x);
                        changed = true;
                    }
                }
                if self.table.successor().map(|s| s.id) == Some(responder.id) {
                    // Adopt the responder's list shifted under it.
                    let mut list = vec![responder];
                    list.extend(succ_list);
                    self.table.set_successor_list(list);
                }
                // Notify only with news: a successor whose reply already
                // names us as its predecessor, and has a successor of its
                // own, would change nothing on it.
                if let Some(s) = self
                    .table
                    .successor()
                    .filter(|s| s.id != responder.id || !settled)
                {
                    let notify = ChordMsg::Notify { sender: me };
                    self.send(out, s, notify);
                }
                if changed {
                    out.push(Output::Upcall(Upcall::NeighborhoodChanged));
                }
            }
            Pending::FofRefresh(j)
                if self.table.finger(j).map(|f| f.node.id) == Some(responder.id) =>
            {
                let info = FingerInfo {
                    node: responder,
                    pred,
                    succ: succ_list.first().copied(),
                };
                self.table.set_finger(j, info);
            }
            Pending::FofRefresh(_) => {}
            Pending::Unify => {
                // Ring unification after a heal: fold the risen peer's
                // neighborhood into ours. Any candidate strictly between us
                // and our current successor is a closer successor (or, with
                // no successor at all, a way back into a ring); each is also
                // offered to the notify rule as a potential predecessor.
                // Stabilization then walks both sub-rings back into one.
                let space = self.cfg.space;
                let me = self.me();
                let mut changed = false;
                let mut cands: Vec<NodeRef> = Vec::with_capacity(succ_list.len() + 2);
                cands.push(responder);
                cands.extend(pred);
                cands.extend(succ_list.iter().copied());
                for c in cands {
                    if c.id == me.id {
                        continue;
                    }
                    let closer = match self.table.successor() {
                        None => true,
                        Some(s) => space.in_open_open(c.id, me.id, s.id),
                    };
                    if closer {
                        self.table.set_successor(c);
                        changed = true;
                    }
                    changed |= self.table.notify(c);
                }
                if let Some(s) = self.table.successor() {
                    let notify = ChordMsg::Notify { sender: me };
                    self.send(out, s, notify);
                }
                if changed {
                    out.push(Output::Upcall(Upcall::NeighborhoodChanged));
                }
            }
            _ => {}
        }
    }

    /// Identifier-probing designation (§3.5): the [`probing::designate`]
    /// rule over our own gap, then each finger's as its FOF data knows it.
    /// Without a predecessor our own arc is unknown, so we split the circle
    /// opposite ourselves.
    fn designate_id(&self) -> Id {
        let space = self.cfg.space;
        let me = self.me().id;
        let opposite = space.add(me, (space.size() / 2) as u64);
        let Some(pred) = self.table.predecessor() else {
            return opposite;
        };
        let fingers = self
            .table
            .iter()
            .filter_map(|(_, fi)| fi.pred.map(|p| (p.id, fi.node.id)));
        probing::designate(space, std::iter::once((pred.id, me)).chain(fingers)).unwrap_or(opposite)
    }

    fn adopt_id(&mut self, id: Id) {
        let addr = self.me().addr;
        let me = NodeRef::new(self.cfg.space.id(id.raw()), addr);
        self.replace_table(FingerTable::new(self.cfg.space, me, self.cfg.succ_list_len));
    }

    /// Swap the whole routing table; its change counter carries on from the
    /// old one's, so nothing stamped against the old table reads as current.
    fn replace_table(&mut self, mut table: FingerTable) {
        table.supersede(self.table.version());
        self.table = table;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg4() -> ChordConfig {
        ChordConfig {
            space: IdSpace::new(4),
            succ_list_len: 3,
            ..ChordConfig::default()
        }
    }

    fn node(id: u64) -> ChordNode {
        ChordNode::new(cfg4(), Id(id), NodeAddr(id))
    }

    /// A node with retransmission disabled: a request's first deadline is
    /// final, which is what the failure-suspicion tests below drive by hand.
    fn node_no_retry(id: u64) -> ChordNode {
        let cfg = ChordConfig {
            max_retries: 0,
            ..cfg4()
        };
        ChordNode::new(cfg, Id(id), NodeAddr(id))
    }

    /// The input a host delivers at `req`'s deadline: every request due
    /// by then times out before the input itself runs.
    fn time_out(n: &mut ChordNode, req: ReqId) -> Vec<Output> {
        let due = n.outstanding.get(req).unwrap().deadline_ms;
        n.handle_at(Input::Timer(TimerKind::ReqDeadline(due)), due)
    }

    fn sends(out: &[Output]) -> Vec<(&NodeRef, &ChordMsg)> {
        out.iter()
            .filter_map(|o| match o {
                Output::Send { to, msg } => Some((to, msg)),
                _ => None,
            })
            .collect()
    }

    fn upcalls(out: &[Output]) -> Vec<&Upcall> {
        out.iter()
            .filter_map(|o| match o {
                Output::Upcall(u) => Some(u),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn create_becomes_active_root_of_everything() {
        let mut n = node(5);
        let out = n.start_create();
        assert_eq!(n.status(), NodeStatus::Active);
        assert!(matches!(upcalls(&out)[0], Upcall::Joined { id } if *id == Id(5)));
        assert!(n.owns(Id(0)));
        assert!(n.owns(Id(15)));
        // Three periodic timers armed.
        let timers = out
            .iter()
            .filter(|o| matches!(o, Output::SetTimer { .. }))
            .count();
        assert_eq!(timers, 3);
    }

    #[test]
    fn join_handshake_two_nodes() {
        let mut a = node(2);
        let _ = a.start_create();
        let mut b = node(9);
        let out = b.start_join(a.me());
        let (to, msg) = sends(&out)[0];
        assert_eq!(to.id, Id(2));
        // a serves the lookup: b's key 9 ∈ (pred, a]? a is alone, owns all.
        let reply_out = a.handle(Input::Message {
            from: b.me().addr,
            msg: msg.clone(),
        });
        let (to, reply) = sends(&reply_out)[0];
        assert_eq!(to.id, Id(9));
        assert!(matches!(reply, ChordMsg::FoundSuccessor { owner, .. } if owner.id == Id(2)));
        // b completes the join and notifies a.
        let out = b.handle(Input::Message {
            from: a.me().addr,
            msg: reply.clone(),
        });
        assert_eq!(b.status(), NodeStatus::Active);
        assert_eq!(b.table().successor().unwrap().id, Id(2));
        let notify = sends(&out)
            .into_iter()
            .find(|(_, m)| matches!(m, ChordMsg::Notify { .. }))
            .unwrap();
        // a adopts b as predecessor AND as first successor.
        let _ = a.handle(Input::Message {
            from: b.me().addr,
            msg: notify.1.clone(),
        });
        assert_eq!(a.table().predecessor().unwrap().id, Id(9));
        assert_eq!(a.table().successor().unwrap().id, Id(9));
        // One stabilization round: a asks b for neighbors, then notifies b,
        // which completes b's predecessor link.
        let out = a.handle(Input::Timer(TimerKind::Stabilize));
        let (to, gn) = sends(&out)
            .into_iter()
            .find(|(_, m)| matches!(m, ChordMsg::GetNeighbors { .. }))
            .unwrap();
        assert_eq!(to.id, Id(9));
        let out = b.handle(Input::Message {
            from: a.me().addr,
            msg: gn.clone(),
        });
        let neighbors = sends(&out)[0].1.clone();
        let out = a.handle(Input::Message {
            from: b.me().addr,
            msg: neighbors,
        });
        let notify_b = sends(&out)
            .into_iter()
            .find(|(_, m)| matches!(m, ChordMsg::Notify { .. }))
            .unwrap()
            .1
            .clone();
        let _ = b.handle(Input::Message {
            from: a.me().addr,
            msg: notify_b,
        });
        assert_eq!(b.table().predecessor().unwrap().id, Id(2));
        // Ownership is now split.
        assert!(a.owns(Id(0)));
        assert!(!a.owns(Id(5)));
        assert!(b.owns(Id(5)));
    }

    #[test]
    fn find_successor_forwards_greedily() {
        let mut n = node(0);
        let _ = n.start_create();
        // Give node 0 a populated table on the full 16-ring.
        n.table
            .set_predecessor(Some(NodeRef::new(Id(15), NodeAddr(15))));
        for j in 1..=4u8 {
            let t = n.cfg.space.finger_start(Id(0), j);
            n.table
                .set_finger(j, FingerInfo::bare(NodeRef::new(t, NodeAddr(t.raw()))));
        }
        let out = n.handle(Input::Message {
            from: NodeAddr(3),
            msg: ChordMsg::FindSuccessor {
                req: 77,
                key: Id(13),
                origin: NodeRef::new(Id(3), NodeAddr(3)),
                hops: 1,
            },
        });
        let (to, msg) = sends(&out)[0];
        assert_eq!(to.id, Id(8)); // closest preceding finger of 13
        assert!(matches!(msg, ChordMsg::FindSuccessor { hops: 2, .. }));
    }

    #[test]
    fn owner_replies_with_fof_data() {
        let mut n = node(10);
        let _ = n.start_create();
        n.table
            .set_predecessor(Some(NodeRef::new(Id(4), NodeAddr(4))));
        n.table.set_successor(NodeRef::new(Id(14), NodeAddr(14)));
        let out = n.handle(Input::Message {
            from: NodeAddr(4),
            msg: ChordMsg::FindSuccessor {
                req: 5,
                key: Id(7),
                origin: NodeRef::new(Id(4), NodeAddr(4)),
                hops: 2,
            },
        });
        let (_, msg) = sends(&out)[0];
        match msg {
            ChordMsg::FoundSuccessor {
                owner,
                owner_pred,
                owner_succ,
                hops,
                ..
            } => {
                assert_eq!(owner.id, Id(10));
                assert_eq!(owner_pred.unwrap().id, Id(4));
                assert_eq!(owner_succ.unwrap().id, Id(14));
                assert_eq!(*hops, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stabilize_adopts_closer_successor() {
        let mut n = node(0);
        let _ = n.start_create();
        n.table.set_successor(NodeRef::new(Id(8), NodeAddr(8)));
        let out = n.handle(Input::Timer(TimerKind::Stabilize));
        let (to, msg) = sends(&out)[0];
        assert_eq!(to.id, Id(8));
        let req = match msg {
            ChordMsg::GetNeighbors { req, .. } => *req,
            other => panic!("unexpected {other:?}"),
        };
        // 8 answers: its predecessor is 3 (∈ (0, 8)) — adopt.
        let out = n.handle(Input::Message {
            from: NodeAddr(8),
            msg: ChordMsg::Neighbors {
                req,
                me: NodeRef::new(Id(8), NodeAddr(8)),
                pred: Some(NodeRef::new(Id(3), NodeAddr(3))),
                succ_list: vec![NodeRef::new(Id(12), NodeAddr(12))],
            },
        });
        assert_eq!(n.table().successor().unwrap().id, Id(3));
        // Notify goes to the *new* successor.
        let notify = sends(&out)
            .into_iter()
            .find(|(_, m)| matches!(m, ChordMsg::Notify { .. }))
            .unwrap();
        assert_eq!(notify.0.id, Id(3));
        assert!(upcalls(&out)
            .iter()
            .any(|u| matches!(u, Upcall::NeighborhoodChanged)));
    }

    /// One stabilization round of node 0 against successor 8, answered
    /// with `pred` and `succ_list`; returns who was notified.
    fn notified_after_stabilize(pred: Option<u64>, succ_list: &[u64]) -> Vec<Id> {
        let at = |id: u64| NodeRef::new(Id(id), NodeAddr(id));
        let mut n = node(0);
        let _ = n.start_create();
        n.table.set_successor(at(8));
        let out = n.handle(Input::Timer(TimerKind::Stabilize));
        let req = match sends(&out)[0].1 {
            ChordMsg::GetNeighbors { req, .. } => *req,
            other => panic!("unexpected {other:?}"),
        };
        let out = n.handle(Input::Message {
            from: NodeAddr(8),
            msg: ChordMsg::Neighbors {
                req,
                me: at(8),
                pred: pred.map(at),
                succ_list: succ_list.iter().map(|&id| at(id)).collect(),
            },
        });
        sends(&out)
            .into_iter()
            .filter(|(_, m)| matches!(m, ChordMsg::Notify { .. }))
            .map(|(to, _)| to.id)
            .collect()
    }

    /// A stabilization notifies only when the notify can change something:
    /// the successor's reply names another predecessor or none, or the
    /// successor is one just adopted. A reply that names us already says
    /// what the notify would.
    #[test]
    fn stabilize_notifies_only_with_news() {
        assert_eq!(notified_after_stabilize(Some(0), &[12]), vec![]);
        // 12 is not between 0 and 8: 8 keeps it, and learns of us.
        assert_eq!(notified_after_stabilize(Some(12), &[12]), vec![Id(8)]);
        assert_eq!(notified_after_stabilize(None, &[12]), vec![Id(8)]);
        // 3 lies between 0 and 8: it is adopted and told.
        assert_eq!(notified_after_stabilize(Some(3), &[12]), vec![Id(3)]);
        // A successor with no successor of its own adopts its notifier.
        assert_eq!(notified_after_stabilize(Some(0), &[]), vec![Id(8)]);
    }

    /// The predecessor is pinged only once the detector has not heard it
    /// for `check_pred_ms`: its own stabilization is the heartbeat.
    #[test]
    fn a_predecessor_is_pinged_only_when_it_has_gone_quiet() {
        let (pred, succ) = (
            NodeRef::new(Id(12), NodeAddr(12)),
            NodeRef::new(Id(4), NodeAddr(4)),
        );
        let mut n = node(0);
        let _ = n.start_create();
        n.table.set_successor(succ);
        n.table.set_predecessor(Some(pred));
        let pings_to_pred = |out: &[Output]| {
            sends(out)
                .into_iter()
                .filter(|(to, m)| to.id == pred.id && matches!(m, ChordMsg::Ping { .. }))
                .count()
        };
        // Its stabilization reaches us: no ping for one round.
        let _ = n.handle_at(
            Input::Message {
                from: pred.addr,
                msg: ChordMsg::GetNeighbors {
                    req: 1,
                    sender: pred,
                },
            },
            2_000,
        );
        let check_pred_ms = n.cfg.check_pred_ms;
        let out = n.handle_at(
            Input::Timer(TimerKind::CheckPredecessor),
            2_000 + check_pred_ms,
        );
        assert_eq!(pings_to_pred(&out), 0, "heard within check_pred_ms");
        // Silent past it: pinged.
        let out = n.handle_at(
            Input::Timer(TimerKind::CheckPredecessor),
            2_001 + check_pred_ms,
        );
        assert_eq!(pings_to_pred(&out), 1, "silent past check_pred_ms");
    }

    /// A predecessor that stops talking is pinged every round from the
    /// first one past `check_pred_ms`, and two unanswered pings evict it.
    #[test]
    fn a_silent_predecessor_is_evicted_after_two_unanswered_pings() {
        let pred = NodeRef::new(Id(12), NodeAddr(12));
        let mut n = node_no_retry(0);
        let _ = n.start_create();
        n.table.set_successor(NodeRef::new(Id(4), NodeAddr(4)));
        n.table.set_predecessor(Some(pred));
        let _ = n.handle_at(
            Input::Message {
                from: pred.addr,
                msg: ChordMsg::GetNeighbors {
                    req: 1,
                    sender: pred,
                },
            },
            1_000,
        );
        for round in 1..=2 {
            assert_eq!(n.table().predecessor(), Some(pred), "round {round}");
            let now = n.now_ms + n.cfg.check_pred_ms + 1;
            let out = n.handle_at(Input::Timer(TimerKind::CheckPredecessor), now);
            let req = sends(&out)
                .into_iter()
                .find_map(|(to, m)| match m {
                    ChordMsg::Ping { req, .. } if to.id == pred.id => Some(*req),
                    _ => None,
                })
                .expect("the silent predecessor is pinged");
            let _ = time_out(&mut n, req);
        }
        assert_eq!(n.table().predecessor(), None);
    }

    #[test]
    fn stabilize_timeout_fails_over_to_list() {
        let mut n = node_no_retry(0);
        let _ = n.start_create();
        n.table.set_successor_list(vec![
            NodeRef::new(Id(4), NodeAddr(4)),
            NodeRef::new(Id(8), NodeAddr(8)),
        ]);
        // First timeout: the successor is merely suspected (one strike) —
        // a single lost datagram must not tear down a live neighbor.
        let out = n.handle(Input::Timer(TimerKind::Stabilize));
        let req = match sends(&out)[0].1 {
            ChordMsg::GetNeighbors { req, .. } => *req,
            other => panic!("unexpected {other:?}"),
        };
        let _ = time_out(&mut n, req);
        assert_eq!(
            n.table().successor().unwrap().id,
            Id(4),
            "one strike keeps it"
        );
        // Second consecutive timeout: evicted, list fails over.
        let out = n.handle(Input::Timer(TimerKind::Stabilize));
        let req = match sends(&out)[0].1 {
            ChordMsg::GetNeighbors { req, .. } => *req,
            other => panic!("unexpected {other:?}"),
        };
        let out = time_out(&mut n, req);
        assert_eq!(n.table().successor().unwrap().id, Id(8));
        assert!(upcalls(&out)
            .iter()
            .any(|u| matches!(u, Upcall::NeighborhoodChanged)));
        assert_eq!(n.metrics().timeouts, 2);
    }

    #[test]
    fn reply_clears_suspicion_strikes() {
        let mut n = node_no_retry(0);
        let _ = n.start_create();
        n.table.set_successor_list(vec![
            NodeRef::new(Id(4), NodeAddr(4)),
            NodeRef::new(Id(8), NodeAddr(8)),
        ]);
        // Strike one.
        let out = n.handle(Input::Timer(TimerKind::Stabilize));
        let req = match sends(&out)[0].1 {
            ChordMsg::GetNeighbors { req, .. } => *req,
            other => panic!("unexpected {other:?}"),
        };
        let _ = time_out(&mut n, req);
        // The node answers the next round: strikes reset.
        let out = n.handle(Input::Timer(TimerKind::Stabilize));
        let req = match sends(&out)[0].1 {
            ChordMsg::GetNeighbors { req, .. } => *req,
            other => panic!("unexpected {other:?}"),
        };
        let _ = n.handle(Input::Message {
            from: NodeAddr(4),
            msg: ChordMsg::Neighbors {
                req,
                me: NodeRef::new(Id(4), NodeAddr(4)),
                pred: None,
                succ_list: vec![NodeRef::new(Id(8), NodeAddr(8))],
            },
        });
        // A later single timeout is again only one strike.
        let out = n.handle(Input::Timer(TimerKind::Stabilize));
        let req = match sends(&out)[0].1 {
            ChordMsg::GetNeighbors { req, .. } => *req,
            other => panic!("unexpected {other:?}"),
        };
        let _ = time_out(&mut n, req);
        assert_eq!(
            n.table().successor().unwrap().id,
            Id(4),
            "strikes were cleared"
        );
    }

    #[test]
    fn route_delivers_locally_when_owner() {
        let mut n = node(10);
        let _ = n.start_create();
        let out = n.route(Id(3), vec![1, 2, 3]);
        assert!(matches!(
            upcalls(&out)[0],
            Upcall::Routed { key, payload, .. } if *key == Id(3) && payload == &vec![1, 2, 3]
        ));
    }

    #[test]
    fn route_hop_budget_drops() {
        let mut n = node(0);
        let _ = n.start_create();
        n.table
            .set_predecessor(Some(NodeRef::new(Id(15), NodeAddr(15))));
        n.table.set_successor(NodeRef::new(Id(4), NodeAddr(4)));
        let out = n.handle(Input::Message {
            from: NodeAddr(15),
            msg: ChordMsg::Route {
                key: Id(6),
                payload: vec![].into(),
                origin: NodeRef::new(Id(15), NodeAddr(15)),
                hops: MAX_HOPS,
            },
        });
        assert!(out.is_empty());
        assert_eq!(n.metrics().dropped, 1);
    }

    #[test]
    fn graceful_leave_bridges_neighbors() {
        let mut n = node(8);
        let _ = n.start_create();
        n.table
            .set_predecessor(Some(NodeRef::new(Id(4), NodeAddr(4))));
        n.table.set_successor_list(vec![
            NodeRef::new(Id(12), NodeAddr(12)),
            NodeRef::new(Id(15), NodeAddr(15)),
        ]);
        let out = n.leave();
        assert_eq!(n.status(), NodeStatus::Departed);
        let s = sends(&out);
        assert_eq!(s.len(), 2);
        // Departed nodes ignore everything.
        let out = n.handle(Input::Timer(TimerKind::Stabilize));
        assert!(out.is_empty());

        // The predecessor bridges using the leaver's successor list.
        let mut p = node(4);
        let _ = p.start_create();
        p.table.set_successor(NodeRef::new(Id(8), NodeAddr(8)));
        let leave_msg = s
            .iter()
            .find(|(to, _)| to.id == Id(4))
            .map(|(_, m)| (*m).clone())
            .unwrap();
        let _ = p.handle(Input::Message {
            from: NodeAddr(8),
            msg: leave_msg,
        });
        assert_eq!(p.table().successor().unwrap().id, Id(12));
    }

    #[test]
    fn designate_id_splits_largest_known_gap() {
        let mut n = node(8);
        let _ = n.start_create();
        n.table
            .set_predecessor(Some(NodeRef::new(Id(7), NodeAddr(7))));
        // Finger 12 owns a gap of 4 (pred 8); finger 0 owns a gap of 2.
        n.table.set_finger(
            3,
            FingerInfo {
                node: NodeRef::new(Id(12), NodeAddr(12)),
                pred: Some(NodeRef::new(Id(8), NodeAddr(8))),
                succ: None,
            },
        );
        n.table.set_finger(
            4,
            FingerInfo {
                node: NodeRef::new(Id(0), NodeAddr(0)),
                pred: Some(NodeRef::new(Id(14), NodeAddr(14))),
                succ: None,
            },
        );
        // Largest gap is (8, 12]: midpoint 10.
        assert_eq!(n.designate_id(), Id(10));
    }

    /// The live probe answer and the static ring builder apply one rule: a
    /// node started with the converged table of `anchor` designates
    /// exactly what `StaticRing` designates for that anchor — ties
    /// included, which probed rings (gaps halved from one another) are
    /// full of.
    #[test]
    fn designate_id_matches_static_ring() {
        use crate::ring::{IdPolicy, StaticRing};
        use rand::SeedableRng;
        let cfg = ChordConfig {
            space: IdSpace::new(32),
            ..ChordConfig::default()
        };
        for policy in [IdPolicy::Random, IdPolicy::Probed] {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(29);
            let ring = StaticRing::build(cfg.space, 256, policy, &mut rng);
            for &anchor in ring.ids() {
                let mut n = ChordNode::new(cfg, anchor, NodeAddr(anchor.raw()));
                let _ = n.start_with_table(ring.table_of(anchor, cfg.succ_list_len));
                assert_eq!(
                    n.designate_id(),
                    ring.designate_at(anchor),
                    "{policy:?} ring, anchor {anchor}"
                );
            }
        }
    }

    #[test]
    fn lookup_to_self_completes_immediately() {
        let mut n = node(3);
        let _ = n.start_create();
        let (req, out) = n.lookup(Id(1));
        match upcalls(&out)[0] {
            Upcall::LookupDone {
                req: r,
                owner,
                hops,
                ..
            } => {
                assert_eq!(*r, req);
                assert_eq!(owner.id, Id(3));
                assert_eq!(*hops, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn collision_on_join_redraws() {
        let mut b = node(2);
        let out = b.start_join(NodeRef::new(Id(9), NodeAddr(9)));
        let req = match sends(&out)[0].1 {
            ChordMsg::FindSuccessor { req, .. } => *req,
            other => panic!("unexpected {other:?}"),
        };
        let out = b.handle(Input::Message {
            from: NodeAddr(9),
            msg: ChordMsg::FoundSuccessor {
                req,
                owner: NodeRef::new(Id(2), NodeAddr(7)), // same id, other node
                owner_pred: None,
                owner_succ: None,
                hops: 3,
            },
        });
        // Perturbed id and a fresh join attempt.
        assert_eq!(b.me().id, Id(3));
        assert!(sends(&out)
            .iter()
            .any(|(_, m)| matches!(m, ChordMsg::FindSuccessor { .. })));
    }

    #[test]
    fn timeout_retransmits_with_backoff_until_budget() {
        let mut n = node(0); // default cfg: max_retries = 2
        let _ = n.start_create();
        n.table.set_successor(NodeRef::new(Id(4), NodeAddr(4)));
        let out = n.handle(Input::Timer(TimerKind::Stabilize));
        let req = match sends(&out)[0].1 {
            ChordMsg::GetNeighbors { req, .. } => *req,
            other => panic!("unexpected {other:?}"),
        };
        // Two retransmissions of the identical datagram, backing off from
        // the 2 s initial timeout, then the request is declared failed.
        let mut sent_at = 0;
        for i in 1..=2u64 {
            let out = time_out(&mut n, req);
            assert_eq!(
                n.now_ms,
                sent_at + (2_000 << (i - 1)),
                "expired at its deadline"
            );
            sent_at = n.now_ms;
            let (to, msg) = sends(&out)[0];
            assert_eq!(to.id, Id(4));
            assert!(matches!(msg, ChordMsg::GetNeighbors { req: r, .. } if *r == req));
            assert_eq!(
                n.outstanding.get(req).unwrap().deadline_ms,
                sent_at + (2_000 << i)
            );
            assert_eq!(n.metrics().retransmits, i);
            assert_eq!(n.metrics().timeouts, 0, "not failed yet");
        }
        // Budget exhausted: the third expiry is final (one strike, no send).
        let out = time_out(&mut n, req);
        assert_eq!(n.now_ms, sent_at + 8_000);
        assert!(sends(&out).is_empty());
        assert_eq!(n.metrics().timeouts, 1);
        assert_eq!(
            n.table().successor().unwrap().id,
            Id(4),
            "first strike only"
        );
    }

    #[test]
    fn rtt_samples_adapt_rto_and_karn_filters_retransmitted() {
        let neighbors = |req| ChordMsg::Neighbors {
            req,
            me: NodeRef::new(Id(4), NodeAddr(4)),
            pred: None,
            succ_list: vec![NodeRef::new(Id(8), NodeAddr(8))],
        };
        let stabilize_req = |out: &[Output]| match sends(out)[0].1 {
            ChordMsg::GetNeighbors { req, .. } => *req,
            other => panic!("unexpected {other:?}"),
        };
        let mut n = node(0);
        let _ = n.start_create();
        n.table.set_successor(NodeRef::new(Id(4), NodeAddr(4)));
        assert_eq!(n.current_rto(), 2_000, "no sample yet: fixed timeout");
        // Exchange 1 completes in 100 ms: SRTT = 100, RTTVAR = 50,
        // RTO = 100 + 4·50 = 300 (above the 250 ms floor).
        let out = n.handle_at(Input::Timer(TimerKind::Stabilize), 0);
        let req = stabilize_req(&out);
        let _ = n.handle_at(
            Input::Message {
                from: NodeAddr(4),
                msg: neighbors(req),
            },
            100,
        );
        assert_eq!(n.srtt_ms(), Some(100.0));
        assert_eq!(n.current_rto(), 300);
        // Exchange 2 gets retransmitted; its late reply must not feed the
        // estimator (Karn's rule), however slow it was.
        let out = n.handle_at(Input::Timer(TimerKind::Stabilize), 1_000);
        let req2 = stabilize_req(&out);
        let out = n.handle_at(Input::Timer(TimerKind::ReqDeadline(1_300)), 1_300);
        assert_eq!(sends(&out).len(), 1, "retransmitted");
        let _ = n.handle_at(
            Input::Message {
                from: NodeAddr(4),
                msg: neighbors(req2),
            },
            5_000,
        );
        assert_eq!(n.srtt_ms(), Some(100.0), "ambiguous exchange not sampled");
        assert_eq!(n.current_rto(), 300);
    }

    #[test]
    fn fallen_peer_probe_unifies_ring_after_heal() {
        let mut n = node_no_retry(0);
        let _ = n.start_create();
        n.table.set_successor_list(vec![
            NodeRef::new(Id(4), NodeAddr(4)),
            NodeRef::new(Id(8), NodeAddr(8)),
        ]);
        // Two consecutive stabilize timeouts evict 4 into the fallen list.
        for _ in 0..2 {
            let out = n.handle(Input::Timer(TimerKind::Stabilize));
            let req = match sends(&out)[0].1 {
                ChordMsg::GetNeighbors { req, .. } => *req,
                other => panic!("unexpected {other:?}"),
            };
            let _ = time_out(&mut n, req);
        }
        assert_eq!(n.table().successor().unwrap().id, Id(8));
        // The next liveness round probes the fallen peer.
        let out = n.handle(Input::Timer(TimerKind::CheckPredecessor));
        let (to, msg) = sends(&out)[0];
        assert_eq!(to.id, Id(4));
        let req = match msg {
            ChordMsg::Ping { req, .. } => *req,
            other => panic!("unexpected {other:?}"),
        };
        // It answers — whatever cut it off has healed — so a unify
        // neighborhood pull goes out.
        let out = n.handle(Input::Message {
            from: NodeAddr(4),
            msg: ChordMsg::Pong {
                req,
                sender: NodeRef::new(Id(4), NodeAddr(4)),
            },
        });
        let (to, msg) = sends(&out)[0];
        assert_eq!(to.id, Id(4));
        let req = match msg {
            ChordMsg::GetNeighbors { req, .. } => *req,
            other => panic!("unexpected {other:?}"),
        };
        // Its neighborhood folds into ours: its predecessor 2 is a closer
        // successor for us, its successor 8 becomes our predecessor, and
        // the adopted successor is notified so stabilization can converge.
        let out = n.handle(Input::Message {
            from: NodeAddr(4),
            msg: ChordMsg::Neighbors {
                req,
                me: NodeRef::new(Id(4), NodeAddr(4)),
                pred: Some(NodeRef::new(Id(2), NodeAddr(2))),
                succ_list: vec![NodeRef::new(Id(8), NodeAddr(8))],
            },
        });
        assert_eq!(n.table().successor().unwrap().id, Id(2));
        assert_eq!(n.table().predecessor().unwrap().id, Id(8));
        let notify = sends(&out)
            .into_iter()
            .find(|(_, m)| matches!(m, ChordMsg::Notify { .. }))
            .unwrap();
        assert_eq!(notify.0.id, Id(2));
    }

    /// A leaver's goodbye drops it from the failure detector of the node
    /// it said goodbye to.
    #[test]
    fn a_leave_notice_forgets_the_leaver() {
        let mut n = node(0);
        let _ = n.start_create();
        let (pred, s4, s8) = (
            NodeRef::new(Id(12), NodeAddr(12)),
            NodeRef::new(Id(4), NodeAddr(4)),
            NodeRef::new(Id(8), NodeAddr(8)),
        );
        n.table.set_successor_list(vec![s4, s8]);
        n.table.set_predecessor(Some(pred));
        for sender in [pred, s4, s8] {
            let _ = n.handle(Input::Message {
                from: sender.addr,
                msg: ChordMsg::Notify { sender },
            });
        }
        let tracks = |n: &ChordNode, peer: NodeRef| n.health().peers().any(|(id, _)| id == peer.id);
        assert!([pred, s4, s8].iter().all(|&p| tracks(&n, p)));
        let _ = n.handle(Input::Message {
            from: pred.addr,
            msg: ChordMsg::LeaveToSucc {
                leaver: pred,
                pred: None,
            },
        });
        assert!(!tracks(&n, pred) && tracks(&n, s4));
        let _ = n.handle(Input::Message {
            from: s4.addr,
            msg: ChordMsg::LeaveToPred {
                leaver: s4,
                succ_list: vec![s8],
            },
        });
        assert!(!tracks(&n, s4) && tracks(&n, s8));
    }

    /// A peer evicted into the fallen queue keeps its detector history
    /// while the queue probes it, and loses it when the last probe of its
    /// budget goes unanswered.
    #[test]
    fn a_fallen_peer_is_forgotten_when_its_last_probe_goes_unanswered() {
        let mut n = node_no_retry(0);
        let _ = n.start_create();
        let (s4, s8) = (
            NodeRef::new(Id(4), NodeAddr(4)),
            NodeRef::new(Id(8), NodeAddr(8)),
        );
        n.table.set_successor_list(vec![s4, s8]);
        for _ in 0..2 {
            let out = n.handle(Input::Timer(TimerKind::Stabilize));
            let req = match sends(&out)[0].1 {
                ChordMsg::GetNeighbors { req, .. } => *req,
                other => panic!("unexpected {other:?}"),
            };
            let _ = time_out(&mut n, req);
        }
        assert_eq!(n.table().successor(), Some(s8));
        let tracks = |n: &ChordNode| n.health().peers().any(|(id, _)| id == s4.id);
        for probe in 1..=FALLEN_PROBES {
            assert!(tracks(&n), "forgotten before probe {probe}");
            let out = n.handle(Input::Timer(TimerKind::CheckPredecessor));
            let mut to_4 = None;
            for (to, msg) in sends(&out) {
                match msg {
                    ChordMsg::Ping { req, .. } if to.id == s4.id => to_4 = Some(*req),
                    // The live successor answers its keepalives.
                    ChordMsg::Ping { req, .. } => {
                        let _ = n.handle(Input::Message {
                            from: s8.addr,
                            msg: ChordMsg::Pong {
                                req: *req,
                                sender: s8,
                            },
                        });
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            let _ = time_out(&mut n, to_4.expect("the fallen peer is probed"));
        }
        assert!(!tracks(&n), "the spent budget left 4 in the detector");
    }

    #[test]
    fn metrics_track_sent_and_received() {
        let mut n = node(1);
        let _ = n.start_create();
        let _ = n.handle(Input::Message {
            from: NodeAddr(5),
            msg: ChordMsg::Ping {
                req: 9,
                sender: NodeRef::new(Id(5), NodeAddr(5)),
            },
        });
        assert_eq!(n.metrics().received_total(), 1);
        assert_eq!(n.metrics().sent_total(), 1); // the pong
    }

    /// Invariants the Karn/Jacobson estimator must hold for *any* sample
    /// sequence: SRTT stays finite and non-negative, RTTVAR stays finite
    /// and non-negative, and the armed RTO never escapes
    /// `[RTO_MIN_MS, rto_max_ms]`.
    fn assert_rto_invariants(n: &ChordNode, context: &str) {
        if let Some(srtt) = n.srtt_ms() {
            assert!(srtt.is_finite(), "{context}: SRTT not finite: {srtt}");
            assert!(srtt >= 0.0, "{context}: SRTT negative: {srtt}");
        }
        assert!(
            n.rttvar_ms.is_finite() && n.rttvar_ms >= 0.0,
            "{context}: RTTVAR bad: {}",
            n.rttvar_ms
        );
        let rto = n.current_rto();
        assert!(
            (RTO_MIN_MS..=n.cfg.rto_max_ms).contains(&rto),
            "{context}: RTO {rto} escaped [{}, {}]",
            RTO_MIN_MS,
            n.cfg.rto_max_ms
        );
    }

    #[test]
    fn rto_survives_all_zero_samples() {
        let mut n = node(1);
        for i in 0..64 {
            n.observe_rtt(0);
            assert_rto_invariants(&n, &format!("zero sample {i}"));
        }
        // Degenerate estimate clamps to the floor, not to zero.
        assert_eq!(n.current_rto(), RTO_MIN_MS);
    }

    #[test]
    fn rto_survives_huge_samples() {
        let mut n = node(1);
        for &s in &[u64::MAX, u64::MAX / 2, 1 << 60, u64::MAX] {
            n.observe_rtt(s);
            assert_rto_invariants(&n, &format!("huge sample {s}"));
        }
        // Astronomical estimates clamp to the ceiling.
        assert_eq!(n.current_rto(), n.cfg.rto_max_ms);
    }

    #[test]
    fn rto_survives_monotone_decreasing_samples() {
        let mut n = node(1);
        let mut s = 1u64 << 40;
        while s > 0 {
            n.observe_rtt(s);
            assert_rto_invariants(&n, &format!("decreasing sample {s}"));
            s /= 3;
        }
        n.observe_rtt(0);
        assert_rto_invariants(&n, "decreasing tail 0");
    }

    #[test]
    fn rto_property_random_pathological_sequences() {
        // Hand-rolled xorshift so the test needs no RNG dependency and
        // every run replays the same 32 sequences.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for seq in 0..32 {
            let mut n = node(1);
            for step in 0..256 {
                // Mix regimes: zeros, tiny, realistic, huge and
                // alternating spikes within one sequence.
                let r = next();
                let sample = match r % 5 {
                    0 => 0,
                    1 => r % 3,
                    2 => r % 10_000,
                    3 => u64::MAX - (r % 1_000),
                    _ => {
                        if step % 2 == 0 {
                            1
                        } else {
                            1 << 50
                        }
                    }
                };
                n.observe_rtt(sample);
                assert_rto_invariants(&n, &format!("seq {seq} step {step} sample {sample}"));
            }
        }
    }

    // ---- Request deadlines -------------------------------------------

    use crate::ring::{IdPolicy, StaticRing};
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, HashMap, HashSet};

    /// 32 members of a 16-bit ring; the node under test is the first.
    fn deadline_ring() -> StaticRing {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        StaticRing::build(IdSpace::new(16), 32, IdPolicy::Random, &mut rng)
    }

    fn cfg16() -> ChordConfig {
        ChordConfig {
            space: IdSpace::new(16),
            succ_list_len: 3,
            ..ChordConfig::default()
        }
    }

    fn at(id: Id) -> NodeRef {
        NodeRef::new(id, NodeAddr(id.raw()))
    }

    /// The node under test, started with its converged table. The first
    /// periodic timers are armed but not delivered by the callers below,
    /// so no periodic timer covers a deadline until one is re-armed.
    fn started(cfg: ChordConfig) -> (StaticRing, ChordNode) {
        let ring = deadline_ring();
        let me = ring.ids()[0];
        let mut n = ChordNode::new(cfg, me, NodeAddr(me.raw()));
        let _ = n.start_with_table(ring.table_of(me, cfg.succ_list_len));
        (ring, n)
    }

    /// `(due, delay)` of every `ReqDeadline` the outputs arm.
    fn deadline_timers(out: &[Output]) -> Vec<(u64, u64)> {
        out.iter()
            .filter_map(|o| match o {
                Output::SetTimer {
                    kind: TimerKind::ReqDeadline(due),
                    delay_ms,
                } => Some((*due, *delay_ms)),
                _ => None,
            })
            .collect()
    }

    /// The request id a transmission carries; `None` for a notification.
    fn req_of(msg: &ChordMsg) -> Option<ReqId> {
        match *msg {
            ChordMsg::FindSuccessor { req, .. }
            | ChordMsg::GetNeighbors { req, .. }
            | ChordMsg::Ping { req, .. } => Some(req),
            _ => None,
        }
    }

    /// What ring member `to` answers to request `msg`.
    fn answer(ring: &StaticRing, to: NodeRef, msg: &ChordMsg) -> ChordMsg {
        let succ = |id: Id| ring.successor(ring.space().add(id, 1));
        match *msg {
            ChordMsg::FindSuccessor { req, .. } => ChordMsg::FoundSuccessor {
                req,
                owner: to,
                owner_pred: Some(at(ring.predecessor(to.id))),
                owner_succ: Some(at(succ(to.id))),
                hops: 1,
            },
            ChordMsg::GetNeighbors { req, .. } => {
                let mut succ_list = vec![at(succ(to.id))];
                for _ in 1..3 {
                    let last = succ_list[succ_list.len() - 1].id;
                    succ_list.push(at(succ(last)));
                }
                ChordMsg::Neighbors {
                    req,
                    me: to,
                    pred: Some(at(ring.predecessor(to.id))),
                    succ_list,
                }
            }
            ChordMsg::Ping { req, .. } => ChordMsg::Pong { req, sender: to },
            ref other => panic!("not a request: {other:?}"),
        }
    }

    fn found(req: ReqId, owner: NodeRef) -> Input {
        Input::Message {
            from: owner.addr,
            msg: ChordMsg::FoundSuccessor {
                req,
                owner,
                owner_pred: None,
                owner_succ: None,
                hops: 1,
            },
        }
    }

    /// Reference side of the deadline host: one request as per-request
    /// arithmetic sees it.
    struct Expect {
        first_sent: u64,
        attempts: u32,
        rto: u64,
        due: u64,
    }

    /// Reference side: Jacobson's estimator with Karn's rule, kept from
    /// the replies the host delivers.
    struct RefRto {
        srtt: Option<f64>,
        rttvar: f64,
    }

    impl RefRto {
        fn observe(&mut self, sample: u64) {
            let s = sample as f64;
            match self.srtt {
                None => {
                    self.srtt = Some(s);
                    self.rttvar = s / 2.0;
                }
                Some(srtt) => {
                    self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - s).abs();
                    self.srtt = Some(0.875 * srtt + 0.125 * s);
                }
            }
        }

        fn rto(&self, cfg: &ChordConfig) -> u64 {
            match self.srtt {
                Some(s) => ((s + 4.0 * self.rttvar) as u64).clamp(RTO_MIN_MS, cfg.rto_max_ms),
                None => cfg.req_timeout_ms,
            }
        }
    }

    enum Ev {
        Timer(TimerKind),
        Reply(NodeAddr, ChordMsg),
        Call,
    }

    /// What one run of [`deadline_host`] saw.
    #[derive(Default)]
    struct HostRun {
        requests: usize,
        deadline_timers: u64,
        retransmits: u64,
        timeouts: u64,
        late_replies: u64,
    }

    /// A one-node host over virtual time: every timer the node arms is
    /// delivered when due, every request transmission is dropped with
    /// probability `drop_p` or answered after 1..=`max_rtt_ms`, and with
    /// `calls` the host issues a lookup or a ping every 1..=400 ms. Every
    /// retransmission and final timeout is checked against the reference:
    /// first send + RTO, doubled (up to `rto_max_ms`) per retry.
    struct DeadlineHost {
        seed: u64,
        cfg: ChordConfig,
        ring: StaticRing,
        rng: rand::rngs::SmallRng,
        queue: BTreeMap<(u64, u64), Ev>,
        seq: u64,
        drop_p: f64,
        max_rtt_ms: u64,
        est: RefRto,
        live: HashMap<ReqId, Expect>,
        seen: HashSet<ReqId>,
        run: HostRun,
    }

    impl DeadlineHost {
        fn push(&mut self, at_ms: u64, ev: Ev) {
            self.queue.insert((at_ms, self.seq), ev);
            self.seq += 1;
        }

        /// Take the node's outputs at `t`; `retx` lists the requests the
        /// reference expects retransmitted by them.
        fn absorb(&mut self, n: &ChordNode, t: u64, outs: Vec<Output>, mut retx: Vec<ReqId>) {
            let seed = self.seed;
            for o in outs {
                match o {
                    Output::Send { to, msg } => {
                        let Some(req) = req_of(&msg) else {
                            continue;
                        };
                        if let Some(i) = retx.iter().position(|&r| r == req) {
                            retx.swap_remove(i);
                        } else {
                            assert!(
                                self.seen.insert(req),
                                "seed {seed}: request {req} re-sent at {t}, off its deadline"
                            );
                            let rto = self.est.rto(&self.cfg);
                            let due = t + rto;
                            let first_sent = t;
                            let attempts = 1;
                            let e = Expect {
                                first_sent,
                                attempts,
                                rto,
                                due,
                            };
                            self.live.insert(req, e);
                        }
                        if !self.rng.random_bool(self.drop_p) {
                            let rtt = self.rng.random_range(1..=self.max_rtt_ms);
                            let reply = answer(&self.ring, to, &msg);
                            self.push(t + rtt, Ev::Reply(to.addr, reply));
                        }
                    }
                    Output::SetTimer { kind, delay_ms } => {
                        if matches!(kind, TimerKind::ReqDeadline(_)) {
                            self.run.deadline_timers += 1;
                        }
                        self.push(t + delay_ms, Ev::Timer(kind));
                    }
                    Output::Upcall(_) => {}
                }
            }
            assert!(
                retx.is_empty(),
                "seed {seed}: {retx:?} were due a retransmission at {t}"
            );
            let mut mine: Vec<ReqId> = n.outstanding.0.iter().map(|(r, _)| *r).collect();
            let mut theirs: Vec<ReqId> = self.live.keys().copied().collect();
            mine.sort_unstable();
            theirs.sort_unstable();
            assert_eq!(mine, theirs, "seed {seed}: requests in flight at {t}");
        }

        /// The reference at `t`, before the input: everything due by now
        /// retransmits or times out, and must be due exactly now — an
        /// earlier deadline means the node armed nothing that woke it.
        fn expire(&mut self, t: u64) -> Vec<ReqId> {
            let (seed, cfg) = (self.seed, self.cfg);
            let mut retx = Vec::new();
            let mut finals = Vec::new();
            for (&req, e) in self.live.iter_mut().filter(|(_, e)| e.due <= t) {
                assert_eq!(
                    e.due, t,
                    "seed {seed}: request {req} got no input at its deadline"
                );
                if e.attempts <= cfg.max_retries {
                    e.attempts += 1;
                    e.rto = (e.rto * 2).min(cfg.rto_max_ms);
                    e.due = t + e.rto;
                    retx.push(req);
                } else {
                    finals.push(req);
                }
            }
            for req in finals {
                self.live.remove(&req);
            }
            retx
        }

        /// The reference's view of a reply arriving at `t`: the first
        /// answer to a live request completes it, sampling the RTT when
        /// the request was never retransmitted.
        fn replied(&mut self, t: u64, msg: &ChordMsg) {
            let req = match *msg {
                ChordMsg::FoundSuccessor { req, .. }
                | ChordMsg::Neighbors { req, .. }
                | ChordMsg::Pong { req, .. } => req,
                ref other => panic!("not a reply: {other:?}"),
            };
            match self.live.remove(&req) {
                Some(e) if e.attempts == 1 => self.est.observe(t - e.first_sent),
                Some(_) => {}
                None => self.run.late_replies += 1,
            }
        }
    }

    fn deadline_host(
        seed: u64,
        cfg: ChordConfig,
        drop_p: f64,
        max_rtt_ms: u64,
        calls: bool,
        horizon_ms: u64,
    ) -> HostRun {
        let ring = deadline_ring();
        let me = ring.ids()[0];
        let mut n = ChordNode::new(cfg, me, NodeAddr(me.raw()));
        let outs = n.start_with_table(ring.table_of(me, cfg.succ_list_len));
        let mut h = DeadlineHost {
            seed,
            cfg,
            ring,
            rng: rand::rngs::SmallRng::seed_from_u64(seed),
            queue: BTreeMap::new(),
            seq: 0,
            drop_p,
            max_rtt_ms,
            est: RefRto {
                srtt: None,
                rttvar: 0.0,
            },
            live: HashMap::new(),
            seen: HashSet::new(),
            run: HostRun::default(),
        };
        h.absorb(&n, 0, outs, Vec::new());
        if calls {
            let first = h.rng.random_range(1..=400u64);
            h.push(first, Ev::Call);
        }
        while let Some(((t, _), ev)) = h.queue.pop_first() {
            if t > horizon_ms {
                break;
            }
            // Inputs expire what is due; a call from the host does not
            // (the timer due at the same instant follows it).
            let retx = match ev {
                Ev::Call => Vec::new(),
                _ => h.expire(t),
            };
            let outs = match ev {
                Ev::Timer(kind) => n.handle_at(Input::Timer(kind), t),
                Ev::Reply(from, msg) => {
                    h.replied(t, &msg);
                    n.handle_at(Input::Message { from, msg }, t)
                }
                Ev::Call => {
                    let next = t + h.rng.random_range(1..=400u64);
                    h.push(next, Ev::Call);
                    let member = h.ring.ids()[h.rng.random_range(1..h.ring.len())];
                    n.set_now(t);
                    if h.rng.random_bool(0.5) {
                        n.lookup(member).1
                    } else {
                        n.ping_node(at(member))
                    }
                }
            };
            h.absorb(&n, t, outs, retx);
        }
        h.run.requests = h.seen.len();
        h.run.retransmits = n.metrics().retransmits;
        h.run.timeouts = n.metrics().timeouts;
        h.run
    }

    #[test]
    fn a_ticks_requests_arm_no_deadline_timer_under_default_config() {
        // Every periodic timer delivered on time, every reply back in
        // 1-2 ms: the RTO settles on its 250 ms floor, which is the
        // finger-fix period, so the next FixFingers always comes first.
        let run = deadline_host(1, cfg16(), 0.0, 2, false, 30_000);
        assert!(run.requests > 150, "only {} requests", run.requests);
        assert_eq!(run.deadline_timers, 0, "a deadline timer was armed");
        assert_eq!((run.retransmits, run.timeouts), (0, 0));
    }

    #[test]
    fn uncovered_requests_share_one_deadline_timer() {
        // Between ticks: lookups before any periodic timer was re-armed.
        let (ring, mut n) = started(cfg16());
        let mut armed = Vec::new();
        for (i, &key) in ring.ids()[3..6].iter().enumerate() {
            n.set_now(10 * i as u64);
            let (_, out) = n.lookup(key);
            assert_eq!(sends(&out).len(), 1);
            armed.extend(deadline_timers(&out));
        }
        assert_eq!(armed, vec![(2_000, 2_000)], "one timer for three requests");

        // A finger-fix period longer than the RTO: a tick's requests.
        let cfg = ChordConfig {
            stabilize_ms: 5_000,
            fix_fingers_ms: 5_000,
            check_pred_ms: 5_000,
            req_timeout_ms: 300,
            ..cfg16()
        };
        let (_, mut n) = started(cfg);
        let mut armed = Vec::new();
        let mut requests = 0;
        for kind in [
            TimerKind::Stabilize,
            TimerKind::FixFingers,
            TimerKind::CheckPredecessor,
        ] {
            let out = n.handle_at(Input::Timer(kind), 1_000);
            requests += sends(&out).len();
            armed.extend(deadline_timers(&out));
        }
        assert!(requests >= 3);
        assert_eq!(armed, vec![(1_300, 300)]);
    }

    #[test]
    fn an_earlier_deadline_arms_an_earlier_timer_and_the_superseded_one_is_inert() {
        let (ring, mut n) = started(cfg16());
        let key = ring.ids()[9];
        let (a, out) = n.lookup(key);
        assert_eq!(deadline_timers(&out), vec![(2_000, 2_000)]);
        let hop = *sends(&out)[0].0;
        // Answered in 100 ms: SRTT 100, RTTVAR 50, RTO 300.
        let _ = n.handle_at(found(a, hop), 100);
        assert_eq!(n.current_rto(), 300);

        n.set_now(200);
        let (b, out) = n.lookup(key);
        assert_eq!(
            deadline_timers(&out),
            vec![(500, 300)],
            "an earlier deadline arms an earlier timer"
        );
        // b goes unanswered: re-sent at 500 and 1_100, final at 2_300.
        for (now, next) in [(500, (1_100, 600)), (1_100, (2_300, 1_200))] {
            let out = n.handle_at(Input::Timer(TimerKind::ReqDeadline(now)), now);
            assert!(
                matches!(sends(&out)[..], [(_, ChordMsg::FindSuccessor { req, .. })] if *req == b)
            );
            assert_eq!(deadline_timers(&out), vec![next]);
        }
        // The timer armed for a's deadline: superseded, it does nothing
        // and leaves the live one alone.
        let out = n.handle_at(Input::Timer(TimerKind::ReqDeadline(2_000)), 2_000);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(n.deadline_timer, 2_300);
        let out = n.handle_at(Input::Timer(TimerKind::ReqDeadline(2_300)), 2_300);
        assert!(upcalls(&out)
            .iter()
            .any(|u| matches!(u, Upcall::LookupFailed { req } if *req == b)));
        assert!(deadline_timers(&out).is_empty());
        assert_eq!(n.deadline_timer, u64::MAX);
        assert!(n.outstanding.is_empty());
    }

    #[test]
    fn a_probed_app_is_answered_by_one_pong_and_delivered_once() {
        let (ring, mut child) = started(cfg16());
        let parent_id = ring.ids()[7];
        let mut parent = ChordNode::new(cfg16(), parent_id, NodeAddr(parent_id.raw()));
        let _ = parent.start_with_table(ring.table_of(parent_id, 3));
        let out = child.send_app_probed(at(parent_id), 1, vec![4, 2]);
        let [(to, frame)] = sends(&out)[..] else {
            panic!("one frame: {out:?}");
        };
        assert_eq!(to.id, parent_id);
        let ChordMsg::ProbedApp { req, .. } = *frame else {
            panic!("not a probe: {frame:?}");
        };
        let heard = |p: &ChordNode| p.health().peers().any(|(id, _)| id == child.me().id);
        assert!(!heard(&parent));
        parent.set_now(40);
        let out = parent.handle(Input::Message {
            from: child.me().addr,
            msg: frame.clone(),
        });
        assert_eq!(
            sends(&out),
            [(
                &child.me(),
                &ChordMsg::Pong {
                    req,
                    sender: at(parent_id)
                }
            )]
        );
        let delivered: Vec<_> = upcalls(&out)
            .into_iter()
            .filter(|u| matches!(u, Upcall::AppMessage { proto: 1, payload, .. } if payload == &vec![4, 2]))
            .collect();
        assert_eq!(delivered.len(), 1, "{out:?}");
        assert!(heard(&parent), "a heartbeat");
        // The pong closes the probe like any ping's: one RTT sample.
        let pong = sends(&out)[0].1.clone();
        let _ = child.handle_at(
            Input::Message {
                from: NodeAddr(parent_id.raw()),
                msg: pong,
            },
            80,
        );
        assert!(child.outstanding.is_empty());
        assert_eq!(child.srtt_ms(), Some(80.0));
    }

    /// A probe whose frame is lost is a `ping_node` from then on: the same
    /// plain `Ping` retries at the same deadlines, and the final timeouts
    /// strike and evict the target as a ping's do. The payload goes out
    /// once.
    #[test]
    fn a_lost_probe_retries_as_pings_and_evicts_as_ping_node_does() {
        let (_, mut pinger) = started(cfg16());
        let (_, mut prober) = started(cfg16());
        let target = pinger.table().successor().unwrap();
        for round in 0..2u64 {
            pinger.set_now(round * 10_000);
            prober.set_now(round * 10_000);
            let pinged = pinger.ping_node(target);
            let probed = prober.send_app_probed(target, 1, vec![9]);
            let (ChordMsg::Ping { req, .. }, ChordMsg::ProbedApp { req: r, .. }) =
                (sends(&pinged)[0].1, sends(&probed)[0].1)
            else {
                panic!("{pinged:?} / {probed:?}");
            };
            assert_eq!(
                (*req, deadline_timers(&pinged)),
                (*r, deadline_timers(&probed))
            );
            let mut retries = 0;
            while let Some(o) = pinger.outstanding.get(*req) {
                let due = o.deadline_ms;
                assert_eq!(prober.outstanding.get(*req).unwrap().deadline_ms, due);
                let a = pinger.handle_at(Input::Timer(TimerKind::ReqDeadline(due)), due);
                let b = prober.handle_at(Input::Timer(TimerKind::ReqDeadline(due)), due);
                assert_eq!(a, b, "round {round}, at {due}");
                retries += sends(&b).len() as u64;
                assert!(sends(&b)
                    .iter()
                    .all(|(_, m)| matches!(m, ChordMsg::Ping { .. })));
            }
            assert!(prober.outstanding.is_empty());
            assert_eq!(retries, u64::from(cfg16().max_retries));
            let evicted = round == 1;
            assert_eq!(prober.table().successor() != Some(target), evicted);
            assert_eq!(pinger.table().successor(), prober.table().successor());
        }
        assert_eq!(prober.metrics().get("probe_retries_total"), 4);
        assert_eq!(
            prober.metrics().sent_of("app"),
            2,
            "the payload, once a round"
        );
        assert_eq!(prober.metrics().timeouts, pinger.metrics().timeouts);
    }

    #[test]
    fn a_late_host_expires_every_overdue_request_in_deadline_then_send_order() {
        for max_retries in [0, 2] {
            let (ring, mut n) = started(ChordConfig {
                max_retries,
                ..cfg16()
            });
            let keys = &ring.ids()[3..];
            // a at 0 (due 2_000); x answered at 100, so the RTO drops to
            // 300; b and c at 150 (both due 450, b armed first); d at
            // 1_000 (due 1_300).
            let (a, _) = n.lookup(keys[0]);
            let (x, out) = n.lookup(keys[1]);
            let _ = n.handle_at(found(x, *sends(&out)[0].0), 100);
            n.set_now(150);
            let (b, _) = n.lookup(keys[2]);
            let (c, _) = n.lookup(keys[3]);
            n.set_now(1_000);
            let (d, _) = n.lookup(keys[4]);
            // The host wakes the node only at 3_000.
            let out = n.handle_at(Input::Timer(TimerKind::ReqDeadline(450)), 3_000);
            let order: Vec<ReqId> = if max_retries == 0 {
                upcalls(&out)
                    .iter()
                    .filter_map(|u| match u {
                        Upcall::LookupFailed { req } => Some(*req),
                        _ => None,
                    })
                    .collect()
            } else {
                sends(&out).iter().filter_map(|(_, m)| req_of(m)).collect()
            };
            assert_eq!(order, vec![b, c, d, a], "max_retries {max_retries}");
        }
    }

    /// Seeded scripts of send times, RTT samples (late ones included) and
    /// dropped replies over varied periods and RTO bounds: every
    /// retransmission and final timeout lands on the millisecond
    /// per-request arithmetic gives, with periodic timers or one
    /// `ReqDeadline` covering the deadlines.
    #[test]
    fn every_retransmit_and_timeout_lands_on_its_deadline() {
        let mut total = HostRun::default();
        for seed in 0..24u64 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xDEAD_11E5);
            let cfg = ChordConfig {
                stabilize_ms: [500, 900][rng.random_range(0..2usize)],
                fix_fingers_ms: [250, 400, 1_500][rng.random_range(0..3usize)],
                check_pred_ms: [1_000, 1_700][rng.random_range(0..2usize)],
                req_timeout_ms: [300, 1_000, 2_000][rng.random_range(0..3usize)],
                max_retries: rng.random_range(0..=3u32),
                rto_max_ms: [1_000, 8_000][rng.random_range(0..2usize)],
                ..cfg16()
            };
            let drop_p = [0.0, 0.2, 0.5][rng.random_range(0..3usize)];
            let max_rtt = [3, 400, 1_500][rng.random_range(0..3usize)];
            let run = deadline_host(seed, cfg, drop_p, max_rtt, true, 20_000);
            total.requests += run.requests;
            total.deadline_timers += run.deadline_timers;
            total.retransmits += run.retransmits;
            total.timeouts += run.timeouts;
            total.late_replies += run.late_replies;
        }
        // The scripts reach every path the reference checks.
        assert!(total.requests > 4_000, "{} requests", total.requests);
        assert!(total.deadline_timers > 1_000, "{}", total.deadline_timers);
        assert!(total.retransmits > 1_000, "{}", total.retransmits);
        assert!(total.timeouts > 500, "{}", total.timeouts);
        assert!(total.late_replies > 100, "{}", total.late_replies);
    }

    /// Node 0 with successor `succ`, after one stabilization round that
    /// `succ` answered at `answered_ms` with its predecessor 0 and its
    /// successor 12.
    fn stabilized(mut n: ChordNode, succ: u64, answered_ms: u64) -> ChordNode {
        let _ = n.start_create();
        n.table.set_successor(at(Id(succ)));
        let out = n.handle_at(Input::Timer(TimerKind::Stabilize), answered_ms - 40);
        let req = match sends(&out)[0].1 {
            ChordMsg::GetNeighbors { req, .. } => *req,
            other => panic!("unexpected {other:?}"),
        };
        let me = n.me();
        let _ = n.handle_at(
            Input::Message {
                from: NodeAddr(succ),
                msg: ChordMsg::Neighbors {
                    req,
                    me: at(Id(succ)),
                    pred: Some(me),
                    succ_list: vec![at(Id(12))],
                },
            },
            answered_ms,
        );
        n
    }

    /// A finger whose start lies in `(me, successor]` is the successor:
    /// with the successor heard within `stabilize_ms`, the fix sends
    /// nothing and installs what a `FoundSuccessor` from it would carry.
    #[test]
    fn a_fix_inside_the_successors_arc_resolves_from_stabilization() {
        let mut n = stabilized(node(0), 8, 1_000);
        let sent = n.metrics().sent_total();
        // Finger 2 starts at 2 ∈ (0, 8]; 8 was heard 500 ms ago.
        let out = n.handle_at(Input::Timer(TimerKind::FixFingers), 1_500);
        assert!(sends(&out).is_empty(), "{out:?}");
        assert_eq!(n.metrics().sent_total(), sent);
        assert!(n.outstanding.is_empty());
        assert_eq!(
            n.table().finger(2),
            Some(FingerInfo {
                node: at(Id(8)),
                pred: Some(n.me()),
                succ: Some(at(Id(12))),
            })
        );
    }

    /// The same fix with the successor silent for longer than
    /// `stabilize_ms` looks the finger up, and the lookups' timeouts strike
    /// and evict a dead successor as before.
    #[test]
    fn a_fix_past_a_silent_successor_goes_remote_and_its_timeouts_evict() {
        let mut n = stabilized(node_no_retry(0), 8, 1_000);
        for (j, now) in [(2u8, 1_501), (3, 5_000)] {
            let out = n.handle_at(Input::Timer(TimerKind::FixFingers), now);
            let [(to, &ChordMsg::FindSuccessor { req, key, .. })] = sends(&out)[..] else {
                panic!("finger {j}: one lookup expected, got {out:?}");
            };
            assert_eq!((to.id, key), (Id(8), n.space().finger_start(Id(0), j)));
            assert_eq!(n.outstanding.get(req).unwrap().kind, Pending::FixFinger(j));
            let out = time_out(&mut n, req);
            let evicted = j == 3;
            assert_eq!(n.table().successor() != Some(at(Id(8))), evicted);
            assert_eq!(
                upcalls(&out)
                    .iter()
                    .any(|u| matches!(u, Upcall::NeighborhoodChanged)),
                evicted
            );
        }
        assert_eq!(n.table().successor(), Some(at(Id(12))));
        assert_eq!(n.health().peek(Id(8)), SuspicionLevel::Suspect);
        assert_eq!(n.metrics().timeouts, 2);
    }

    /// A finger whose start lies beyond the successor is looked up, fresh
    /// stabilization or not.
    #[test]
    fn a_fix_beyond_the_successor_goes_remote() {
        let mut n = stabilized(node(0), 3, 1_000);
        // Finger 2 starts at 2 ∈ (0, 3]: resolved at home.
        let out = n.handle_at(Input::Timer(TimerKind::FixFingers), 1_100);
        assert!(sends(&out).is_empty(), "{out:?}");
        assert_eq!(n.table().finger(2).map(|f| f.node), Some(at(Id(3))));
        // Finger 3 starts at 4, past the successor.
        let out = n.handle_at(Input::Timer(TimerKind::FixFingers), 1_200);
        let [(to, &ChordMsg::FindSuccessor { req, key, .. })] = sends(&out)[..] else {
            panic!("one lookup expected, got {out:?}");
        };
        assert_eq!((to.id, key), (Id(3), Id(4)));
        assert_eq!(n.outstanding.get(req).unwrap().kind, Pending::FixFinger(3));
    }

    /// A request still out to a peer that said goodbye times out without
    /// re-creating the peer in the failure detector: nothing holds it.
    #[test]
    fn a_timeout_to_a_forgotten_leaver_leaves_it_forgotten() {
        let mut n = node_no_retry(0);
        let _ = n.start_create();
        let (s4, s8) = (at(Id(4)), at(Id(8)));
        n.table.set_successor_list(vec![s4, s8]);
        let _ = n.handle_at(
            Input::Message {
                from: s4.addr,
                msg: ChordMsg::Notify { sender: s4 },
            },
            100,
        );
        let out = n.handle_at(Input::Timer(TimerKind::Stabilize), 200);
        let req = match sends(&out)[0].1 {
            ChordMsg::GetNeighbors { req, .. } => *req,
            other => panic!("unexpected {other:?}"),
        };
        let _ = n.handle_at(
            Input::Message {
                from: s4.addr,
                msg: ChordMsg::LeaveToPred {
                    leaver: s4,
                    succ_list: vec![s8],
                },
            },
            300,
        );
        assert_eq!(n.health().last_heard(s4.id), None);
        let _ = time_out(&mut n, req);
        assert_eq!(n.metrics().timeouts, 1);
        assert_eq!(n.health().last_heard(s4.id), None, "re-created by the miss");
        assert_eq!(n.health().suspects, 0);
    }
}
