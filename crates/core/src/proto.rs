//! The DAT protocol layer, hosted on the [`StackNode`] engine.
//!
//! Implements both aggregate modes of the paper's prototype (§4):
//!
//! * **continuous** — epoch-based push along the implicit DAT tree. Every
//!   epoch each node merges its local value with the freshest partial of
//!   every (soft-state) child and pushes the result to its *current* parent,
//!   recomputed from the live finger table — so the tree adapts to churn
//!   with zero membership-repair messages, the paper's central claim.
//! * **on-demand** — a query is routed to the rendezvous root, which fans
//!   out over disjoint finger ranges (the `broadcast` primitive) and
//!   convergecasts exact partials back up with per-node completion
//!   tracking and a timeout window for lost branches.
//!
//! A third mode, **centralized**, reproduces the baseline of Fig. 8: every
//! node routes its raw value to the root with no in-network merging.
//!
//! [`DatProtocol`] is an [`AppProtocol`]: it holds only aggregation state
//! and acts on the overlay through the engine [`Ctx`]. Application-level
//! results surface as [`DatEvent`]s drained via [`StackNode::take_events`].
//! The `impl StackNode` block at the bottom is the host-facing surface —
//! register/set-local/query keep the same shape they had when DAT owned
//! the node, but now compose with any other stacked protocol.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};

use dat_chord::{
    estimate_d0, hash_to_id, parent_for, ring_size_for_d0, FingerTable, Id, Metrics, NodeAddr,
    NodeRef, NodeStatus, Output, ParentDecision, RoutingScheme, SuspicionLevel,
};
use dat_obs::{trace_id_for, EventKind};

use crate::aggregate::AggPartial;
use crate::codec::{DatMsg, DAT_PROTO};
use crate::engine::{AppProtocol, Ctx, StackNode};

/// How the global value of one aggregation is computed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggregationMode {
    /// Epoch-based push along the implicit DAT tree (the paper's scheme).
    Continuous,
    /// Baseline: raw values routed to the root, no in-network merging.
    Centralized,
}

/// DAT-layer tunables.
#[derive(Clone, Copy, Debug)]
pub struct DatConfig {
    /// Which routing scheme defines parents (basic vs balanced DAT).
    pub scheme: RoutingScheme,
    /// Epoch (time-slot) length for continuous aggregation, ms.
    pub epoch_ms: u64,
    /// A child's partial is kept for this many epochs before expiring
    /// (soft-state churn adaptation).
    pub child_ttl_epochs: u64,
    /// How long an on-demand query waits for missing branches, ms.
    pub query_window_ms: u64,
    /// Continuous mode: after an epoch tick, wait at most this long for the
    /// children's updates of the new epoch before pushing our merged
    /// partial up (the "aggregation synchronization" of §4). Updates
    /// cascade bottom-up within one slot, so the root's report reflects the
    /// *current* epoch's values instead of lagging by the tree height.
    pub hold_ms: u64,
    /// Exact average inter-node gap, when globally known (experiments set
    /// `2^b / n`); `None` means estimate from the local neighborhood.
    pub d0_hint: Option<u64>,
}

/// Warm root failover: the acting root replicates its per-key soft state
/// ([`DatMsg::RootState`]) to this many successors each epoch, so a root
/// crash loses at most one epoch of reports.
const REPLICATION_K: usize = 2;

impl Default for DatConfig {
    fn default() -> Self {
        DatConfig {
            scheme: RoutingScheme::Balanced,
            epoch_ms: 1_000,
            child_ttl_epochs: 3,
            query_window_ms: 500,
            hold_ms: 250,
            d0_hint: None,
        }
    }
}

/// Completeness accounting attached to every root report: how much of the
/// grid the report actually covers, and how stale its oldest input may be.
/// A partitioned-away subtree shows up as a measurable `ratio` drop
/// instead of a silent value shift.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Completeness {
    /// Number of distinct nodes folded into the report.
    pub contributors: u64,
    /// Estimated ring size (from finger/successor density, or the exact
    /// `d0` hint when the experiment provides one).
    pub expected: u64,
    /// `contributors / expected` — 1.0 means full coverage.
    pub ratio: f64,
    /// Upper bound on the age of the oldest constituent sample, ms.
    pub staleness_ms: u64,
    /// Per-key report fence sequence (monotone at the acting root;
    /// replicated to successors so a failed-over root continues it).
    pub seq: u64,
    /// The reporting root's id — `(seq, root)` identifies the fence.
    pub root: Id,
}

/// Results surfaced to the host application.
#[derive(Clone, Debug, PartialEq)]
pub enum DatEvent {
    /// (Root only, continuous/centralized mode) the global partial computed
    /// for one epoch.
    Report {
        /// Rendezvous key of the aggregation.
        key: Id,
        /// Epoch index the report belongs to.
        epoch: u64,
        /// The merged global partial.
        partial: AggPartial,
        /// How much of the grid the report covers (see [`Completeness`]).
        completeness: Completeness,
    },
    /// (Requester side) an on-demand query completed.
    QueryDone {
        /// Request id returned by [`StackNode::query`].
        reqid: u64,
        /// Rendezvous key.
        key: Id,
        /// The merged global partial.
        partial: AggPartial,
    },
}

/// One registered aggregation (an entry of the §4 "aggregation table").
#[derive(Clone, Debug)]
pub struct AggregationEntry {
    /// Rendezvous key (SHA-1 of the attribute name).
    pub key: Id,
    /// Attribute name, e.g. `"cpu-usage"`.
    pub name: String,
    /// Aggregation mode.
    pub mode: AggregationMode,
    /// Latest local observation, if any.
    pub local: Option<f64>,
    /// Histogram shape `(lo, hi, buckets)` to attach to partials, if any.
    pub histogram: Option<(f64, f64, usize)>,
    /// Distinct-count sketch precision to attach to partials, if any.
    pub distinct_p: Option<u8>,
    /// Identity items this node contributes to the distinct sketch
    /// (e.g. its site name).
    local_items: Vec<Vec<u8>>,
    /// Freshest partial per child id, with the *local* epoch it arrived in,
    /// sorted by id: walks decide float merge order, which children the
    /// failure detector is consulted about, and replica byte order. Each
    /// flush drops the entries older than `child_ttl_epochs`, which every
    /// reader already ignores.
    children: Vec<(Id, AggPartial, u64)>,
    /// Last epoch whose partial has been pushed up / reported.
    flushed_epoch: u64,
    /// Root stickiness: we keep acting as the root through this epoch while
    /// the predecessor link is unknown (transient evictions on lossy links
    /// must not silence reports or push partials down-tree, which would
    /// create counting cycles).
    root_until: u64,
    /// The parent the previous flush went to; a switch triggers a prune
    /// notice so the old parent drops our cached partial at once.
    last_parent: Option<NodeRef>,
    /// Old parent still owed prune notices (sent on consecutive flushes —
    /// prunes travel over the same lossy links as everything else).
    prune_old: Option<(NodeRef, u8)>,
    /// (Root, centralized mode) freshest raw sample per node id.
    raw: BTreeMap<Id, (f64, u64)>,
    /// Highest report-fence sequence observed for this key, either emitted
    /// by this node as root or carried by a replicated
    /// [`DatMsg::RootState`].
    fence_seq: u64,
    /// Who set the fence last. `Some(other)` means another node is the
    /// live root — a sticky ex-root must stand down instead of reporting.
    fence_root: Option<Id>,
    /// Warm-failover replica of the acting root's soft state, adopted if
    /// the key ever remaps here.
    replica: Option<ReplicaState>,
    /// The DAT parent of `key`, with the [`FingerTable::version`] it was
    /// computed under: a pure function of the table (§3.2), so a push
    /// between two table changes has nothing to decide.
    parent: Option<(u64, ParentDecision)>,
}

/// The acting root's replicated per-key soft state, as received by one of
/// its `k` successors (see [`DatMsg::RootState`]).
#[derive(Clone, Debug)]
struct ReplicaState {
    /// The root that shipped the replica.
    root: Id,
    /// Its report fence sequence at shipping time.
    seq: u64,
    /// Cached child partials with their age (epochs) at shipping time.
    children: Vec<(Id, AggPartial, u64)>,
    /// Centralized-mode raw samples with their age at shipping time.
    raw: Vec<(Id, f64, u64)>,
    /// Local epoch at which the replica arrived (ages the snapshot).
    received_epoch: u64,
}

impl AggregationEntry {
    /// Children that delivered an update this epoch or the previous one —
    /// the set an interior node waits on before cascading its own update —
    /// in id order.
    pub fn active_children(&self, now_epoch: u64) -> impl Iterator<Item = Id> + '_ {
        self.active(now_epoch).map(|(id, _)| id)
    }

    /// [`AggregationEntry::active_children`], each with the local epoch
    /// its freshest update arrived in.
    fn active(&self, now_epoch: u64) -> impl Iterator<Item = (Id, u64)> + '_ {
        self.children
            .iter()
            .filter(move |(_, _, e)| now_epoch.saturating_sub(*e) <= 1)
            .map(|(id, _, e)| (*id, *e))
    }

    /// Cache `partial` as child `id`'s freshest, stamped with local epoch
    /// `epoch`, replacing what `id` sent before.
    fn put_child(&mut self, id: Id, partial: AggPartial, epoch: u64) {
        match self.children.binary_search_by_key(&id, |c| c.0) {
            Ok(i) => self.children[i] = (id, partial, epoch),
            Err(i) => self.children.insert(i, (id, partial, epoch)),
        }
    }

    /// The DAT parent for this entry's key against `table`, recomputed
    /// only when the table's change counter moved since the last call.
    fn parent_under(&mut self, cfg: &DatConfig, table: &FingerTable) -> ParentDecision {
        match self.parent {
            Some((version, decision)) if version == table.version() => decision,
            _ => {
                let decision = decide_parent(cfg, table, self.key);
                self.parent = Some((table.version(), decision));
                decision
            }
        }
    }

    /// Number of live (unexpired) children currently known.
    pub fn live_children(&self, now_epoch: u64, ttl: u64) -> usize {
        self.children
            .iter()
            .filter(|(_, _, e)| now_epoch.saturating_sub(*e) <= ttl)
            .count()
    }

    fn base_partial(&self) -> AggPartial {
        let mut p = match self.histogram {
            Some((lo, hi, n)) => AggPartial::identity_with_histogram(lo, hi, n),
            None => AggPartial::identity(),
        };
        if let Some(prec) = self.distinct_p {
            p.distinct = Some(crate::sketch::Hll::new(prec));
            for item in &self.local_items {
                p.observe_item(item);
            }
        }
        p
    }

    /// Merge local value + fresh child partials (continuous mode).
    /// `exclude` drops one cached child — the node we are about to push to.
    /// Under heavy loss, parent decisions can flap so that two nodes
    /// transiently treat each other as parent; reflecting a node's own
    /// partial back at it creates an exponential counting cycle.
    fn merged_partial(&self, now_epoch: u64, ttl: u64, exclude: Option<Id>) -> AggPartial {
        let mut acc = self.base_partial();
        if let Some(x) = self.local {
            acc.absorb(x);
        }
        // This node contributes itself exactly once (completeness
        // accounting) — even with no local sensor value it is a live
        // participant relaying its subtree.
        acc.contributors = 1;
        for (child, p, e) in &self.children {
            if Some(*child) == exclude {
                continue;
            }
            let age = now_epoch.saturating_sub(*e);
            if age <= ttl {
                // A partial cached for `age` epochs is that much staler
                // than it claims.
                acc.merge_aged(p, age);
            }
        }
        acc
    }

    /// Merge local value + fresh raw samples (centralized root).
    fn merged_raw(&self, now_epoch: u64, ttl: u64) -> AggPartial {
        let mut acc = self.base_partial();
        if let Some(x) = self.local {
            acc.absorb(x);
        }
        acc.contributors = 1;
        for (v, e) in self.raw.values() {
            let age = now_epoch.saturating_sub(*e);
            if age <= ttl {
                acc.absorb(*v);
                acc.contributors += 1;
                acc.age_epochs = acc.age_epochs.max(age);
            }
        }
        acc
    }

    /// Fold a warm-failover replica from a previous root into live soft
    /// state. Called when this node finds itself the acting root: the
    /// replicated children/samples (re-aged relative to the local epoch
    /// counter) let the very first report after a root crash cover the
    /// whole grid instead of rebuilding over `child_ttl_epochs`.
    fn adopt_replica(&mut self, me: Id, epoch: u64) {
        if self.replica.as_ref().is_none_or(|r| r.root == me) {
            return;
        }
        let Some(rep) = self.replica.take() else {
            return;
        };
        let lag = epoch.saturating_sub(rep.received_epoch);
        for (id, p, age) in rep.children {
            if id == me {
                continue;
            }
            let stamp = epoch.saturating_sub(age.saturating_add(lag));
            let have_fresher = self
                .children
                .binary_search_by_key(&id, |c| c.0)
                .is_ok_and(|i| self.children[i].2 >= stamp);
            if !have_fresher {
                self.put_child(id, p, stamp);
            }
        }
        for (id, v, age) in rep.raw {
            if id == me {
                continue;
            }
            let stamp = epoch.saturating_sub(age.saturating_add(lag));
            let have_fresher = self.raw.get(&id).is_some_and(|(_, e)| *e >= stamp);
            if !have_fresher {
                self.raw.insert(id, (v, stamp));
            }
        }
        // Continue the crashed root's fence so our next report supersedes
        // anything a restarted old root could replay.
        self.fence_seq = self.fence_seq.max(rep.seq);
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DatTimer {
    EpochTick,
    /// The lost-branch deadline (engine-clock ms) this timer was armed for.
    QueryWindow(u64),
    /// Flush the continuous partial of one aggregation for the current
    /// epoch (armed at each tick; may be preempted by an early flush when
    /// every recently-active child has already delivered).
    HoldFlush(Id),
}

/// One on-demand query as this node remembers it.
#[derive(Debug)]
struct QuerySlot {
    /// Who awaits our response (`None`: we are the fan-out origin). Kept
    /// after the answer, so a second copy of this parent's `Query` can be
    /// told from another parent's.
    parent: Option<NodeRef>,
    /// `Some` while responses are outstanding; dropped with its partial
    /// once answered.
    open: Option<Box<QueryState>>,
}

#[derive(Debug)]
struct QueryState {
    key: Id,
    /// (Origin only) who gets the final result.
    requester: Option<NodeRef>,
    /// The children still to answer. Each is merged once: a second copy
    /// of a response finds its sender gone from here.
    awaiting: Vec<Id>,
    acc: AggPartial,
}

/// How many answered queries a node remembers, oldest retired first. A
/// remembered `reqid` is what keeps a late copy of a `Query` from fanning
/// out (and being counted) a second time, so the memory has to outlast
/// duplicate delivery: 256 spans the default `query_window_ms` up to
/// ~500 queries/s through one node, for ~20 KiB.
pub const COMPLETED_QUERIES_KEPT: usize = 256;

/// The DAT handler: aggregation table + both aggregate modes, hosted on
/// the shared Chord substrate by a [`StackNode`].
pub struct DatProtocol {
    cfg: DatConfig,
    /// The aggregation table, ordered by key at registration: a seed
    /// fixes the flush order, and a lookup is a search of a few entries.
    aggs: Vec<AggregationEntry>,
    epoch: u64,
    /// Every query this node remembers, by `reqid`: the open ones and,
    /// for duplicate suppression, the answered ones until `completed`
    /// retires them.
    queries: HashMap<u64, QuerySlot>,
    /// Answered `reqid`s, oldest first; at most
    /// [`COMPLETED_QUERIES_KEPT`].
    completed: VecDeque<u64>,
    /// Lost-branch deadlines of the queries opened here, `(engine-clock
    /// ms, reqid)`, earliest first. One host timer at a time serves them
    /// all (see `ensure_window_timer`).
    windows: BinaryHeap<Reverse<(u64, u64)>>,
    /// Deadline of the earliest `QueryWindow` timer still pending.
    window_armed_ms: Option<u64>,
    /// Live timers by token, in no order: at most one per aggregation
    /// (`HoldFlush`) plus the epoch tick and one query window.
    timers: Vec<(u64, DatTimer)>,
    next_token: u64,
    next_reqid: u64,
    metrics: Metrics,
    events: Vec<DatEvent>,
    epoch_timer_armed: bool,
    /// Last epoch in which the DAT parent was liveness-pinged.
    parent_ping_epoch: u64,
    /// Engine clock at the latest epoch tick; the root's report latency
    /// (`epoch_completion_ms` histogram) is measured from here.
    epoch_started_ms: u64,
}

impl DatProtocol {
    /// A fresh DAT handler with the given configuration.
    pub fn new(cfg: DatConfig) -> Self {
        DatProtocol {
            cfg,
            aggs: Vec::new(),
            epoch: 0,
            queries: HashMap::new(),
            completed: VecDeque::new(),
            windows: BinaryHeap::new(),
            window_armed_ms: None,
            timers: Vec::new(),
            next_token: 1,
            next_reqid: 0,
            metrics: Metrics::default(),
            events: Vec::new(),
            epoch_timer_armed: false,
            parent_ping_epoch: 0,
            epoch_started_ms: 0,
        }
    }

    /// DAT-layer message counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable DAT-layer metrics (e.g. to resize or disable the event
    /// tracer before a long run).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The DAT configuration.
    pub fn config(&self) -> &DatConfig {
        &self.cfg
    }

    /// Current epoch index.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// On-demand queries this node still remembers: the ones awaiting
    /// responses plus at most [`COMPLETED_QUERIES_KEPT`] answered ones.
    pub fn remembered_queries(&self) -> usize {
        self.queries.len()
    }

    /// Registered aggregations.
    pub fn aggregations(&self) -> impl Iterator<Item = &AggregationEntry> {
        self.aggs.iter()
    }

    /// Look up one aggregation entry.
    pub fn aggregation(&self, key: Id) -> Option<&AggregationEntry> {
        slot_of(&self.aggs, key).map(|slot| &self.aggs[slot])
    }

    fn aggregation_mut(&mut self, key: Id) -> Option<&mut AggregationEntry> {
        slot_of(&self.aggs, key).map(|slot| &mut self.aggs[slot])
    }

    /// Drain application events produced since the last call.
    pub fn take_events(&mut self) -> Vec<DatEvent> {
        std::mem::take(&mut self.events)
    }

    /// Insert an aggregation entry under a precomputed rendezvous key (the
    /// host-facing name→key hashing lives on [`StackNode::register`]).
    fn register_entry(
        &mut self,
        key: Id,
        name: &str,
        mode: AggregationMode,
        histogram: Option<(f64, f64, usize)>,
    ) {
        let Err(at) = self.aggs.binary_search_by_key(&key, |e| e.key) else {
            return;
        };
        let entry = AggregationEntry {
            key,
            name: name.to_string(),
            mode,
            local: None,
            histogram,
            distinct_p: None,
            local_items: Vec::new(),
            children: Vec::new(),
            flushed_epoch: 0,
            root_until: 0,
            last_parent: None,
            prune_old: None,
            raw: BTreeMap::new(),
            fence_seq: 0,
            fence_root: None,
            replica: None,
            parent: None,
        };
        self.aggs.insert(at, entry);
    }

    /// Update this node's local value for an aggregation (sensor input).
    pub fn set_local(&mut self, key: Id, value: f64) {
        if let Some(e) = self.aggregation_mut(key) {
            e.local = Some(value);
        }
    }

    /// Record an identity-bearing item (site, user, job id …) this node
    /// contributes to the aggregation's distinct-count sketch.
    pub fn observe_local_item(&mut self, key: Id, item: &[u8]) {
        if let Some(e) = self.aggregation_mut(key) {
            if !e.local_items.iter().any(|i| i == item) {
                e.local_items.push(item.to_vec());
            }
        }
    }

    /// Issue an on-demand aggregate query for `key`. The answer arrives as
    /// [`DatEvent::QueryDone`] with the returned request id.
    fn query(&mut self, cx: &mut Ctx<'_>, key: Id) -> u64 {
        let me = cx.me();
        // Seed the reqid namespace from our transport address so ids from
        // different initiators never collide.
        if self.next_reqid == 0 {
            self.next_reqid = me.addr.0 << 24;
        }
        self.next_reqid += 1;
        let reqid = self.next_reqid;
        if cx.owns(key) {
            // We are the root: fan out directly.
            self.begin_fanout(cx, reqid, key, me);
        } else {
            let req = DatMsg::Request {
                reqid,
                key,
                requester: me,
            };
            // Query traffic is traced under the request id (routed send:
            // the "peer" is the rendezvous key, not a node).
            self.metrics.on_send(cx.now_ms(), reqid, req.kind(), key.0);
            cx.route(key, req.encode());
        }
        reqid
    }

    fn ensure_epoch_timer(&mut self, cx: &mut Ctx<'_>) {
        if self.epoch_timer_armed || cx.status() != NodeStatus::Active {
            return;
        }
        self.arm(cx, DatTimer::EpochTick, self.cfg.epoch_ms);
        self.epoch_timer_armed = true;
    }

    /// Arm `timer` under a fresh token.
    fn arm(&mut self, cx: &mut Ctx<'_>, timer: DatTimer, delay_ms: u64) {
        self.next_token += 1;
        self.timers.push((self.next_token, timer));
        cx.set_timer(self.next_token, delay_ms);
    }

    /// One epoch tick: push every continuous aggregation to its parent,
    /// route centralized samples, emit root reports.
    fn on_epoch(&mut self, cx: &mut Ctx<'_>) {
        self.epoch += 1;
        self.epoch_started_ms = cx.now_ms();
        let epoch = self.epoch;
        let ttl = self.cfg.child_ttl_epochs;
        let me = cx.me();
        // The table's key order, so a seed fixes the flush order; rotated
        // by the epoch, so the once-per-epoch parent ping — sent with the
        // first flush — takes turns over the trees instead of loading the
        // smallest key's.
        let n = self.aggs.len();
        let turn = (epoch % n.max(1) as u64) as usize;
        for slot in (turn..n).chain(0..turn) {
            let entry = &self.aggs[slot];
            let key = entry.key;
            let local = entry.local;
            match entry.mode {
                AggregationMode::Continuous => {
                    // Aggregation synchronization (§4): schedule this
                    // node's push within the slot by its estimated distance
                    // to the root — leaves flush first, the root's children
                    // last — so updates cascade bottom-up inside one epoch.
                    // Nodes whose children have all delivered flush early
                    // (see the Update handler); the timer is the bound.
                    if entry.active_children(epoch).next().is_none() {
                        self.flush_continuous(cx, slot);
                    } else {
                        let delay = self.flush_delay(cx, key);
                        self.arm(cx, DatTimer::HoldFlush(key), delay);
                    }
                }
                AggregationMode::Centralized => {
                    if cx.owns(key) {
                        let e = &mut self.aggs[slot];
                        e.adopt_replica(me.id, epoch);
                        let partial = e.merged_raw(epoch, ttl);
                        self.publish(cx, slot, partial);
                    } else if let Some(v) = local {
                        let msg = DatMsg::RawSample {
                            key,
                            epoch,
                            value: v,
                            sender: me,
                        };
                        self.metrics.on_send(
                            cx.now_ms(),
                            trace_id_for(key.0, epoch),
                            msg.kind(),
                            key.0,
                        );
                        cx.route(key, msg.encode());
                    }
                }
            }
        }
    }

    /// When, within the hold window, this node should push its partial.
    ///
    /// Both routing schemes strictly shrink the clockwise distance `x` to
    /// the rendezvous key on every hop (by at least half), so scheduling
    /// flushes by `log2(x)` — large `x` (deep in the tree) first, small `x`
    /// (near the root) last — guarantees every child's delay is strictly
    /// smaller than its parent's by at least `hold_ms / b` milliseconds.
    /// With the default 250 ms window over a 32-bit space that is ~8 ms per
    /// level, comfortably above LAN latencies, so an epoch's updates
    /// cascade all the way to the root within one slot (the paper's
    /// "aggregation synchronization", §4).
    fn flush_delay(&self, cx: &Ctx<'_>, key: Id) -> u64 {
        if cx.owns(key) {
            // The root sits just past the key, so its clockwise distance to
            // the key wraps the whole ring — special-case it to flush last.
            return self.cfg.hold_ms;
        }
        let space = cx.space();
        let x = space.dist_cw(cx.me().id, key);
        let b = space.bits() as f64;
        // Spread the window over the ~log2(n) levels that actually exist
        // (identifiers below d0 apart collapse into one level), so the gap
        // between adjacent levels is hold/log2(n) rather than hold/b —
        // comfortably above one-way latency even on WANs.
        let d0_log = (d0(&self.cfg, cx.table()).max(1) as f64).log2();
        let span = (b - d0_log).max(1.0);
        // frac = 1 just behind the key (the root's children), 0 at the far
        // side of the ring (the deepest leaves).
        let frac = 1.0 - ((((x as f64) + 1.0).log2() - d0_log).max(0.0) / span).clamp(0.0, 1.0);
        // Children stay strictly below the root's full-hold flush.
        (self.cfg.hold_ms as f64 * frac * span / (span + 1.0)).round() as u64
    }

    /// Push (or report, at the root) the merged continuous partial of the
    /// aggregation in `slot` for the current epoch. Idempotent per epoch.
    fn flush_continuous(&mut self, cx: &mut Ctx<'_>, slot: usize) {
        let epoch = self.epoch;
        let ttl = self.cfg.child_ttl_epochs;
        let me = cx.me();
        let entry = &mut self.aggs[slot];
        let key = entry.key;
        if entry.mode != AggregationMode::Continuous || entry.flushed_epoch >= epoch {
            return;
        }
        entry.flushed_epoch = epoch;
        // A child that went silent (crashed, left, restarted under a fresh
        // id) is never pruned by name; past the ttl no reader counts it, so
        // it goes here instead of costing every walk for the rest of the run.
        entry
            .children
            .retain(|(_, _, e)| epoch.saturating_sub(*e) <= ttl);
        // Branching factor of the implicit DAT: how many recently-active
        // children fold into this node's push (the paper's Fig. 6 metric).
        let branching = entry.active_children(epoch).count() as u64;
        self.metrics.observe("branching", branching);
        let tid = trace_id_for(key.0, epoch);
        let mut decision = entry.parent_under(&self.cfg, cx.table());
        // Proactive failover: a parent the phi-accrual detector suspects is
        // routed around *now*, before any RTO fires — evict it from the
        // routing table (it lands in the fallen queue, so a false positive
        // unifies back) and recompute the parent against what remains.
        // Bounded by the successor-list length so a wholly-suspect table
        // cannot spin; if everything is suspect we push to the last
        // candidate and let the timeout machinery sort it out.
        let mut hops = cx.table().successor_list().len().max(1);
        while let ParentDecision::Parent(p) = decision {
            if hops == 0 || cx.suspicion(p.id) == SuspicionLevel::Healthy {
                break;
            }
            hops -= 1;
            self.metrics.inc("proactive_reparents_total");
            self.metrics
                .trace(cx.now_ms(), tid, EventKind::Suspect { node: p.id.0 });
            cx.evict_suspect(p);
            decision = entry.parent_under(&self.cfg, cx.table());
        }
        // Root stickiness: a transiently evicted predecessor makes the ring
        // position uncertain; a recent root keeps reporting rather than
        // pushing its partial *down* the tree (which would both silence the
        // report and create a counting cycle).
        match decision {
            ParentDecision::IAmRoot => {
                entry.root_until = epoch + 2;
                // Warm failover: if a previous root replicated its soft
                // state here, fold it in before computing this epoch's
                // partial — the first report after a takeover already
                // covers the whole grid.
                let adopting = entry.replica.as_ref().is_some_and(|r| r.root != me.id);
                entry.adopt_replica(me.id, epoch);
                if adopting {
                    let seq = entry.fence_seq;
                    self.metrics
                        .trace(cx.now_ms(), tid, EventKind::Failover { key: key.0, seq });
                }
            }
            _ => {
                let pred_unknown = cx.table().predecessor().is_none();
                let sticky = entry.root_until >= epoch;
                if pred_unknown && sticky {
                    // Fencing (at most one report per key per epoch): a
                    // sticky ex-root stands down as soon as it has observed
                    // the live root's fence — a RootState replica with a
                    // sequence at or above its own. Without this, an
                    // evicted ex-root keeps reporting for up to 2 epochs
                    // *alongside* the true root.
                    let fenced_off = entry.fence_root.is_some_and(|root| root != me.id);
                    if fenced_off {
                        let seq = entry.fence_seq;
                        self.metrics.trace(
                            cx.now_ms(),
                            tid,
                            EventKind::FenceReject { key: key.0, seq },
                        );
                    } else {
                        decision = ParentDecision::IAmRoot;
                    }
                }
            }
        }
        let new_parent = decision.parent();
        let mut partial = entry.merged_partial(epoch, ttl, new_parent.map(|p| p.id));
        // Thread the causal epoch id through the wire partial; merges
        // max-combine it, so the root sees the newest epoch's id.
        partial.trace_id = partial.trace_id.max(tid);
        // Parent switch: tell the old parent to forget our partial so the
        // subtree is never counted along two paths at once. Prunes ride the
        // same lossy links as updates, so each switch schedules two.
        if let Some(old) = entry
            .last_parent
            .filter(|old| Some(old.id) != new_parent.map(|p| p.id))
        {
            entry.prune_old = Some((old, 2));
        }
        entry.last_parent = new_parent;
        // Never prune the node we are about to push to.
        if entry.prune_old.map(|(o, _)| Some(o.id)) == Some(new_parent.map(|p| p.id)) {
            entry.prune_old = None;
        }
        if let Some((old, n)) = entry.prune_old {
            entry.prune_old = (n > 1).then_some((old, n - 1));
            let msg = DatMsg::Prune { key, sender: me };
            self.metrics.on_send(cx.now_ms(), tid, msg.kind(), old.id.0);
            cx.send(old, msg.encode());
        }
        match decision {
            ParentDecision::IAmRoot => self.publish(cx, slot, partial),
            ParentDecision::Parent(p) => {
                let msg = DatMsg::Update {
                    key,
                    epoch,
                    partial,
                    sender: me,
                };
                // The `dat_update` Send event is the edge record of the
                // causal epoch trace: child = this node, parent = `to`.
                self.metrics.on_send(cx.now_ms(), tid, msg.kind(), p.id.0);
                cx.send(p, msg.encode());
                // Updates are fire-and-forget; probe the parent's liveness
                // once per epoch so a crashed or departed parent is evicted
                // (via the Chord timeout machinery) and next epoch's parent
                // computation routes around it.
                if self.parent_ping_epoch < epoch {
                    self.parent_ping_epoch = epoch;
                    self.metrics.count_sent_kind("dat_parent_ping");
                    cx.ping(p);
                }
            }
            ParentDecision::Unknown => {
                // Table still converging: roll the flush marker back, so
                // the next epoch retries instead of silently dropping a
                // slot.
                entry.flushed_epoch = epoch.saturating_sub(1);
            }
        }
    }

    /// Publish `partial` as this root's report for the aggregation in
    /// `slot`: bump the report fence, emit the `Report` event with its
    /// completeness accounting, and replicate the root state. The one
    /// path for both modes — the centralized root's tick and the
    /// continuous root's flush.
    fn publish(&mut self, cx: &mut Ctx<'_>, slot: usize, partial: AggPartial) {
        let (epoch, me) = (self.epoch, cx.me());
        let entry = &mut self.aggs[slot];
        entry.fence_seq += 1;
        entry.fence_root = Some(me.id);
        let (key, seq) = (entry.key, entry.fence_seq);
        let completeness = self.completeness_for(cx, &partial, seq);
        self.metrics.trace(
            cx.now_ms(),
            trace_id_for(key.0, epoch),
            EventKind::Report {
                key: key.0,
                epoch,
                contributors: partial.contributors,
                seq,
            },
        );
        self.metrics.observe(
            "epoch_completion_ms",
            cx.now_ms().saturating_sub(self.epoch_started_ms),
        );
        self.events.push(DatEvent::Report {
            key,
            epoch,
            partial,
            completeness,
        });
        self.replicate_root_state(cx, slot, seq);
    }

    /// Completeness accounting for a root report: contributors vs the
    /// ring-size estimate, plus the staleness bound in wall-clock terms.
    fn completeness_for(&self, cx: &Ctx<'_>, partial: &AggPartial, seq: u64) -> Completeness {
        let expected = ring_size_for_d0(cx.space(), d0(&self.cfg, cx.table()));
        Completeness {
            contributors: partial.contributors,
            expected,
            ratio: if expected == 0 {
                0.0
            } else {
                partial.contributors as f64 / expected as f64
            },
            staleness_ms: partial.age_epochs.saturating_mul(self.cfg.epoch_ms),
            seq,
            root: cx.me().id,
        }
    }

    /// Warm root failover: ship this key's soft state (fresh child
    /// partials + centralized samples, each with its age) and the report
    /// fence to the first `REPLICATION_K` successors.
    fn replicate_root_state(&mut self, cx: &mut Ctx<'_>, slot: usize, seq: u64) {
        let targets = cx.successors(REPLICATION_K);
        if targets.is_empty() {
            return;
        }
        let epoch = self.epoch;
        let ttl = self.cfg.child_ttl_epochs;
        let entry = &self.aggs[slot];
        let key = entry.key;
        let children: Vec<(Id, AggPartial, u64)> = entry
            .children
            .iter()
            .filter_map(|(id, p, e)| {
                let age = epoch.saturating_sub(*e);
                (age <= ttl).then(|| (*id, p.clone(), age))
            })
            .collect();
        let raw: Vec<(Id, f64, u64)> = entry
            .raw
            .iter()
            .filter_map(|(id, (v, e))| {
                let age = epoch.saturating_sub(*e);
                (age <= ttl).then_some((*id, *v, age))
            })
            .collect();
        let msg = DatMsg::RootState {
            key,
            seq,
            root: cx.me(),
            children,
            raw,
        };
        let bytes = msg.encode();
        let kind = msg.kind();
        let tid = trace_id_for(key.0, epoch);
        for t in targets {
            self.metrics.on_send(cx.now_ms(), tid, kind, t.id.0);
            cx.send(t, bytes.clone());
        }
    }

    /// The causal trace id a received DAT message is ringed under. Query
    /// traffic is traced under its request id at both ends. Epoch traffic
    /// is ringed once, by its sender: an `Update`'s `Send` is already the
    /// edge [`dat_obs::EpochTrace`] reads, so its receive (like a `Prune`'s
    /// or a `RootState`'s) is id 0 — counted, not ringed.
    fn msg_trace_id(msg: &DatMsg) -> u64 {
        match msg {
            DatMsg::Request { reqid, .. }
            | DatMsg::Query { reqid, .. }
            | DatMsg::Response { reqid, .. }
            | DatMsg::Result { reqid, .. } => *reqid,
            DatMsg::RawSample { key, epoch, .. } => trace_id_for(key.0, *epoch),
            DatMsg::Update { .. } | DatMsg::Prune { .. } | DatMsg::RootState { .. } => 0,
        }
    }

    fn on_dat_msg(&mut self, cx: &mut Ctx<'_>, _from: NodeAddr, msg: DatMsg) {
        match msg {
            DatMsg::Update {
                key,
                epoch: _,
                partial,
                sender,
            } => {
                let now_epoch = self.epoch;
                let Some(slot) = slot_of(&self.aggs, key) else {
                    return;
                };
                let e = &mut self.aggs[slot];
                // Stamp with OUR epoch counter: nodes that joined at
                // different times number epochs differently.
                e.put_child(sender.id, partial, now_epoch);
                // Readiness: every recently-active child has delivered this
                // epoch's partial. A child the failure detector suspects is
                // NOT waited for — its last-known partial still merges
                // (soft state), but the epoch cascades without it, so
                // Completeness degrades instead of the report stalling
                // behind a slow or gray-failed subtree.
                let ready = e.flushed_epoch < now_epoch
                    && e.active(now_epoch).all(|(child, delivered)| {
                        delivered == now_epoch || cx.suspicion(child) != SuspicionLevel::Healthy
                    });
                if ready {
                    // Cascade up without waiting for the hold timer.
                    self.flush_continuous(cx, slot);
                }
            }
            DatMsg::RawSample {
                key,
                epoch,
                value,
                sender,
            } => {
                let now_epoch = self.epoch;
                if let Some(e) = self.aggregation_mut(key) {
                    e.raw.insert(sender.id, (value, epoch.max(now_epoch)));
                }
            }
            DatMsg::Request {
                reqid,
                key,
                requester,
            } => {
                self.begin_fanout(cx, reqid, key, requester);
            }
            DatMsg::Query {
                reqid,
                key,
                limit,
                parent,
                depth,
            } => {
                self.on_query(cx, reqid, key, limit, parent, depth);
            }
            DatMsg::Response {
                reqid,
                key: _,
                partial,
                sender,
            } => {
                let open = self.queries.get_mut(&reqid).and_then(|s| s.open.as_mut());
                let complete = open.is_some_and(|q| {
                    let Some(i) = q.awaiting.iter().position(|c| *c == sender.id) else {
                        return false;
                    };
                    q.awaiting.swap_remove(i);
                    q.acc.merge(&partial);
                    q.awaiting.is_empty()
                });
                if complete {
                    self.complete_query(cx, reqid);
                }
            }
            DatMsg::Prune { key, sender } => {
                if let Some(e) = self.aggregation_mut(key) {
                    e.children.retain(|c| c.0 != sender.id);
                }
            }
            DatMsg::RootState {
                key,
                seq,
                root,
                children,
                raw,
            } => {
                let now_epoch = self.epoch;
                if let Some(slot) = slot_of(&self.aggs, key) {
                    let e = &mut self.aggs[slot];
                    // Fences only move forward: a replica from a restarted
                    // ex-root replaying a stale sequence is ignored, so it
                    // can neither displace the live root's replica nor
                    // un-fence a stood-down node.
                    if seq >= e.fence_seq {
                        e.fence_seq = seq;
                        e.fence_root = Some(root.id);
                        e.replica = Some(ReplicaState {
                            root: root.id,
                            seq,
                            children,
                            raw,
                            received_epoch: now_epoch,
                        });
                    } else {
                        self.metrics.trace(
                            cx.now_ms(),
                            trace_id_for(key.0, now_epoch),
                            EventKind::FenceReject { key: key.0, seq },
                        );
                    }
                }
            }
            DatMsg::Result {
                reqid,
                key,
                partial,
            } => {
                self.events.push(DatEvent::QueryDone {
                    reqid,
                    key,
                    partial,
                });
            }
        }
    }

    /// Root-side start of an on-demand aggregation: fan out over the whole
    /// ring, the result goes to `requester`.
    fn begin_fanout(&mut self, cx: &mut Ctx<'_>, reqid: u64, key: Id, requester: NodeRef) {
        if self.queries.contains_key(&reqid) {
            return; // a second copy of the request
        }
        let me = cx.me();
        self.open_query(cx, reqid, key, me.id, None, Some(requester), 0);
    }

    /// Handle an incoming fan-out query for range `(me, limit)`.
    fn on_query(
        &mut self,
        cx: &mut Ctx<'_>,
        reqid: u64,
        key: Id,
        limit: Id,
        parent: NodeRef,
        depth: u32,
    ) {
        if let Some(slot) = self.queries.get(&reqid) {
            // We already hold this query, open or answered. A second
            // parent reaching us during churn is owed one answer, and the
            // identity keeps it from counting our range twice. A second
            // copy of the same parent's query is owed nothing: its one
            // response is on the way or sent.
            if slot.parent.map(|p| p.id) != Some(parent.id) {
                let msg = DatMsg::Response {
                    reqid,
                    key,
                    partial: AggPartial::identity(),
                    sender: cx.me(),
                };
                self.metrics
                    .on_send(cx.now_ms(), reqid, msg.kind(), parent.id.0);
                cx.send(parent, msg.encode());
            }
            return;
        }
        self.open_query(cx, reqid, key, limit, Some(parent), None, depth + 1);
    }

    /// Fan `reqid` out over `(me, limit)` and start gathering.
    #[allow(clippy::too_many_arguments)]
    fn open_query(
        &mut self,
        cx: &mut Ctx<'_>,
        reqid: u64,
        key: Id,
        limit: Id,
        parent: Option<NodeRef>,
        requester: Option<NodeRef>,
        depth: u32,
    ) {
        let acc = self.local_partial(key);
        let awaiting = self.fan_out_query(cx, reqid, key, limit, depth);
        let leaf = awaiting.is_empty();
        let open = Some(Box::new(QueryState {
            key,
            requester,
            awaiting,
            acc,
        }));
        self.queries.insert(reqid, QuerySlot { parent, open });
        if leaf {
            self.complete_query(cx, reqid);
        } else {
            self.arm_query_window(cx, reqid, depth);
        }
    }

    fn local_partial(&self, key: Id) -> AggPartial {
        match self.aggregation(key) {
            Some(e) => {
                let mut p = e.base_partial();
                if let Some(x) = e.local {
                    p.absorb(x);
                }
                p.contributors = 1;
                p
            }
            None => AggPartial::identity(),
        }
    }

    /// Send `Query` messages covering the disjoint finger sub-ranges of
    /// `(me, limit)`. Returns the children queried.
    fn fan_out_query(
        &mut self,
        cx: &mut Ctx<'_>,
        reqid: u64,
        key: Id,
        limit: Id,
        depth: u32,
    ) -> Vec<Id> {
        let me = cx.me();
        let shares = cx.table().fan_out(limit);
        for &(target, sub_limit) in &shares {
            let msg = DatMsg::Query {
                reqid,
                key,
                limit: sub_limit,
                parent: me,
                depth,
            };
            self.metrics
                .on_send(cx.now_ms(), reqid, msg.kind(), target.id.0);
            cx.send(target, msg.encode());
        }
        if !shares.is_empty() {
            // Fan-out width per level of the on-demand broadcast tree.
            self.metrics.observe("fanout", shares.len() as u64);
        }
        shares.iter().map(|(t, _)| t.id).collect()
    }

    /// Set the lost-branch deadline of a query. Windows halve with fan-out
    /// depth so that a deep subtree's timeout still fits inside every
    /// ancestor's window — otherwise one lost message below would make the
    /// root close before the (late but complete) deep responses arrive.
    fn arm_query_window(&mut self, cx: &mut Ctx<'_>, reqid: u64, depth: u32) {
        let window = (self.cfg.query_window_ms >> depth.min(6)).max(40);
        self.windows.push(Reverse((cx.now_ms() + window, reqid)));
        self.ensure_window_timer(cx);
    }

    /// Keep a host timer pending for the earliest deadline of a query
    /// that is still open. A query answered before its window closes —
    /// every one, on a healthy ring — is skipped here and never costs a
    /// timer of its own; an open one still closes at exactly its deadline.
    fn ensure_window_timer(&mut self, cx: &mut Ctx<'_>) {
        let deadline = loop {
            let Some(&Reverse((deadline, reqid))) = self.windows.peek() else {
                return;
            };
            if self.queries.get(&reqid).is_some_and(|s| s.open.is_some()) {
                break deadline;
            }
            self.windows.pop();
        };
        if self.window_armed_ms.is_some_and(|armed| armed <= deadline) {
            return;
        }
        self.window_armed_ms = Some(deadline);
        let delay = deadline.saturating_sub(cx.now_ms());
        self.arm(cx, DatTimer::QueryWindow(deadline), delay);
    }

    fn on_query_window(&mut self, cx: &mut Ctx<'_>, armed_for: u64) {
        if self.window_armed_ms == Some(armed_for) {
            self.window_armed_ms = None;
        }
        while let Some(&Reverse((deadline, reqid))) = self.windows.peek() {
            if deadline > cx.now_ms() {
                break;
            }
            self.windows.pop();
            // Lost branches: answer with what we have (no-op once answered).
            self.complete_query(cx, reqid);
        }
        self.ensure_window_timer(cx);
    }

    fn complete_query(&mut self, cx: &mut Ctx<'_>, reqid: u64) {
        let me = cx.me();
        let Some(slot) = self.queries.get_mut(&reqid) else {
            return;
        };
        let Some(q) = slot.open.take() else {
            return;
        };
        let parent = slot.parent;
        self.completed.push_back(reqid);
        if self.completed.len() > COMPLETED_QUERIES_KEPT {
            if let Some(oldest) = self.completed.pop_front() {
                self.queries.remove(&oldest);
            }
        }
        let QueryState {
            key,
            requester,
            acc: partial,
            ..
        } = *q;
        match parent {
            Some(p) => {
                let msg = DatMsg::Response {
                    reqid,
                    key,
                    partial,
                    sender: me,
                };
                self.metrics.on_send(cx.now_ms(), reqid, msg.kind(), p.id.0);
                cx.send(p, msg.encode());
            }
            None => match requester {
                Some(r) if r.id == me.id => {
                    self.events.push(DatEvent::QueryDone {
                        reqid,
                        key,
                        partial,
                    });
                }
                Some(r) => {
                    let msg = DatMsg::Result {
                        reqid,
                        key,
                        partial,
                    };
                    self.metrics.on_send(cx.now_ms(), reqid, msg.kind(), r.id.0);
                    cx.send(r, msg.encode());
                }
                None => {}
            },
        }
    }
}

impl AppProtocol for DatProtocol {
    fn proto(&self) -> u8 {
        DAT_PROTO
    }

    fn on_start(&mut self, cx: &mut Ctx<'_>) {
        self.ensure_epoch_timer(cx);
    }

    fn on_message(&mut self, cx: &mut Ctx<'_>, from: NodeRef, payload: &[u8]) {
        match DatMsg::decode(payload) {
            Ok(msg) => {
                // App-level senders are real NodeRefs on both transports,
                // so these Recv events are cross-transport comparable.
                self.metrics
                    .on_recv(cx.now_ms(), Self::msg_trace_id(&msg), msg.kind(), from.id.0);
                self.on_dat_msg(cx, from.addr, msg);
            }
            Err(_) => self.metrics.dropped += 1,
        }
    }

    fn on_timer(&mut self, cx: &mut Ctx<'_>, sub: u64) {
        // A token that was never armed, or that already fired, is not in
        // the table and is ignored.
        let Some(at) = self.timers.iter().position(|(token, _)| *token == sub) else {
            return;
        };
        match self.timers.swap_remove(at).1 {
            DatTimer::EpochTick => {
                self.epoch_timer_armed = false;
                self.on_epoch(cx);
                self.ensure_epoch_timer(cx);
            }
            DatTimer::QueryWindow(armed_for) => self.on_query_window(cx, armed_for),
            DatTimer::HoldFlush(key) => {
                if let Some(slot) = slot_of(&self.aggs, key) {
                    self.flush_continuous(cx, slot);
                }
            }
        }
    }

    fn on_routed(&mut self, cx: &mut Ctx<'_>, _key: Id, origin: NodeRef, payload: &[u8]) {
        match DatMsg::decode(payload) {
            Ok(msg) => {
                self.metrics.on_recv(
                    cx.now_ms(),
                    Self::msg_trace_id(&msg),
                    msg.kind(),
                    origin.id.0,
                );
                self.on_dat_msg(cx, origin.addr, msg);
            }
            Err(_) => self.metrics.dropped += 1,
        }
    }

    fn reset_metrics(&mut self) {
        self.metrics.reset();
    }

    fn metrics(&self) -> Option<&Metrics> {
        Some(&self.metrics)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// DAT-specific conveniences on the stack engine — the host-facing API for
/// nodes that (possibly among other protocols) run DAT aggregation. All of
/// these panic if no [`DatProtocol`] is registered.
impl StackNode {
    /// The DAT handler (read-only).
    pub fn dat(&self) -> &DatProtocol {
        self.app::<DatProtocol>()
    }

    /// The DAT handler (mutable, state-only access).
    pub fn dat_mut(&mut self) -> &mut DatProtocol {
        self.app_mut::<DatProtocol>()
    }

    /// Register an aggregation for attribute `name`. The rendezvous key is
    /// the SHA-1 hash of the name (paper §2.3). Returns the key.
    pub fn register(&mut self, name: &str, mode: AggregationMode) -> Id {
        self.register_with_histogram(name, mode, None)
    }

    /// Register an aggregation whose partials carry a histogram digest.
    pub fn register_with_histogram(
        &mut self,
        name: &str,
        mode: AggregationMode,
        histogram: Option<(f64, f64, usize)>,
    ) -> Id {
        let key = hash_to_id(self.space(), name.as_bytes());
        self.dat_mut().register_entry(key, name, mode, histogram);
        key
    }

    /// Register an aggregation whose partials carry a distinct-count
    /// sketch of the given precision (see [`crate::sketch::Hll`]).
    pub fn register_with_distinct(&mut self, name: &str, mode: AggregationMode, p: u8) -> Id {
        let key = self.register(name, mode);
        if let Some(e) = self.dat_mut().aggregation_mut(key) {
            e.distinct_p = Some(p);
        }
        key
    }

    /// Update this node's local value for an aggregation (sensor input).
    pub fn set_local(&mut self, key: Id, value: f64) {
        self.dat_mut().set_local(key, value);
    }

    /// Record an identity-bearing item for the distinct-count sketch.
    pub fn observe_local_item(&mut self, key: Id, item: &[u8]) {
        self.dat_mut().observe_local_item(key, item);
    }

    /// Drain DAT application events produced since the last call.
    pub fn take_events(&mut self) -> Vec<DatEvent> {
        self.dat_mut().take_events()
    }

    /// Current DAT epoch index.
    pub fn epoch(&self) -> u64 {
        self.dat().epoch()
    }

    /// Look up one aggregation entry.
    pub fn aggregation(&self, key: Id) -> Option<&AggregationEntry> {
        self.dat().aggregation(key)
    }

    /// DAT-layer message counters.
    pub fn dat_metrics(&self) -> &Metrics {
        self.dat().metrics()
    }

    /// The DAT parent this node currently computes for `key`.
    pub fn parent_decision(&self, key: Id) -> ParentDecision {
        decide_parent(self.dat().config(), self.table(), key)
    }

    /// Issue an on-demand aggregate query for `key`. The answer arrives as
    /// [`DatEvent::QueryDone`] with the returned request id.
    pub fn query(&mut self, key: Id) -> (u64, Vec<Output>) {
        self.drive::<DatProtocol, _>(move |d, cx| d.query(cx, key))
    }
}

/// Where `key`'s entry sits in a table ordered by key.
fn slot_of(aggs: &[AggregationEntry], key: Id) -> Option<usize> {
    aggs.binary_search_by_key(&key, |e| e.key).ok()
}

/// The DAT parent computed for `key` against the given finger table.
fn decide_parent(cfg: &DatConfig, table: &FingerTable, key: Id) -> ParentDecision {
    parent_for(cfg.scheme, table, key, d0(cfg, table))
}

/// The average inter-node gap: the experiment's exact hint, or the local
/// estimate.
fn d0(cfg: &DatConfig, table: &FingerTable) -> u64 {
    cfg.d0_hint.unwrap_or_else(|| estimate_d0(table))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dat_chord::{ChordConfig, ChordNode, IdSpace, Input, Output};

    fn mk(id: u64) -> StackNode {
        let ccfg = ChordConfig {
            space: IdSpace::new(8),
            ..ChordConfig::default()
        };
        StackNode::new(ccfg, Id(id), NodeAddr(id)).with_app(DatProtocol::new(DatConfig::default()))
    }

    fn timer_outputs(outs: &[Output]) -> Vec<dat_chord::TimerKind> {
        outs.iter()
            .filter_map(|o| match o {
                Output::SetTimer { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn register_derives_key_from_name() {
        let mut n = mk(1);
        let k1 = n.register("cpu-usage", AggregationMode::Continuous);
        let k2 = n.register("cpu-usage", AggregationMode::Continuous);
        assert_eq!(k1, k2);
        let k3 = n.register("memory-size", AggregationMode::Continuous);
        assert_ne!(k1, k3);
        assert_eq!(n.dat().aggregations().count(), 2);
        assert_eq!(n.aggregation(k1).unwrap().name, "cpu-usage");
    }

    #[test]
    fn create_arms_epoch_timer() {
        let mut n = mk(1);
        n.register("cpu-usage", AggregationMode::Continuous);
        let outs = n.start_create();
        let timers = timer_outputs(&outs);
        assert!(
            timers
                .iter()
                .any(|t| matches!(t, dat_chord::TimerKind::App(_))),
            "epoch timer must be armed: {timers:?}"
        );
    }

    #[test]
    fn singleton_root_reports_own_value() {
        let mut n = mk(1);
        let key = n.register("cpu-usage", AggregationMode::Continuous);
        let outs = n.start_create();
        n.set_local(key, 55.0);
        // Fire the epoch timer.
        let app = timer_outputs(&outs)
            .into_iter()
            .find(|t| matches!(t, dat_chord::TimerKind::App(_)))
            .unwrap();
        let _ = n.handle(Input::Timer(app));
        let evs = n.take_events();
        assert_eq!(evs.len(), 1);
        match &evs[0] {
            DatEvent::Report {
                key: k,
                epoch,
                partial,
                completeness,
            } => {
                assert_eq!(*k, key);
                assert_eq!(*epoch, 1);
                assert_eq!(partial.finalize(crate::aggregate::AggFunc::Sum), 55.0);
                assert_eq!(partial.count, 1);
                // A singleton ring is fully covered by its own report.
                assert_eq!(partial.contributors, 1);
                assert_eq!(completeness.contributors, 1);
                assert_eq!(completeness.expected, 1);
                assert_eq!(completeness.ratio, 1.0);
                assert_eq!(completeness.staleness_ms, 0);
                assert_eq!(completeness.seq, 1);
                assert_eq!(completeness.root, Id(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn singleton_query_completes_instantly() {
        let mut n = mk(1);
        let key = n.register("cpu-usage", AggregationMode::Continuous);
        let _ = n.start_create();
        n.set_local(key, 7.0);
        let (reqid, _) = n.query(key);
        let evs = n.take_events();
        assert_eq!(evs.len(), 1);
        match &evs[0] {
            DatEvent::QueryDone {
                reqid: r, partial, ..
            } => {
                assert_eq!(*r, reqid);
                assert_eq!(partial.sum, 7.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn update_message_absorbed_into_children() {
        let mut root = mk(1);
        let key = root.register("cpu-usage", AggregationMode::Continuous);
        let _ = root.start_create();
        root.set_local(key, 10.0);
        // A fake child pushes a partial.
        let child = NodeRef::new(Id(99), NodeAddr(99));
        let upd = DatMsg::Update {
            key,
            epoch: 1,
            partial: AggPartial::of(32.0),
            sender: child,
        };
        let _ = root.handle(Input::Message {
            from: NodeAddr(99),
            msg: dat_chord::ChordMsg::App {
                proto: DAT_PROTO,
                from: child,
                payload: upd.encode().into(),
            },
        });
        assert_eq!(root.aggregation(key).unwrap().live_children(1, 3), 1);
        // Next epoch the root report includes the child's value.
        let outs = root.fire_epoch_for_tests();
        let _ = outs;
        let evs = root.take_events();
        let report = evs
            .iter()
            .find_map(|e| match e {
                DatEvent::Report { partial, .. } => Some(partial.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(report.count, 2);
        assert_eq!(report.sum, 42.0);
    }

    #[test]
    fn duplicated_update_does_not_inflate_continuous_readout() {
        // Duplicate-delivery tolerance of the continuous path: a child's
        // Update lands in a per-sender slot, so replaying the identical
        // datagram (as a duplicating transport would) overwrites instead of
        // accumulating — Sum/Count stay exact even though
        // `AggPartial::merge` itself is not idempotent.
        let mut root = mk(1);
        let key = root.register("cpu-usage", AggregationMode::Continuous);
        let _ = root.start_create();
        root.set_local(key, 10.0);
        let child = NodeRef::new(Id(99), NodeAddr(99));
        let upd = DatMsg::Update {
            key,
            epoch: 1,
            partial: AggPartial::of(32.0),
            sender: child,
        };
        for _ in 0..3 {
            let _ = root.handle(Input::Message {
                from: NodeAddr(99),
                msg: dat_chord::ChordMsg::App {
                    proto: DAT_PROTO,
                    from: child,
                    payload: upd.encode().into(),
                },
            });
        }
        assert_eq!(root.aggregation(key).unwrap().live_children(1, 3), 1);
        let _ = root.fire_epoch_for_tests();
        let evs = root.take_events();
        let report = evs
            .iter()
            .find_map(|e| match e {
                DatEvent::Report { partial, .. } => Some(partial.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(report.count, 2, "triple delivery must count the child once");
        assert_eq!(report.sum, 42.0);
    }

    #[test]
    fn stale_children_expire() {
        let mut root = mk(1);
        let key = root.register("cpu-usage", AggregationMode::Continuous);
        let _ = root.start_create();
        root.set_local(key, 1.0);
        let child = NodeRef::new(Id(99), NodeAddr(99));
        let upd = DatMsg::Update {
            key,
            epoch: 1,
            partial: AggPartial::of(100.0),
            sender: child,
        };
        let _ = root.handle(Input::Message {
            from: NodeAddr(99),
            msg: dat_chord::ChordMsg::App {
                proto: DAT_PROTO,
                from: child,
                payload: upd.encode().into(),
            },
        });
        // Advance well past the TTL (ttl = 3): 6 epochs.
        for _ in 0..6 {
            let _ = root.fire_epoch_for_tests();
        }
        let evs = root.take_events();
        let last = evs
            .iter()
            .rev()
            .find_map(|e| match e {
                DatEvent::Report { partial, .. } => Some(partial.clone()),
                _ => None,
            })
            .unwrap();
        // Only the local value remains.
        assert_eq!(last.count, 1);
        assert_eq!(last.sum, 1.0);
    }

    #[test]
    fn bad_payload_counted_dropped() {
        let mut n = mk(1);
        let _ = n.start_create();
        let _ = n.handle(Input::Message {
            from: NodeAddr(5),
            msg: dat_chord::ChordMsg::App {
                proto: DAT_PROTO,
                from: NodeRef::new(Id(5), NodeAddr(5)),
                payload: vec![0xde, 0xad].into(),
            },
        });
        assert_eq!(n.dat_metrics().dropped, 1);
    }

    #[test]
    fn flush_delays_cascade_bottom_up() {
        // Child delays must be strictly below their parent's, and the key
        // owner (root) must flush last.
        use dat_chord::{IdPolicy, StaticRing};
        use rand::SeedableRng;
        let space = IdSpace::new(16);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let ring = StaticRing::build(space, 64, IdPolicy::Probed, &mut rng);
        let key = dat_chord::hash_to_id(space, b"cpu-usage");
        let tree = crate::tree::DatTree::build(&ring, key, RoutingScheme::Balanced);
        let delay_of = |id: Id| {
            let ccfg = ChordConfig {
                space,
                ..ChordConfig::default()
            };
            let chord = ChordNode::new(ccfg, id, NodeAddr(id.raw()));
            let mut node =
                StackNode::from_chord(chord).with_app(DatProtocol::new(DatConfig::default()));
            let table = ring.table_of(id, 4);
            let _ = node.start_with_table(table);
            node.drive::<DatProtocol, _>(|d, cx| d.flush_delay(cx, key))
                .0
        };
        let root_delay = delay_of(tree.root());
        assert_eq!(
            root_delay,
            DatConfig::default().hold_ms,
            "root flushes last"
        );
        for (child, parent) in tree.edges() {
            let dc = delay_of(child);
            let dp = delay_of(parent);
            assert!(
                dc < dp || parent == tree.root(),
                "child {child} delay {dc} !< parent {parent} delay {dp}"
            );
            if parent == tree.root() {
                assert!(dc < root_delay, "child {child} !< root");
            }
        }
    }

    #[test]
    fn fenced_ex_root_stands_down() {
        use dat_chord::FingerTable;
        // A sticky ex-root (predecessor unknown, root_until in the future)
        // keeps reporting — until it observes the live root's fence, after
        // which at most one node reports per key per epoch.
        let space = IdSpace::new(8);
        let ccfg = ChordConfig {
            space,
            ..ChordConfig::default()
        };
        let mut probe = mk(1);
        let key = probe.register("cpu-usage", AggregationMode::Continuous);
        // Place ourselves half a ring away from the key with one successor
        // just clockwise of us: the real parent decision is Parent(succ).
        let me = NodeRef::new(Id((key.raw() + 128) % 256), NodeAddr(10));
        let succ = NodeRef::new(Id((me.id.raw() + 1) % 256), NodeAddr(11));
        let mut n =
            StackNode::new(ccfg, me.id, me.addr).with_app(DatProtocol::new(DatConfig::default()));
        let k2 = n.register("cpu-usage", AggregationMode::Continuous);
        assert_eq!(key, k2);
        let mut table = FingerTable::new(space, me, 4);
        table.set_successor(succ);
        let _ = n.start_with_table(table);
        n.set_local(key, 5.0);
        // Pretend we were recently the acting root.
        n.app_mut::<DatProtocol>()
            .aggregation_mut(key)
            .unwrap()
            .root_until = 10;
        let _ = n.fire_epoch_for_tests();
        let reports = n
            .take_events()
            .into_iter()
            .filter(|e| matches!(e, DatEvent::Report { .. }))
            .count();
        assert_eq!(reports, 1, "sticky ex-root keeps reporting while unfenced");
        // The live root's replica arrives: seq at/above ours, another root.
        let fence = DatMsg::RootState {
            key,
            seq: 7,
            root: succ,
            children: Vec::new(),
            raw: Vec::new(),
        };
        let _ = n.handle(Input::Message {
            from: succ.addr,
            msg: dat_chord::ChordMsg::App {
                proto: DAT_PROTO,
                from: succ,
                payload: fence.encode().into(),
            },
        });
        let _ = n.fire_epoch_for_tests();
        let evs = n.take_events();
        assert!(
            !evs.iter().any(|e| matches!(e, DatEvent::Report { .. })),
            "fenced ex-root must stand down, got {evs:?}"
        );
    }

    #[test]
    fn adopted_replica_warms_first_report() {
        use dat_chord::FingerTable;
        // A node that becomes root with a RootState replica on hand must
        // cover the crashed root's children in its *first* report and
        // continue the report fence past the replicated sequence.
        let space = IdSpace::new(8);
        let ccfg = ChordConfig {
            space,
            ..ChordConfig::default()
        };
        let mut probe = mk(1);
        let key = probe.register("cpu-usage", AggregationMode::Continuous);
        // We own the key: predecessor just counter-clockwise of it.
        let me = NodeRef::new(Id((key.raw() + 1) % 256), NodeAddr(10));
        let pred = NodeRef::new(Id((key.raw() + 251) % 256), NodeAddr(11));
        let succ = NodeRef::new(Id((me.id.raw() + 50) % 256), NodeAddr(12));
        let mut n =
            StackNode::new(ccfg, me.id, me.addr).with_app(DatProtocol::new(DatConfig::default()));
        let _ = n.register("cpu-usage", AggregationMode::Continuous);
        let mut table = FingerTable::new(space, me, 4);
        table.set_successor(succ);
        table.set_predecessor(Some(pred));
        let _ = n.start_with_table(table);
        n.set_local(key, 1.0);
        let mut child_partial = AggPartial::of(5.0);
        child_partial.contributors = 3; // a three-node subtree
        let rep = DatMsg::RootState {
            key,
            seq: 7,
            root: pred,
            children: vec![(Id(99), child_partial, 0)],
            raw: Vec::new(),
        };
        let _ = n.handle(Input::Message {
            from: pred.addr,
            msg: dat_chord::ChordMsg::App {
                proto: DAT_PROTO,
                from: pred,
                payload: rep.encode().into(),
            },
        });
        let _ = n.fire_epoch_for_tests();
        let evs = n.take_events();
        let (partial, completeness) = evs
            .iter()
            .find_map(|e| match e {
                DatEvent::Report {
                    partial,
                    completeness,
                    ..
                } => Some((partial.clone(), *completeness)),
                _ => None,
            })
            .expect("new root must report in its first epoch");
        assert_eq!(partial.contributors, 4, "self + adopted 3-node subtree");
        assert_eq!(partial.sum, 6.0);
        assert_eq!(completeness.seq, 8, "fence continues past the replica");
        // The adopted snapshot is one epoch old by local reckoning.
        assert_eq!(completeness.staleness_ms, DatConfig::default().epoch_ms);
    }

    /// The parent a flush reads is the parent a fresh `parent_for` gives,
    /// after every table mutation: 64 seeded streams of 500 mutations on a
    /// 24-node table, both schemes, with and without the exact `d0`. A
    /// mutation that moves something the decision reads (predecessor,
    /// successor list, a finger's node) must move the table's version —
    /// the stamped decision then misses; one that moves nothing may hit.
    #[test]
    fn stamped_parent_equals_a_fresh_decision_after_every_table_mutation() {
        use dat_chord::{FingerInfo, IdPolicy, StaticRing};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let space = IdSpace::new(16);
        let (mut hits, mut misses, mut switches) = (0u32, 0u32, 0u32);
        for seed in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(0xDA7 ^ seed);
            let policy = [IdPolicy::Random, IdPolicy::Probed][seed as usize % 2];
            let ring = StaticRing::build(space, 24, policy, &mut rng);
            let ids = ring.ids();
            let cfg = DatConfig {
                scheme: [RoutingScheme::Greedy, RoutingScheme::Balanced][(seed / 2) as usize % 2],
                d0_hint: ((seed / 4) % 2 == 0).then_some(ring.d0()),
                ..DatConfig::default()
            };
            let mut dat = DatProtocol::new(cfg);
            for name in ["cpu-usage", "memory-size", "disk-free"] {
                dat.register_entry(
                    hash_to_id(space, name.as_bytes()),
                    name,
                    AggregationMode::Continuous,
                    None,
                );
            }
            let me = ids[rng.random_range(0..ids.len())];
            let mut table = ring.table_of(me, 4);
            let pick = |rng: &mut SmallRng| {
                let id = ids[rng.random_range(0..ids.len())];
                NodeRef::new(id, NodeAddr(id.raw()))
            };
            let reads = |t: &FingerTable| {
                let fingers: Vec<(u8, NodeRef)> = t.iter().map(|(j, f)| (j, f.node)).collect();
                (t.predecessor(), t.successor_list().to_vec(), fingers)
            };
            let mut last: Option<(u32, NodeRef, u8)> = None;
            for step in 0..500 {
                let before = (reads(&table), table.version());
                // One in five steps repeats the previous mutation verbatim:
                // it finds the table as it left it.
                let (op, node, j) = match last {
                    Some(prev) if rng.random_range(0..5u32) == 0 => prev,
                    _ => (
                        rng.random_range(0..8u32),
                        pick(&mut rng),
                        rng.random_range(1..=space.bits() as u32) as u8,
                    ),
                };
                last = Some((op, node, j));
                match op {
                    0 | 1 => table.set_finger(j, FingerInfo::bare(node)),
                    // The same finger with fresh FOF detail.
                    2 => {
                        if let Some(f) = table.finger(j) {
                            let info = FingerInfo {
                                node: f.node,
                                pred: Some(node),
                                succ: None,
                            };
                            table.set_finger(j, info);
                        }
                    }
                    3 => {
                        let from = ids.iter().position(|&i| i == node.id).unwrap_or(0);
                        let list = (1..=5)
                            .map(|k| ids[(from + k) % ids.len()])
                            .map(|id| NodeRef::new(id, NodeAddr(id.raw())))
                            .collect();
                        table.set_successor_list(list);
                    }
                    4 => table.set_successor(node),
                    5 => table.set_predecessor((j % 4 != 0).then_some(node)),
                    6 => {
                        table.notify(node);
                    }
                    _ => {
                        table.evict(node.id);
                    }
                }
                if reads(&table) != before.0 {
                    assert_ne!(
                        table.version(),
                        before.1,
                        "seed {seed} step {step}: op {op} changed the table under a standing version"
                    );
                }
                for entry in &mut dat.aggs {
                    let stamped_before = entry.parent;
                    let used = entry.parent_under(&cfg, &table);
                    let d0 = cfg.d0_hint.unwrap_or_else(|| estimate_d0(&table));
                    let fresh = parent_for(cfg.scheme, &table, entry.key, d0);
                    assert_eq!(
                        used, fresh,
                        "seed {seed} step {step}: op {op} on key {}",
                        entry.key
                    );
                    match stamped_before {
                        Some((v, was)) if v == table.version() => {
                            assert_eq!(was, fresh);
                            hits += 1;
                        }
                        Some((_, was)) => {
                            misses += 1;
                            switches += u32::from(was != fresh);
                        }
                        None => misses += 1,
                    }
                }
            }
        }
        assert!(
            hits > 1_000 && misses > 1_000 && switches > 1_000,
            "the streams must hit, miss and move parents: {hits} / {misses} / {switches}"
        );
    }

    fn app_timers(outs: &[Output]) -> Vec<(u64, u64)> {
        outs.iter()
            .filter_map(|o| match o {
                Output::SetTimer {
                    kind: dat_chord::TimerKind::App(token),
                    delay_ms,
                } => Some((*token & crate::engine::SUB_MASK, *delay_ms)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn unknown_and_spent_timer_tokens_are_ignored() {
        let mut n = mk(1);
        let key = n.register("cpu-usage", AggregationMode::Continuous);
        let outs = n.start_create();
        n.set_local(key, 1.0);
        let (tick, _) = app_timers(&outs)[0];
        let fire =
            |n: &mut StackNode, sub: u64| n.drive::<DatProtocol, _>(|d, cx| d.on_timer(cx, sub)).1;
        // Never armed: no tick, no flush, no re-arm.
        assert!(fire(&mut n, tick + 1_000).is_empty());
        assert_eq!(n.epoch(), 0);
        assert!(n.take_events().is_empty());
        // Armed: the tick runs and re-arms itself under a fresh token.
        let outs = fire(&mut n, tick);
        assert_eq!(n.epoch(), 1);
        assert_eq!(n.take_events().len(), 1, "the singleton root reports");
        let rearmed = app_timers(&outs);
        assert_eq!(rearmed.len(), 1);
        assert_ne!(rearmed[0].0, tick);
        // Already fired: the same token a second time does nothing.
        assert!(fire(&mut n, tick).is_empty());
        assert_eq!(n.epoch(), 1);
        assert!(n.take_events().is_empty());
        assert_eq!(n.dat().timers.len(), 1, "only the next tick is pending");
    }

    #[test]
    fn hold_flush_after_an_early_flush_is_a_no_op() {
        let mut root = mk(1);
        let key = root.register("cpu-usage", AggregationMode::Continuous);
        let outs = root.start_create();
        root.set_local(key, 10.0);
        let (tick, _) = app_timers(&outs)[0];
        let child = NodeRef::new(Id(99), NodeAddr(99));
        let update = |root: &mut StackNode, epoch: u64| {
            let upd = DatMsg::Update {
                key,
                epoch,
                partial: AggPartial::of(32.0),
                sender: child,
            };
            root.handle(Input::Message {
                from: child.addr,
                msg: dat_chord::ChordMsg::App {
                    proto: DAT_PROTO,
                    from: child,
                    payload: upd.encode().into(),
                },
            })
        };
        // A child heard before the tick makes the root wait for it: the
        // tick arms a hold timer (the root's is the full window) instead
        // of flushing.
        let _ = update(&mut root, 0);
        let outs = root.drive::<DatProtocol, _>(|d, cx| d.on_timer(cx, tick)).1;
        assert!(
            root.take_events().is_empty(),
            "the root holds for its child"
        );
        let hold_ms = DatConfig::default().hold_ms;
        let hold = app_timers(&outs)
            .into_iter()
            .find(|&(_, delay)| delay == hold_ms)
            .expect("a hold timer is armed")
            .0;
        // The child delivers: every active child is in, the root flushes
        // early, once.
        let _ = update(&mut root, 1);
        assert_eq!(root.take_events().len(), 1);
        let sent = root.dat_metrics().sent_total();
        // The hold timer then finds the epoch flushed.
        let outs = root.drive::<DatProtocol, _>(|d, cx| d.on_timer(cx, hold)).1;
        assert!(outs.is_empty(), "no second push: {outs:?}");
        assert!(root.take_events().is_empty(), "no second report");
        assert_eq!(root.dat_metrics().sent_total(), sent);
        assert_eq!(root.dat().timers.len(), 1, "only the next tick is pending");
    }

    /// Deliver `partial` as `child`'s `Update` for `key`.
    fn deliver_update(n: &mut StackNode, child: NodeRef, key: Id, partial: AggPartial) {
        let upd = DatMsg::Update {
            key,
            epoch: n.epoch(),
            partial,
            sender: child,
        };
        let _ = n.handle(Input::Message {
            from: child.addr,
            msg: dat_chord::ChordMsg::App {
                proto: DAT_PROTO,
                from: child,
                payload: upd.encode().into(),
            },
        });
    }

    fn last_report(n: &mut StackNode) -> DatEvent {
        n.take_events()
            .into_iter()
            .rev()
            .find(|e| matches!(e, DatEvent::Report { .. }))
            .expect("the root reports")
    }

    #[test]
    fn a_silent_child_leaves_after_its_ttl_and_reports_stay_bit_equal() {
        let ttl = DatConfig::default().child_ttl_epochs;
        // Two roots hear the same steady child every epoch; `a` also heard
        // one update from a child that then went silent.
        let (mut a, mut b) = (mk(1), mk(1));
        let steady = NodeRef::new(Id(77), NodeAddr(77));
        let silent = NodeRef::new(Id(99), NodeAddr(99));
        let mut key = Id(0);
        for n in [&mut a, &mut b] {
            key = n.register("cpu-usage", AggregationMode::Continuous);
            let _ = n.start_create();
            n.set_local(key, 1.0);
            deliver_update(n, steady, key, AggPartial::of(0.1));
        }
        deliver_update(&mut a, silent, key, AggPartial::of(100.0));
        let cached = |n: &StackNode| {
            n.aggregation(key)
                .unwrap()
                .live_children(n.epoch(), u64::MAX)
        };
        for epoch in 1..=ttl + 3 {
            let _ = a.fire_epoch_for_tests();
            let _ = b.fire_epoch_for_tests();
            let (ra, rb) = (last_report(&mut a), last_report(&mut b));
            if epoch <= ttl {
                assert_eq!(cached(&a), 2, "epoch {epoch}: within its ttl");
                assert_ne!(ra, rb, "epoch {epoch}: the silent child still counts");
            } else {
                assert_eq!(cached(&a), 1, "epoch {epoch}: dropped at flush");
                // Bit-equal, not just equal: the same merges in the same order.
                let bits = |r: &DatEvent| match r {
                    DatEvent::Report {
                        partial,
                        completeness,
                        ..
                    } => (partial.sum.to_bits(), completeness.ratio.to_bits()),
                    _ => unreachable!(),
                };
                assert_eq!(bits(&ra), bits(&rb), "epoch {epoch}");
                assert_eq!(ra, rb, "epoch {epoch}");
            }
            for n in [&mut a, &mut b] {
                deliver_update(n, steady, key, AggPartial::of(0.1));
            }
        }
    }

    const FOUR_KEYS: [&str; 4] = ["cpu-usage", "mem-free", "disk-io", "net-rx"];

    #[test]
    fn a_non_root_rings_one_update_send_per_key_per_epoch() {
        use dat_chord::FingerTable;
        let space = IdSpace::new(8);
        let ccfg = ChordConfig {
            space,
            ..ChordConfig::default()
        };
        let me = NodeRef::new(Id(100), NodeAddr(10));
        let pred = NodeRef::new(Id(99), NodeAddr(11));
        let succ = NodeRef::new(Id(140), NodeAddr(12));
        let child = NodeRef::new(Id(60), NodeAddr(13));
        let mut n =
            StackNode::new(ccfg, me.id, me.addr).with_app(DatProtocol::new(DatConfig::default()));
        let keys: Vec<Id> = FOUR_KEYS
            .iter()
            .map(|name| n.register(name, AggregationMode::Continuous))
            .collect();
        let mut table = FingerTable::new(space, me, 4);
        table.set_successor(succ);
        table.set_predecessor(Some(pred));
        let _ = n.start_with_table(table);
        for &key in &keys {
            assert_ne!(key, me.id, "the node owns none of the keys");
            n.set_local(key, 1.0);
        }
        const EPOCHS: u64 = 10;
        for _ in 0..EPOCHS {
            // A child's update each epoch: counted on arrival, never ringed.
            for &key in &keys {
                deliver_update(&mut n, child, key, AggPartial::of(2.0));
            }
            let _ = n.fire_epoch_for_tests();
        }
        let m = n.dat_metrics();
        assert_eq!(m.received_of("dat_update"), 4 * EPOCHS);
        assert_eq!(m.sent_of("dat_update"), 4 * EPOCHS);
        let mut ringed: Vec<u64> = m
            .tracer()
            .events()
            .map(|e| {
                assert_eq!(
                    e.kind,
                    EventKind::Send {
                        kind: "dat_update",
                        to: succ.id.0
                    }
                );
                e.trace_id
            })
            .collect();
        let mut want: Vec<u64> = (1..=EPOCHS)
            .flat_map(|epoch| keys.iter().map(move |k| trace_id_for(k.0, epoch)))
            .collect();
        ringed.sort_unstable();
        want.sort_unstable();
        assert_eq!(ringed, want, "one Send per key per epoch, nothing else");
    }

    #[test]
    fn a_root_rings_its_reports() {
        let mut n = mk(1);
        let keys: Vec<Id> = FOUR_KEYS
            .iter()
            .map(|name| n.register(name, AggregationMode::Continuous))
            .collect();
        let _ = n.start_create();
        for &key in &keys {
            n.set_local(key, 1.0);
        }
        // 20 epochs of 4 reports overflow the 64-event ring by 16.
        for _ in 0..20 {
            let _ = n.fire_epoch_for_tests();
        }
        let tracer = n.dat_metrics().tracer();
        assert_eq!(
            (tracer.len(), tracer.dropped()),
            (dat_obs::trace::DEFAULT_TRACE_CAP, 16)
        );
        let mut ringed: Vec<(u64, u64)> = tracer
            .events()
            .map(|e| match e.kind {
                EventKind::Report { key, epoch, .. } => (epoch, key),
                ref other => panic!("a lone root rings only reports: {other:?}"),
            })
            .collect();
        let mut want: Vec<(u64, u64)> = (5..=20)
            .flat_map(|epoch| keys.iter().map(move |k| (epoch, k.0)))
            .collect();
        ringed.sort_unstable();
        want.sort_unstable();
        assert_eq!(ringed, want, "the newest 16 epochs, one report per key");
    }

    impl StackNode {
        /// Test helper: fire one epoch synchronously, including any hold
        /// flush the tick armed.
        fn fire_epoch_for_tests(&mut self) -> Vec<Output> {
            let (slots, mut outs) = self.drive::<DatProtocol, _>(|d, cx| {
                d.on_epoch(cx);
                d.aggs.len()
            });
            for slot in 0..slots {
                let ((), more) = self.drive::<DatProtocol, _>(|d, cx| d.flush_continuous(cx, slot));
                outs.extend(more);
            }
            outs
        }
    }
}
