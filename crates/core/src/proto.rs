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
//!   out over disjoint finger ranges ([`FingerTable::fan_out`]) and
//!   convergecasts exact partials back up with per-node completion
//!   tracking and a timeout window for lost branches.
//!
//! A third mode, **centralized**, reproduces the baseline of Fig. 8: every
//! node routes its own one-node partial as an `Update` straight to the
//! root, which caches it in the same child table and merges nothing
//! in-network.
//!
//! [`DatProtocol`] is an [`AppProtocol`]: it holds only aggregation state
//! and acts on the overlay through the engine [`Ctx`]. Its deadlines are
//! that state too — the next epoch tick, each aggregation's hold, each open
//! query's window — and it asks the engine to wake it at the earliest
//! ([`Ctx::wake_at`]); a wake runs whatever is due and asks again.
//! Application-level results surface as [`DatEvent`]s drained via
//! [`StackNode::take_events`].
//! The `impl StackNode` block at the bottom is the host-facing surface —
//! register/set-local/query keep the same shape they had when DAT owned
//! the node, but now compose with any other stacked protocol.

#![deny(clippy::unwrap_used)]

use std::collections::{HashMap, VecDeque};

use dat_chord::{
    estimate_d0, hash_to_id, parent_for, ring_size_for_d0, FingerTable, Id, Metrics, NodeRef,
    Output, ParentDecision, RoutingScheme, SuspicionLevel,
};
use dat_obs::{trace_id_for, EventKind};

use crate::aggregate::AggPartial;
use crate::codec::{self, encode_updates, DatMsg, DAT_PROTO};
use crate::engine::{AppProtocol, Ctx, StackNode};

/// How the global value of one aggregation is computed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggregationMode {
    /// Epoch-based push along the implicit DAT tree (the paper's scheme).
    Continuous,
    /// Baseline: every node's one-node partial routed to the root, no
    /// in-network merging.
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
    /// Must stay below `epoch_ms`: an epoch's holds are assumed to be
    /// flushed before the next tick.
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
///
/// Every node keeps one per registered key, so what a plain continuous
/// key never reads stays out of line: the sketch configuration sits in a
/// box only a sketch-carrying key allocates, the root-only replica in a
/// box only a root's successors fill, and the attribute name is not kept
/// at all (the protocol knows a key by its hash; the registering host
/// holds the name).
#[derive(Clone, Debug)]
pub struct AggregationEntry {
    /// Rendezvous key (SHA-1 of the attribute name).
    pub key: Id,
    /// Aggregation mode.
    pub mode: AggregationMode,
    /// Latest local observation, if any.
    pub local: Option<f64>,
    /// Histogram shape, distinct-sketch precision and sketch items, for a
    /// key registered with either sketch or fed items.
    sketch: Option<Box<SketchSpec>>,
    /// Freshest partial per child id, with the *local* epoch it arrived in,
    /// sorted by id: walks decide float merge order, which children the
    /// failure detector is consulted about, and replica byte order. A
    /// centralized root keeps every node's routed partial here. Each flush
    /// (or centralized root tick) drops the entries older than
    /// `child_ttl_epochs`, which every reader already ignores. Kept at
    /// exact capacity: a new child grows the table by one slot, a removal
    /// gives the spare slots back (doubling would leave a node's four
    /// children in eight slots of 152 B).
    children: Vec<(Id, AggPartial, u64)>,
    /// Last epoch whose partial has been pushed up / reported.
    flushed_epoch: u64,
    /// Engine time by which this epoch's partial is pushed even if a
    /// child is still missing. Set at the tick, cleared by the flush,
    /// early or timed.
    hold_due_ms: Option<u64>,
    /// Root stickiness: this node was the acting root when it last knew
    /// its predecessor, and keeps acting as the root until it knows one
    /// again (an evicted or quarantined predecessor must not silence
    /// reports or push partials down-tree, which would create counting
    /// cycles) or another root's fence stands it down.
    was_root: bool,
    /// The parent the previous flush went to; a switch triggers a prune
    /// notice so the old parent drops our cached partial at once.
    last_parent: Option<NodeRef>,
    /// Old parent still owed prune notices (sent on consecutive flushes —
    /// prunes travel over the same lossy links as everything else).
    prune_old: Option<NodeRef>,
    /// How many notices `prune_old` is still owed.
    prunes_owed: u8,
    /// The report fence and warm-failover replica: `None` until this node
    /// reports as root or receives a [`DatMsg::RootState`].
    fence: Option<Box<Fence>>,
    /// The DAT parent of `key`, with the [`FingerTable::version`] it was
    /// computed under: a pure function of the table (§3.2), so a push
    /// between two table changes has nothing to decide.
    parent: Option<(u64, ParentDecision)>,
}

/// What a key carries beyond its scalar partial: registration detail a
/// plain continuous key never reads.
#[derive(Clone, Debug, Default)]
struct SketchSpec {
    /// Histogram shape `(lo, hi, buckets)` to attach to partials, if any.
    histogram: Option<(f64, f64, usize)>,
    /// Distinct-count sketch precision to attach to partials, if any.
    distinct_p: Option<u8>,
    /// Identity items this node contributes to the distinct sketch
    /// (e.g. its site name).
    local_items: Vec<Vec<u8>>,
}

/// What an entry knows of its key's root. Only a root and the successors
/// it replicates to ever hold one.
#[derive(Clone, Debug, Default)]
struct Fence {
    /// Highest report-fence sequence observed for this key, either emitted
    /// by this node as root or carried by a replicated
    /// [`DatMsg::RootState`].
    seq: u64,
    /// Who set the fence last. `Some(other)` means another node is the
    /// live root — a sticky ex-root must stand down instead of reporting.
    root: Option<Id>,
    /// Warm-failover replica of the acting root's soft state, adopted if
    /// the key ever remaps here.
    replica: Option<ReplicaState>,
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
    /// Local epoch at which the replica arrived (ages the snapshot).
    received_epoch: u64,
}

impl AggregationEntry {
    /// Histogram shape `(lo, hi, buckets)` attached to partials, if any.
    pub fn histogram(&self) -> Option<(f64, f64, usize)> {
        self.sketch.as_ref()?.histogram
    }

    /// Distinct-count sketch precision attached to partials, if any.
    pub fn distinct_p(&self) -> Option<u8> {
        self.sketch.as_ref()?.distinct_p
    }

    /// The report fence sequence (0 before any).
    fn fence_seq(&self) -> u64 {
        self.fence.as_ref().map_or(0, |f| f.seq)
    }

    /// The fence, allocated on first use.
    fn fence_mut(&mut self) -> &mut Fence {
        self.fence.get_or_insert_with(Default::default)
    }

    /// The sketch configuration, allocated on first use.
    fn sketch_mut(&mut self) -> &mut SketchSpec {
        self.sketch.get_or_insert_with(Default::default)
    }

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
            Err(i) => {
                self.children.reserve_exact(1);
                self.children.insert(i, (id, partial, epoch));
            }
        }
    }

    /// Keep only the children `keep` accepts, at exact capacity.
    fn retain_children(&mut self, keep: impl FnMut(&(Id, AggPartial, u64)) -> bool) {
        self.children.retain(keep);
        self.children.shrink_to_fit();
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

    /// This node's one-node partial: its local value and sketch items,
    /// counted as one contributor.
    fn own_partial(&self) -> AggPartial {
        let mut p = match self.histogram() {
            Some((lo, hi, n)) => AggPartial::identity_with_histogram(lo, hi, n),
            None => AggPartial::identity(),
        };
        if let Some(spec) = &self.sketch {
            if let Some(prec) = spec.distinct_p {
                p.set_distinct(Some(crate::sketch::Hll::new(prec)));
                for item in &spec.local_items {
                    p.observe_item(item);
                }
            }
        }
        if let Some(x) = self.local {
            p.absorb(x);
        }
        // This node contributes itself exactly once (completeness
        // accounting) — even with no local sensor value it is a live
        // participant relaying its subtree.
        p.contributors = 1;
        p
    }

    /// Drop the children older than `ttl`, which no reader counts.
    fn expire_children(&mut self, now_epoch: u64, ttl: u64) {
        self.retain_children(|(_, _, e)| now_epoch.saturating_sub(*e) <= ttl);
    }

    /// Merge local value + fresh child partials. `exclude` drops one
    /// cached child — the node we are about to push to. Under heavy loss,
    /// parent decisions can flap so that two nodes transiently treat each
    /// other as parent; reflecting a node's own partial back at it creates
    /// an exponential counting cycle.
    fn merged_partial(&self, now_epoch: u64, ttl: u64, exclude: Option<Id>) -> AggPartial {
        let mut acc = self.own_partial();
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

    /// Fold a warm-failover replica from a previous root into live soft
    /// state. Called when this node finds itself the acting root: the
    /// replicated children (re-aged relative to the local epoch
    /// counter) let the very first report after a root crash cover the
    /// whole grid instead of rebuilding over `child_ttl_epochs`.
    fn adopt_replica(&mut self, me: Id, epoch: u64) {
        let Some(fence) = self.fence.as_mut() else {
            return;
        };
        if fence.replica.as_ref().is_none_or(|r| r.root == me) {
            return;
        }
        let Some(rep) = fence.replica.take() else {
            return;
        };
        // Continue the crashed root's fence so our next report supersedes
        // anything a restarted old root could replay.
        fence.seq = fence.seq.max(rep.seq);
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
    }
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
    /// Engine time at which the lost branches are given up on and the
    /// query answers with what it has.
    deadline_ms: u64,
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
    /// Engine time of the next epoch tick (`u64::MAX` until started).
    next_tick_ms: u64,
    next_reqid: u64,
    metrics: Metrics,
    events: Vec<DatEvent>,
    /// Last epoch in which the DAT parent was liveness-probed (by that
    /// epoch's first `Update`).
    parent_ping_epoch: u64,
    /// Engine clock at the latest epoch tick; the root's report latency
    /// (`epoch_completion_ms` histogram) is measured from here.
    epoch_started_ms: u64,
    /// The continuous pushes this callback flushed, `(parent, key,
    /// partial, probe)`, all of the current epoch (it moves only at a tick,
    /// before the tick's flushes). Grouped by parent in the order the
    /// parents were first flushed to, each group in flush order; sent as
    /// one frame per parent (more where one would not fit a datagram) by
    /// [`DatProtocol::send_outbox`] when the callback ends. Its buffer goes with it: kept, it would hold a few
    /// partials' worth of bytes on every node between epochs.
    outbox: Vec<(NodeRef, Id, AggPartial, bool)>,
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
            next_tick_ms: u64::MAX,
            next_reqid: 0,
            metrics: Metrics::default(),
            events: Vec::new(),
            parent_ping_epoch: 0,
            epoch_started_ms: 0,
            outbox: Vec::new(),
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
        mode: AggregationMode,
        histogram: Option<(f64, f64, usize)>,
    ) {
        let Err(at) = self.aggs.binary_search_by_key(&key, |e| e.key) else {
            return;
        };
        let sketch = histogram.map(|h| {
            Box::new(SketchSpec {
                histogram: Some(h),
                ..SketchSpec::default()
            })
        });
        let entry = AggregationEntry {
            key,
            mode,
            local: None,
            sketch,
            children: Vec::new(),
            flushed_epoch: 0,
            hold_due_ms: None,
            was_root: false,
            last_parent: None,
            prune_old: None,
            prunes_owed: 0,
            fence: None,
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
            let items = &mut e.sketch_mut().local_items;
            if !items.iter().any(|i| i == item) {
                items.push(item.to_vec());
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

    /// Ask the engine to wake this handler at its earliest deadline: the
    /// next tick, a hold, or an open query's window.
    fn wake(&self, cx: &mut Ctx<'_>) {
        let holds = self.aggs.iter().filter_map(|e| e.hold_due_ms);
        let windows = self.queries.values().filter_map(|s| s.open.as_ref());
        let due = holds
            .chain(windows.map(|q| q.deadline_ms))
            .fold(self.next_tick_ms, u64::min);
        if due != u64::MAX {
            cx.wake_at(due);
        }
    }

    /// One epoch tick: push every continuous aggregation to its parent,
    /// route centralized one-node partials, emit root reports.
    fn on_epoch(&mut self, cx: &mut Ctx<'_>) {
        self.epoch += 1;
        self.epoch_started_ms = cx.now_ms();
        let epoch = self.epoch;
        let ttl = self.cfg.child_ttl_epochs;
        let me = cx.me();
        // The table's key order, so a seed fixes the flush order; rotated
        // by the epoch, so the once-per-epoch parent probe — riding the
        // first flush — takes turns over the trees instead of loading the
        // smallest key's.
        let n = self.aggs.len();
        let turn = (epoch % n.max(1) as u64) as usize;
        for slot in (turn..n).chain(0..turn) {
            let entry = &self.aggs[slot];
            let key = entry.key;
            match entry.mode {
                AggregationMode::Continuous => {
                    // Aggregation synchronization (§4): schedule this
                    // node's push within the slot by its estimated distance
                    // to the root — leaves flush first, the root's children
                    // last — so updates cascade bottom-up inside one epoch.
                    // Nodes whose children have all delivered flush early
                    // (see the Update handler); the hold is the bound.
                    if entry.active_children(epoch).next().is_none() {
                        self.flush_continuous(cx, slot);
                    } else {
                        let due = cx.now_ms() + self.flush_delay(cx, key);
                        self.aggs[slot].hold_due_ms = Some(due);
                    }
                }
                AggregationMode::Centralized => {
                    if cx.owns(key) {
                        let e = &mut self.aggs[slot];
                        e.adopt_replica(me.id, epoch);
                        e.expire_children(epoch, ttl);
                        let partial = e.merged_partial(epoch, ttl, None);
                        self.publish(cx, slot, partial);
                    } else if entry.local.is_some() {
                        // Straight to the root: an ex-root's leftover
                        // children stay out of it.
                        let msg = DatMsg::Update {
                            key,
                            epoch,
                            partial: entry.own_partial(),
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
        entry.hold_due_ms = None;
        if entry.mode != AggregationMode::Continuous || entry.flushed_epoch >= epoch {
            return;
        }
        entry.flushed_epoch = epoch;
        // A child that went silent (crashed, left, restarted under a fresh
        // id) is never pruned by name; past the ttl no reader counts it, so
        // it goes here instead of costing every walk for the rest of the run.
        entry.expire_children(epoch, ttl);
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
            // The key's owner is never evicted here: the node after it is
            // not the root, and its route to the key runs back through us.
            let owner = cx.space().in_open_closed(key, me.id, p.id);
            if hops == 0 || owner || cx.suspicion(p.id) == SuspicionLevel::Healthy {
                break;
            }
            hops -= 1;
            self.metrics.inc("proactive_reparents_total");
            self.metrics
                .trace(cx.now_ms(), tid, EventKind::Suspect { node: p.id.0 });
            cx.evict_suspect(p);
            decision = entry.parent_under(&self.cfg, cx.table());
        }
        // Root stickiness: an evicted predecessor makes the ring position
        // uncertain; the last root keeps reporting rather than pushing its
        // partial *down* the tree (which would both silence the report and
        // create a counting cycle) until it knows a predecessor again.
        match decision {
            ParentDecision::IAmRoot => {
                entry.was_root = true;
                // Warm failover: if a previous root replicated its soft
                // state here, fold it in before computing this epoch's
                // partial — the first report after a takeover already
                // covers the whole grid.
                let adopting = entry
                    .fence
                    .as_ref()
                    .and_then(|f| f.replica.as_ref())
                    .is_some_and(|r| r.root != me.id);
                entry.adopt_replica(me.id, epoch);
                if adopting {
                    let seq = entry.fence_seq();
                    self.metrics
                        .trace(cx.now_ms(), tid, EventKind::Failover { key: key.0, seq });
                }
            }
            _ => {
                entry.was_root &= cx.table().predecessor().is_none();
                if entry.was_root {
                    // Fencing (at most one report per key per epoch): a
                    // sticky ex-root stands down as soon as it has observed
                    // the live root's fence — a RootState replica with a
                    // sequence at or above its own. Without this, an
                    // evicted ex-root keeps reporting *alongside* the true
                    // root until it learns a predecessor.
                    let fenced_off = entry
                        .fence
                        .as_ref()
                        .and_then(|f| f.root)
                        .is_some_and(|root| root != me.id);
                    if fenced_off {
                        let seq = entry.fence_seq();
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
        // same lossy links as updates: the switch flush sends two copies
        // (the one race that matters is reaching the old parent before its
        // own flush this epoch), the next flush one more.
        if let Some(old) = entry
            .last_parent
            .filter(|old| Some(old.id) != new_parent.map(|p| p.id))
        {
            (entry.prune_old, entry.prunes_owed) = (Some(old), 2);
        }
        entry.last_parent = new_parent;
        // Never prune the node we are about to push to.
        if entry.prune_old.map(|o| Some(o.id)) == Some(new_parent.map(|p| p.id)) {
            entry.prune_old = None;
        }
        if let Some(old) = entry.prune_old {
            let n = entry.prunes_owed;
            entry.prunes_owed = n - 1;
            if entry.prunes_owed == 0 {
                entry.prune_old = None;
            }
            let msg = DatMsg::Prune { key, sender: me };
            let bytes = msg.encode();
            for _ in 0..n {
                self.metrics.on_send(cx.now_ms(), tid, msg.kind(), old.id.0);
                cx.send(old, bytes.clone());
            }
        }
        match decision {
            ParentDecision::IAmRoot => self.publish(cx, slot, partial),
            ParentDecision::Parent(p) => {
                // The `dat_update` Send event is the edge record of the
                // causal epoch trace: child = this node, parent = `to`.
                self.metrics.on_send(cx.now_ms(), tid, "dat_update", p.id.0);
                // Updates are fire-and-forget; the epoch's first one also
                // probes the parent's liveness, so a crashed or departed
                // parent is evicted (via the Chord timeout machinery) and
                // next epoch's parent computation routes around it.
                let probe = self.parent_ping_epoch < epoch;
                if probe {
                    self.parent_ping_epoch = epoch;
                    self.metrics.count_sent_kind("dat_parent_ping");
                }
                let at = self.outbox.iter().rposition(|e| e.0 == p);
                let at = at.map_or(self.outbox.len(), |i| i + 1);
                self.outbox.insert(at, (p, key, partial, probe));
            }
            ParentDecision::Unknown => {
                // Table still converging: roll the flush marker back, so
                // the next epoch retries instead of silently dropping a
                // slot.
                entry.flushed_epoch = epoch.saturating_sub(1);
            }
        }
    }

    /// Send what this callback's flushes left in the outbox: one frame per
    /// parent, in the order the parents were first flushed to. A parent's
    /// lone update goes out as a [`DatMsg::Update`], two or more as one
    /// [`DatMsg::Updates`], split into further frames where one would pass
    /// [`codec::MAX_UPDATES_BYTES`]. The parent's first frame probes it if
    /// any of its entries carries the epoch's probe.
    fn send_outbox(&mut self, cx: &mut Ctx<'_>) {
        let (epoch, me) = (self.epoch, cx.me());
        let mut outbox = std::mem::take(&mut self.outbox);
        for mut rest in outbox.chunk_by_mut(|a, b| a.0 == b.0) {
            let parent = rest[0].0;
            let mut probe = rest.iter().any(|e| e.3);
            while !rest.is_empty() {
                let n = codec::updates_that_fit(rest.iter().map(|e| &e.2));
                let (frame, tail) = rest.split_at_mut(n);
                rest = tail;
                let bytes = match frame {
                    [(_, key, partial, _)] => DatMsg::Update {
                        key: *key,
                        epoch,
                        partial: std::mem::take(partial),
                        sender: me,
                    }
                    .encode(),
                    _ => encode_updates(epoch, me, frame.iter().map(|e| (e.1, &e.2))),
                };
                if std::mem::take(&mut probe) {
                    cx.send_probed(parent, bytes);
                } else {
                    cx.send(parent, bytes);
                }
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
        let key = entry.key;
        let fence = entry.fence_mut();
        fence.seq += 1;
        fence.root = Some(me.id);
        let seq = fence.seq;
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
    /// partials, each with its age) and the report fence to the first
    /// `REPLICATION_K` successors.
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
        let msg = DatMsg::RootState {
            key,
            seq,
            root: cx.me(),
            children,
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
            DatMsg::Update { .. }
            | DatMsg::Updates { .. }
            | DatMsg::Prune { .. }
            | DatMsg::RootState { .. } => 0,
        }
    }

    /// Decode and handle one received frame, then send the frames its
    /// flushes decided.
    fn on_payload(&mut self, cx: &mut Ctx<'_>, from: NodeRef, payload: &[u8]) {
        match DatMsg::decode(payload) {
            // Entry by entry, so the flushes they trigger share frames in
            // turn.
            Ok(DatMsg::Updates {
                epoch,
                sender,
                entries,
            }) => {
                for (key, partial) in entries {
                    let update = DatMsg::Update {
                        key,
                        epoch,
                        partial,
                        sender,
                    };
                    self.on_dat_msg(cx, from, update);
                }
            }
            Ok(msg) => self.on_dat_msg(cx, from, msg),
            Err(_) => self.metrics.dropped += 1,
        }
        self.send_outbox(cx);
    }

    fn on_dat_msg(&mut self, cx: &mut Ctx<'_>, from: NodeRef, msg: DatMsg) {
        // App-level senders are real NodeRefs on both transports, so these
        // Recv events are cross-transport comparable.
        let trace_id = Self::msg_trace_id(&msg);
        self.metrics
            .on_recv(cx.now_ms(), trace_id, msg.kind(), from.id.0);
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
                // behind a slow or gray-failed subtree. A centralized root
                // merges at its tick and never cascades.
                let ready = e.mode == AggregationMode::Continuous
                    && e.flushed_epoch < now_epoch
                    && e.active(now_epoch).all(|(child, delivered)| {
                        delivered == now_epoch || cx.suspicion(child) != SuspicionLevel::Healthy
                    });
                if ready {
                    // Cascade up without waiting for the hold timer.
                    self.flush_continuous(cx, slot);
                }
            }
            // `on_payload` hands a frame of updates over one `Update` at a
            // time.
            DatMsg::Updates { .. } => {}
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
                    e.retain_children(|c| c.0 != sender.id);
                }
            }
            DatMsg::RootState {
                key,
                seq,
                root,
                children,
            } => {
                let now_epoch = self.epoch;
                if let Some(slot) = slot_of(&self.aggs, key) {
                    let e = &mut self.aggs[slot];
                    // Fences only move forward: a replica from a restarted
                    // ex-root replaying a stale sequence is ignored, so it
                    // can neither displace the live root's replica nor
                    // un-fence a stood-down node.
                    if seq >= e.fence_seq() {
                        *e.fence_mut() = Fence {
                            seq,
                            root: Some(root.id),
                            replica: Some(ReplicaState {
                                root: root.id,
                                seq,
                                children,
                                received_epoch: now_epoch,
                            }),
                        };
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

    /// Fan `reqid` out over `(me, limit)` and start gathering until the
    /// lost-branch deadline. Windows halve with fan-out depth so that a
    /// deep subtree's timeout still fits inside every ancestor's window —
    /// otherwise one lost message below would make the root close before
    /// the (late but complete) deep responses arrive.
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
        let deadline_ms = cx.now_ms() + (self.cfg.query_window_ms >> depth.min(6)).max(40);
        let open = Some(Box::new(QueryState {
            key,
            requester,
            awaiting,
            acc,
            deadline_ms,
        }));
        self.queries.insert(reqid, QuerySlot { parent, open });
        if leaf {
            self.complete_query(cx, reqid);
        } else {
            cx.wake_at(deadline_ms);
        }
    }

    fn local_partial(&self, key: Id) -> AggPartial {
        self.aggregation(key)
            .map_or_else(AggPartial::identity, AggregationEntry::own_partial)
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
        self.next_tick_ms = cx.now_ms() + self.cfg.epoch_ms;
        self.wake(cx);
    }

    fn on_message(&mut self, cx: &mut Ctx<'_>, from: NodeRef, payload: &[u8]) {
        self.on_payload(cx, from, payload);
    }

    /// Everything due by now, in a fixed order: the tick, the holds in key
    /// order, then the query windows by `(deadline, reqid)`.
    fn on_wake(&mut self, cx: &mut Ctx<'_>) {
        let now = cx.now_ms();
        if self.next_tick_ms <= now {
            self.next_tick_ms = now + self.cfg.epoch_ms;
            self.on_epoch(cx);
        }
        for slot in 0..self.aggs.len() {
            if self.aggs[slot].hold_due_ms.is_some_and(|due| due <= now) {
                self.flush_continuous(cx, slot);
            }
        }
        self.send_outbox(cx);
        let mut closing: Vec<(u64, u64)> = self
            .queries
            .iter()
            .filter_map(|(&reqid, s)| Some((s.open.as_ref()?.deadline_ms, reqid)))
            .filter(|&(deadline, _)| deadline <= now)
            .collect();
        closing.sort_unstable();
        for (_, reqid) in closing {
            // Lost branches: answer with what we have.
            self.complete_query(cx, reqid);
        }
        self.wake(cx);
    }

    fn on_routed(&mut self, cx: &mut Ctx<'_>, _key: Id, origin: NodeRef, payload: &[u8]) {
        self.on_payload(cx, origin, payload);
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
        self.dat_mut().register_entry(key, mode, histogram);
        key
    }

    /// Register an aggregation whose partials carry a distinct-count
    /// sketch of the given precision (see [`crate::sketch::Hll`]).
    pub fn register_with_distinct(&mut self, name: &str, mode: AggregationMode, p: u8) -> Id {
        let key = self.register(name, mode);
        if let Some(e) = self.dat_mut().aggregation_mut(key) {
            e.sketch_mut().distinct_p = Some(p);
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
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::engine::WakeClock;
    use dat_chord::{ChordConfig, ChordMsg, ChordNode, IdSpace, Input, NodeAddr, Output, Payload};

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
        assert_eq!(
            n.aggregation(k1).unwrap().key,
            hash_to_id(n.space(), b"cpu-usage")
        );
    }

    #[test]
    fn an_aggregation_entry_takes_176_bytes() {
        // Sketch configuration and root fence out of line; a cached child
        // is an id, a 72-byte partial and an epoch.
        assert!(std::mem::size_of::<AggregationEntry>() <= 176);
        assert!(std::mem::size_of::<(Id, AggPartial, u64)>() <= 88);
    }

    #[test]
    fn a_plain_key_allocates_no_sketch_or_fence() {
        let mut n = mk(1);
        let plain = n.register("cpu-usage", AggregationMode::Continuous);
        let sketched = n.register_with_distinct("site", AggregationMode::Continuous, 6);
        let e = n.aggregation(plain).unwrap();
        assert!(e.sketch.is_none() && e.fence.is_none());
        assert_eq!(n.aggregation(sketched).unwrap().distinct_p(), Some(6));
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
        let mut clock = WakeClock::default();
        clock.absorb(&n.start_create());
        n.set_local(key, 55.0);
        // One epoch of virtual time: the tick's wake.
        let _ = clock.run_until(&mut n, DatConfig::default().epoch_ms);
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
        // A sticky ex-root (predecessor unknown, the acting root before)
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
            .was_root = true;
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

    /// The node `d` ids past the key of "cpu-usage" on an 8-bit ring, at
    /// address `d`.
    fn past_key(d: u64) -> NodeRef {
        let key = hash_to_id(IdSpace::new(8), b"cpu-usage");
        NodeRef::new(Id((key.raw() + d) % 256), NodeAddr(d))
    }

    /// `past_key(d)` as a started continuous "cpu-usage" node holding a
    /// value, its routing table filled in by `fill`.
    fn placed(d: u64, fill: impl FnOnce(&mut dat_chord::FingerTable)) -> StackNode {
        let space = IdSpace::new(8);
        let ccfg = ChordConfig {
            space,
            ..ChordConfig::default()
        };
        let me = past_key(d);
        let mut n =
            StackNode::new(ccfg, me.id, me.addr).with_app(DatProtocol::new(DatConfig::default()));
        let key = n.register("cpu-usage", AggregationMode::Continuous);
        let mut table = dat_chord::FingerTable::new(space, me, 4);
        fill(&mut table);
        let _ = n.start_with_table(table);
        n.set_local(key, 1.0);
        n
    }

    fn reports(n: &mut StackNode) -> usize {
        let evs = n.take_events();
        evs.iter()
            .filter(|e| matches!(e, DatEvent::Report { .. }))
            .count()
    }

    /// The DAT payload a frame carries, probed or not.
    fn dat_payload(msg: &ChordMsg) -> Option<&Payload> {
        match msg {
            ChordMsg::App { payload, .. } | ChordMsg::ProbedApp { payload, .. } => Some(payload),
            _ => None,
        }
    }

    /// How many DAT frames `outs` sends to `to`.
    fn dat_sends(outs: &[Output], to: NodeRef) -> usize {
        outs.iter()
            .filter(|o| matches!(o, Output::Send { to: t, msg } if *t == to && dat_payload(msg).is_some()))
            .count()
    }

    #[test]
    fn a_suspect_key_owner_is_not_evicted_by_its_predecessor() {
        // The owner's predecessor keeps pushing to the owner when the
        // failure detector suspects it: the node after the owner is not
        // the root, and its route to the key runs back through here.
        let (owner, next) = (past_key(3), past_key(40));
        let mut n = placed(250, |t| {
            t.set_successor_list(vec![owner, next]);
            t.set_predecessor(Some(past_key(200)));
        });
        // A steady beat from the owner, then a long silence: Suspect.
        for req in 1..=8u64 {
            n.set_now(req * 1_000);
            let msg = ChordMsg::Ping { req, sender: owner };
            let _ = n.handle(Input::Message {
                from: owner.addr,
                msg,
            });
        }
        n.set_now(60_000);
        let outs = n.fire_epoch_for_tests();
        assert_eq!(n.table().successor(), Some(owner), "the owner was evicted");
        assert_eq!((dat_sends(&outs, owner), dat_sends(&outs, next)), (1, 0));
    }

    #[test]
    fn a_parent_switch_prunes_twice_at_once_then_once_more() {
        let (old, new) = (past_key(210), past_key(220));
        let mut n = placed(200, |t| t.set_successor_list(vec![old, new]));
        let outs = n.fire_epoch_for_tests();
        assert_eq!((dat_sends(&outs, old), dat_sends(&outs, new)), (1, 0));
        let _ = n.drive::<DatProtocol, _>(|_, cx| cx.evict_suspect(old));
        // The switch flush: the update to the new parent and two prunes
        // to the old one; the next flush: one more prune.
        let outs = n.fire_epoch_for_tests();
        assert_eq!((dat_sends(&outs, old), dat_sends(&outs, new)), (2, 1));
        let outs = n.fire_epoch_for_tests();
        assert_eq!((dat_sends(&outs, old), dat_sends(&outs, new)), (1, 1));
        let outs = n.fire_epoch_for_tests();
        assert_eq!((dat_sends(&outs, old), dat_sends(&outs, new)), (0, 1));
    }

    #[test]
    fn a_root_that_loses_its_predecessor_reports_until_it_knows_one() {
        let pred = past_key(250);
        let mut n = placed(10, |t| {
            t.set_successor(past_key(60));
            t.set_predecessor(Some(pred));
        });
        let _ = n.fire_epoch_for_tests();
        assert_eq!(reports(&mut n), 1, "the owner reports");
        // Its predecessor is evicted (say, quarantined behind a jammed
        // link): the root keeps reporting, epoch after epoch.
        let _ = n.drive::<DatProtocol, _>(|_, cx| cx.evict_suspect(pred));
        assert_eq!(n.table().predecessor(), None);
        for epoch in 0..6 {
            let _ = n.fire_epoch_for_tests();
            assert_eq!(reports(&mut n), 1, "silent {epoch} epochs on");
        }
        // A predecessor past the key: this node no longer owns it, and
        // losing that predecessor again does not make it a root.
        let between = past_key(5);
        let msg = ChordMsg::Notify { sender: between };
        let _ = n.handle(Input::Message {
            from: between.addr,
            msg,
        });
        assert_eq!(n.table().predecessor(), Some(between));
        let _ = n.fire_epoch_for_tests();
        assert_eq!(reports(&mut n), 0, "a non-owner reported");
        let _ = n.drive::<DatProtocol, _>(|_, cx| cx.evict_suspect(between));
        let _ = n.fire_epoch_for_tests();
        assert_eq!(reports(&mut n), 0, "an ex-non-owner reported");
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

    #[test]
    fn unknown_and_spent_timer_tokens_are_ignored() {
        let mut n = mk(1);
        let key = n.register("cpu-usage", AggregationMode::Continuous);
        let mut clock = WakeClock::default();
        clock.absorb(&n.start_create());
        n.set_local(key, 1.0);
        let epoch_ms = DatConfig::default().epoch_ms;
        assert_eq!(clock.pending.len(), 1, "the tick's wake");
        let (_, tick) = clock.pending[0];
        let wake = |n: &mut StackNode| n.handle(Input::Timer(dat_chord::TimerKind::App(tick ^ 1)));
        // A wake before anything is due: no tick, no flush, no new timer
        // (the tick's covers it).
        let _ = clock.run_until(&mut n, epoch_ms / 2);
        assert!(wake(&mut n).is_empty());
        assert_eq!(n.epoch(), 0);
        assert!(n.take_events().is_empty());
        // The tick's wake: it runs and asks for the next one.
        let outs = clock.run_until(&mut n, epoch_ms);
        assert_eq!(n.epoch(), 1);
        assert_eq!(n.take_events().len(), 1, "the singleton root reports");
        assert_eq!(outs.len(), 1, "{outs:?}");
        assert_eq!(clock.pending.len(), 1);
        assert_eq!(clock.pending[0].0, 2 * epoch_ms);
        // Spent: a second firing at the same instant finds nothing due.
        let again = n.handle(Input::Timer(dat_chord::TimerKind::App(tick)));
        assert!(again.is_empty(), "{again:?}");
        assert_eq!(n.epoch(), 1);
        assert!(n.take_events().is_empty());
    }

    #[test]
    fn hold_flush_after_an_early_flush_is_a_no_op() {
        let mut root = mk(1);
        let key = root.register("cpu-usage", AggregationMode::Continuous);
        let mut clock = WakeClock::default();
        clock.absorb(&root.start_create());
        root.set_local(key, 10.0);
        let child = NodeRef::new(Id(99), NodeAddr(99));
        let DatConfig {
            epoch_ms, hold_ms, ..
        } = DatConfig::default();
        // A child heard before the tick makes the root wait for it: the
        // tick sets a hold (the root's is the full window) and wakes for
        // it instead of flushing.
        clock.absorb(&deliver_update(&mut root, child, key, AggPartial::of(32.0)));
        let _ = clock.run_until(&mut root, epoch_ms);
        assert!(
            root.take_events().is_empty(),
            "the root holds for its child"
        );
        let hold_due = epoch_ms + hold_ms;
        assert_eq!(root.aggregation(key).unwrap().hold_due_ms, Some(hold_due));
        assert_eq!(
            clock.pending.iter().map(|p| p.0).collect::<Vec<_>>(),
            [hold_due]
        );
        // The child delivers: every active child is in, the root flushes
        // early, once, and the hold is cleared.
        let _ = clock.run_until(&mut root, epoch_ms + 10);
        clock.absorb(&deliver_update(&mut root, child, key, AggPartial::of(32.0)));
        assert_eq!(root.take_events().len(), 1);
        assert_eq!(root.aggregation(key).unwrap().hold_due_ms, None);
        let sent = root.dat_metrics().sent_total();
        // The hold's wake then finds nothing due and only asks for the
        // next tick.
        let outs = clock.run_until(&mut root, hold_due);
        assert!(
            outs.iter()
                .all(|(_, o)| matches!(o, Output::SetTimer { .. })),
            "no second push: {outs:?}"
        );
        assert!(root.take_events().is_empty(), "no second report");
        assert_eq!(root.dat_metrics().sent_total(), sent);
        assert_eq!(
            clock.pending.iter().map(|p| p.0).collect::<Vec<_>>(),
            [2 * epoch_ms]
        );
    }

    /// A node owning none of [`FOUR_KEYS`], pushing all four to `succ`,
    /// with a clock holding the wake its start asked for.
    fn interior_node() -> (StackNode, Vec<Id>, NodeRef, WakeClock) {
        interior_node_with(|n, name| n.register(name, AggregationMode::Continuous))
    }

    /// [`interior_node`], its keys registered by `register`.
    fn interior_node_with(
        register: impl Fn(&mut StackNode, &str) -> Id,
    ) -> (StackNode, Vec<Id>, NodeRef, WakeClock) {
        use dat_chord::FingerTable;
        let space = IdSpace::new(8);
        let ccfg = ChordConfig {
            space,
            ..ChordConfig::default()
        };
        let me = NodeRef::new(Id(100), NodeAddr(10));
        let succ = NodeRef::new(Id(140), NodeAddr(12));
        let mut n =
            StackNode::new(ccfg, me.id, me.addr).with_app(DatProtocol::new(DatConfig::default()));
        let keys: Vec<Id> = FOUR_KEYS
            .iter()
            .map(|name| register(&mut n, name))
            .collect();
        let mut table = FingerTable::new(space, me, 4);
        table.set_successor(succ);
        table.set_predecessor(Some(NodeRef::new(Id(99), NodeAddr(11))));
        let mut clock = WakeClock::default();
        clock.absorb(&n.start_with_table(table));
        for &key in &keys {
            assert_ne!(key, me.id, "the node owns none of the keys");
            n.set_local(key, 1.0);
        }
        (n, keys, succ, clock)
    }

    /// The parent probe rides the epoch's first frame to that flush's
    /// parent: one per epoch, and never a `Ping` of its own. The tick
    /// flushes all four keys to one parent, so that frame is one probed
    /// `Updates` carrying every key.
    #[test]
    fn every_epoch_probes_its_parent_with_its_first_update_and_no_ping() {
        let (mut n, keys, succ, mut clock) = interior_node();
        let epoch_ms = DatConfig::default().epoch_ms;
        for epoch in 1..=10u64 {
            let outs = clock.run_until(&mut n, epoch * epoch_ms + epoch_ms / 2);
            let frames: Vec<&ChordMsg> = outs
                .iter()
                .filter_map(|(_, o)| match o {
                    Output::Send { to, msg } => {
                        assert_eq!(*to, succ, "epoch {epoch}: {msg:?}");
                        Some(msg)
                    }
                    _ => None,
                })
                .collect();
            // One frame with one update per key, and nothing else: no ping.
            let [ChordMsg::ProbedApp { req, payload, .. }] = frames[..] else {
                panic!("epoch {epoch}: not one probed frame: {frames:?}");
            };
            let Ok(DatMsg::Updates { entries, .. }) = DatMsg::decode(payload) else {
                panic!("epoch {epoch}: the probed frame is no `Updates`");
            };
            let mut carried: Vec<Id> = entries.iter().map(|e| e.0).collect();
            carried.sort_unstable();
            let mut want = keys.clone();
            want.sort_unstable();
            assert_eq!(carried, want, "epoch {epoch}");
            assert_eq!(n.dat_metrics().sent_of("dat_parent_ping"), epoch);
            assert_eq!(n.dat_metrics().sent_of("dat_update"), 4 * epoch);
            // The parent answers, so the next epoch's parent is the same.
            let _ = n.handle(Input::Message {
                from: succ.addr,
                msg: ChordMsg::Pong {
                    req: *req,
                    sender: succ,
                },
            });
        }
    }

    /// Four keys with a `p = 14` sketch (16 KiB of registers each) would
    /// pass one datagram together: the first three share the probed frame,
    /// the fourth follows as an `Update` of its own, and the Chord codec
    /// takes both frames.
    #[test]
    fn updates_too_large_for_one_frame_split_and_probe_once() {
        let (mut n, keys, succ, mut clock) = interior_node_with(|n, name| {
            n.register_with_distinct(name, AggregationMode::Continuous, 14)
        });
        let epoch_ms = DatConfig::default().epoch_ms;
        let outs = clock.run_until(&mut n, epoch_ms + epoch_ms / 2);
        let frames: Vec<&ChordMsg> = outs
            .iter()
            .filter_map(|(_, o)| match o {
                Output::Send { to, msg } if *to == succ => Some(msg),
                _ => None,
            })
            .collect();
        let [first @ ChordMsg::ProbedApp { payload: p1, .. }, second @ ChordMsg::App { payload: p2, .. }] =
            frames[..]
        else {
            panic!("not a probed frame and a plain one: {frames:?}");
        };
        for frame in [first, second] {
            let bytes = dat_chord::codec::encode(frame);
            assert!(bytes.len() <= 65_507, "{} B", bytes.len());
            assert_eq!(dat_chord::codec::decode(&bytes).as_ref(), Ok(frame));
        }
        let Ok(DatMsg::Updates { entries, .. }) = DatMsg::decode(p1) else {
            panic!("the probed frame is no `Updates`");
        };
        let Ok(DatMsg::Update { key: last, .. }) = DatMsg::decode(p2) else {
            panic!("the second frame is no `Update`");
        };
        assert_eq!(entries.len(), 3);
        let mut carried: Vec<Id> = entries.iter().map(|e| e.0).chain([last]).collect();
        carried.sort_unstable();
        let mut want = keys.clone();
        want.sort_unstable();
        assert_eq!(carried, want);
        assert_eq!(n.dat_metrics().sent_of("dat_parent_ping"), 1);
        assert_eq!(n.dat_metrics().sent_of("dat_update"), 4);
    }

    #[test]
    fn children_that_deliver_early_cost_one_wake_per_epoch_besides_the_tick() {
        let (mut n, keys, succ, mut clock) = interior_node();
        let child = NodeRef::new(Id(60), NodeAddr(13));
        let epoch_ms = DatConfig::default().epoch_ms;
        let _ = clock.run_until(&mut n, epoch_ms / 2);
        for &key in &keys {
            clock.absorb(&deliver_update(&mut n, child, key, AggPartial::of(32.0)));
        }
        for epoch in 1..=10u64 {
            let (armed, pushed) = (clock.armed, n.dat_metrics().sent_of("dat_update"));
            // The tick holds every key for the child, which then delivers
            // a millisecond later: four early flushes.
            let _ = clock.run_until(&mut n, epoch * epoch_ms + 1);
            assert!(keys
                .iter()
                .all(|&k| n.aggregation(k).unwrap().hold_due_ms.is_some()));
            for &key in &keys {
                let outs = deliver_update(&mut n, child, key, AggPartial::of(32.0));
                assert_eq!(dat_sends(&outs, succ), 1, "epoch {epoch}: an early flush");
                clock.absorb(&outs);
            }
            let _ = clock.run_until(&mut n, epoch * epoch_ms + epoch_ms / 2);
            assert_eq!(n.dat_metrics().sent_of("dat_update"), pushed + 4);
            assert_eq!(
                clock.armed - armed,
                2,
                "epoch {epoch}: the tick and one hold wake"
            );
        }
    }

    /// Seeded runs of an interior node with scripted children that deliver
    /// at random offsets or not at all, and fan-out queries of random depth
    /// whose branches answer or stay lost. Every flush a wake makes lands
    /// at its reference due time, `tick + flush_delay` (or the tick, when
    /// no child was active), and every early one before it; every window a
    /// wake closes closes at `open + window`, and every early one before
    /// it. To the millisecond.
    #[test]
    fn timed_flushes_and_window_closes_land_on_their_deadlines() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let DatConfig {
            epoch_ms,
            query_window_ms,
            ..
        } = DatConfig::default();
        let (mut timed, mut early, mut closed, mut answered) = (0, 0, 0, 0);
        for seed in 0..24u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut n, keys, succ, mut clock) = interior_node();
            let delays: Vec<u64> = keys
                .iter()
                .map(|&k| n.drive::<DatProtocol, _>(|d, cx| d.flush_delay(cx, k)).0)
                .collect();
            let children: Vec<NodeRef> = (0..3)
                .map(|i| NodeRef::new(Id(20 + 10 * i), NodeAddr(20 + i)))
                .collect();
            // The script: `(time, what)`, what = child delivery
            // `(key, child)`, query open `(reqid, depth)` or branch answer.
            enum Ev {
                Deliver(usize, usize),
                Query(u64, u32),
                Answer(u64),
            }
            let mut script: Vec<(u64, Ev)> = Vec::new();
            for epoch in 0..12u64 {
                for k in 0..keys.len() {
                    for c in 0..children.len() {
                        if rng.random_bool(0.85) {
                            let at = epoch * epoch_ms + rng.random_range(1..300u64);
                            script.push((at, Ev::Deliver(k, c)));
                        }
                    }
                }
                for _ in 0..rng.random_range(0..3u32) {
                    let reqid = 1 + script.len() as u64;
                    let at = epoch * epoch_ms + rng.random_range(0..epoch_ms);
                    script.push((at, Ev::Query(reqid, rng.random_range(0..8u32))));
                    if rng.random_bool(0.5) {
                        script.push((at + rng.random_range(1..400u64), Ev::Answer(reqid)));
                    }
                }
            }
            script.sort_by_key(|(at, _)| *at);
            let parent = NodeRef::new(Id(200), NodeAddr(30));
            let deliver = |n: &mut StackNode, from: NodeRef, msg: DatMsg| {
                n.handle(Input::Message {
                    from: from.addr,
                    msg: ChordMsg::App {
                        proto: DAT_PROTO,
                        from,
                        payload: msg.encode().into(),
                    },
                })
            };
            // Reference state: each child's last delivery epoch per key,
            // the due time of each (epoch, key) flush, each window's close.
            let mut last = vec![vec![None::<u64>; children.len()]; keys.len()];
            let mut flush_due: HashMap<(u64, usize), u64> = HashMap::new();
            let mut flushed: HashMap<(u64, usize), u64> = HashMap::new();
            let mut close_at: HashMap<u64, u64> = HashMap::new();
            let mut check = |outs: &[(u64, Output)],
                             by_wake: bool,
                             last: &[Vec<Option<u64>>],
                             close_at: &HashMap<u64, u64>| {
                for (at, o) in outs {
                    let Some((to, payload)) = (match o {
                        Output::Send { to, msg } => dat_payload(msg).map(|p| (to, p)),
                        _ => None,
                    }) else {
                        continue;
                    };
                    match DatMsg::decode(payload).unwrap() {
                        DatMsg::Update { key, epoch, .. } => {
                            assert_eq!(*to, succ);
                            let k = keys.iter().position(|&x| x == key).unwrap();
                            let due = *flush_due.entry((epoch, k)).or_insert_with(|| {
                                let tick = epoch * epoch_ms;
                                let active =
                                    last[k].iter().any(|l| l.is_some_and(|e| e + 1 >= epoch));
                                if active {
                                    tick + delays[k]
                                } else {
                                    tick
                                }
                            });
                            assert!(
                                flushed.insert((epoch, k), *at).is_none(),
                                "seed {seed}: key {k} flushed twice in epoch {epoch}"
                            );
                            if by_wake {
                                assert_eq!(
                                    *at, due,
                                    "seed {seed}: timed flush of key {k}, epoch {epoch}"
                                );
                                timed += 1;
                            } else {
                                assert!(*at < due, "seed {seed}: early flush at {at}, due {due}");
                                early += 1;
                            }
                        }
                        DatMsg::Response { reqid, .. } => {
                            assert_eq!(*to, parent);
                            let close = close_at[&reqid];
                            if by_wake {
                                assert_eq!(*at, close, "seed {seed}: window of query {reqid}");
                                closed += 1;
                            } else {
                                assert!(
                                    *at < close,
                                    "seed {seed}: answered at {at}, closes {close}"
                                );
                                answered += 1;
                            }
                        }
                        _ => {}
                    }
                }
            };
            for (at, ev) in script {
                let woken = clock.run_until(&mut n, at);
                check(&woken, true, &last, &close_at);
                let outs = match ev {
                    Ev::Deliver(k, c) => {
                        let msg = DatMsg::Update {
                            key: keys[k],
                            epoch: 0,
                            partial: AggPartial::of(1.0),
                            sender: children[c],
                        };
                        let outs = deliver(&mut n, children[c], msg);
                        last[k][c] = Some(n.epoch());
                        outs
                    }
                    Ev::Query(reqid, depth) => {
                        let window = (query_window_ms >> (depth + 1).min(6)).max(40);
                        close_at.insert(reqid, at + window);
                        let msg = DatMsg::Query {
                            reqid,
                            key: keys[0],
                            limit: Id(150),
                            parent,
                            depth,
                        };
                        deliver(&mut n, parent, msg)
                    }
                    Ev::Answer(reqid) => {
                        let msg = DatMsg::Response {
                            reqid,
                            key: keys[0],
                            partial: AggPartial::of(1.0),
                            sender: succ,
                        };
                        deliver(&mut n, succ, msg)
                    }
                };
                clock.absorb(&outs);
                let stamped: Vec<(u64, Output)> = outs.into_iter().map(|o| (at, o)).collect();
                check(&stamped, false, &last, &close_at);
            }
            let woken = clock.run_until(&mut n, 13 * epoch_ms);
            check(&woken, true, &last, &close_at);
        }
        assert!(
            timed > 100 && early > 100 && closed > 20 && answered > 20,
            "every path taken: {timed} timed, {early} early, {closed} closed, {answered} answered"
        );
    }

    /// Deliver `partial` as `child`'s `Update` for `key`.
    fn deliver_update(
        n: &mut StackNode,
        child: NodeRef,
        key: Id,
        partial: AggPartial,
    ) -> Vec<Output> {
        let upd = DatMsg::Update {
            key,
            epoch: n.epoch(),
            partial,
            sender: child,
        };
        n.handle(Input::Message {
            from: child.addr,
            msg: dat_chord::ChordMsg::App {
                proto: DAT_PROTO,
                from: child,
                payload: upd.encode().into(),
            },
        })
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
                d.send_outbox(cx);
                d.aggs.len()
            });
            for slot in 0..slots {
                let ((), more) = self.drive::<DatProtocol, _>(|d, cx| {
                    d.flush_continuous(cx, slot);
                    d.send_outbox(cx);
                });
                outs.extend(more);
            }
            outs
        }
    }
}
