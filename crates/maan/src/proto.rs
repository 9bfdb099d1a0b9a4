//! MAAN as a live protocol on the stack engine.
//!
//! A [`MaanProtocol`] handler is hosted on a [`StackNode`], so one overlay
//! node serves MAAN resource discovery alongside DAT aggregation over the
//! same finger table (the paper's P-GMA layering, §2.2/§4):
//!
//! * **registration** routes each attribute value to the Chord successor of
//!   its (locality-preserving) hash;
//! * **range queries** route to `successor(H(l))` and walk the ring arc to
//!   `successor(H(u))` node by node; every arc node streams its hits
//!   straight back to the query origin and the last one signals completion.
//!   When one node owns both `H(l)` and `H(u)`, the range either fits in
//!   its arc or covers the whole ring, and the walk then visits every node
//!   once;
//! * **multi-attribute queries** use the *single-attribute dominated*
//!   strategy: the origin walks only the arc of its most selective
//!   predicate and drops the hits that fail the others, for
//!   `O(log n + n × s_min)` hops.
//!
//! Wire messages are hand-rolled on the shared [`dat_chord::wire`]
//! primitives, same as every other codec in the workspace.

use std::collections::HashMap;

use dat_chord::wire::{CodecError, Reader, Writer};
use dat_chord::{Id, Metrics, NodeRef, Output};
use dat_core::engine::{AppProtocol, Ctx, StackNode};

use crate::lph::{hash_value, selectivity};
use crate::store::NodeStore;
use crate::types::{AttrKind, AttrSchema, AttrValue, Constraint, Predicate, Resource};

/// Application-protocol discriminator for MAAN messages.
pub const MAAN_PROTO: u8 = 4;

/// MAAN wire-format version.
pub const MAAN_WIRE_VERSION: u8 = 1;

/// Safety valve for arc walks: a range query dies after this many
/// successor hops even if it never reaches `successor(H(u))`.
const MAX_WALK_HOPS: u32 = 4096;

fn write_resource(w: &mut Writer, r: &Resource) {
    w.str(&r.uri);
    w.u16(r.attrs.len() as u16);
    for (name, v) in &r.attrs {
        w.str(name);
        match v {
            AttrValue::Num(x) => {
                w.u8(0).f64(*x);
            }
            AttrValue::Str(s) => {
                w.u8(1).str(s);
            }
        }
    }
}

fn read_resource(r: &mut Reader<'_>) -> Result<Resource, CodecError> {
    let uri = r.str()?;
    let n = r.u16()? as usize;
    if n > 1024 {
        return Err(CodecError::BadLength(n as u64));
    }
    let mut res = Resource::new(&uri);
    for _ in 0..n {
        let name = r.str()?;
        let v = match r.u8()? {
            0 => AttrValue::Num(r.f64()?),
            1 => AttrValue::Str(r.str()?),
            t => return Err(CodecError::BadTag(t)),
        };
        res.attrs.insert(name, v);
    }
    Ok(res)
}

fn write_predicate(w: &mut Writer, p: &Predicate) {
    w.str(&p.attr);
    match &p.constraint {
        Constraint::Range { lo, hi } => {
            w.u8(0).f64(*lo).f64(*hi);
        }
        Constraint::Exact(s) => {
            w.u8(1).str(s);
        }
    }
}

fn read_predicate(r: &mut Reader<'_>) -> Result<Predicate, CodecError> {
    let attr = r.str()?;
    let constraint = match r.u8()? {
        0 => {
            let lo = r.f64()?;
            let hi = r.f64()?;
            Constraint::Range { lo, hi }
        }
        1 => Constraint::Exact(r.str()?),
        t => return Err(CodecError::BadTag(t)),
    };
    Ok(Predicate { attr, constraint })
}

/// MAAN wire messages.
#[derive(Clone, Debug, PartialEq)]
pub enum MaanMsg {
    /// Routed to `successor(value_id)`: file `resource` under
    /// `(attr, value_id)`.
    Register {
        /// Attribute name the registration is filed under.
        attr: String,
        /// Hashed attribute value (the rendezvous key).
        value_id: Id,
        /// Raw numeric value, when numeric (exact local filtering).
        raw_num: Option<f64>,
        /// The full resource.
        resource: Resource,
    },
    /// A range (or exact) query walking the arc `[lo_id, hi_id]`.
    RangeQuery {
        /// Query id, unique at the origin.
        qid: u64,
        /// Low end of the hashed-value interval.
        lo_id: Id,
        /// High end of the hashed-value interval.
        hi_id: Id,
        /// The predicate for exact local filtering.
        pred: Predicate,
        /// Who collects the hits.
        origin: NodeRef,
        /// Remaining successor hops before the walk is cut off.
        hops_left: u32,
    },
    /// An arc node's local hits, streamed straight back to the origin.
    Hits {
        /// Query id the hits belong to.
        qid: u64,
        /// Matching resources stored on the sending node.
        resources: Vec<Resource>,
    },
    /// The arc walk finished (sent by the node owning `hi_id`, by the last
    /// node of a ring-spanning walk, or on hop exhaustion).
    Done {
        /// Query id that completed.
        qid: u64,
    },
}

impl MaanMsg {
    /// Metrics label.
    pub fn kind(&self) -> &'static str {
        match self {
            MaanMsg::Register { .. } => "maan_register",
            MaanMsg::RangeQuery { .. } => "maan_range_query",
            MaanMsg::Hits { .. } => "maan_hits",
            MaanMsg::Done { .. } => "maan_done",
        }
    }

    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(MAAN_WIRE_VERSION);
        match self {
            MaanMsg::Register {
                attr,
                value_id,
                raw_num,
                resource,
            } => {
                w.u8(1).str(attr).id(*value_id);
                match raw_num {
                    Some(x) => {
                        w.u8(1).f64(*x);
                    }
                    None => {
                        w.u8(0);
                    }
                }
                write_resource(&mut w, resource);
            }
            MaanMsg::RangeQuery {
                qid,
                lo_id,
                hi_id,
                pred,
                origin,
                hops_left,
            } => {
                w.u8(2).u64(*qid).id(*lo_id).id(*hi_id);
                write_predicate(&mut w, pred);
                w.node_ref(*origin).u32(*hops_left);
            }
            MaanMsg::Hits { qid, resources } => {
                w.u8(3).u64(*qid).u16(resources.len() as u16);
                for r in resources {
                    write_resource(&mut w, r);
                }
            }
            MaanMsg::Done { qid } => {
                w.u8(4).u64(*qid);
            }
        }
        w.finish()
    }

    /// Decode from wire bytes (must consume the whole input).
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        let ver = r.u8()?;
        if ver != MAAN_WIRE_VERSION {
            return Err(CodecError::BadVersion(ver));
        }
        let tag = r.u8()?;
        let m = match tag {
            1 => {
                let attr = r.str()?;
                let value_id = r.id()?;
                let raw_num = match r.u8()? {
                    0 => None,
                    _ => Some(r.f64()?),
                };
                let resource = read_resource(&mut r)?;
                MaanMsg::Register {
                    attr,
                    value_id,
                    raw_num,
                    resource,
                }
            }
            2 => {
                let qid = r.u64()?;
                let lo_id = r.id()?;
                let hi_id = r.id()?;
                let pred = read_predicate(&mut r)?;
                let origin = r.node_ref()?;
                let hops_left = r.u32()?;
                MaanMsg::RangeQuery {
                    qid,
                    lo_id,
                    hi_id,
                    pred,
                    origin,
                    hops_left,
                }
            }
            3 => {
                let qid = r.u64()?;
                let n = r.u16()? as usize;
                if n > 4096 {
                    return Err(CodecError::BadLength(n as u64));
                }
                let mut resources = Vec::with_capacity(n);
                for _ in 0..n {
                    resources.push(read_resource(&mut r)?);
                }
                MaanMsg::Hits { qid, resources }
            }
            4 => MaanMsg::Done { qid: r.u64()? },
            t => return Err(CodecError::BadTag(t)),
        };
        r.expect_end()?;
        Ok(m)
    }
}

/// Results surfaced to the host application.
#[derive(Clone, Debug, PartialEq)]
pub enum MaanEvent {
    /// A range query completed (the arc walk signalled `Done`).
    QueryDone {
        /// Query id returned by [`MaanStack::maan_range_query`].
        qid: u64,
        /// Every matching resource collected from the arc.
        hits: Vec<Resource>,
    },
}

#[derive(Debug)]
struct QueryCollect {
    hits: Vec<Resource>,
    /// The predicates the walk did not resolve, checked at the origin.
    rest: Vec<Predicate>,
}

/// The MAAN handler: per-node resource index + range-query arc walking,
/// hosted on the shared Chord substrate by a [`StackNode`].
pub struct MaanProtocol {
    schemas: Vec<AttrSchema>,
    store: NodeStore,
    pending: HashMap<u64, QueryCollect>,
    next_qid: u64,
    metrics: Metrics,
    events: Vec<MaanEvent>,
}

impl MaanProtocol {
    /// A fresh MAAN handler with the given attribute schemas.
    pub fn new(schemas: Vec<AttrSchema>) -> Self {
        MaanProtocol {
            schemas,
            store: NodeStore::new(),
            pending: HashMap::new(),
            next_qid: 0,
            metrics: Metrics::default(),
            events: Vec::new(),
        }
    }

    /// MAAN-layer message counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The local resource index.
    pub fn store(&self) -> &NodeStore {
        &self.store
    }

    /// Drain application events produced since the last call.
    pub fn take_events(&mut self) -> Vec<MaanEvent> {
        std::mem::take(&mut self.events)
    }

    fn schema(&self, attr: &str) -> Option<&AttrSchema> {
        self.schemas.iter().find(|s| s.name == attr)
    }

    /// Register every attribute of `resource`: values this node owns are
    /// filed locally, the rest are routed to their hashed owners.
    fn register(&mut self, cx: &mut Ctx<'_>, resource: &Resource) {
        let space = cx.space();
        for (name, value) in resource.attrs.clone() {
            let Some(schema) = self.schema(&name) else {
                continue;
            };
            let value_id = hash_value(space, schema, &value);
            let raw_num = value.as_num();
            if cx.owns(value_id) {
                self.store
                    .insert(&name, value_id, raw_num, resource.clone());
            } else {
                let m = MaanMsg::Register {
                    attr: name.clone(),
                    value_id,
                    raw_num,
                    resource: resource.clone(),
                };
                self.metrics.count_sent_kind(m.kind());
                cx.route(value_id, m.encode());
            }
        }
    }

    /// Fraction of the identifier space a predicate's image covers: 0 for
    /// an exact match, 1 when the attribute has no numeric schema.
    fn pred_selectivity(&self, p: &Predicate) -> f64 {
        match (&p.constraint, self.schema(&p.attr).map(|s| &s.kind)) {
            (Constraint::Exact(_), _) => 0.0,
            (Constraint::Range { lo: l, hi: u }, Some(AttrKind::Numeric { lo, hi })) => {
                selectivity(*lo, *hi, *l, *u)
            }
            _ => 1.0,
        }
    }

    /// Start a query for every predicate of `preds`: walk the arc of the
    /// most selective one and filter the rest at the origin. The answer
    /// arrives as [`MaanEvent::QueryDone`] with the returned query id.
    fn query(&mut self, cx: &mut Ctx<'_>, mut preds: Vec<Predicate>) -> u64 {
        assert!(!preds.is_empty(), "empty query");
        let me = cx.me();
        if self.next_qid == 0 {
            self.next_qid = me.addr.0 << 24;
        }
        self.next_qid += 1;
        let qid = self.next_qid;
        let space = cx.space();
        let (dom, _) = preds
            .iter()
            .enumerate()
            .map(|(i, p)| (i, self.pred_selectivity(p)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty");
        let pred = preds.remove(dom);
        let image = match (&pred.constraint, self.schema(&pred.attr)) {
            (Constraint::Range { lo, hi }, Some(schema))
                if matches!(schema.kind, AttrKind::Numeric { .. }) =>
            {
                let h = |v: f64| hash_value(space, schema, &AttrValue::Num(v));
                Some((h(*lo), h(*hi)))
            }
            (Constraint::Exact(v), Some(schema)) => {
                let id = hash_value(space, schema, &AttrValue::Str(v.clone()));
                Some((id, id))
            }
            _ => None,
        };
        let Some((lo_id, hi_id)) = image else {
            // Unknown attribute, or a range over keywords (which have no
            // order-preserving hash): trivially empty.
            self.events.push(MaanEvent::QueryDone {
                qid,
                hits: Vec::new(),
            });
            return qid;
        };
        self.pending.insert(
            qid,
            QueryCollect {
                hits: Vec::new(),
                rest: preds,
            },
        );
        let m = MaanMsg::RangeQuery {
            qid,
            lo_id,
            hi_id,
            pred,
            origin: me,
            hops_left: MAX_WALK_HOPS,
        };
        if cx.owns(lo_id) {
            self.on_msg(cx, m);
        } else {
            self.metrics.count_sent_kind(m.kind());
            cx.route(lo_id, m.encode());
        }
        qid
    }

    fn on_msg(&mut self, cx: &mut Ctx<'_>, m: MaanMsg) {
        match m {
            MaanMsg::Register {
                attr,
                value_id,
                raw_num,
                resource,
            } => {
                self.store.insert(&attr, value_id, raw_num, resource);
            }
            MaanMsg::RangeQuery {
                qid,
                lo_id,
                hi_id,
                pred,
                origin,
                hops_left,
            } => {
                let me = cx.me();
                // This node's slice of the arc.
                let local: Vec<Resource> = self
                    .store
                    .scan(&pred.attr, lo_id, hi_id, Some(&pred))
                    .into_iter()
                    .map(|e| e.resource.clone())
                    .collect();
                if !local.is_empty() {
                    let hits = MaanMsg::Hits {
                        qid,
                        resources: local,
                    };
                    self.reply(cx, origin, hits);
                }
                // Walk on unless this node covers the arc's end. Owning both
                // ends, it covers the whole range only when `H(l)` comes
                // first clockwise from its predecessor; otherwise the range
                // spans the ring, and the walk ends at the node whose
                // successor owns `H(l)`.
                let space = cx.space();
                let table = cx.table();
                let owns_lo = cx.owns(lo_id);
                let spans = owns_lo
                    && table
                        .predecessor()
                        .is_some_and(|p| space.dist_cw(p.id, lo_id) > space.dist_cw(p.id, hi_id));
                let closes_circle = !owns_lo
                    && table
                        .successor()
                        .is_some_and(|s| space.in_open_closed(lo_id, me.id, s.id));
                let walk_done = (cx.owns(hi_id) && !spans) || closes_circle || hops_left == 0;
                match table.successor().filter(|_| !walk_done) {
                    // The walk ends here, or (alone on the ring) has nowhere to go.
                    None => self.reply(cx, origin, MaanMsg::Done { qid }),
                    Some(succ) => {
                        let fwd = MaanMsg::RangeQuery {
                            qid,
                            lo_id,
                            hi_id,
                            pred,
                            origin,
                            hops_left: hops_left - 1,
                        };
                        self.metrics.count_sent_kind(fwd.kind());
                        cx.send(succ, fwd.encode());
                    }
                }
            }
            MaanMsg::Hits { qid, resources } => {
                self.collect_hits(qid, resources);
            }
            MaanMsg::Done { qid } => {
                self.finish_query(qid);
            }
        }
    }

    /// Deliver `m` to the query's origin, handling it in place when that
    /// is this node.
    fn reply(&mut self, cx: &mut Ctx<'_>, origin: NodeRef, m: MaanMsg) {
        if origin.id == cx.me().id {
            self.on_msg(cx, m);
        } else {
            self.metrics.count_sent_kind(m.kind());
            cx.send(origin, m.encode());
        }
    }

    fn collect_hits(&mut self, qid: u64, resources: Vec<Resource>) {
        if let Some(q) = self.pending.get_mut(&qid) {
            for r in resources {
                if q.rest.iter().all(|p| r.matches(p)) && !q.hits.iter().any(|h| h.uri == r.uri) {
                    q.hits.push(r);
                }
            }
        }
    }

    fn finish_query(&mut self, qid: u64) {
        if let Some(q) = self.pending.remove(&qid) {
            self.events.push(MaanEvent::QueryDone { qid, hits: q.hits });
        }
    }
}

impl AppProtocol for MaanProtocol {
    fn proto(&self) -> u8 {
        MAAN_PROTO
    }

    fn on_message(&mut self, cx: &mut Ctx<'_>, _from: NodeRef, payload: &[u8]) {
        match MaanMsg::decode(payload) {
            Ok(m) => {
                self.metrics.count_received_kind(m.kind());
                self.on_msg(cx, m);
            }
            Err(_) => self.metrics.dropped += 1,
        }
    }

    fn on_routed(&mut self, cx: &mut Ctx<'_>, _key: Id, _origin: NodeRef, payload: &[u8]) {
        match MaanMsg::decode(payload) {
            Ok(m) => {
                self.metrics.count_received_kind(m.kind());
                self.on_msg(cx, m);
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

/// MAAN conveniences on the stack engine (extension trait — `StackNode`
/// lives in `dat-core`, so cross-crate conveniences can't be inherent
/// methods). All of these panic if no [`MaanProtocol`] is registered.
pub trait MaanStack {
    /// The MAAN handler (read-only).
    fn maan(&self) -> &MaanProtocol;

    /// Register every attribute of `resource` onto the overlay.
    fn maan_register(&mut self, resource: &Resource) -> Vec<Output>;

    /// Issue a multi-attribute query for resources satisfying every
    /// predicate of `preds` (a single-attribute query is a list of one);
    /// the answer arrives as [`MaanEvent::QueryDone`] with the returned
    /// query id.
    fn maan_query(&mut self, preds: Vec<Predicate>) -> (u64, Vec<Output>);

    /// Issue a numeric range query `attr ∈ [lo, hi]`.
    fn maan_range_query(&mut self, attr: &str, lo: f64, hi: f64) -> (u64, Vec<Output>);

    /// Drain MAAN application events produced since the last call.
    fn take_maan_events(&mut self) -> Vec<MaanEvent>;
}

impl MaanStack for StackNode {
    fn maan(&self) -> &MaanProtocol {
        self.app::<MaanProtocol>()
    }

    fn maan_register(&mut self, resource: &Resource) -> Vec<Output> {
        let resource = resource.clone();
        self.drive::<MaanProtocol, _>(move |m, cx| m.register(cx, &resource))
            .1
    }

    fn maan_query(&mut self, preds: Vec<Predicate>) -> (u64, Vec<Output>) {
        self.drive::<MaanProtocol, _>(move |m, cx| m.query(cx, preds))
    }

    fn maan_range_query(&mut self, attr: &str, lo: f64, hi: f64) -> (u64, Vec<Output>) {
        self.maan_query(vec![Predicate::range(attr, lo, hi)])
    }

    fn take_maan_events(&mut self) -> Vec<MaanEvent> {
        self.app_mut::<MaanProtocol>().take_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dat_chord::{ChordConfig, IdSpace, NodeAddr};

    fn schemas() -> Vec<AttrSchema> {
        vec![
            AttrSchema::numeric("cpu-speed", 0.0, 8.0),
            AttrSchema::keyword("os"),
        ]
    }

    fn mk(id: u64) -> StackNode {
        let ccfg = ChordConfig {
            space: IdSpace::new(16),
            ..ChordConfig::default()
        };
        StackNode::new(ccfg, Id(id), NodeAddr(id)).with_app(MaanProtocol::new(schemas()))
    }

    #[test]
    fn maan_msg_roundtrip() {
        let res = Resource::new("grid://m1")
            .with("cpu-speed", 2.8)
            .with("os", "linux");
        let msgs = vec![
            MaanMsg::Register {
                attr: "cpu-speed".into(),
                value_id: Id(77),
                raw_num: Some(2.8),
                resource: res.clone(),
            },
            MaanMsg::RangeQuery {
                qid: 9,
                lo_id: Id(10),
                hi_id: Id(20),
                pred: Predicate::range("cpu-speed", 1.0, 2.0),
                origin: NodeRef::new(Id(3), NodeAddr(3)),
                hops_left: 64,
            },
            MaanMsg::RangeQuery {
                qid: 10,
                lo_id: Id(5),
                hi_id: Id(5),
                pred: Predicate::exact("os", "linux"),
                origin: NodeRef::new(Id(3), NodeAddr(3)),
                hops_left: 64,
            },
            MaanMsg::Hits {
                qid: 9,
                resources: vec![res.clone(), Resource::new("grid://m2")],
            },
            MaanMsg::Done { qid: 9 },
        ];
        for m in msgs {
            assert_eq!(MaanMsg::decode(&m.encode()).unwrap(), m);
        }
        assert!(MaanMsg::decode(&[]).is_err());
        assert!(MaanMsg::decode(&[MAAN_WIRE_VERSION, 99]).is_err());
    }

    #[test]
    fn singleton_registers_locally_and_answers_range_query() {
        let mut n = mk(1);
        let _ = n.start_create();
        let res = Resource::new("grid://m1")
            .with("cpu-speed", 2.8)
            .with("os", "linux");
        let outs = n.maan_register(&res);
        // Singleton owns everything: no traffic, both attrs filed locally.
        assert!(outs.iter().all(|o| !matches!(o, Output::Send { .. })));
        assert_eq!(n.maan().store().len(), 2);
        let (qid, _) = n.maan_range_query("cpu-speed", 2.0, 3.0);
        let evs = n.take_maan_events();
        assert_eq!(
            evs,
            vec![MaanEvent::QueryDone {
                qid,
                hits: vec![res]
            }]
        );
    }

    #[test]
    fn range_query_misses_outside_interval() {
        let mut n = mk(1);
        let _ = n.start_create();
        let res = Resource::new("grid://m1").with("cpu-speed", 6.5);
        let _ = n.maan_register(&res);
        let (qid, _) = n.maan_range_query("cpu-speed", 0.0, 2.0);
        assert_eq!(
            n.take_maan_events(),
            vec![MaanEvent::QueryDone {
                qid,
                hits: Vec::new()
            }]
        );
    }

    #[test]
    fn exact_keyword_query() {
        let mut n = mk(1);
        let _ = n.start_create();
        let _ = n.maan_register(&Resource::new("grid://m1").with("os", "linux"));
        let _ = n.maan_register(&Resource::new("grid://m2").with("os", "plan9"));
        let (qid, _) = n.maan_query(vec![Predicate::exact("os", "linux")]);
        let evs = n.take_maan_events();
        match &evs[..] {
            [MaanEvent::QueryDone { qid: q, hits }] => {
                assert_eq!(*q, qid);
                assert_eq!(hits.len(), 1);
                assert_eq!(hits[0].uri, "grid://m1");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dominated_choice_prefers_exact_predicate() {
        let m = MaanProtocol::new(vec![
            AttrSchema::numeric("cpu-usage", 0.0, 100.0),
            AttrSchema::keyword("os"),
        ]);
        // Exact predicates have selectivity 0 — they dominate.
        let s_exact = m.pred_selectivity(&Predicate::exact("os", "linux"));
        let s_wide = m.pred_selectivity(&Predicate::range("cpu-usage", 0.0, 100.0));
        let s_narrow = m.pred_selectivity(&Predicate::range("cpu-usage", 10.0, 15.0));
        assert!(s_exact < s_narrow && s_narrow < s_wide);
        assert_eq!(s_wide, 1.0);
    }

    #[test]
    fn unknown_attribute_completes_empty() {
        let mut n = mk(1);
        let _ = n.start_create();
        let _ = n.maan_register(&Resource::new("grid://m1").with("os", "linux"));
        // A range over a keyword attribute has no ordered image either.
        for attr in ["no-such-attr", "os"] {
            let (qid, _) = n.maan_range_query(attr, 0.0, 1.0);
            let done = MaanEvent::QueryDone {
                qid,
                hits: Vec::new(),
            };
            assert_eq!(n.take_maan_events(), vec![done], "{attr}");
        }
    }
}
