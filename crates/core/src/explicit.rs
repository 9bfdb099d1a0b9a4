//! Explicit-membership aggregation tree — the baseline DAT argues against.
//!
//! The paper motivates implicit trees by the cost of the alternative
//! (§2.3): "explicit tree construction has limited scalability … the
//! parent-child maintenance overhead increases linearly with the number of
//! trees \[and\] will be further exaggerated when nodes dynamically join or
//! leave". To *quantify* that claim, this module implements a classic
//! explicitly-maintained aggregation tree as an [`AppProtocol`] over the
//! same Chord substrate. A fault campaign (`dat_sim::campaign`) hosts it
//! in place of the DAT under the same seeded plan, and `repro churn` books
//! both trees' messages from those two runs:
//!
//! * a joining node routes a `JoinTree` request to the rendezvous root;
//!   nodes with spare capacity adopt it, full nodes delegate to their
//!   children in turn (yielding a bounded-degree tree);
//! * parents and children exchange periodic heartbeats; a missed heartbeat
//!   dissolves the edge and forces the child to re-join;
//! * every membership message (`join_tree`, `adopt`, `heartbeat`,
//!   `heartbeat_ack`, `leave_tree`) is tallied separately from aggregation
//!   payload traffic, so experiments can compare *maintenance* overhead
//!   against the implicit DAT's zero.

use std::collections::BTreeMap;

use dat_chord::{Id, Metrics, NodeRef, NodeStatus};

use crate::aggregate::AggPartial;
use crate::codec::{CodecError, ReadPartial, Reader, WritePartial, Writer, WIRE_VERSION};
use crate::engine::{AppProtocol, Ctx};

/// Application-protocol discriminator for explicit-tree messages.
pub const EXPLICIT_PROTO: u8 = 2;

/// Explicit-tree wire messages.
#[derive(Clone, Debug, PartialEq)]
pub enum ExpMsg {
    /// Routed to the root: `joiner` wants a tree parent.
    JoinTree {
        /// Tree rendezvous key.
        key: Id,
        /// The node seeking a parent.
        joiner: NodeRef,
    },
    /// Adoption notice: sender is now the joiner's parent.
    Adopt {
        /// Tree rendezvous key.
        key: Id,
        /// The adopting parent.
        parent: NodeRef,
    },
    /// Parent-liveness heartbeat (child → parent).
    Heartbeat {
        /// Tree rendezvous key.
        key: Id,
        /// The heartbeating child.
        sender: NodeRef,
    },
    /// Heartbeat acknowledgement (parent → child).
    HeartbeatAck {
        /// Tree rendezvous key.
        key: Id,
        /// The acknowledging parent.
        sender: NodeRef,
    },
    /// Graceful departure notice to parent and children.
    LeaveTree {
        /// Tree rendezvous key.
        key: Id,
        /// The departing node.
        sender: NodeRef,
    },
    /// Aggregation payload pushed child → parent (same shape as DAT's).
    Update {
        /// Tree rendezvous key.
        key: Id,
        /// Epoch index.
        epoch: u64,
        /// Merged subtree partial.
        partial: AggPartial,
        /// The pushing child.
        sender: NodeRef,
    },
}

impl ExpMsg {
    /// Metrics label.
    pub fn kind(&self) -> &'static str {
        match self {
            ExpMsg::JoinTree { .. } => "exp_join_tree",
            ExpMsg::Adopt { .. } => "exp_adopt",
            ExpMsg::Heartbeat { .. } => "exp_heartbeat",
            ExpMsg::HeartbeatAck { .. } => "exp_heartbeat_ack",
            ExpMsg::LeaveTree { .. } => "exp_leave_tree",
            ExpMsg::Update { .. } => "exp_update",
        }
    }

    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(WIRE_VERSION);
        match self {
            ExpMsg::JoinTree { key, joiner } => {
                w.u8(1).id(*key).node_ref(*joiner);
            }
            ExpMsg::Adopt { key, parent } => {
                w.u8(2).id(*key).node_ref(*parent);
            }
            ExpMsg::Heartbeat { key, sender } => {
                w.u8(3).id(*key).node_ref(*sender);
            }
            ExpMsg::HeartbeatAck { key, sender } => {
                w.u8(4).id(*key).node_ref(*sender);
            }
            ExpMsg::LeaveTree { key, sender } => {
                w.u8(5).id(*key).node_ref(*sender);
            }
            ExpMsg::Update {
                key,
                epoch,
                partial,
                sender,
            } => {
                w.u8(6)
                    .id(*key)
                    .u64(*epoch)
                    .partial(partial)
                    .node_ref(*sender);
            }
        }
        w.finish()
    }

    /// Decode from wire bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        let ver = r.u8()?;
        if ver != WIRE_VERSION {
            return Err(CodecError::BadVersion(ver));
        }
        let tag = r.u8()?;
        let m = match tag {
            1 => ExpMsg::JoinTree {
                key: r.id()?,
                joiner: r.node_ref()?,
            },
            2 => ExpMsg::Adopt {
                key: r.id()?,
                parent: r.node_ref()?,
            },
            3 => ExpMsg::Heartbeat {
                key: r.id()?,
                sender: r.node_ref()?,
            },
            4 => ExpMsg::HeartbeatAck {
                key: r.id()?,
                sender: r.node_ref()?,
            },
            5 => ExpMsg::LeaveTree {
                key: r.id()?,
                sender: r.node_ref()?,
            },
            6 => ExpMsg::Update {
                key: r.id()?,
                epoch: r.u64()?,
                partial: r.partial()?,
                sender: r.node_ref()?,
            },
            t => return Err(CodecError::BadTag(t)),
        };
        r.expect_end()?;
        Ok(m)
    }
}

/// Maximum children per node (bounded degree).
const MAX_CHILDREN: usize = 4;
/// Heartbeat period, ms.
const HEARTBEAT_MS: u64 = 1_000;
/// Missed-heartbeat threshold before an edge is dissolved.
const MISS_LIMIT: u32 = 3;

#[derive(Clone, Debug)]
struct ChildState {
    node: NodeRef,
    missed: u32,
    /// The child's latest partial, with our own epoch when it arrived:
    /// epoch counters are per node, and a restarted child's starts over.
    partial: Option<(AggPartial, u64)>,
}

/// The explicit-membership aggregation tree for one rendezvous key, as a
/// protocol handler (Chord is used only as a router for `JoinTree`).
pub struct ExplicitProtocol {
    key: Id,
    parent: Option<NodeRef>,
    /// Parent heartbeats missed (from the child's perspective).
    parent_missed: u32,
    /// Ordered by id: the merge order of float partials and the fan-out
    /// order of `LeaveTree` are part of the node's observable output.
    children: BTreeMap<Id, ChildState>,
    local: Option<f64>,
    epoch: u64,
    /// Epoch length, ms.
    epoch_ms: u64,
    /// Engine time of the next heartbeat round.
    next_heartbeat_ms: u64,
    /// Engine time of the next epoch push.
    next_epoch_ms: u64,
    /// Heartbeat rounds since our last unanswered `JoinTree`; `None`
    /// while not joining.
    join_wait: Option<u32>,
    /// Joins this node passed on to a child since it filled up.
    delegated: usize,
    metrics: Metrics,
    /// Root-side per-epoch reports not yet taken.
    reports: Vec<(u64, AggPartial)>,
}

impl ExplicitProtocol {
    /// Create an explicit-tree handler for `key` that pushes every
    /// `epoch_ms`.
    pub fn new(key: Id, epoch_ms: u64) -> Self {
        ExplicitProtocol {
            key,
            parent: None,
            parent_missed: 0,
            children: BTreeMap::new(),
            local: None,
            epoch: 0,
            epoch_ms,
            next_heartbeat_ms: 0,
            next_epoch_ms: 0,
            join_wait: None,
            delegated: 0,
            metrics: Metrics::default(),
            reports: Vec::new(),
        }
    }

    /// Update the local observation.
    pub fn set_local(&mut self, v: f64) {
        self.local = Some(v);
    }

    /// Take the per-epoch global partials this node published as root
    /// since the last call, as `(epoch, partial)`, oldest first.
    pub fn take_reports(&mut self) -> Vec<(u64, AggPartial)> {
        std::mem::take(&mut self.reports)
    }

    fn is_root(&self, cx: &Ctx<'_>) -> bool {
        cx.owns(self.key)
    }

    fn send_join_tree(&mut self, cx: &mut Ctx<'_>) {
        if self.join_wait.is_some() || self.is_root(cx) {
            return;
        }
        self.join_wait = Some(0);
        let m = ExpMsg::JoinTree {
            key: self.key,
            joiner: cx.me(),
        };
        self.metrics.count_sent_kind(m.kind());
        cx.route(self.key, m.encode());
    }

    fn on_msg(&mut self, cx: &mut Ctx<'_>, m: ExpMsg) {
        let me = cx.me();
        match m {
            ExpMsg::JoinTree { key, joiner } => {
                if joiner.id == me.id {
                    return;
                }
                if self.children.len() < MAX_CHILDREN {
                    self.children.insert(
                        joiner.id,
                        ChildState {
                            node: joiner,
                            missed: 0,
                            partial: None,
                        },
                    );
                    let adopt = ExpMsg::Adopt { key, parent: me };
                    self.metrics.count_sent_kind(adopt.kind());
                    cx.send(joiner, adopt.encode());
                } else {
                    // Delegate to the children in turn (deterministic,
                    // keeps the tree bounded-degree and O(log n) deep).
                    let turn = self.delegated % self.children.len();
                    self.delegated += 1;
                    let target = self
                        .children
                        .values()
                        .nth(turn)
                        .map(|c| c.node)
                        .expect("full node has children");
                    let fwd = ExpMsg::JoinTree { key, joiner };
                    self.metrics.count_sent_kind(fwd.kind());
                    cx.send(target, fwd.encode());
                }
            }
            ExpMsg::Adopt { key: _, parent } => {
                self.join_wait = None;
                self.parent = Some(parent);
                self.parent_missed = 0;
            }
            ExpMsg::Heartbeat { key, sender } => {
                if let Some(c) = self.children.get_mut(&sender.id) {
                    c.missed = 0;
                    let ack = ExpMsg::HeartbeatAck { key, sender: me };
                    self.metrics.count_sent_kind(ack.kind());
                    cx.send(sender, ack.encode());
                }
                // Heartbeat from an unknown child: it was dropped; silence
                // makes it re-join.
            }
            ExpMsg::HeartbeatAck { .. } => {
                self.parent_missed = 0;
            }
            ExpMsg::LeaveTree { key: _, sender } => {
                if self.parent.map(|p| p.id) == Some(sender.id) {
                    self.parent = None;
                    self.send_join_tree(cx);
                }
                self.children.remove(&sender.id);
            }
            ExpMsg::Update {
                key: _,
                epoch: _,
                partial,
                sender,
            } => {
                if let Some(c) = self.children.get_mut(&sender.id) {
                    c.partial = Some((partial, self.epoch));
                }
            }
        }
    }

    fn on_heartbeat(&mut self, cx: &mut Ctx<'_>) {
        if cx.status() != NodeStatus::Active {
            return;
        }
        let me = cx.me();
        // Child side: heartbeat the parent, count misses.
        if let Some(p) = self.parent {
            self.parent_missed += 1;
            if self.parent_missed > MISS_LIMIT {
                self.parent = None;
                self.send_join_tree(cx);
            } else {
                let hb = ExpMsg::Heartbeat {
                    key: self.key,
                    sender: me,
                };
                self.metrics.count_sent_kind(hb.kind());
                cx.send(p, hb.encode());
            }
        } else if !self.is_root(cx) {
            // A join unanswered for `MISS_LIMIT` rounds is sent again: the
            // request, the adoption or the adopter itself may be lost.
            match self.join_wait {
                Some(rounds) if rounds < MISS_LIMIT => self.join_wait = Some(rounds + 1),
                _ => {
                    self.join_wait = None;
                    self.send_join_tree(cx);
                }
            }
        }
        // Parent side: age children.
        let dead: Vec<Id> = self
            .children
            .iter_mut()
            .filter_map(|(id, c)| {
                c.missed += 1;
                (c.missed > MISS_LIMIT).then_some(*id)
            })
            .collect();
        for id in dead {
            self.children.remove(&id);
        }
    }

    fn on_epoch(&mut self, cx: &mut Ctx<'_>) {
        if cx.status() != NodeStatus::Active {
            return;
        }
        self.epoch += 1;
        let mut acc = AggPartial::identity();
        if let Some(x) = self.local {
            acc.absorb(x);
        }
        for c in self.children.values() {
            if let Some((p, e)) = &c.partial {
                if self.epoch - *e <= 3 {
                    acc.merge(p);
                }
            }
        }
        if self.is_root(cx) {
            self.reports.push((self.epoch, acc));
        } else if let Some(p) = self.parent {
            let m = ExpMsg::Update {
                key: self.key,
                epoch: self.epoch,
                partial: acc,
                sender: cx.me(),
            };
            self.metrics.count_sent_kind(m.kind());
            cx.send(p, m.encode());
        }
    }
}

impl AppProtocol for ExplicitProtocol {
    fn proto(&self) -> u8 {
        EXPLICIT_PROTO
    }

    fn on_start(&mut self, cx: &mut Ctx<'_>) {
        self.next_heartbeat_ms = cx.now_ms() + HEARTBEAT_MS;
        self.next_epoch_ms = cx.now_ms() + self.epoch_ms;
        cx.wake_at(self.next_heartbeat_ms.min(self.next_epoch_ms));
        if !self.is_root(cx) {
            self.send_join_tree(cx);
        }
    }

    fn on_message(&mut self, cx: &mut Ctx<'_>, _from: NodeRef, payload: &[u8]) {
        match ExpMsg::decode(payload) {
            Ok(m) => {
                self.metrics.count_received_kind(m.kind());
                self.on_msg(cx, m);
            }
            Err(_) => self.metrics.dropped += 1,
        }
    }

    fn on_wake(&mut self, cx: &mut Ctx<'_>) {
        // Both due at once: the heartbeat round runs first.
        let now = cx.now_ms();
        if now >= self.next_heartbeat_ms {
            self.on_heartbeat(cx);
            self.next_heartbeat_ms = now + HEARTBEAT_MS;
        }
        if now >= self.next_epoch_ms {
            self.on_epoch(cx);
            self.next_epoch_ms = now + self.epoch_ms;
        }
        cx.wake_at(self.next_heartbeat_ms.min(self.next_epoch_ms));
    }

    fn on_routed(&mut self, cx: &mut Ctx<'_>, _key: Id, _origin: NodeRef, payload: &[u8]) {
        match ExpMsg::decode(payload) {
            Ok(m) => {
                self.metrics.count_received_kind(m.kind());
                self.on_msg(cx, m);
            }
            Err(_) => self.metrics.dropped += 1,
        }
    }

    fn on_leave(&mut self, cx: &mut Ctx<'_>) {
        let leave = ExpMsg::LeaveTree {
            key: self.key,
            sender: cx.me(),
        };
        if let Some(p) = self.parent {
            self.metrics.count_sent_kind(leave.kind());
            cx.send(p, leave.encode());
        }
        let kids: Vec<NodeRef> = self.children.values().map(|c| c.node).collect();
        for c in kids {
            self.metrics.count_sent_kind(leave.kind());
            cx.send(c, leave.encode());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StackNode;
    use dat_chord::{ChordConfig, IdSpace, NodeAddr, Output};

    fn nr(id: u64) -> NodeRef {
        NodeRef::new(Id(id), NodeAddr(id))
    }

    fn mk(id: u64) -> StackNode {
        let ccfg = ChordConfig {
            space: IdSpace::new(8),
            ..ChordConfig::default()
        };
        StackNode::new(ccfg, Id(id), NodeAddr(id)).with_app(ExplicitProtocol::new(Id(0), 1_000))
    }

    #[test]
    fn exp_msg_roundtrip() {
        let msgs = vec![
            ExpMsg::JoinTree {
                key: Id(1),
                joiner: nr(2),
            },
            ExpMsg::Adopt {
                key: Id(1),
                parent: nr(3),
            },
            ExpMsg::Heartbeat {
                key: Id(1),
                sender: nr(4),
            },
            ExpMsg::HeartbeatAck {
                key: Id(1),
                sender: nr(5),
            },
            ExpMsg::LeaveTree {
                key: Id(1),
                sender: nr(6),
            },
            ExpMsg::Update {
                key: Id(1),
                epoch: 7,
                partial: AggPartial::of(1.5),
                sender: nr(8),
            },
        ];
        for m in msgs {
            assert_eq!(ExpMsg::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn adoption_under_capacity() {
        let mut root = mk(0);
        let _ = root.start_create();
        let ((), outs) = root.drive::<ExplicitProtocol, _>(|e, cx| {
            e.on_msg(
                cx,
                ExpMsg::JoinTree {
                    key: Id(0),
                    joiner: nr(10),
                },
            )
        });
        assert_eq!(root.app::<ExplicitProtocol>().children.len(), 1);
        // The adopt message went out.
        let adopted = outs.iter().any(|o| matches!(o, Output::Send { .. }));
        assert!(adopted);
    }

    #[test]
    fn full_node_delegates_join() {
        let mut root = mk(0);
        let _ = root.start_create();
        for i in 0..4 {
            let _ = root.drive::<ExplicitProtocol, _>(|e, cx| {
                e.on_msg(
                    cx,
                    ExpMsg::JoinTree {
                        key: Id(0),
                        joiner: nr(10 + i),
                    },
                )
            });
        }
        assert_eq!(root.app::<ExplicitProtocol>().children.len(), 4);
        let ((), outs) = root.drive::<ExplicitProtocol, _>(|e, cx| {
            e.on_msg(
                cx,
                ExpMsg::JoinTree {
                    key: Id(0),
                    joiner: nr(99),
                },
            )
        });
        // Still 4 children; the join was forwarded to child 10.
        assert_eq!(root.app::<ExplicitProtocol>().children.len(), 4);
        match &outs[0] {
            Output::Send { to, .. } => assert_eq!(to.id, Id(10)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            root.app::<ExplicitProtocol>()
                .metrics
                .sent_of("exp_join_tree"),
            1
        );
    }

    #[test]
    fn adopt_sets_parent() {
        let mut n = mk(50);
        let _ = n.start_create();
        n.app_mut::<ExplicitProtocol>().join_wait = Some(0);
        let _ = n.drive::<ExplicitProtocol, _>(|e, cx| {
            e.on_msg(
                cx,
                ExpMsg::Adopt {
                    key: Id(0),
                    parent: nr(3),
                },
            )
        });
        assert_eq!(n.app::<ExplicitProtocol>().parent.unwrap().id, Id(3));
        assert_eq!(n.app::<ExplicitProtocol>().join_wait, None);
    }

    #[test]
    fn missed_heartbeats_dissolve_edges() {
        let mut n = mk(50);
        let mut clock = crate::engine::WakeClock::default();
        clock.absorb(&n.start_create());
        n.app_mut::<ExplicitProtocol>().parent = Some(nr(3));
        n.app_mut::<ExplicitProtocol>().children.insert(
            Id(9),
            ChildState {
                node: nr(9),
                missed: 0,
                partial: None,
            },
        );
        // Five heartbeat rounds, one a second, none answered.
        clock.run_until(&mut n, 5 * HEARTBEAT_MS);
        assert_eq!(
            clock.fired, 5,
            "one wake per round: heartbeat and epoch share it"
        );
        // Edge to the silent child dissolved...
        assert_eq!(n.app::<ExplicitProtocol>().children.len(), 0);
        // ...and the silent parent was abandoned (rejoin attempted).
        assert!(n.app::<ExplicitProtocol>().parent.is_none());
    }

    #[test]
    fn epoch_pushes_to_parent_and_root_reports() {
        let mut n = mk(50);
        let _ = n.start_create();
        // A lone created node IS the root (owns everything).
        n.app_mut::<ExplicitProtocol>().set_local(42.0);
        let _ = n.drive::<ExplicitProtocol, _>(|e, cx| e.on_epoch(cx));
        let reports = n.app_mut::<ExplicitProtocol>().take_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].1.sum, 42.0);
        // Taken once: the root keeps no report it handed out.
        assert!(n.app_mut::<ExplicitProtocol>().take_reports().is_empty());
    }

    #[test]
    fn leave_notifies_parent_and_children() {
        let mut n = mk(50);
        let _ = n.start_create();
        n.app_mut::<ExplicitProtocol>().parent = Some(nr(3));
        n.app_mut::<ExplicitProtocol>().children.insert(
            Id(9),
            ChildState {
                node: nr(9),
                missed: 0,
                partial: None,
            },
        );
        let outs = n.leave();
        let leave_sends = outs
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    Output::Send {
                        msg: dat_chord::ChordMsg::App {
                            proto: EXPLICIT_PROTO,
                            ..
                        },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(leave_sends, 2, "parent and child both told");
        assert_eq!(
            n.app::<ExplicitProtocol>()
                .metrics
                .sent_of("exp_leave_tree"),
            2
        );
    }
}
