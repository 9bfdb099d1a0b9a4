//! Chord wire messages and the sans-io input/output vocabulary.
//!
//! The protocol core ([`crate::node::ChordNode`]) is a pure state machine:
//! it consumes [`Input`]s and emits [`Output`]s. Hosts — the discrete-event
//! simulator (`dat-sim`) or the real-socket host core ([`crate::host`])
//! under `dat-rpc` and `dat-cluster` — interpret the outputs. This mirrors
//! the paper's prototype, where the same Chord/DAT layers run over either
//! an RPC manager or a simulation engine (§4). Application payloads ride
//! opaquely in [`ChordMsg::Route`] (keyed) and [`ChordMsg::App`] (direct);
//! the on-demand query fan-out is the DAT layer's, over `App`. A direct
//! payload that doubles as a liveness probe rides in
//! [`ChordMsg::ProbedApp`]: the receiver answers it with the `Pong` a
//! `Ping` gets, so the DAT's once-per-epoch parent probe costs no message
//! of its own.

use crate::finger::{NodeAddr, NodeRef};
use crate::id::Id;
use crate::payload::Payload;

/// Request identifiers are locally unique per issuing node; replies echo
/// them so the issuer can match its pending table.
pub type ReqId = u64;

/// Messages exchanged between Chord layers.
#[derive(Clone, Debug, PartialEq)]
pub enum ChordMsg {
    /// Find the owner (successor) of `key`. Forwarded recursively along
    /// greedy finger routes; the owner replies to `origin` directly.
    FindSuccessor {
        /// Request id echoed by the reply.
        req: ReqId,
        /// The key being resolved / routed to.
        key: Id,
        /// The node that initiated the request and receives the reply/upcall.
        origin: NodeRef,
        /// Hops traversed so far.
        hops: u32,
    },
    /// Reply to [`ChordMsg::FindSuccessor`], sent by the key's owner. The
    /// owner includes its own neighborhood so the issuer can populate FOF
    /// state in one round trip.
    FoundSuccessor {
        /// Request id echoed by the reply.
        req: ReqId,
        /// The node owning the requested key.
        owner: NodeRef,
        /// The owner's predecessor (FOF data).
        owner_pred: Option<NodeRef>,
        /// The owner's first successor (FOF data).
        owner_succ: Option<NodeRef>,
        /// Hops traversed so far.
        hops: u32,
    },
    /// Ask a node for its predecessor and successor list (stabilization and
    /// FOF refresh).
    GetNeighbors {
        /// Request id echoed by the reply.
        req: ReqId,
        /// The requesting node (reply target).
        sender: NodeRef,
    },
    /// Reply to [`ChordMsg::GetNeighbors`].
    Neighbors {
        /// Request id echoed by the reply.
        req: ReqId,
        /// The responding node.
        me: NodeRef,
        /// The responder's / leaver's predecessor.
        pred: Option<NodeRef>,
        /// Successor list, nearest first.
        succ_list: Vec<NodeRef>,
    },
    /// Chord `notify`: the sender believes it may be the receiver's
    /// predecessor.
    Notify {
        /// The node claiming to be a predecessor candidate.
        sender: NodeRef,
    },
    /// Liveness probe.
    Ping {
        /// Request id echoed by the pong.
        req: ReqId,
        /// The pinging node (reply target).
        sender: NodeRef,
    },
    /// Liveness reply.
    Pong {
        /// Request id of the answered ping.
        req: ReqId,
        /// The responding node.
        sender: NodeRef,
    },
    /// Identifier-probing join (§3.5): ask the receiver to designate an
    /// identifier by splitting the largest gap among itself and its fingers.
    ProbeJoin {
        /// Request id echoed by the reply.
        req: ReqId,
        /// The joining node (reply target).
        origin: NodeRef,
    },
    /// Reply to [`ChordMsg::ProbeJoin`] carrying the designated identifier.
    ProbeJoinReply {
        /// Request id of the probe.
        req: ReqId,
        /// Identifier designated by gap splitting.
        designated: Id,
    },
    /// Graceful departure: sent to the predecessor with the leaver's
    /// successor list so it can bridge the gap immediately.
    LeaveToPred {
        /// The departing node.
        leaver: NodeRef,
        /// Successor list, nearest first.
        succ_list: Vec<NodeRef>,
    },
    /// Graceful departure: sent to the successor with the leaver's
    /// predecessor so it can re-link immediately.
    LeaveToSucc {
        /// The departing node.
        leaver: NodeRef,
        /// The responder's / leaver's predecessor.
        pred: Option<NodeRef>,
    },
    /// Application payload routed toward the owner of `key`; the owner's
    /// host receives [`Upcall::Routed`].
    Route {
        /// The key being resolved / routed to.
        key: Id,
        /// Opaque application payload (shared buffer; clones are cheap).
        payload: Payload,
        /// The node that initiated the request and receives the reply/upcall.
        origin: NodeRef,
        /// Hops traversed so far.
        hops: u32,
    },
    /// Direct (single-hop) application-layer message. The Chord layer
    /// delivers it to the embedding layer as [`Upcall::AppMessage`] without
    /// interpreting the payload — this is how DAT aggregation updates travel
    /// from child to parent.
    App {
        /// Application protocol discriminator (e.g. `dat_core::DAT_PROTO`).
        proto: u8,
        /// The sending node.
        from: NodeRef,
        /// Opaque application payload (shared buffer; clones are cheap).
        payload: Payload,
    },
    /// A direct application message that is also a liveness probe: the
    /// receiver answers `req` with [`ChordMsg::Pong`], exactly as for a
    /// [`ChordMsg::Ping`], then delivers the payload like an
    /// [`ChordMsg::App`]. The sender retries the probe as plain `Ping`s,
    /// never the payload (see
    /// [`crate::node::ChordNode::send_app_probed`]).
    ProbedApp {
        /// Request id echoed by the pong.
        req: ReqId,
        /// Application protocol discriminator (e.g. `dat_core::DAT_PROTO`).
        proto: u8,
        /// The sending node (pong target).
        from: NodeRef,
        /// Opaque application payload (shared buffer; clones are cheap).
        payload: Payload,
    },
    /// Ask a node for its observability snapshot. The receiving host
    /// serves it via [`Upcall::StatsRequested`] (a protocol stack replies
    /// with its merged Prometheus text dump); a host that does not serve
    /// stats simply never answers.
    StatsRequest {
        /// Request id echoed by the reply.
        req: ReqId,
        /// The requesting node (reply target).
        sender: NodeRef,
    },
    /// Reply to [`ChordMsg::StatsRequest`] carrying a Prometheus-style
    /// text exposition.
    StatsReply {
        /// Request id of the answered request.
        req: ReqId,
        /// The responding node.
        sender: NodeRef,
        /// UTF-8 metrics text (Prometheus exposition format).
        text: Payload,
    },
}

impl ChordMsg {
    /// Short message-type label for metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            ChordMsg::FindSuccessor { .. } => "find_successor",
            ChordMsg::FoundSuccessor { .. } => "found_successor",
            ChordMsg::GetNeighbors { .. } => "get_neighbors",
            ChordMsg::Neighbors { .. } => "neighbors",
            ChordMsg::Notify { .. } => "notify",
            ChordMsg::Ping { .. } => "ping",
            ChordMsg::Pong { .. } => "pong",
            ChordMsg::ProbeJoin { .. } => "probe_join",
            ChordMsg::ProbeJoinReply { .. } => "probe_join_reply",
            ChordMsg::LeaveToPred { .. } => "leave_to_pred",
            ChordMsg::LeaveToSucc { .. } => "leave_to_succ",
            ChordMsg::Route { .. } => "route",
            ChordMsg::App { .. } | ChordMsg::ProbedApp { .. } => "app",
            ChordMsg::StatsRequest { .. } => "stats_request",
            ChordMsg::StatsReply { .. } => "stats_reply",
        }
    }

    /// `true` for messages that belong to ring maintenance rather than
    /// application traffic — used by the churn-overhead experiment.
    pub fn is_maintenance(&self) -> bool {
        !matches!(
            self,
            ChordMsg::Route { .. } | ChordMsg::App { .. } | ChordMsg::ProbedApp { .. }
        )
    }
}

/// Timers a node may arm. Hosts must deliver [`Input::Timer`] with the same
/// kind after the requested delay (timers are one-shot; the node re-arms).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimerKind {
    /// Periodic successor-list stabilization.
    Stabilize,
    /// Periodic finger fixing (round-robin over finger indices).
    FixFingers,
    /// Periodic predecessor liveness check.
    CheckPredecessor,
    /// The node's request-deadline timer, carrying the host time it was
    /// armed for. Every input first times out the requests past their
    /// deadline, so this one exists only to guarantee an input by the
    /// earliest deadline when no periodic timer the node re-armed itself
    /// comes first. At most one is live: a firing whose time is not the
    /// latest armed one was superseded and does nothing.
    ReqDeadline(u64),
    /// Timer owned by the layer above Chord (the DAT layer), with its own
    /// sub-kind.
    App(u64),
}

/// Everything a protocol node can ask its host to do.
#[derive(Clone, Debug, PartialEq)]
pub enum Output {
    /// Send `msg` to `to`.
    Send {
        /// Destination node.
        to: NodeRef,
        /// The message to deliver.
        msg: ChordMsg,
    },
    /// Arm a one-shot timer for `delay_ms` virtual milliseconds.
    SetTimer {
        /// Which timer to arm.
        kind: TimerKind,
        /// Delay in (virtual) milliseconds.
        delay_ms: u64,
    },
    /// Notify the layer above of a protocol event.
    Upcall(Upcall),
}

/// Events surfaced to the embedding layer (the DAT node or the host).
#[derive(Clone, Debug, PartialEq)]
pub enum Upcall {
    /// The node completed its join (or created the ring) and is active.
    /// Carries the final identifier — identifier probing may have replaced
    /// the initially drawn one.
    Joined {
        /// The identifier finally adopted.
        id: Id,
    },
    /// A [`ChordMsg::FindSuccessor`] lookup issued via
    /// [`crate::node::ChordNode::lookup`] finished.
    LookupDone {
        /// Request id echoed by the reply.
        req: ReqId,
        /// The node owning the requested key.
        owner: NodeRef,
        /// The owner's predecessor (FOF data).
        owner_pred: Option<NodeRef>,
        /// Hops traversed so far.
        hops: u32,
    },
    /// A lookup timed out without an answer.
    LookupFailed {
        /// Request id of the failed lookup.
        req: ReqId,
    },
    /// Joining the ring failed after exhausting retries.
    JoinFailed,
    /// An application payload routed to a key we own arrived.
    Routed {
        /// The key being resolved / routed to.
        key: Id,
        /// Opaque application payload (shared buffer; clones are cheap).
        payload: Payload,
        /// The node that initiated the request and receives the reply/upcall.
        origin: NodeRef,
        /// Hops traversed so far.
        hops: u32,
    },
    /// A direct application-layer message arrived (see [`ChordMsg::App`]).
    AppMessage {
        /// Application protocol discriminator.
        proto: u8,
        /// The sending node.
        from: NodeRef,
        /// Opaque application payload (shared buffer; clones are cheap).
        payload: Payload,
    },
    /// The local neighborhood (successor/predecessor) changed; upper layers
    /// may need to recompute DAT parents.
    NeighborhoodChanged,
    /// An application-owned timer fired (see [`TimerKind::App`]).
    AppTimer(u64),
    /// A [`ChordMsg::StatsRequest`] arrived; the host decides what (if
    /// anything) to reply via [`crate::node::ChordNode::reply_stats`].
    StatsRequested {
        /// Request id to echo in the reply.
        req: ReqId,
        /// The requesting node (reply target).
        from: NodeRef,
    },
    /// A [`ChordMsg::StatsReply`] arrived for a stats request this node
    /// issued via [`crate::node::ChordNode::request_stats`].
    StatsReceived {
        /// Request id of the answered request.
        req: ReqId,
        /// The responding node.
        from: NodeRef,
        /// UTF-8 metrics text (Prometheus exposition format).
        text: Payload,
    },
}

/// Inputs driven into the node by its host.
#[derive(Clone, Debug, PartialEq)]
pub enum Input {
    /// A timer previously armed with [`Output::SetTimer`] fired.
    Timer(TimerKind),
    /// A message arrived from the network.
    Message {
        /// Transport endpoint the message came from.
        from: NodeAddr,
        /// The delivered message.
        msg: ChordMsg,
    },
    /// The transport received a frame that failed to decode (bad
    /// checksum, truncation, unknown tag …). The frame carried no trusted
    /// content, so only its provenance and the error kind are surfaced;
    /// hosts use this to score and eventually quarantine poisoned peers.
    BadFrame {
        /// Transport endpoint the frame came from, when the transport can
        /// attribute it (UDP keeps a socket→address reverse map; an
        /// unattributable datagram reports `None`).
        from: Option<NodeAddr>,
        /// Why the frame was rejected.
        error: crate::wire::CodecError,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maintenance_classification() {
        let route = ChordMsg::Route {
            key: Id(1),
            payload: vec![].into(),
            origin: NodeRef::new(Id(0), NodeAddr(0)),
            hops: 0,
        };
        assert!(!route.is_maintenance());
        assert_eq!(route.kind(), "route");
        let ping = ChordMsg::Ping {
            req: 1,
            sender: NodeRef::new(Id(0), NodeAddr(0)),
        };
        assert!(ping.is_maintenance());
        let probed = ChordMsg::ProbedApp {
            req: 2,
            proto: 1,
            from: NodeRef::new(Id(0), NodeAddr(0)),
            payload: vec![7].into(),
        };
        assert!(!probed.is_maintenance());
        assert_eq!(probed.kind(), "app");
    }
}
