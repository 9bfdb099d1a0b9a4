//! # dat-chord — the Chord structured P2P overlay
//!
//! The substrate underneath distributed aggregation trees (DAT): a
//! from-scratch implementation of the Chord protocol (Stoica et al.,
//! SIGCOMM'01) extended exactly the way the DAT paper's prototype extends
//! it (Cai & Hwang, IPDPS'07 §4):
//!
//! * **identifier probing** at join time (Adler et al.), which keeps the
//!   ratio of the largest to smallest identifier gap constant instead of
//!   `O(log n)` — the precondition for balanced DATs to reach a constant
//!   branching factor;
//! * **fingers-of-fingers (FOF)**: each finger entry carries the finger's
//!   predecessor and successor, learned during finger fixing, which both
//!   probing and local DAT-child computation consume;
//! * **balanced routing** (§3.4): a finger-limited next-hop rule,
//!   `g(x) = ⌈log2((x + 2·d0)/3)⌉`, alongside ordinary greedy routing.
//!
//! The protocol core ([`node::ChordNode`]) is sans-io: it consumes
//! [`msg::Input`]s and emits [`msg::Output`]s and never touches a socket or
//! a clock, so the identical code runs under the discrete-event simulator
//! (`dat-sim`) and the UDP RPC transport (`dat-rpc`) — mirroring the
//! paper's prototype architecture. What every real-socket host of an
//! [`Actor`] needs besides a way to wait lives in [`host`].
//!
//! For analysis there is also a global-view [`ring::StaticRing`] that
//! materialises the finger tables a converged overlay would hold, letting
//! experiments on 8192-node rings run in microseconds and cross-validate
//! the live protocol.
//!
//! ## Quick tour
//!
//! ```
//! use dat_chord::{IdSpace, Id, StaticRing, IdPolicy, RoutingScheme};
//! use rand::SeedableRng;
//!
//! let space = IdSpace::new(16);
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let ring = StaticRing::build(space, 64, IdPolicy::Probed, &mut rng);
//! // Greedy finger route from some node to the owner of key 0:
//! let route = ring.finger_route(ring.ids()[10], Id(0));
//! assert!(route.len() <= 1 + space.bits() as usize);
//! assert_eq!(*route.last().unwrap(), ring.successor(Id(0)));
//! # let _ = RoutingScheme::Greedy;
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod actor;
pub mod codec;
pub mod finger;
pub mod health;
pub mod host;
pub mod id;
pub mod metrics;
pub mod msg;
pub mod node;
pub mod payload;
pub mod probing;
pub mod ring;
pub mod routing;
pub mod sha1;
pub mod wire;

pub use actor::Actor;
pub use finger::{FingerInfo, FingerTable, NodeAddr, NodeRef};
pub use health::{HealthConfig, HealthDetector, SuspicionLevel};
pub use id::{ceil_log2, ceil_log2_ratio, Id, IdSpace};
pub use metrics::{Dir, Metrics};
pub use msg::{ChordMsg, Input, Output, ReqId, TimerKind, Upcall};
pub use node::{ChordConfig, ChordNode, NodeStatus, RTO_MIN_MS};
pub use payload::Payload;
pub use ring::{IdPolicy, StaticRing};
pub use routing::{
    estimate_d0, estimate_ring_size, finger_limit, ideal_parent_balanced, ideal_parent_basic,
    parent_balanced, parent_basic, parent_for, ring_size_for_d0, ParentDecision, RoutingScheme,
};
pub use sha1::{hash_to_id, sha1, Sha1};
