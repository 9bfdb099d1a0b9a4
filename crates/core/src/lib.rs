//! # dat-core — Distributed Aggregation Trees on Chord
//!
//! The primary contribution of Cai & Hwang's IPDPS'07 paper, as a library:
//!
//! * **implicit trees** ([`tree::DatTree`]): the union of all Chord routes
//!   toward a rendezvous key *is* an aggregation tree — no parent/child
//!   membership is ever maintained. The *basic* DAT uses greedy finger
//!   routes (tree height `O(log n)` but root branching `log2 n`); the
//!   *balanced* DAT limits each hop to fingers of offset at most
//!   `2^g(x)`, `g(x) = ⌈log2((x + 2·d0)/3)⌉`, capping branching at 2 on
//!   evenly spaced rings (§3.4–3.5);
//! * **aggregate functions** ([`aggregate`]): mergeable partials (count /
//!   sum / sum² / min / max / histogram) whose merge is associative and
//!   commutative — the algebra the tree recursion requires;
//! * **the engine** ([`engine::StackNode`]): one overlay node hosting any
//!   number of application protocols ([`engine::AppProtocol`]) over a single
//!   shared Chord substrate — one finger table, one RTO estimator, one
//!   stabilization schedule, demultiplexed by proto byte;
//! * **the protocol** ([`proto::DatProtocol`]): the §4 prototype's
//!   aggregation table, continuous (epoch-push) and on-demand
//!   (fan-out/convergecast) modes as an `AppProtocol`, plus the
//!   *centralized* baseline of Fig. 8;
//! * **analysis & theory** ([`analysis`], [`theory`]): Fig. 7's tree
//!   metrics and the closed-form branching factor
//!   `B(i,n) = log2 n − ⌈log2(d/d0 + 1)⌉`, cross-checked against
//!   constructed trees by property tests;
//! * **the explicit-membership baseline** ([`explicit`]): the maintenance-
//!   heavy alternative the paper argues against, implemented so the churn
//!   experiment can measure the difference instead of asserting it.
//!
//! ## Quickstart (analysis level)
//!
//! ```
//! use dat_chord::{IdSpace, Id, IdPolicy, StaticRing, RoutingScheme};
//! use dat_core::tree::DatTree;
//! use dat_core::analysis::TreeStats;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
//! let ring = StaticRing::build(IdSpace::new(32), 512, IdPolicy::Probed, &mut rng);
//! let balanced = DatTree::build(&ring, Id(0), RoutingScheme::Balanced);
//! let stats = TreeStats::of(&balanced);
//! assert!(stats.max_branching <= 6);      // ~constant (paper Fig. 7a)
//! assert!(stats.height <= 2 * 9 + 2);     // O(log n)
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod analysis;
pub mod codec;
pub mod engine;
pub mod explicit;
pub mod gossip;
pub mod proto;
pub mod sketch;
pub mod theory;
pub mod tree;
pub mod viz;

pub use aggregate::{AggFunc, AggPartial, Histogram};
pub use analysis::TreeStats;
pub use codec::{CodecError, DatMsg, DAT_PROTO};
pub use engine::{proto_label, AppProtocol, Ctx, InboxPolicy, StackNode};
pub use explicit::{ExpMsg, ExplicitProtocol, EXPLICIT_PROTO};
pub use gossip::{GossipProtocol, GOSSIP_PROTO};
pub use proto::{
    AggregationEntry, AggregationMode, Completeness, DatConfig, DatEvent, DatProtocol,
    COMPLETED_QUERIES_KEPT,
};
pub use sketch::Hll;
pub use tree::DatTree;
