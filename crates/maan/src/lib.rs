//! # dat-maan — Multi-Attribute Addressable Network
//!
//! The indexing layer of the P-GMA architecture (paper §2.2): Grid
//! resources are attribute-value lists; each value is stored on the Chord
//! successor of its hash. Numeric attributes use a **locality-preserving
//! hash**, so a range query `[l, u]` resolves by routing to
//! `successor(H(l))` (`O(log n)` hops) and walking the arc to
//! `successor(H(u))` (`k` more hops). Multi-attribute queries use the
//! **single-attribute dominated** strategy — resolve only the most
//! selective sub-query and filter the rest locally — for
//! `O(log n + n × s_min)` total hops.
//!
//! Every node hosts a [`MaanProtocol`] next to any other service of its
//! [`dat_core::StackNode`]; queries travel the live overlay:
//!
//! ```
//! use dat_chord::{ChordConfig, IdPolicy, IdSpace, NodeAddr, StaticRing};
//! use dat_core::StackNode;
//! use dat_maan::{AttrSchema, MaanEvent, MaanProtocol, MaanStack, Predicate, Resource};
//! use dat_sim::harness::prestabilized_stack;
//! use rand::SeedableRng;
//!
//! let space = IdSpace::new(32);
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let ring = StaticRing::build(space, 64, IdPolicy::Probed, &mut rng);
//! let ccfg = ChordConfig { space, ..ChordConfig::default() };
//! let schemas = vec![
//!     AttrSchema::numeric("cpu-speed", 0.0, 8.0),
//!     AttrSchema::keyword("os"),
//! ];
//! let mut net = prestabilized_stack(&ring, ccfg, 1, |_, id, addr| {
//!     StackNode::new(ccfg, id, addr).with_app(MaanProtocol::new(schemas.clone()))
//! });
//! let m1 = Resource::new("grid://m1").with("cpu-speed", 2.8).with("os", "linux");
//! net.with_node(NodeAddr(0), |n| ((), n.maan_register(&m1)));
//! net.run_for(1_000);
//! let qid = net.with_node(NodeAddr(40), |n| {
//!     n.maan_query(vec![
//!         Predicate::range("cpu-speed", 2.0, 3.0),
//!         Predicate::exact("os", "linux"),
//!     ])
//! });
//! net.run_for(1_000);
//! let events = net.node_mut(NodeAddr(40)).unwrap().take_maan_events();
//! assert_eq!(events, vec![MaanEvent::QueryDone { qid: qid.unwrap(), hits: vec![m1] }]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod lph;
pub mod proto;
pub mod store;
pub mod types;

pub use lph::{hash_value, lph_numeric, selectivity};
pub use proto::{MaanEvent, MaanMsg, MaanProtocol, MaanStack, MAAN_PROTO};
pub use store::{NodeStore, StoredEntry};
pub use types::{AttrKind, AttrSchema, AttrValue, Constraint, Predicate, Resource};
