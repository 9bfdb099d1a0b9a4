//! # dat-sim — discrete-event simulation engine
//!
//! The paper's prototype evaluates at scale by running the unmodified
//! Chord/DAT layers over "a discrete event simulation engine \[with\] a
//! heap-based event queue … to insert and fire those events in a
//! chronological order" (§4). This crate is that engine, and there is one of it:
//!
//! * [`net::SimNet`] — the engine: hosts any sans-io [`net::Actor`] (a
//!   bare [`dat_chord::ChordNode`], or a [`dat_core::StackNode`] protocol
//!   stack hosting any mix of DAT / explicit-tree / gossip / MAAN
//!   handlers), interprets their outputs, counts transport traffic, and
//!   applies [`fault::FaultPlan`]s between run segments. Events run in
//!   `(time, key)` order with keys assigned by the sender and randomness
//!   drawn from per-node streams ([`shard`]), so a seed fully determines a
//!   run for any [`net::SimNet::set_shards`] count;
//! * [`queue::EventQueue`] — the scheduler under each shard: a
//!   hierarchical timer wheel obeying strict `(at, seq)` order;
//! * [`time::SimTime`] — virtual milliseconds, the same unit the sans-io
//!   protocol uses for timer delays;
//! * [`latency::LatencyModel`] / [`latency::LossModel`] — constant (LAN),
//!   uniform-jitter and log-normal (WAN) one-way delays, plus i.i.d. loss
//!   for fault injection;
//! * [`harness`] — builds whole overlays: live protocol joins, or
//!   pre-stabilized 8192-node rings materialised from a global view;
//! * [`campaign`] — seeded fault campaigns (churn, gray failures, wire
//!   corruption, partition/heal, WAN loss, a departure burst): one
//!   scenario, one drive loop, one invariant scorer;
//! * [`stats`] — tallies, percentiles and the paper's imbalance factor.
//!
//! ```
//! use dat_chord::{ChordConfig, IdSpace, IdPolicy, StaticRing};
//! use dat_sim::harness::{prestabilized_chord, ring_converged};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! let ring = StaticRing::build(IdSpace::new(24), 100, IdPolicy::Random, &mut rng);
//! let cfg = ChordConfig { space: IdSpace::new(24), ..ChordConfig::default() };
//! let net = prestabilized_chord(&ring, cfg, 7);
//! assert!(ring_converged(&net, ring.ids()));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod fault;
pub mod fuzz;
pub mod harness;
pub mod latency;
pub mod net;
pub mod obs;
pub mod queue;
pub mod shard;
pub mod stats;
pub mod time;

pub use campaign::{Campaign, FleetCounters, Outcome, Report, Scenario, Score, Traffic, Tree};
pub use fault::{CorruptMode, FaultEvent, FaultPlan, LinkFault};
pub use fuzz::{fuzz_codec, FuzzReport, FuzzTarget, ALL_TARGETS};
pub use harness::{
    finger_convergence, prestabilized_chord, prestabilized_dat, prestabilized_gossip,
    prestabilized_stack, ring_converged, spawn_live_ring, ChordView,
};
pub use latency::{LatencyModel, LossModel};
pub use net::{Actor, LinkStats, SimNet, UpcallRecord};
pub use obs::{fleet_events, fleet_prometheus, fleet_registry};
pub use queue::EventQueue;
pub use shard::ShardedNet;
pub use stats::{imbalance_factor, percentile, rank_order, Tally};
pub use time::SimTime;
