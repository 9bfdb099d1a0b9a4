//! # dat-rpc — UDP RPC transport for DAT nodes
//!
//! The real-network counterpart of the discrete-event simulator: the same
//! sans-io Chord/DAT state machines driven by loopback UDP sockets,
//! wall-clock timers and worker threads — the architecture of the paper's
//! prototype, whose "RPC manager module is implemented at the socket-level
//! to send and receive UDP packets" (§4).
//!
//! * [`codec`] — one datagram per [`dat_chord::ChordMsg`]; versioned,
//!   bounds-checked, fuzz-tolerant binary frames on the shared
//!   [`dat_chord::wire`] primitives;
//! * [`cluster::RpcCluster`] — the [`dat_chord::host`] core on blocking
//!   threads: one socket, one receiver thread and one worker thread per
//!   node, hosting any [`dat_chord::Actor`] (a bare `ChordNode` or a
//!   `dat_core::StackNode` protocol stack) against the real network.
//!
//! ```no_run
//! use dat_chord::{ChordConfig, ChordNode, Id, NodeAddr};
//! use dat_rpc::RpcCluster;
//!
//! let a = ChordNode::new(ChordConfig::default(), Id(1), NodeAddr(0));
//! let b = ChordNode::new(ChordConfig::default(), Id(2), NodeAddr(1));
//! let cluster = RpcCluster::launch(vec![a, b]).unwrap();
//! let boot = cluster.call(NodeAddr(0), |n| (n.me(), n.start_create())).unwrap();
//! cluster.cast(NodeAddr(1), move |n| n.start_join(boot));
//! // ... let it run, then:
//! let nodes = cluster.shutdown();
//! assert_eq!(nodes.len(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod codec;

pub use cluster::{ClusterConfig, RpcCluster};
pub use codec::{decode, encode, CodecError, MAX_FRAME};
pub use dat_chord::host::TransportStats;
