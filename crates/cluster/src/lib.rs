//! # dat-cluster — async UDP cluster host and real-network harness
//!
//! The third [`dat_chord::Actor`] host, next to the discrete-event
//! simulator (`dat_sim::SimNet`) and the thread-per-node blocking
//! transport (`dat_rpc::RpcCluster`): every node becomes a trio of tokio
//! tasks (socket reader, actor, socket writer) around one UDP socket,
//! connected by **bounded** mpsc channels. Tasks are cheap enough that a
//! single process hosts a thousand-plus real nodes — the scale of the
//! paper's testbed ("up to 64 DAT instances on each machine to create a
//! network of 512 nodes", §4) on one machine, with genuine datagrams,
//! kernel socket buffers and wall-clock timers.
//!
//! Backpressure is explicit, mirroring the engine's inbox policy: the
//! data plane (`recv` → actor inbox, actor → `send` outbox) uses
//! `try_send` and counts every refused frame as a shed in the
//! `engine_shed_total{layer}` vocabulary (`transport_rx`/`transport_tx`);
//! the control plane (`call`/`cast`/shutdown) uses waiting sends and is
//! never shed. The sans-io engine is hosted untouched, and everything
//! below it that does not depend on how a node waits — socket book,
//! decode classification and `BadFrame` attribution, counters, timer
//! heap, output step — is [`dat_chord::host`], shared with the threads
//! host, which is what makes three-way transport parity testable.
//!
//! * [`host::ClusterHost`] — the transport: launch, drive, scrape,
//!   drain/shutdown;
//! * [`harness`] — boot a full DAT+MAAN stack cluster (staged live joins
//!   or pre-stabilized tables), run the multi-service workload, scrape
//!   per-node Prometheus expositions and check the paper's Completeness
//!   and exactness invariants against the real network.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod harness;
pub mod host;

pub use dat_chord::host::TransportStats;
pub use harness::{run_harness, BootMode, HarnessConfig, HarnessReport};
pub use host::{ClusterHost, HostConfig};
