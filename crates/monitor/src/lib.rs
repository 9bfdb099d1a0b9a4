//! # dat-monitor — the P-GMA Grid resource-monitoring stack
//!
//! The application layer of the paper (§2.1, §5.4): a P2P Grid Monitoring
//! Architecture whose layers are
//!
//! * **sensors** ([`sensor`]) — signal sources per attribute (trace replay,
//!   random walks, constants);
//! * **producers** — each node's [`dat_core::StackNode`] hosting a
//!   [`dat_core::DatProtocol`], fed by its sensors every epoch;
//! * **indexing** — the MAAN layer hosted on the same nodes; consumers
//!   search it with multi-attribute queries through [`discovery::discover`]
//!   (or [`pgma::GridMonitorSim::discover`]);
//! * **aggregation** — continuous DAT aggregation of global attributes;
//! * **consumers** — per-epoch global reports at the rendezvous root,
//!   collected by [`pgma::GridMonitorSim`] together with ground truth.
//!
//! The §5.4 trace (2-hour CPU usage of an 8-processor Sun Fire v880) is
//! substituted by the seeded generator in [`trace`] — see DESIGN.md §4.
//!
//! ```
//! use dat_monitor::{GridMonitorSim, MonitorConfig, ConstantSensor};
//!
//! let cfg = MonitorConfig { nodes: 16, epoch_ms: 1_000, ..MonitorConfig::default() };
//! let mut sim = GridMonitorSim::new(cfg, "cpu-usage", |_| {
//!     Box::new(ConstantSensor::new("cpu-usage", 42.0))
//! });
//! sim.run_epochs(10);
//! assert!(sim.accuracy().mape < 1e-6); // constant signals aggregate exactly
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod discovery;
pub mod pgma;
pub mod sensor;
pub mod trace;

pub use pgma::{grid_schemas, AccuracyStats, EpochRecord, GridMonitorSim, MonitorConfig};
pub use sensor::{ConstantSensor, RandomWalkSensor, Sensor, TraceSensor};
pub use trace::CpuTrace;
