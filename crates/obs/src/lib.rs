//! # dat-obs — sans-io observability for the DAT stack
//!
//! The paper's entire evaluation is observational: per-node message
//! distributions (Fig. 8a), imbalance factors (Fig. 8b), branching factors
//! and end-to-end accuracy. This crate is the instrumentation substrate
//! every layer shares:
//!
//! * [`LogHist`] — a log2-bucketed histogram that keeps buckets only up to
//!   its max's. Observing is two array writes, merging is element-wise
//!   addition, so 8192-node sim runs
//!   can afford one per node and fold them into fleet-wide percentiles;
//! * [`Registry`] — counters, gauges and histograms keyed by static metric
//!   names plus up to two static labels. Deterministically ordered, cheap
//!   to merge across nodes, rendered as a Prometheus-style text dump
//!   ([`Registry::render_prometheus`], checked by [`validate_prometheus`]);
//! * [`Tracer`] — a bounded per-node ring buffer of typed [`Event`]s with
//!   logical timestamps and a causal `trace_id`. The trace id is threaded
//!   through `AggPartial`, so one aggregation epoch can be replayed
//!   leaf→root as a tree-shaped [`EpochTrace`]. An order-insensitive
//!   [`digest`](Tracer::digest) makes traces assertable in tests and
//!   comparable across transports (SimNet vs UDP deliver in different
//!   orders; the digest does not care).
//!
//! The crate is dependency-free and sans-io: node identities are plain
//! `u64`s, timestamps are whatever clock the host reports.

#![deny(clippy::unwrap_used)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epoch;
pub mod hist;
pub mod registry;
pub mod trace;

pub use epoch::{EpochTrace, TraceEdge};
pub use hist::LogHist;
pub use registry::{validate_prometheus, Key, Registry};
pub use trace::{digest_events, fnv1a, mix64, row_index, trace_id_for, Event, EventKind, Tracer};
