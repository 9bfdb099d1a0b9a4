//! Scale harness: drive the event engine with 10⁴–10⁶-node overlays and
//! measure what it costs.
//!
//! The paper evaluates up to 8192 nodes; this module is how we push the
//! engine itself well past that (100k in CI, 1M offline) and track the
//! throughput trajectory release over release. A run builds a
//! pre-stabilized Chord overlay of `n` nodes, executes a window of
//! virtual time — pure protocol maintenance: stabilization timers,
//! finger fixes, the resulting message traffic — and reports wall-clock
//! throughput (events/sec, ns/event) plus engine health counters
//! (clamped events, drops, backlog) and process memory.
//!
//! Determinism is preserved: a [`ScaleConfig`] with a fixed seed produces
//! the same virtual schedule on every run; only the wall-clock numbers
//! vary by machine.

#![deny(clippy::unwrap_used)]

use std::time::Instant;

use dat_chord::{ChordConfig, ChordNode, IdPolicy, IdSpace, StaticRing};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::net::SimNet;

/// Parameters of one scale run.
#[derive(Clone, Copy, Debug)]
pub struct ScaleConfig {
    /// Overlay size (number of nodes).
    pub n: usize,
    /// Virtual window to simulate, in milliseconds.
    pub virtual_ms: u64,
    /// Determinism seed (ring build + engine).
    pub seed: u64,
    /// Identifier-space width in bits.
    pub bits: u8,
    /// Worker shards ([`SimNet::set_shards`]; `0` behaves as `1`). The
    /// seeded digest is invariant in this value: `1` and `8` fingerprint
    /// identically.
    pub shards: usize,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            n: 8192,
            virtual_ms: 10_000,
            seed: 0x5ca1e,
            bits: 40,
            shards: 1,
        }
    }
}

/// What one scale run measured.
#[derive(Clone, Copy, Debug)]
pub struct ScaleReport {
    /// Overlay size.
    pub n: usize,
    /// Virtual window simulated, in milliseconds.
    pub virtual_ms: u64,
    /// Worker shards driven.
    pub shards: usize,
    /// Wall-clock cost of building the overlay, in milliseconds.
    pub build_wall_ms: u64,
    /// Wall-clock cost of the simulated window, in milliseconds.
    pub run_wall_ms: u64,
    /// Events processed inside the window.
    pub events: u64,
    /// Events per wall-clock second (0 when the window was too fast to
    /// time, which does not happen at the sizes this harness targets).
    pub events_per_sec: f64,
    /// Mean wall-clock nanoseconds per event.
    pub ns_per_event: f64,
    /// Messages the transport dropped (loss/faults/dead targets).
    pub dropped: u64,
    /// Past-scheduled events clamped to "now" (stale-deadline signal —
    /// expected to be 0 for pure maintenance).
    pub clamped: u64,
    /// Events still queued when the window closed (engine backlog).
    pub backlog: usize,
    /// Peak resident set of the whole process, in MiB (`VmHWM`), if the
    /// platform exposes it. Monotone across a process's lifetime: when
    /// sweeping sizes in one process, sweep ascending so each report's
    /// peak reflects its own size.
    pub peak_rss_mib: Option<u64>,
    /// FNV-1a fingerprint of the run's observable outcome: event/drop
    /// counts, backlog, and every node's transport counters in global
    /// index order. A pure function of `(seed, n, virtual_ms, bits)` —
    /// never of shard count or wall-clock — so any two runs of the same
    /// config must match bit for bit.
    pub digest: u64,
}

impl ScaleReport {
    /// One-line human rendering.
    pub fn summary(&self) -> String {
        format!(
            "n={} shards={} build={}ms run={}ms events={} ({:.0}/s, {:.0} ns/event) \
             dropped={} clamped={} backlog={} peak_rss={} digest={:016x}",
            self.n,
            self.shards,
            self.build_wall_ms,
            self.run_wall_ms,
            self.events,
            self.events_per_sec,
            self.ns_per_event,
            self.dropped,
            self.clamped,
            self.backlog,
            match self.peak_rss_mib {
                Some(m) => format!("{m}MiB"),
                None => "n/a".into(),
            },
            self.digest
        )
    }
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`), if the platform exposes it.
pub fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb / 1024);
        }
    }
    None
}

/// Run one scale epoch: build an `n`-node pre-stabilized overlay, simulate
/// `virtual_ms` of maintenance on `cfg.shards` shards, measure.
pub fn run_scale(cfg: ScaleConfig) -> ScaleReport {
    let space = IdSpace::new(cfg.bits);
    let ccfg = ChordConfig {
        space,
        ..ChordConfig::default()
    };
    let build_start = Instant::now();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let ring = StaticRing::build(space, cfg.n, IdPolicy::Random, &mut rng);
    let mut net: SimNet<ChordNode> = crate::harness::prestabilized_chord(&ring, ccfg, cfg.seed);
    let build_wall_ms = build_start.elapsed().as_millis() as u64;
    // Re-dealing slots and timers is neither build nor run: on no clock.
    net.set_shards(cfg.shards);
    // Upcall records would grow without bound over a long window.
    net.set_record_upcalls(false);

    let run_start = Instant::now();
    let before = net.events_processed();
    net.run_for(cfg.virtual_ms);
    let run_wall = run_start.elapsed();
    let events = net.events_processed() - before;
    let mut words = vec![events, net.dropped, net.pending_events() as u64];
    for a in net.addrs() {
        let s = net.link_stats(a);
        words.extend([a.0, s.sent, s.delivered]);
    }
    let bytes: Vec<u8> = words.into_iter().flat_map(u64::to_le_bytes).collect();
    let secs = run_wall.as_secs_f64();
    ScaleReport {
        n: cfg.n,
        virtual_ms: cfg.virtual_ms,
        shards: cfg.shards.max(1),
        build_wall_ms,
        run_wall_ms: run_wall.as_millis() as u64,
        events,
        events_per_sec: if secs > 0.0 {
            events as f64 / secs
        } else {
            0.0
        },
        ns_per_event: if events > 0 {
            run_wall.as_nanos() as f64 / events as f64
        } else {
            0.0
        },
        dropped: net.dropped,
        clamped: net.clamped_events(),
        backlog: net.pending_events(),
        peak_rss_mib: peak_rss_mib(),
        digest: dat_obs::fnv1a(&bytes),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_run_reports_sane_numbers() {
        let r = run_scale(ScaleConfig {
            n: 64,
            virtual_ms: 3_000,
            ..ScaleConfig::default()
        });
        assert_eq!(r.n, 64);
        assert!(r.events > 0, "maintenance must generate events");
        assert!(r.ns_per_event > 0.0);
        assert_eq!(r.clamped, 0, "maintenance never schedules in the past");
        assert!(!r.summary().is_empty());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_readable_on_linux() {
        assert!(peak_rss_mib().is_some());
    }

    #[test]
    fn sharded_scale_digest_is_shard_count_invariant() {
        let cfg = |shards| ScaleConfig {
            n: 48,
            virtual_ms: 2_000,
            shards,
            ..ScaleConfig::default()
        };
        let base = run_scale(cfg(1));
        assert!(base.events > 0, "maintenance must generate events");
        assert_eq!(base.clamped, 0, "conservative window violated");
        assert_eq!(base.shards, 1);
        for s in [2usize, 4] {
            let r = run_scale(cfg(s));
            assert_eq!(r.digest, base.digest, "{s}-shard digest diverged");
            assert_eq!(
                (r.events, r.dropped, r.backlog),
                (base.events, base.dropped, base.backlog)
            );
            assert_eq!(r.clamped, 0);
        }
    }

    #[test]
    fn simnet_digest_is_stable_across_runs_and_backends() {
        use crate::queue::tests::{on_scheduler, SchedulerKind};
        let cfg = ScaleConfig {
            n: 48,
            virtual_ms: 2_000,
            ..ScaleConfig::default()
        };
        let a = run_scale(cfg);
        let b = run_scale(cfg);
        assert_eq!(
            a.digest, b.digest,
            "same config must fingerprint identically"
        );
        let h = on_scheduler(SchedulerKind::Heap, || run_scale(cfg));
        assert_eq!(a.digest, h.digest, "wheel and heap digests diverged");
        assert_eq!(
            (a.events, a.dropped, a.backlog),
            (h.events, h.dropped, h.backlog)
        );
    }
}
