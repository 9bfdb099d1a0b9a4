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
use crate::shard::ShardedNet;

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
    /// Worker shards. `0` (the default) drives the single-core
    /// [`SimNet`] engine; `1..` drives the multi-core
    /// [`ShardedNet`] engine with that many shards, whose seeded digest
    /// is invariant in this value (`1` and `8` fingerprint identically).
    pub shards: usize,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            n: 8192,
            virtual_ms: 10_000,
            seed: 0x5ca1e,
            bits: 40,
            shards: 0,
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
    /// Worker shards driven (0 = single-core [`SimNet`] engine).
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
    /// never of shard count or wall-clock — so any two sharded runs of
    /// the same config must match bit for bit. (The single-core and
    /// sharded engines consume randomness differently, so digests are
    /// comparable only within one engine.)
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

/// Incremental FNV-1a over little-endian `u64` words — the run digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Run one scale epoch: build an `n`-node pre-stabilized overlay, simulate
/// `virtual_ms` of maintenance, measure. `cfg.shards == 0` drives the
/// single-core [`SimNet`]; `cfg.shards >= 1` drives the multi-core
/// [`ShardedNet`].
pub fn run_scale(cfg: ScaleConfig) -> ScaleReport {
    if cfg.shards > 0 {
        run_scale_sharded(cfg)
    } else {
        run_scale_simnet(cfg)
    }
}

fn run_scale_simnet(cfg: ScaleConfig) -> ScaleReport {
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
    // Upcall records would grow without bound over a long window.
    net.set_record_upcalls(false);

    let run_start = Instant::now();
    let before = net.events_processed();
    net.run_for(cfg.virtual_ms);
    let run_wall = run_start.elapsed();
    let events = net.events_processed() - before;
    let mut fnv = Fnv::new();
    fnv.word(events);
    fnv.word(net.dropped);
    fnv.word(net.pending_events() as u64);
    for a in net.addrs() {
        let s = net.link_stats(a);
        fnv.word(a.0);
        fnv.word(s.sent);
        fnv.word(s.delivered);
    }
    finish_report(
        cfg,
        build_wall_ms,
        run_wall,
        events,
        ReportTail {
            dropped: net.dropped,
            clamped: net.clamped_events(),
            backlog: net.pending_events(),
            digest: fnv.0,
        },
    )
}

/// The same workload as [`run_scale_simnet`] on the multi-core engine:
/// identical ring build, identical per-node protocol stack, executed by
/// `cfg.shards` worker threads under the conservative window protocol.
fn run_scale_sharded(cfg: ScaleConfig) -> ScaleReport {
    let space = IdSpace::new(cfg.bits);
    let ccfg = ChordConfig {
        space,
        ..ChordConfig::default()
    };
    let build_start = Instant::now();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let ring = StaticRing::build(space, cfg.n, IdPolicy::Random, &mut rng);
    let book = crate::harness::addr_book(&ring);
    let addr_of = |id| book[&id];
    let mut net: ShardedNet<ChordNode> = ShardedNet::new(cfg.seed, cfg.shards);
    for &id in ring.ids() {
        let mut node = ChordNode::new(ccfg, id, addr_of(id));
        let table = ring.table_of_with(id, ccfg.succ_list_len, &addr_of);
        let outs = node.start_with_table(table);
        let addr = node.me().addr;
        net.add_node(node);
        net.apply(addr, outs);
    }
    let build_wall_ms = build_start.elapsed().as_millis() as u64;

    let run_start = Instant::now();
    let before = net.events_processed();
    net.run_for(cfg.virtual_ms);
    let run_wall = run_start.elapsed();
    let events = net.events_processed() - before;
    let mut fnv = Fnv::new();
    fnv.word(events);
    fnv.word(net.dropped());
    fnv.word(net.pending_events() as u64);
    for a in net.addrs() {
        let s = net.link_stats(a);
        fnv.word(a.0);
        fnv.word(s.sent);
        fnv.word(s.delivered);
    }
    finish_report(
        cfg,
        build_wall_ms,
        run_wall,
        events,
        ReportTail {
            dropped: net.dropped(),
            clamped: net.clamped_events(),
            backlog: net.pending_events(),
            digest: fnv.0,
        },
    )
}

/// Engine-health fields that differ per engine, bundled so the two run
/// paths share one report constructor.
struct ReportTail {
    dropped: u64,
    clamped: u64,
    backlog: usize,
    digest: u64,
}

fn finish_report(
    cfg: ScaleConfig,
    build_wall_ms: u64,
    run_wall: std::time::Duration,
    events: u64,
    tail: ReportTail,
) -> ScaleReport {
    let secs = run_wall.as_secs_f64();
    ScaleReport {
        n: cfg.n,
        virtual_ms: cfg.virtual_ms,
        shards: cfg.shards,
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
        dropped: tail.dropped,
        clamped: tail.clamped,
        backlog: tail.backlog,
        peak_rss_mib: peak_rss_mib(),
        digest: tail.digest,
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
