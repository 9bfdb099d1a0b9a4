//! What every workload shares: the arguments of one run, the op log with
//! its order statistics, the seeded value schedule, the run digest and the
//! report that becomes the result line.

use std::time::Instant;

use dat_chord::{Id, NodeAddr, StaticRing};
use dat_sim::LinkStats;

use crate::json::Json;
use crate::probe::{ratio, NodeTrace, CLASSES};
use crate::procstat;
use crate::spec;
use crate::stats;

/// Arguments of one run, as the driver passes them.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: per-layer metrics.
    pub trace: bool,
    /// Where the traced pass writes its spans (nowhere when absent).
    pub trace_out: Option<String>,
}

/// SplitMix64 finalizer — the one source of seeded benchmark inputs
/// (value schedules, asker order), independent of the `rand` shim so a
/// change there cannot silently change the workload.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The local value node `node` holds for key number `key` in schedule
/// step `step`: a small integer, so every partial sum is exact in `f64`.
pub fn scheduled_value(seed: u64, node: usize, key: usize, step: u64) -> u64 {
    mix(seed ^ mix(step ^ mix(((node as u64) << 8) | key as u64))) % 1000
}

/// The first `count` attribute names `bench-attr-<j>` whose rendezvous
/// keys land on `count` different roots of `ring`, with key and root id.
/// A function of the seeded ring alone. Distinct roots keep the busiest
/// node's load from doubling on the seeds where two keys would collide.
pub fn distinct_root_keys(ring: &StaticRing, count: usize) -> Vec<(String, Id, Id)> {
    let mut picked: Vec<(String, Id, Id)> = Vec::with_capacity(count);
    for j in 0.. {
        if picked.len() == count.min(ring.len()) {
            break;
        }
        let name = format!("bench-attr-{j}");
        let key = dat_chord::hash_to_id(ring.space(), name.as_bytes());
        let root = ring.successor(key);
        if picked.iter().all(|(_, _, r)| *r != root) {
            picked.push((name, key, root));
        }
    }
    picked
}

/// Incremental FNV-1a over little-endian `u64` words — the run digest
/// (same construction as `dat_sim::scale`, which keeps its own private).
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Wall and CPU clocks read together at the edges of a phase.
#[derive(Debug)]
pub struct Stopwatch {
    wall: Instant,
    cpu_ms: f64,
    gen_cpu_ms: f64,
}

/// What a [`Stopwatch`] measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct Elapsed {
    pub wall_s: f64,
    /// Process CPU, all threads.
    pub cpu_ms: f64,
    /// CPU of the calling (generator) thread alone.
    pub gen_cpu_ms: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu_ms: procstat::process_cpu_ms(),
            gen_cpu_ms: procstat::thread_cpu_ms(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn stop(&self) -> Elapsed {
        Elapsed {
            wall_s: self.wall_s(),
            cpu_ms: procstat::process_cpu_ms() - self.cpu_ms,
            gen_cpu_ms: procstat::thread_cpu_ms() - self.gen_cpu_ms,
        }
    }
}

/// Wall length of the windows whose medians give `ops_per_s`,
/// `cpu_ms_per_op` and `op_wall_ms_tail`. The sandbox's neighbours slow a
/// run for seconds at a time; a median over windows shrugs off the bursts
/// that a single figure over the whole phase would take in.
const WINDOW_S: f64 = 2.0;

/// One closed window of the measured phase.
#[derive(Clone, Copy, Debug)]
struct Window {
    /// Index in `op_ms` of the window's first sample.
    first: usize,
    /// Exact ops (= samples) in the window.
    ops: u64,
    wall_s: f64,
    cpu_ms: f64,
}

/// The measured phase of one pass: per-op wall samples, the clocks around
/// all of them, and the same clocks per window.
#[derive(Debug)]
pub struct OpLog {
    /// Wall milliseconds of every op that completed with an exact answer.
    pub op_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the first failed op failed.
    pub first_failure: Option<String>,
    /// Whole-phase clocks, set by [`OpLog::finish`].
    pub elapsed: Elapsed,
    /// `VmHWM` in MiB when op number `rss_at_op` completed (at the end of
    /// the phase if it never did). Taken at a fixed op so that a program
    /// whose memory grows per op is not charged for being fast.
    pub peak_rss_mib: f64,
    rss_at_op: u64,
    phase: Stopwatch,
    window: Stopwatch,
    window_ops: u64,
    windows: Vec<Window>,
}

impl OpLog {
    /// Start the phase clocks; memory is read when op `rss_at_op` ends.
    pub fn start(rss_at_op: u64) -> Self {
        OpLog {
            peak_rss_mib: 0.0,
            rss_at_op,
            op_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            first_failure: None,
            elapsed: Elapsed::default(),
            phase: Stopwatch::start(),
            window: Stopwatch::start(),
            window_ops: 0,
            windows: Vec::new(),
        }
    }

    /// Seconds since the phase started.
    pub fn wall_s(&self) -> f64 {
        self.phase.wall_s()
    }

    /// Record one op: its wall milliseconds when the answer was exact,
    /// the reason when it was not.
    pub fn record(&mut self, op: Result<f64, String>) {
        self.attempted += 1;
        match op {
            Ok(ms) => {
                self.op_ms.push(ms);
                self.window_ops += 1;
            }
            Err(why) => {
                self.failed += 1;
                self.first_failure.get_or_insert(why);
            }
        }
        if self.attempted == self.rss_at_op {
            self.peak_rss_mib = procstat::peak_rss_mib();
        }
        if self.window.wall_s() >= WINDOW_S {
            let e = self.window.stop();
            self.windows.push(Window {
                first: self.op_ms.len() - self.window_ops as usize,
                ops: self.window_ops,
                wall_s: e.wall_s,
                cpu_ms: e.cpu_ms,
            });
            self.window = Stopwatch::start();
            self.window_ops = 0;
        }
    }

    /// Stop the phase clocks.
    pub fn finish(&mut self) {
        self.elapsed = self.phase.stop();
        if self.attempted < self.rss_at_op {
            self.peak_rss_mib = procstat::peak_rss_mib();
        }
    }

    pub fn ops(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn p50(&self) -> f64 {
        stats::median(&self.op_ms)
    }

    /// Nearest-rank percentile of the exact ops' wall times.
    pub fn percentile(&self, q: f64) -> f64 {
        stats::percentile(&stats::sorted(&self.op_ms), q)
    }

    /// The same percentile taken window by window: the median over the
    /// windows of each window's `q`-quantile.
    pub fn tail(&self, q: f64) -> f64 {
        self.windowed(|w| {
            let samples = &self.op_ms[w.first..w.first + w.ops as usize];
            stats::percentile(&stats::sorted(samples), q)
        })
    }

    /// Median over the windows of `f`, or `f` of the whole phase when no
    /// window closed (phases shorter than [`WINDOW_S`], as in `--quick`).
    fn windowed(&self, f: impl Fn(&Window) -> f64) -> f64 {
        let usable: Vec<f64> = self.windows.iter().filter(|w| w.ops > 0).map(&f).collect();
        if usable.is_empty() {
            f(&Window {
                first: 0,
                ops: self.ops(),
                wall_s: self.elapsed.wall_s,
                cpu_ms: self.elapsed.cpu_ms,
            })
        } else {
            stats::median(&usable)
        }
    }

    /// Exact ops per second of wall time: median over the windows.
    pub fn ops_per_s(&self) -> f64 {
        self.windowed(|w| w.ops as f64 / w.wall_s)
    }

    /// Each window's ops per second in run order: shows whether a slow run
    /// was slow throughout or hit a burst.
    pub fn window_rates(&self) -> Vec<String> {
        self.windows
            .iter()
            .map(|w| format!("{:.1}", w.ops as f64 / w.wall_s))
            .collect()
    }

    /// Process CPU milliseconds per exact op: median over the windows.
    pub fn cpu_ms_per_op(&self) -> f64 {
        self.windowed(|w| w.cpu_ms / w.ops.max(1) as f64)
    }
}

/// Message counts of a pass, already divided down to one op.
#[derive(Clone, Copy, Debug, Default)]
pub struct MsgCounts {
    /// Messages sent ÷ (nodes × ops).
    pub per_node_op: f64,
    /// Messages received by the busiest node ÷ ops.
    pub max_node_per_op: f64,
}

/// Sent total and per-node delivered counts of a simulated fleet.
pub fn link_totals(addrs: &[NodeAddr], stats: impl Fn(NodeAddr) -> LinkStats) -> (u64, Vec<u64>) {
    let mut sent = 0;
    let delivered = addrs
        .iter()
        .map(|a| {
            let s = stats(*a);
            sent += s.sent;
            s.delivered
        })
        .collect();
    (sent, delivered)
}

/// What a simulator workload counted over its fixed window of ops.
#[derive(Clone, Copy, Debug)]
pub struct SimCounts {
    pub msgs: MsgCounts,
    pub events_per_op: f64,
    /// Events still queued when the window closed.
    pub backlog: u64,
    /// Digest when the window closed.
    pub digest: u64,
}

/// The fixed window of ops at the start of a simulator's measured phase
/// over which counts are taken: it always runs, so the counts are a
/// function of the seed alone however many ops the clock allows after.
pub struct CountWindow {
    sent: u64,
    delivered: Vec<u64>,
    events: u64,
}

impl CountWindow {
    /// Open the window at the fleet's current counters.
    pub fn open(links: (u64, Vec<u64>), events: u64) -> Self {
        CountWindow {
            sent: links.0,
            delivered: links.1,
            events,
        }
    }

    /// Close it `ops` ops later.
    pub fn close(
        &self,
        links: (u64, Vec<u64>),
        events: u64,
        backlog: u64,
        digest: u64,
        ops: u64,
    ) -> SimCounts {
        let n = self.delivered.len() as u64;
        let busiest = links
            .1
            .iter()
            .zip(&self.delivered)
            .map(|(now, before)| now - before)
            .max()
            .unwrap_or(0);
        SimCounts {
            msgs: MsgCounts {
                per_node_op: (links.0 - self.sent) as f64 / (n * ops) as f64,
                max_node_per_op: busiest as f64 / ops as f64,
            },
            events_per_op: (events - self.events) as f64 / ops as f64,
            backlog,
            digest,
        }
    }
}

/// Set up `repeats` times, discarding each fleet before building the
/// next so that only one is ever resident; returns the seconds each
/// set-up took and the last fleet, which the caller measures.
pub fn timed_setups<T>(
    repeats: usize,
    mut build: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(Vec<f64>, T), String> {
    let mut secs = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        if let Some(old) = last.take() {
            discard(old);
        }
        let t0 = Instant::now();
        last = Some(build()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((secs, last.ok_or("no set-up ran")?))
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness gates that did not hold; any entry makes the run
    /// incorrect.
    pub violations: Vec<String>,
    /// Metric values by name, in insertion order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Facts that are not metrics: sizes, digests, shard and core counts.
    pub notes: Vec<(&'static str, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    pub fn note(&mut self, name: &'static str, value: impl ToString) {
        self.notes.push((name, value.to_string()));
    }

    /// Record a gate: `ok` must hold or the run is incorrect.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The end-to-end block every workload fills the same way. `tail_q`
    /// is the percentile this workload's sample count supports.
    pub fn set_end_to_end(&mut self, setup_s: &[f64], log: &OpLog, msgs: MsgCounts, tail_q: f64) {
        self.attempted = log.attempted;
        self.failed = log.failed;
        self.set("setup_s", stats::median(setup_s));
        self.set("op_wall_ms_p50", log.p50());
        self.set("op_wall_ms_tail", log.tail(tail_q));
        self.set("ops_per_s", log.ops_per_s());
        self.set("cpu_ms_per_op", log.cpu_ms_per_op());
        self.set("msgs_per_node_op", msgs.per_node_op);
        self.set("max_node_msgs_per_op", msgs.max_node_per_op);
        self.set("peak_rss_mib", log.peak_rss_mib);
        let setups: Vec<String> = setup_s.iter().map(|s| format!("{s:.3}")).collect();
        self.note("setup_s_each", setups.join(" "));
        self.note("op_samples", log.op_ms.len());
        self.note("ops_per_s_each_window", log.window_rates().join(" "));
        self.note(
            "op_wall_ms_tail_is",
            format!("p{} per 2 s window, median over windows", tail_q * 100.0),
        );
        self.fail_from(log, "timed pass");
    }

    /// Turn the log's failed ops into a violation.
    pub fn fail_from(&mut self, log: &OpLog, pass: &str) {
        if let Some(why) = &log.first_failure {
            self.violations
                .push(format!("{pass}: {} failed ops, first: {why}", log.failed));
        }
    }

    /// The generator block of the per-layer metrics.
    pub fn set_generator_layer(&mut self, log: &OpLog) {
        self.attempted = log.attempted;
        self.failed = log.failed;
        self.set("gen.nproc", procstat::nproc() as f64);
        self.set("gen.op_samples", log.op_ms.len() as f64);
        self.set("gen.op_wall_ms_p99", log.percentile(0.99));
        let supported = stats::supported_tail(log.op_ms.len()).map_or("none", |t| t.0);
        self.note("highest_supported_percentile", supported);
        self.fail_from(log, "traced pass");
    }

    /// The Actor-boundary block of the per-layer metrics: what the
    /// protocol layers did per op and what one call into them cost.
    pub fn set_actor_layer(&mut self, t: &NodeTrace, ops: f64) {
        const INPUTS_PER_OP: [&str; 3] = [
            "core.engine.inputs_per_op.timer",
            "core.engine.inputs_per_op.maint",
            "core.engine.inputs_per_op.app",
        ];
        const ON_INPUT_NS: [&str; 3] = [
            "core.engine.on_input_ns.timer",
            "core.engine.on_input_ns.maint",
            "core.engine.on_input_ns.app",
        ];
        for class in 0..CLASSES.len() {
            self.set(
                INPUTS_PER_OP[class],
                ratio(t.tally[class].inputs as f64, ops),
            );
            self.set(ON_INPUT_NS[class], t.mean_ns(class));
        }
        self.set("core.engine.outputs_per_input", t.outputs_per_input());
        self.set("chord.codec.bytes_per_msg", t.bytes_per_msg());
        self.note("spans_kept", t.spans.len());
    }

    /// The gates every simulator pass shares: the engine clamped no
    /// event and dropped no message.
    pub fn gate_sim(&mut self, pass: &str, clamped: u64, dropped: u64) {
        self.gate(clamped == 0, || format!("{pass}: {clamped} clamped events"));
        self.gate(dropped == 0, || {
            format!("{pass}: {dropped} dropped messages")
        });
    }

    /// Two passes of one seed must have counted the same.
    pub fn gate_same_digest(&mut self, what: &str, a: (&str, u64), b: (&str, u64)) {
        self.gate(a.1 == b.1, || {
            format!("{what}: digest {:016x} {}, {:016x} {}", a.1, a.0, b.1, b.0)
        });
    }

    /// The simulator block of the per-layer metrics.
    pub fn set_sim_layer(
        &mut self,
        counts: &SimCounts,
        clamped: u64,
        dropped: u64,
        host_ns_per_event: f64,
        bytes_per_node: f64,
    ) {
        self.set("sim.events_per_op", counts.events_per_op);
        self.set("sim.backlog_events", counts.backlog as f64);
        self.set("sim.clamped_events", clamped as f64);
        self.set("sim.dropped_msgs", dropped as f64);
        self.set("sim.host_ns_per_event", host_ns_per_event);
        self.set("sim.bytes_per_node", bytes_per_node);
        self.note("digest", format!("{:016x}", counts.digest));
    }

    /// What the trace cost and what it could not place: the traced pass
    /// against the plain pass of the same seed. `parts_ms` is the sum of
    /// the traced pass's layer costs per op.
    pub fn set_trace_layer(
        &mut self,
        plain: &OpLog,
        traced: &OpLog,
        unattributed: f64,
        parts_ms: f64,
    ) {
        self.set("trace.overhead_share", traced.p50() / plain.p50() - 1.0);
        self.set("trace.unattributed_share", unattributed);
        self.set(
            "trace.budget_over_cpu",
            ratio(parts_ms, plain.cpu_ms_per_op()),
        );
    }

    /// Write the traced pass's spans where `--trace-out` asked for them.
    pub fn write_trace(args: &Args, trace: &mut NodeTrace) -> Result<(), String> {
        match &args.trace_out {
            Some(path) => trace
                .write_spans(path, &args.workload, args.seed)
                .map_err(|e| format!("writing {path}: {e}")),
            None => Ok(()),
        }
    }

    /// The result object: `correct`, `attempted`, `failed` and exactly
    /// the metrics `BENCHMARK.json` lists for this kind of run. A
    /// per-layer metric the workload did not measure reads 0 (its layer
    /// does not run there); a missing end-to-end metric is a bug.
    pub fn result_json(&self, trace: bool) -> Result<Json, String> {
        let mut metrics = Vec::new();
        if trace {
            for m in &spec::PER_LAYER {
                metrics.push((m.name, self.get(m.name).unwrap_or(0.0), m.unit));
            }
        } else {
            for m in &spec::END_TO_END {
                let v = self
                    .get(m.name)
                    .ok_or_else(|| format!("end-to-end metric {} was not measured", m.name))?;
                metrics.push((m.name, v, m.unit));
            }
        }
        if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
            return Err(format!("metric {name} is not a finite number"));
        }
        Ok(Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(metrics.into_iter().map(|(name, value, unit)| {
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                })),
            ),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_window_divides_down_to_one_op() {
        let w = CountWindow::open((100, vec![10, 20, 30]), 1000);
        let c = w.close((160, vec![16, 50, 33]), 1600, 7, 0xabc, 2);
        assert_eq!(c.msgs.per_node_op, 10.0); // 60 sent / (3 nodes x 2 ops)
        assert_eq!(c.msgs.max_node_per_op, 15.0); // busiest got 30 in 2 ops
        assert_eq!(c.events_per_op, 300.0);
        assert_eq!((c.backlog, c.digest), (7, 0xabc));
    }

    #[test]
    fn timed_setups_keep_one_fleet_resident() {
        let live = std::cell::Cell::new(0);
        let peak = std::cell::Cell::new(0);
        let (secs, last) = timed_setups(
            3,
            || {
                live.set(live.get() + 1);
                peak.set(peak.get().max(live.get()));
                Ok(live.get())
            },
            |_| live.set(live.get() - 1),
        )
        .expect("builds");
        assert_eq!(secs.len(), 3);
        assert_eq!((last, peak.get()), (1, 1));
        let failed = timed_setups(2, || Err::<(), _>("boom".to_string()), |_| ());
        assert_eq!(failed.err().as_deref(), Some("boom"));
    }

    #[test]
    fn keys_get_distinct_roots() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let space = dat_chord::IdSpace::new(40);
        // Two nodes: most names collide, so the scan has to skip some.
        let ring = StaticRing::build(space, 2, dat_chord::IdPolicy::Probed, &mut rng);
        let picked = distinct_root_keys(&ring, 2);
        assert_eq!(picked.len(), 2);
        assert_ne!(picked[0].2, picked[1].2);
        for (name, key, root) in &picked {
            assert_eq!(*key, dat_chord::hash_to_id(space, name.as_bytes()));
            assert_eq!(*root, ring.successor(*key));
        }
        // Never asks for more roots than there are nodes.
        assert_eq!(distinct_root_keys(&ring, 5).len(), 2);
    }

    #[test]
    fn schedule_is_seeded_small_and_varied() {
        assert_eq!(scheduled_value(1, 2, 3, 4), scheduled_value(1, 2, 3, 4));
        let vals: Vec<u64> = (0..64).map(|i| scheduled_value(7, i, 0, 1)).collect();
        assert!(vals.iter().all(|v| *v < 1000));
        let distinct: std::collections::HashSet<_> = vals.iter().collect();
        assert!(distinct.len() > 32, "values vary across nodes");
        assert_ne!(scheduled_value(7, 5, 0, 1), scheduled_value(8, 5, 0, 1));
        assert_ne!(scheduled_value(7, 5, 0, 1), scheduled_value(7, 5, 0, 2));
        assert_ne!(scheduled_value(7, 5, 0, 1), scheduled_value(7, 5, 1, 1));
    }

    fn log_of(samples: &[f64], failed: u64, wall_s: f64, cpu_ms: f64) -> OpLog {
        let mut log = OpLog::start(2);
        for ms in samples {
            log.record(Ok(*ms));
        }
        for i in 0..failed {
            log.record(Err(format!("op {i} inexact")));
        }
        log.elapsed = Elapsed {
            wall_s,
            cpu_ms,
            gen_cpu_ms: 0.0,
        };
        log
    }

    #[test]
    fn op_log_statistics() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let log = log_of(&samples, 1, 10.0, 5000.0);
        assert_eq!((log.attempted, log.failed, log.ops()), (101, 1, 100));
        assert_eq!(log.first_failure.as_deref(), Some("op 0 inexact"));
        assert!(log.peak_rss_mib > 0.0, "memory read at op 2");
        assert_eq!(log.p50(), 50.5);
        assert_eq!(log.percentile(0.9), 90.0);
        // No window closed in this instant phase: whole-phase quotients.
        assert_eq!(log.ops_per_s(), 10.0);
        assert_eq!(log.cpu_ms_per_op(), 50.0);
    }

    #[test]
    fn windows_report_medians_not_means() {
        let mut log = log_of(&[], 0, 9.0, 900.0);
        let window = |first, ops, cpu_ms| Window {
            first,
            ops,
            wall_s: 2.0,
            cpu_ms,
        };
        log.windows = vec![
            window(0, 20, 200.0),
            window(20, 4, 400.0), // a disturbed window
            window(24, 22, 198.0),
            window(46, 0, 50.0), // only failures: skipped
        ];
        assert_eq!(log.ops_per_s(), 10.0);
        assert_eq!(log.cpu_ms_per_op(), 10.0);
        // Per-window p95s are 100, 500 and 102: the disturbed window's
        // tail does not reach the report, as it would over the phase.
        log.op_ms = [vec![100.0; 20], vec![500.0; 4], vec![102.0; 22]].concat();
        assert_eq!(log.tail(0.95), 102.0);
        assert_eq!(log.percentile(0.95), 500.0);
    }

    #[test]
    fn result_lists_exactly_the_spec_metrics() {
        let mut r = Report::default();
        let log = log_of(&[1.0, 2.0, 3.0], 0, 1.0, 6.0);
        r.set_end_to_end(&[0.5, 0.7, 0.6], &log, MsgCounts::default(), 0.5);
        let j = r.result_json(false).expect("complete");
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        let m = j.get("metrics").and_then(Json::as_obj).expect("metrics");
        let names: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        assert_eq!(
            j.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|s| s.get("value")),
            Some(&Json::Num(0.6))
        );

        // Traced runs list every per-layer metric, unmeasured ones as 0.
        let t = r.result_json(true).expect("per-layer");
        let m = t.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(m.len(), spec::PER_LAYER.len());

        // A violated gate or a failed op makes the run incorrect.
        r.gate(false, || "digest mismatch".into());
        assert!(!r.correct());
        let mut empty = Report::default();
        assert!(empty.result_json(false).is_err(), "unmeasured metrics");
        empty.failed = 1;
        empty.attempted = 2;
        assert!(!empty.correct());
    }
}
