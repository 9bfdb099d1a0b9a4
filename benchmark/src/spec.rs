//! The benchmark's contract in one place: workload names, every metric's
//! name, unit, direction and bound, and for each per-layer metric the
//! end-to-end metric it is expected to move and on which workloads.
//! `BENCHMARK.json` is rendered from these tables (`dat-benchmark spec`)
//! and a unit test holds the committed file to them.

use crate::json::Json;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

pub const SIM_EPOCH: &str = "sim_epoch";
pub const SIM_MAINT: &str = "sim_maint";
pub const UDP_TOKIO: &str = "udp_query_tokio";
pub const UDP_THREADS: &str = "udp_query_threads";

/// `(name, why)` — the why is the one line `BENCHMARK.json` carries.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        SIM_EPOCH,
        "continuous push aggregation, 8192 nodes x 4 keys on single-thread SimNet: core.proto, core.codec, sim.net, sim.queue; no frames, no sockets",
    ),
    (
        SIM_MAINT,
        "Chord maintenance only, 4096 nodes on ShardedNet at min(nproc-1,4) shards: sim.shard windows, timer wheel, arena, chord.node timers; no DAT, no codec",
    ),
    (
        UDP_TOKIO,
        "closed-loop on-demand queries over 256 loopback UDP sockets on ClusterHost: chord.codec + CRC, tokio shim, syscalls, query fan-out/gather",
    ),
    (
        UDP_THREADS,
        "the same generator and checks on RpcCluster (thread per node): the number that lets ROADMAP item 3 delete one host",
    ),
];

const SIMS: &[&str] = &[SIM_EPOCH, SIM_MAINT];
const UDPS: &[&str] = &[UDP_TOKIO, UDP_THREADS];
const DAT: &[&str] = &[SIM_EPOCH, UDP_TOKIO, UDP_THREADS];
const ALL: &[&str] = &[SIM_EPOCH, SIM_MAINT, UDP_TOKIO, UDP_THREADS];

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("op_wall_ms_p50", "ms", false, 0.25),
    e2e("op_wall_ms_tail", "ms", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("cpu_ms_per_op", "ms", false, 0.25),
    e2e("msgs_per_node_op", "count", false, 0.01),
    e2e("max_node_msgs_per_op", "count", false, 0.25),
    e2e("peak_rss_mib", "MiB", false, 0.10),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// What a per-layer metric is expected to move when its layer changes.
/// `CORRECT` stands for the run's `correct`/`failed` verdict: the gate
/// counters have no timing to move, they fail the run when non-zero.
pub const CORRECT: &str = "correct";

/// A metric of one layer. It has no bound; it explains the end-to-end
/// metric named in `moves`.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// The end-to-end metric (or [`CORRECT`]) it should move …
    pub moves: &'static str,
    /// … on these workloads. Elsewhere the prediction is no change, and
    /// the metric reads 0 where its layer does not run at all.
    pub on: &'static [&'static str],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        moves,
        on,
    }
}

const fn layer_up(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
        moves,
        on,
    }
}

const WALL: &str = "op_wall_ms_p50";
const CPU: &str = "cpu_ms_per_op";
const RATE: &str = "ops_per_s";
const MSGS: &str = "msgs_per_node_op";
const RSS: &str = "peak_rss_mib";

pub const PER_LAYER: [PerLayer; 50] = [
    // Generator: what the run was, so no figure travels without it.
    layer_up("gen.nproc", "count", RATE, ALL),
    layer_up("gen.op_samples", "count", "op_wall_ms_tail", ALL),
    layer("gen.op_wall_ms_p99", "ms", "op_wall_ms_tail", UDPS),
    // sim.net / sim.queue / sim.shard — traced pass.
    layer("sim.events_per_op", "count", WALL, SIMS),
    layer("sim.backlog_events", "count", RSS, SIMS),
    layer("sim.clamped_events", "count", CORRECT, SIMS),
    layer("sim.dropped_msgs", "count", CORRECT, SIMS),
    layer("sim.host_ns_per_event", "ns", WALL, SIMS),
    layer_up("sim.shard.shards", "count", WALL, &[SIM_MAINT]),
    layer("sim.shard.cpu_over_wall", "ratio", CPU, &[SIM_MAINT]),
    layer_up("sim.shard.speedup_vs_1shard", "ratio", WALL, &[SIM_MAINT]),
    layer("sim.bytes_per_node", "bytes", RSS, SIMS),
    // chord.node + core.engine + core.proto behind Actor::on_input.
    layer("core.engine.inputs_per_op.timer", "count", CPU, ALL),
    layer(
        "core.engine.inputs_per_op.maint",
        "count",
        CPU,
        &[SIM_MAINT],
    ),
    layer("core.engine.inputs_per_op.app", "count", CPU, DAT),
    layer("core.engine.outputs_per_input", "count", MSGS, ALL),
    layer("core.engine.on_input_ns.timer", "ns", WALL, SIMS),
    layer("core.engine.on_input_ns.maint", "ns", WALL, &[SIM_MAINT]),
    layer("core.engine.on_input_ns.app", "ns", CPU, DAT),
    layer("core.engine.shed_total", "count", CORRECT, DAT),
    layer("core.proto.set_local_ns", "ns", WALL, &[SIM_EPOCH]),
    layer_up("core.proto.reports_per_op", "count", CORRECT, &[SIM_EPOCH]),
    layer_up(
        "core.proto.completeness_min",
        "ratio",
        CORRECT,
        &[SIM_EPOCH],
    ),
    layer("chord.codec.bytes_per_msg", "bytes", CPU, UDPS),
    // cluster.host / rpc.cluster.
    layer("transport.datagrams_per_op", "count", MSGS, UDPS),
    layer("transport.shed_total", "count", CORRECT, UDPS),
    layer("transport.decode_errors", "count", CORRECT, UDPS),
    layer("transport.socket_errors", "count", CORRECT, UDPS),
    layer("transport.cpu_us_per_datagram", "us", CPU, UDPS),
    layer("transport.cpu_util", "ratio", RATE, UDPS),
    layer("transport.call_rtt_us", "us", WALL, UDPS),
    // The trace's own cost and what it could not place.
    layer("trace.overhead_share", "ratio", WALL, ALL),
    layer("trace.unattributed_share", "ratio", CPU, ALL),
    layer("trace.budget_over_cpu", "ratio", CPU, ALL),
    // `layers` pass: one function in a loop, nothing else running.
    layer("chord.wire.crc32c_ns_per_kib", "ns", CPU, UDPS),
    layer("chord.codec.encode_ns", "ns", CPU, UDPS),
    layer("chord.codec.decode_ns", "ns", CPU, UDPS),
    layer("core.codec.encode_ns", "ns", CPU, DAT),
    layer("core.codec.decode_ns", "ns", CPU, DAT),
    layer("chord.routing.next_hop_ns", "ns", WALL, SIMS),
    layer("chord.routing.balanced_parent_ns", "ns", WALL, &[SIM_EPOCH]),
    layer("chord.routing.finger_limit_ns", "ns", WALL, &[SIM_EPOCH]),
    layer("core.aggregate.merge_ns", "ns", CPU, DAT),
    layer("core.aggregate.merge_hist64_ns", "ns", CPU, DAT),
    layer("core.engine.demux_ns", "ns", CPU, DAT),
    layer("sim.queue.push_pop_ns", "ns", WALL, SIMS),
    layer("chord.health.observe_ns", "ns", WALL, &[SIM_MAINT]),
    layer("obs.registry.inc_ns", "ns", CPU, ALL),
    layer("obs.hist.observe_ns", "ns", CPU, ALL),
    layer("obs.registry.render_us", "us", CPU, ALL),
];

fn better(higher: bool) -> Json {
    Json::str(if higher { "higher" } else { "lower" })
}

/// The document committed as `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.higher_is_better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.higher_is_better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Pretty rendering of [`benchmark_json`]: one metric per line.
pub fn benchmark_json_text() -> String {
    let doc = benchmark_json();
    let mut out = String::from("{\n");
    let pairs = doc.as_obj().unwrap_or(&[]);
    for (i, (k, v)) in pairs.iter().enumerate() {
        let comma = if i + 1 < pairs.len() { "," } else { "" };
        match v {
            Json::Arr(items) if items.iter().any(|x| matches!(x, Json::Obj(_))) => {
                out.push_str(&format!("  \"{k}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let c = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {}{c}\n", item.render()));
                }
                out.push_str(&format!("  ]{comma}\n"));
            }
            other => out.push_str(&format!("  \"{k}\": {}{comma}\n", other.render())),
        }
    }
    out.push_str("}\n");
    out
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
        END_TO_END.iter().find(|m| m.name == name)
    }

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = HashSet::new();
        for (w, why) in WORKLOADS {
            assert!(name_ok(w), "workload name {w}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {w}");
            assert!(seen.insert(w), "duplicate name {w}");
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound), "bound of {}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn setup_s_is_an_end_to_end_metric_with_the_widest_bound() {
        let setup = end_to_end("setup_s").expect("setup_s");
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_layer_metric_names_an_end_to_end_metric_and_workloads() {
        for m in &PER_LAYER {
            assert!(
                m.moves == CORRECT || end_to_end(m.moves).is_some(),
                "{} moves unknown metric {}",
                m.name,
                m.moves
            );
            assert!(!m.on.is_empty(), "{} names no workload", m.name);
            for w in m.on {
                assert!(is_workload(w), "{} names unknown workload {w}", m.name);
            }
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc,
            benchmark_json(),
            "regenerate with `dat-benchmark spec`"
        );
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        // The command names nothing outside `paths`.
        for part in doc.get("command").and_then(Json::as_arr).expect("command") {
            let s = part.as_str().expect("string");
            assert!(!s.starts_with('/') && !s.contains(".."), "{s}");
            assert!(!s.contains('/') || s.starts_with("benchmark/"), "{s}");
        }
    }
}
