//! Fleet-wide observability snapshots over a simulated overlay.
//!
//! Each [`StackNode`] keeps its own [`dat_obs::Registry`] (Chord layer +
//! every stacked protocol, see `StackNode::obs_registry`) and per-layer
//! event tracers. These helpers pull one snapshot per node and merge them
//! into a single fleet view:
//!
//! * [`fleet_registry`] — element-wise merged counters/gauges/histograms,
//!   so experiments read cross-node percentiles (e.g. the Fig. 8a per-node
//!   message distribution) straight off one `LogHist`;
//! * [`fleet_prometheus`] — the merged registry rendered as Prometheus
//!   text (the same format a node serves over `ChordMsg::StatsRequest`);
//! * [`fleet_events`] — every node's buffered trace events, each paired
//!   with the node's Chord id, ready for `EpochTrace::assemble` or
//!   `digest_events`.

use dat_core::StackNode;
use dat_obs::{Event, Key, Registry};

use crate::net::SimNet;

/// Merge every node's registry into one fleet-wide registry.
///
/// Counters and histogram buckets add, gauges take the max — the merge is
/// associative and commutative, so the result is independent of node
/// order. The simulator's own engine counters ride along: the clamp
/// count ([`SimNet::clamped_events`]) is exported zero-initialized
/// as `sim_clamped_events_total`, so a run whose horizon never clamped
/// still exposes the series; the scheduler backlog
/// ([`SimNet::pending_events`]) and process peak RSS (`VmHWM`) export
/// as the `sim_backlog_events` and `sim_peak_rss_mib` gauges — engine
/// health live on the metrics plane (peak RSS reads 0 where the platform
/// does not expose `VmHWM`).
pub fn fleet_registry(net: &SimNet<StackNode>) -> Registry {
    let mut fleet = Registry::default();
    for (_, node) in net.iter_nodes() {
        fleet.merge(&node.obs_registry());
    }
    fleet.counter_add(Key::new("sim_clamped_events_total"), net.clamped_events());
    fleet.gauge_set(Key::new("sim_backlog_events"), net.pending_events() as f64);
    fleet.gauge_set(
        Key::new("sim_peak_rss_mib"),
        peak_rss_mib().unwrap_or(0) as f64,
    );
    fleet
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`), if the platform exposes it.
fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb / 1024);
        }
    }
    None
}

/// Render the merged fleet registry as Prometheus text exposition.
pub fn fleet_prometheus(net: &SimNet<StackNode>) -> String {
    fleet_registry(net).render_prometheus()
}

/// Collect every node's buffered trace events, tagged with the node's
/// Chord id (the identity used in causal epoch traces).
pub fn fleet_events(net: &SimNet<StackNode>) -> Vec<(u64, Event)> {
    let mut out = Vec::new();
    for (_, node) in net.iter_nodes() {
        let id = node.me().id.0;
        for ev in node.trace_events() {
            out.push((id, ev));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dat_chord::{IdPolicy, IdSpace, StaticRing};
    use dat_core::{AggregationMode, DatConfig};
    use dat_obs::validate_prometheus;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn three_second_fleet(shards: usize) -> SimNet<StackNode> {
        let space = IdSpace::new(24);
        let mut rng = SmallRng::seed_from_u64(3);
        let ring = StaticRing::build(space, 16, IdPolicy::Probed, &mut rng);
        let ccfg = dat_chord::ChordConfig {
            space,
            ..Default::default()
        };
        let dcfg = DatConfig {
            epoch_ms: 500,
            d0_hint: Some(1 << 20), // 2^24-space / 16 nodes
            ..Default::default()
        };
        let mut net = crate::harness::prestabilized_dat(&ring, ccfg, dcfg, 3);
        net.set_shards(shards);
        for addr in net.addrs() {
            net.with_node(addr, |n| {
                let k = n.register("cpu", AggregationMode::Continuous);
                n.set_local(k, 1.0);
                ((), vec![])
            });
        }
        net.run_for(3_000);
        net
    }

    #[test]
    fn fleet_snapshot_merges_and_renders() {
        let net = three_second_fleet(1);
        let reg = fleet_registry(&net);
        assert!(reg.counter_sum("sent_total") > 0);
        let text = fleet_prometheus(&net);
        let samples = validate_prometheus(&text).expect("fleet dump parses");
        assert!(samples > 0);
        assert!(!fleet_events(&net).is_empty());
        // The engine's clamp counter is part of the fleet view even when
        // nothing clamped — zero-initialized series, never absent.
        assert_eq!(reg.counter_sum("sim_clamped_events_total"), 0);
        assert!(text.contains("sim_clamped_events_total 0"));
        // Engine-health gauges: backlog mirrors the scheduler exactly;
        // peak RSS is live (non-zero) on any platform with /proc.
        assert_eq!(
            reg.gauge(&Key::new("sim_backlog_events")),
            net.pending_events() as f64
        );
        assert!(text.contains("sim_backlog_events"));
        assert!(text.contains("sim_peak_rss_mib"));
        #[cfg(target_os = "linux")]
        assert!(reg.gauge(&Key::new("sim_peak_rss_mib")) > 0.0);
        // Observability follows the engine: four shards expose the same
        // lines and the same trace as one (peak RSS is the host's).
        let sharded = three_second_fleet(4);
        let lines = |net| {
            let text = fleet_prometheus(net);
            let keep = text.lines().filter(|l| !l.contains("sim_peak_rss_mib"));
            keep.map(String::from).collect::<Vec<_>>()
        };
        assert_eq!(lines(&sharded), lines(&net));
        assert_eq!(fleet_events(&sharded), fleet_events(&net));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_readable_on_linux() {
        assert!(peak_rss_mib().is_some());
    }

    #[test]
    fn clamped_events_flow_into_the_fleet_registry() {
        let space = IdSpace::new(24);
        let mut rng = SmallRng::seed_from_u64(9);
        let ring = StaticRing::build(space, 4, IdPolicy::Probed, &mut rng);
        let ccfg = dat_chord::ChordConfig {
            space,
            ..Default::default()
        };
        let mut net = crate::harness::prestabilized_dat(&ring, ccfg, DatConfig::default(), 2);
        net.run_for(10_000);
        // A fault whose event time is already in the past counts as
        // clamped — the fleet registry must report it.
        let plan = crate::fault::FaultPlan::new().crash_at(5_000, net.addrs()[0]);
        net.set_fault_plan(plan);
        assert!(net.clamped_events() > 0);
        let reg = fleet_registry(&net);
        assert_eq!(
            reg.counter_sum("sim_clamped_events_total"),
            net.clamped_events()
        );
        validate_prometheus(&reg.render_prometheus()).expect("parses");
    }
}
