//! Churn overhead: implicit DAT vs explicit-membership trees.
//!
//! The paper's abstract claims the DAT scheme "has very low overhead
//! during node arrival and departure" *because* it maintains no explicit
//! parent-child membership — the Chord stabilization both schemes already
//! pay for is all the repair the implicit tree ever needs (§2.3). This
//! experiment runs the same churn schedule against (a) a DAT overlay and
//! (b) the explicit-membership tree of [`dat_core::explicit`], and counts
//! *tree-maintenance* messages (join/adopt/heartbeat/leave) separately
//! from ring maintenance and aggregation payload.

use dat_chord::{ChordConfig, IdPolicy, IdSpace, Metrics, NodeAddr, RoutingScheme, StaticRing};
use dat_core::{AggregationMode, DatConfig, DatProtocol, ExplicitProtocol, StackNode};
use dat_sim::harness::{addr_book, prestabilized_dat, prestabilized_explicit};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::table::{f, Table};

/// Per-scheme churn accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChurnCosts {
    /// Tree *membership repair* messages sent (joins/adoptions/leave
    /// notices/re-join storms). Zero by construction for implicit DATs —
    /// the paper's central claim.
    pub tree_maintenance: u64,
    /// Tree liveness probing: for the DAT, what its parent probes cost
    /// beyond the updates that carry them (the answering pongs, retry
    /// pings and their pongs); for the explicit tree, heartbeats + acks.
    pub liveness: u64,
    /// Chord ring maintenance messages sent (both schemes pay these).
    pub ring_maintenance: u64,
    /// Aggregation payload messages sent.
    pub payload: u64,
    /// DAT frames in none of the rows above (prunes and root-state
    /// replicas); not printed, but booked so the rows account for
    /// `chord_sent`. Always 0 for the explicit tree.
    pub other: u64,
    /// Every message the fleet's Chord layers sent: each lands in exactly
    /// one of the fields above.
    pub chord_sent: u64,
}

/// Experiment output.
pub struct Churn {
    /// Network size at start.
    pub n: usize,
    /// Number of leave events injected.
    pub leaves: u64,
    /// Number of join events injected.
    pub joins: u64,
    /// Virtual duration of the churn phase, ms.
    pub duration_ms: u64,
    /// Costs of the implicit (DAT) scheme.
    pub dat: ChurnCosts,
    /// Costs of the explicit-membership scheme.
    pub explicit: ChurnCosts,
    /// Whether the DAT root still produced reports after churn.
    pub dat_reports_after_churn: bool,
}

const BITS: u8 = 32;
const RING_KINDS: [&str; 11] = [
    "find_successor",
    "found_successor",
    "get_neighbors",
    "neighbors",
    "notify",
    "ping",
    "pong",
    "probe_join",
    "probe_join_reply",
    "leave_to_pred",
    "leave_to_succ",
];
const EXP_MEMBERSHIP_KINDS: [&str; 3] = ["exp_join_tree", "exp_adopt", "exp_leave_tree"];
const EXP_LIVENESS_KINDS: [&str; 2] = ["exp_heartbeat", "exp_heartbeat_ack"];

/// The ring-kind messages a node's Chord layer sent for the DAT's parent
/// probes. A probe rides an update, so it costs only the pong that
/// answers it: every `Ping` a node received drew exactly one pong, and
/// the pongs beyond those answered probes. A probe whose pong is late
/// adds its retry pings, and the pongs those draw back.
fn probe_liveness(chord: &Metrics) -> u64 {
    chord.sent_of("pong") - chord.received_of("ping")
        + chord.get("probe_retries_total")
        + chord.get("probe_retry_pongs_total")
}

/// Run the churn comparison: `n` initial nodes, one churn event (alternate
/// graceful leave / fresh join) every `event_gap_ms` for `duration_ms`.
pub fn run(n: usize, event_gap_ms: u64, duration_ms: u64, seed: u64) -> Churn {
    let space = IdSpace::new(BITS);
    let mut rng = SmallRng::seed_from_u64(seed);
    let ring = StaticRing::build(space, n, IdPolicy::Probed, &mut rng);
    let ccfg = ChordConfig {
        space,
        stabilize_ms: 2_000,
        fix_fingers_ms: 1_000,
        check_pred_ms: 2_000,
        req_timeout_ms: 3_000,
        ..ChordConfig::default()
    };
    let key = dat_chord::hash_to_id(space, b"cpu-usage");
    let book = addr_book(&ring);
    let root_id = ring.successor(key);
    let root_addr = book[&root_id];

    // ---- DAT side -------------------------------------------------------
    let dcfg = DatConfig {
        scheme: RoutingScheme::Balanced,
        epoch_ms: 1_000,
        ..DatConfig::default()
    };
    let mut dat_net = prestabilized_dat(&ring, ccfg, dcfg, seed);
    for addr in dat_net.addrs() {
        let node = dat_net.node_mut(addr).unwrap();
        let k = node.register("cpu-usage", AggregationMode::Continuous);
        node.set_local(k, 25.0);
    }
    dat_net.run_for(3_000); // warm-up
    for addr in dat_net.addrs() {
        dat_net.node_mut(addr).unwrap().reset_metrics();
    }

    // ---- explicit side ---------------------------------------------------
    let mut exp_net = prestabilized_explicit(&ring, ccfg, key, seed);
    for addr in exp_net.addrs() {
        exp_net.node_mut(addr).unwrap().exp_set_local(25.0);
    }
    exp_net.run_for(3_000); // warm-up: tree forms
    for addr in exp_net.addrs() {
        exp_net.node_mut(addr).unwrap().reset_metrics();
    }

    // ---- identical churn schedule ----------------------------------------
    let mut next_addr = n as u64;
    let mut leaves = 0u64;
    let mut joins = 0u64;
    let mut rng_events = SmallRng::seed_from_u64(seed ^ 0xC0FFEE);
    let mut elapsed = 0u64;
    let mut leave_next = true;
    while elapsed < duration_ms {
        dat_net.run_for(event_gap_ms);
        exp_net.run_for(event_gap_ms);
        elapsed += event_gap_ms;
        if leave_next {
            // Pick a live non-root node present in both networks.
            let candidates: Vec<NodeAddr> = dat_net
                .addrs()
                .into_iter()
                .filter(|&a| a != root_addr && exp_net.node(a).is_some())
                .collect();
            if candidates.len() > 4 {
                let victim = candidates[rng_events.random_range(0..candidates.len())];
                dat_net.with_node(victim, |node| ((), node.leave()));
                exp_net.with_node(victim, |node| ((), node.leave()));
                leaves += 1;
            }
        } else {
            // A fresh node joins both networks through the root.
            let id = space.random(&mut rng_events);
            let addr = NodeAddr(next_addr);
            next_addr += 1;
            let bootstrap = dat_net.node(root_addr).unwrap().me();
            let mut dn = StackNode::new(ccfg, id, addr).with_app(DatProtocol::new(dcfg));
            let k = dn.register("cpu-usage", AggregationMode::Continuous);
            dn.set_local(k, 25.0);
            let outs = dn.start_join(bootstrap);
            dat_net.add_node(dn);
            dat_net.apply(addr, outs);

            let mut en = StackNode::new(ccfg, id, addr).with_app(ExplicitProtocol::new(key));
            en.exp_set_local(25.0);
            let boot2 = exp_net.node(root_addr).unwrap().me();
            let outs = en.start_join(boot2);
            exp_net.add_node(en);
            exp_net.apply(addr, outs);
            joins += 1;
        }
        leave_next = !leave_next;
    }
    // Settle.
    dat_net.run_for(5_000);
    exp_net.run_for(5_000);

    // ---- accounting -------------------------------------------------------
    let mut dat = ChurnCosts::default();
    for addr in dat_net.addrs() {
        let node = dat_net.node(addr).unwrap();
        let chord = node.chord().metrics();
        let probes = probe_liveness(chord);
        dat.liveness += probes;
        dat.ring_maintenance += chord.sent_of_kinds(&RING_KINDS) - probes;
        dat.payload += node.dat_metrics().sent_of("dat_update");
        dat.other += node
            .dat_metrics()
            .sent_of_kinds(&["dat_prune", "dat_root_state"]);
        dat.chord_sent += chord.sent_total();
        // tree_maintenance stays 0: the DAT never repairs membership.
    }
    let mut explicit = ChurnCosts::default();
    // Every explicit frame leaves as one Chord `app` frame, except a
    // routed `JoinTree`, whose first hop is a `route` frame: the `route`
    // frames beyond those first hops are its forwarding hops, which the
    // protocol's own tallies never see.
    let (mut exp_sent, mut app_sent, mut route_sent) = (0u64, 0u64, 0u64);
    for addr in exp_net.addrs() {
        let node = exp_net.node(addr).unwrap();
        let chord = node.chord().metrics();
        let exp = node.explicit().metrics();
        explicit.ring_maintenance += chord.sent_of_kinds(&RING_KINDS);
        explicit.tree_maintenance += exp.sent_of_kinds(&EXP_MEMBERSHIP_KINDS);
        explicit.liveness += exp.sent_of_kinds(&EXP_LIVENESS_KINDS);
        explicit.payload += exp.sent_of("exp_update");
        explicit.chord_sent += chord.sent_total();
        exp_sent += exp.sent_total();
        app_sent += chord.sent_of("app");
        route_sent += chord.sent_of("route");
    }
    explicit.tree_maintenance += route_sent - (exp_sent - app_sent);
    // Did aggregation survive on the DAT side?
    let dat_reports_after_churn = dat_net
        .node_mut(root_addr)
        .map(|root| !root.take_events().is_empty())
        .unwrap_or(false);

    Churn {
        n,
        leaves,
        joins,
        duration_ms,
        dat,
        explicit,
        dat_reports_after_churn,
    }
}

impl Churn {
    /// The cost table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            &format!(
                "Churn overhead — n = {}, {} leaves + {} joins over {}s",
                self.n,
                self.leaves,
                self.joins,
                self.duration_ms / 1000
            ),
            &["cost (messages sent)", "implicit DAT", "explicit tree"],
        );
        t.row(vec![
            "tree membership repair".into(),
            self.dat.tree_maintenance.to_string(),
            self.explicit.tree_maintenance.to_string(),
        ]);
        t.row(vec![
            "tree liveness probing".into(),
            self.dat.liveness.to_string(),
            self.explicit.liveness.to_string(),
        ]);
        t.row(vec![
            "ring maintenance (shared substrate)".into(),
            self.dat.ring_maintenance.to_string(),
            self.explicit.ring_maintenance.to_string(),
        ]);
        t.row(vec![
            "aggregation payload".into(),
            self.dat.payload.to_string(),
            self.explicit.payload.to_string(),
        ]);
        let per_event = |c: &ChurnCosts| {
            let events = (self.leaves + self.joins).max(1);
            c.tree_maintenance as f64 / events as f64
        };
        t.row(vec![
            "membership msgs per churn event".into(),
            f(per_event(&self.dat)),
            f(per_event(&self.explicit)),
        ]);
        t
    }

    /// Qualitative checks.
    pub fn check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        if self.dat.tree_maintenance != 0 {
            bad.push(format!(
                "implicit DAT sent {} membership messages (must be 0)",
                self.dat.tree_maintenance
            ));
        }
        if self.explicit.tree_maintenance == 0 {
            bad.push("explicit tree sent no membership traffic?!".into());
        }
        if !self.dat_reports_after_churn {
            bad.push("DAT root stopped reporting after churn".into());
        }
        if self.leaves == 0 || self.joins == 0 {
            bad.push("churn schedule produced no events".into());
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implicit_beats_explicit_under_churn() {
        let c = run(48, 1_000, 12_000, 5);
        let bad = c.check();
        assert!(bad.is_empty(), "{bad:?}");
        assert!(c.explicit.tree_maintenance > 50);
        assert!(c.table().to_markdown().contains("membership"));
    }

    /// Each column adds up to its fleet's Chord `sent_total`: the DAT's,
    /// prunes and root-state replicas included, books no message twice, as
    /// the parent probes once were (under liveness and ring maintenance
    /// both); the explicit tree's books the forwarding hops of a routed
    /// `JoinTree` under membership repair.
    #[test]
    fn every_dat_message_is_booked_once() {
        let c = run(32, 1_000, 8_000, 3);
        let (d, e) = (c.dat, c.explicit);
        assert!(d.liveness > 0 && d.other > 0, "{d:?}");
        assert_eq!(e.other, 0, "{e:?}");
        for (name, k) in [("dat", d), ("explicit", e)] {
            let booked = k.tree_maintenance + k.liveness + k.ring_maintenance + k.payload + k.other;
            assert_eq!(booked, k.chord_sent, "{name}: {k:?}");
        }
    }
}
