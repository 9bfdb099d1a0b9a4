//! Churn storm: the implicit DAT adapts to continuous arrivals and
//! departures with zero tree-maintenance traffic (paper §2.3 and the
//! abstract's "very low overhead during node arrival and departure").
//!
//! A 128-node overlay loses or gains a node every second for two minutes
//! of virtual time; the balanced DAT keeps aggregating throughout, and the
//! report's node coverage tracks the live membership.
//!
//! ```text
//! cargo run --release --example churn_storm
//! ```

use libdat::chord::{
    hash_to_id, ChordConfig, IdPolicy, IdSpace, NodeAddr, RoutingScheme, StaticRing,
};
use libdat::core::{AggregationMode, DatConfig, DatEvent, DatProtocol, StackNode};
use libdat::sim::harness::{addr_book, prestabilized_dat};
use rand::{Rng, SeedableRng};

fn main() {
    let space = IdSpace::new(32);
    let n0 = 128usize;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0x57);
    let ring = StaticRing::build(space, n0, IdPolicy::Probed, &mut rng);
    let ccfg = ChordConfig {
        space,
        stabilize_ms: 1_000,
        fix_fingers_ms: 500,
        check_pred_ms: 1_500,
        req_timeout_ms: 2_500,
        ..ChordConfig::default()
    };
    let dcfg = DatConfig {
        scheme: RoutingScheme::Balanced,
        epoch_ms: 1_000,
        child_ttl_epochs: 3,
        ..DatConfig::default()
    };
    let key = hash_to_id(space, b"cpu-usage");
    let book = addr_book(&ring);
    let root_addr = book[&ring.successor(key)];

    let mut net = prestabilized_dat(&ring, ccfg, dcfg, 0x57);
    for addr in net.addrs() {
        let node = net.node_mut(addr).unwrap();
        let k = node.register("cpu-usage", AggregationMode::Continuous);
        node.set_local(k, 42.0);
    }
    net.run_for(5_000);

    println!("  t(s)  live-nodes  reported-count  coverage");
    let mut next_addr = n0 as u64;
    let mut leave_next = true;
    for sec in 1..=120u64 {
        net.run_for(1_000);
        // One churn event per second, alternating leave/join.
        if leave_next {
            let candidates: Vec<NodeAddr> = net
                .addrs()
                .into_iter()
                .filter(|&a| a != root_addr)
                .collect();
            if candidates.len() > 8 {
                let victim = candidates[rng.random_range(0..candidates.len())];
                if sec % 2 == 0 {
                    // Graceful departure.
                    net.with_node(victim, |node| ((), node.leave()));
                } else {
                    // Crash: peers must discover it via timeouts.
                    net.crash(victim);
                }
            }
        } else {
            let id = space.random(&mut rng);
            let addr = NodeAddr(next_addr);
            next_addr += 1;
            let bootstrap = net.node(root_addr).unwrap().me();
            let mut node = StackNode::new(ccfg, id, addr).with_app(DatProtocol::new(dcfg));
            let k = node.register("cpu-usage", AggregationMode::Continuous);
            node.set_local(k, 42.0);
            let outs = node.start_join(bootstrap);
            net.add_node(node);
            net.apply(addr, outs);
        }
        leave_next = !leave_next;

        if sec % 10 == 0 {
            let live = net.len();
            let report = net
                .node_mut(root_addr)
                .unwrap()
                .take_events()
                .into_iter()
                .filter_map(|e| match e {
                    DatEvent::Report { partial, .. } => Some(partial),
                    _ => None,
                })
                .next_back();
            match report {
                Some(p) => println!(
                    "  {sec:>4}  {live:>10}  {:>14}  {:>7.1}%",
                    p.count,
                    p.count as f64 / live as f64 * 100.0
                ),
                None => println!("  {sec:>4}  {live:>10}  (no report)"),
            }
        }
    }

    // Let things settle, then verify near-complete coverage again.
    net.run_for(15_000);
    let live = net.len();
    let p = net
        .node_mut(root_addr)
        .unwrap()
        .take_events()
        .into_iter()
        .filter_map(|e| match e {
            DatEvent::Report { partial, .. } => Some(partial),
            _ => None,
        })
        .next_back()
        .expect("root keeps reporting");
    let coverage = p.count as f64 / live as f64;
    println!(
        "\nafter settling: {live} live nodes, report covers {} ({:.1}%)",
        p.count,
        coverage * 100.0
    );
    assert!(
        coverage > 0.9,
        "implicit tree should recover >90% coverage after churn"
    );
    println!("ok: the implicit DAT survived 120 churn events with no tree-repair messages");
}
