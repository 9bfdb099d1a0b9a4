//! Gossip vs DAT: two decentralized ways to learn the global average.
//!
//! Push-sum gossip needs no structure at all but pays `O(n log n)` messages
//! for an ε-approximation; the balanced DAT computes the exact answer with
//! `n − 1` messages per epoch. This example runs both on the same 256-node
//! overlay and prints the convergence race. A distinct-count sketch rides
//! along in the DAT partials to show digest aggregation (how many distinct
//! sites reported this epoch).
//!
//! ```text
//! cargo run --release --example gossip_vs_dat
//! ```

use libdat::chord::{hash_to_id, ChordConfig, IdPolicy, IdSpace, RoutingScheme, StaticRing};
use libdat::core::{AggFunc, DatEvent};
use libdat::sim::harness::{addr_book, prestabilized_dat, prestabilized_gossip};
use rand::SeedableRng;

fn main() {
    let n = 256usize;
    let space = IdSpace::new(32);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0x6055);
    let ring = StaticRing::build(space, n, IdPolicy::Probed, &mut rng);
    let ccfg = ChordConfig {
        space,
        stabilize_ms: 600_000,
        fix_fingers_ms: 600_000,
        check_pred_ms: 600_000,
        ..ChordConfig::default()
    };
    let truth = (n as f64 - 1.0) / 2.0;
    println!("true global average over {n} nodes: {truth}");

    // --- push-sum gossip -------------------------------------------------
    let mut gnet = prestabilized_gossip(&ring, ccfg, 1, |i| i as f64);
    println!("\npush-sum:");
    println!("  round   worst-node error   messages so far");
    let mut gossip_done_msgs = None;
    for round in 1..=60u64 {
        gnet.run_for(1_000);
        let worst = gnet
            .iter_nodes()
            .map(|(_, node)| ((node.gossip().estimate() - truth) / truth).abs())
            .fold(0.0f64, f64::max);
        let msgs: u64 = gnet
            .addrs()
            .iter()
            .map(|&a| {
                gnet.node(a)
                    .unwrap()
                    .gossip_metrics()
                    .sent_of("gossip_share")
            })
            .sum();
        if round % 5 == 0 || worst < 0.001 {
            println!("  {round:>5}   {:>16.4}%   {msgs:>15}", worst * 100.0);
        }
        if worst < 0.001 {
            gossip_done_msgs = Some(msgs);
            break;
        }
    }

    // --- balanced DAT -----------------------------------------------------
    let dcfg = libdat::core::DatConfig {
        scheme: RoutingScheme::Balanced,
        epoch_ms: 1_000,
        d0_hint: Some(ring.d0()),
        ..libdat::core::DatConfig::default()
    };
    let mut dnet = prestabilized_dat(&ring, ccfg, dcfg, 1);
    let book = addr_book(&ring);
    let key = hash_to_id(space, b"load-average");
    let sites = ["usc", "isi", "caltech", "ucla", "ucsd"];
    for (i, &id) in ring.ids().iter().enumerate() {
        let node = dnet.node_mut(book[&id]).unwrap();
        // The partial also carries a distinct-count sketch of the sites
        // reporting — one digest rides along with the scalar aggregate.
        let k = node.register_with_distinct(
            "load-average",
            libdat::core::AggregationMode::Continuous,
            10,
        );
        node.set_local(k, i as f64);
        node.observe_local_item(k, sites[i % sites.len()].as_bytes());
    }
    dnet.run_for(3_000);
    let root = book[&ring.successor(key)];
    let report = dnet
        .node_mut(root)
        .unwrap()
        .take_events()
        .into_iter()
        .rev()
        .find_map(|e| match e {
            DatEvent::Report { partial, .. } => Some(partial),
            _ => None,
        })
        .expect("root reports");
    let dat_msgs: u64 = dnet
        .addrs()
        .iter()
        .map(|&a| dnet.node(a).unwrap().dat_metrics().sent_of("dat_update"))
        .sum();
    println!("\nbalanced DAT:");
    println!(
        "  exact average {} after 3 epochs, {} update messages total ({} per epoch)",
        report.finalize(AggFunc::Avg),
        dat_msgs,
        dat_msgs / 3
    );
    println!(
        "  distinct sites reporting (HyperLogLog digest): {:.1} (true: {})",
        report.distinct_estimate(),
        sites.len()
    );
    assert_eq!(report.finalize(AggFunc::Avg), truth);
    if let Some(g) = gossip_done_msgs {
        println!(
            "\nsummary: gossip needed {g} messages for a 0.1% answer; the DAT's exact \
             answer costs {} per epoch — a {:.0}x difference",
            n - 1,
            g as f64 / (n as f64 - 1.0)
        );
    }
    println!("ok");
}
