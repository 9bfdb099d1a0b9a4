//! Quickstart: build DAT trees, inspect their shape, and run one live
//! aggregation round in the discrete-event simulator.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use libdat::chord::{hash_to_id, ChordConfig, IdPolicy, IdSpace, RoutingScheme, StaticRing};
use libdat::core::{AggFunc, AggregationMode, DatConfig, DatEvent, DatTree, TreeStats};
use libdat::sim::harness::{addr_book, prestabilized_dat};
use rand::SeedableRng;

fn main() {
    let space = IdSpace::new(32);
    let n = 256;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(42);

    // 1. A Chord ring with identifier probing (paper §3.5).
    let ring = StaticRing::build(space, n, IdPolicy::Probed, &mut rng);
    println!("ring: {n} nodes, gap ratio {:.2}", ring.gap_ratio());

    // 2. The implicit aggregation trees toward the "cpu-usage" key.
    let key = hash_to_id(space, b"cpu-usage");
    for scheme in [RoutingScheme::Greedy, RoutingScheme::Balanced] {
        let tree = DatTree::build(&ring, key, scheme);
        let s = TreeStats::of(&tree);
        println!(
            "{:>8} DAT: height {}, max branching {}, avg branching {:.2}, leaves {}",
            scheme.label(),
            s.height,
            s.max_branching,
            s.avg_branching,
            s.leaves
        );
    }

    // 3. Live continuous aggregation in the simulator: every node reports
    //    a synthetic CPU usage; the rendezvous root aggregates globally.
    let ccfg = ChordConfig {
        space,
        ..ChordConfig::default()
    };
    let dcfg = DatConfig {
        scheme: RoutingScheme::Balanced,
        epoch_ms: 1_000,
        d0_hint: Some(ring.d0()),
        ..DatConfig::default()
    };
    let mut net = prestabilized_dat(&ring, ccfg, dcfg, 42);
    let book = addr_book(&ring);
    for (i, &id) in ring.ids().iter().enumerate() {
        let node = net.node_mut(book[&id]).unwrap();
        let k = node.register("cpu-usage", AggregationMode::Continuous);
        node.set_local(k, 20.0 + (i % 60) as f64); // synthetic load
    }
    // Let a few epochs elapse so partials propagate up the tree.
    net.run_for(6_000);

    let root_addr = book[&ring.successor(key)];
    let report = net
        .node_mut(root_addr)
        .unwrap()
        .take_events()
        .into_iter()
        .filter_map(|e| match e {
            DatEvent::Report { epoch, partial, .. } => Some((epoch, partial)),
            _ => None,
        })
        .next_back()
        .expect("the root must have produced a report");
    let (epoch, p) = report;
    println!(
        "epoch {epoch}: global cpu-usage — count {}, avg {:.2}, min {:.0}, max {:.0}",
        p.count,
        p.finalize(AggFunc::Avg),
        p.finalize(AggFunc::Min),
        p.finalize(AggFunc::Max),
    );
    assert_eq!(p.count as usize, n, "every node contributed");
    println!("ok: all {n} nodes aggregated through the balanced DAT");
}
