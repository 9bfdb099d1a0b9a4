//! Resource discovery over MAAN: advertise a fleet of heterogeneous Grid
//! machines, then answer multi-attribute range queries (paper §2.2 — the
//! indexing layer the DAT aggregation sits on). Every query travels the
//! live MAAN protocol of a simulated 128-node overlay.
//!
//! ```text
//! cargo run --example resource_discovery
//! ```

use libdat::chord::{ChordConfig, IdPolicy, IdSpace, NodeAddr, StaticRing};
use libdat::core::StackNode;
use libdat::maan::{MaanProtocol, MaanStack, Predicate, Resource};
use libdat::monitor::discovery::{discover, routing_hops};
use libdat::monitor::grid_schemas;
use libdat::sim::harness::prestabilized_stack;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
    let space = IdSpace::new(32);
    let ring = StaticRing::build(space, 128, IdPolicy::Probed, &mut rng);
    let ccfg = ChordConfig {
        space,
        ..ChordConfig::default()
    };
    let mut net = prestabilized_stack(&ring, ccfg, 7, |_, id, addr| {
        StackNode::new(ccfg, id, addr).with_app(MaanProtocol::new(grid_schemas()))
    });
    let origin = NodeAddr(0);

    // Advertise 300 machines across three sites.
    let sites = ["usc", "isi", "caltech"];
    let oses = ["linux", "linux", "linux", "freebsd"]; // 3:1 mix
    let machines: Vec<Resource> = (0..300usize)
        .map(|i| {
            Resource::new(&format!("grid://node{i:03}"))
                .with("cpu-speed", 1.0 + rng.random::<f64>() * 3.0)
                .with("cpu-usage", rng.random::<f64>() * 100.0)
                .with("memory", [8_192.0, 16_384.0, 32_768.0, 65_536.0][i % 4])
                .with("os", oses[i % 4])
                .with("site", sites[i % 3])
        })
        .collect();
    for machine in &machines {
        net.with_node(origin, |n| ((), n.maan_register(machine)));
    }
    net.run_for(1_000);
    let reg_hops = routing_hops(&net);
    println!(
        "registered 300 machines (5 attributes each): {} routing hops total, {:.1} per registration",
        reg_hops,
        reg_hops as f64 / 300.0
    );
    let loads: Vec<usize> = net
        .iter_nodes()
        .map(|(_, n)| n.maan().store().len())
        .collect();
    println!(
        "index load: {} entries across {} nodes, max {} on one node",
        loads.iter().sum::<usize>(),
        loads.len(),
        loads.iter().max().unwrap()
    );

    // Scheduler-style query: fast idle Linux machines with plenty of RAM.
    let preds = [
        Predicate::exact("os", "linux"),
        Predicate::range("cpu-speed", 2.5, 8.0),
        Predicate::range("cpu-usage", 0.0, 30.0),
        Predicate::range("memory", 32_768.0, 65_536.0),
    ];
    let found = discover(&mut net, NodeAddr(64), &preds).expect("query answered");
    let hits = &found.hits;
    println!(
        "\nquery: linux ∧ cpu≥2.5GHz ∧ load≤30% ∧ mem≥32GB → {} machines \
         ({} routing hops + {} nodes visited)",
        hits.len(),
        found.routing_hops,
        found.visited_nodes
    );
    for r in hits.iter().take(5) {
        println!(
            "  {}  cpu {:.2} GHz  load {:>5.1}%  mem {:>3.0} GB  @{}",
            r.uri,
            r.get("cpu-speed").unwrap().as_num().unwrap(),
            r.get("cpu-usage").unwrap().as_num().unwrap(),
            r.get("memory").unwrap().as_num().unwrap() / 1024.0,
            r.get("site").unwrap().as_str().unwrap()
        );
    }
    if hits.len() > 5 {
        println!("  ... and {} more", hits.len() - 5);
    }
    // Every hit really satisfies every predicate, and no match is missed.
    let matches = |r: &Resource| preds.iter().all(|p| r.matches(p));
    assert!(hits.iter().all(matches));
    assert_eq!(hits.len(), machines.iter().filter(|r| matches(r)).count());
    println!("\nok: multi-attribute dominated queries resolve correctly");
}
