//! Integration: one `StackNode` hosts several application protocols at
//! once — continuous DAT aggregation and MAAN resource discovery share a
//! single Chord substrate (one finger table, one stabilization schedule),
//! and the engine's per-proto tallies attribute every application message
//! to the protocol that produced it.

use libdat::chord::{ChordConfig, IdPolicy, IdSpace, RoutingScheme, StaticRing};
use libdat::core::{
    AggFunc, AggregationMode, DatConfig, DatEvent, DatProtocol, StackNode, DAT_PROTO,
};
use libdat::maan::{MaanEvent, MaanProtocol, MaanStack, Resource, MAAN_PROTO};
use libdat::monitor::grid_schemas;
use libdat::sim::harness::{addr_book, prestabilized_stack};
use rand::SeedableRng;

const BITS: u8 = 32;
const N: usize = 64;

#[test]
fn one_stack_runs_aggregation_and_discovery_concurrently() {
    let space = IdSpace::new(BITS);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5AC);
    let ring = StaticRing::build(space, N, IdPolicy::Probed, &mut rng);
    let ccfg = ChordConfig {
        space,
        stabilize_ms: 60_000,
        fix_fingers_ms: 60_000,
        check_pred_ms: 60_000,
        ..ChordConfig::default()
    };
    let dcfg = DatConfig {
        scheme: RoutingScheme::Balanced,
        epoch_ms: 1_000,
        d0_hint: Some(ring.d0()),
        ..DatConfig::default()
    };
    let mut net = prestabilized_stack(&ring, ccfg, 0x5AC, |_, id, addr| {
        StackNode::new(ccfg, id, addr)
            .with_app(DatProtocol::new(dcfg))
            .with_app(MaanProtocol::new(grid_schemas()))
    });
    let book = addr_book(&ring);

    // Every node hosts both services on the same substrate.
    for &id in ring.ids() {
        let node = net.node(book[&id]).unwrap();
        assert_eq!(node.protocols(), vec![DAT_PROTO, MAAN_PROTO]);
    }

    // DAT side: register the global attribute everywhere.
    let mut key = libdat::chord::Id(0);
    for (i, &id) in ring.ids().iter().enumerate() {
        let node = net.node_mut(book[&id]).unwrap();
        key = node.register("cpu-usage", AggregationMode::Continuous);
        node.set_local(key, i as f64);
    }

    // MAAN side: 16 machines advertise their cpu-speed from scattered
    // origin nodes; registration routes to the LPH owner of each value.
    for j in 0..16usize {
        let speed = j as f64 * 0.5; // 0.0, 0.5, …, 7.5 GHz
        let res = Resource::new(&format!("grid://host-{j:02}")).with("cpu-speed", speed);
        let origin = book[&ring.ids()[(j * 4) % N]];
        net.with_node(origin, |n| ((), n.maan_register(&res)))
            .unwrap();
    }
    net.run_for(12_000);

    // Measure a clean window: both services active at once.
    for addr in net.addrs() {
        net.node_mut(addr).unwrap().reset_metrics();
        net.node_mut(addr).unwrap().take_events();
    }
    let asker = book[&ring.ids()[N / 2]];
    let qid = net
        .with_node(asker, |n| n.maan_range_query("cpu-speed", 2.0, 3.0))
        .unwrap();
    net.run_for(6_000);

    // The range query resolved over the same overlay the DAT runs on.
    let hits = net
        .node_mut(asker)
        .unwrap()
        .take_maan_events()
        .into_iter()
        .find_map(|e| match e {
            MaanEvent::QueryDone { qid: q, hits } if q == qid => Some(hits),
            _ => None,
        })
        .expect("range query completes while aggregation runs");
    let mut uris: Vec<String> = hits.iter().map(|r| r.uri.clone()).collect();
    uris.sort();
    assert_eq!(
        uris,
        vec!["grid://host-04", "grid://host-05", "grid://host-06"],
        "cpu-speed in [2.0, 3.0] GHz"
    );

    // Meanwhile the DAT kept reporting full coverage at its root.
    let root = book[&ring.successor(key)];
    let p = net
        .node_mut(root)
        .unwrap()
        .take_events()
        .into_iter()
        .rev()
        .find_map(|e| match e {
            DatEvent::Report {
                key: k, partial, ..
            } if k == key => Some(partial),
            _ => None,
        })
        .expect("root keeps reporting during discovery");
    assert_eq!(p.count as usize, N);
    assert_eq!(p.finalize(AggFunc::Sum), (N * (N - 1) / 2) as f64);

    // Per-node tallies attribute traffic to the right proto byte: the DAT
    // epoch traffic is ubiquitous, the MAAN walk is sparse, and the books
    // balance per protocol once the network quiesces (no loss configured).
    let addrs = net.addrs();
    let dat_senders = addrs
        .iter()
        .filter(|&&a| net.node(a).unwrap().proto_sent(DAT_PROTO) > 0)
        .count();
    assert!(
        dat_senders >= N - 1,
        "every non-root node sends DAT traffic ({dat_senders})"
    );
    let maan_sent: u64 = addrs
        .iter()
        .map(|&a| net.node(a).unwrap().proto_sent(MAAN_PROTO))
        .sum();
    let maan_recv: u64 = addrs
        .iter()
        .map(|&a| net.node(a).unwrap().proto_received(MAAN_PROTO))
        .sum();
    assert!(maan_sent > 0, "the walk produced MAAN-tagged messages");
    assert_eq!(maan_sent, maan_recv, "MAAN books balance at quiescence");

    // And with no discovery in flight, the MAAN tally stays flat while the
    // DAT tally keeps growing — attribution, not just accounting.
    for addr in net.addrs() {
        net.node_mut(addr).unwrap().reset_metrics();
    }
    net.run_for(3_000);
    let dat_total: u64 = net
        .addrs()
        .iter()
        .map(|&a| net.node(a).unwrap().proto_sent(DAT_PROTO))
        .sum();
    let maan_total: u64 = net
        .addrs()
        .iter()
        .map(|&a| net.node(a).unwrap().proto_sent(MAAN_PROTO))
        .sum();
    assert!(dat_total > 0, "continuous aggregation keeps running");
    assert_eq!(maan_total, 0, "idle MAAN sends nothing");

    // The fleet-merged observability registry tells the same story without
    // touching any node: the engine's per-layer series reproduce the tally
    // sums exactly, nothing was dropped on this lossless run, and the
    // whole dump parses as Prometheus text.
    let fleet = libdat::sim::fleet_registry(&net);
    assert_eq!(fleet.counter_with("engine_sent_total", "dat"), dat_total);
    assert_eq!(fleet.counter_with("engine_sent_total", "maan"), maan_total);
    assert_eq!(
        fleet.counter_sum("dropped_total"),
        0,
        "lossless run dropped payloads"
    );
    let text = libdat::sim::fleet_prometheus(&net);
    let samples = libdat::obs::validate_prometheus(&text).expect("fleet dump parses");
    assert!(samples > 0);
}
