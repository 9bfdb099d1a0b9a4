//! Integration: implicit DAT trees adapt to churn with no tree repair.

use libdat::chord::{
    hash_to_id, ChordConfig, IdPolicy, IdSpace, NodeAddr, RoutingScheme, StaticRing,
};
use libdat::core::{AggregationMode, DatConfig, DatEvent, DatProtocol, StackNode};
use libdat::sim::harness::{addr_book, prestabilized_dat};
use rand::SeedableRng;

const BITS: u8 = 32;

fn chord_cfg(space: IdSpace) -> ChordConfig {
    ChordConfig {
        space,
        stabilize_ms: 1_000,
        fix_fingers_ms: 500,
        check_pred_ms: 1_500,
        req_timeout_ms: 2_500,
        ..ChordConfig::default()
    }
}

#[test]
fn coverage_recovers_after_graceful_leaves() {
    let space = IdSpace::new(BITS);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(21);
    let ring = StaticRing::build(space, 64, IdPolicy::Probed, &mut rng);
    let key = hash_to_id(space, b"cpu-usage");
    let dcfg = DatConfig {
        scheme: RoutingScheme::Balanced,
        epoch_ms: 1_000,
        ..DatConfig::default()
    };
    let mut net = prestabilized_dat(&ring, chord_cfg(space), dcfg, 21);
    let book = addr_book(&ring);
    let root_addr = book[&ring.successor(key)];
    for &id in ring.ids() {
        let node = net.node_mut(book[&id]).unwrap();
        let k = node.register("cpu-usage", AggregationMode::Continuous);
        node.set_local(k, 1.0);
    }
    net.run_for(10_000);
    // Ten graceful departures.
    let victims: Vec<NodeAddr> = net
        .addrs()
        .into_iter()
        .filter(|&a| a != root_addr)
        .take(10)
        .collect();
    for v in victims {
        net.with_node(v, |n| ((), n.leave()));
        net.run_for(1_000);
    }
    net.run_for(20_000);
    let (p, c) = net
        .node_mut(root_addr)
        .unwrap()
        .take_events()
        .into_iter()
        .rev()
        .find_map(|e| match e {
            DatEvent::Report {
                partial,
                completeness,
                ..
            } => Some((partial, completeness)),
            _ => None,
        })
        .expect("root keeps reporting");
    // 54 live contributors expected (departed nodes expire from soft state).
    assert!(
        (50..=54).contains(&(p.count as usize)),
        "coverage after leaves: {}",
        p.count
    );
    // Completeness accounting tracks the shrunken ring: one contributor
    // per live sample. `expected` comes from the root's *local* gap
    // density (no global view), and the departures here cluster near the
    // root, so the estimate can land a consistent-hashing factor off —
    // the ratio stays within that spread rather than collapsing or
    // exploding.
    assert_eq!(c.contributors, p.count, "one contributor per sample");
    assert!(
        (0.5..=2.0).contains(&c.ratio),
        "post-leave completeness {:.3}",
        c.ratio
    );
    assert!(
        (16..=80).contains(&(c.expected as usize)),
        "ring-size estimate {} after 10 of 64 leave",
        c.expected
    );
}

#[test]
fn coverage_recovers_after_crashes() {
    let space = IdSpace::new(BITS);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(22);
    let ring = StaticRing::build(space, 64, IdPolicy::Probed, &mut rng);
    let key = hash_to_id(space, b"cpu-usage");
    let dcfg = DatConfig {
        scheme: RoutingScheme::Balanced,
        epoch_ms: 1_000,
        ..DatConfig::default()
    };
    let mut net = prestabilized_dat(&ring, chord_cfg(space), dcfg, 22);
    let book = addr_book(&ring);
    let root_addr = book[&ring.successor(key)];
    for &id in ring.ids() {
        let node = net.node_mut(book[&id]).unwrap();
        let k = node.register("cpu-usage", AggregationMode::Continuous);
        node.set_local(k, 1.0);
    }
    net.run_for(8_000);
    // Crash 8 nodes simultaneously — peers must detect via timeouts.
    let victims: Vec<NodeAddr> = net
        .addrs()
        .into_iter()
        .filter(|&a| a != root_addr)
        .take(8)
        .collect();
    for v in victims {
        net.crash(v);
    }
    net.run_for(40_000);
    let (p, c) = net
        .node_mut(root_addr)
        .unwrap()
        .take_events()
        .into_iter()
        .rev()
        .find_map(|e| match e {
            DatEvent::Report {
                partial,
                completeness,
                ..
            } => Some((partial, completeness)),
            _ => None,
        })
        .expect("root reports after crashes");
    assert!(
        (52..=56).contains(&(p.count as usize)),
        "coverage after crashes: {} (want ~56)",
        p.count
    );
    // Crashed nodes fall out of both the sample and the contributor
    // accounting — never double-counted, never resurrected.
    assert_eq!(c.contributors, p.count, "one contributor per sample");
    assert!(
        c.contributors <= 56,
        "contributors {} exceed the live ring",
        c.contributors
    );
    // Reports stay fresh: the oldest constituent sample is bounded by the
    // soft-state TTL.
    assert!(
        c.staleness_ms <= DatConfig::default().child_ttl_epochs * 1_000 + 1_000,
        "staleness {} ms",
        c.staleness_ms
    );
}

#[test]
fn live_joiners_enter_the_tree() {
    let space = IdSpace::new(BITS);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(23);
    let ring = StaticRing::build(space, 32, IdPolicy::Probed, &mut rng);
    let key = hash_to_id(space, b"cpu-usage");
    let ccfg = chord_cfg(space);
    let dcfg = DatConfig {
        scheme: RoutingScheme::Balanced,
        epoch_ms: 1_000,
        ..DatConfig::default()
    };
    let mut net = prestabilized_dat(&ring, ccfg, dcfg, 23);
    let book = addr_book(&ring);
    let root_addr = book[&ring.successor(key)];
    for &id in ring.ids() {
        let node = net.node_mut(book[&id]).unwrap();
        let k = node.register("cpu-usage", AggregationMode::Continuous);
        node.set_local(k, 1.0);
    }
    net.run_for(5_000);
    // Eight live joins through the root.
    for j in 0..8u64 {
        let id = space.random(&mut rng);
        let addr = NodeAddr(1000 + j);
        let bootstrap = net.node(root_addr).unwrap().me();
        let mut node = StackNode::new(ccfg, id, addr).with_app(DatProtocol::new(dcfg));
        let k = node.register("cpu-usage", AggregationMode::Continuous);
        node.set_local(k, 1.0);
        let outs = node.start_join(bootstrap);
        net.add_node(node);
        net.apply(addr, outs);
        net.run_for(2_000);
    }
    net.run_for(25_000);
    let (p, c) = net
        .node_mut(root_addr)
        .unwrap()
        .take_events()
        .into_iter()
        .rev()
        .find_map(|e| match e {
            DatEvent::Report {
                partial,
                completeness,
                ..
            } => Some((partial, completeness)),
            _ => None,
        })
        .expect("report");
    assert_eq!(p.count, 40, "all 32 + 8 joiners must contribute");
    assert_eq!(c.contributors, 40, "every joiner is accounted once");
}

#[test]
fn root_handoff_when_root_leaves() {
    // When the rendezvous root departs, its successor becomes the new root
    // and reports resume there.
    let space = IdSpace::new(BITS);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(24);
    let ring = StaticRing::build(space, 48, IdPolicy::Probed, &mut rng);
    let key = hash_to_id(space, b"cpu-usage");
    let dcfg = DatConfig {
        scheme: RoutingScheme::Balanced,
        epoch_ms: 1_000,
        ..DatConfig::default()
    };
    let mut net = prestabilized_dat(&ring, chord_cfg(space), dcfg, 24);
    let book = addr_book(&ring);
    let old_root_id = ring.successor(key);
    let old_root = book[&old_root_id];
    // The next live owner of the key after the old root departs.
    let new_root_id = ring.successor(space.add(old_root_id, 1));
    let new_root = book[&new_root_id];
    for &id in ring.ids() {
        let node = net.node_mut(book[&id]).unwrap();
        let k = node.register("cpu-usage", AggregationMode::Continuous);
        node.set_local(k, 2.0);
    }
    net.run_for(8_000);
    net.with_node(old_root, |n| ((), n.leave()));
    net.run_for(25_000);
    let (p, c) = net
        .node_mut(new_root)
        .unwrap()
        .take_events()
        .into_iter()
        .rev()
        .find_map(|e| match e {
            DatEvent::Report {
                partial,
                completeness,
                ..
            } => Some((partial, completeness)),
            _ => None,
        })
        .expect("new root must take over reporting");
    assert!(
        p.count as usize >= 45,
        "new root aggregates the ring: {}",
        p.count
    );
    // The report fence names the failed-over root, so a consumer can see
    // who is speaking for the key now.
    assert_eq!(c.root, new_root_id, "fence carries the new root's id");
}
