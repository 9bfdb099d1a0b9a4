//! Integration: live Chord protocol forms correct rings, and its liveness
//! pings evict a dead finger while keeping live ones.

use libdat::chord::{ChordConfig, ChordNode, IdPolicy, IdSpace, NodeAddr, NodeStatus, StaticRing};
use libdat::sim::harness::{
    finger_convergence, prestabilized_chord, ring_converged, spawn_live_ring,
};
use libdat::sim::LatencyModel;
use rand::SeedableRng;

fn cfg() -> ChordConfig {
    ChordConfig {
        space: IdSpace::new(32),
        ..ChordConfig::default()
    }
}

#[test]
fn thirty_two_nodes_converge() {
    let (net, ids) = spawn_live_ring(32, cfg(), 7, 2_000, 60_000);
    assert_eq!(ids.len(), 32, "every join must complete");
    assert!(ring_converged(&net, &ids), "successor ring must close");
    let fc = finger_convergence(&net, &ids);
    assert!(fc > 0.95, "fingers converged: {fc}");
}

#[test]
fn probing_join_produces_tighter_gaps() {
    let probing_cfg = ChordConfig {
        probe_on_join: true,
        ..cfg()
    };
    let (net_p, ids_p) = spawn_live_ring(48, probing_cfg, 11, 2_500, 60_000);
    assert!(ring_converged(&net_p, &ids_p));
    let (net_r, ids_r) = spawn_live_ring(48, cfg(), 11, 2_500, 60_000);
    assert!(ring_converged(&net_r, &ids_r));
    let ratio_p = StaticRing::from_ids(IdSpace::new(32), ids_p).gap_ratio();
    let ratio_r = StaticRing::from_ids(IdSpace::new(32), ids_r).gap_ratio();
    assert!(
        ratio_p < ratio_r,
        "probed gap ratio {ratio_p} should beat random {ratio_r}"
    );
}

#[test]
fn ring_survives_random_latency() {
    let mut seeded = cfg();
    seeded.req_timeout_ms = 4_000;
    let (mut net, ids) = spawn_live_ring(16, seeded, 3, 3_000, 40_000);
    net.set_latency(LatencyModel::Uniform { lo: 5, hi: 120 });
    net.run_for(60_000);
    assert!(ring_converged(&net, &ids));
}

#[test]
fn lookups_resolve_to_correct_owners_after_live_join() {
    let (mut net, ids) = spawn_live_ring(24, cfg(), 5, 2_000, 60_000);
    assert!(ring_converged(&net, &ids));
    let ring = StaticRing::from_ids(IdSpace::new(32), ids.clone());
    net.set_record_upcalls(true);
    // Issue lookups from several nodes for several keys.
    let addrs = net.addrs();
    let mut expected = Vec::new();
    for (i, &from) in addrs.iter().take(6).enumerate() {
        let key = libdat::chord::Id((i as u64 + 1) * 0x1234_5678);
        let req = net.with_node(from, |n| n.lookup(key)).unwrap();
        expected.push((req, ring.successor(key)));
    }
    net.run_for(20_000);
    let ups = net.take_upcalls();
    for (req, owner) in expected {
        let got = ups
            .iter()
            .find_map(|u| match &u.upcall {
                libdat::chord::Upcall::LookupDone { req: r, owner, .. } if *r == req => {
                    Some(owner.id)
                }
                _ => None,
            })
            .unwrap_or_else(|| panic!("lookup {req} did not complete"));
        assert_eq!(got, owner);
    }
}

#[test]
fn all_nodes_active_after_spawn() {
    let (net, ids) = spawn_live_ring(12, cfg(), 9, 2_000, 30_000);
    assert_eq!(ids.len(), 12);
    for (_, node) in net.iter_nodes() {
        assert_eq!(node.status(), NodeStatus::Active);
    }
}

/// A prestabilized ring whose periodic maintenance never fires within a
/// test, so only the pings under test move the tables.
fn quiet_cfg() -> ChordConfig {
    ChordConfig {
        stabilize_ms: 60_000,
        fix_fingers_ms: 60_000,
        check_pred_ms: 60_000,
        ..cfg()
    }
}

#[test]
fn ping_node_detects_crash_and_evicts() {
    let space = IdSpace::new(32);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
    let ring = StaticRing::build(space, 24, IdPolicy::Probed, &mut rng);
    let mut net = prestabilized_chord(&ring, quiet_cfg(), 4);
    // Pick a node and one of its fingers; crash the finger.
    let me = NodeAddr(0);
    let target = net
        .node(me)
        .unwrap()
        .table()
        .iter()
        .map(|(_, f)| f.node)
        .last()
        .expect("has fingers");
    let target_addr = target.addr;
    net.crash(target_addr);
    // Two ping rounds (two strikes) evict the dead finger. A ping only
    // counts as a timeout after its retransmissions are exhausted —
    // 2 s + 4 s + 8 s of backoff with the default RTO — so give each
    // round the full cycle.
    for _ in 0..2 {
        net.with_node(me, |node: &mut ChordNode| ((), node.ping_node(target)));
        net.run_for(20_000);
    }
    let still_there = net
        .node(me)
        .unwrap()
        .table()
        .iter()
        .any(|(_, f)| f.node.id == target.id);
    assert!(
        !still_there,
        "dead finger must be evicted after two strikes"
    );
}

#[test]
fn ping_node_keeps_live_nodes() {
    let space = IdSpace::new(32);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
    let ring = StaticRing::build(space, 24, IdPolicy::Probed, &mut rng);
    let mut net = prestabilized_chord(&ring, quiet_cfg(), 5);
    let me = NodeAddr(0);
    let target = net
        .node(me)
        .unwrap()
        .table()
        .iter()
        .map(|(_, f)| f.node)
        .last()
        .unwrap();
    for _ in 0..3 {
        net.with_node(me, |node: &mut ChordNode| ((), node.ping_node(target)));
        net.run_for(5_000);
    }
    let still_there = net
        .node(me)
        .unwrap()
        .table()
        .iter()
        .any(|(_, f)| f.node.id == target.id);
    assert!(still_there, "live nodes answer pings and stay");
}
