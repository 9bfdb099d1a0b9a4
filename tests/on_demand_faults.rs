//! Integration: on-demand aggregation under faults — lost branches resolve
//! via the per-node window timeout; queries during churn still answer.

use libdat::chord::{
    hash_to_id, ChordConfig, IdPolicy, IdSpace, NodeAddr, RoutingScheme, StaticRing,
};
use libdat::core::{
    AggFunc, AggregationMode, DatConfig, DatEvent, StackNode, COMPLETED_QUERIES_KEPT,
};
use libdat::sim::harness::{addr_book, prestabilized_dat};
use libdat::sim::{FaultPlan, LossModel, SimNet};
use rand::SeedableRng;

const BITS: u8 = 32;

fn build(n: usize, seed: u64) -> (SimNet<StackNode>, StaticRing, libdat::chord::Id) {
    build_with_window(n, seed, 800)
}

fn build_with_window(
    n: usize,
    seed: u64,
    query_window_ms: u64,
) -> (SimNet<StackNode>, StaticRing, libdat::chord::Id) {
    let space = IdSpace::new(BITS);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let ring = StaticRing::build(space, n, IdPolicy::Probed, &mut rng);
    let ccfg = ChordConfig {
        space,
        stabilize_ms: 2_000,
        fix_fingers_ms: 1_000,
        check_pred_ms: 2_000,
        req_timeout_ms: 2_500,
        ..ChordConfig::default()
    };
    let dcfg = DatConfig {
        scheme: RoutingScheme::Balanced,
        epoch_ms: 1_000,
        query_window_ms,
        d0_hint: Some(ring.d0()),
        ..DatConfig::default()
    };
    let mut net = prestabilized_dat(&ring, ccfg, dcfg, seed);
    let book = addr_book(&ring);
    let mut key = libdat::chord::Id(0);
    for &id in ring.ids() {
        let node = net.node_mut(book[&id]).unwrap();
        key = node.register("cpu-usage", AggregationMode::Continuous);
        node.set_local(key, 2.0);
    }
    (net, ring, key)
}

fn query_result(
    net: &mut SimNet<StackNode>,
    asker: NodeAddr,
    key: libdat::chord::Id,
    run_ms: u64,
) -> Option<libdat::core::AggPartial> {
    query_with_retries(net, asker, key, run_ms, 1)
}

/// Like a real client: the `Request` hop to the root is fire-and-forget, so
/// retry when no result arrives (meanwhile the failure detector evicts the
/// dead hop that swallowed the previous attempt).
fn query_with_retries(
    net: &mut SimNet<StackNode>,
    asker: NodeAddr,
    key: libdat::chord::Id,
    run_ms: u64,
    attempts: u32,
) -> Option<libdat::core::AggPartial> {
    for _ in 0..attempts {
        let reqid = net.with_node(asker, |node| node.query(key)).unwrap();
        net.run_for(run_ms);
        let found = net
            .node_mut(asker)
            .unwrap()
            .take_events()
            .into_iter()
            .find_map(|e| match e {
                DatEvent::QueryDone {
                    reqid: r, partial, ..
                } if r == reqid => Some(partial),
                _ => None,
            });
        if found.is_some() {
            return found;
        }
    }
    None
}

#[test]
fn query_with_crashed_branch_returns_partial_answer() {
    let n = 80;
    let (mut net, ring, key) = build(n, 41);
    let book = addr_book(&ring);
    let root_addr = book[&ring.successor(key)];
    net.run_for(3_000);
    // Crash a handful of nodes without letting failure detection catch up:
    // the fan-out loses those branches and the window timeout must close
    // the query with a partial (but substantial) answer.
    let victims: Vec<NodeAddr> = net
        .addrs()
        .into_iter()
        .filter(|&a| a != root_addr && a != NodeAddr(0))
        .take(6)
        .collect();
    for v in &victims {
        net.crash(*v);
    }
    let p = query_with_retries(&mut net, NodeAddr(0), key, 8_000, 4)
        .expect("query must complete despite crashed branches");
    let live = n - victims.len();
    assert!(
        (p.count as usize) <= live,
        "cannot count more than the living: {} > {live}",
        p.count
    );
    assert!(
        (p.count as usize) >= live * 6 / 10,
        "window timeout should preserve most branches: {} of {live}",
        p.count
    );
}

#[test]
fn query_under_packet_loss_still_completes() {
    let (mut net, ring, key) = build(60, 42);
    let book = addr_book(&ring);
    let _ = book;
    let _ = ring;
    net.run_for(3_000);
    net.set_loss(LossModel::new(0.02));
    // A lost Query near the top of the fan-out drops a whole subtree, so
    // single-shot coverage is heavy-tailed; a client retry recovers it.
    let mut best = 0u64;
    for _ in 0..3 {
        if let Some(p) = query_with_retries(&mut net, NodeAddr(3), key, 10_000, 2) {
            assert_eq!(p.finalize(AggFunc::Avg), 2.0);
            best = best.max(p.count);
            if best >= 54 {
                break;
            }
        }
    }
    assert!(best >= 40, "best coverage under 2% loss: {best} of 60");
}

#[test]
fn concurrent_queries_do_not_interfere() {
    let n = 64;
    let (mut net, ring, key) = build(n, 43);
    let book = addr_book(&ring);
    net.run_for(3_000);
    // Three nodes ask at the same time; each must get the full answer with
    // its own request id.
    let askers = [
        book[&ring.ids()[1]],
        book[&ring.ids()[20]],
        book[&ring.ids()[40]],
    ];
    let reqids: Vec<u64> = askers
        .iter()
        .map(|&a| net.with_node(a, |node| node.query(key)).unwrap())
        .collect();
    net.run_for(8_000);
    for (&asker, &reqid) in askers.iter().zip(&reqids) {
        let p = net
            .node_mut(asker)
            .unwrap()
            .take_events()
            .into_iter()
            .find_map(|e| match e {
                DatEvent::QueryDone {
                    reqid: r, partial, ..
                } if r == reqid => Some(partial),
                _ => None,
            })
            .expect("each concurrent query completes");
        assert_eq!(p.count as usize, n);
        assert_eq!(p.finalize(AggFunc::Sum), 2.0 * n as f64);
    }
}

#[test]
fn repeated_queries_reuse_nothing_stale() {
    let (mut net, ring, key) = build(40, 44);
    let book = addr_book(&ring);
    let asker = book[&ring.ids()[5]];
    net.run_for(2_000);
    let p1 = query_result(&mut net, asker, key, 6_000).expect("first query");
    // Change every node's local value; a second query must see fresh data.
    for addr in net.addrs() {
        net.node_mut(addr).unwrap().set_local(key, 9.0);
    }
    let p2 = query_result(&mut net, asker, key, 6_000).expect("second query");
    assert_eq!(p1.finalize(AggFunc::Avg), 2.0);
    assert_eq!(p2.finalize(AggFunc::Avg), 9.0);
    assert_eq!(p2.count, 40);
}

#[test]
fn unregistered_nodes_contribute_identity() {
    // Nodes that never registered the aggregation respond with the
    // identity partial: the query completes and counts only registrants.
    let space = IdSpace::new(BITS);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(45);
    let ring = StaticRing::build(space, 30, IdPolicy::Probed, &mut rng);
    let ccfg = ChordConfig {
        space,
        ..ChordConfig::default()
    };
    let dcfg = DatConfig {
        scheme: RoutingScheme::Balanced,
        epoch_ms: 1_000,
        query_window_ms: 800,
        d0_hint: Some(ring.d0()),
        ..DatConfig::default()
    };
    let mut net = prestabilized_dat(&ring, ccfg, dcfg, 45);
    let book = addr_book(&ring);
    let key = hash_to_id(space, b"cpu-usage");
    // Only every other node registers.
    let mut registered = 0;
    for (i, &id) in ring.ids().iter().enumerate() {
        if i % 2 == 0 {
            let node = net.node_mut(book[&id]).unwrap();
            let k = node.register("cpu-usage", AggregationMode::Continuous);
            node.set_local(k, 5.0);
            registered += 1;
        }
    }
    net.run_for(2_000);
    let asker = book[&ring.ids()[0]];
    let p = query_result(&mut net, asker, key, 6_000).expect("query completes");
    assert_eq!(p.count as usize, registered);
    assert_eq!(p.finalize(AggFunc::Avg), 5.0);
}

#[test]
fn duplicated_queries_are_counted_once() {
    // Three deliveries in four arrive twice. A second copy of a `Query`
    // finds its `reqid` remembered — still open or already answered — and
    // is answered with the identity, so no subtree is fanned out, summed
    // or counted twice; a second copy of a `Response` finds the query
    // closed or is absorbed by the idempotent merge.
    let n = 48;
    let (mut net, ring, key) = build(n, 46);
    let book = addr_book(&ring);
    net.set_fault_plan(FaultPlan::new().duplication_at(0, 0.75));
    net.run_for(3_000);
    for i in [2usize, 17, 33, 40] {
        let p = query_result(&mut net, book[&ring.ids()[i]], key, 6_000)
            .expect("query completes under duplication");
        assert_eq!(p.contributors as usize, n, "every node exactly once");
        assert_eq!(p.count as usize, n);
        assert_eq!(p.finalize(AggFunc::Sum), 2.0 * n as f64);
    }
}

#[test]
fn two_thousand_queries_leave_a_bounded_memory() {
    let n = 32;
    let (mut net, ring, key) = build(n, 47);
    let book = addr_book(&ring);
    net.run_for(2_000);
    for q in 0..2_000usize {
        let asker = book[&ring.ids()[q * 7 % n]];
        let p = query_result(&mut net, asker, key, 200).expect("query completes");
        assert_eq!(p.count as usize, n, "query {q}");
        assert_eq!(p.finalize(AggFunc::Sum), 2.0 * n as f64, "query {q}");
    }
    for addr in net.addrs() {
        let kept = net.node(addr).unwrap().dat().remembered_queries();
        assert!(
            kept <= COMPLETED_QUERIES_KEPT,
            "{addr:?} remembers {kept} queries after 2,000"
        );
        assert!(
            kept > 0,
            "recent queries stay known for duplicate suppression"
        );
    }
}

#[test]
fn answered_queries_cost_no_timer_of_their_own() {
    // Two fleets from one seed, one idle, one answering 200 queries that
    // all finish long before their 60 s windows. Everything that is not a
    // delivery is a timer, and the maintenance timers are the same in
    // both, so the difference is what the queries armed: one pending
    // window timer per inner node at a time, not one per query.
    let n = 32;
    let queries = 200;
    let timers = |net: &SimNet<StackNode>| {
        let delivered: u64 = net
            .addrs()
            .into_iter()
            .map(|a| net.link_stats(a).delivered)
            .sum();
        net.events_processed() + net.pending_events() as u64 - delivered
    };
    let (mut idle, _, _) = build_with_window(n, 48, 60_000);
    let (mut busy, ring, key) = build_with_window(n, 48, 60_000);
    let book = addr_book(&ring);
    busy.run_for(2_000);
    for q in 0..queries {
        let asker = book[&ring.ids()[q * 5 % n]];
        let p = query_result(&mut busy, asker, key, 50).expect("query completes");
        assert_eq!(p.count as usize, n, "query {q}");
    }
    idle.run_for(2_000 + 50 * queries as u64);
    assert_eq!(idle.now(), busy.now());
    let armed = timers(&busy) - timers(&idle);
    assert!(
        armed <= 2 * n as u64,
        "{armed} window timers for {queries} answered queries on {n} nodes"
    );
}
