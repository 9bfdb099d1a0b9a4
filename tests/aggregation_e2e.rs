//! Integration: end-to-end aggregation across crates in the simulator —
//! continuous mode, on-demand queries (and what their fan-out costs), and
//! the centralized baseline.

use libdat::chord::{ChordConfig, IdPolicy, IdSpace, NodeAddr, RoutingScheme, StaticRing};
use libdat::core::{AggFunc, AggregationMode, DatConfig, DatEvent, StackNode};
use libdat::sim::harness::{addr_book, prestabilized_dat};
use libdat::sim::SimNet;
use rand::SeedableRng;

const BITS: u8 = 32;

fn build(
    n: usize,
    scheme: RoutingScheme,
    mode: AggregationMode,
    seed: u64,
) -> (SimNet<StackNode>, StaticRing, libdat::chord::Id) {
    let space = IdSpace::new(BITS);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let ring = StaticRing::build(space, n, IdPolicy::Probed, &mut rng);
    let ccfg = ChordConfig {
        space,
        stabilize_ms: 60_000,
        fix_fingers_ms: 60_000,
        check_pred_ms: 60_000,
        ..ChordConfig::default()
    };
    let dcfg = DatConfig {
        scheme,
        epoch_ms: 1_000,
        d0_hint: Some(ring.d0()),
        ..DatConfig::default()
    };
    let mut net = prestabilized_dat(&ring, ccfg, dcfg, seed);
    let book = addr_book(&ring);
    let mut key = libdat::chord::Id(0);
    for (i, &id) in ring.ids().iter().enumerate() {
        let node = net.node_mut(book[&id]).unwrap();
        key = node.register("cpu-usage", mode);
        node.set_local(key, i as f64); // values 0..n-1
    }
    (net, ring, key)
}

fn last_report(
    net: &mut SimNet<StackNode>,
    addr: libdat::chord::NodeAddr,
    key: libdat::chord::Id,
) -> Option<libdat::core::AggPartial> {
    // One node can be the rendezvous root for several attributes at once —
    // filter by key.
    net.node_mut(addr)
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
}

#[test]
fn continuous_balanced_aggregates_every_node() {
    let n = 128;
    let (mut net, ring, key) = build(n, RoutingScheme::Balanced, AggregationMode::Continuous, 1);
    let book = addr_book(&ring);
    let root = book[&ring.successor(key)];
    // Height ≤ ~log2(n) epochs for full propagation; run a few more.
    net.run_for(15_000);
    let p = last_report(&mut net, root, key).expect("root reports");
    assert_eq!(p.count as usize, n);
    // sum of 0..n-1
    let want = (n * (n - 1) / 2) as f64;
    assert_eq!(p.finalize(AggFunc::Sum), want);
    assert_eq!(p.finalize(AggFunc::Min), 0.0);
    assert_eq!(p.finalize(AggFunc::Max), (n - 1) as f64);
    assert!((p.finalize(AggFunc::Avg) - want / n as f64).abs() < 1e-9);
}

#[test]
fn continuous_basic_also_aggregates_fully() {
    let n = 96;
    let (mut net, ring, key) = build(n, RoutingScheme::Greedy, AggregationMode::Continuous, 2);
    let book = addr_book(&ring);
    let root = book[&ring.successor(key)];
    net.run_for(15_000);
    let p = last_report(&mut net, root, key).expect("root reports");
    assert_eq!(p.count as usize, n);
}

#[test]
fn centralized_baseline_reaches_same_totals() {
    let n = 64;
    let (mut net, ring, key) = build(n, RoutingScheme::Greedy, AggregationMode::Centralized, 3);
    let book = addr_book(&ring);
    let root = book[&ring.successor(key)];
    net.run_for(10_000);
    let p = last_report(&mut net, root, key).expect("root reports");
    assert_eq!(p.count as usize, n);
    assert_eq!(p.finalize(AggFunc::Sum), (n * (n - 1) / 2) as f64);
}

#[test]
fn on_demand_query_from_any_node() {
    let n = 100;
    let (mut net, ring, key) = build(n, RoutingScheme::Balanced, AggregationMode::Continuous, 4);
    let book = addr_book(&ring);
    // Ask from three different non-root nodes.
    for idx in [0usize, n / 2, n - 1] {
        let asker = book[&ring.ids()[idx]];
        let reqid = net.with_node(asker, |node| node.query(key)).unwrap();
        net.run_for(5_000);
        let done = net
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
            .expect("query completes");
        assert_eq!(done.count as usize, n, "asker idx {idx}");
        assert_eq!(done.finalize(AggFunc::Sum), (n * (n - 1) / 2) as f64);
    }
}

/// Ring sizes and seeds of the on-demand census.
const CENSUS: [(usize, u64); 3] = [(16, 1), (100, 2), (256, 3)];

/// What one on-demand query costs on a fresh probed ring of `n` nodes,
/// asked from a non-root node.
struct Census {
    root: NodeAddr,
    /// `dat_query` frames each node received.
    received: Vec<(NodeAddr, u64)>,
    /// `dat_query` and `dat_response` frames the fleet sent.
    sent: (u64, u64),
    /// Contributors the answer counts.
    contributors: u64,
}

fn census(n: usize, seed: u64) -> Census {
    let (mut net, ring, key) = build(
        n,
        RoutingScheme::Balanced,
        AggregationMode::Continuous,
        seed,
    );
    let root = addr_book(&ring)[&ring.successor(key)];
    let addrs = net.addrs();
    let asker = *addrs.iter().find(|&&a| a != root).unwrap();
    let reqid = net.with_node(asker, |node| node.query(key)).unwrap();
    net.run_for(5_000);
    let contributors = net
        .node_mut(asker)
        .unwrap()
        .take_events()
        .into_iter()
        .find_map(|e| match e {
            DatEvent::QueryDone {
                reqid: r, partial, ..
            } if r == reqid => Some(partial.contributors),
            _ => None,
        })
        .expect("query completes");
    let metrics = |a: NodeAddr| net.node(a).unwrap().dat_metrics();
    Census {
        root,
        received: addrs
            .iter()
            .map(|&a| (a, metrics(a).received_of("dat_query")))
            .collect(),
        sent: addrs.iter().fold((0, 0), |(q, r), &a| {
            let m = metrics(a);
            (q + m.sent_of("dat_query"), r + m.sent_of("dat_response"))
        }),
        contributors,
    }
}

#[test]
fn on_demand_query_reaches_every_node_exactly_once() {
    for (n, seed) in CENSUS {
        let c = census(n, seed);
        assert_eq!(c.contributors, n as u64, "n={n}: every node answers");
        for (addr, got) in c.received {
            let want = u64::from(addr != c.root);
            assert_eq!(got, want, "n={n}: {addr:?} received {got} queries");
        }
    }
}

#[test]
fn on_demand_query_costs_n_minus_1_frames_each_way() {
    // The disjoint-range fan-out sends one query per non-root node, and
    // each answers its parent once.
    for (n, seed) in CENSUS {
        let c = census(n, seed);
        let each_way = n as u64 - 1;
        assert_eq!(c.sent, (each_way, each_way), "n={n}: (queries, responses)");
    }
}

#[test]
fn multiple_trees_coexist() {
    // Several attributes aggregate simultaneously over distinct roots.
    let space = IdSpace::new(BITS);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
    let ring = StaticRing::build(space, 64, IdPolicy::Probed, &mut rng);
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
    let mut net = prestabilized_dat(&ring, ccfg, dcfg, 5);
    let book = addr_book(&ring);
    let attrs = ["cpu-usage", "memory-free", "disk-free"];
    let mut keys = Vec::new();
    for &id in ring.ids() {
        let node = net.node_mut(book[&id]).unwrap();
        keys.clear();
        for (ai, attr) in attrs.iter().enumerate() {
            let k = node.register(attr, AggregationMode::Continuous);
            node.set_local(k, (ai + 1) as f64);
            keys.push(k);
        }
    }
    // Distinct rendezvous keys (SHA-1 of distinct names).
    assert_ne!(keys[0], keys[1]);
    assert_ne!(keys[1], keys[2]);
    net.run_for(15_000);
    // Drain each root once (several keys may share a root node) and keep
    // the latest report per key.
    let mut reports: std::collections::HashMap<libdat::chord::Id, libdat::core::AggPartial> =
        std::collections::HashMap::new();
    let roots: std::collections::HashSet<_> =
        keys.iter().map(|k| book[&ring.successor(*k)]).collect();
    for root in roots {
        for e in net.node_mut(root).unwrap().take_events() {
            if let DatEvent::Report { key, partial, .. } = e {
                reports.insert(key, partial);
            }
        }
    }
    for (ai, &k) in keys.iter().enumerate() {
        let p = reports
            .get(&k)
            .unwrap_or_else(|| panic!("no report for {}", attrs[ai]));
        assert_eq!(p.count, 64, "{}", attrs[ai]);
        assert_eq!(p.finalize(AggFunc::Sum), 64.0 * (ai + 1) as f64);
    }
}

#[test]
fn histogram_digests_flow_through_the_tree() {
    let space = IdSpace::new(BITS);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(6);
    let ring = StaticRing::build(space, 50, IdPolicy::Probed, &mut rng);
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
    let mut net = prestabilized_dat(&ring, ccfg, dcfg, 6);
    let book = addr_book(&ring);
    let mut key = libdat::chord::Id(0);
    for (i, &id) in ring.ids().iter().enumerate() {
        let node = net.node_mut(book[&id]).unwrap();
        key = node.register_with_histogram(
            "cpu-usage",
            AggregationMode::Continuous,
            Some((0.0, 100.0, 10)),
        );
        // Half the fleet idle (~10%), half loaded (~90%).
        node.set_local(key, if i % 2 == 0 { 10.0 } else { 90.0 });
    }
    net.run_for(12_000);
    let root = book[&ring.successor(key)];
    let p = last_report(&mut net, root, key).expect("report");
    let h = p.histogram().expect("histogram digest present");
    assert_eq!(h.total(), 50);
    assert_eq!(h.buckets[1], 25); // 10% bucket
    assert_eq!(h.buckets[9], 25); // 90% bucket
                                  // Quantiles from the digest.
    assert!(h.quantile(0.25) < 30.0);
    assert!(h.quantile(0.75) > 70.0);
}

#[test]
fn distinct_count_sketch_flows_through_the_tree() {
    // Every node reports its site; the root's sketch estimates the number
    // of distinct sites Grid-wide (idempotent merge: duplicate delivery
    // under churn cannot inflate it). The centralized baseline routes the
    // same one-node partials, sketch included, straight to the root.
    for mode in [AggregationMode::Continuous, AggregationMode::Centralized] {
        distinct_count_reaches_the_root(mode);
    }
}

fn distinct_count_reaches_the_root(mode: AggregationMode) {
    let space = IdSpace::new(BITS);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(77);
    let ring = StaticRing::build(space, 120, IdPolicy::Probed, &mut rng);
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
    let mut net = prestabilized_dat(&ring, ccfg, dcfg, 77);
    let book = addr_book(&ring);
    let mut key = libdat::chord::Id(0);
    for (i, &id) in ring.ids().iter().enumerate() {
        let node = net.node_mut(book[&id]).unwrap();
        key = node.register_with_distinct("cpu-usage", mode, 12);
        node.set_local(key, 1.0);
        // 120 nodes spread over 17 distinct sites.
        node.observe_local_item(key, format!("site-{:02}", i % 17).as_bytes());
    }
    net.run_for(10_000);
    let root = book[&ring.successor(key)];
    let p = last_report(&mut net, root, key).expect("report");
    assert_eq!(p.count, 120, "{mode:?}");
    let est = p.distinct_estimate();
    assert!(
        (15.0..=19.0).contains(&est),
        "{mode:?}: distinct-site estimate {est} (true: 17)"
    );
}

#[test]
fn large_sketched_keys_sharing_a_parent_split_into_frames_that_fit() {
    // A `p = 14` sketch is 16 KiB of registers, so four or more such keys
    // pushed to one parent at once would pass one 64 KiB frame: they
    // split into frames that fit. On 4 nodes, each of 12 keys has 3
    // pushers, most to a parent they share with other keys. The parity
    // proof round-trips every delivered frame through the wire codec (a
    // frame it refuses panics), and every key's root still counts every
    // node.
    let n = 4;
    let space = IdSpace::new(BITS);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
    let ring = StaticRing::build(space, n, IdPolicy::Probed, &mut rng);
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
    let mut net = prestabilized_dat(&ring, ccfg, dcfg, 5);
    net.set_codec_parity(true);
    let book = addr_book(&ring);
    let mut keys = Vec::new();
    for (i, &id) in ring.ids().iter().enumerate() {
        let node = net.node_mut(book[&id]).unwrap();
        keys.clear();
        for k in 0..12 {
            let name = format!("attr-{k}");
            let key = node.register_with_distinct(&name, AggregationMode::Continuous, 14);
            node.set_local(key, 1.0);
            node.observe_local_item(key, format!("site-{i}").as_bytes());
            keys.push(key);
        }
    }
    net.run_for(10_000);
    let mut last = std::collections::HashMap::new();
    let (mut messages, mut frames) = (0, 0);
    for &id in ring.ids() {
        let node = net.node_mut(book[&id]).unwrap();
        messages += node
            .dat_metrics()
            .sent_of_kinds(&["dat_update", "dat_root_state"]);
        frames += node.chord_metrics().sent_of("app");
        for e in node.take_events() {
            if let DatEvent::Report { key, partial, .. } = e {
                last.insert(key, partial);
            }
        }
    }
    assert!(frames < messages, "no two updates shared a frame");
    for key in keys {
        let p = &last[&key];
        assert_eq!((p.count, p.contributors), (n as u64, n as u64), "{key:?}");
        let est = p.distinct_estimate();
        assert!((3.5..=4.5).contains(&est), "{key:?}: {est} sites (true: 4)");
    }
}
