//! Integration: the observability subsystem end to end.
//!
//! * A 512-node continuous epoch reassembles — from nothing but the
//!   per-node event rings — into a causal leaf→root trace whose
//!   contributor set matches the root's own `Completeness` accounting.
//! * Identically-seeded runs produce identical event streams and trace
//!   digests (the property that makes traces assertable in CI).
//! * The fleet Prometheus snapshot is served over the wire by the stats
//!   request/reply pair, on the simulator and over loopback UDP alike.

use std::time::{Duration, Instant};

use libdat::chord::{
    ChordConfig, Id, IdPolicy, IdSpace, NodeAddr, NodeStatus, RoutingScheme, StaticRing, Upcall,
};
use libdat::core::{AggregationMode, DatConfig, DatEvent, DatProtocol, StackNode};
use libdat::obs::{digest_events, mix64, trace_id_for, validate_prometheus, EpochTrace};
use libdat::rpc::RpcCluster;
use libdat::sim::harness::{addr_book, prestabilized_chord, prestabilized_dat};
use libdat::sim::{fleet_events, SimNet};
use rand::SeedableRng;

fn quiet_chord(space: IdSpace) -> ChordConfig {
    ChordConfig {
        space,
        stabilize_ms: 60_000,
        fix_fingers_ms: 60_000,
        check_pred_ms: 60_000,
        ..ChordConfig::default()
    }
}

/// Build a prestabilized continuous-DAT net where every node holds a local
/// sample, run it for `run_ms`, and return it with the rendezvous key.
fn continuous_net(n: usize, seed: u64, run_ms: u64) -> (SimNet<StackNode>, StaticRing, Id) {
    let space = IdSpace::new(32);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let ring = StaticRing::build(space, n, IdPolicy::Probed, &mut rng);
    let dcfg = DatConfig {
        scheme: RoutingScheme::Balanced,
        epoch_ms: 1_000,
        d0_hint: Some(ring.d0()),
        ..DatConfig::default()
    };
    let mut net = prestabilized_dat(&ring, quiet_chord(space), dcfg, seed);
    let book = addr_book(&ring);
    let mut key = Id(0);
    for (i, &id) in ring.ids().iter().enumerate() {
        let node = net.node_mut(book[&id]).unwrap();
        key = node.register("cpu-usage", AggregationMode::Continuous);
        node.set_local(key, i as f64);
    }
    net.run_for(run_ms);
    (net, ring, key)
}

#[test]
fn epoch_trace_reassembles_512_node_aggregation() {
    let (mut net, ring, key) = continuous_net(512, 0x0B5, 6_000);
    let book = addr_book(&ring);
    let root_addr = book[&ring.successor(key)];

    // The root's newest report is the ground truth the trace must match.
    let (epoch, partial, completeness) = net
        .node_mut(root_addr)
        .unwrap()
        .take_events()
        .into_iter()
        .rev()
        .find_map(|e| match e {
            DatEvent::Report {
                key: k,
                epoch,
                partial,
                completeness,
            } if k == key => Some((epoch, partial, completeness)),
            _ => None,
        })
        .expect("512-node continuous aggregation reports");
    assert_eq!(completeness.contributors, 512, "full coverage, lossless");

    // The causal id is computable by anyone — no coordination, no lookup.
    let tid = trace_id_for(key.0, epoch);
    assert_eq!(
        partial.trace_id, tid,
        "the wire partial carries the epoch's causal id"
    );

    // Reassemble the epoch leaf→root from the fleet's event rings alone.
    let fleet = fleet_events(&net);
    let trace = EpochTrace::assemble(tid, &fleet);
    assert_eq!(trace.root, Some(ring.successor(key).0));
    assert_eq!(
        trace.contributors().len() as u64,
        completeness.contributors,
        "trace contributors == report's completeness accounting"
    );
    // Balanced DATs stay logarithmically shallow at 512 nodes.
    let depth = trace.depth();
    assert!((2..=24).contains(&depth), "implausible depth {depth}");

    // Both renderers cover the whole tree.
    let ascii = trace.render_ascii();
    assert!(ascii.lines().count() > 512, "one line per node plus header");
    let dot = trace.render_dot();
    assert!(dot.starts_with("digraph"));
    assert!(dot.contains("doublecircle"), "root is marked");
    assert_eq!(dot.matches(" -> ").count(), 511, "one edge per non-root");
}

/// A 48-node continuous run's whole event stream: the fleet's events, a
/// node-aware, order-insensitive digest of them, and the assembled trace
/// of the newest epoch (its digest and edge count).
fn fleet_trace(seed: u64) -> (Vec<(u64, libdat::obs::Event)>, u64, u64, usize) {
    let (mut net, ring, key) = continuous_net(48, seed, 5_000);
    let book = addr_book(&ring);
    let epoch = net
        .node_mut(book[&ring.successor(key)])
        .unwrap()
        .take_events()
        .into_iter()
        .rev()
        .find_map(|e| match e {
            DatEvent::Report { key: k, epoch, .. } if k == key => Some(epoch),
            _ => None,
        })
        .expect("root reports");
    let fleet = fleet_events(&net);
    let fleet_digest = fleet.iter().fold(0u64, |acc, (node, e)| {
        acc.wrapping_add(mix64(*node).wrapping_add(e.content_hash()))
    });
    let trace = EpochTrace::assemble(trace_id_for(key.0, epoch), &fleet);
    (fleet, fleet_digest, trace.digest(), trace.edges.len())
}

#[test]
fn trace_digests_are_deterministic_across_runs() {
    let (fleet_a, digest_a, trace_a, edges_a) = fleet_trace(0xD15);
    let (fleet_b, digest_b, trace_b, edges_b) = fleet_trace(0xD15);
    assert_eq!(fleet_a.len(), fleet_b.len());
    // Same seed ⇒ the same causal content, compared as a multiset: the
    // digest (and the per-event hashes it sums) ignores wall clock and
    // delivery order, which may legitimately differ between two in-process
    // runs, but not which events happened.
    let multiset = |fleet: &[(u64, libdat::obs::Event)]| {
        let mut hs: Vec<u64> = fleet
            .iter()
            .map(|(n, e)| mix64(*n).wrapping_add(e.content_hash()))
            .collect();
        hs.sort_unstable();
        hs
    };
    assert_eq!(
        multiset(&fleet_a),
        multiset(&fleet_b),
        "same seed, same causal events"
    );
    assert_eq!(digest_a, digest_b);
    assert_eq!((trace_a, edges_a), (trace_b, edges_b));
    assert!(edges_a > 0, "the digested trace is not empty");
    // Order insensitivity: reversing the stream digests identically.
    let rev: Vec<_> = fleet_a.iter().rev().map(|(_, e)| e).collect();
    assert_eq!(
        digest_events(rev.into_iter()),
        digest_events(fleet_a.iter().map(|(_, e)| e))
    );
    // A different seed produces a different stream.
    let (_, digest_c, _, _) = fleet_trace(0xD16);
    assert_ne!(digest_a, digest_c, "digest distinguishes different runs");
}

/// The seed-`0xD15` run of the test above, pinned: its fleet digest,
/// event count and newest epoch's trace digest. How the tracer stores an
/// event may change; what it hands back may not.
const FLEET_TRACE_DIGEST: u64 = 0xc707_3813_42d9_2413;
const FLEET_TRACE_EVENTS: usize = 225;
const EPOCH_TRACE_DIGEST: u64 = 0x0aeb_20fc_9703_81cb;

#[test]
fn trace_content_is_pinned() {
    let (fleet, digest, trace, _) = fleet_trace(0xD15);
    println!(
        "fleet digest {digest:#018x}, {} events, trace digest {trace:#018x}",
        fleet.len()
    );
    assert_eq!(
        (digest, fleet.len(), trace),
        (FLEET_TRACE_DIGEST, FLEET_TRACE_EVENTS, EPOCH_TRACE_DIGEST)
    );
}

#[test]
fn untraced_maintenance_is_counted_but_never_ringed() {
    // Chord maintenance carries no causal id, so it is tallied per kind
    // and stays out of the event ring: ten seconds of default-timer
    // stabilization leave every node's tracer as it was built. (A tracer
    // that never recorded owns no heap — see `dat_obs::Tracer`.)
    let space = IdSpace::new(32);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0xC0);
    let ring = StaticRing::build(space, 64, IdPolicy::Probed, &mut rng);
    let cfg = ChordConfig {
        space,
        ..ChordConfig::default()
    };
    let mut net = prestabilized_chord(&ring, cfg, 0xC0);
    net.run_for(10_000);
    for (addr, node) in net.iter_nodes() {
        let m = node.metrics();
        assert!(m.sent_total() > 0 && m.received_total() > 0, "{addr:?}");
        assert!(
            m.tracer().is_empty() && m.tracer().dropped() == 0,
            "{addr:?} ringed {} untraced events",
            m.tracer().len() as u64 + m.tracer().dropped()
        );
    }
}

#[test]
fn stats_are_served_over_the_simulated_wire() {
    let (mut net, ring, _key) = continuous_net(16, 0x57A7, 3_000);
    net.set_record_upcalls(true);
    let book = addr_book(&ring);
    let asker = book[&ring.ids()[0]];
    let target = net.node(book[&ring.ids()[8]]).unwrap().me();
    let req = net
        .with_node(asker, |n| n.request_stats(target))
        .expect("asker alive");
    net.run_for(1_000);
    let text = net
        .take_upcalls()
        .into_iter()
        .find_map(|u| match u.upcall {
            Upcall::StatsReceived { req: r, text, .. } if r == req => Some(text),
            _ => None,
        })
        .expect("stats reply arrives");
    let text = String::from_utf8(text.to_vec()).expect("exposition is utf-8");
    let samples = validate_prometheus(&text).expect("remote dump parses");
    assert!(samples > 10, "a live node serves a non-trivial dump");
    assert!(text.contains("layer=\"chord\""));
    assert!(text.contains("layer=\"dat\""));
}

#[test]
fn stats_are_served_over_udp() {
    const N: usize = 3;
    let cfg = ChordConfig {
        space: IdSpace::new(40),
        stabilize_ms: 100,
        fix_fingers_ms: 50,
        check_pred_ms: 300,
        req_timeout_ms: 1_000,
        probe_on_join: false,
        ..ChordConfig::default()
    };
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0x57A8);
    let mut nodes = Vec::with_capacity(N);
    for i in 0..N {
        use rand::Rng;
        let mut node = StackNode::new(cfg, Id(rng.random()), NodeAddr(i as u64)).with_app(
            DatProtocol::new(DatConfig {
                epoch_ms: 300,
                ..DatConfig::default()
            }),
        );
        let key = node.register("cpu-usage", AggregationMode::Continuous);
        node.set_local(key, i as f64);
        nodes.push(node);
    }
    let cluster = RpcCluster::launch(nodes).expect("bind loopback sockets");
    let bootstrap = cluster
        .call(NodeAddr(0), |node| (node.me(), node.start_create()))
        .unwrap();
    for i in 1..N {
        cluster.cast(NodeAddr(i as u64), move |node| node.start_join(bootstrap));
        std::thread::sleep(Duration::from_millis(50));
    }
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let active = (0..N)
            .filter_map(|i| cluster.call(NodeAddr(i as u64), |n| (n.status(), vec![])))
            .filter(|s| *s == NodeStatus::Active)
            .count();
        if active == N {
            break;
        }
        assert!(Instant::now() < deadline, "UDP ring did not converge");
        std::thread::sleep(Duration::from_millis(100));
    }
    std::thread::sleep(Duration::from_millis(500)); // a few DAT epochs

    let target = cluster.call(NodeAddr(1), |n| (n.me(), vec![])).unwrap();
    let req = cluster
        .call(NodeAddr(0), move |n| n.request_stats(target))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let text = loop {
        let found = cluster
            .drain_upcalls()
            .into_iter()
            .find_map(|(a, u)| match u {
                Upcall::StatsReceived { req: r, text, .. } if a == NodeAddr(0) && r == req => {
                    Some(text)
                }
                _ => None,
            });
        if let Some(t) = found {
            break t;
        }
        assert!(Instant::now() < deadline, "UDP stats reply timed out");
        std::thread::sleep(Duration::from_millis(50));
    };
    cluster.shutdown();
    let text = String::from_utf8(text.to_vec()).expect("exposition is utf-8");
    let samples = validate_prometheus(&text).expect("UDP-served dump parses");
    assert!(samples > 10);
    assert!(text.contains("layer=\"dat\""));
}

/// The exposition is pinned, not just parseable: a seeded 64-node DAT +
/// MAAN run (two continuous keys, one discovery, ten epochs, default Chord
/// maintenance timers) must render byte-for-byte the dump — and fold to
/// the per-kind rows — that the registry-backed `Metrics` of PR 12
/// produced. Catches a `sent_total{kind="x"} 0` line for a kind that was
/// only ever received, a lost `layer` stamp, or an empty histogram.
#[test]
fn fleet_exposition_is_pinned() {
    // The same bytes from one shard on this thread and from four worker
    // threads: observability follows the engine.
    pinned_fleet_exposition(1);
    pinned_fleet_exposition(4);
}

fn pinned_fleet_exposition(shards: usize) {
    use libdat::chord::Metrics;
    use libdat::maan::{MaanProtocol, MaanStack, Resource};

    const N: usize = 64;
    let space = IdSpace::new(32);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0xE4B0);
    let ring = StaticRing::build(space, N, IdPolicy::Probed, &mut rng);
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
    let mut net = libdat::sim::harness::prestabilized_stack(&ring, ccfg, 0xE4B0, |_, id, addr| {
        StackNode::new(ccfg, id, addr)
            .with_app(DatProtocol::new(dcfg))
            .with_app(MaanProtocol::new(libdat::monitor::grid_schemas()))
    });
    net.set_shards(shards);
    let book = addr_book(&ring);
    for (i, &id) in ring.ids().iter().enumerate() {
        let node = net.node_mut(book[&id]).unwrap();
        let cpu = node.register("cpu-usage", AggregationMode::Continuous);
        node.set_local(cpu, i as f64);
        let mem = node.register("mem-free", AggregationMode::Continuous);
        node.set_local(mem, (N - i) as f64);
    }
    for j in 0..8usize {
        let res = Resource::new(&format!("grid://host-{j:02}")).with("cpu-speed", j as f64 * 0.5);
        let origin = book[&ring.ids()[(j * 8) % N]];
        net.with_node(origin, |n| ((), n.maan_register(&res)))
            .unwrap();
    }
    net.run_for(5_000);
    net.with_node(book[&ring.ids()[N / 2]], |n| {
        n.maan_range_query("cpu-speed", 1.0, 3.0)
    })
    .unwrap();
    net.run_for(5_500);

    // Peak RSS is the one host-dependent series in the fleet dump.
    let text: String = libdat::sim::fleet_prometheus(&net)
        .lines()
        .filter(|l| !l.contains("sim_peak_rss_mib"))
        .flat_map(|l| [l, "\n"])
        .collect();
    validate_prometheus(&text).expect("fleet dump parses");

    let mut chord = Metrics::default();
    let mut dat = Metrics::default();
    let mut maan = Metrics::default();
    for (_, node) in net.iter_nodes() {
        chord.merge(node.chord_metrics());
        dat.merge(node.app::<DatProtocol>().metrics());
        maan.merge(node.app::<MaanProtocol>().metrics());
    }
    assert_eq!(
        chord.by_kind(),
        vec![
            ("app", 1321, 1321),
            ("find_successor", 531, 531),
            ("found_successor", 451, 451),
            ("get_neighbors", 1984, 1920),
            ("neighbors", 1920, 1920),
            ("ping", 512, 512),
            ("pong", 1152, 1152),
            ("route", 36, 36),
        ]
    );
    // `dat_parent_ping` is one-sided on purpose: the DAT layer counts the
    // probe, which rides an update, and the Chord layer answers it with a
    // pong. The 640 pongs that answer probes are why `pong` exceeds `ping`.
    assert_eq!(
        dat.by_kind(),
        vec![
            ("dat_parent_ping", 640, 0),
            ("dat_root_state", 40, 40),
            ("dat_update", 1260, 1260),
        ]
    );
    assert_eq!(
        maan.by_kind(),
        vec![
            ("maan_done", 1, 1),
            ("maan_hits", 5, 5),
            ("maan_range_query", 18, 18),
            ("maan_register", 7, 7),
        ]
    );
    assert_eq!(text.lines().count(), 106, "exposition line count:\n{text}");
    assert!(text.contains("sent_total{kind=\"dat_parent_ping\",layer=\"dat\"} 640"));
    assert!(!text.contains("kind=\"dat_parent_ping\",layer=\"dat\"} 0"));
    assert!(text.contains("rtt_ms_count{layer=\"chord\"} 3523"));
    // Pending at the end, per node: four timers and the stabilization
    // request in flight. A Chord request times out through its node's own
    // timers, not one of its own. The finger fix due at the end resolves
    // inside the successor's arc and leaves no lookup in flight. That
    // line is pinned here; the hash covers every other line.
    assert!(text.contains("\nsim_backlog_events 320\n"));
    let rest: String = text
        .lines()
        .filter(|l| !l.starts_with("sim_backlog_events "))
        .flat_map(|l| [l, "\n"])
        .collect();
    assert_eq!(
        libdat::obs::fnv1a(rest.as_bytes()),
        0x0752_c94b_c469_e0af,
        "fleet exposition bytes changed:\n{text}"
    );
}
