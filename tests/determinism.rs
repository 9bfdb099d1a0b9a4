//! Integration: full-stack determinism — a seed fully determines every
//! simulation outcome (the property all experiment reproducibility rests
//! on), and different seeds genuinely differ.

use libdat::chord::{
    Actor, ChordConfig, ChordMsg, ChordNode, IdPolicy, IdSpace, Input, NodeAddr, Output,
    RoutingScheme, StaticRing, TimerKind,
};
use libdat::core::{AggregationMode, DatConfig, DatEvent, DatProtocol, StackNode, DAT_PROTO};
use libdat::obs::trace::DEFAULT_TRACE_CAP;
use libdat::obs::EventKind;
use libdat::sim::harness::{addr_book, prestabilized_dat};
use libdat::sim::{LatencyModel, LossModel, SimNet};
use rand::SeedableRng;

/// Run a lossy, jittery aggregation network and produce a fingerprint of
/// everything observable: events processed, per-node traffic, root reports.
type Fingerprint = (u64, u64, Vec<(u64, u64)>, Vec<(u64, u64)>);

fn fingerprint(seed: u64, shards: usize) -> Fingerprint {
    let space = IdSpace::new(32);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let ring = StaticRing::build(space, 96, IdPolicy::Probed, &mut rng);
    let ccfg = ChordConfig {
        space,
        stabilize_ms: 2_000,
        fix_fingers_ms: 1_000,
        check_pred_ms: 2_000,
        ..ChordConfig::default()
    };
    let dcfg = DatConfig {
        scheme: RoutingScheme::Balanced,
        epoch_ms: 1_000,
        d0_hint: Some(ring.d0()),
        ..DatConfig::default()
    };
    let mut net = prestabilized_dat(&ring, ccfg, dcfg, seed);
    net.set_shards(shards);
    net.set_latency(LatencyModel::Uniform { lo: 2, hi: 40 });
    net.set_loss(LossModel::new(0.02));
    let book = addr_book(&ring);
    let mut key = libdat::chord::Id(0);
    for (i, &id) in ring.ids().iter().enumerate() {
        let node = net.node_mut(book[&id]).unwrap();
        key = node.register("cpu-usage", AggregationMode::Continuous);
        node.set_local(key, (i * 3) as f64);
    }
    net.run_for(20_000);
    let traffic: Vec<(u64, u64)> = net
        .addrs()
        .iter()
        .map(|&a| {
            let s = net.link_stats(a);
            (s.sent, s.delivered)
        })
        .collect();
    let root = book[&ring.successor(key)];
    let reports: Vec<(u64, u64)> = net
        .node_mut(root)
        .unwrap()
        .take_events()
        .into_iter()
        .filter_map(|e| match e {
            DatEvent::Report { epoch, partial, .. } => Some((epoch, partial.count)),
            _ => None,
        })
        .collect();
    (net.events_processed(), net.dropped, traffic, reports)
}

#[test]
fn same_seed_reproduces_everything() {
    let a = fingerprint(0xDEAD, 1);
    // Same seed, any shard count: one worker thread or eight, a 2 ms
    // lookahead window under jitter and loss, every byte the same.
    for shards in [1, 2, 4, 8] {
        let b = fingerprint(0xDEAD, shards);
        assert_eq!(a.0, b.0, "events processed at {shards} shards");
        assert_eq!(a.1, b.1, "messages dropped at {shards} shards");
        assert_eq!(a.2, b.2, "per-node traffic at {shards} shards");
        assert_eq!(a.3, b.3, "root reports at {shards} shards");
    }
}

#[test]
fn different_seeds_diverge() {
    let a = fingerprint(1, 1);
    let b = fingerprint(2, 1);
    // Different rings, latencies and losses: traffic cannot coincide.
    assert_ne!(a.2, b.2, "distinct seeds must produce distinct traffic");
}

#[test]
fn same_seed_reproduces_every_byte_with_several_keys_per_node() {
    // With more than one aggregation per node the order in which an epoch
    // tick walks them decides which tree's parent gets the once-per-epoch
    // liveness ping. Two fleets built from one seed in one process hold
    // differently seeded `HashMap`s, so any order taken from a map walk
    // shows up here as diverging per-node traffic and traces.
    let run = || {
        let seed = 0xD47;
        let space = IdSpace::new(32);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let ring = StaticRing::build(space, 64, IdPolicy::Probed, &mut rng);
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
        let mut net = prestabilized_dat(&ring, ccfg, dcfg, seed);
        for (i, addr) in net.addrs().into_iter().enumerate() {
            let node = net.node_mut(addr).unwrap();
            for name in ["cpu-usage", "mem-free", "disk-io", "net-rx"] {
                let key = node.register(name, AggregationMode::Continuous);
                node.set_local(key, i as f64);
            }
        }
        net.run_for(20_000);
        let traffic: Vec<_> = net
            .addrs()
            .into_iter()
            .map(|a| {
                let s = net.link_stats(a);
                (a, s.sent, s.delivered)
            })
            .collect();
        // Twenty epochs of four keys fill every node's DAT ring...
        for (addr, node) in net.iter_nodes() {
            assert_eq!(
                node.dat_metrics().tracer().len(),
                DEFAULT_TRACE_CAP,
                "{addr:?} traced its epochs"
            );
        }
        // ...with the epochs' events alone: a message without a causal id
        // is counted, not ringed, so maintenance cannot evict an epoch's
        // events, and an update is ringed once, by its sender.
        let events = libdat::sim::fleet_events(&net);
        assert!(
            !events.iter().any(|(_, e)| e.trace_id == 0
                && matches!(e.kind, EventKind::Send { .. } | EventKind::Recv { .. })),
            "an untraced message reached a trace ring"
        );
        assert!(
            !events.iter().any(|(_, e)| matches!(
                e.kind,
                EventKind::Recv {
                    kind: "dat_update",
                    ..
                }
            )),
            "an update's receive was ringed"
        );
        (
            traffic,
            libdat::obs::fnv1a(format!("{events:?}").as_bytes()),
        )
    };
    let (traffic_a, digest_a) = run();
    let (traffic_b, digest_b) = run();
    assert_eq!(traffic_a, traffic_b, "per-node traffic");
    assert_eq!(digest_a, digest_b, "fleet trace digest");
}

/// A [`StackNode`] that counts the DAT frames an input sends to a peer the
/// same input already sent a DAT frame to.
struct FrameCheck {
    node: StackNode,
    doubled: u64,
}

impl Actor for FrameCheck {
    fn addr(&self) -> NodeAddr {
        self.node.me().addr
    }

    fn on_input(&mut self, input: Input) -> Vec<Output> {
        let outs = self.node.on_input(input);
        let mut peers = Vec::new();
        for o in &outs {
            if let Output::Send {
                to,
                msg:
                    ChordMsg::App {
                        proto: DAT_PROTO, ..
                    }
                    | ChordMsg::ProbedApp {
                        proto: DAT_PROTO, ..
                    },
            } = o
            {
                if peers.contains(to) {
                    self.doubled += 1;
                } else {
                    peers.push(*to);
                }
            }
        }
        outs
    }

    fn set_now(&mut self, now_ms: u64) {
        self.node.set_now(now_ms);
    }
}

/// The four-key fleet above: a node's pushes that leave in one input share
/// one frame per parent. Every node still pushes one update per key per
/// epoch (the root of a key reports instead), and the Chord layer carries
/// fewer `app` frames than the DAT layer sends updates and replicas.
#[test]
fn several_keys_pushed_at_once_share_one_frame_per_parent() {
    const KEYS: u64 = 4;
    let seed = 0xD47;
    let space = IdSpace::new(32);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let ring = StaticRing::build(space, 64, IdPolicy::Probed, &mut rng);
    let n = ring.ids().len() as u64;
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
    let book = addr_book(&ring);
    let mut net: SimNet<FrameCheck> = SimNet::new(seed);
    let mut started = Vec::new();
    for (i, &id) in ring.ids().iter().enumerate() {
        let addr = book[&id];
        let mut node = StackNode::new(ccfg, id, addr).with_app(DatProtocol::new(dcfg));
        for name in ["cpu-usage", "mem-free", "disk-io", "net-rx"] {
            let key = node.register(name, AggregationMode::Continuous);
            node.set_local(key, i as f64);
        }
        let table = ring.table_of_with(id, ccfg.succ_list_len, &|id| book[&id]);
        started.push((addr, node.start_with_table(table)));
        net.add_node(FrameCheck { node, doubled: 0 });
    }
    for (addr, outs) in started {
        net.apply(addr, outs);
    }
    // Ten whole epochs, ticks 6..=15, after five of warm-up.
    net.run_for(5_500);
    for addr in net.addrs() {
        net.node_mut(addr).unwrap().node.reset_metrics();
    }
    net.run_for(10_000);
    let (mut doubled, mut app, mut updates, mut received, mut replicas) = (0, 0, 0, 0, 0);
    for (_, check) in net.iter_nodes() {
        doubled += check.doubled;
        app += check.node.chord_metrics().sent_of("app");
        let dat = check.node.dat_metrics();
        updates += dat.sent_of("dat_update");
        received += dat.received_of("dat_update");
        replicas += dat.sent_of("dat_root_state");
    }
    assert_eq!(doubled, 0, "an input sent two DAT frames to one peer");
    assert_eq!(updates, KEYS * (n - 1) * 10, "one update per key per epoch");
    assert_eq!(received, updates);
    assert!(
        app < updates + replicas,
        "{app} app frames for {updates} updates and {replicas} replicas"
    );
}

/// Fault-free Chord maintenance on a 512-node probed ring, every node's
/// first `FixFingers` delayed by `(i mod 52) x 250 ms` the way the
/// `sim_maint` benchmark staggers finger cursors, 30 virtual seconds.
/// The per-node `(sent, delivered)` fingerprint is pinned: how a node
/// schedules its request deadlines may change the event count, never a
/// message. No request is retransmitted or times out on a healthy ring.
/// Next to the fingerprint, each kind's rate per node-second over the
/// second half of the run: a change that moves traffic shows which kind.
#[test]
fn fault_free_maintenance_traffic_is_pinned() {
    let seed = 1;
    let space = IdSpace::new(40);
    let cfg = ChordConfig {
        space,
        ..ChordConfig::default()
    };
    // Finger-fix firings per cursor cycle: fingers 2..=40, every fourth
    // firing a FOF refresh.
    let cycle = (u64::from(space.bits()) - 1) * 4 / 3;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let ring = StaticRing::build(space, 512, IdPolicy::Probed, &mut rng);
    let book = addr_book(&ring);
    let mut net: SimNet<ChordNode> = SimNet::new(seed);
    for (i, &id) in ring.ids().iter().enumerate() {
        let addr = book[&id];
        let mut node = ChordNode::new(cfg, id, addr);
        let mut outs =
            node.start_with_table(ring.table_of_with(id, cfg.succ_list_len, &|id| book[&id]));
        for o in &mut outs {
            if let Output::SetTimer {
                kind: TimerKind::FixFingers,
                delay_ms,
            } = o
            {
                *delay_ms += (i as u64 % cycle) * cfg.fix_fingers_ms;
            }
        }
        net.add_node(node);
        net.apply(addr, outs);
    }
    // Messages sent per node-second, by kind. Stabilization (2/s) and FOF
    // refreshes (1/s) ask for neighbors. A stabilization notifies only a
    // successor whose reply does not already name us, so a settled ring
    // sends no notify. The predecessor's own stabilization is its
    // heartbeat, so it is pinged only when it has gone quiet; the pings
    // left are the keepalives to the stalest neighbour, once a second. A
    // finger fix inside the successor's arc resolves from stabilization,
    // so lookups are the fixes beyond it and their forwarding hops.
    let budget = [
        ("get_neighbors", "3.00"),
        ("neighbors", "3.00"),
        ("notify", "0.00"),
        ("ping", "1.00"),
        ("pong", "1.00"),
        ("find_successor", "0.79"),
        ("found_successor", "0.62"),
    ];
    // The window starts once every cursor has started its cycle and the
    // last starters' lookups have drained.
    let window_from = cycle * cfg.fix_fingers_ms + 2_000;
    let sent = |net: &SimNet<ChordNode>| {
        let mut all = libdat::chord::Metrics::default();
        for (_, node) in net.iter_nodes() {
            all.merge(node.metrics());
        }
        budget.map(|(kind, _)| all.sent_of(kind))
    };
    net.run_for(window_from);
    let before = sent(&net);
    net.run_for(30_000 - window_from);
    let after = sent(&net);
    let node_seconds = 512.0 * (30_000 - window_from) as f64 / 1_000.0;
    let rates: Vec<(&str, String)> = budget
        .iter()
        .zip(before.iter().zip(&after))
        .map(|(&(kind, _), (b, a))| (kind, format!("{:.2}", (a - b) as f64 / node_seconds)))
        .collect();
    assert_eq!(
        rates,
        budget.map(|(kind, rate)| (kind, rate.to_string())),
        "maintenance messages sent per node-second, by kind"
    );
    assert_eq!(net.clamped_events(), 0);
    let traffic: Vec<(u64, u64)> = net
        .addrs()
        .iter()
        .map(|&a| {
            let s = net.link_stats(a);
            (s.sent, s.delivered)
        })
        .collect();
    let (mut retransmits, mut timeouts) = (0, 0);
    for (_, node) in net.iter_nodes() {
        retransmits += node.metrics().retransmits;
        timeouts += node.metrics().timeouts;
    }
    assert_eq!(
        (retransmits, timeouts),
        (0, 0),
        "a healthy ring lost a request"
    );
    assert_eq!(
        libdat::obs::fnv1a(format!("{traffic:?}").as_bytes()),
        0xe185_3881_e234_8447,
        "fault-free maintenance traffic moved"
    );
}

/// DAT continuous aggregation on a 512-node probed ring, four keys, jittery
/// but lossless links, 30 virtual seconds: once with Chord maintenance
/// quiet, once at its default periods. Returns the FNV of every node's
/// `(sent, delivered)` and of every root report from epoch 7 on as
/// `(key, epoch, count, sum bits, seq)`. Epochs 2-6 are warm-up (with
/// default maintenance one tree still lacks two nodes at epoch 6): which
/// of two same-millisecond events runs first may move them, never a
/// message.
fn dat_traffic(quiet: bool) -> (u64, u64) {
    const QUIET_MS: u64 = 600_000;
    let seed = 1;
    let space = IdSpace::new(40);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let ring = StaticRing::build(space, 512, IdPolicy::Probed, &mut rng);
    let ccfg = if quiet {
        ChordConfig {
            space,
            stabilize_ms: QUIET_MS,
            fix_fingers_ms: QUIET_MS,
            check_pred_ms: QUIET_MS,
            ..ChordConfig::default()
        }
    } else {
        ChordConfig {
            space,
            ..ChordConfig::default()
        }
    };
    let dcfg = DatConfig {
        scheme: RoutingScheme::Balanced,
        d0_hint: Some(ring.d0()),
        ..DatConfig::default()
    };
    let mut net = prestabilized_dat(&ring, ccfg, dcfg, seed);
    net.set_latency(LatencyModel::Uniform { lo: 2, hi: 40 });
    for (i, addr) in net.addrs().into_iter().enumerate() {
        let node = net.node_mut(addr).unwrap();
        for (k, name) in ["cpu-usage", "mem-free", "disk-io", "net-rx"]
            .into_iter()
            .enumerate()
        {
            let key = node.register(name, AggregationMode::Continuous);
            node.set_local(key, (i * 7 + k) as f64);
        }
    }
    net.run_for(30_000);
    let traffic: Vec<(u64, u64)> = net
        .addrs()
        .iter()
        .map(|&a| {
            let s = net.link_stats(a);
            (s.sent, s.delivered)
        })
        .collect();
    let mut reports = Vec::new();
    for addr in net.addrs() {
        for e in net.node_mut(addr).unwrap().take_events() {
            if let DatEvent::Report {
                key,
                epoch,
                partial,
                completeness,
            } = e
            {
                if epoch >= 7 {
                    reports.push((
                        key.0,
                        epoch,
                        partial.count,
                        partial.sum.to_bits(),
                        completeness.seq,
                    ));
                }
            }
        }
    }
    reports.sort_unstable();
    assert_eq!(reports.len(), 4 * 23, "one report per key per epoch 7..=29");
    (
        libdat::obs::fnv1a(format!("{traffic:?}").as_bytes()),
        libdat::obs::fnv1a(format!("{reports:?}").as_bytes()),
    )
}

/// The DAT path's traffic and its steady-state reports are pinned, with
/// maintenance quiet and at its default periods: how a node schedules its
/// epoch ticks, hold flushes and query windows may change the event count,
/// never a message or a report.
#[test]
fn dat_traffic_is_pinned() {
    assert_eq!(
        dat_traffic(true),
        (0x5c1d_82ca_017a_8b44, 0x818d_d07a_09ee_aa40),
        "DAT traffic with quiet maintenance moved"
    );
    assert_eq!(
        dat_traffic(false),
        (0xe73d_0cc4_c5e8_16e9, 0x818d_d07a_09ee_aa40),
        "DAT traffic with default maintenance moved"
    );
}
