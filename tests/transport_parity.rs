//! Integration: transport parity — the identical 8-node scenario (live
//! joins, continuous DAT aggregation, an on-demand query, MAAN register +
//! range discovery, all on the same `StackNode`s) yields the same answers
//! whether the stack runs over the discrete-event simulator, over real
//! loopback UDP driven by the blocking thread-per-node reactor, or over
//! the async tokio host. This is the paper's §5.1 claim ("both RPC-based
//! and simulator-based setups … have the consistent results") for the
//! whole protocol stack, not just the DAT — three-way, since the repo now
//! carries three `Actor` hosts.

use std::time::{Duration, Instant};

use libdat::chord::{
    ChordConfig, HealthConfig, Id, IdSpace, NodeAddr, NodeStatus, Output, SuspicionLevel,
};
use libdat::cluster::ClusterHost;
use libdat::core::{
    AggFunc, AggregationMode, DatConfig, DatEvent, DatProtocol, StackNode, DAT_PROTO,
};
use libdat::maan::{MaanEvent, MaanProtocol, MaanStack, Resource};
use libdat::monitor::grid_schemas;
use libdat::obs::{fnv1a, Event, EventKind};
use libdat::rpc::{RpcCluster, TransportStats};
use libdat::sim::{CorruptMode, FaultPlan, LinkFault, SimNet};
use rand::{Rng, SeedableRng};

const N: usize = 8;

/// The slice of host API the parity scenario needs, so the same UDP leg
/// runs unchanged over the blocking reactor and the tokio host. Both real
/// transports expose the identical surface — that sameness is itself part
/// of the parity claim.
trait UdpHost: Sized {
    /// Human label for assertion messages.
    const NAME: &'static str;
    fn launch(nodes: Vec<StackNode>) -> std::io::Result<Self>;
    fn call<R, F>(&self, addr: NodeAddr, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut StackNode) -> (R, Vec<Output>) + Send + 'static;
    fn cast<F>(&self, addr: NodeAddr, f: F)
    where
        F: FnOnce(&mut StackNode) -> Vec<Output> + Send + 'static;
    fn send_raw(&self, from: NodeAddr, to: NodeAddr, bytes: &[u8]) -> std::io::Result<()>;
    fn transport_stats(&self) -> TransportStats;
    /// `(decode_errors, sum over per-kind counters)` — the two must agree.
    fn decode_error_counts(&self) -> (u64, u64) {
        let stats = self.transport_stats();
        (
            stats.decode_errors,
            stats.decode_errors_by_kind.iter().sum(),
        )
    }
    fn stop(self);
}

impl UdpHost for RpcCluster<StackNode> {
    const NAME: &'static str = "threads";
    fn launch(nodes: Vec<StackNode>) -> std::io::Result<Self> {
        RpcCluster::launch(nodes)
    }
    fn call<R, F>(&self, addr: NodeAddr, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut StackNode) -> (R, Vec<Output>) + Send + 'static,
    {
        RpcCluster::call(self, addr, f)
    }
    fn cast<F>(&self, addr: NodeAddr, f: F)
    where
        F: FnOnce(&mut StackNode) -> Vec<Output> + Send + 'static,
    {
        RpcCluster::cast(self, addr, f)
    }
    fn send_raw(&self, from: NodeAddr, to: NodeAddr, bytes: &[u8]) -> std::io::Result<()> {
        RpcCluster::send_raw(self, from, to, bytes)
    }
    fn transport_stats(&self) -> TransportStats {
        self.stats()
    }
    fn stop(self) {
        self.shutdown();
    }
}

impl UdpHost for ClusterHost<StackNode> {
    const NAME: &'static str = "tokio";
    fn launch(nodes: Vec<StackNode>) -> std::io::Result<Self> {
        ClusterHost::launch(nodes)
    }
    fn call<R, F>(&self, addr: NodeAddr, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut StackNode) -> (R, Vec<Output>) + Send + 'static,
    {
        ClusterHost::call(self, addr, f)
    }
    fn cast<F>(&self, addr: NodeAddr, f: F)
    where
        F: FnOnce(&mut StackNode) -> Vec<Output> + Send + 'static,
    {
        ClusterHost::cast(self, addr, f)
    }
    fn send_raw(&self, from: NodeAddr, to: NodeAddr, bytes: &[u8]) -> std::io::Result<()> {
        ClusterHost::send_raw(self, from, to, bytes)
    }
    fn transport_stats(&self) -> TransportStats {
        self.stats()
    }
    fn stop(self) {
        self.shutdown();
    }
}

fn chord_cfg() -> ChordConfig {
    ChordConfig {
        space: IdSpace::new(40),
        stabilize_ms: 100,
        fix_fingers_ms: 50,
        check_pred_ms: 300,
        req_timeout_ms: 1_000,
        probe_on_join: false,
        ..ChordConfig::default()
    }
}

fn dat_cfg() -> DatConfig {
    DatConfig {
        epoch_ms: 300,
        query_window_ms: 400,
        ..DatConfig::default()
    }
}

/// The scenario's nodes, identical for both transports: node `i` holds
/// cpu-usage `10·i` and advertises a machine with cpu-speed `i` GHz.
fn build_nodes() -> (Vec<StackNode>, Id) {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0xBEEF);
    let mut nodes = Vec::with_capacity(N);
    for i in 0..N {
        let id = Id(rng.random());
        let mut node = StackNode::new(chord_cfg(), id, NodeAddr(i as u64))
            .with_app(DatProtocol::new(dat_cfg()))
            .with_app(MaanProtocol::new(grid_schemas()));
        let key = node.register("cpu-usage", AggregationMode::Continuous);
        node.set_local(key, (i * 10) as f64);
        nodes.push(node);
    }
    let key = libdat::chord::hash_to_id(chord_cfg().space, b"cpu-usage");
    (nodes, key)
}

fn resource(i: usize) -> Resource {
    Resource::new(&format!("grid://node-{i}")).with("cpu-speed", i as f64)
}

/// What both transports must agree on.
#[derive(Debug, PartialEq)]
struct Answers {
    dat_count: u64,
    dat_sum: f64,
    discovered: Vec<String>,
    /// Order-insensitive digest of the on-demand query's causal trace.
    query_digest: u64,
    /// Canonical per-node health-plane + inbox-shed bytes (sorted by node
    /// id): both transports must agree on every neighbor's suspicion level
    /// and on every shed counter, byte for byte.
    health_shed: Vec<Vec<u8>>,
}

/// Canonical health/shed snapshot for one node: its id, then for every
/// routed neighbor (predecessor + successor list, sorted, deduped) the
/// neighbor's id and coarse suspicion level, then the engine's shed
/// counters. Raw phi values differ across transports (wall-clock vs
/// virtual timing), so only the coarse level is encoded — and in this
/// benign scenario it must be Healthy everywhere with zero sheds; the
/// parity claim is that the failure detector and the inbox accounting
/// reach the identical state over the simulator and over real UDP.
fn health_shed_snapshot(node: &StackNode) -> (u64, Vec<u8>) {
    let chord = node.chord();
    let mut peers: Vec<Id> = chord
        .table()
        .successor_list()
        .iter()
        .map(|r| r.id)
        .collect();
    if let Some(p) = chord.table().predecessor() {
        peers.push(p.id);
    }
    peers.sort_unstable();
    peers.dedup();
    let me = node.me().id.0;
    let mut buf = me.to_le_bytes().to_vec();
    for p in peers {
        buf.extend_from_slice(&p.0.to_le_bytes());
        buf.push(match chord.health().peek(p) {
            SuspicionLevel::Healthy => 0,
            SuspicionLevel::Suspect => 1,
            SuspicionLevel::Quarantined => 2,
        });
    }
    buf.extend_from_slice(&node.shed_count(DAT_PROTO).to_le_bytes());
    buf.extend_from_slice(&node.stats_shed_count().to_le_bytes());
    (me, buf)
}

/// Digest the query's receive-side trace: which node received which kind
/// of query-path message, as a set. `reqid` is each transport's own trace
/// id for the query, so it filters but is NOT hashed (the two transports
/// allocate reqids independently); `from` and multiplicity are also
/// excluded, since UDP may duplicate datagrams where the simulator never
/// does. What's left — the set of `(node, kind)` pairs the query touched —
/// is exactly the causal footprint both transports must share.
fn query_digest(reqid: u64, per_node: &[(u64, Vec<Event>)]) -> u64 {
    let mut set = std::collections::BTreeSet::new();
    for (me, events) in per_node {
        for e in events {
            if e.trace_id != reqid {
                continue;
            }
            if let EventKind::Recv { kind, .. } = &e.kind {
                if matches!(*kind, "dat_query" | "dat_request" | "dat_result") {
                    set.insert((*me, *kind));
                }
            }
        }
    }
    assert!(
        set.len() > 2,
        "query trace touched only {} (node, kind) pairs: {set:?}",
        set.len()
    );
    set.iter().fold(0u64, |acc, (me, kind)| {
        let mut buf = me.to_le_bytes().to_vec();
        buf.extend_from_slice(kind.as_bytes());
        acc.wrapping_add(fnv1a(&buf))
    })
}

fn run_in_simulator() -> Answers {
    let (mut nodes, key) = build_nodes();
    let mut net: SimNet<StackNode> = SimNet::new(7);
    let bootstrap = nodes[0].me();
    let outs = nodes[0].start_create();
    let mut queued = vec![(NodeAddr(0), outs)];
    for (i, node) in nodes.iter_mut().enumerate().skip(1) {
        queued.push((NodeAddr(i as u64), node.start_join(bootstrap)));
    }
    for node in nodes {
        net.add_node(node);
    }
    for (addr, outs) in queued {
        net.apply(addr, outs);
    }
    net.run_for(20_000); // joins + stabilization + DAT warm-up

    // Every node advertises its machine.
    for i in 0..N {
        let res = resource(i);
        net.with_node(NodeAddr(i as u64), |n| ((), n.maan_register(&res)));
    }
    net.run_for(5_000);

    // On-demand aggregate query from node 3.
    let asker = NodeAddr(3);
    let reqid = net.with_node(asker, |n| n.query(key)).unwrap();
    net.run_for(5_000);
    let partial = net
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
        .expect("sim query completes");

    // Snapshot every node's DAT trace right away, before later traffic
    // ages the rings.
    let traces: Vec<(u64, Vec<Event>)> = net
        .addrs()
        .iter()
        .map(|&a| {
            let n = net.node_mut(a).unwrap();
            let me = n.me().id.0;
            let evs = n
                .app_mut::<DatProtocol>()
                .metrics_mut()
                .tracer()
                .events()
                .collect();
            (me, evs)
        })
        .collect();
    let query_digest = query_digest(reqid, &traces);

    // MAAN discovery from node 5: machines with 2..=5 GHz.
    let qid = net
        .with_node(NodeAddr(5), |n| n.maan_range_query("cpu-speed", 2.0, 5.0))
        .unwrap();
    net.run_for(5_000);
    let mut discovered: Vec<String> = net
        .node_mut(NodeAddr(5))
        .unwrap()
        .take_maan_events()
        .into_iter()
        .find_map(|e| match e {
            MaanEvent::QueryDone { qid: q, hits } if q == qid => Some(hits),
            _ => None,
        })
        .expect("sim discovery completes")
        .into_iter()
        .map(|r| r.uri)
        .collect();
    discovered.sort();

    let mut health_shed: Vec<(u64, Vec<u8>)> = net
        .addrs()
        .iter()
        .map(|&a| health_shed_snapshot(net.node(a).expect("sim node alive")))
        .collect();
    health_shed.sort();

    Answers {
        dat_count: partial.count,
        dat_sum: partial.finalize(AggFunc::Sum),
        discovered,
        query_digest,
        health_shed: health_shed.into_iter().map(|(_, b)| b).collect(),
    }
}

/// Wait for every node to be active with a closed successor ring.
fn wait_udp_ring<H: UdpHost>(cluster: &H) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let mut infos = Vec::new();
        for i in 0..N {
            if let Some(v) = cluster.call(NodeAddr(i as u64), |node| {
                (
                    (
                        node.status(),
                        node.me().id,
                        node.chord().table().successor().map(|s| s.id),
                    ),
                    vec![],
                )
            }) {
                infos.push(v);
            }
        }
        if infos.len() == N && infos.iter().all(|(s, _, _)| *s == NodeStatus::Active) {
            let mut ids: Vec<Id> = infos.iter().map(|(_, id, _)| *id).collect();
            ids.sort_unstable();
            let ring_ok = infos.iter().all(|(_, id, succ)| {
                let pos = ids.iter().position(|x| x == id).unwrap();
                *succ == Some(ids[(pos + 1) % N])
            });
            if ring_ok {
                break;
            }
        }
        assert!(Instant::now() < deadline, "UDP ring did not converge");
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn run_over_udp<H: UdpHost>() -> Answers {
    let (nodes, key) = build_nodes();
    let cluster = H::launch(nodes).expect("bind loopback sockets");
    let bootstrap = cluster
        .call(NodeAddr(0), |node| (node.me(), node.start_create()))
        .unwrap();
    for i in 1..N {
        cluster.cast(NodeAddr(i as u64), move |node| node.start_join(bootstrap));
        std::thread::sleep(Duration::from_millis(50));
    }
    wait_udp_ring(&cluster);

    for i in 0..N {
        let res = resource(i);
        cluster.cast(NodeAddr(i as u64), move |node| node.maan_register(&res));
    }
    std::thread::sleep(Duration::from_millis(800)); // registrations + DAT warm-up

    let asker = NodeAddr(3);
    let reqid = cluster.call(asker, move |node| node.query(key)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let partial = loop {
        let found = cluster
            .call(asker, |node| (node.take_events(), vec![]))
            .unwrap_or_default()
            .into_iter()
            .find_map(|e| match e {
                DatEvent::QueryDone {
                    reqid: r, partial, ..
                } if r == reqid => Some(partial),
                _ => None,
            });
        if let Some(p) = found {
            break p;
        }
        assert!(Instant::now() < deadline, "UDP on-demand query timed out");
        std::thread::sleep(Duration::from_millis(50));
    };

    // Snapshot the DAT traces immediately, mirroring the sim run.
    let mut traces: Vec<(u64, Vec<Event>)> = Vec::with_capacity(N);
    for i in 0..N {
        let snap = cluster
            .call(NodeAddr(i as u64), |node| {
                let me = node.me().id.0;
                let evs: Vec<Event> = node
                    .app_mut::<DatProtocol>()
                    .metrics_mut()
                    .tracer()
                    .events()
                    .collect();
                ((me, evs), vec![])
            })
            .expect("trace snapshot");
        traces.push(snap);
    }
    let query_digest = query_digest(reqid, &traces);

    let qid = cluster
        .call(NodeAddr(5), |node| {
            node.maan_range_query("cpu-speed", 2.0, 5.0)
        })
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut discovered = loop {
        let found = cluster
            .call(NodeAddr(5), |node| (node.take_maan_events(), vec![]))
            .unwrap_or_default()
            .into_iter()
            .find_map(|e| match e {
                MaanEvent::QueryDone { qid: q, hits } if q == qid => Some(hits),
                _ => None,
            });
        if let Some(hits) = found {
            break hits.into_iter().map(|r| r.uri).collect::<Vec<_>>();
        }
        assert!(Instant::now() < deadline, "UDP discovery timed out");
        std::thread::sleep(Duration::from_millis(50));
    };
    discovered.sort();

    let mut health_shed: Vec<(u64, Vec<u8>)> = Vec::with_capacity(N);
    for i in 0..N {
        let snap = cluster
            .call(NodeAddr(i as u64), |node| {
                (health_shed_snapshot(node), vec![])
            })
            .expect("health snapshot");
        health_shed.push(snap);
    }
    health_shed.sort();

    let (decode_errors, _) = cluster.decode_error_counts();
    assert_eq!(decode_errors, 0, "{} leg saw decode errors", H::NAME);
    cluster.stop();
    Answers {
        dat_count: partial.count,
        dat_sum: partial.finalize(AggFunc::Sum),
        discovered,
        query_digest,
        health_shed: health_shed.into_iter().map(|(_, b)| b).collect(),
    }
}

/// Coarse containment verdict both transports must reach after the same
/// hostile-wire episode: one peer whose frames keep arriving damaged.
/// Exact counter values differ (wall-clock vs virtual timing drive
/// different traffic volumes), so the parity claim is the *state machine's
/// trajectory*: damage detected → source suspected → flapping quarantined →
/// quarantine served and released → overlay answers exactly again.
#[derive(Debug, PartialEq)]
struct HostileVerdict {
    /// The victim counted undecodable frames (`bad_frames_total`).
    detected: bool,
    /// Bad-frame scoring escalated the source to the failure detector.
    suspected: bool,
    /// The flapping source was quarantined at least once.
    quarantined: bool,
    /// The quarantine was later served and released.
    rejoined: bool,
    /// After the episode the victim again trusts the attacker.
    attacker_finally_healthy: bool,
    /// Contributors to a post-episode on-demand aggregate: the overlay
    /// must answer exactly (all `N` nodes) once the wire is clean.
    query_count: u64,
}

/// Short quarantine so the release leg fits a wall-clock UDP test.
fn hostile_health_cfg() -> HealthConfig {
    HealthConfig {
        quarantine_ms: 2_000,
        flap_window_ms: 60_000,
    }
}

fn hostile_verdict(node: &StackNode, attacker: Id, query_count: u64) -> HostileVerdict {
    let health = node.chord().health();
    HostileVerdict {
        detected: node.bad_frames_total() > 0,
        suspected: node.bad_frame_suspects() > 0,
        quarantined: health.quarantines >= 1,
        rejoined: health.rejoins >= 1,
        attacker_finally_healthy: health.peek(attacker) == SuspicionLevel::Healthy,
        query_count,
    }
}

fn hostile_in_simulator() -> HostileVerdict {
    let (mut nodes, key) = build_nodes();
    for n in &mut nodes {
        n.set_health_config(hostile_health_cfg());
    }
    let mut net: SimNet<StackNode> = SimNet::new(11);
    let bootstrap = nodes[0].me();
    let outs = nodes[0].start_create();
    let mut queued = vec![(NodeAddr(0), outs)];
    for (i, node) in nodes.iter_mut().enumerate().skip(1) {
        queued.push((NodeAddr(i as u64), node.start_join(bootstrap)));
    }
    for node in nodes {
        net.add_node(node);
    }
    for (addr, outs) in queued {
        net.apply(addr, outs);
    }
    net.run_for(20_000); // joins + stabilization + DAT warm-up

    let victim = NodeAddr(0);
    let attacker = net
        .node(victim)
        .and_then(|n| n.chord().table().successor())
        .expect("victim has a successor");
    // 90% of the successor's frames arrive as garbage for 15 s: enough
    // survivors keep heartbeats trickling, so the victim sees the
    // Suspect↔recover flapping that the detector turns into quarantine.
    let garbage = LinkFault {
        corrupt: Some((0.9, CorruptMode::Garbage)),
        ..LinkFault::default()
    };
    net.set_fault_plan(FaultPlan::new().link_at(21_000, attacker.addr, victim, garbage, 15_000));
    net.run_for(31_000); // episode + quarantine expiry + clean recovery

    let reqid = net.with_node(victim, |n| n.query(key)).expect("sim query");
    let mut count = 0;
    for _ in 0..3 {
        net.run_for(5_000);
        let done = net
            .node_mut(victim)
            .expect("victim alive")
            .take_events()
            .into_iter()
            .find_map(|e| match e {
                DatEvent::QueryDone {
                    reqid: r, partial, ..
                } if r == reqid => Some(partial.count),
                _ => None,
            });
        if let Some(c) = done {
            count = c;
            break;
        }
    }
    assert!(net.corruption.injected > 0, "sim episode injected nothing");
    assert!(net.corruption.rejected > 0, "sim checksum rejected nothing");
    hostile_verdict(net.node(victim).expect("victim alive"), attacker.id, count)
}

fn hostile_over_udp<H: UdpHost>() -> HostileVerdict {
    let (mut nodes, key) = build_nodes();
    for n in &mut nodes {
        n.set_health_config(hostile_health_cfg());
    }
    let cluster = H::launch(nodes).expect("bind loopback sockets");
    let bootstrap = cluster
        .call(NodeAddr(0), |node| (node.me(), node.start_create()))
        .unwrap();
    for i in 1..N {
        cluster.cast(NodeAddr(i as u64), move |node| node.start_join(bootstrap));
        std::thread::sleep(Duration::from_millis(50));
    }
    wait_udp_ring(&cluster);

    let victim = NodeAddr(0);
    let attacker = cluster
        .call(victim, |node| (node.chord().table().successor(), vec![]))
        .unwrap()
        .expect("victim has a successor");

    // Damage bursts from the attacker's own socket, each wide enough to
    // cross the scoring threshold (one Suspect episode). The attacker's
    // genuine heartbeats between bursts recover it — and that flapping
    // cadence is exactly what the detector quarantines.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let quarantines = cluster
            .call(victim, |n| (n.chord().health().quarantines, vec![]))
            .unwrap();
        if quarantines >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "UDP quarantine never fired");
        for _ in 0..4 {
            cluster
                .send_raw(attacker.addr, victim, b"\xFFdamaged beyond recognition")
                .unwrap();
        }
        std::thread::sleep(Duration::from_millis(500));
    }

    // Attack over. The quarantine must be served and released on the
    // strength of the attacker's now-clean traffic alone.
    let attacker_id = attacker.id;
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let (rejoins, level) = cluster
            .call(victim, move |n| {
                (
                    (
                        n.chord().health().rejoins,
                        n.chord().health().peek(attacker_id),
                    ),
                    vec![],
                )
            })
            .unwrap();
        if rejoins >= 1 && level == SuspicionLevel::Healthy {
            break;
        }
        assert!(Instant::now() < deadline, "quarantined peer never rejoined");
        std::thread::sleep(Duration::from_millis(100));
    }
    std::thread::sleep(Duration::from_millis(2_000)); // ring re-stabilizes

    // Post-episode exactness: retry until the on-demand aggregate counts
    // every node again (eventual healing is the claim on a wall clock).
    let deadline = Instant::now() + Duration::from_secs(20);
    let count = loop {
        let reqid = cluster
            .call(victim, move |node| node.query(key))
            .expect("UDP query");
        let inner = Instant::now() + Duration::from_secs(10);
        let done = loop {
            let found = cluster
                .call(victim, |node| (node.take_events(), vec![]))
                .unwrap_or_default()
                .into_iter()
                .find_map(|e| match e {
                    DatEvent::QueryDone {
                        reqid: r, partial, ..
                    } if r == reqid => Some(partial.count),
                    _ => None,
                });
            if let Some(c) = found {
                break c;
            }
            assert!(Instant::now() < inner, "UDP post-episode query timed out");
            std::thread::sleep(Duration::from_millis(50));
        };
        if done == N as u64 || Instant::now() >= deadline {
            break done;
        }
        std::thread::sleep(Duration::from_millis(500));
    };

    let (decode_errors, by_kind_sum) = cluster.decode_error_counts();
    assert!(decode_errors > 0, "no damage ever reached the wire");
    assert_eq!(
        decode_errors,
        by_kind_sum,
        "{} leg: per-kind classification leaks",
        H::NAME
    );
    let verdict = cluster
        .call(victim, move |n| {
            // Transport decode failures must surface in the node's own
            // metric export (the same text StatsReply ships).
            let prom = n.render_prometheus();
            assert!(
                prom.contains("bad_frames_total{kind=\"bad_magic\"}"),
                "bad_frames_total missing from the victim's exposition"
            );
            (hostile_verdict(n, attacker_id, count), vec![])
        })
        .expect("verdict snapshot");
    cluster.stop();
    verdict
}

/// §5.1 parity under fire: the identical hostile-wire episode (a ring
/// neighbor whose frames arrive damaged) must drive the identical
/// containment trajectory over the simulator, the blocking UDP reactor,
/// and the tokio host.
#[test]
fn hostile_wire_containment_agrees_across_transports() {
    let sim = hostile_in_simulator();
    let threads = hostile_over_udp::<RpcCluster<StackNode>>();
    assert_eq!(
        sim, threads,
        "simulator and blocking UDP reactor disagree on containment"
    );
    let tokio = hostile_over_udp::<ClusterHost<StackNode>>();
    assert_eq!(
        sim, tokio,
        "simulator and tokio host disagree on containment"
    );
    assert!(sim.detected, "damage went uncounted");
    assert!(sim.suspected, "scoring never escalated the source");
    assert!(sim.quarantined, "the flapping source was never quarantined");
    assert!(sim.rejoined, "the quarantine was never released");
    assert!(sim.attacker_finally_healthy, "trust was never restored");
    assert_eq!(sim.query_count, N as u64, "post-episode answer not exact");
}

#[test]
fn simulator_and_udp_cluster_agree() {
    let sim = run_in_simulator();
    let udp = run_over_udp::<RpcCluster<StackNode>>();
    // All transports ran two protocols on the same nodes and must agree
    // on every answer.
    assert_eq!(sim.dat_count as usize, N);
    assert_eq!(sim.dat_sum, (0..N).map(|i| (i * 10) as f64).sum::<f64>());
    assert_eq!(
        sim.discovered,
        vec![
            "grid://node-2",
            "grid://node-3",
            "grid://node-4",
            "grid://node-5"
        ]
    );
    // Benign scenario: the agreed health state must be the all-healthy
    // one — no neighbor suspected over either transport, nothing shed.
    assert_eq!(sim.health_shed.len(), N);
    for buf in &sim.health_shed {
        let (peers, sheds) = buf[8..].split_at(buf.len() - 8 - 16);
        assert!(
            peers.chunks(9).all(|c| c[8] == 0),
            "spurious suspicion in snapshot {buf:?}"
        );
        assert!(
            sheds.iter().all(|b| *b == 0),
            "spurious shed in snapshot {buf:?}"
        );
    }
    assert_eq!(sim, udp, "simulator and blocking UDP reactor disagree");
    let tokio = run_over_udp::<ClusterHost<StackNode>>();
    assert_eq!(sim, tokio, "simulator and tokio host disagree");
}
