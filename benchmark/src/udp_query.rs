//! Workloads `udp_query_tokio` and `udp_query_threads`: on-demand
//! aggregate queries over real UDP sockets on loopback, the same
//! generator and checks on both real hosts.
//!
//! 256 nodes, one socket each, tables installed pre-stabilized,
//! maintenance and the epoch timer quiet, `query_window_ms` so long that
//! a window can only close early on real loss. Closed loop, one client,
//! one query outstanding: `call(asker, query(key))`, then poll the
//! asker's events until `QueryDone`. One op is one query: the request is
//! routed to the key's root, fans out to all n nodes, the responses merge
//! back up and the result returns to the asker. A query completes on its
//! last response, never on a timer, so the figure follows the codec, the
//! host and the engine rather than a configured period.

use std::time::{Duration, Instant};

use dat_chord::{
    ChordConfig, FingerTable, Id, IdPolicy, IdSpace, NodeAddr, Output, RoutingScheme, StaticRing,
};
use dat_cluster::{ClusterHost, HostConfig};
use dat_core::{AggFunc, AggregationMode, DatConfig, DatEvent, DatProtocol, StackNode, DAT_PROTO};
use dat_rpc::{ClusterConfig, RpcCluster};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::probe::{ratio, NodeTrace, Probe, TraceCtx, Traced};
use crate::procstat;
use crate::run::{
    distinct_root_keys, mix, scheduled_value, timed_setups, Args, MsgCounts, OpLog, Report,
};
use crate::stats;

const NODES: usize = 256;
const KEYS: usize = 4;
const BITS: u8 = 40;
const QUIET_MS: u64 = 600_000;
const QUERY_WINDOW_MS: u64 = 60_000;
const WARMUP_QUERIES: usize = 20;
const POLL: Duration = Duration::from_micros(250);
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);
const SETUP_REPEATS: usize = 5;
/// 1500 to 2800 queries fit a run; p90 has a hundred samples beyond it on
/// either host. (p99 would qualify on the faster host only, and moves
/// 2x between identical runs; the traced run reports it unbounded.)
const TAIL_Q: f64 = 0.9;
/// Queries whose spans the traced pass keeps one by one (~800 rows each).
const SPAN_OPS: u32 = 100;
const RTT_PROBES: usize = 200;
/// `DatProtocol` keeps one `QueryState` per query per node for good, so
/// resident memory grows with every query. Reading it at a fixed query
/// (both hosts pass it well inside a run) compares memory at equal work
/// instead of charging the faster host for the queries it got through.
const RSS_AT_OP: u64 = 1000;

fn nodes(quick: bool) -> usize {
    if quick {
        NODES / 4
    } else {
        NODES
    }
}

/// Transport counters both hosts keep, in one shape.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    sent: u64,
    received: u64,
    decode_errors: u64,
    shed: u64,
    socket_errors: u64,
}

/// The two real hosts behind one face. Only what the generator uses.
pub trait UdpHost<A: dat_chord::Actor>: Sized {
    const LABEL: &'static str;
    fn launch(actors: Vec<A>) -> std::io::Result<Self>;
    fn cast<F>(&self, addr: NodeAddr, f: F)
    where
        F: FnOnce(&mut A) -> Vec<Output> + Send + 'static;
    fn call<R, F>(&self, addr: NodeAddr, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut A) -> (R, Vec<Output>) + Send + 'static;
    fn counters(&self) -> Counters;
    fn shutdown(self) -> Vec<A>;
}

impl<A: dat_chord::Actor> UdpHost<A> for ClusterHost<A> {
    const LABEL: &'static str = "ClusterHost (tokio shim)";
    fn launch(actors: Vec<A>) -> std::io::Result<Self> {
        ClusterHost::launch_with(actors, HostConfig::default())
    }
    fn cast<F>(&self, addr: NodeAddr, f: F)
    where
        F: FnOnce(&mut A) -> Vec<Output> + Send + 'static,
    {
        ClusterHost::cast(self, addr, f);
    }
    fn call<R, F>(&self, addr: NodeAddr, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut A) -> (R, Vec<Output>) + Send + 'static,
    {
        ClusterHost::call(self, addr, f)
    }
    fn counters(&self) -> Counters {
        let s = self.stats();
        Counters {
            sent: s.sent,
            received: s.received,
            decode_errors: s.decode_errors,
            shed: s.shed_rx + s.shed_tx,
            socket_errors: s.socket_recv_errors + s.socket_send_errors,
        }
    }
    fn shutdown(self) -> Vec<A> {
        ClusterHost::shutdown(self)
    }
}

impl<A: dat_chord::Actor> UdpHost<A> for RpcCluster<A> {
    const LABEL: &'static str = "RpcCluster (2 threads per node)";
    fn launch(actors: Vec<A>) -> std::io::Result<Self> {
        RpcCluster::launch_with(actors, ClusterConfig::default())
    }
    fn cast<F>(&self, addr: NodeAddr, f: F)
    where
        F: FnOnce(&mut A) -> Vec<Output> + Send + 'static,
    {
        RpcCluster::cast(self, addr, f);
    }
    fn call<R, F>(&self, addr: NodeAddr, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut A) -> (R, Vec<Output>) + Send + 'static,
    {
        RpcCluster::call(self, addr, f)
    }
    fn counters(&self) -> Counters {
        let s = self.stats();
        Counters {
            sent: s.sent,
            received: s.received,
            decode_errors: s.decode_errors,
            // Unbounded channels: this host has nothing to shed.
            shed: 0,
            socket_errors: s.socket_recv_errors + s.socket_send_errors,
        }
    }
    fn shutdown(self) -> Vec<A> {
        RpcCluster::shutdown(self)
    }
}

struct Fleet<P: Probe<Inner = StackNode>, H: UdpHost<P>> {
    host: H,
    n: usize,
    keys: Vec<Id>,
    /// Exact sum over all nodes per key.
    want: Vec<f64>,
    seed: u64,
    /// Queries issued so far (warm-up included): fixes asker and key.
    issued: u64,
    _actor: std::marker::PhantomData<P>,
}

impl<P: Probe<Inner = StackNode>, H: UdpHost<P>> Fleet<P, H> {
    /// Ring build, node construction with registered keys and seeded
    /// local values, launch, table install and warm-up queries to the
    /// first exact answers.
    fn build(n: usize, seed: u64, ctx: &TraceCtx) -> Result<Self, String> {
        let space = IdSpace::new(BITS);
        // Evenly spaced ids, the same ring for every seed. At n = 256 a
        // seeded ring moves the four roots relative to each other, and
        // with them the busiest node's load, by +-20 % — topology, not
        // performance. The seed still fixes values and the asker order.
        let mut rng = SmallRng::seed_from_u64(seed);
        let ring = StaticRing::build(space, n, IdPolicy::Even, &mut rng);
        let ids = ring.ids();
        let addr_of =
            |id: Id| NodeAddr(ids.binary_search(&id).expect("id is a ring member") as u64);
        let ccfg = ChordConfig {
            space,
            stabilize_ms: QUIET_MS,
            fix_fingers_ms: QUIET_MS,
            check_pred_ms: QUIET_MS,
            ..ChordConfig::default()
        };
        let dcfg = DatConfig {
            scheme: RoutingScheme::Balanced,
            epoch_ms: QUIET_MS,
            query_window_ms: QUERY_WINDOW_MS,
            d0_hint: Some(ring.d0()),
            ..DatConfig::default()
        };
        let picked = distinct_root_keys(&ring, KEYS);
        let names: Vec<&str> = picked.iter().map(|(name, _, _)| name.as_str()).collect();
        let keys: Vec<Id> = picked.iter().map(|(_, key, _)| *key).collect();
        let mut want = vec![0.0; KEYS];
        let mut actors = Vec::with_capacity(n);
        let mut tables: Vec<FingerTable> = Vec::with_capacity(n);
        for (i, &id) in ids.iter().enumerate() {
            let mut node =
                StackNode::new(ccfg, id, NodeAddr(i as u64)).with_app(DatProtocol::new(dcfg));
            for (k, name) in names.iter().enumerate() {
                let key = node.register(name, AggregationMode::Continuous);
                let v = scheduled_value(seed, i, k, 0) as f64;
                node.set_local(key, v);
                want[k] += v;
            }
            tables.push(ring.table_of_with(id, ccfg.succ_list_len, &addr_of));
            actors.push(P::wrap(node, ctx));
        }
        let host = H::launch(actors).map_err(|e| format!("launch: {e}"))?;
        for (i, table) in tables.into_iter().enumerate() {
            host.cast(NodeAddr(i as u64), move |node: &mut P| {
                node.inner_mut().start_with_table(table)
            });
        }
        let mut fleet = Fleet {
            host,
            n,
            keys,
            want,
            seed,
            issued: 0,
            _actor: std::marker::PhantomData,
        };
        for _ in 0..WARMUP_QUERIES {
            fleet
                .query()
                .map_err(|why| format!("warm-up query failed: {why}"))?;
        }
        Ok(fleet)
    }

    /// One op: issue the next query of the seeded order and wait for its
    /// answer. Returns wall milliseconds when the answer was exact.
    fn query(&mut self) -> Result<f64, String> {
        let q = self.issued;
        self.issued += 1;
        // Keys in turn and askers on a seeded odd stride (n is a power of
        // two, so the stride visits every node): every key gets the same
        // share of queries and every node asks equally often, so the
        // per-node load is the tree's shape, not sampling noise.
        let n = self.n as u64;
        let stride = (mix(self.seed ^ 1) % n) | 1;
        let asker = NodeAddr((mix(self.seed) % n + q * stride) % n);
        let k = (q % KEYS as u64) as usize;
        let key = self.keys[k];
        let t0 = Instant::now();
        let Some(reqid) = self
            .host
            .call(asker, move |node: &mut P| node.inner_mut().query(key))
        else {
            return Err(format!("query {q}: asker {} stopped answering", asker.0));
        };
        loop {
            let events = self
                .host
                .call(asker, |node: &mut P| {
                    (node.inner_mut().take_events(), vec![])
                })
                .unwrap_or_default();
            let done = events.into_iter().find_map(|e| match e {
                DatEvent::QueryDone {
                    reqid: r, partial, ..
                } if r == reqid => Some(partial),
                _ => None,
            });
            if let Some(partial) = done {
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let sum = partial.finalize(AggFunc::Sum);
                return if partial.count as usize == self.n && sum == self.want[k] {
                    Ok(ms)
                } else {
                    Err(format!(
                        "query {q}: count {} sum {sum}, want count {} sum {}",
                        partial.count, self.n, self.want[k]
                    ))
                };
            }
            if t0.elapsed() > CLIENT_TIMEOUT {
                return Err(format!(
                    "query {q} from node {} timed out after {CLIENT_TIMEOUT:?}",
                    asker.0
                ));
            }
            std::thread::sleep(POLL);
        }
    }

    /// Messages each node received so far, by its own Chord counters.
    fn received_per_node(&self) -> Vec<u64> {
        (0..self.n)
            .map(|i| {
                self.host
                    .call(NodeAddr(i as u64), |node: &mut P| {
                        (
                            node.inner_mut().chord_metrics().get("received_total"),
                            vec![],
                        )
                    })
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Median round trip of an empty `call` — the floor under every poll
    /// the generator makes.
    fn call_rtt_us(&self) -> f64 {
        let samples: Vec<f64> = (0..RTT_PROBES)
            .map(|i| {
                let t0 = Instant::now();
                self.host
                    .call(NodeAddr((i % self.n) as u64), |_: &mut P| ((), vec![]));
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        stats::median(&samples)
    }
}

struct Measured {
    log: OpLog,
    msgs: MsgCounts,
    delta: Counters,
    total: Counters,
    engine_shed: u64,
    call_rtt_us: f64,
    trace: NodeTrace,
}

/// Measure for `seconds`, then stop the host and collect what its actors
/// recorded.
fn measure<P: Probe<Inner = StackNode>, H: UdpHost<P>>(
    mut fleet: Fleet<P, H>,
    seconds: f64,
    ctx: &TraceCtx,
) -> Measured {
    let n = fleet.n;
    let call_rtt_us = fleet.call_rtt_us();
    let received0 = fleet.received_per_node();
    let before = fleet.host.counters();
    let mut log = OpLog::start(RSS_AT_OP);
    while log.wall_s() < seconds {
        ctx.set_op(log.attempted as u32 + 1);
        log.record(fleet.query());
    }
    ctx.set_op(0);
    log.finish();
    let total = fleet.host.counters();
    let busiest = fleet
        .received_per_node()
        .iter()
        .zip(&received0)
        .map(|(now, before)| now - before)
        .max()
        .unwrap_or(0);
    let ops = log.attempted.max(1) as f64;
    let delta = Counters {
        sent: total.sent - before.sent,
        received: total.received - before.received,
        ..total
    };
    let msgs = MsgCounts {
        per_node_op: delta.sent as f64 / (n as f64 * ops),
        max_node_per_op: busiest as f64 / ops,
    };

    let mut trace = NodeTrace::default();
    let mut engine_shed = 0;
    for mut actor in fleet.host.shutdown() {
        trace.merge(actor.take_trace());
        engine_shed += actor.inner_mut().shed_count(DAT_PROTO);
    }
    Measured {
        log,
        msgs,
        delta,
        total,
        engine_shed,
        call_rtt_us,
        trace,
    }
}

fn gates(report: &mut Report, m: &Measured, pass: &str) {
    let t = m.total;
    report.gate(t.decode_errors == 0, || {
        format!("{pass}: {} decode errors", t.decode_errors)
    });
    report.gate(t.socket_errors == 0, || {
        format!("{pass}: {} socket errors", t.socket_errors)
    });
    report.gate(t.shed == 0, || {
        format!("{pass}: {} transport sheds", t.shed)
    });
    report.gate(m.engine_shed == 0, || {
        format!("{pass}: {} engine sheds", m.engine_shed)
    });
}

fn describe<P: Probe<Inner = StackNode>, H: UdpHost<P>>(report: &mut Report, n: usize) {
    report.note("nodes", n);
    report.note("keys", KEYS);
    report.note("host", H::LABEL);
    report.note("network", "loopback (127.0.0.1), one UDP socket per node");
    report.note("load", "closed loop, 1 client, 1 query outstanding");
    report.note(
        "op",
        "one on-demand query: route, fan out to n, gather, result",
    );
}

/// `--trace 0`: set up [`SETUP_REPEATS`] times, measure on the last.
fn end_to_end<H: UdpHost<StackNode>>(args: &Args, quick: bool) -> Result<Report, String> {
    let n = nodes(quick);
    let ctx = TraceCtx::new(0);
    let mut report = Report::default();
    describe::<StackNode, H>(&mut report, n);
    let (setup_s, fleet) = timed_setups(
        SETUP_REPEATS,
        || Fleet::<StackNode, H>::build(n, args.seed, &ctx),
        |old| drop(old.host.shutdown()),
    )?;
    let m = measure(fleet, args.seconds, &ctx);
    gates(&mut report, &m, "timed pass");
    report.set_end_to_end(&setup_s, &m.log, m.msgs, TAIL_Q);
    report.note(
        "datagrams_per_op",
        ratio(m.delta.sent as f64, m.log.attempted as f64),
    );
    Ok(report)
}

/// `--trace 1`: a plain and a traced pass of half the length each.
fn per_layer<H, T>(args: &Args, quick: bool) -> Result<Report, String>
where
    H: UdpHost<StackNode>,
    T: UdpHost<Traced<StackNode>>,
{
    let n = nodes(quick);
    let half = args.seconds / 2.0;
    let mut report = Report::default();
    describe::<StackNode, H>(&mut report, n);

    let plain = {
        let ctx = TraceCtx::new(0);
        measure(
            Fleet::<StackNode, H>::build(n, args.seed, &ctx)?,
            half,
            &ctx,
        )
    };
    gates(&mut report, &plain, "plain pass");
    report.fail_from(&plain.log, "plain pass");

    let ctx = TraceCtx::new(SPAN_OPS);
    let fleet = Fleet::<Traced<StackNode>, T>::build(n, args.seed, &ctx)?;
    let mut traced = measure(fleet, half, &ctx);
    gates(&mut report, &traced, "traced pass");

    let ops = traced.log.attempted as f64;
    let t = &traced.trace;
    let e = traced.log.elapsed;
    // CPU budget of the traced phase: actor spans (protocol layers), the
    // generator's own thread (call path and polling), and the rest —
    // reader/writer/actor plumbing, runtime, syscalls — which is the
    // transport host, priced per datagram received.
    let cpu_ns = e.cpu_ms * 1e6;
    let gen_ns = e.gen_cpu_ms * 1e6;
    let transport_ns = (cpu_ns - gen_ns - t.actor_ns() as f64).max(0.0);
    let us_per_datagram = ratio(transport_ns / 1e3, traced.delta.received as f64);
    let datagrams_per_op = ratio(traced.delta.received as f64, ops);
    report.set_generator_layer(&traced.log);
    report.set_actor_layer(t, ops);
    report.set("core.engine.shed_total", traced.engine_shed as f64);
    report.set("transport.datagrams_per_op", datagrams_per_op);
    report.set("transport.shed_total", traced.total.shed as f64);
    report.set("transport.decode_errors", traced.total.decode_errors as f64);
    report.set("transport.socket_errors", traced.total.socket_errors as f64);
    report.set("transport.cpu_us_per_datagram", us_per_datagram);
    report.set(
        "transport.cpu_util",
        ratio(
            plain.log.elapsed.cpu_ms,
            plain.log.elapsed.wall_s * 1e3 * procstat::nproc() as f64,
        ),
    );
    report.set("transport.call_rtt_us", traced.call_rtt_us);
    let parts_ms = (datagrams_per_op * us_per_datagram * 1e3 + t.actor_ns() as f64 / ops) / 1e6;
    report.set_trace_layer(&plain.log, &traced.log, ratio(gen_ns, cpu_ns), parts_ms);
    report.note(
        "budget",
        format!(
            "{datagrams_per_op:.1} datagrams x {us_per_datagram:.2} us transport + {:.0} inputs x \
             {:.0} ns actor = {parts_ms:.2} CPU ms/op traced (+ {:.2} generator), vs \
             cpu_ms_per_op {:.2} untraced (op_wall_ms_p50 {:.2})",
            t.inputs() as f64 / ops,
            ratio(t.actor_ns() as f64, t.inputs() as f64),
            gen_ns / ops / 1e6,
            plain.log.cpu_ms_per_op(),
            plain.log.p50(),
        ),
    );
    Report::write_trace(args, &mut traced.trace)?;
    Ok(report)
}

pub fn tokio(args: &Args, quick: bool) -> Result<Report, String> {
    if args.trace {
        per_layer::<ClusterHost<StackNode>, ClusterHost<Traced<StackNode>>>(args, quick)
    } else {
        end_to_end::<ClusterHost<StackNode>>(args, quick)
    }
}

pub fn threads(args: &Args, quick: bool) -> Result<Report, String> {
    if args.trace {
        per_layer::<RpcCluster<StackNode>, RpcCluster<Traced<StackNode>>>(args, quick)
    } else {
        end_to_end::<RpcCluster<StackNode>>(args, quick)
    }
}
