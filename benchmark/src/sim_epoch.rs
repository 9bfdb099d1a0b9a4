//! Workload `sim_epoch`: continuous (push) aggregation at the paper's
//! largest size on the single-thread simulator.
//!
//! 8192 probed ids, balanced routing, four continuous aggregations with
//! four distinct roots, Chord maintenance quiet. One op is one simulated
//! epoch: the generator rewrites every node's local value for every key
//! from the seeded schedule, runs one virtual second, and checks that each
//! root reported exactly the schedule's total over all n nodes.
//!
//! Ops start half-way between two epoch ticks: the tick, the bottom-up
//! cascade (bounded by `hold_ms` = 250) and the root reports then all
//! fall inside the op that set the values, so an exact answer is exact
//! for *this* op's values. The lag is still pinned in warm-up rather than
//! assumed.

use std::collections::VecDeque;
use std::time::Instant;

use dat_chord::{ChordConfig, Id, IdPolicy, IdSpace, NodeAddr, RoutingScheme, StaticRing};
use dat_core::{AggFunc, AggregationMode, DatConfig, DatEvent, DatProtocol, StackNode, DAT_PROTO};
use dat_sim::SimNet;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::probe::{ratio, NodeTrace, Probe, TraceCtx, Traced};
use crate::procstat;
use crate::run::{
    distinct_root_keys, link_totals, scheduled_value, timed_setups, Args, CountWindow, Fnv, OpLog,
    Report, SimCounts,
};

const NODES: usize = 8192;
const KEYS: usize = 4;
const BITS: u8 = 40;
const EPOCH_MS: u64 = 1_000;
const QUIET_MS: u64 = 600_000;
const WARMUP_EPOCHS: u64 = 3;
/// Counts (messages, events, the digest) are taken over exactly this many
/// ops, which always run, so they repeat bit for bit however many ops the
/// clock allows after them.
const COUNT_OPS: u64 = 8;
const SETUP_REPEATS: usize = 3;
/// 5 to 6 ops fit a 2 s window, 60 to 70 a run: nothing beyond the median
/// has ten samples behind it, so the supported "tail" is the median itself.
const TAIL_Q: f64 = 0.5;
/// Ops whose spans the traced pass keeps one by one (~80k rows each).
const SPAN_OPS: u32 = 2;

fn nodes(quick: bool) -> usize {
    if quick {
        NODES / 8
    } else {
        NODES
    }
}

struct Fleet<P: Probe<Inner = StackNode>> {
    net: SimNet<P>,
    addrs: Vec<NodeAddr>,
    keys: Vec<Id>,
    roots: Vec<NodeAddr>,
    seed: u64,
    /// Schedule step of the next op.
    step: u64,
    /// Totals per key of the most recent steps, newest last.
    totals: VecDeque<[u64; KEYS]>,
    /// Steps between setting values and the report that carries them.
    lag: usize,
    tally: Tally,
}

/// What the generator itself accumulates over a measured phase.
#[derive(Clone, Copy, Debug)]
struct Tally {
    /// Nanoseconds in the `set_local` span, all ops.
    set_ns: u64,
    /// Nanoseconds in the `run_for` span, all ops.
    run_ns: u64,
    /// Root reports seen.
    reports: u64,
    /// Lowest completeness ratio any report carried.
    completeness_min: f64,
}

impl Tally {
    const ZERO: Tally = Tally {
        set_ns: 0,
        run_ns: 0,
        reports: 0,
        completeness_min: f64::INFINITY,
    };
}

impl<P: Probe<Inner = StackNode>> Fleet<P> {
    /// Ring build, node construction, registration and warm-up up to the
    /// first exact answer. Returns the fleet and the resident bytes it
    /// added.
    fn build(n: usize, seed: u64, ctx: &TraceCtx) -> Result<(Self, u64), String> {
        let rss_before = procstat::rss_bytes();
        let space = IdSpace::new(BITS);
        let mut rng = SmallRng::seed_from_u64(seed);
        let ring = StaticRing::build(space, n, IdPolicy::Probed, &mut rng);
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
            epoch_ms: EPOCH_MS,
            d0_hint: Some(ring.d0()),
            ..DatConfig::default()
        };

        let picked = distinct_root_keys(&ring, KEYS);
        let names: Vec<&str> = picked.iter().map(|(name, _, _)| name.as_str()).collect();
        let keys: Vec<Id> = picked.iter().map(|(_, key, _)| *key).collect();
        let roots: Vec<NodeAddr> = picked.iter().map(|(_, _, root)| addr_of(*root)).collect();

        let mut net: SimNet<P> = SimNet::new(seed);
        net.set_record_upcalls(false);
        for &id in ids {
            let addr = addr_of(id);
            let mut node = StackNode::new(ccfg, id, addr).with_app(DatProtocol::new(dcfg));
            for name in &names {
                node.register(name, AggregationMode::Continuous);
            }
            let table = ring.table_of_with(id, ccfg.succ_list_len, &addr_of);
            let outs = node.start_with_table(table);
            net.add_node(P::wrap(node, ctx));
            net.apply(addr, outs);
        }
        let addrs = net.addrs();
        let mut fleet = Fleet {
            net,
            addrs,
            keys,
            roots,
            seed,
            step: 0,
            totals: VecDeque::new(),
            lag: 0,
            tally: Tally::ZERO,
        };

        // Phase offset, then warm up until the tree carries a full epoch.
        fleet.net.run_for(EPOCH_MS / 2);
        let mut last = None;
        for _ in 0..WARMUP_EPOCHS {
            fleet.set_values();
            fleet.net.run_for(EPOCH_MS);
            last = Some(fleet.collect());
        }
        let sums = last.ok_or("no warm-up epoch ran")?;
        fleet.lag = (0..fleet.totals.len())
            .find(|&lag| {
                let want = fleet.totals[fleet.totals.len() - 1 - lag];
                sums.iter()
                    .zip(want)
                    .all(|(got, want)| *got == Some((n as u64, want as f64, true)))
            })
            .ok_or_else(|| {
                format!("warm-up never produced an exact answer: last reports {sums:?}")
            })?;
        fleet.tally = Tally::ZERO;
        let bytes = procstat::rss_bytes().saturating_sub(rss_before);
        Ok((fleet, bytes))
    }

    /// Rewrite all n × KEYS local values for the next schedule step.
    fn set_values(&mut self) {
        let mut totals = [0u64; KEYS];
        for (i, addr) in self.addrs.iter().enumerate() {
            let node = self
                .net
                .node_mut(*addr)
                .expect("no node ever leaves this fleet")
                .inner_mut();
            for (k, key) in self.keys.iter().enumerate() {
                let v = scheduled_value(self.seed, i, k, self.step);
                totals[k] += v;
                node.set_local(*key, v as f64);
            }
        }
        self.step += 1;
        self.totals.push_back(totals);
        if self.totals.len() > 4 {
            self.totals.pop_front();
        }
    }

    /// Drain the roots: per key `(count, sum, complete)` of the single
    /// report this epoch produced, `None` when there was not exactly one.
    fn collect(&mut self) -> Vec<Option<(u64, f64, bool)>> {
        let mut out = Vec::with_capacity(KEYS);
        for (root, key) in self.roots.iter().zip(&self.keys) {
            let events = self
                .net
                .node_mut(*root)
                .expect("roots stay")
                .inner_mut()
                .take_events();
            let mut mine = events.into_iter().filter_map(|e| match e {
                DatEvent::Report {
                    key: k,
                    partial,
                    completeness,
                    ..
                } if k == *key => Some((partial, completeness)),
                _ => None,
            });
            let first = mine.next();
            let extra = mine.count();
            self.tally.reports += first.is_some() as u64 + extra as u64;
            out.push(match first {
                Some((partial, c)) if extra == 0 => {
                    self.tally.completeness_min = self.tally.completeness_min.min(c.ratio);
                    Some((
                        partial.count,
                        partial.finalize(AggFunc::Sum),
                        c.ratio >= 1.0,
                    ))
                }
                _ => None,
            });
        }
        out
    }

    /// One op: set, run one virtual second, check. Returns the op's wall
    /// milliseconds (set + run; the check is the generator's own work),
    /// or what was wrong with the answer.
    fn epoch(&mut self) -> Result<f64, String> {
        let n = self.addrs.len() as u64;
        let t0 = Instant::now();
        self.set_values();
        let t1 = Instant::now();
        self.net.run_for(EPOCH_MS);
        let t2 = Instant::now();
        self.tally.set_ns += (t1 - t0).as_nanos() as u64;
        self.tally.run_ns += (t2 - t1).as_nanos() as u64;
        let got = self.collect();
        let want = self.totals[self.totals.len() - 1 - self.lag];
        if got
            .iter()
            .zip(want)
            .all(|(g, w)| *g == Some((n, w as f64, true)))
        {
            Ok((t2 - t0).as_secs_f64() * 1e3)
        } else {
            Err(format!(
                "step {}: reports (count, sum, complete) {got:?}, want count {n} sums {want:?}",
                self.step - 1
            ))
        }
    }

    /// Fingerprint of what the engine counted so far: events, drops,
    /// backlog and the fleet's sent/delivered totals.
    ///
    /// Per-node counters are left out on purpose. With more than one key
    /// per node, `DatProtocol` pings the parent of whichever key its
    /// `HashMap` yields first in an epoch, so *which* node receives a
    /// ping depends on the process's hash seed: totals repeat for a seed,
    /// the per-node split does not (`sim_maint`, which hosts no DAT,
    /// digests per node).
    fn digest(&self) -> u64 {
        let (sent, delivered) = self.link_totals();
        let mut fnv = Fnv::new();
        fnv.word(self.net.events_processed());
        fnv.word(self.net.dropped);
        fnv.word(self.net.pending_events() as u64);
        fnv.word(sent);
        fnv.word(delivered.iter().sum());
        fnv.0
    }

    fn link_totals(&self) -> (u64, Vec<u64>) {
        link_totals(&self.addrs, |a| self.net.link_stats(a))
    }
}

/// What the measured phase of one pass produced.
struct Measured {
    log: OpLog,
    /// Counts and digest over exactly [`COUNT_OPS`] measured ops.
    counts: SimCounts,
    clamped: u64,
    dropped: u64,
    shed: u64,
    tally: Tally,
    trace: NodeTrace,
}

fn measure<P: Probe<Inner = StackNode>>(
    fleet: &mut Fleet<P>,
    seconds: f64,
    ctx: &TraceCtx,
) -> Measured {
    let window = CountWindow::open(fleet.link_totals(), fleet.net.events_processed());
    let mut counts = None;
    let mut log = OpLog::start(COUNT_OPS);
    while log.wall_s() < seconds || log.attempted < COUNT_OPS {
        ctx.set_op(log.attempted as u32 + 1);
        log.record(fleet.epoch());
        if log.attempted == COUNT_OPS {
            ctx.set_op(0);
            counts = Some(window.close(
                fleet.link_totals(),
                fleet.net.events_processed(),
                fleet.net.pending_events() as u64,
                fleet.digest(),
                COUNT_OPS,
            ));
        }
    }
    ctx.set_op(0);
    log.finish();
    let mut trace = NodeTrace::default();
    let mut shed = 0;
    for a in &fleet.addrs {
        let node = fleet.net.node_mut(*a).expect("node stays");
        trace.merge(node.take_trace());
        shed += node.inner_mut().shed_count(DAT_PROTO);
    }
    Measured {
        log,
        counts: counts.expect("COUNT_OPS ops always run"),
        clamped: fleet.net.clamped_events(),
        dropped: fleet.net.dropped,
        shed,
        tally: fleet.tally,
        trace,
    }
}

fn gates(report: &mut Report, m: &Measured, pass: &str) {
    report.gate_sim(pass, m.clamped, m.dropped);
    report.gate(m.shed == 0, || format!("{pass}: {} shed payloads", m.shed));
}

fn describe(report: &mut Report, n: usize) {
    report.note("nodes", n);
    report.note("keys", KEYS);
    report.note("engine", "SimNet (1 thread)");
    report.note(
        "op",
        "one simulated epoch (1000 virtual ms), all 4 roots report",
    );
    report.note("count_ops", COUNT_OPS);
}

/// `--trace 0`: set up [`SETUP_REPEATS`] times, measure on the last.
pub fn end_to_end(args: &Args, quick: bool) -> Result<Report, String> {
    let n = nodes(quick);
    let ctx = TraceCtx::new(0);
    let mut report = Report::default();
    describe(&mut report, n);

    let mut digests = Vec::new();
    let (setup_s, mut fleet) = timed_setups(
        SETUP_REPEATS,
        || {
            let (fleet, _) = Fleet::<StackNode>::build(n, args.seed, &ctx)?;
            digests.push(fleet.digest());
            Ok(fleet)
        },
        drop,
    )?;
    report.gate(digests.windows(2).all(|w| w[0] == w[1]), || {
        format!(
            "set-up digests differ across repeats of seed {}: {digests:x?}",
            args.seed
        )
    });
    report.note("lag_steps", fleet.lag);

    let m = measure(&mut fleet, args.seconds, &ctx);
    gates(&mut report, &m, "timed pass");
    report.set_end_to_end(&setup_s, &m.log, m.counts.msgs, TAIL_Q);
    report.note("digest", format!("{:016x}", m.counts.digest));
    report.note("events_per_op", m.counts.events_per_op);
    Ok(report)
}

/// `--trace 1`: a plain pass and a traced pass of half the length each,
/// on the same seed; the plain one is the baseline the trace's overhead
/// and its budget are held against.
pub fn per_layer(args: &Args, quick: bool) -> Result<Report, String> {
    let n = nodes(quick);
    let half = args.seconds / 2.0;
    let mut report = Report::default();
    describe(&mut report, n);

    // The first build in the process: its resident growth is the fleet's
    // own size, not yet blurred by memory an earlier fleet gave back.
    let (plain, bytes) = {
        let ctx = TraceCtx::new(0);
        let (mut fleet, bytes) = Fleet::<StackNode>::build(n, args.seed, &ctx)?;
        (measure(&mut fleet, half, &ctx), bytes)
    };
    gates(&mut report, &plain, "plain pass");
    report.fail_from(&plain.log, "plain pass");

    let ctx = TraceCtx::new(SPAN_OPS);
    let (mut fleet, _) = Fleet::<Traced<StackNode>>::build(n, args.seed, &ctx)?;
    let mut traced = measure(&mut fleet, half, &ctx);
    drop(fleet);
    gates(&mut report, &traced, "traced pass");
    report.gate_same_digest(
        "tracing changed the run",
        ("plain", plain.counts.digest),
        ("traced", traced.counts.digest),
    );

    let ops = traced.log.attempted as f64;
    let t = &traced.trace;
    let events = traced.counts.events_per_op * ops;
    let host_ns = ratio(t.host_self_ns(traced.tally.run_ns) as f64, events);
    let set_calls = ops * (n * KEYS) as f64;
    report.set_generator_layer(&traced.log);
    report.set_sim_layer(
        &traced.counts,
        traced.clamped,
        traced.dropped,
        host_ns,
        bytes as f64 / n as f64,
    );
    report.set_actor_layer(t, ops);
    report.set("core.engine.shed_total", traced.shed as f64);
    report.set(
        "core.proto.set_local_ns",
        ratio(traced.tally.set_ns as f64, set_calls),
    );
    report.set(
        "core.proto.reports_per_op",
        traced.tally.reports as f64 / ops,
    );
    report.set("core.proto.completeness_min", traced.tally.completeness_min);

    // Budget: host events + actor spans + the generator's set span, per
    // op, against the CPU one op costs with tracing off. Single-thread,
    // so CPU and wall are the same budget.
    let parts_ms =
        (events * host_ns + t.actor_ns() as f64 + traced.tally.set_ns as f64) / ops / 1e6;
    let phase_ns = traced.log.elapsed.wall_s * 1e9;
    report.set_trace_layer(
        &plain.log,
        &traced.log,
        1.0 - (traced.tally.set_ns + traced.tally.run_ns) as f64 / phase_ns,
        parts_ms,
    );
    report.note(
        "budget",
        format!(
            "{:.0} events x {:.0} ns host + {:.0} inputs x {:.0} ns actor + set_local {:.2} ms \
             = {:.2} ms/op traced, vs cpu_ms_per_op {:.2} untraced (op_wall_ms_p50 {:.2})",
            traced.counts.events_per_op,
            host_ns,
            t.inputs() as f64 / ops,
            ratio(t.actor_ns() as f64, t.inputs() as f64),
            traced.tally.set_ns as f64 / ops / 1e6,
            parts_ms,
            plain.log.cpu_ms_per_op(),
            plain.log.p50(),
        ),
    );
    Report::write_trace(args, &mut traced.trace)?;
    Ok(report)
}
