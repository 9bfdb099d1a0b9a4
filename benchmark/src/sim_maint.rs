//! Workload `sim_maint`: Chord ring maintenance on the multi-thread
//! simulator, no DAT — the old `simbench` cell, made repeatable.
//!
//! 4096 probed ids, default maintenance timers (stabilize 500 ms, fix
//! fingers 250 ms, check predecessor 1000 ms). One op is one virtual
//! second, which all three periods divide.
//!
//! Probed ids (the paper's section 3.5, as in `sim_epoch`), not random
//! ones: on a random ring the busiest node is whichever owns the seed's
//! largest arc, an extreme value that read 46 to 62 messages per op over
//! forty seeds and spread by 0.07 to 0.19 within sets of ten — the seed's
//! topology, not the program. Probing evens the arcs: 21.5 to 24.2.
//!
//! The timed pass runs at `min(nproc - 1, 4)` shards (at least 1): the
//! shards meet at two barriers per virtual millisecond, so with as many
//! workers as cores anything else the host schedules stalls every shard
//! at once, and identical runs spread by 25 % — the scheduler's number,
//! not the engine's. One core of slack removes that. The traced run adds
//! a short pass at `min(nproc, 4)` shards (on two cores the timed pass is
//! single-thread, so this is where the barriers run) or at 1 shard
//! (everywhere else) of the same seed: the digests must match, and the
//! two medians give `sim.shard.speedup_vs_1shard`.
//!
//! A pre-stabilized ring starts every node's finger cursor at the same
//! index at t = 0. Fingers below log2(d0) resolve in one hop and the top
//! ones take log2(n), so a lock-step fleet swings between 540k and 1030k
//! events per virtual second (at n = 16384) over a 13 s cycle — 39
//! fingers plus every fourth firing spent on a FOF refresh: 52 firings ×
//! 250 ms — and no two ops cost the same. A real fleet's nodes joined at
//! different times; the generator models that by delaying each node's
//! *first* `FixFingers` timer by `(i mod 52) × 250 ms`: it edits the
//! `SetTimer` that `start_with_table` returns, nothing inside the node.
//! After one cycle of warm-up every cursor position is equally populated
//! at every instant and ops agree to 0.1 % in event count.

use std::time::Instant;

use dat_chord::{
    ChordConfig, ChordNode, Id, IdPolicy, IdSpace, NodeAddr, Output, StaticRing, TimerKind,
};
use dat_sim::ShardedNet;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::probe::{ratio, NodeTrace, Probe, TraceCtx, Traced};
use crate::procstat;
use crate::run::{link_totals, timed_setups, Args, CountWindow, Fnv, OpLog, Report, SimCounts};

const NODES: usize = 4096;
const BITS: u8 = 40;
const OP_MS: u64 = 1_000;
const MAX_SHARDS: usize = 4;
/// Finger-fix firings in one cursor cycle: fingers 2..=BITS, and every
/// `fof_refresh_every`-th (4th) firing refreshes FOF data instead.
const CYCLE_FIRINGS: u64 = (BITS as u64 - 1) * 4 / 3;
/// One full cycle so every cursor position is populated, plus a second
/// for the last starters' first lookups to drain.
const WARMUP_MS: u64 = CYCLE_FIRINGS * 250 + 1_000;
const COUNT_OPS: u64 = 6;
const SETUP_REPEATS: usize = 3;
/// 5 to 6 ops fit a 2 s window, 60 to 70 a run (single-thread; 2 to 4
/// times that with worker threads): nothing beyond the median has ten
/// samples behind it, so the supported "tail" is the median itself.
const TAIL_Q: f64 = 0.5;
const SPAN_OPS: u32 = 1;
/// Ops of the other-shard-count pass in the traced run.
const BASELINE_OPS: u64 = 6;

fn nodes(quick: bool) -> usize {
    if quick {
        NODES / 8
    } else {
        NODES
    }
}

/// Shards of every timed and traced pass: one core fewer than the host
/// has, so that the workers never wait on whatever else it schedules.
pub fn shards() -> usize {
    (procstat::nproc() - 1).clamp(1, MAX_SHARDS)
}

/// Most shards any pass uses: never more worker threads than cores.
pub fn max_shards() -> usize {
    procstat::nproc().min(MAX_SHARDS)
}

struct Fleet<P: Probe<Inner = ChordNode>> {
    net: ShardedNet<P>,
    addrs: Vec<NodeAddr>,
}

impl<P: Probe<Inner = ChordNode>> Fleet<P> {
    /// Ring build, node construction and warm-up to the steady state.
    /// Returns the fleet and the resident bytes it added.
    fn build(n: usize, seed: u64, shards: usize, ctx: &TraceCtx) -> (Self, u64) {
        let rss_before = procstat::rss_bytes();
        let space = IdSpace::new(BITS);
        let ccfg = ChordConfig {
            space,
            ..ChordConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let ring = StaticRing::build(space, n, IdPolicy::Probed, &mut rng);
        let ids = ring.ids();
        let addr_of =
            |id: Id| NodeAddr(ids.binary_search(&id).expect("id is a ring member") as u64);
        let mut net: ShardedNet<P> = ShardedNet::new(seed, shards);
        for (i, &id) in ids.iter().enumerate() {
            let addr = addr_of(id);
            let mut node = ChordNode::new(ccfg, id, addr);
            let table = ring.table_of_with(id, ccfg.succ_list_len, &addr_of);
            let mut outs = node.start_with_table(table);
            for o in &mut outs {
                if let Output::SetTimer {
                    kind: TimerKind::FixFingers,
                    delay_ms,
                } = o
                {
                    *delay_ms += (i as u64 % CYCLE_FIRINGS) * ccfg.fix_fingers_ms;
                }
            }
            net.add_node(P::wrap(node, ctx));
            net.apply(addr, outs);
        }
        let addrs = net.addrs();
        let mut fleet = Fleet { net, addrs };
        fleet.net.run_for(WARMUP_MS);
        let bytes = procstat::rss_bytes().saturating_sub(rss_before);
        (fleet, bytes)
    }

    /// Fingerprint of everything the engine counted so far, per node. A
    /// function of the seed alone — not of the shard count, the wall
    /// clock or whether the actors are traced.
    fn digest(&self) -> u64 {
        let mut fnv = Fnv::new();
        fnv.word(self.net.events_processed());
        fnv.word(self.net.dropped());
        fnv.word(self.net.pending_events() as u64);
        for a in &self.addrs {
            let s = self.net.link_stats(*a);
            fnv.word(a.0);
            fnv.word(s.sent);
            fnv.word(s.delivered);
        }
        fnv.0
    }

    fn link_totals(&self) -> (u64, Vec<u64>) {
        link_totals(&self.addrs, |a| self.net.link_stats(a))
    }
}

struct Measured {
    log: OpLog,
    /// Counts and digest over exactly [`COUNT_OPS`] measured ops.
    counts: SimCounts,
    clamped: u64,
    dropped: u64,
    run_ns: u64,
    trace: NodeTrace,
}

/// Run ops until `seconds` have passed and at least `min_ops` are done.
fn measure<P: Probe<Inner = ChordNode>>(
    fleet: &mut Fleet<P>,
    seconds: f64,
    min_ops: u64,
    ctx: &TraceCtx,
) -> Measured {
    let window = CountWindow::open(fleet.link_totals(), fleet.net.events_processed());
    let mut counts = None;
    let mut run_ns = 0u64;
    let mut log = OpLog::start(COUNT_OPS);
    while log.wall_s() < seconds || log.attempted < min_ops.max(COUNT_OPS) {
        ctx.set_op(log.attempted as u32 + 1);
        let t0 = Instant::now();
        fleet.net.run_for(OP_MS);
        let dt = t0.elapsed();
        run_ns += dt.as_nanos() as u64;
        // Maintenance has no answer to get wrong; its gates are the
        // engine's counters and the digests.
        log.record(Ok(dt.as_secs_f64() * 1e3));
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
    for a in &fleet.addrs {
        trace.merge(fleet.net.node_mut(*a).expect("node stays").take_trace());
    }
    Measured {
        log,
        counts: counts.expect("COUNT_OPS ops always run"),
        clamped: fleet.net.clamped_events(),
        dropped: fleet.net.dropped(),
        run_ns,
        trace,
    }
}

fn describe(report: &mut Report, n: usize, shards: usize) {
    report.note("nodes", n);
    report.note("shards", shards);
    report.note(
        "engine",
        if shards == 1 {
            "ShardedNet, 1 shard on the calling thread".to_string()
        } else {
            format!("ShardedNet ({shards} worker threads)")
        },
    );
    report.note("op", "one virtual second of ring maintenance");
    report.note("count_ops", COUNT_OPS);
    if max_shards() == 1 {
        report.note(
            "single_core",
            "1 core: every pass at 1 shard; no parallel speed-up is measured or claimed",
        );
    } else if shards == 1 {
        report.note(
            "single_thread",
            format!(
                "nproc - 1 = 1 shard in the timed and traced passes; \
                 the traced run adds a pass at {} shards",
                max_shards()
            ),
        );
    }
}

/// `--trace 0`: set up [`SETUP_REPEATS`] times, measure on the last.
pub fn end_to_end(args: &Args, quick: bool) -> Result<Report, String> {
    let n = nodes(quick);
    let shards = shards();
    let ctx = TraceCtx::new(0);
    let mut report = Report::default();
    describe(&mut report, n, shards);

    let mut digests = Vec::new();
    let (setup_s, mut fleet) = timed_setups(
        SETUP_REPEATS,
        || {
            let (fleet, _) = Fleet::<ChordNode>::build(n, args.seed, shards, &ctx);
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

    let m = measure(&mut fleet, args.seconds, 0, &ctx);
    report.gate_sim("timed pass", m.clamped, m.dropped);
    report.set_end_to_end(&setup_s, &m.log, m.counts.msgs, TAIL_Q);
    report.note("digest", format!("{:016x}", m.counts.digest));
    report.note("events_per_op", m.counts.events_per_op);
    Ok(report)
}

/// `--trace 1`: a plain and a traced pass at `shards()` of half the
/// length each, then a short pass of the same seed at the other end of
/// the shard range — `max_shards()` when the timed passes are
/// single-thread, 1 shard otherwise. Its digest must match, and the
/// single-thread median over the multi-thread one is the speed-up.
pub fn per_layer(args: &Args, quick: bool) -> Result<Report, String> {
    let n = nodes(quick);
    let shards = shards();
    let half = args.seconds / 2.0;
    let mut report = Report::default();
    describe(&mut report, n, shards);

    let (plain, bytes) = {
        let ctx = TraceCtx::new(0);
        let (mut fleet, bytes) = Fleet::<ChordNode>::build(n, args.seed, shards, &ctx);
        (measure(&mut fleet, half, 0, &ctx), bytes)
    };
    report.gate_sim("plain pass", plain.clamped, plain.dropped);

    let ctx = TraceCtx::new(SPAN_OPS);
    let mut traced = {
        let (mut fleet, _) = Fleet::<Traced<ChordNode>>::build(n, args.seed, shards, &ctx);
        measure(&mut fleet, half, 0, &ctx)
    };
    report.gate_sim("traced pass", traced.clamped, traced.dropped);
    report.gate_same_digest(
        "tracing changed the run",
        ("plain", plain.counts.digest),
        ("traced", traced.counts.digest),
    );

    let other_shards = if shards == 1 { max_shards() } else { 1 };
    let other = (other_shards != shards).then(|| {
        let ctx = TraceCtx::new(0);
        let (mut fleet, _) = Fleet::<ChordNode>::build(n, args.seed, other_shards, &ctx);
        measure(&mut fleet, 0.0, BASELINE_OPS, &ctx)
    });
    // The pass with worker threads and the one without, whichever of the
    // two the timed passes were.
    let (multi, single) = match &other {
        Some(other) => {
            report.gate_sim("other-shard-count pass", other.clamped, other.dropped);
            report.gate_same_digest(
                "the shard count changed the run",
                (&format!("at {other_shards} shards"), other.counts.digest),
                (&format!("at {shards} shards"), plain.counts.digest),
            );
            if shards == 1 {
                (&other.log, &plain.log)
            } else {
                (&plain.log, &other.log)
            }
        }
        None => (&plain.log, &plain.log),
    };
    let multi_shards = shards.max(other_shards);
    report.note("op_wall_ms_p50_1shard", format!("{:.2}", single.p50()));
    report.note(
        "op_wall_ms_p50_multishard",
        format!("{:.2} at {multi_shards} shards", multi.p50()),
    );

    let ops = traced.log.attempted as f64;
    let t = &traced.trace;
    // Multi-thread engine: the budget is CPU, not wall. Host self time is
    // the CPU the run burned outside actor spans, barrier spinning
    // included; the gap between CPU and wall is `cpu_over_wall`.
    let events = traced.counts.events_per_op * ops;
    let cpu_ns = traced.log.elapsed.cpu_ms * 1e6;
    let host_ns = ratio(t.host_self_ns(cpu_ns as u64) as f64, events);
    report.set_generator_layer(&traced.log);
    report.set_actor_layer(t, ops);
    report.set_sim_layer(
        &traced.counts,
        traced.clamped,
        traced.dropped,
        host_ns,
        bytes as f64 / n as f64,
    );
    report.set("sim.shard.shards", multi_shards as f64);
    report.set(
        "sim.shard.cpu_over_wall",
        ratio(multi.elapsed.cpu_ms, multi.elapsed.wall_s * 1e3),
    );
    report.set("sim.shard.speedup_vs_1shard", single.p50() / multi.p50());

    let parts_ms = (events * host_ns + t.actor_ns() as f64) / ops / 1e6;
    report.set_trace_layer(
        &plain.log,
        &traced.log,
        1.0 - traced.run_ns as f64 / (traced.log.elapsed.wall_s * 1e9),
        parts_ms,
    );
    report.note(
        "budget",
        format!(
            "{:.0} events x {:.0} ns host + {:.0} inputs x {:.0} ns actor = {:.2} CPU ms/op traced, \
             vs cpu_ms_per_op {:.2} untraced (op_wall_ms_p50 {:.2}, shards = {shards})",
            traced.counts.events_per_op,
            host_ns,
            t.inputs() as f64 / ops,
            ratio(t.actor_ns() as f64, t.inputs() as f64),
            parts_ms,
            plain.log.cpu_ms_per_op(),
            plain.log.p50(),
        ),
    );
    Report::write_trace(args, &mut traced.trace)?;
    Ok(report)
}
