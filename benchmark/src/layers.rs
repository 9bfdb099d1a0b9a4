//! The `layers` pass: one public function of one layer in a tight loop,
//! single thread, nothing else running — the per-call prices that the
//! workload traces cannot split any further from outside.
//!
//! Inputs are fixed (seeded constants, not the run seed): these figures
//! compare commits, so they must not move with the workload. Each figure
//! is the median over [`BATCHES`] batches of ns per call; a batch is
//! sized once, by doubling, to last about [`BATCH_TARGET`].

use std::hint::black_box;
use std::time::{Duration, Instant};

use dat_chord::{
    codec, finger_limit, parent_balanced, wire, ChordConfig, ChordMsg, HealthConfig,
    HealthDetector, Id, IdPolicy, IdSpace, Input, NodeAddr, NodeRef, StaticRing,
};
use dat_core::{AggPartial, AggregationMode, DatConfig, DatMsg, DatProtocol, StackNode, DAT_PROTO};
use dat_obs::{Key, LogHist, Registry};
use dat_sim::EventQueue;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::run::{mix, Report};
use crate::stats;

const BATCHES: usize = 15;
const BATCH_TARGET: Duration = Duration::from_millis(4);

/// Median nanoseconds per call of `f`.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    let time = |iters: u64, f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        t0.elapsed()
    };
    while time(iters, &mut f) < BATCH_TARGET && iters < 1 << 24 {
        iters *= 2;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| time(iters, &mut f).as_nanos() as f64 / iters as f64)
        .collect();
    stats::median(&samples)
}

fn node_ref(i: u64) -> NodeRef {
    NodeRef::new(Id(mix(i) & ((1 << 40) - 1)), NodeAddr(i))
}

/// A partial as a mid-tree node would hold it: 100 contributors.
fn partial() -> AggPartial {
    let mut p = AggPartial::identity();
    for i in 0..100u64 {
        p.absorb((mix(i) % 1000) as f64);
    }
    p.contributors = 100;
    p
}

/// Run every micro figure and record it in `report`.
pub fn run(report: &mut Report) {
    // chord.wire + chord.codec: the frame a query response travels in.
    let kib: Vec<u8> = (0..1024u64).map(|i| mix(i) as u8).collect();
    report.set(
        "chord.wire.crc32c_ns_per_kib",
        ns_per_call(|| {
            black_box(wire::crc32c(black_box(&kib)));
        }),
    );
    let response = DatMsg::Response {
        reqid: 7 << 24 | 99,
        key: Id(0x12_3456_789a),
        partial: partial(),
        sender: node_ref(3),
    };
    let payload = response.encode();
    let app = ChordMsg::App {
        proto: DAT_PROTO,
        from: node_ref(3),
        payload: payload.clone().into(),
    };
    let frame = codec::encode(&app);
    report.set(
        "chord.codec.encode_ns",
        ns_per_call(|| {
            black_box(codec::encode(black_box(&app)));
        }),
    );
    report.set(
        "chord.codec.decode_ns",
        ns_per_call(|| {
            black_box(codec::decode(black_box(&frame)).expect("own frame decodes"));
        }),
    );
    report.set(
        "core.codec.encode_ns",
        ns_per_call(|| {
            black_box(black_box(&response).encode());
        }),
    );
    report.set(
        "core.codec.decode_ns",
        ns_per_call(|| {
            black_box(DatMsg::decode(black_box(&payload)).expect("own payload decodes"));
        }),
    );

    // chord.routing: one decision against a converged 4096-node table.
    let space = IdSpace::new(40);
    let mut rng = SmallRng::seed_from_u64(2);
    let ring = StaticRing::build(space, 4096, IdPolicy::Probed, &mut rng);
    let table = ring.table_of(ring.ids()[1000], 8);
    let d0 = ring.d0();
    let mut k = 1u64;
    let mut next_key = move || {
        k = k
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        Id(k >> 24)
    };
    report.set(
        "chord.routing.next_hop_ns",
        ns_per_call(|| {
            black_box(table.closest_preceding(black_box(next_key())));
        }),
    );
    report.set(
        "chord.routing.balanced_parent_ns",
        ns_per_call(|| {
            black_box(parent_balanced(
                black_box(&table),
                next_key(),
                black_box(d0),
            ));
        }),
    );
    report.set(
        "chord.routing.finger_limit_ns",
        ns_per_call(|| {
            black_box(finger_limit(black_box(next_key().0), black_box(d0)));
        }),
    );

    // core.aggregate.
    let scalar = AggPartial::of(1.0);
    let mut acc = AggPartial::identity();
    report.set(
        "core.aggregate.merge_ns",
        ns_per_call(|| acc.merge(black_box(&scalar))),
    );
    let mut hist = AggPartial::identity_with_histogram(0.0, 100.0, 64);
    hist.absorb(42.0);
    let mut hist_acc = AggPartial::identity_with_histogram(0.0, 100.0, 64);
    report.set(
        "core.aggregate.merge_hist64_ns",
        ns_per_call(|| hist_acc.merge(black_box(&hist))),
    );

    // core.engine: one App input through Chord, the proto demux, the DAT
    // decode and the child-table insert of an isolated node (epoch 0, so
    // nothing flushes and every call does the same work).
    let ccfg = ChordConfig {
        space,
        ..ChordConfig::default()
    };
    let me = ring.ids()[1000];
    let mut node =
        StackNode::new(ccfg, me, NodeAddr(1000)).with_app(DatProtocol::new(DatConfig::default()));
    let key = node.register("bench-attr-0", AggregationMode::Continuous);
    drop(node.start_with_table(ring.table_of(me, ccfg.succ_list_len)));
    let child = node_ref(5);
    let update = Input::Message {
        from: child.addr,
        msg: ChordMsg::App {
            proto: DAT_PROTO,
            from: child,
            payload: DatMsg::Update {
                key,
                epoch: 0,
                partial: partial(),
                sender: child,
            }
            .encode()
            .into(),
        },
    };
    report.set(
        "core.engine.demux_ns",
        ns_per_call(|| {
            black_box(node.handle(black_box(update.clone())));
        }),
    );

    // sim.queue: steady state of 1024 pending events, each pop schedules
    // a successor a short hop ahead — the wheel's common case.
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..1024u64 {
        q.push_after(1 + i % 127, i);
    }
    report.set(
        "sim.queue.push_pop_ns",
        ns_per_call(|| {
            if let Some(e) = q.pop() {
                q.push_after(1 + e.event % 97, e.event);
            }
        }),
    );

    // chord.health: one heartbeat into a detector tracking 16 peers.
    let mut health = HealthDetector::new(HealthConfig::default());
    let mut now = 0u64;
    report.set(
        "chord.health.observe_ns",
        ns_per_call(|| {
            now += 25;
            health.heartbeat(Id(now / 25 % 16), now);
        }),
    );

    // obs: the counter bump every send and receive pays, a histogram
    // sample, and one scrape of a node-sized registry.
    let mut reg = Registry::new();
    report.set(
        "obs.registry.inc_ns",
        ns_per_call(|| reg.counter_inc(Key::new("sent_total").label("kind", "dat_update"))),
    );
    let mut h = LogHist::new();
    let mut v = 1u64;
    report.set(
        "obs.hist.observe_ns",
        ns_per_call(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.observe(v >> 44);
        }),
    );
    let scrape = node.obs_registry();
    report.set(
        "obs.registry.render_us",
        ns_per_call(|| {
            black_box(scrape.render_prometheus());
        }) / 1e3,
    );
}
