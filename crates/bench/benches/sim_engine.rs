//! Criterion bench: the discrete-event engine itself — queue throughput
//! and whole-overlay construction/stabilization cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dat_chord::{ChordConfig, IdPolicy, IdSpace, StaticRing};
use dat_sim::harness::prestabilized_chord;
use dat_sim::EventQueue;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    // Short-horizon delays (the common case — protocol timers and
    // network latencies), and a mixed workload with a far-future tail
    // that exercises the wheel's overflow heap.
    g.bench_function("push_pop_1k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..1_000u64 {
                q.push_after(black_box(i % 97), i);
            }
            let mut sum = 0u64;
            while let Some(e) = q.pop() {
                sum = sum.wrapping_add(e.event);
            }
            sum
        });
    });
    g.bench_function("interleaved_16k", |b| {
        // Steady-state schedule: every pop pushes a successor a short
        // hop ahead, plus a 1% far-future tail.
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..1_024u64 {
                q.push_after(i % 127, i);
            }
            let mut sum = 0u64;
            for step in 0..16_384u64 {
                let Some(e) = q.pop() else { break };
                sum = sum.wrapping_add(e.event);
                let delay = if step % 100 == 0 {
                    1 << 38 // far future: overflow territory
                } else {
                    1 + (e.event % 97)
                };
                q.push_after(black_box(delay), e.event);
            }
            sum
        });
    });
    g.finish();
}

fn bench_prestabilized_build(c: &mut Criterion) {
    let space = IdSpace::new(32);
    let mut g = c.benchmark_group("prestabilized_overlay");
    g.sample_size(10);
    for n in [512usize, 2048] {
        let mut rng = SmallRng::seed_from_u64(1);
        let ring = StaticRing::build(space, n, IdPolicy::Probed, &mut rng);
        let cfg = ChordConfig {
            space,
            ..ChordConfig::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(n), &ring, |b, ring| {
            b.iter(|| prestabilized_chord(black_box(ring), cfg, 1).len());
        });
    }
    g.finish();
}

fn bench_maintenance_second(c: &mut Criterion) {
    // Cost of one virtual second of pure ring maintenance at n = 512.
    let space = IdSpace::new(32);
    let mut rng = SmallRng::seed_from_u64(2);
    let ring = StaticRing::build(space, 512, IdPolicy::Probed, &mut rng);
    let cfg = ChordConfig {
        space,
        ..ChordConfig::default()
    };
    c.bench_function("maintenance_1s_n512", |b| {
        let mut net = prestabilized_chord(&ring, cfg, 2);
        net.set_record_upcalls(false);
        b.iter(|| {
            net.run_for(black_box(1_000));
            net.events_processed()
        });
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_prestabilized_build,
    bench_maintenance_second
);
criterion_main!(benches);
