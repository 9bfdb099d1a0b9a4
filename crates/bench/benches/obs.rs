//! Criterion bench: what one message pays for being counted.
//!
//! Every layer bumps a `dat_chord::Metrics` per message (dense rows, found
//! by `&'static str` address), and a `dat_obs::Registry` is built from
//! those rows at scrape time. `Registry::counter_inc` is benched next to
//! the message path for scale: it is what a bump cost when the registry
//! *was* the message path. The `fleet_4096` variants walk one instance per
//! simulated node, so every bump starts from a cold cache line — the
//! regime an 8192-node run is in.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dat_chord::Metrics;
use dat_obs::{Key, Registry};
use std::hint::black_box;

/// The kinds a Chord + DAT node sends and receives in steady state.
const MIX: [&str; 6] = [
    "ping",
    "pong",
    "app",
    "dat_update",
    "notify",
    "find_successor",
];
const ROUNDS: usize = 200;
const FLEET: usize = 4096;

/// A causal id, as an epoch or a query stamps on its messages; id 0 is
/// Chord maintenance, which `Metrics` counts without ringing.
const TRACED: u64 = 9;
const UNTRACED: u64 = 0;

/// A node's worth of series in steady state: every kind of the mix both
/// ways, two named counters, three histograms, and an event ring that has
/// long since filled (every traced record evicts).
fn node_metrics() -> Metrics {
    let mut m = Metrics::default();
    for i in 0..dat_obs::trace::DEFAULT_TRACE_CAP {
        let kind = MIX[i % MIX.len()];
        m.on_send(0, TRACED, kind, 1);
        m.on_recv(0, TRACED, kind, 1);
        m.observe(["rtt_ms", "rto_ms", "route_hops"][i % 3], i as u64);
    }
    m.inc("proactive_reparents_total");
    m.inc("fenced_total");
    m
}

fn bench_message_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics");
    // One counted message, warm: the tally alone (untraced), and the tally
    // plus a record into a full, evicting ring (traced).
    g.throughput(Throughput::Elements((2 * ROUNDS * MIX.len()) as u64));
    for (name, id) in [
        ("on_send_on_recv_untraced", UNTRACED),
        ("on_send_on_recv_traced", TRACED),
    ] {
        g.bench_function(name, |b| {
            let mut m = node_metrics();
            b.iter(|| {
                for _ in 0..ROUNDS {
                    for kind in MIX {
                        m.on_send(1, black_box(id), black_box(kind), 7);
                        m.on_recv(1, black_box(id), black_box(kind), 7);
                    }
                }
                m.sent_total()
            });
        });
    }
    g.throughput(Throughput::Elements((ROUNDS * MIX.len()) as u64));
    g.bench_function("observe", |b| {
        let mut m = node_metrics();
        let mut v = 1u64;
        b.iter(|| {
            for _ in 0..ROUNDS * MIX.len() / 2 {
                v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
                m.observe(black_box("rtt_ms"), v >> 44);
                m.observe(black_box("route_hops"), v >> 60);
            }
        });
    });
    // The same two, cold: one bump per node of a 4096-node fleet.
    g.throughput(Throughput::Elements(FLEET as u64));
    for (name, id) in [
        ("on_recv_untraced_fleet_4096", UNTRACED),
        ("on_recv_traced_fleet_4096", TRACED),
    ] {
        g.bench_function(name, |b| {
            let mut fleet = vec![node_metrics(); FLEET];
            let mut round = 0usize;
            b.iter(|| {
                round += 1;
                for (i, m) in fleet.iter_mut().enumerate() {
                    m.on_recv(1, black_box(id), MIX[(i + round) % MIX.len()], 7);
                }
            });
        });
    }
    g.finish();
}

fn bench_scrape_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("registry");
    g.throughput(Throughput::Elements((2 * ROUNDS * MIX.len()) as u64));
    g.bench_function("counter_inc_mix", |b| {
        let mut reg = Registry::new();
        b.iter(|| {
            for _ in 0..ROUNDS {
                for kind in MIX {
                    reg.counter_inc(Key::new("sent_total").label("kind", black_box(kind)));
                    reg.counter_inc(Key::new("received_total").label("kind", black_box(kind)));
                }
            }
            reg.len()
        });
    });
    g.throughput(Throughput::Elements(FLEET as u64));
    g.bench_function("counter_inc_fleet_4096", |b| {
        let mut fleet = vec![Registry::new(); FLEET];
        let mut round = 0usize;
        b.iter(|| {
            round += 1;
            for (i, reg) in fleet.iter_mut().enumerate() {
                let kind = MIX[(i + round) % MIX.len()];
                reg.counter_inc(Key::new("received_total").label("kind", kind));
            }
        });
    });
    g.throughput(Throughput::Elements(1));
    g.bench_function("export_into_node", |b| {
        let m = node_metrics();
        b.iter(|| {
            let mut reg = Registry::new();
            black_box(&m).export_into(&mut reg, "chord");
            reg
        });
    });
    g.finish();
}

criterion_group!(benches, bench_message_path, bench_scrape_path);
criterion_main!(benches);
