//! Per-node heap footprint of a DAT fleet, component by component.
//!
//! A counting global allocator (this test binary's only) tracks live heap
//! bytes; each component is measured by cloning it and reading what the
//! clone holds, and a last row divides the whole fleet's live heap by its
//! nodes, spare capacity included. The residual between the two is what
//! no row names: the engine's arena of inline node structs, its pending
//! events, and each node's boxed DAT handler and smaller tables. The fleet is the DAT-path smoke's
//! shape: 1024 probed ids on a 40-bit ring, balanced routing, four
//! continuous aggregations, Chord maintenance quiet, 20 epochs so every
//! DAT trace ring is full.
//!
//! ```text
//! cargo test --release --test node_footprint -- --nocapture
//! FOOTPRINT_NODES=8192 cargo test --release --test node_footprint -- --nocapture
//! ```
//!
//! The bounds hold at both sizes: only the finger table grows with `n`
//! (one run per distinct finger, about log2 n of them).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use libdat::chord::{ChordConfig, IdPolicy, IdSpace, RoutingScheme, StaticRing};
use libdat::core::{AggregationEntry, AggregationMode, DatConfig, DatProtocol, StackNode};
use libdat::sim::harness::prestabilized_stack;
use rand::SeedableRng;

/// The system allocator, keeping a running total of live bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` with its arguments as given
// and its result returned unchanged; the tally beside it touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap bytes a clone of `x` holds: what `x` keeps, less any spare
/// capacity.
fn heap_of<T: Clone>(x: &T) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    let copy = x.clone();
    let held = LIVE.load(Ordering::Relaxed) - before;
    drop(copy);
    held
}

const KEYS: usize = 4;
const EPOCHS: u64 = 20;

/// `(component, bound in bytes per node)`, in the order printed; each is
/// the 8192-node reading plus about 10 % (bounds only go down). Read at
/// 1024 / 8192 nodes: finger table 690 / 858 (850 / 1,066 with
/// `Option`-tagged FOF neighbours, 2,688 as 40 slots), Chord metrics 328
/// (1,200 with 65 buckets a histogram row), health 636 (817 with
/// `VecDeque` windows and flap state inline, 1,868 / 1,873 in a
/// `BTreeMap` of `u64` windows),
/// DAT metrics 160 (635 with 65-bucket rows), the DAT trace ring 2,050 /
/// 2,048 (4,096 as 64-byte events), aggregation entries 1,057 / 1,056
/// (1,913 / 1,912 with per-key configuration, fence and replica inline
/// and 136-byte partials).
const BOUNDS: [(&str, usize); 6] = [
    ("finger table", 945),
    ("chord metrics", 360),
    ("health", 700),
    ("dat metrics", 175),
    ("dat trace ring", 2_250),
    ("aggregation entries", 1_160),
];

/// Bound on the whole fleet's live heap per node: what the allocator
/// holds after the run less what it held before the fleet was built,
/// spare capacity and the simulator's own state included (the rows above
/// measure clones, which drop spare capacity). Read at 1024 / 8192
/// nodes: 7,713 / 7,847 (9,496 / 9,728 with 120-byte scheduled events and
/// the per-node layouts above; 12,114 / 12,284 with 64-byte trace events
/// and child tables grown by doubling); the bound is the 8192-node
/// reading plus about 10 %. The residual (whole fleet less the rows) read
/// 2,792 / 2,761 (3,397 at 8192 with 120-byte events).
const FLEET_BOUND: usize = 8_600;

#[test]
fn per_node_state_stays_within_its_bounds() {
    let n: usize = std::env::var("FOOTPRINT_NODES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1024);
    let before_fleet = LIVE.load(Ordering::Relaxed);
    let space = IdSpace::new(40);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
    let ring = StaticRing::build(space, n, IdPolicy::Probed, &mut rng);
    let quiet = 600_000;
    let ccfg = ChordConfig {
        space,
        stabilize_ms: quiet,
        fix_fingers_ms: quiet,
        check_pred_ms: quiet,
        ..ChordConfig::default()
    };
    let dcfg = DatConfig {
        scheme: RoutingScheme::Balanced,
        epoch_ms: 1_000,
        d0_hint: Some(ring.d0()),
        ..DatConfig::default()
    };
    let names: Vec<String> = (0..KEYS).map(|k| format!("load-{k}")).collect();
    let mut net = prestabilized_stack(&ring, ccfg, 1, |i, id, addr| {
        let mut node = StackNode::new(ccfg, id, addr).with_app(DatProtocol::new(dcfg));
        for (k, name) in names.iter().enumerate() {
            let key = node.register(name, AggregationMode::Continuous);
            node.set_local(key, (i * KEYS + k) as f64);
        }
        node
    });
    net.set_record_upcalls(false);
    net.run_for(EPOCHS * 1_000);
    let fleet = LIVE.load(Ordering::Relaxed) - before_fleet;

    let mut totals = [0usize; BOUNDS.len()];
    for addr in net.addrs() {
        let node = net.node(addr).expect("no node leaves this fleet");
        let chord = node.chord();
        let entries: Vec<AggregationEntry> = node.dat().aggregations().cloned().collect();
        // The tracer also holds the metrics' kind rows (its label table).
        let dat = node.dat().metrics();
        let ring = heap_of(dat.tracer()) - heap_of(&dat.tracer().labels().to_vec());
        let held = [
            heap_of(chord.table()),
            heap_of(chord.metrics()),
            heap_of(chord.health()),
            heap_of(dat) - ring,
            ring,
            heap_of(&entries),
        ];
        for (t, h) in totals.iter_mut().zip(held) {
            *t += h;
        }
    }
    println!("heap bytes per node, {n} nodes x {KEYS} keys, {EPOCHS} epochs:");
    let mut over = Vec::new();
    for ((name, bound), total) in BOUNDS.iter().zip(totals) {
        let per_node = total as f64 / n as f64;
        println!("  {name:<20} {per_node:>9.1}  (bound {bound})");
        if per_node > *bound as f64 {
            over.push(format!("{name}: {per_node:.1} B per node > {bound}"));
        }
    }
    let sum: usize = totals.iter().sum();
    println!("  {:<20} {:>9.1}", "total", sum as f64 / n as f64);
    let per_node = fleet as f64 / n as f64;
    println!(
        "  {:<20} {:>9.1}",
        "residual",
        per_node - sum as f64 / n as f64
    );
    println!(
        "  {:<20} {per_node:>9.1}  (bound {FLEET_BOUND})",
        "whole fleet"
    );
    if per_node > FLEET_BOUND as f64 {
        over.push(format!(
            "whole fleet: {per_node:.1} B per node > {FLEET_BOUND}"
        ));
    }
    assert!(over.is_empty(), "{over:?}");
}
