//! Property-based tests over the core invariants.
//!
//! Written as seeded randomized loops over the workspace's deterministic
//! `SmallRng` rather than a property-testing framework (the offline build
//! has no registry access for proptest). Each test fixes its own seed, so
//! every run explores the identical case set — a failure is reproducible
//! by reading the loop index out of the assertion message.

use libdat::chord::{
    ceil_log2_ratio, finger_limit, hash_to_id, Id, IdPolicy, IdSpace, RoutingScheme, StaticRing,
};
use libdat::core::{AggFunc, AggPartial, DatMsg, DatTree};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 64;

fn arb_ring(rng: &mut SmallRng, max_nodes: usize) -> StaticRing {
    let n = rng.random_range(2usize..=max_nodes);
    let policy = match rng.random_range(0u32..3) {
        0 => IdPolicy::Random,
        1 => IdPolicy::Even,
        _ => IdPolicy::Probed,
    };
    let seed: u64 = rng.random();
    let mut ring_rng = SmallRng::seed_from_u64(seed);
    StaticRing::build(IdSpace::new(24), n, policy, &mut ring_rng)
}

#[test]
fn trees_are_always_valid() {
    let mut rng = SmallRng::seed_from_u64(0xA11CE);
    for case in 0..CASES {
        let ring = arb_ring(&mut rng, 200);
        let key = Id(rng.random::<u64>() & ring.space().mask());
        let scheme = if rng.random::<bool>() {
            RoutingScheme::Balanced
        } else {
            RoutingScheme::Greedy
        };
        let tree = DatTree::build(&ring, key, scheme);
        // Single root = successor(key), n-1 edges, acyclic, depths consistent.
        assert_eq!(tree.root(), ring.successor(key), "case {case}");
        assert!(tree.check_invariants().is_ok(), "case {case}");
    }
}

#[test]
fn balanced_branching_bounded_on_even_rings() {
    // §3.5's max-branching-2 bound assumes the rendezvous key is on the
    // even node grid (all distances multiples of d0) — pick a node id.
    let mut rng = SmallRng::seed_from_u64(0xB0B);
    for case in 0..CASES {
        let pow = rng.random_range(1u32..9);
        let n = 1usize << pow;
        let space = IdSpace::new(24);
        let mut ring_rng = SmallRng::seed_from_u64(1);
        let ring = StaticRing::build(space, n, IdPolicy::Even, &mut ring_rng);
        let key = ring.ids()[rng.random::<u64>() as usize % n];
        let tree = DatTree::build(&ring, key, RoutingScheme::Balanced);
        for &v in ring.ids() {
            assert!(
                tree.branching(v) <= 2,
                "case {case}: node {} has {} children",
                v,
                tree.branching(v)
            );
        }
        assert!(tree.height() <= pow, "case {case}");
    }
}

#[test]
fn balanced_branching_within_three_for_offgrid_keys() {
    // Off-grid keys shift every distance by a sub-d0 constant; the
    // ceil-log boundaries can each move one node across, so the bound
    // relaxes to 3 (still a constant, which is all Fig. 7a needs).
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    for case in 0..CASES {
        let pow = rng.random_range(1u32..9);
        let n = 1usize << pow;
        let space = IdSpace::new(24);
        let mut ring_rng = SmallRng::seed_from_u64(1);
        let ring = StaticRing::build(space, n, IdPolicy::Even, &mut ring_rng);
        let key = Id(rng.random::<u64>() & space.mask());
        let tree = DatTree::build(&ring, key, RoutingScheme::Balanced);
        for &v in ring.ids() {
            assert!(
                tree.branching(v) <= 3,
                "case {case}: node {} has {} children",
                v,
                tree.branching(v)
            );
        }
        assert!(tree.height() <= pow + 1, "case {case}");
    }
}

#[test]
fn route_lengths_are_logarithmic() {
    let mut rng = SmallRng::seed_from_u64(0xD1CE);
    for case in 0..CASES / 2 {
        let ring = arb_ring(&mut rng, 256);
        let key = Id(rng.random::<u64>() & ring.space().mask());
        for &from in ring.ids().iter().step_by(17) {
            let route = ring.finger_route(from, key);
            // Greedy halves the remaining arc each hop: ≤ b hops, and for
            // n nodes, ≤ ~2 log2 n with high probability. Use a generous
            // deterministic bound: bits of the space.
            assert!(
                route.len() <= ring.space().bits() as usize + 1,
                "case {case}"
            );
            assert_eq!(*route.last().unwrap(), ring.successor(key), "case {case}");
        }
    }
}

#[test]
fn partial_merge_is_commutative_and_associative() {
    let mut rng = SmallRng::seed_from_u64(0xE66);
    for case in 0..CASES {
        let len = rng.random_range(1usize..40);
        let xs: Vec<f64> = (0..len).map(|_| rng.random_range(-1e6..1e6)).collect();
        let k = rng.random_range(0usize..40).min(xs.len());
        let mut a = AggPartial::identity();
        xs[..k].iter().for_each(|&x| a.absorb(x));
        let mut b = AggPartial::identity();
        xs[k..].iter().for_each(|&x| b.absorb(x));
        // commutativity
        let ab = a.clone().merged(&b);
        let ba = b.clone().merged(&a);
        assert_eq!(ab.count, ba.count, "case {case}");
        assert!(
            (ab.sum - ba.sum).abs() <= 1e-6 * ab.sum.abs().max(1.0),
            "case {case}"
        );
        assert_eq!(ab.min, ba.min, "case {case}");
        assert_eq!(ab.max, ba.max, "case {case}");
        // identity
        let with_id = ab.clone().merged(&AggPartial::identity());
        assert_eq!(with_id, ab.clone(), "case {case}");
        // tree-merge equals flat aggregation
        let mut flat = AggPartial::identity();
        xs.iter().for_each(|&x| flat.absorb(x));
        assert_eq!(ab.count, flat.count, "case {case}");
        assert_eq!(
            ab.finalize(AggFunc::Min),
            flat.finalize(AggFunc::Min),
            "case {case}"
        );
        assert_eq!(
            ab.finalize(AggFunc::Max),
            flat.finalize(AggFunc::Max),
            "case {case}"
        );
        assert!(
            (ab.finalize(AggFunc::Sum) - flat.finalize(AggFunc::Sum)).abs()
                <= 1e-6 * flat.sum.abs().max(1.0),
            "case {case}"
        );
    }
}

#[test]
fn contributor_merge_is_commutative_and_associative() {
    // The completeness accounting rides on `merge`: contributors add,
    // ages take max (with `merge_aged` shifting the other side first).
    // Both must keep merge commutative and associative, or tree order
    // would change what the root reports.
    let mut rng = SmallRng::seed_from_u64(0xACC0);
    let arb = |rng: &mut SmallRng| {
        let mut p = AggPartial::identity();
        for _ in 0..rng.random_range(0usize..4) {
            p.absorb(rng.random_range(-1e3..1e3));
        }
        p.contributors = rng.random_range(0u64..1000);
        p.age_epochs = rng.random_range(0u64..50);
        p
    };
    for case in 0..CASES * 2 {
        let (a, b, c) = (arb(&mut rng), arb(&mut rng), arb(&mut rng));
        let ab = a.clone().merged(&b);
        let ba = b.clone().merged(&a);
        assert_eq!(ab.contributors, ba.contributors, "case {case}");
        assert_eq!(ab.age_epochs, ba.age_epochs, "case {case}");
        let ab_c = ab.merged(&c);
        let bc = b.clone().merged(&c);
        let a_bc = a.clone().merged(&bc);
        assert_eq!(ab_c.contributors, a_bc.contributors, "case {case}");
        assert_eq!(ab_c.age_epochs, a_bc.age_epochs, "case {case}");
        // Identity is neutral for the new fields too.
        let with_id = a.clone().merged(&AggPartial::identity());
        assert_eq!(with_id.contributors, a.contributors, "case {case}");
        assert_eq!(with_id.age_epochs, a.age_epochs, "case {case}");
        // merge_aged shifts only the other side's age, never contributors,
        // and max-aging is idempotent: re-aging by 0 changes nothing.
        let extra = rng.random_range(0u64..10);
        let mut aged = a.clone();
        aged.merge_aged(&b, extra);
        assert_eq!(
            aged.contributors,
            ab_c.contributors - c.contributors,
            "case {case}"
        );
        assert_eq!(
            aged.age_epochs,
            a.age_epochs.max(b.age_epochs + extra),
            "case {case}"
        );
        let mut again = aged.clone();
        again.merge_aged(&AggPartial::identity(), extra);
        assert_eq!(again, aged, "case {case}: re-aging the identity is a no-op");
    }
}

#[test]
fn duplicate_delivery_never_inflates_contributors() {
    // The transport replays every datagram with high probability for the
    // whole run; the continuous DAT's per-source soft-state slots must
    // dedup, so the root's contributor count never exceeds the ring size.
    use libdat::chord::{ChordConfig, NodeAddr};
    use libdat::core::{AggregationMode, DatConfig, DatEvent, StackNode};
    use libdat::sim::harness::{addr_book, prestabilized_dat};
    use libdat::sim::{FaultPlan, SimNet};

    let n = 32usize;
    let space = IdSpace::new(24);
    let mut rng = SmallRng::seed_from_u64(0xD0D0);
    let ring = StaticRing::build(space, n, IdPolicy::Probed, &mut rng);
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
    let mut net: SimNet<StackNode> = prestabilized_dat(&ring, ccfg, dcfg, 0xD0D0);
    net.set_fault_plan(FaultPlan::new().duplication_at(0, 0.75));
    let book = addr_book(&ring);
    let mut key = Id(0);
    for &id in ring.ids() {
        let node = net.node_mut(book[&id]).unwrap();
        key = node.register("cpu-usage", AggregationMode::Continuous);
        node.set_local(key, 1.0);
    }
    let root: NodeAddr = book[&ring.successor(key)];
    net.run_for(30_000);
    let reports: Vec<_> = net
        .node_mut(root)
        .unwrap()
        .take_events()
        .into_iter()
        .filter_map(|e| match e {
            DatEvent::Report {
                key: k,
                partial,
                completeness,
                ..
            } if k == key => Some((partial, completeness)),
            _ => None,
        })
        .collect();
    assert!(reports.len() >= 10, "duplication must not stall reporting");
    for (i, (p, c)) in reports.iter().enumerate() {
        assert!(
            c.contributors <= n as u64,
            "report {i}: {} contributors on a {n}-node ring — duplicates inflated \
             the accounting",
            c.contributors
        );
        assert_eq!(c.contributors, p.count, "report {i}: one sample per node");
    }
    // Steady state still reaches full coverage (duplicates are dropped,
    // not the originals).
    let last = &reports[reports.len() - 1];
    assert_eq!(
        last.1.contributors, n as u64,
        "full coverage under duplication"
    );
}

#[test]
fn dat_codec_roundtrips() {
    let mut rng = SmallRng::seed_from_u64(0xF00D);
    for case in 0..CASES {
        let key: u64 = rng.random();
        let epoch: u64 = rng.random();
        let count = rng.random_range(0u64..1000);
        let sum = f64::from_bits(rng.random::<u64>());
        let id2: u64 = rng.random();
        let mut partial = AggPartial::identity();
        partial.count = count;
        partial.sum = sum;
        let sender = libdat::chord::NodeRef::new(Id(id2), libdat::chord::NodeAddr(id2 ^ 7));
        let msg = DatMsg::Update {
            key: Id(key),
            epoch,
            partial,
            sender,
        };
        let decoded = DatMsg::decode(&msg.encode()).unwrap();
        match (&msg, &decoded) {
            (DatMsg::Update { partial: p1, .. }, DatMsg::Update { partial: p2, .. }) => {
                assert_eq!(p1.count, p2.count, "case {case}");
                assert!(
                    p1.sum == p2.sum || (p1.sum.is_nan() && p2.sum.is_nan()),
                    "case {case}"
                );
            }
            _ => panic!("case {case}: variant changed"),
        }
    }
}

#[test]
fn dat_codec_never_panics_on_garbage() {
    let mut rng = SmallRng::seed_from_u64(0xBAD);
    for _ in 0..CASES * 4 {
        let len = rng.random_range(0usize..200);
        let bytes: Vec<u8> = (0..len).map(|_| rng.random::<u8>()).collect();
        let _ = DatMsg::decode(&bytes); // must return Err, never panic
    }
}

#[test]
fn udp_codec_never_panics_on_garbage() {
    let mut rng = SmallRng::seed_from_u64(0xDAB);
    for _ in 0..CASES * 4 {
        let len = rng.random_range(0usize..200);
        let bytes: Vec<u8> = (0..len).map(|_| rng.random::<u8>()).collect();
        let _ = libdat::rpc::decode(&bytes);
    }
}

#[test]
fn finger_limit_exact_integer_semantics() {
    let mut rng = SmallRng::seed_from_u64(0x1234);
    for case in 0..CASES * 4 {
        let x = rng.random_range(0u64..u64::MAX / 4);
        let d0 = rng.random_range(1u64..1u64 << 40);
        let g = finger_limit(x, d0);
        // Defining inequality: minimal g with 3·2^g >= x + 2·d0.
        let target = x as u128 + 2 * d0 as u128;
        assert!(
            3u128.checked_shl(g).map(|v| v >= target).unwrap_or(true),
            "case {case}"
        );
        if g > 0 {
            assert!(3u128 << (g - 1) < target, "case {case}");
        }
    }
}

#[test]
fn ceil_log2_ratio_is_exact() {
    let mut rng = SmallRng::seed_from_u64(0x4321);
    for case in 0..CASES * 4 {
        // Bias half the cases toward small denominators to hit large ratios.
        let num = 1 + (rng.random::<u64>() as u128) * (rng.random_range(1u64..1 << 16) as u128);
        let den = rng.random_range(1u64..1 << 40) as u128;
        let k = ceil_log2_ratio(num, den);
        assert!(
            den.checked_shl(k).map(|v| v >= num).unwrap_or(true),
            "case {case}"
        );
        if k > 0 {
            assert!(den << (k - 1) < num, "case {case}");
        }
    }
}

#[test]
fn id_space_distance_triangle() {
    let mut rng = SmallRng::seed_from_u64(0x5678);
    for case in 0..CASES * 4 {
        let bits = rng.random_range(1u32..=64) as u8;
        let s = IdSpace::new(bits);
        let (a, b, c) = (s.id(rng.random()), s.id(rng.random()), s.id(rng.random()));
        // Walking a→b→c covers the same arc as a→c modulo full turns.
        let d1 = s.dist_cw(a, b) as u128 + s.dist_cw(b, c) as u128;
        let d2 = s.dist_cw(a, c) as u128;
        assert_eq!(d1 % s.size(), d2 % s.size(), "case {case}");
    }
}

#[test]
fn hash_to_id_is_stable_and_in_range() {
    let charset = b"abcdefghijklmnopqrstuvwxyz-";
    let mut rng = SmallRng::seed_from_u64(0x9ABC);
    for case in 0..CASES * 2 {
        let bits = rng.random_range(1u32..=64) as u8;
        let len = rng.random_range(1usize..=32);
        let name: Vec<u8> = (0..len)
            .map(|_| charset[rng.random_range(0usize..charset.len())])
            .collect();
        let s = IdSpace::new(bits);
        let h1 = hash_to_id(s, &name);
        let h2 = hash_to_id(s, &name);
        assert_eq!(h1, h2, "case {case}");
        if bits < 64 {
            assert!((h1.raw() as u128) < s.size(), "case {case}");
        }
    }
}

#[test]
fn probed_rings_beat_random_gap_ratio() {
    let mut rng = SmallRng::seed_from_u64(0xDEF0);
    for case in 0..CASES / 2 {
        let n = rng.random_range(32usize..200);
        let seed: u64 = rng.random();
        let space = IdSpace::new(40);
        let mut ring_rng = SmallRng::seed_from_u64(seed);
        let probed = StaticRing::build(space, n, IdPolicy::Probed, &mut ring_rng);
        assert!(
            probed.gap_ratio() <= 16.0,
            "case {case}: ratio {}",
            probed.gap_ratio()
        );
    }
}
