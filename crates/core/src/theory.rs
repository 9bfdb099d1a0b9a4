//! Closed-form tree properties (paper §3.3 and §3.5).
//!
//! For a basic DAT over `n` *evenly distributed* nodes the paper derives
//! the branching factor of node `i` as
//!
//! ```text
//! B(i, n) = log2(n) − ⌈log2(d/d0 + 1)⌉
//! ```
//!
//! with `d = DIST(i, r)` the clockwise distance from `i` to the root and
//! `d0` the distance between adjacent nodes. For the balanced DAT, §3.5
//! proves a maximum branching factor of 2 and a height of at most
//! `log2 n`. This module evaluates those formulas exactly (integer
//! arithmetic only) so property tests can pin the constructed trees
//! against the theory — the strongest form of "reproducing the analysis".

use dat_chord::{ceil_log2_ratio, Id, IdSpace};

/// Theoretical basic-DAT branching factor `B(i, n)` for a ring of `n`
/// evenly spaced nodes: `log2(n) − ⌈log2(d/d0 + 1)⌉`, evaluated with exact
/// rational arithmetic (`⌈log2((d + d0)/d0)⌉`).
///
/// `d` is the clockwise distance from node `i` to the root `r` in
/// identifier units; `d0 = 2^b / n`. `n` must be a power of two for the
/// closed form to be exact.
pub fn basic_branching(space: IdSpace, i: Id, root: Id, n: usize) -> u32 {
    assert!(n.is_power_of_two(), "closed form requires n = 2^k");
    let log2n = n.ilog2();
    let d = space.dist_cw(i, root);
    if d == 0 {
        // The root itself: B = log2 n.
        return log2n;
    }
    let d0 = (space.size() / n as u128).max(1);
    let term = ceil_log2_ratio(d as u128 + d0, d0);
    log2n.saturating_sub(term)
}

/// Theoretical upper bounds for the balanced DAT on an even ring (§3.5):
/// `(max_branching, max_height) = (2, log2 n)`.
pub fn balanced_bounds(n: usize) -> (u32, u32) {
    let h = if n <= 1 {
        0
    } else {
        (n as f64).log2().ceil() as u32
    };
    (2, h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::TreeStats;
    use crate::tree::DatTree;
    use dat_chord::{IdPolicy, RoutingScheme, StaticRing};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn even_ring(bits: u8, n: usize) -> StaticRing {
        StaticRing::build(
            IdSpace::new(bits),
            n,
            IdPolicy::Even,
            &mut SmallRng::seed_from_u64(0),
        )
    }

    #[test]
    fn formula_matches_fig2_examples() {
        let space = IdSpace::new(4);
        // Root N0 on the 16-node ring: B = log2 16 = 4.
        assert_eq!(basic_branching(space, Id(0), Id(0), 16), 4);
        // N15 (d = 1): B = 4 − ⌈log2 2⌉ = 3.
        assert_eq!(basic_branching(space, Id(15), Id(0), 16), 3);
        // N8 (d = 8): B = 4 − ⌈log2 9⌉ = 0 (leaf).
        assert_eq!(basic_branching(space, Id(8), Id(0), 16), 0);
        // N12 (d = 4): B = 4 − ⌈log2 5⌉ = 1.
        assert_eq!(basic_branching(space, Id(12), Id(0), 16), 1);
    }

    #[test]
    fn formula_matches_constructed_tree_exactly() {
        // On perfectly even rings the closed form must equal the
        // constructed branching factor for every node.
        for (bits, n) in [(4u8, 16usize), (6, 64), (10, 1024), (16, 256)] {
            let ring = even_ring(bits, n);
            let t = DatTree::build(&ring, Id(0), RoutingScheme::Greedy);
            let space = ring.space();
            for &v in ring.ids() {
                let expect = basic_branching(space, v, Id(0), n);
                assert_eq!(t.branching(v) as u32, expect, "bits={bits} n={n} node={v}");
            }
        }
    }

    #[test]
    fn formula_with_nonzero_root() {
        // The closed form is exact whenever the rendezvous key coincides
        // with a node identifier — the root need not be id 0.
        let ring = even_ring(8, 64);
        let key = Id(12);
        let t = DatTree::build(&ring, key, RoutingScheme::Greedy);
        assert_eq!(ring.successor(key), Id(12));
        for &v in ring.ids() {
            let expect = basic_branching(ring.space(), v, Id(12), 64);
            assert_eq!(t.branching(v) as u32, expect, "node={v}");
        }
    }

    #[test]
    fn formula_within_one_for_offgrid_keys() {
        // When the rendezvous key falls *between* node identifiers, routing
        // still targets the key, so the aggregation hub is the key's closest
        // preceding node; the root (the key's successor) degenerates into a
        // pass-through with exactly one child. Measuring distances to the
        // key, the closed form still holds within ±1 for every other node.
        let ring = even_ring(8, 64);
        let key = Id(9); // between nodes 8 and 12 on the step-4 grid
        let t = DatTree::build(&ring, key, RoutingScheme::Greedy);
        let root = ring.successor(key);
        assert_eq!(root, Id(12));
        assert_eq!(
            t.branching(root),
            1,
            "off-grid root is a pass-through under its hub"
        );
        for &v in ring.ids() {
            if v == root {
                continue;
            }
            let expect = basic_branching(ring.space(), v, key, 64) as i64;
            let got = t.branching(v) as i64;
            assert!(
                (got - expect).abs() <= 1,
                "node={v}: constructed {got} vs formula {expect}"
            );
        }
    }

    #[test]
    fn balanced_bounds_hold_on_even_rings() {
        for n in [2usize, 4, 16, 128, 1024] {
            let ring = even_ring(12, n);
            let t = DatTree::build(&ring, Id(0), RoutingScheme::Balanced);
            let s = TreeStats::of(&t);
            let (max_b, max_h) = balanced_bounds(n);
            assert!(
                s.max_branching as u32 <= max_b,
                "n={n}: {}",
                s.max_branching
            );
            assert!(s.height <= max_h, "n={n}: height {}", s.height);
        }
    }

    #[test]
    fn min_nonleaf_branching_is_one_in_expected_interval() {
        // §3.3: interior nodes in [r − n·d0/4, r − n·d0/2) have B = 1.
        let ring = even_ring(8, 64); // d0 = 4
        let t = DatTree::build(&ring, Id(0), RoutingScheme::Greedy);
        // d ∈ [64, 128): e.g. node 256-96 = 160 (d = 96).
        let v = Id(160);
        assert_eq!(t.branching(v), 1);
    }

    #[test]
    fn g_of_x_monotone_nondecreasing() {
        let mut prev = 0;
        for x in 0..10_000u64 {
            let g = dat_chord::finger_limit(x, 16);
            assert!(g >= prev);
            prev = g;
        }
    }
}
