//! Tree-property analysis: the metrics of the paper's Fig. 7.
//!
//! *Maximum branching factor* bounds the worst per-node aggregation load;
//! *average branching factor* (over interior nodes) characterises the tree
//! shape; *height* bounds aggregation latency in hops. [`TreeStats`]
//! computes all of them from a materialised [`crate::tree::DatTree`].
//! Fig. 8's message counts are measured on the live protocol; the bench
//! crate's `crosscheck` holds them to [`DatTree::branching`] (one message
//! per child per round).

use crate::tree::DatTree;

/// Shape statistics of one DAT tree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeStats {
    /// Number of member nodes.
    pub nodes: usize,
    /// Maximum branching factor over all nodes.
    pub max_branching: usize,
    /// Mean branching factor over *interior* nodes (the paper's "average
    /// branching factor": leaves do not aggregate anything).
    pub avg_branching: f64,
    /// Tree height (max depth).
    pub height: u32,
    /// Mean node depth.
    pub avg_depth: f64,
    /// Number of leaves.
    pub leaves: usize,
}

impl TreeStats {
    /// Compute statistics for `tree`.
    pub fn of(tree: &DatTree) -> Self {
        let mut max_b = 0usize;
        let mut interior = 0usize;
        let mut edges = 0usize;
        let mut depth_sum = 0u64;
        let mut leaves = 0usize;
        let mut count = 0usize;
        for &v in tree.all_ids() {
            count += 1;
            let b = tree.branching(v);
            max_b = max_b.max(b);
            if b > 0 {
                interior += 1;
                edges += b;
            } else {
                leaves += 1;
            }
            depth_sum += tree.depth(v).unwrap_or(0) as u64;
        }
        TreeStats {
            nodes: count,
            max_branching: max_b,
            avg_branching: if interior == 0 {
                0.0
            } else {
                edges as f64 / interior as f64
            },
            height: tree.height(),
            avg_depth: if count == 0 {
                0.0
            } else {
                depth_sum as f64 / count as f64
            },
            leaves,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dat_chord::{Id, IdPolicy, IdSpace, RoutingScheme, StaticRing};
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
    fn stats_of_fig2_basic_tree() {
        let ring = even_ring(4, 16);
        let t = DatTree::build(&ring, Id(0), RoutingScheme::Greedy);
        let s = TreeStats::of(&t);
        assert_eq!(s.nodes, 16);
        assert_eq!(s.max_branching, 4); // the root
        assert_eq!(s.height, 4);
        assert_eq!(s.leaves + (16 - s.leaves), 16);
        // 15 edges over interior nodes.
        assert!(s.avg_branching > 1.0);
    }

    #[test]
    fn stats_of_fig5_balanced_tree() {
        let ring = even_ring(4, 16);
        let t = DatTree::build(&ring, Id(0), RoutingScheme::Balanced);
        let s = TreeStats::of(&t);
        assert_eq!(s.max_branching, 2);
        assert_eq!(s.height, 4);
        // Nearly-complete binary tree: avg branching ≈ 2 over interior.
        assert!(
            (1.5..=2.0).contains(&s.avg_branching),
            "{}",
            s.avg_branching
        );
    }

    #[test]
    fn message_counts_sum_to_n_minus_1() {
        let mut rng = SmallRng::seed_from_u64(3);
        let ring = StaticRing::build(IdSpace::new(24), 200, IdPolicy::Random, &mut rng);
        for scheme in [RoutingScheme::Greedy, RoutingScheme::Balanced] {
            // A node receives one message per child in a round.
            let t = DatTree::build(&ring, Id(99), scheme);
            let total: usize = t.all_ids().map(|&v| t.branching(v)).sum();
            assert_eq!(total, 199, "each non-root sends exactly one message");
        }
    }
}
