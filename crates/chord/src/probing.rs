//! Identifier probing's designation rule (Adler et al., STOC'03; paper §3.5).
//!
//! With plain random identifiers the ratio between the largest and smallest
//! inter-node gap grows as `O(log n)`, which makes even the balanced DAT's
//! branching factor grow logarithmically (paper Fig. 7). Probing fixes the
//! distribution at join time: the joining node contacts the successor of a
//! random identifier, that node inspects itself plus its `O(log n)` fingers
//! and designates the midpoint of the largest gap it can see. [`designate`]
//! is that rule, written once for its two callers: the live protocol
//! (`ChordNode`'s probe-join handler) and the static ring builder
//! ([`crate::ring::StaticRing::probe_join_id`]).
//! [`crate::ring::StaticRing::gap_ratio`] measures what it achieves.

use crate::id::{Id, IdSpace};

/// Among the `(start, end]` gaps given, take the first strictly largest —
/// callers control priority by ordering (the probed node first, then its
/// fingers) — and return its midpoint. `None` when every gap is empty.
pub fn designate(space: IdSpace, gaps: impl IntoIterator<Item = (Id, Id)>) -> Option<Id> {
    let mut best = None;
    let mut best_len = 0;
    for (start, end) in gaps {
        let len = space.dist_cw(start, end);
        if len > best_len {
            best_len = len;
            best = Some((start, end));
        }
    }
    best.map(|(start, end)| space.midpoint(start, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{IdPolicy, StaticRing};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn split_point_is_midpoint() {
        let s = IdSpace::new(8);
        assert_eq!(designate(s, [(Id(10), Id(30))]), Some(Id(20)));
        // Wrapping gap.
        assert_eq!(designate(s, [(Id(250), Id(6))]), Some(Id(0)));
    }

    #[test]
    fn largest_gap_selection() {
        let s = IdSpace::new(8);
        let gaps = [(Id(0), Id(10)), (Id(10), Id(40)), (Id(40), Id(50))];
        assert_eq!(designate(s, gaps), Some(Id(25)));
    }

    #[test]
    fn equal_gaps_keep_the_first_in_order() {
        // Two gaps of 20: the first listed wins, not the smaller `start`.
        let s = IdSpace::new(8);
        assert_eq!(
            designate(s, [(Id(100), Id(120)), (Id(10), Id(30))]),
            Some(Id(110))
        );
        assert_eq!(
            designate(s, [(Id(10), Id(30)), (Id(100), Id(120))]),
            Some(Id(20))
        );
    }

    #[test]
    fn empty_gaps_filtered() {
        let s = IdSpace::new(8);
        assert_eq!(designate(s, [(Id(5), Id(5))]), None);
        assert_eq!(designate(s, []), None);
        // An empty gap listed first does not shadow a real one.
        assert_eq!(designate(s, [(Id(5), Id(5)), (Id(5), Id(9))]), Some(Id(7)));
    }

    #[test]
    fn stats_on_even_ring() {
        let s = IdSpace::new(6);
        let ring = StaticRing::from_ids(s, (0..16u64).map(|i| Id(i * 4)).collect());
        assert_eq!(ring.gap_ratio(), 1.0);
    }

    #[test]
    fn stats_singleton() {
        let ring = StaticRing::from_ids(IdSpace::new(8), vec![Id(7)]);
        assert_eq!(ring.gap_ratio(), 1.0);
    }

    #[test]
    fn probing_beats_random_on_ratio_many_seeds() {
        let space = IdSpace::new(32);
        let mut probed_worst = 0.0f64;
        for seed in 0..5u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let ring = StaticRing::build(space, 256, IdPolicy::Probed, &mut rng);
            probed_worst = probed_worst.max(ring.gap_ratio());
        }
        // Adler et al.: constant-factor bound. Our probe uses b fingers,
        // giving ratios well under 8 in practice.
        assert!(probed_worst <= 8.0, "worst probed ratio {probed_worst}");
    }
}
