//! Greedy and balanced Chord routing.
//!
//! *Greedy finger routing* (paper §3.1) always forwards a lookup for key `k`
//! to the closest preceding finger — each hop covers at least half of the
//! remaining clockwise arc, giving `O(log n)` hops but a skewed implicit
//! tree (the root ends up with `log2 n` children, §3.3).
//!
//! *Balanced routing* (paper §3.4, Algorithm 1) restricts the choice to
//! fingers of nominal offset at most `2^g(x)` where
//! `g(x) = ⌈log2((x + 2·d0) / 3)⌉`, `x` being the clockwise distance to the
//! rendezvous key and `d0` the average inter-node gap. On evenly spaced
//! rings this caps every node at two children while keeping the route
//! length within `log2 n` hops (§3.5).
//!
//! Both schemes are exposed in two forms: as *next-hop* decisions over a
//! node's [`FingerTable`] (used by the live protocol) and as pure functions
//! over identifiers (used by the static-ring analysis in [`crate::ring`]).

use crate::finger::{FingerTable, NodeRef};
use crate::id::{ceil_log2_ratio, Id, IdSpace};

/// Which routing scheme constructs the DAT tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, serde::Serialize, serde::Deserialize)]
pub enum RoutingScheme {
    /// Ordinary greedy finger routing — builds the *basic DAT* (§3.2).
    Greedy,
    /// Finger-limited balanced routing — builds the *balanced DAT* (§3.4).
    Balanced,
}

impl RoutingScheme {
    /// Short human-readable label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            RoutingScheme::Greedy => "basic",
            RoutingScheme::Balanced => "balanced",
        }
    }
}

/// Outcome of a parent/next-hop computation toward a rendezvous key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ParentDecision {
    /// This node owns the key — it is the DAT root and has no parent.
    IAmRoot,
    /// Forward to / aggregate into this node.
    Parent(NodeRef),
    /// The finger table is too empty to decide (node still joining).
    Unknown,
}

impl ParentDecision {
    /// The parent node, if any.
    pub fn parent(self) -> Option<NodeRef> {
        match self {
            ParentDecision::Parent(p) => Some(p),
            _ => None,
        }
    }
}

/// The finger-limiting function `g(x) = ⌈log2((x + 2·d0)/3)⌉` of §3.4,
/// computed with exact integer arithmetic: the minimal `g ≥ 0` such that
/// `3·2^g ≥ x + 2·d0`.
///
/// `d0` is the (average) distance between adjacent nodes; on a ring of `n`
/// evenly spaced nodes `d0 = 2^b / n`. Returns the *maximum admissible
/// nominal finger offset* exponent: fingers with offset `2^(j-1) ≤ 2^g(x)`
/// may be used as the parent finger.
pub fn finger_limit(x: u64, d0: u64) -> u32 {
    let num = x as u128 + 2 * d0.max(1) as u128;
    ceil_log2_ratio(num, 3)
}

/// Estimate the average inter-node gap `d0` from purely local state: the
/// gaps seen along the successor list and toward the predecessor. Falls
/// back to the whole ring (single-node view) when nothing is known.
///
/// The live protocol cannot evaluate `d0 = 2^b / n` exactly because `n` is
/// global; the estimate converges quickly because consistent hashing spaces
/// gaps within an `O(log n)` factor of the mean, and identifier probing
/// (§3.5) tightens that to a constant factor.
pub fn estimate_d0(table: &FingerTable) -> u64 {
    let space = table.space();
    let me = table.me().id;
    let mut gaps: Vec<u64> = Vec::with_capacity(table.successor_list().len() + 1);
    let mut prev = me;
    for s in table.successor_list() {
        let d = space.dist_cw(prev, s.id);
        if d > 0 {
            gaps.push(d);
        }
        prev = s.id;
    }
    if let Some(p) = table.predecessor() {
        let d = space.dist_cw(p.id, me);
        if d > 0 {
            gaps.push(d);
        }
    }
    if gaps.is_empty() {
        // Single-node ring: the node owns the entire space.
        return u64::try_from(space.size().min(u64::MAX as u128 + 1) - 1).unwrap_or(u64::MAX);
    }
    let sum: u128 = gaps.iter().map(|&g| g as u128).sum();
    (sum / gaps.len() as u128).max(1) as u64
}

/// Ring size implied by an average inter-node gap `d0`: `2^b / d0`.
pub fn ring_size_for_d0(space: IdSpace, d0: u64) -> u64 {
    u64::try_from(space.size() / d0.max(1) as u128)
        .unwrap_or(u64::MAX)
        .max(1)
}

/// Estimate the total number of ring nodes from purely local state (the
/// successor-list / predecessor gap density, see [`estimate_d0`]).
///
/// This is the `expected` side of the completeness accounting: the root
/// compares the number of nodes that actually contributed to a report
/// against this estimate to quantify how much of the grid the report
/// covers. On an evenly spaced (probed) ring the estimate is exact; on
/// random rings it is within the usual `O(log n)` consistent-hashing
/// spread.
pub fn estimate_ring_size(table: &FingerTable) -> u64 {
    ring_size_for_d0(table.space(), estimate_d0(table))
}

/// Greedy (basic DAT) parent of `table.me()` for rendezvous key `key`.
///
/// Implements the implicit-tree rule of §3.2: the parent is the next hop of
/// ordinary Chord finger routing toward `key`.
pub fn parent_basic(table: &FingerTable, key: Id) -> ParentDecision {
    let space = table.space();
    let me = table.me().id;
    // Am I the root? I own the key iff key ∈ (pred, me].
    if let Some(p) = table.predecessor() {
        if space.in_open_closed(key, p.id, me) {
            return ParentDecision::IAmRoot;
        }
    }
    let Some(succ) = table.successor() else {
        // A node alone on the ring is trivially the root of every tree.
        return if table.predecessor().is_none() {
            ParentDecision::IAmRoot
        } else {
            ParentDecision::Unknown
        };
    };
    // Final hop: key ∈ (me, succ] means the successor owns the key.
    if space.in_open_closed(key, me, succ.id) {
        return ParentDecision::Parent(succ);
    }
    match table.closest_preceding(key) {
        Some(n) => ParentDecision::Parent(n),
        // Nothing strictly inside (me, key): forward to the successor, which
        // is still progress (it is ∈ (me, key] here).
        None => ParentDecision::Parent(succ),
    }
}

/// Balanced (balanced DAT) parent of `table.me()` for key `key` using the
/// inter-node gap estimate `d0` (paper Algorithm 1).
///
/// Only fingers of nominal offset `2^(j-1) ≤ 2^g(x)` are admissible; among
/// them the closest preceding one is chosen. The immediate successor
/// (offset 1) is always admissible, so the scheme never stalls; every hop
/// strictly decreases the clockwise distance to `key`, so routes stay
/// loop-free.
pub fn parent_balanced(table: &FingerTable, key: Id, d0: u64) -> ParentDecision {
    let space = table.space();
    let me = table.me().id;
    if let Some(p) = table.predecessor() {
        if space.in_open_closed(key, p.id, me) {
            return ParentDecision::IAmRoot;
        }
    }
    let Some(succ) = table.successor() else {
        return if table.predecessor().is_none() {
            ParentDecision::IAmRoot
        } else {
            ParentDecision::Unknown
        };
    };
    if space.in_open_closed(key, me, succ.id) {
        return ParentDecision::Parent(succ);
    }
    let x = space.dist_cw(me, key);
    let g = finger_limit(x, d0);
    let limit: u128 = 1u128 << g.min(127);

    let mut best: Option<NodeRef> = None;
    let mut best_dist = u64::MAX;
    // A run is admissible from its lowest `j`, the smallest offset.
    for (j, fi) in table.runs() {
        if (space.finger_offset(j) as u128) > limit {
            continue;
        }
        let n = fi.node;
        if space.in_open_open(n.id, me, key) || n.id == key {
            let d = space.dist_cw(n.id, key);
            if d < best_dist {
                best_dist = d;
                best = Some(n);
            }
        }
    }
    match best {
        Some(n) => ParentDecision::Parent(n),
        // Successor (offset 1) is admissible and ∈ (me, key] whenever the
        // final-hop test above failed, so this only triggers on a degraded
        // table whose successor slot is empty but other fingers exist.
        None => ParentDecision::Parent(succ),
    }
}

/// Dispatch on [`RoutingScheme`].
pub fn parent_for(scheme: RoutingScheme, table: &FingerTable, key: Id, d0: u64) -> ParentDecision {
    match scheme {
        RoutingScheme::Greedy => parent_basic(table, key),
        RoutingScheme::Balanced => parent_balanced(table, key, d0),
    }
}

/// Pure-identifier greedy parent on an *ideal* ring — one where every node
/// has perfect fingers. `succ_of(x)` must return the first live node id at
/// or after `x` (clockwise). Used by the static-ring analysis.
///
/// Returns `None` when `me` owns `key` (it is the root).
pub fn ideal_parent_basic(
    space: IdSpace,
    me: Id,
    key: Id,
    succ_of: &dyn Fn(Id) -> Id,
) -> Option<Id> {
    let root = succ_of(key);
    if me == root {
        return None;
    }
    // Closest preceding finger: scan j = b..1 for the first finger in (me, key].
    for j in (1..=space.bits()).rev() {
        let f = succ_of(space.finger_start(me, j));
        if f != me && (space.in_open_open(f, me, key) || f == key) {
            return Some(f);
        }
    }
    Some(root)
}

/// Pure-identifier balanced parent on an ideal ring (see
/// [`ideal_parent_basic`]); `d0` as in [`parent_balanced`].
pub fn ideal_parent_balanced(
    space: IdSpace,
    me: Id,
    key: Id,
    d0: u64,
    succ_of: &dyn Fn(Id) -> Id,
) -> Option<Id> {
    let root = succ_of(key);
    if me == root {
        return None;
    }
    let x = space.dist_cw(me, key);
    let g = finger_limit(x, d0);
    let limit: u128 = 1u128 << g.min(127);
    for j in (1..=space.bits()).rev() {
        if (space.finger_offset(j) as u128) > limit {
            continue;
        }
        let f = succ_of(space.finger_start(me, j));
        if f != me && (space.in_open_open(f, me, key) || f == key) {
            return Some(f);
        }
    }
    Some(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finger::{FingerInfo, NodeAddr};

    fn nr(id: u64) -> NodeRef {
        NodeRef::new(Id(id), NodeAddr(id))
    }

    /// Finger table of node `me` on the full 16-node, 4-bit ring of Fig. 2.
    fn full_ring_table(me: u64) -> FingerTable {
        let space = IdSpace::new(4);
        let mut t = FingerTable::new(space, nr(me), 3);
        t.set_predecessor(Some(nr((me + 15) % 16)));
        for j in 1..=4u8 {
            let target = space.finger_start(Id(me), j);
            t.set_finger(j, FingerInfo::bare(nr(target.raw())));
        }
        t.set_successor_list(vec![
            nr((me + 1) % 16),
            nr((me + 2) % 16),
            nr((me + 3) % 16),
        ]);
        t
    }

    #[test]
    fn finger_limit_paper_example() {
        // N8 toward N0 on the 16-node ring: x = 8, d0 = 1 → g = 2.
        assert_eq!(finger_limit(8, 1), 2);
        assert_eq!(finger_limit(1, 1), 0);
        assert_eq!(finger_limit(2, 1), 1);
        assert_eq!(finger_limit(15, 1), 3);
    }

    #[test]
    fn finger_limit_scales_with_d0() {
        // Shrinking the space by d0 (paper: g(x) = ⌈log2((x + 2 d0)/3)⌉).
        assert_eq!(finger_limit(8 * 16, 16), finger_limit(8, 1) + 4);
        assert_eq!(finger_limit(0, 4), ceil_log2_ratio(8, 3)); // = 2
    }

    #[test]
    fn basic_parent_matches_fig2() {
        // Fig. 2: root N0; N8, N12, N14, N15 are children of N0.
        for me in [8u64, 12, 14, 15] {
            let t = full_ring_table(me);
            assert_eq!(
                parent_basic(&t, Id(0)),
                ParentDecision::Parent(nr(0)),
                "N{me}"
            );
        }
        // N1's route is <N1, N9, N13, N15, N0>: parent of N1 is N9.
        let t = full_ring_table(1);
        assert_eq!(parent_basic(&t, Id(0)), ParentDecision::Parent(nr(9)));
        // Root recognises itself.
        let t = full_ring_table(0);
        assert_eq!(parent_basic(&t, Id(0)), ParentDecision::IAmRoot);
    }

    #[test]
    fn balanced_parent_matches_fig5() {
        // Fig. 5: with balanced routing N8's parent becomes N12 (the paper's
        // text says "N1", a typo for N12 — see DESIGN.md).
        let t = full_ring_table(8);
        assert_eq!(
            parent_balanced(&t, Id(0), 1),
            ParentDecision::Parent(nr(12))
        );
        // All other nodes keep their Fig. 2 parents; spot-check N12 and N14.
        let t = full_ring_table(12);
        assert_eq!(
            parent_balanced(&t, Id(0), 1),
            ParentDecision::Parent(nr(14))
        );
        let t = full_ring_table(14);
        assert_eq!(parent_balanced(&t, Id(0), 1), ParentDecision::Parent(nr(0)));
    }

    #[test]
    fn balanced_whole_16_ring_branching_at_most_2() {
        let mut children = vec![0usize; 16];
        for me in 1..16u64 {
            let t = full_ring_table(me);
            match parent_balanced(&t, Id(0), 1) {
                ParentDecision::Parent(p) => children[p.id.raw() as usize] += 1,
                other => panic!("node {me}: unexpected {other:?}"),
            }
        }
        assert_eq!(children.iter().sum::<usize>(), 15);
        assert!(children.iter().all(|&c| c <= 2), "{children:?}");
    }

    #[test]
    fn singleton_ring_is_root() {
        let t = FingerTable::new(IdSpace::new(8), nr(42), 3);
        assert_eq!(parent_basic(&t, Id(7)), ParentDecision::IAmRoot);
        assert_eq!(parent_balanced(&t, Id(7), 1), ParentDecision::IAmRoot);
    }

    #[test]
    fn final_hop_goes_to_successor() {
        let space = IdSpace::new(8);
        let mut t = FingerTable::new(space, nr(10), 3);
        t.set_predecessor(Some(nr(5)));
        t.set_successor(nr(20));
        t.set_finger(5, FingerInfo::bare(nr(30)));
        // Key 15 ∈ (10, 20]: successor 20 is the root.
        assert_eq!(parent_basic(&t, Id(15)), ParentDecision::Parent(nr(20)));
        assert_eq!(
            parent_balanced(&t, Id(15), 1),
            ParentDecision::Parent(nr(20))
        );
        // Key 8 ∈ (5, 10]: we are the root.
        assert_eq!(parent_basic(&t, Id(8)), ParentDecision::IAmRoot);
    }

    #[test]
    fn ideal_helpers_agree_with_table_versions_on_even_ring() {
        let space = IdSpace::new(4);
        let succ_of = |x: Id| x; // every id is a node on the full ring
        for me in 0..16u64 {
            let t = full_ring_table(me);
            let via_table = parent_basic(&t, Id(0)).parent().map(|p| p.id);
            let via_ideal = ideal_parent_basic(space, Id(me), Id(0), &succ_of);
            assert_eq!(via_table, via_ideal, "basic N{me}");
            let via_table = parent_balanced(&t, Id(0), 1).parent().map(|p| p.id);
            let via_ideal = ideal_parent_balanced(space, Id(me), Id(0), 1, &succ_of);
            assert_eq!(via_table, via_ideal, "balanced N{me}");
        }
    }

    #[test]
    fn estimate_d0_from_neighbors() {
        let t = full_ring_table(8);
        assert_eq!(estimate_d0(&t), 1);
        // Lonely node: the whole space.
        let t = FingerTable::new(IdSpace::new(8), nr(0), 3);
        assert_eq!(estimate_d0(&t), 255);
    }

    #[test]
    fn ring_size_from_neighbors() {
        // Even 16-node ring: d0 = 1 over a 4-bit space → 16 nodes.
        let t = full_ring_table(8);
        assert_eq!(estimate_ring_size(&t), 16);
        // Lonely node: one occupant.
        let t = FingerTable::new(IdSpace::new(8), nr(0), 3);
        assert_eq!(estimate_ring_size(&t), 1);
        assert_eq!(ring_size_for_d0(IdSpace::new(32), 1 << 24), 256);
    }

    #[test]
    fn progress_invariant_balanced() {
        // Every balanced hop strictly decreases distance to the key.
        let space = IdSpace::new(4);
        for me in 1..16u64 {
            let t = full_ring_table(me);
            if let ParentDecision::Parent(p) = parent_balanced(&t, Id(0), 1) {
                assert!(
                    space.dist_cw(p.id, Id(0)) < space.dist_cw(Id(me), Id(0)),
                    "hop {me} -> {} does not progress",
                    p.id
                );
            }
        }
    }
}
