//! Global-view ("static") Chord rings for analysis and experiments.
//!
//! The tree-property experiments of the paper (Fig. 7) need rings of up to
//! 8192 nodes with three identifier-placement policies: uniform random,
//! perfectly even, and *probed* (Adler et al.'s identifier probing, §3.5).
//! [`StaticRing`] holds the sorted membership, answers `successor()` queries
//! in `O(log n)`, and materialises per-node [`FingerTable`]s identical to
//! what a fully stabilized live overlay would converge to — so analysis
//! results cross-validate the protocol implementation.

use crate::finger::{FingerInfo, FingerTable, NodeAddr, NodeRef};
use crate::id::{Id, IdSpace};
use crate::probing;
use rand::Rng;

/// How node identifiers are assigned when building a ring.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IdPolicy {
    /// Uniformly random identifiers (plain Chord join).
    Random,
    /// Perfectly evenly spaced identifiers (the idealised analysis case of
    /// §3.3/§3.5).
    Even,
    /// Identifier probing at join time: each joining node probes the
    /// successor of a random id plus that successor's fingers and splits the
    /// largest owned interval (Adler et al. \[1\], §3.5).
    Probed,
}

impl IdPolicy {
    /// Label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            IdPolicy::Random => "random",
            IdPolicy::Even => "even",
            IdPolicy::Probed => "probed",
        }
    }
}

/// An immutable global view of a Chord ring: the sorted set of member
/// identifiers.
#[derive(Clone, Debug)]
pub struct StaticRing {
    space: IdSpace,
    /// Sorted ascending, unique.
    ids: Vec<Id>,
}

impl StaticRing {
    /// Build a ring from arbitrary ids (sorted + deduplicated internally).
    /// Panics on an empty membership.
    pub fn from_ids(space: IdSpace, mut ids: Vec<Id>) -> Self {
        assert!(!ids.is_empty(), "a ring needs at least one node");
        ids.sort_unstable();
        ids.dedup();
        StaticRing { space, ids }
    }

    /// Build a ring of `n` nodes following `policy`.
    pub fn build<R: Rng + ?Sized>(space: IdSpace, n: usize, policy: IdPolicy, rng: &mut R) -> Self {
        assert!(n >= 1);
        match policy {
            IdPolicy::Random => {
                let mut set = std::collections::BTreeSet::new();
                while set.len() < n {
                    set.insert(space.random(rng));
                }
                StaticRing {
                    space,
                    ids: set.into_iter().collect(),
                }
            }
            IdPolicy::Even => {
                let step = space.size() / n as u128;
                assert!(step >= 1, "space too small for {n} even nodes");
                let ids = (0..n as u128)
                    .map(|i| space.id((i * step) as u64))
                    .collect();
                StaticRing { space, ids }
            }
            IdPolicy::Probed => {
                let mut ring = StaticRing::from_ids(space, vec![space.random(rng)]);
                while ring.len() < n {
                    let id = ring.probe_join_id(rng);
                    if ring.contains(id) {
                        // Unsplittable gap (space exhausted locally): fall
                        // back to a random identifier so the build always
                        // terminates.
                        ring.insert(space.random(rng));
                    } else {
                        ring.insert(id);
                    }
                }
                ring
            }
        }
    }

    /// The identifier space.
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the ring has no nodes — never, by construction.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Sorted member identifiers.
    pub fn ids(&self) -> &[Id] {
        &self.ids
    }

    /// `true` iff `id` is a member.
    pub fn contains(&self, id: Id) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Insert a node (no-op when present).
    pub fn insert(&mut self, id: Id) {
        if let Err(pos) = self.ids.binary_search(&id) {
            self.ids.insert(pos, id);
        }
    }

    /// Remove a node. Panics when removing the last member.
    pub fn remove(&mut self, id: Id) -> bool {
        match self.ids.binary_search(&id) {
            Ok(pos) => {
                assert!(self.ids.len() > 1, "cannot remove the last ring member");
                self.ids.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// `successor(k)`: the first member at or clockwise-after `k`.
    pub fn successor(&self, k: Id) -> Id {
        match self.ids.binary_search(&k) {
            Ok(pos) => self.ids[pos],
            Err(pos) => {
                if pos == self.ids.len() {
                    self.ids[0]
                } else {
                    self.ids[pos]
                }
            }
        }
    }

    /// The member immediately preceding `id` clockwise (wrapping).
    pub fn predecessor(&self, id: Id) -> Id {
        match self.ids.binary_search(&id) {
            Ok(pos) | Err(pos) => {
                if pos == 0 {
                    *self.ids.last().unwrap()
                } else {
                    self.ids[pos - 1]
                }
            }
        }
    }

    /// Gap owned by member `id`: the clockwise distance from its predecessor.
    /// For a singleton ring this is the whole space (saturated to `u64`).
    pub fn gap_of(&self, id: Id) -> u64 {
        if self.ids.len() == 1 {
            return u64::try_from(self.space.size() - 1).unwrap_or(u64::MAX);
        }
        self.space.dist_cw(self.predecessor(id), id)
    }

    /// Average inter-node gap `d0 = 2^b / n`, the quantity Algorithm 1 line 3
    /// plugs into `g(x)`.
    pub fn d0(&self) -> u64 {
        (self.space.size() / self.ids.len() as u128).max(1) as u64
    }

    /// The id a joining node would be assigned under identifier probing:
    /// route to the successor of a random id and let it designate one with
    /// the [`probing::designate`] rule. A singleton is the only possible
    /// anchor, so it draws no random id.
    pub fn probe_join_id<R: Rng + ?Sized>(&self, rng: &mut R) -> Id {
        let anchor = if self.ids.len() == 1 {
            self.ids[0]
        } else {
            self.successor(self.space.random(rng))
        };
        self.designate_at(anchor)
    }

    /// The id member `anchor` designates for a prober: the
    /// [`probing::designate`] rule over `anchor`'s own gap, then the gap of
    /// each of its `b` fingers. A singleton owns the whole circle and
    /// splits it opposite itself.
    pub(crate) fn designate_at(&self, anchor: Id) -> Id {
        let space = self.space;
        let fingers = (1..=space.bits()).map(|j| self.successor(space.finger_start(anchor, j)));
        let gaps = std::iter::once(anchor)
            .chain(fingers)
            .map(|v| (self.predecessor(v), v));
        probing::designate(space, gaps)
            .unwrap_or_else(|| space.add(anchor, (space.size() / 2) as u64))
    }

    /// Ratio of the maximal to minimal inter-node gap — `O(log n)` for
    /// random placement, `O(1)` with probing (§3.5).
    pub fn gap_ratio(&self) -> f64 {
        if self.ids.len() < 2 {
            return 1.0;
        }
        let mut min = u64::MAX;
        let mut max = 0u64;
        for &id in &self.ids {
            let g = self.gap_of(id);
            min = min.min(g);
            max = max.max(g);
        }
        max as f64 / min.max(1) as f64
    }

    /// Materialise the fully-stabilized [`FingerTable`] of member `id`,
    /// with FOF (predecessor/successor of each finger) populated, exactly as
    /// the live protocol converges to. `addr_of` maps ids to transport
    /// endpoints; use [`Self::table_of`] for the identity mapping.
    pub fn table_of_with(
        &self,
        id: Id,
        succ_list_len: usize,
        addr_of: &dyn Fn(Id) -> NodeAddr,
    ) -> FingerTable {
        assert!(self.contains(id), "node {id} is not a ring member");
        let space = self.space;
        let me = NodeRef::new(id, addr_of(id));
        let mut t = FingerTable::new(space, me, succ_list_len);
        if self.ids.len() == 1 {
            return t;
        }
        t.set_predecessor(Some(self.node_ref(self.predecessor(id), addr_of)));
        // Successor list: walk clockwise.
        let mut succs = Vec::with_capacity(succ_list_len);
        let mut cur = id;
        for _ in 0..succ_list_len.min(self.ids.len() - 1) {
            cur = self.successor(self.space.add(cur, 1));
            if cur == id {
                break;
            }
            succs.push(self.node_ref(cur, addr_of));
        }
        t.set_successor_list(succs);
        for j in 1..=space.bits() {
            let f = self.successor(space.finger_start(id, j));
            if f == id {
                continue;
            }
            let info = FingerInfo {
                node: self.node_ref(f, addr_of),
                pred: Some(self.node_ref(self.predecessor(f), addr_of)),
                succ: Some(self.node_ref(self.successor(space.add(f, 1)), addr_of)),
            };
            t.set_finger(j, info);
        }
        t
    }

    /// [`Self::table_of_with`] using `NodeAddr(id.raw())` endpoints.
    pub fn table_of(&self, id: Id, succ_list_len: usize) -> FingerTable {
        self.table_of_with(id, succ_list_len, &|i: Id| NodeAddr(i.raw()))
    }

    fn node_ref(&self, id: Id, addr_of: &dyn Fn(Id) -> NodeAddr) -> NodeRef {
        NodeRef::new(id, addr_of(id))
    }

    /// Full greedy finger route from `from` to the successor of `key`,
    /// inclusive of both endpoints (paper §3.1 `f_{u,v}`).
    pub fn finger_route(&self, from: Id, key: Id) -> Vec<Id> {
        let root = self.successor(key);
        let mut path = vec![from];
        let mut cur = from;
        while cur != root {
            let next =
                crate::routing::ideal_parent_basic(self.space, cur, key, &|x| self.successor(x))
                    .expect("non-root node must have a next hop");
            debug_assert!(
                self.space.dist_cw(next, key) < self.space.dist_cw(cur, key) || next == root,
                "route must progress"
            );
            path.push(next);
            cur = next;
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn even16() -> StaticRing {
        StaticRing::build(
            IdSpace::new(4),
            16,
            IdPolicy::Even,
            &mut SmallRng::seed_from_u64(1),
        )
    }

    #[test]
    fn successor_and_predecessor_wrap() {
        let r = StaticRing::from_ids(IdSpace::new(4), vec![Id(2), Id(7), Id(12)]);
        assert_eq!(r.successor(Id(0)), Id(2));
        assert_eq!(r.successor(Id(2)), Id(2));
        assert_eq!(r.successor(Id(3)), Id(7));
        assert_eq!(r.successor(Id(13)), Id(2)); // wraps
        assert_eq!(r.predecessor(Id(2)), Id(12)); // wraps
        assert_eq!(r.predecessor(Id(7)), Id(2));
        assert_eq!(r.predecessor(Id(0)), Id(12));
    }

    #[test]
    fn gaps_and_d0() {
        let r = StaticRing::from_ids(IdSpace::new(4), vec![Id(2), Id(7), Id(12)]);
        assert_eq!(r.gap_of(Id(2)), 6); // 12 -> 2
        assert_eq!(r.gap_of(Id(7)), 5);
        assert_eq!(r.gap_of(Id(12)), 5);
        assert_eq!(r.d0(), 5); // 16/3
        let even = even16();
        assert_eq!(even.d0(), 1);
        assert_eq!(even.gap_ratio(), 1.0);
    }

    #[test]
    fn even_ring_ids() {
        let r = even16();
        assert_eq!(r.len(), 16);
        assert_eq!(r.ids()[3], Id(3));
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut r = StaticRing::from_ids(IdSpace::new(8), vec![Id(10), Id(200)]);
        r.insert(Id(100));
        assert!(r.contains(Id(100)));
        assert_eq!(r.len(), 3);
        r.insert(Id(100)); // idempotent
        assert_eq!(r.len(), 3);
        assert!(r.remove(Id(100)));
        assert!(!r.remove(Id(100)));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn finger_route_matches_paper_fig2() {
        // Fig. 2(b): the finger route from N1 to N0 is <N1, N9, N13, N15, N0>.
        let r = even16();
        assert_eq!(
            r.finger_route(Id(1), Id(0)),
            vec![Id(1), Id(9), Id(13), Id(15), Id(0)]
        );
        // Route from the root itself is trivial.
        assert_eq!(r.finger_route(Id(0), Id(0)), vec![Id(0)]);
    }

    #[test]
    fn table_of_full_even_ring() {
        let r = even16();
        let t = r.table_of(Id(8), 3);
        assert_eq!(t.predecessor().unwrap().id, Id(7));
        assert_eq!(t.successor().unwrap().id, Id(9));
        assert_eq!(t.finger(3).unwrap().node.id, Id(12));
        assert_eq!(t.finger(4).unwrap().node.id, Id(0));
        // FOF populated.
        assert_eq!(t.finger(4).unwrap().pred.unwrap().id, Id(15));
        assert_eq!(t.finger(4).unwrap().succ.unwrap().id, Id(1));
        let ids: Vec<u64> = t.successor_list().iter().map(|s| s.id.raw()).collect();
        assert_eq!(ids, vec![9, 10, 11]);
    }

    #[test]
    fn table_of_singleton() {
        let r = StaticRing::from_ids(IdSpace::new(8), vec![Id(5)]);
        let t = r.table_of(Id(5), 4);
        assert!(t.successor().is_none());
        assert!(t.predecessor().is_none());
        assert_eq!(t.populated(), 0);
    }

    #[test]
    fn random_ring_sized_correctly() {
        let mut rng = SmallRng::seed_from_u64(42);
        let r = StaticRing::build(IdSpace::new(32), 500, IdPolicy::Random, &mut rng);
        assert_eq!(r.len(), 500);
        let mut sorted = r.ids().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, r.ids());
    }

    #[test]
    fn probing_tightens_gap_ratio() {
        let mut rng = SmallRng::seed_from_u64(7);
        let space = IdSpace::new(40);
        let random = StaticRing::build(space, 1024, IdPolicy::Random, &mut rng);
        let probed = StaticRing::build(space, 1024, IdPolicy::Probed, &mut rng);
        assert!(
            probed.gap_ratio() < random.gap_ratio(),
            "probed {} !< random {}",
            probed.gap_ratio(),
            random.gap_ratio()
        );
        // Adler et al. bound: constant factor; allow slack but require far
        // below the random ring's O(log n) spread.
        assert!(probed.gap_ratio() <= 8.0, "ratio {}", probed.gap_ratio());
    }

    #[test]
    fn probe_join_splits_largest_gap() {
        // Ring {0, 1}: the largest gap is (1 -> 0], size 255; probing must
        // split it near its midpoint regardless of the random anchor.
        let r = StaticRing::from_ids(IdSpace::new(8), vec![Id(0), Id(1)]);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10 {
            let id = r.probe_join_id(&mut rng);
            assert_eq!(id, r.space().midpoint(Id(1), Id(0)));
        }
    }
}
