//! Finger tables, successor lists and fingers-of-fingers (FOF) state.
//!
//! Each Chord node keeps `b` fingers spaced exponentially in the identifier
//! space: `FINGER(v, j)` is the first node succeeding `v + 2^(j-1)`
//! (paper §3.1). The DAT prototype additionally keeps "the information of
//! its *fingers of finger* (FOF)" (§4) — we store each finger's predecessor
//! and successor as learned during finger fixing, which is what identifier
//! probing and local child computation consume.

use crate::{Id, IdSpace};

/// An opaque transport endpoint for a node. The simulator uses the node's
/// index; the UDP transport maps it to a socket address via an address book.
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct NodeAddr(pub u64);

/// A reference to a remote node: its ring identifier plus how to reach it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, serde::Serialize, serde::Deserialize)]
pub struct NodeRef {
    /// Ring identifier of the node.
    pub id: Id,
    /// Transport endpoint of the node.
    pub addr: NodeAddr,
}

impl NodeRef {
    /// Convenience constructor.
    pub fn new(id: Id, addr: NodeAddr) -> Self {
        NodeRef { id, addr }
    }
}

/// Neighborhood information about one finger: the finger itself plus the
/// FOF data (its predecessor and first successor) learned when the finger
/// was last fixed. `gap` — the arc `(pred, node]` — is what identifier
/// probing ranks candidates by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FingerInfo {
    /// The finger node.
    pub node: NodeRef,
    /// The finger's predecessor at fix time, if known.
    pub pred: Option<NodeRef>,
    /// The finger's first successor at fix time, if known.
    pub succ: Option<NodeRef>,
}

impl FingerInfo {
    /// A finger with no FOF data yet.
    pub fn bare(node: NodeRef) -> Self {
        FingerInfo {
            node,
            pred: None,
            succ: None,
        }
    }

    /// Size of the identifier gap owned by this finger, when its
    /// predecessor is known: `dist(pred, node)`.
    pub fn gap(&self, space: IdSpace) -> Option<u64> {
        self.pred.map(|p| space.dist_cw(p.id, self.node.id))
    }
}

/// `FINGER(me, j) = self.info()` for every `j` in `first..=last`: one
/// stored copy of a finger that fills consecutive slots. The FOF
/// neighbours are stored without their `Option` tags, a flag byte beside
/// the slot bounds saying which are known: 56 bytes a run.
#[derive(Clone, Copy, Debug)]
struct Run {
    first: u8,
    last: u8,
    /// [`KNOWN_PRED`] | [`KNOWN_SUCC`]: which neighbours are known.
    known: u8,
    node: NodeRef,
    /// The finger's predecessor; [`UNKNOWN`] unless `known` says so.
    pred: NodeRef,
    /// The finger's first successor; [`UNKNOWN`] unless `known` says so.
    succ: NodeRef,
}

/// [`Run::known`] bit: `pred` holds the finger's predecessor.
const KNOWN_PRED: u8 = 1;
/// [`Run::known`] bit: `succ` holds the finger's first successor.
const KNOWN_SUCC: u8 = 2;
/// What an unknown neighbour slot holds.
const UNKNOWN: NodeRef = NodeRef {
    id: Id(0),
    addr: NodeAddr(0),
};

impl Run {
    fn new(first: u8, last: u8, info: FingerInfo) -> Self {
        let known = if info.pred.is_some() { KNOWN_PRED } else { 0 }
            | if info.succ.is_some() { KNOWN_SUCC } else { 0 };
        Run {
            first,
            last,
            known,
            node: info.node,
            pred: info.pred.unwrap_or(UNKNOWN),
            succ: info.succ.unwrap_or(UNKNOWN),
        }
    }

    fn info(&self) -> FingerInfo {
        FingerInfo {
            node: self.node,
            pred: (self.known & KNOWN_PRED != 0).then_some(self.pred),
            succ: (self.known & KNOWN_SUCC != 0).then_some(self.succ),
        }
    }
}

/// The per-node routing state: predecessor, successor list and the finger
/// table proper.
#[derive(Clone, Debug)]
pub struct FingerTable {
    space: IdSpace,
    me: NodeRef,
    /// The populated fingers `FINGER(me, j)`, `j = 1..=b`, as runs of
    /// equal consecutive fingers, ascending `j`; an empty slot is in no
    /// run, and two adjacent runs differ. On a `b`-bit ring of `n` nodes
    /// the first `b − log2 n` or so fingers are all the successor, so a
    /// table keeps about `log2 n` runs instead of `b` slots.
    runs: Vec<Run>,
    /// Successor list for fault tolerance (first entry mirrors finger 1).
    successors: Vec<NodeRef>,
    /// Maximum successor-list length.
    succ_list_len: usize,
    predecessor: Option<NodeRef>,
    /// Change counter, see [`FingerTable::version`].
    version: u64,
}

impl FingerTable {
    /// Create an empty table for node `me` in `space`, keeping a successor
    /// list of `succ_list_len` entries.
    pub fn new(space: IdSpace, me: NodeRef, succ_list_len: usize) -> Self {
        FingerTable {
            space,
            me,
            runs: Vec::new(),
            successors: Vec::new(),
            succ_list_len: succ_list_len.max(1),
            predecessor: None,
            version: 0,
        }
    }

    /// A counter that moves whenever the predecessor, the successor list
    /// or the node a finger points at changes. Anything derived from those
    /// alone — a DAT parent, a `d0` estimate — is still valid while the
    /// counter it was computed under stands. FOF detail (a finger's own
    /// neighbours) refreshes without moving it; a mutator call that leaves
    /// the table as it was may or may not.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Make this table — about to replace one whose counter read `old` —
    /// read as changed to whoever derived something from the old one.
    pub(crate) fn supersede(&mut self, old: u64) {
        self.version = self.version.max(old) + 1;
    }

    /// The identifier space this table lives in.
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// The owning node.
    pub fn me(&self) -> NodeRef {
        self.me
    }

    /// Current predecessor, if known.
    pub fn predecessor(&self) -> Option<NodeRef> {
        self.predecessor
    }

    /// Set/replace the predecessor unconditionally.
    pub fn set_predecessor(&mut self, p: Option<NodeRef>) {
        self.version += u64::from(self.predecessor != p);
        self.predecessor = p;
    }

    /// Adopt `candidate` as predecessor if it is closer than the current one
    /// (the Chord `notify` rule). Returns `true` if the predecessor changed.
    pub fn notify(&mut self, candidate: NodeRef) -> bool {
        if candidate.id == self.me.id {
            return false;
        }
        let adopt = match self.predecessor {
            None => true,
            Some(p) => self.space.in_open_open(candidate.id, p.id, self.me.id),
        };
        if adopt {
            self.predecessor = Some(candidate);
            self.version += 1;
        }
        adopt
    }

    /// Immediate successor (finger 1 / head of the successor list).
    pub fn successor(&self) -> Option<NodeRef> {
        self.successors
            .first()
            .copied()
            .or_else(|| self.finger(1).map(|f| f.node))
    }

    /// Full successor list, nearest first.
    pub fn successor_list(&self) -> &[NodeRef] {
        &self.successors
    }

    /// Replace the successor list with `succs` (already orderered nearest
    /// first), truncating to the configured length, and mirror the head into
    /// finger 1.
    pub fn set_successor_list(&mut self, succs: Vec<NodeRef>) {
        let mut list: Vec<NodeRef> = Vec::with_capacity(self.succ_list_len);
        for s in succs {
            if s.id != self.me.id && !list.iter().any(|o| o.id == s.id) {
                list.push(s);
            }
            if list.len() == self.succ_list_len {
                break;
            }
        }
        if let Some(&head) = list.first() {
            self.set_finger(1, FingerInfo::bare(head));
        }
        self.version += u64::from(self.successors != list);
        self.successors = list;
    }

    /// Set the immediate successor, pushing the old list down.
    pub fn set_successor(&mut self, s: NodeRef) {
        self.version += 1;
        if s.id == self.me.id {
            self.successors.clear();
            self.put(1, None);
            return;
        }
        let mut list = Vec::with_capacity(self.succ_list_len);
        list.push(s);
        for &old in &self.successors {
            if old.id != s.id && old.id != self.me.id {
                list.push(old);
            }
        }
        list.truncate(self.succ_list_len);
        self.successors = list;
        self.put(1, Some(FingerInfo::bare(s)));
    }

    /// Drop a failed node from every slot it occupies. Returns `true` if
    /// anything changed.
    pub fn evict(&mut self, dead: Id) -> bool {
        let mut changed = false;
        if self.predecessor.map(|p| p.id) == Some(dead) {
            self.predecessor = None;
            changed = true;
        }
        let before = self.successors.len();
        self.successors.retain(|s| s.id != dead);
        changed |= self.successors.len() != before;
        // A dropped run leaves a gap on both sides: nothing to merge.
        let before = self.runs.len();
        self.runs.retain(|r| r.node.id != dead);
        self.runs.shrink_to_fit();
        changed |= self.runs.len() != before;
        // Keep finger 1 mirroring the successor list head.
        if let Some(&head) = self.successors.first() {
            if self.finger(1).map(|f| f.node.id) != Some(head.id) {
                self.put(1, Some(FingerInfo::bare(head)));
                self.version += 1;
            }
        }
        self.version += u64::from(changed);
        changed
    }

    /// `FINGER(me, j)` for `j = 1..=b`.
    pub fn finger(&self, j: u8) -> Option<FingerInfo> {
        assert!((1..=self.space.bits()).contains(&j));
        let i = self.runs.partition_point(|r| r.last < j);
        self.runs.get(i).filter(|r| r.first <= j).map(Run::info)
    }

    /// Install finger `j`.
    pub fn set_finger(&mut self, j: u8, info: FingerInfo) {
        assert!((1..=self.space.bits()).contains(&j));
        let new = (info.node.id != self.me.id).then_some(info);
        // Finger fixing re-installs the node it found last round, with
        // fresh FOF detail: only a different node counts as a change.
        self.version += u64::from(self.finger(j).map(|f| f.node) != new.map(|f| f.node));
        self.put(j, new);
        if new.is_none() {
            return;
        }
        if j == 1 {
            // Mirror into the successor list head.
            if self.successors.first().map(|s| s.id) != Some(info.node.id) {
                self.version += 1;
                let mut list = vec![info.node];
                list.extend(
                    self.successors
                        .iter()
                        .copied()
                        .filter(|s| s.id != info.node.id),
                );
                list.truncate(self.succ_list_len);
                self.successors = list;
            }
        }
    }

    /// Store `new` in slot `j`: carve `j` out of the run holding it, then
    /// extend a neighbouring equal run over it or start a run of its own.
    /// Installing fingers in ascending `j`, as a table is built, only ever
    /// extends or appends the last run. Runs are added one at a time and
    /// given back the same way: a table holds a handful, and every node
    /// keeps one.
    fn put(&mut self, j: u8, new: Option<FingerInfo>) {
        self.place(j, new);
        self.runs.shrink_to_fit();
    }

    /// [`FingerTable::put`] short of giving spare capacity back.
    fn place(&mut self, j: u8, new: Option<FingerInfo>) {
        let mut i = self.runs.partition_point(|r| r.last < j);
        match self.runs.get(i).copied() {
            Some(r) if r.first <= j => {
                if Some(r.info()) == new {
                    return;
                }
                match (r.first == j, r.last == j) {
                    (true, true) => {
                        self.runs.remove(i);
                    }
                    (true, false) => self.runs[i].first = j + 1,
                    (false, true) => {
                        self.runs[i].last = j - 1;
                        i += 1;
                    }
                    (false, false) => {
                        self.runs[i].last = j - 1;
                        i += 1;
                        let tail = Run { first: j + 1, ..r };
                        self.runs.reserve_exact(1);
                        self.runs.insert(i, tail);
                    }
                }
            }
            _ => {}
        }
        // Every run before `i` ends below `j`; every run from `i` on
        // starts above it.
        let Some(info) = new else {
            return;
        };
        let joins_prev = i > 0 && self.runs[i - 1].last + 1 == j && self.runs[i - 1].info() == info;
        let joins_next = self
            .runs
            .get(i)
            .is_some_and(|r| r.first == j + 1 && r.info() == info);
        match (joins_prev, joins_next) {
            (true, true) => {
                self.runs[i - 1].last = self.runs[i].last;
                self.runs.remove(i);
            }
            (true, false) => self.runs[i - 1].last = j,
            (false, true) => self.runs[i].first = j,
            (false, false) => {
                self.runs.reserve_exact(1);
                self.runs.insert(i, Run::new(j, j, info));
            }
        }
    }

    /// Iterate `(j, FingerInfo)` over the populated fingers, ascending `j`.
    pub fn iter(&self) -> impl Iterator<Item = (u8, FingerInfo)> + '_ {
        self.runs
            .iter()
            .flat_map(|r| (r.first..=r.last).map(move |j| (j, r.info())))
    }

    /// Iterate `(j, FingerInfo)` over runs of equal consecutive fingers,
    /// ascending: each run once, at its lowest `j`. A node that fills
    /// several non-adjacent slots appears once per run.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (u8, FingerInfo)> + '_ {
        self.runs.iter().map(|r| (r.first, r.info()))
    }

    /// The distinct nodes known to this table (fingers + successors +
    /// predecessor), deduplicated by id.
    pub fn known_nodes(&self) -> Vec<NodeRef> {
        let mut out: Vec<NodeRef> = Vec::new();
        let mut push = |n: NodeRef| {
            if n.id != self.me.id && !out.iter().any(|o| o.id == n.id) {
                out.push(n);
            }
        };
        for (_, f) in self.runs() {
            push(f.node);
        }
        for &s in &self.successors {
            push(s);
        }
        if let Some(p) = self.predecessor {
            push(p);
        }
        out
    }

    /// Closest known node preceding-or-at `key` (the greedy routing helper,
    /// paper §3.1): the populated finger in `(me, key]` that maximises
    /// clockwise progress. A finger sitting exactly at `key` owns the key
    /// and is therefore the best possible hop (this is how N8 reaches N0
    /// directly in the paper's Fig. 2). Falls back over successors too.
    pub fn closest_preceding(&self, key: Id) -> Option<NodeRef> {
        let mut best: Option<NodeRef> = None;
        let mut best_dist = u64::MAX;
        let consider = |n: NodeRef, best: &mut Option<NodeRef>, best_dist: &mut u64| {
            if self.space.in_open_closed(n.id, self.me.id, key) {
                let d = self.space.dist_cw(n.id, key);
                if d < *best_dist {
                    *best_dist = d;
                    *best = Some(n);
                }
            }
        };
        // Fingers only: this is what defines the paper's finger routes and
        // hence the basic-DAT tree shape (e.g. node 13's parent toward key 0
        // on the Fig. 2 ring is its finger 15, even if its successor list
        // happens to contain the root). A run's node is weighed once.
        for (_, f) in self.runs() {
            consider(f.node, &mut best, &mut best_dist);
        }
        if best.is_some() {
            return best;
        }
        // Degraded table: fall back on the successor list so routing still
        // makes progress while fingers are being fixed.
        for &s in &self.successors {
            consider(s, &mut best, &mut best_dist);
        }
        best
    }

    /// The fan-out of an on-demand query over `(me, limit)` (the whole ring
    /// when `limit` is this node): the distinct fingers strictly inside it,
    /// ordered by clockwise distance from this node, each paired with the
    /// next one's id as the sub-limit of its disjoint share (the last one
    /// inherits `limit`).
    pub fn fan_out(&self, limit: Id) -> Vec<(NodeRef, Id)> {
        let me = self.me.id;
        let mut targets: Vec<NodeRef> = Vec::new();
        for (_, fi) in self.runs() {
            let n = fi.node;
            let inside = if limit == me {
                n.id != me
            } else {
                self.space.in_open_open(n.id, me, limit)
            };
            if inside && !targets.iter().any(|t| t.id == n.id) {
                targets.push(n);
            }
        }
        targets.sort_by_key(|t| self.space.dist_cw(me, t.id));
        (0..targets.len())
            .map(|i| (targets[i], targets.get(i + 1).map_or(limit, |next| next.id)))
            .collect()
    }

    /// Number of populated fingers.
    pub fn populated(&self) -> usize {
        self.runs
            .iter()
            .map(|r| usize::from(r.last - r.first) + 1)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nr(id: u64) -> NodeRef {
        NodeRef::new(Id(id), NodeAddr(id))
    }

    fn table() -> FingerTable {
        FingerTable::new(IdSpace::new(4), nr(8), 3)
    }

    #[test]
    fn successor_mirrors_finger_one() {
        let mut t = table();
        t.set_successor(nr(9));
        assert_eq!(t.successor().unwrap().id, Id(9));
        assert_eq!(t.finger(1).unwrap().node.id, Id(9));
        t.set_finger(1, FingerInfo::bare(nr(10)));
        assert_eq!(t.successor().unwrap().id, Id(10));
        assert_eq!(t.successor_list()[0].id, Id(10));
    }

    #[test]
    fn successor_list_truncated_and_deduped() {
        let mut t = table();
        t.set_successor_list(vec![nr(9), nr(10), nr(9), nr(12), nr(14)]);
        let ids: Vec<u64> = t.successor_list().iter().map(|s| s.id.raw()).collect();
        assert_eq!(ids, vec![9, 10, 12]);
    }

    #[test]
    fn self_references_rejected() {
        let mut t = table();
        t.set_successor(nr(8));
        assert!(t.successor().is_none());
        t.set_finger(2, FingerInfo::bare(nr(8)));
        assert!(t.finger(2).is_none());
        t.set_successor_list(vec![nr(8), nr(9)]);
        assert_eq!(t.successor().unwrap().id, Id(9));
    }

    #[test]
    fn notify_rule() {
        let mut t = table();
        assert!(t.notify(nr(3)));
        assert_eq!(t.predecessor().unwrap().id, Id(3));
        // 5 ∈ (3, 8): closer predecessor, adopt.
        assert!(t.notify(nr(5)));
        assert_eq!(t.predecessor().unwrap().id, Id(5));
        // 3 ∉ (5, 8): keep 5.
        assert!(!t.notify(nr(3)));
        assert_eq!(t.predecessor().unwrap().id, Id(5));
        // Self is never a predecessor.
        assert!(!t.notify(nr(8)));
    }

    #[test]
    fn closest_preceding_picks_max_progress() {
        let mut t = table();
        t.set_finger(1, FingerInfo::bare(nr(9)));
        t.set_finger(2, FingerInfo::bare(nr(10)));
        t.set_finger(3, FingerInfo::bare(nr(12)));
        t.set_finger(4, FingerInfo::bare(nr(0)));
        // Toward key 0: finger 0 IS the key (and thus owns it) — take it
        // directly, as N8 does in the paper's Fig. 2.
        assert_eq!(t.closest_preceding(Id(0)).unwrap().id, Id(0));
        // Toward key 11: best in (8, 11] is 10.
        assert_eq!(t.closest_preceding(Id(11)).unwrap().id, Id(10));
        // Toward key 9: the successor 9 sits exactly at the key.
        assert_eq!(t.closest_preceding(Id(9)).unwrap().id, Id(9));
        // Toward key 8 (our own id): the whole ring precedes it; max
        // progress is the finger just before 8, i.e. 0... none closer than
        // 12? 12 is at distance 12 from key 8; 0 is at distance 8 — best.
        assert_eq!(t.closest_preceding(Id(8)).unwrap().id, Id(0));
    }

    #[test]
    fn evict_clears_everywhere() {
        let mut t = table();
        t.set_successor_list(vec![nr(9), nr(10), nr(12)]);
        t.set_finger(3, FingerInfo::bare(nr(9)));
        t.set_predecessor(Some(nr(9)));
        assert!(t.evict(Id(9)));
        assert!(t.predecessor().is_none());
        assert_eq!(t.successor().unwrap().id, Id(10));
        assert!(t.finger(3).is_none());
        assert_eq!(t.finger(1).unwrap().node.id, Id(10));
        assert!(!t.evict(Id(9)));
    }

    #[test]
    fn known_nodes_dedup() {
        let mut t = table();
        t.set_successor_list(vec![nr(9), nr(10)]);
        t.set_finger(3, FingerInfo::bare(nr(12)));
        t.set_predecessor(Some(nr(5)));
        let mut ids: Vec<u64> = t.known_nodes().iter().map(|n| n.id.raw()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![5, 9, 10, 12]);
    }

    #[test]
    fn fan_out_covers_disjoint_ranges() {
        // Node 0 of a full 16-node, 4-bit ring: fingers 1, 2, 4, 8.
        let mut t = FingerTable::new(IdSpace::new(4), nr(0), 3);
        t.set_predecessor(Some(nr(15)));
        for j in 1..=4u8 {
            let start = t.space().finger_start(Id(0), j);
            t.set_finger(j, FingerInfo::bare(nr(start.raw())));
        }
        // The whole ring: one share per distinct finger, nearest first,
        // each ending where the next begins; the last wraps back to us.
        let shares: Vec<(u64, u64)> = t
            .fan_out(Id(0))
            .iter()
            .map(|(n, limit)| (n.id.raw(), limit.raw()))
            .collect();
        assert_eq!(shares, vec![(1, 2), (2, 4), (4, 8), (8, 0)]);
        // A sub-range keeps only the fingers strictly inside it.
        let shares: Vec<(u64, u64)> = t
            .fan_out(Id(8))
            .iter()
            .map(|(n, limit)| (n.id.raw(), limit.raw()))
            .collect();
        assert_eq!(shares, vec![(1, 2), (2, 4), (4, 8)]);
    }

    /// Runs against the plain `b`-slot table they replace: every mutator,
    /// in a seeded random mix, leaves the same fingers, only a different
    /// node moves the version, and the runs stay sorted, disjoint and
    /// maximal (two adjacent runs always differ).
    #[test]
    fn runs_match_a_slot_per_finger_model() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        for seed in 0..40u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut t = FingerTable::new(IdSpace::new(6), nr(8), 3);
            let mut slots: Vec<Option<FingerInfo>> = vec![None; 6];
            for _ in 0..300 {
                // Few nodes and two FOF variants, so equal neighbours are
                // common; node 8 is the owner itself.
                let node = nr([8, 9, 12, 20, 40][rng.random_range(0..5usize)]);
                let info = FingerInfo {
                    node,
                    pred: rng.random_bool(0.5).then(|| nr(node.id.raw() + 1)),
                    succ: None,
                };
                let version = t.version();
                match rng.random_range(0..8u32) {
                    0 => {
                        t.set_successor(node);
                        slots[0] = (node.id != Id(8)).then(|| FingerInfo::bare(node));
                    }
                    1 => {
                        t.evict(node.id);
                        for s in slots.iter_mut() {
                            if s.is_some_and(|f| f.node.id == node.id) {
                                *s = None;
                            }
                        }
                        if let Some(&head) = t.successor_list().first() {
                            if slots[0].map(|f| f.node.id) != Some(head.id) {
                                slots[0] = Some(FingerInfo::bare(head));
                            }
                        }
                    }
                    _ => {
                        let j = rng.random_range(1..=6u32) as u8;
                        let old = slots[usize::from(j - 1)].map(|f| f.node);
                        t.set_finger(j, info);
                        let new = (node.id != Id(8)).then_some(info);
                        slots[usize::from(j - 1)] = new;
                        // Only a different node moves the version (finger 1
                        // may also move it by re-heading the successor list).
                        if old != new.map(|f| f.node) {
                            assert!(t.version() > version, "seed {seed} j {j}");
                        } else if j > 1 {
                            assert_eq!(t.version(), version, "seed {seed} j {j}");
                        }
                    }
                }
                for j in 1..=6u8 {
                    assert_eq!(t.finger(j), slots[usize::from(j - 1)], "seed {seed} j {j}");
                }
                let want: Vec<(u8, FingerInfo)> = (1u8..)
                    .zip(&slots)
                    .filter_map(|(j, s)| s.map(|f| (j, f)))
                    .collect();
                assert_eq!(t.iter().collect::<Vec<_>>(), want, "seed {seed}");
                assert_eq!(t.populated(), want.len());
                for w in t.runs.windows(2) {
                    assert!(w[0].first <= w[0].last && w[0].last < w[1].first);
                    assert!(w[0].last + 1 < w[1].first || w[0].info() != w[1].info());
                }
                assert_eq!(
                    t.runs.capacity(),
                    t.runs.len(),
                    "seed {seed}: spare run slots"
                );
            }
        }
    }

    #[test]
    fn a_full_ring_keeps_one_run_per_distinct_finger() {
        // 40-bit ring, 1024 nodes: the first ~30 fingers are all the
        // successor, and only the last ~10 differ.
        let space = IdSpace::new(40);
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(7);
        let ring = crate::StaticRing::build(space, 1024, crate::IdPolicy::Probed, &mut rng);
        let t = ring.table_of(ring.ids()[17], 8);
        assert_eq!(t.populated(), 40);
        assert!(t.runs.len() <= 16, "{} runs", t.runs.len());
        assert_eq!(t.runs.capacity(), t.runs.len());
    }

    #[test]
    fn a_finger_run_takes_56_bytes() {
        assert!(std::mem::size_of::<Run>() <= 56);
    }

    #[test]
    fn evict_gives_capacity_back() {
        let space = IdSpace::new(6);
        let mut t = FingerTable::new(space, nr(0), 3);
        for (j, n) in [(1, 1), (2, 2), (3, 4), (4, 8), (5, 16), (6, 32)] {
            t.set_finger(j, FingerInfo::bare(nr(n)));
        }
        assert_eq!(t.runs.len(), 6);
        assert!(t.evict(Id(8)));
        assert!(t.evict(Id(16)));
        assert_eq!(t.runs.len(), 4);
        assert_eq!(t.runs.capacity(), t.runs.len());
    }

    #[test]
    fn finger_gap_uses_fof() {
        let space = IdSpace::new(4);
        let fi = FingerInfo {
            node: nr(12),
            pred: Some(nr(9)),
            succ: Some(nr(14)),
        };
        assert_eq!(fi.gap(space), Some(3));
        assert_eq!(FingerInfo::bare(nr(12)).gap(space), None);
    }
}
