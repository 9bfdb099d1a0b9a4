//! Experiment harness: build whole overlays inside the simulator.
//!
//! Two construction paths, mirroring how the paper's experiments are run:
//!
//! * **live joins** ([`spawn_live_ring`]): every node executes the real
//!   join + stabilization protocol — used for churn/convergence
//!   experiments and to validate the protocol itself;
//! * **pre-stabilized** ([`prestabilized_chord`], [`prestabilized_stack`]
//!   and the protocol-specific wrappers): finger tables are materialised
//!   from a [`StaticRing`] global view, so a 8192-node converged overlay
//!   exists in milliseconds — used for the message-distribution
//!   experiments (Fig. 8) where only the converged behavior matters.
//!
//! All application overlays are built as [`StackNode`]s hosting the
//! relevant [`dat_core::AppProtocol`] handlers, so any mix of protocols
//! (DAT + MAAN + gossip…) shares one Chord substrate per node.

use dat_chord::{ChordConfig, ChordNode, Id, NodeAddr, NodeStatus, StaticRing};
use dat_core::{DatConfig, DatProtocol, ExplicitProtocol, GossipProtocol, StackNode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::net::{Actor, SimNet};

/// Read-only access to an actor's Chord substrate, so convergence checks
/// work uniformly over bare overlays and protocol stacks.
pub trait ChordView {
    /// The underlying Chord state machine.
    fn chord_view(&self) -> &ChordNode;
}

impl ChordView for ChordNode {
    fn chord_view(&self) -> &ChordNode {
        self
    }
}

impl ChordView for StackNode {
    fn chord_view(&self) -> &ChordNode {
        self.chord()
    }
}

/// Map ring identifiers to simulator addresses `0..n` (sorted-id order).
pub fn addr_book(ring: &StaticRing) -> std::collections::HashMap<Id, NodeAddr> {
    ring.ids()
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, NodeAddr(i as u64)))
        .collect()
}

/// Build a pre-stabilized Chord overlay: every node starts with the exact
/// finger table a converged protocol would hold.
pub fn prestabilized_chord(ring: &StaticRing, cfg: ChordConfig, seed: u64) -> SimNet<ChordNode> {
    assert_eq!(cfg.space, ring.space(), "config/ring space mismatch");
    let book = addr_book(ring);
    let addr_of = |id: Id| book[&id];
    let mut net = SimNet::new(seed);
    for &id in ring.ids() {
        let mut node = ChordNode::new(cfg, id, addr_of(id));
        let table = ring.table_of_with(id, cfg.succ_list_len, &addr_of);
        let outs = node.start_with_table(table);
        let addr = node.me().addr;
        net.add_node(node);
        net.apply(addr, outs);
    }
    net
}

/// Build a pre-stabilized overlay of protocol stacks. `make(i, id, addr)`
/// returns the [`StackNode`] for the `i`-th ring member — register any mix
/// of application protocols on it before returning.
pub fn prestabilized_stack<F>(
    ring: &StaticRing,
    ccfg: ChordConfig,
    seed: u64,
    mut make: F,
) -> SimNet<StackNode>
where
    F: FnMut(usize, Id, NodeAddr) -> StackNode,
{
    assert_eq!(ccfg.space, ring.space(), "config/ring space mismatch");
    let book = addr_book(ring);
    let addr_of = |id: Id| book[&id];
    let mut net = SimNet::new(seed);
    // Host everyone before anyone speaks: a protocol may send from its
    // start hook, and a send to an address nobody holds yet is dropped.
    let mut started = Vec::with_capacity(ring.ids().len());
    for (i, &id) in ring.ids().iter().enumerate() {
        let addr = addr_of(id);
        let mut node = make(i, id, addr);
        assert_eq!(node.me().id, id, "make() must honor the assigned id");
        assert_eq!(node.me().addr, addr, "make() must honor the assigned addr");
        let table = ring.table_of_with(id, ccfg.succ_list_len, &addr_of);
        started.push((addr, node.start_with_table(table)));
        net.add_node(node);
    }
    for (addr, outs) in started {
        net.apply(addr, outs);
    }
    net
}

/// Build a pre-stabilized DAT overlay (Chord + aggregation protocol).
pub fn prestabilized_dat(
    ring: &StaticRing,
    ccfg: ChordConfig,
    dcfg: DatConfig,
    seed: u64,
) -> SimNet<StackNode> {
    prestabilized_stack(ring, ccfg, seed, |_, id, addr| {
        StackNode::new(ccfg, id, addr).with_app(DatProtocol::new(dcfg))
    })
}

/// Build a pre-stabilized explicit-tree overlay (the churn baseline). Tree
/// membership still forms via the live `JoinTree` protocol — only the
/// Chord substrate is pre-converged, matching the DAT side for a fair
/// comparison.
pub fn prestabilized_explicit(
    ring: &StaticRing,
    ccfg: ChordConfig,
    key: Id,
    seed: u64,
) -> SimNet<StackNode> {
    prestabilized_stack(ring, ccfg, seed, |_, id, addr| {
        StackNode::new(ccfg, id, addr).with_app(ExplicitProtocol::new(key))
    })
}

/// Build a pre-stabilized push-sum gossip overlay; node `i` contributes
/// `value_of(i)`.
pub fn prestabilized_gossip<F>(
    ring: &StaticRing,
    ccfg: ChordConfig,
    seed: u64,
    mut value_of: F,
) -> SimNet<StackNode>
where
    F: FnMut(usize) -> f64,
{
    prestabilized_stack(ring, ccfg, seed, |i, id, addr| {
        StackNode::new(ccfg, id, addr).with_app(GossipProtocol::new(value_of(i)))
    })
}

/// Spawn an `n`-node overlay through real protocol joins. Nodes join
/// sequentially (each given `join_gap_ms` of virtual time), then the
/// network runs `settle_ms` longer for fingers to converge. Returns the
/// network and the sorted final identifiers.
pub fn spawn_live_ring(
    n: usize,
    cfg: ChordConfig,
    seed: u64,
    join_gap_ms: u64,
    settle_ms: u64,
) -> (SimNet<ChordNode>, Vec<Id>) {
    assert!(n >= 1);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    let mut net = SimNet::new(seed);
    let first_id = cfg.space.random(&mut rng);
    let mut first = ChordNode::new(cfg, first_id, NodeAddr(0));
    let outs = first.start_create();
    let bootstrap = first.me();
    net.add_node(first);
    net.apply(NodeAddr(0), outs);
    for i in 1..n {
        let id = cfg.space.random(&mut rng);
        let mut node = ChordNode::new(cfg, id, NodeAddr(i as u64));
        let outs = node.start_join(bootstrap);
        net.add_node(node);
        net.apply(NodeAddr(i as u64), outs);
        net.run_for(join_gap_ms);
    }
    net.run_for(settle_ms);
    let mut ids: Vec<Id> = net
        .iter_nodes()
        .filter(|(_, node)| node.status() == NodeStatus::Active)
        .map(|(_, node)| node.me().id)
        .collect();
    ids.sort_unstable();
    (net, ids)
}

/// Check that the overlay's successor pointers form exactly the ring over
/// the given sorted ids. Works for bare Chord overlays and protocol stacks
/// alike (anything [`ChordView`]).
pub fn ring_converged<A>(net: &SimNet<A>, sorted_ids: &[Id]) -> bool
where
    A: Actor + ChordView,
{
    if sorted_ids.len() <= 1 {
        return true;
    }
    let pos: std::collections::HashMap<Id, usize> = sorted_ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i))
        .collect();
    for (_, actor) in net.iter_nodes() {
        let node = actor.chord_view();
        if node.status() != NodeStatus::Active {
            continue;
        }
        let Some(&i) = pos.get(&node.me().id) else {
            return false;
        };
        let expect = sorted_ids[(i + 1) % sorted_ids.len()];
        match node.table().successor() {
            Some(s) if s.id == expect => {}
            _ => return false,
        }
    }
    true
}

/// Fraction of finger entries across the overlay that match the ideal
/// (fully converged) finger tables implied by the membership.
pub fn finger_convergence<A>(net: &SimNet<A>, sorted_ids: &[Id]) -> f64
where
    A: Actor + ChordView,
{
    let ring = StaticRing::from_ids(
        net.iter_nodes()
            .next()
            .map(|(_, n)| n.chord_view().space())
            .unwrap_or_default(),
        sorted_ids.to_vec(),
    );
    let mut total = 0usize;
    let mut good = 0usize;
    for (_, actor) in net.iter_nodes() {
        let node = actor.chord_view();
        if node.status() != NodeStatus::Active {
            continue;
        }
        let me = node.me().id;
        let space = node.space();
        for j in 1..=space.bits() {
            let ideal = ring.successor(space.finger_start(me, j));
            if ideal == me {
                continue; // finger wraps to self: no entry expected
            }
            total += 1;
            if node.table().finger(j).map(|f| f.node.id) == Some(ideal) {
                good += 1;
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        good as f64 / total as f64
    }
}

/// Pick `k` distinct random addresses of live nodes.
pub fn sample_addrs<A: Actor>(net: &SimNet<A>, k: usize, rng: &mut SmallRng) -> Vec<NodeAddr> {
    let mut addrs = net.addrs();
    let k = k.min(addrs.len());
    // Partial Fisher-Yates.
    for i in 0..k {
        let j = rng.random_range(i..addrs.len());
        addrs.swap(i, j);
    }
    addrs.truncate(k);
    addrs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dat_chord::{IdPolicy, IdSpace};

    fn cfg(bits: u8) -> ChordConfig {
        ChordConfig {
            space: IdSpace::new(bits),
            ..ChordConfig::default()
        }
    }

    #[test]
    fn prestabilized_ring_is_converged_from_t0() {
        let mut rng = SmallRng::seed_from_u64(9);
        let ring = StaticRing::build(IdSpace::new(24), 64, IdPolicy::Random, &mut rng);
        let net = prestabilized_chord(&ring, cfg(24), 1);
        assert!(ring_converged(&net, ring.ids()));
        assert_eq!(finger_convergence(&net, ring.ids()), 1.0);
    }

    #[test]
    fn prestabilized_dat_stack_is_converged_too() {
        let mut rng = SmallRng::seed_from_u64(11);
        let ring = StaticRing::build(IdSpace::new(24), 32, IdPolicy::Random, &mut rng);
        let net = prestabilized_dat(&ring, cfg(24), DatConfig::default(), 1);
        assert!(ring_converged(&net, ring.ids()));
        assert_eq!(finger_convergence(&net, ring.ids()), 1.0);
    }

    #[test]
    fn prestabilized_lookup_resolves_in_log_hops() {
        let mut rng = SmallRng::seed_from_u64(10);
        let ring = StaticRing::build(IdSpace::new(24), 128, IdPolicy::Random, &mut rng);
        let mut net = prestabilized_chord(&ring, cfg(24), 2);
        net.set_record_upcalls(true);
        let from = NodeAddr(0);
        let key = Id(123_456);
        let req = net.with_node(from, |n| n.lookup(key)).unwrap();
        net.run_for(10_000);
        let ups = net.take_upcalls();
        let (owner, hops) = ups
            .iter()
            .find_map(|u| match &u.upcall {
                dat_chord::Upcall::LookupDone {
                    req: r,
                    owner,
                    hops,
                    ..
                } if *r == req => Some((owner.id, *hops)),
                _ => None,
            })
            .expect("lookup completes");
        assert_eq!(owner, ring.successor(key));
        assert!(hops <= 2 * 7 + 2, "hops {hops} not O(log n)"); // log2(128)=7
    }

    #[test]
    fn retransmission_rides_out_twenty_percent_loss() {
        // A live 8-node bring-up under 20% i.i.d. loss with a single
        // protocol-level join attempt per node. End-to-end RTO
        // retransmission (same datagram, same first hop) recovers every
        // dropped exchange; the single-shot config loses joins for good.
        let build = |max_retries: u32| {
            let c = ChordConfig {
                max_retries,
                max_join_retries: 1,
                ..cfg(24)
            };
            let mut rng = SmallRng::seed_from_u64(0x10c5);
            let mut net = SimNet::new(0x10c5);
            net.set_loss(crate::latency::LossModel::new(0.2));
            let first_id = c.space.random(&mut rng);
            let mut first = ChordNode::new(c, first_id, NodeAddr(0));
            let outs = first.start_create();
            let bootstrap = first.me();
            net.add_node(first);
            net.apply(NodeAddr(0), outs);
            for i in 1..8u64 {
                let id = c.space.random(&mut rng);
                let mut node = ChordNode::new(c, id, NodeAddr(i));
                let outs = node.start_join(bootstrap);
                net.add_node(node);
                net.apply(NodeAddr(i), outs);
                net.run_for(5_000);
            }
            net.run_for(120_000);
            net
        };

        let net = build(8);
        let mut ids: Vec<Id> = net
            .iter_nodes()
            .filter(|(_, n)| n.status() == NodeStatus::Active)
            .map(|(_, n)| n.me().id)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids.len(), 8, "with retries every node joins despite loss");
        assert!(ring_converged(&net, &ids), "lossy ring still closes");
        let retransmits: u64 = net.iter_nodes().map(|(_, n)| n.metrics().retransmits).sum();
        assert!(retransmits > 0, "20% loss must exercise the RTO path");

        let net = build(0);
        let active = net
            .iter_nodes()
            .filter(|(_, n)| n.status() == NodeStatus::Active)
            .count();
        assert!(
            active < 8,
            "single-shot joins should not all survive 20% loss"
        );
    }

    #[test]
    fn live_ring_converges_small() {
        let (net, ids) = spawn_live_ring(8, cfg(32), 3, 3_000, 30_000);
        assert_eq!(ids.len(), 8, "every node must join");
        assert!(ring_converged(&net, &ids), "successor ring must close");
        assert!(
            finger_convergence(&net, &ids) > 0.9,
            "fingers mostly converged: {}",
            finger_convergence(&net, &ids)
        );
    }

    #[test]
    fn stack_hosts_two_protocols_on_one_substrate() {
        // One StackNode per ring member hosting DAT *and* gossip: the
        // engine multiplexes both over a single finger table.
        let mut rng = SmallRng::seed_from_u64(21);
        let ring = StaticRing::build(IdSpace::new(24), 16, IdPolicy::Random, &mut rng);
        let c = cfg(24);
        let mut net = prestabilized_stack(&ring, c, 7, |i, id, addr| {
            StackNode::new(c, id, addr)
                .with_app(DatProtocol::new(DatConfig::default()))
                .with_app(GossipProtocol::new(i as f64))
        });
        assert!(ring_converged(&net, ring.ids()));
        net.run_for(30_000);
        let addr = NodeAddr(0);
        let n = net.node(addr).unwrap();
        assert_eq!(
            n.protocols(),
            vec![dat_core::DAT_PROTO, dat_core::GOSSIP_PROTO]
        );
        assert!(n.gossip().round() > 0, "gossip rounds ran");
    }

    #[test]
    fn sample_addrs_distinct() {
        let mut rng = SmallRng::seed_from_u64(4);
        let ring = StaticRing::build(IdSpace::new(24), 32, IdPolicy::Random, &mut rng);
        let net = prestabilized_chord(&ring, cfg(24), 5);
        let s = sample_addrs(&net, 10, &mut rng);
        assert_eq!(s.len(), 10);
        let set: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), 10);
        let all = sample_addrs(&net, 999, &mut rng);
        assert_eq!(all.len(), 32);
    }

    /// The engine's CI-sized proxy for a million nodes: a 98,304-node
    /// prestabilized ring runs one virtual second of maintenance without
    /// clamping or dropping. Release-only (`cargo test --release -p
    /// dat-sim --lib -- --ignored a_100k_ring`); `scripts/ci.sh` runs it
    /// under a wall-clock budget.
    #[test]
    #[ignore = "100k nodes: run in release, as scripts/ci.sh does"]
    fn a_100k_ring_runs_a_virtual_second_clean() {
        let mut rng = SmallRng::seed_from_u64(0x5ca1e);
        let ring = StaticRing::build(IdSpace::new(40), 98_304, IdPolicy::Random, &mut rng);
        let mut net = prestabilized_chord(&ring, cfg(40), 0x5ca1e);
        net.run_for(1_000);
        assert!(
            net.events_processed() > 0,
            "maintenance must generate events"
        );
        assert_eq!(net.clamped_events(), 0, "timer wheel span exceeded");
        assert_eq!(net.dropped, 0);
    }
}
