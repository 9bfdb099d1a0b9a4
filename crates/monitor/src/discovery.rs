//! Resource discovery — the consumer-facing face of P-GMA.
//!
//! Consumers "can directly search resources or monitor their status by
//! issuing multi-attribute range queries to any nodes in the P2P indexing
//! network" (paper §2.1). [`discover`] issues one such query through the
//! live MAAN protocol of a simulated overlay (e.g. *find Linux boxes with
//! ≥2 GHz CPUs that are under 50% load*), runs the network until the answer
//! arrives, and reads what it cost off counters the fleet already keeps.

use dat_chord::NodeAddr;
use dat_core::StackNode;
use dat_maan::{MaanEvent, MaanStack, Predicate, Resource};
use dat_sim::SimNet;

/// How long [`discover`] waits for an answer, in virtual milliseconds. A
/// walk over the whole ring takes one sequential hop per node: 512 nodes
/// under a 40 ms-median WAN latency answer in about 20 s.
pub const DISCOVER_BOUND_MS: u64 = 600_000;

/// Virtual time [`discover`] runs between two looks for the answer.
const POLL_MS: u64 = 10;

/// One answered discovery and what it cost the overlay.
#[derive(Clone, Debug, PartialEq)]
pub struct Discovery {
    /// The resources satisfying every predicate.
    pub hits: Vec<Resource>,
    /// Chord routing hops spent reaching the first node of the walk.
    pub routing_hops: u64,
    /// Nodes whose store the walk scanned.
    pub visited_nodes: u64,
}

/// Chord `route` messages the fleet has sent: one per routing hop of every
/// MAAN registration and query so far.
pub fn routing_hops(net: &SimNet<StackNode>) -> u64 {
    net.iter_nodes()
        .map(|(_, n)| n.chord_metrics().sent_of("route"))
        .sum()
}

/// Range-query walk messages each node has received, in arena order.
fn walk_receipts(net: &SimNet<StackNode>) -> Vec<u64> {
    net.iter_nodes()
        .map(|(_, n)| n.maan().metrics().received_of("maan_range_query"))
        .collect()
}

/// Issue the multi-attribute query `preds` at `from` and run `net` until
/// its answer arrives there, for at most [`DISCOVER_BOUND_MS`]. Every node
/// of `net` hosts a [`dat_maan::MaanProtocol`]. `None` when no answer came
/// in time (or `from` is not hosted).
pub fn discover(
    net: &mut SimNet<StackNode>,
    from: NodeAddr,
    preds: &[Predicate],
) -> Option<Discovery> {
    let hops_before = routing_hops(net);
    let receipts_before: u64 = walk_receipts(net).iter().sum();
    let preds = preds.to_vec();
    let qid = net.with_node(from, |n| n.maan_query(preds))?;
    let deadline = net.now().as_millis() + DISCOVER_BOUND_MS;
    loop {
        let done = net
            .node_mut(from)?
            .take_maan_events()
            .into_iter()
            .find_map(|e| match e {
                MaanEvent::QueryDone { qid: q, hits } if q == qid => Some(hits),
                _ => None,
            });
        if let Some(hits) = done {
            let routing = routing_hops(net) - hops_before;
            let receipts = walk_receipts(net).iter().sum::<u64>() - receipts_before;
            // A query that needed no routing hop started at the origin's
            // own store, which it scanned without a message (one with
            // nothing to walk, on an unknown attribute, counts it too).
            return Some(Discovery {
                hits,
                routing_hops: routing,
                visited_nodes: receipts + u64::from(routing == 0),
            });
        }
        if net.now().as_millis() >= deadline {
            return None;
        }
        net.run_for(POLL_MS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid_schemas;
    use dat_chord::{ChordConfig, IdPolicy, IdSpace, StaticRing};
    use dat_maan::{hash_value, AttrValue, MaanProtocol};
    use dat_sim::harness::prestabilized_stack;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn fleet(n: usize, seed: u64) -> (StaticRing, SimNet<StackNode>) {
        let space = IdSpace::new(32);
        let mut rng = SmallRng::seed_from_u64(seed);
        let ring = StaticRing::build(space, n, IdPolicy::Probed, &mut rng);
        let ccfg = ChordConfig {
            space,
            ..ChordConfig::default()
        };
        let net = prestabilized_stack(&ring, ccfg, seed, |_, id, addr| {
            StackNode::new(ccfg, id, addr).with_app(MaanProtocol::new(grid_schemas()))
        });
        (ring, net)
    }

    /// Register every resource from `at` and let the routes land.
    fn register(net: &mut SimNet<StackNode>, at: NodeAddr, resources: &[Resource]) {
        for r in resources {
            net.with_node(at, |n| ((), n.maan_register(r)));
        }
        net.run_for(1_000);
    }

    fn machine(i: u64, ghz: f64, usage: f64, os: &str) -> Resource {
        Resource::new(&format!("grid://host{i}"))
            .with("cpu-speed", ghz)
            .with("cpu-usage", usage)
            .with("memory", 32_768.0)
            .with("os", os)
            .with("site", if i.is_multiple_of(2) { "usc" } else { "isi" })
    }

    #[test]
    fn ring_spanning_ranges_reach_every_node() {
        for n in [64, 256] {
            let (ring, mut net) = fleet(n, 0x5EED + n as u64);
            let resources: Vec<Resource> = (0..200u64)
                .map(|i| {
                    let ghz = 0.01 + i as f64 * 7.98 / 199.0;
                    Resource::new(&format!("grid://m{i}")).with("cpu-speed", ghz)
                })
                .collect();
            register(&mut net, NodeAddr(0), &resources);
            let stored: usize = net.iter_nodes().map(|(_, n)| n.maan().store().len()).sum();
            assert_eq!(stored, 200, "one entry per indexed value");
            // H(7.99) lies past the largest member, so its owner is the
            // owner of H(0): [0, 7.99] spans the ring like [0, 8] does.
            let schemas = grid_schemas();
            let cpu = schemas.iter().find(|s| s.name == "cpu-speed").unwrap();
            let h = hash_value(ring.space(), cpu, &AttrValue::Num(7.99));
            assert!(h > *ring.ids().last().unwrap(), "n = {n}");
            let origin = NodeAddr(n as u64 / 2);
            for (lo, hi) in [(0.0, 8.0), (0.0, 7.99), (0.01, 8.0)] {
                let before = walk_receipts(&net);
                let d =
                    discover(&mut net, origin, &[Predicate::range("cpu-speed", lo, hi)]).unwrap();
                assert_eq!(d.hits.len(), 200, "n = {n}, [{lo}, {hi}]");
                let scans: Vec<u64> = walk_receipts(&net)
                    .iter()
                    .zip(&before)
                    .map(|(after, before)| after - before)
                    .collect();
                assert!(
                    scans.iter().all(|&s| s == 1),
                    "n = {n}, [{lo}, {hi}]: {scans:?}"
                );
                assert_eq!(d.visited_nodes, n as u64);
            }
        }
    }

    #[test]
    fn range_query_finds_exactly_matching_resources() {
        let (_, mut net) = fleet(64, 2);
        let origin = NodeAddr(5);
        let cpu = |i: u64| 0.5 + i as f64 * 0.15; // 0.5 .. 7.85
        let machines: Vec<Resource> = (0..50).map(|i| machine(i, cpu(i), 50.0, "linux")).collect();
        register(&mut net, origin, &machines);
        let d = discover(&mut net, origin, &[Predicate::range("cpu-speed", 2.0, 3.0)]).unwrap();
        let expect = (0..50).filter(|&i| (2.0..=3.0).contains(&cpu(i))).count();
        assert_eq!(d.hits.len(), expect, "{d:?}");
        for r in &d.hits {
            let ghz = r.get("cpu-speed").unwrap().as_num().unwrap();
            assert!((2.0..=3.0).contains(&ghz));
        }
        assert!(d.routing_hops <= 8, "{d:?}");
    }

    #[test]
    fn end_to_end_discovery() {
        let (_, mut net) = fleet(64, 11);
        let origin = NodeAddr(0);
        let machines = [
            machine(1, 2.8, 20.0, "linux"),
            machine(2, 2.8, 95.0, "linux"),
            machine(3, 1.2, 10.0, "linux"),
            machine(4, 3.2, 5.0, "freebsd"),
        ];
        register(&mut net, origin, &machines);
        // Idle Linux machines at least 2 GHz fast.
        let preds = [
            Predicate::exact("os", "linux"),
            Predicate::range("cpu-speed", 2.0, 8.0),
            Predicate::range("cpu-usage", 0.0, 50.0),
        ];
        let d = discover(&mut net, origin, &preds).unwrap();
        assert_eq!(d.hits.len(), 1);
        assert_eq!(d.hits[0].uri, "grid://host1");
        // The exact predicate dominates: one point, one node.
        assert_eq!(d.visited_nodes, 1, "{d:?}");
    }

    #[test]
    fn site_scoped_search() {
        let (_, mut net) = fleet(32, 11);
        let origin = NodeAddr(3);
        let machines: Vec<Resource> = (0..10).map(|i| machine(i, 2.5, 30.0, "linux")).collect();
        register(&mut net, origin, &machines);
        let preds = [
            Predicate::exact("site", "usc"),
            Predicate::range("memory", 16_384.0, 65_536.0),
        ];
        let d = discover(&mut net, origin, &preds).unwrap();
        assert_eq!(d.hits.len(), 5);
        assert!(d
            .hits
            .iter()
            .all(|r| r.get("site").unwrap().as_str() == Some("usc")));
    }
}
