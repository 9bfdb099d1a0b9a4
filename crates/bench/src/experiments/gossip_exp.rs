//! Gossip (push-sum) vs DAT — message cost to reach a given accuracy.
//!
//! A supplementary comparison the paper's related-work section gestures at
//! (Astrolabe-style epidemic aggregation vs tree aggregation): push-sum
//! converges to the global average in `O(log n)` rounds of `n` messages,
//! while the DAT computes it *exactly* with `n−1` messages per epoch. The
//! experiment measures, on the same overlay and values, how many gossip
//! messages are needed before every node's estimate is within 1% / 0.1% of
//! the truth, against the DAT's fixed per-epoch cost.

use dat_chord::{ChordConfig, IdPolicy, IdSpace, StaticRing};
use dat_sim::harness::prestabilized_gossip;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::table::{f, Table};

/// Result of one gossip run.
#[derive(Clone, Copy, Debug)]
pub struct GossipRow {
    /// Network size.
    pub n: usize,
    /// Rounds until every node is within 1% of the true average.
    pub rounds_1pct: Option<u64>,
    /// Rounds until every node is within 0.1%.
    pub rounds_01pct: Option<u64>,
    /// Total gossip messages sent by the end of the 0.1% round.
    pub msgs_to_01pct: Option<u64>,
    /// DAT messages for one exact answer (n − 1).
    pub dat_msgs_exact: u64,
}

/// Experiment output.
pub struct GossipExp {
    /// Per-size rows.
    pub rows: Vec<GossipRow>,
}

/// Run push-sum to convergence on rings of the given sizes.
pub fn run(sizes: &[usize], seed: u64) -> GossipExp {
    let rows = sizes.iter().map(|&n| run_one(n, seed)).collect();
    GossipExp { rows }
}

fn run_one(n: usize, seed: u64) -> GossipRow {
    let space = IdSpace::new(32);
    let mut rng = SmallRng::seed_from_u64(seed + n as u64);
    let ring = StaticRing::build(space, n, IdPolicy::Probed, &mut rng);
    let ccfg = ChordConfig {
        space,
        stabilize_ms: 600_000,
        fix_fingers_ms: 600_000,
        check_pred_ms: 600_000,
        ..ChordConfig::default()
    };
    // Values 0..n-1: true average (n-1)/2.
    let mut net = prestabilized_gossip(&ring, ccfg, seed, |i| i as f64);
    let truth = (n as f64 - 1.0) / 2.0;
    let mut rounds_1pct = None;
    let mut rounds_01pct = None;
    let mut msgs_to_01pct = None;
    let max_rounds = 200u64;
    for round in 1..=max_rounds {
        net.run_for(1_000);
        let worst = net
            .iter_nodes()
            .map(|(_, node)| ((node.gossip().estimate() - truth) / truth).abs())
            .fold(0.0f64, f64::max);
        if rounds_1pct.is_none() && worst < 0.01 {
            rounds_1pct = Some(round);
        }
        if rounds_01pct.is_none() && worst < 0.001 {
            rounds_01pct = Some(round);
            msgs_to_01pct = Some(
                net.addrs()
                    .iter()
                    .map(|&a| {
                        net.node(a)
                            .unwrap()
                            .gossip_metrics()
                            .sent_of("gossip_share")
                    })
                    .sum(),
            );
            break;
        }
    }
    GossipRow {
        n,
        rounds_1pct,
        rounds_01pct,
        msgs_to_01pct,
        dat_msgs_exact: (n - 1) as u64,
    }
}

impl GossipExp {
    /// Comparison table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Gossip (push-sum) vs DAT — cost to an accurate global average",
            &[
                "n",
                "rounds to 1%",
                "rounds to 0.1%",
                "gossip msgs to 0.1%",
                "DAT msgs (exact)",
            ],
        );
        for r in &self.rows {
            let o = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_else(|| "-".into());
            t.row(vec![
                r.n.to_string(),
                o(r.rounds_1pct),
                o(r.rounds_01pct),
                o(r.msgs_to_01pct),
                r.dat_msgs_exact.to_string(),
            ]);
        }
        t
    }

    /// Qualitative checks: gossip converges in O(log n) rounds but costs
    /// far more messages than one exact DAT epoch.
    pub fn check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for r in &self.rows {
            let Some(r01) = r.rounds_01pct else {
                bad.push(format!("push-sum did not converge at n={}", r.n));
                continue;
            };
            let log2n = (r.n as f64).log2();
            if (r01 as f64) > 12.0 * log2n {
                bad.push(format!(
                    "push-sum needed {r01} rounds at n={} (log2 n = {})",
                    r.n,
                    f(log2n)
                ));
            }
            if let Some(m) = r.msgs_to_01pct {
                if m <= r.dat_msgs_exact {
                    bad.push(format!(
                        "gossip {m} msgs cheaper than the exact DAT at n={}?!",
                        r.n
                    ));
                }
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_sum_converges_and_costs_more_than_dat() {
        let e = run(&[32, 64], 5);
        let bad = e.check();
        assert!(bad.is_empty(), "{bad:?}");
        // The comparison table renders.
        assert!(e.table().to_markdown().contains("push-sum"));
        // DAT's exact answer is cheaper by at least ~log n.
        for r in &e.rows {
            let m = r.msgs_to_01pct.unwrap();
            assert!(m as f64 >= 2.0 * r.dat_msgs_exact as f64, "n={}: {m}", r.n);
        }
    }
}
