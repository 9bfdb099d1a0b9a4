//! Fig. 8 — load balance of aggregation messages.
//!
//! Reproduces both panels of the paper's Fig. 8 (§5.3), measured on the
//! *live protocol* running in the discrete-event simulator (not from the
//! analytic tree shape — `repro crosscheck` shows the two agree):
//!
//! * **(a)** per-node aggregation-message counts in a 512-node network,
//!   nodes sorted by load ("node rank", log-scale y in the paper). The
//!   centralized scheme routes every raw value to the root (most loaded
//!   node ≈ 511 messages); basic DAT peaks around a few tens; balanced DAT
//!   stays in single digits;
//! * **(b)** the *imbalance factor* (max/mean messages per node) for
//!   network sizes 100..1000: ≈linear for centralized, ≈log for basic,
//!   ≈constant (about 2) for balanced.

use dat_chord::{ChordConfig, IdPolicy, IdSpace, RoutingScheme, StaticRing};
use dat_core::{AggregationMode, DatConfig, StackNode};
use dat_obs::LogHist;
use dat_sim::harness::prestabilized_dat;
use dat_sim::{imbalance_factor, rank_order, SimNet};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::table::{f, Table};

/// The three aggregation schemes of Fig. 8.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scheme {
    /// No aggregation tree: every value routed to the root.
    Centralized,
    /// Basic DAT (greedy finger routes).
    Basic,
    /// Balanced DAT (finger-limited routes).
    Balanced,
}

impl Scheme {
    /// All three, in paper order.
    pub const ALL: [Scheme; 3] = [Scheme::Centralized, Scheme::Basic, Scheme::Balanced];

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Centralized => "centralized",
            Scheme::Basic => "basic DAT",
            Scheme::Balanced => "balanced DAT",
        }
    }
}

const BITS: u8 = 32;

/// Build the overlay, run `epochs` aggregation epochs after a warm-up, and
/// return the per-node *received aggregation messages per epoch* — the
/// paper's metric ("the root node is the most loaded one with 511
/// aggregation messages" in a 512-node centralized network).
pub fn measure_message_counts(n: usize, scheme: Scheme, seed: u64, epochs: u64) -> Vec<f64> {
    let mut net = build_loaded_net(n, scheme, seed);
    net.run_for(epochs * 1_000);
    // Per-node received aggregation messages / epoch.
    net.addrs()
        .iter()
        .map(|&addr| {
            let node = net.node(addr).unwrap();
            let count = match scheme {
                // Centralized load = `route` frames received (deliveries
                // at the root plus forwarding burden on the way).
                Scheme::Centralized => node.chord().metrics().received_of("route"),
                // DAT load = updates received from children.
                _ => node.dat_metrics().received_of("dat_update"),
            };
            count as f64 / epochs as f64
        })
        .collect()
}

/// Build the pre-converged, registered and warmed-up overlay every Fig. 8
/// measurement starts from: metrics are reset at return, so whatever runs
/// next is measured in isolation.
fn build_loaded_net(n: usize, scheme: Scheme, seed: u64) -> SimNet<StackNode> {
    let space = IdSpace::new(BITS);
    let mut rng = SmallRng::seed_from_u64(seed);
    let ring = StaticRing::build(space, n, IdPolicy::Probed, &mut rng);
    let ccfg = ChordConfig {
        space,
        // The overlay is static and pre-converged: relax maintenance so the
        // measurement window is dominated by aggregation traffic.
        stabilize_ms: 120_000,
        fix_fingers_ms: 120_000,
        check_pred_ms: 120_000,
        ..ChordConfig::default()
    };
    let (mode, routing) = match scheme {
        Scheme::Centralized => (AggregationMode::Centralized, RoutingScheme::Greedy),
        Scheme::Basic => (AggregationMode::Continuous, RoutingScheme::Greedy),
        Scheme::Balanced => (AggregationMode::Continuous, RoutingScheme::Balanced),
    };
    let dcfg = DatConfig {
        scheme: routing,
        epoch_ms: 1_000,
        d0_hint: Some(ring.d0()),
        ..DatConfig::default()
    };
    let mut net: SimNet<StackNode> = prestabilized_dat(&ring, ccfg, dcfg, seed);
    net.set_record_upcalls(false);
    // Register the aggregation and a local value at every node.
    let addrs = net.addrs();
    for (i, &addr) in addrs.iter().enumerate() {
        let node = net.node_mut(addr).expect("node");
        let key = node.register("cpu-usage", mode);
        node.set_local(key, 10.0 + (i % 80) as f64);
    }
    // Warm-up: one epoch to fill pipelines, then measure.
    net.run_for(1_500);
    for &addr in &addrs {
        net.node_mut(addr).unwrap().reset_metrics();
    }
    net
}

/// Run a short balanced-DAT window and return the fleet's merged
/// Prometheus dump — the exposition-format check `repro --metrics` (and
/// CI) validates.
pub fn prometheus_snapshot(n: usize, seed: u64) -> String {
    let mut net = build_loaded_net(n, Scheme::Balanced, seed);
    net.run_for(2_000);
    dat_sim::fleet_prometheus(&net)
}

/// Fold per-node load counts into one fleet-merged [`LogHist`] (one
/// single-sample histogram per node, merged pairwise) — the exact
/// count/sum/min/max carried by the histogram must reproduce the ranked
/// distribution's totals.
pub fn fleet_load_hist(per_node: &[u64]) -> LogHist {
    let mut fleet = LogHist::default();
    for &c in per_node {
        let mut one = LogHist::default();
        one.observe(c);
        fleet.merge(&one);
    }
    fleet
}

/// Fig. 8a: the rank-ordered distribution at `n` nodes.
pub struct Fig8a {
    /// Network size.
    pub n: usize,
    /// Per-scheme rank-ordered per-node message counts.
    pub ranked: Vec<(Scheme, Vec<u64>)>,
}

/// Run Fig. 8a.
pub fn run_a(n: usize, seed: u64) -> Fig8a {
    let ranked = Scheme::ALL
        .iter()
        .map(|&s| {
            let counts = measure_message_counts(n, s, seed, 4);
            let ints: Vec<u64> = counts.iter().map(|&c| c.round() as u64).collect();
            (s, rank_order(&ints))
        })
        .collect();
    Fig8a { n, ranked }
}

impl Fig8a {
    /// Ranked-distribution table (selected ranks, as the paper's log-log
    /// plot would show).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            &format!(
                "Fig 8a — aggregation messages by node rank (n = {})",
                self.n
            ),
            &["rank", "centralized", "basic DAT", "balanced DAT"],
        );
        let mut rank = 1usize;
        while rank <= self.n {
            let mut row = vec![rank.to_string()];
            for (_, counts) in &self.ranked {
                row.push(counts.get(rank - 1).copied().unwrap_or(0).to_string());
            }
            t.row(row);
            rank *= 2;
        }
        t
    }

    /// The fleet-merged load histogram for one scheme.
    pub fn hist_of(&self, s: Scheme) -> LogHist {
        self.ranked
            .iter()
            .find(|(x, _)| *x == s)
            .map(|(_, c)| fleet_load_hist(c))
            .unwrap_or_default()
    }

    /// Max load per scheme (read off the merged histogram's exact max).
    pub fn max_of(&self, s: Scheme) -> u64 {
        self.hist_of(s).max()
    }

    /// Qualitative checks vs the paper.
    pub fn check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let c = self.max_of(Scheme::Centralized);
        let b = self.max_of(Scheme::Basic);
        let l = self.max_of(Scheme::Balanced);
        // "the root node is the most loaded one with 511 aggregation
        // messages" for n = 512.
        if (c as i64 - (self.n as i64 - 1)).abs() > (self.n / 10) as i64 {
            bad.push(format!("centralized max {c} far from n-1 = {}", self.n - 1));
        }
        // Paper: basic 24, balanced 4 at 512 — qualitative bands.
        let log2n = (self.n as f64).log2();
        if (b as f64) < log2n * 0.8 || (b as f64) > log2n * 4.0 {
            bad.push(format!("basic max {b} outside O(log n) band"));
        }
        if l > 8 {
            bad.push(format!("balanced max {l} > 8 (expect ~4)"));
        }
        if !(l < b && b < c) {
            bad.push(format!(
                "ordering violated: balanced {l} < basic {b} < centralized {c}"
            ));
        }
        bad
    }
}

/// Fig. 8b: imbalance factor vs network size.
pub struct Fig8b {
    /// Sizes measured.
    pub sizes: Vec<usize>,
    /// (scheme, per-size imbalance factors).
    pub imbalance: Vec<(Scheme, Vec<f64>)>,
}

/// Run Fig. 8b over `sizes`.
pub fn run_b(sizes: &[usize], seed: u64) -> Fig8b {
    let imbalance = Scheme::ALL
        .iter()
        .map(|&s| {
            let per_size = sizes
                .iter()
                .map(|&n| {
                    let counts = measure_message_counts(n, s, seed, 4);
                    // Imbalance over the nodes that actually process
                    // aggregation traffic (leaves receive nothing; counting
                    // their zeros would compare against an artificial mean).
                    let ints: Vec<u64> = counts
                        .iter()
                        .map(|&c| c.round() as u64)
                        .filter(|&c| c > 0)
                        .collect();
                    imbalance_factor(&ints)
                })
                .collect();
            (s, per_size)
        })
        .collect();
    Fig8b {
        sizes: sizes.to_vec(),
        imbalance,
    }
}

impl Fig8b {
    /// The table of imbalance factors.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Fig 8b — imbalance factor (max/mean messages) vs network size",
            &["n", "centralized", "basic DAT", "balanced DAT"],
        );
        for (i, &n) in self.sizes.iter().enumerate() {
            let mut row = vec![n.to_string()];
            for (_, v) in &self.imbalance {
                row.push(f(v[i]));
            }
            t.row(row);
        }
        t
    }

    fn series(&self, s: Scheme) -> &[f64] {
        &self.imbalance.iter().find(|(x, _)| *x == s).unwrap().1
    }

    /// Qualitative checks vs the paper.
    pub fn check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let cen = self.series(Scheme::Centralized);
        let bas = self.series(Scheme::Basic);
        let bal = self.series(Scheme::Balanced);
        let last = self.sizes.len() - 1;
        // Balanced: ~constant around 2 (paper: 1.9 at 100, 2.0 at 1000).
        for (i, &v) in bal.iter().enumerate() {
            if v > 4.0 {
                bad.push(format!("balanced imbalance {v:.2} at n={}", self.sizes[i]));
            }
        }
        // Centralized grows much faster than basic; basic faster than balanced.
        if cen[last] <= bas[last] || bas[last] <= bal[last] {
            bad.push(format!(
                "ordering at n={}: centralized {:.1}, basic {:.1}, balanced {:.1}",
                self.sizes[last], cen[last], bas[last], bal[last]
            ));
        }
        // Centralized roughly linear: value at max size much larger than at min.
        if cen[last] < cen[0] * 2.0 {
            bad.push("centralized imbalance not growing ~linearly".into());
        }
        // Basic grows slowly (log-like): growth factor well below the size factor.
        let size_factor = self.sizes[last] as f64 / self.sizes[0] as f64;
        if bas[last] / bas[0].max(1.0) > size_factor / 2.0 {
            bad.push("basic imbalance growing too fast (should be ~log n)".into());
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8a_small_network_shape() {
        let fig = run_a(64, 42);
        let bad = fig.check();
        assert!(bad.is_empty(), "{bad:?}");
        // Rank table renders.
        let md = fig.table().to_markdown();
        assert!(md.contains("rank"));
    }

    #[test]
    fn fig8b_small_sweep_shape() {
        let fig = run_b(&[50, 100, 200], 42);
        let bad = fig.check();
        assert!(bad.is_empty(), "{bad:?}");
    }

    #[test]
    fn fleet_hist_reproduces_ranked_distribution_exactly() {
        let fig = run_a(64, 42);
        for (scheme, ranked) in &fig.ranked {
            let h = fig.hist_of(*scheme);
            assert_eq!(h.count(), ranked.len() as u64, "{scheme:?} count");
            assert_eq!(h.sum(), ranked.iter().sum::<u64>(), "{scheme:?} sum");
            assert_eq!(
                h.max(),
                ranked.first().copied().unwrap_or(0),
                "{scheme:?} max"
            );
            assert_eq!(
                h.min(),
                ranked.last().copied().unwrap_or(0),
                "{scheme:?} min"
            );
        }
    }

    #[test]
    fn prometheus_snapshot_validates() {
        let text = prometheus_snapshot(32, 11);
        let samples = dat_obs::validate_prometheus(&text).expect("dump parses");
        assert!(samples > 0);
    }

    #[test]
    fn total_dat_messages_equal_n_minus_1_per_epoch() {
        // Every non-root sends exactly one update per epoch, and every
        // update is received exactly once.
        let counts = measure_message_counts(100, Scheme::Balanced, 7, 4);
        let total: f64 = counts.iter().sum();
        assert!(
            (total - 99.0).abs() < 1.5,
            "total per-epoch received messages {total} != 99"
        );
    }
}
