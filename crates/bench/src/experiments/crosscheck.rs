//! Simulator vs analysis cross-validation (§5.1).
//!
//! The paper stresses that "both RPC-based and simulator-based setups use
//! the same Chord and DAT layers. They indeed have the consistent results
//! for the metrics we measured." Our analogue validates the third leg:
//! the live protocol (in the simulator) against the static-ring analysis —
//! every node's protocol-computed DAT parent must equal the parent the
//! global-view tree construction assigns, and the measured per-node
//! message counts must equal the analytic branching factors.

use dat_chord::{ChordConfig, IdPolicy, IdSpace, RoutingScheme, StaticRing};
use dat_core::{AggregationMode, DatConfig, DatTree, StackNode};
use dat_sim::harness::{addr_book, prestabilized_dat};
use dat_sim::SimNet;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::table::Table;

/// Cross-validation result for one configuration.
#[derive(Clone, Copy, Debug)]
pub struct CrosscheckRow {
    /// Network size.
    pub n: usize,
    /// Routing scheme.
    pub scheme: RoutingScheme,
    /// Nodes whose live parent decision disagrees with the analytic tree.
    pub parent_mismatches: usize,
    /// Nodes whose measured per-epoch message count differs from the
    /// analytic branching factor.
    pub count_mismatches: usize,
}

/// Experiment output.
pub struct Crosscheck {
    /// Per-configuration rows.
    pub rows: Vec<CrosscheckRow>,
}

const BITS: u8 = 32;

/// Cross-validate live protocol vs static analysis at the given sizes.
pub fn run(sizes: &[usize], seed: u64) -> Crosscheck {
    let mut rows = Vec::new();
    for &n in sizes {
        for scheme in [RoutingScheme::Greedy, RoutingScheme::Balanced] {
            rows.push(check_one(n, scheme, seed));
        }
    }
    Crosscheck { rows }
}

fn check_one(n: usize, scheme: RoutingScheme, seed: u64) -> CrosscheckRow {
    let space = IdSpace::new(BITS);
    let mut rng = SmallRng::seed_from_u64(seed + n as u64);
    let ring = StaticRing::build(space, n, IdPolicy::Probed, &mut rng);
    let key = dat_chord::hash_to_id(space, b"cpu-usage");
    let tree = DatTree::build(&ring, key, scheme);
    let ccfg = ChordConfig {
        space,
        stabilize_ms: 60_000,
        fix_fingers_ms: 60_000,
        check_pred_ms: 60_000,
        ..ChordConfig::default()
    };
    let dcfg = DatConfig {
        scheme,
        epoch_ms: 1_000,
        d0_hint: Some(ring.d0()),
        ..DatConfig::default()
    };
    let mut net: SimNet<StackNode> = prestabilized_dat(&ring, ccfg, dcfg, seed);
    let book = addr_book(&ring);
    for &id in ring.ids() {
        let node = net.node_mut(book[&id]).unwrap();
        let k = node.register("cpu-usage", AggregationMode::Continuous);
        node.set_local(k, 1.0);
    }
    // Parent agreement (before any traffic).
    let mut parent_mismatches = 0usize;
    for &id in ring.ids() {
        let live = net.node(book[&id]).unwrap().parent_decision(key).parent();
        let analytic = tree.parent(id);
        if live.map(|p| p.id) != analytic {
            parent_mismatches += 1;
        }
    }
    // Message-count agreement: warm-up, reset, measure E epochs.
    net.run_for(1_500);
    for &id in ring.ids() {
        net.node_mut(book[&id]).unwrap().reset_metrics();
    }
    let epochs = 4u64;
    net.run_for(epochs * 1_000);
    let mut count_mismatches = 0usize;
    for &id in ring.ids() {
        let got = net
            .node(book[&id])
            .unwrap()
            .dat_metrics()
            .received_of("dat_update") as f64
            / epochs as f64;
        let want = tree.branching(id) as f64;
        if (got - want).abs() > 0.26 {
            count_mismatches += 1;
        }
    }
    CrosscheckRow {
        n,
        scheme,
        parent_mismatches,
        count_mismatches,
    }
}

impl Crosscheck {
    /// The agreement table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Cross-validation — live protocol vs static analysis",
            &["n", "scheme", "parent mismatches", "msg-count mismatches"],
        );
        for r in &self.rows {
            t.row(vec![
                r.n.to_string(),
                r.scheme.label().to_string(),
                r.parent_mismatches.to_string(),
                r.count_mismatches.to_string(),
            ]);
        }
        t
    }

    /// Strict check: exact agreement expected.
    pub fn check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for r in &self.rows {
            if r.parent_mismatches != 0 {
                bad.push(format!(
                    "{} parent mismatches at n={} ({})",
                    r.parent_mismatches,
                    r.n,
                    r.scheme.label()
                ));
            }
            if r.count_mismatches != 0 {
                bad.push(format!(
                    "{} message-count mismatches at n={} ({})",
                    r.count_mismatches,
                    r.n,
                    r.scheme.label()
                ));
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_and_analytic_agree_exactly() {
        let c = run(&[32, 100], 13);
        let bad = c.check();
        assert!(bad.is_empty(), "{bad:?}");
        assert!(c.table().to_markdown().contains("mismatches"));
    }
}
