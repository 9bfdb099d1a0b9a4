//! MAAN complexity (§2.2 claims) — supplementary experiment.
//!
//! The indexing substrate's costs underpin the whole P-GMA story, so we
//! verify them empirically:
//!
//! * registration of an `m`-attribute resource costs `O(m log n)` routing
//!   hops;
//! * a single-attribute range query costs `O(log n + k)` hops where `k` is
//!   the number of responsible nodes — i.e. it scales with the query's
//!   *selectivity*, not with `n` alone;
//! * the multi-attribute dominated strategy costs `O(log n + n·s_min)`.
//!
//! Everything runs on the live [`MaanProtocol`] over a pre-stabilized
//! [`SimNet`] overlay; hops are read off the fleet's own counters (Chord
//! `route` sends, and the nodes whose store a walk scanned).

use dat_chord::{ChordConfig, IdPolicy, IdSpace, NodeAddr, StaticRing};
use dat_core::StackNode;
use dat_maan::{AttrSchema, MaanProtocol, MaanStack, Predicate, Resource};
use dat_monitor::discovery::{discover, routing_hops, Discovery};
use dat_sim::harness::prestabilized_stack;
use dat_sim::SimNet;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::table::{f, Table};

/// One measured network size.
#[derive(Clone, Copy, Debug)]
pub struct MaanRow {
    /// Network size.
    pub n: usize,
    /// log2(n) reference.
    pub log2n: f64,
    /// Mean routing hops per attribute registration.
    pub reg_hops_per_attr: f64,
    /// Mean routing hops of a 1%-selectivity range query.
    pub narrow_query_hops: f64,
    /// Mean nodes visited by a 25%-selectivity range query.
    pub wide_query_visits: f64,
    /// Expected responsible nodes for the wide query (`n × s`).
    pub wide_expected: f64,
}

/// Experiment output.
pub struct MaanExp {
    /// Per-size rows.
    pub rows: Vec<MaanRow>,
}

/// Run the MAAN complexity sweep.
pub fn run(sizes: &[usize], seed: u64) -> MaanExp {
    let space = IdSpace::new(32);
    let ccfg = ChordConfig {
        space,
        ..ChordConfig::default()
    };
    let schemas = vec![
        AttrSchema::numeric("cpu-usage", 0.0, 100.0),
        AttrSchema::numeric("cpu-speed", 0.0, 8.0),
        AttrSchema::keyword("os"),
    ];
    let mut rows = Vec::new();
    for &n in sizes {
        let mut rng = SmallRng::seed_from_u64(seed + n as u64);
        let ring = StaticRing::build(space, n, IdPolicy::Probed, &mut rng);
        let mut net = prestabilized_stack(&ring, ccfg, seed, |_, id, addr| {
            StackNode::new(ccfg, id, addr).with_app(MaanProtocol::new(schemas.clone()))
        });
        // Register 200 resources (600 attribute values) from random origins.
        for i in 0..200u64 {
            let origin = NodeAddr(rng.random_range(0..n as u64));
            let r = Resource::new(&format!("m{i}"))
                .with("cpu-usage", rng.random::<f64>() * 100.0)
                .with("cpu-speed", rng.random::<f64>() * 8.0)
                .with("os", "linux");
            net.with_node(origin, |node| ((), node.maan_register(&r)));
        }
        net.run_for(1_000);
        let reg_hops = routing_hops(&net);
        // Narrow (1%) and wide (25%) range queries from random origins.
        let mut narrow_hops = 0u64;
        let mut wide_visits = 0u64;
        let trials = 20;
        for _ in 0..trials {
            let origin = NodeAddr(rng.random_range(0..n as u64));
            let lo = rng.random::<f64>() * 99.0;
            let d = usage_query(&mut net, origin, lo, lo + 1.0);
            narrow_hops += d.routing_hops + d.visited_nodes;
            let lo = rng.random::<f64>() * 75.0;
            wide_visits += usage_query(&mut net, origin, lo, lo + 25.0).visited_nodes;
        }
        rows.push(MaanRow {
            n,
            log2n: (n as f64).log2(),
            reg_hops_per_attr: reg_hops as f64 / 600.0,
            narrow_query_hops: narrow_hops as f64 / trials as f64,
            wide_query_visits: wide_visits as f64 / trials as f64,
            wide_expected: n as f64 * 0.25,
        });
    }
    MaanExp { rows }
}

fn usage_query(net: &mut SimNet<StackNode>, at: NodeAddr, lo: f64, hi: f64) -> Discovery {
    discover(net, at, &[Predicate::range("cpu-usage", lo, hi)]).expect("query answered")
}

impl MaanExp {
    /// Complexity table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "MAAN complexity (§2.2): registration O(m log n), range query O(log n + k)",
            &[
                "n",
                "log2(n)",
                "reg hops/attr",
                "1% query hops",
                "25% query visits",
                "expected k=n/4",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.n.to_string(),
                f(r.log2n),
                f(r.reg_hops_per_attr),
                f(r.narrow_query_hops),
                f(r.wide_query_visits),
                f(r.wide_expected),
            ]);
        }
        t
    }

    /// Qualitative checks.
    pub fn check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for r in &self.rows {
            // Registration hops scale like log n (generous band).
            if r.reg_hops_per_attr > 2.0 * r.log2n + 2.0 {
                bad.push(format!(
                    "registration {} hops/attr at n={} (log2 n = {})",
                    f(r.reg_hops_per_attr),
                    r.n,
                    f(r.log2n)
                ));
            }
            // Wide-range visits track n·s within 2x.
            if r.wide_query_visits > 2.0 * r.wide_expected + 8.0
                || r.wide_query_visits < 0.4 * r.wide_expected
            {
                bad.push(format!(
                    "25% query visited {} nodes at n={} (expected ≈{})",
                    f(r.wide_query_visits),
                    r.n,
                    f(r.wide_expected)
                ));
            }
        }
        // Narrow queries must not scale linearly with n.
        if self.rows.len() >= 2 {
            let first = &self.rows[0];
            let last = &self.rows[self.rows.len() - 1];
            let growth = last.narrow_query_hops / first.narrow_query_hops.max(1.0);
            let size_growth = last.n as f64 / first.n as f64;
            if growth > size_growth / 2.0 {
                bad.push(format!(
                    "narrow-query hops grew {growth:.1}x over a {size_growth:.0}x size increase"
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
    fn complexity_bands_hold() {
        let e = run(&[64, 256], 17);
        let bad = e.check();
        assert!(bad.is_empty(), "{bad:?}");
        assert!(e.table().to_markdown().contains("reg hops/attr"));
    }
}
