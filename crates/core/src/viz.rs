//! Graphviz (DOT) export of DAT trees.
//!
//! Small tooling layer for debugging and for rendering figures like the
//! paper's Fig. 2/Fig. 5: [`tree_to_dot`] emits the tree with nodes laid out by
//! identifier, annotated with branching factors and depths.

use crate::tree::DatTree;

/// Render a DAT tree as a DOT digraph (edges point child → parent, the
/// direction aggregation flows).
pub fn tree_to_dot(tree: &DatTree) -> String {
    let mut out =
        String::from("digraph dat {\n  rankdir=BT;\n  node [shape=circle, fontsize=10];\n");
    // Nodes, root highlighted.
    let root = tree.root();
    out.push_str(&format!(
        "  \"N{root}\" [style=filled, fillcolor=gold, label=\"N{root}\\nroot\"];\n"
    ));
    for &v in tree.all_ids() {
        if v == root {
            continue;
        }
        let b = tree.branching(v);
        let d = tree.depth(v).unwrap_or(0);
        out.push_str(&format!("  \"N{v}\" [label=\"N{v}\\nb={b} d={d}\"];\n"));
    }
    for (child, parent) in tree.edges() {
        out.push_str(&format!("  \"N{child}\" -> \"N{parent}\";\n"));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dat_chord::{Id, IdPolicy, IdSpace, RoutingScheme, StaticRing};
    use rand::SeedableRng;

    fn ring16() -> StaticRing {
        StaticRing::build(
            IdSpace::new(4),
            16,
            IdPolicy::Even,
            &mut rand::rngs::SmallRng::seed_from_u64(0),
        )
    }

    #[test]
    fn tree_dot_contains_every_edge() {
        let ring = ring16();
        let tree = DatTree::build(&ring, Id(0), RoutingScheme::Balanced);
        let dot = tree_to_dot(&tree);
        assert!(dot.starts_with("digraph dat {"));
        assert!(dot.contains("\"N0\" [style=filled"));
        // 15 child->parent edges.
        assert_eq!(dot.matches(" -> ").count(), 15);
        // The Fig. 5 edge: N8 -> N12.
        assert!(dot.contains("\"N8\" -> \"N12\";"));
    }
}
