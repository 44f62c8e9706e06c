//! Ready-made topologies for the chaos and benchmark harnesses.

use crate::graph::AsGraph;
use crate::hierarchical::{generate_hier, HierParams, HierTopology};
use crate::waxman::{generate, WaxmanParams};

/// A 50-AS Waxman topology with the paper's §6.3 parameters (α = 0.15,
/// β = 0.25, m = 2) — big enough to have transit hierarchy and path
/// diversity, small enough for churn scenarios to quiesce quickly.
pub fn waxman_50(seed: u64) -> AsGraph {
    generate(WaxmanParams { n: 50, ..WaxmanParams::default() }, seed)
}

/// A 5000-AS Waxman topology with the same §6.3 parameters — the
/// benchmark scale tier, five times the paper's evaluation scale.
/// Generation takes a moment (distance sampling is O(n·m) with
/// rejection), so benchmarks build it once and reuse it.
pub fn waxman_5000(seed: u64) -> AsGraph {
    generate(WaxmanParams { n: 5000, ..WaxmanParams::default() }, seed)
}

/// The 50,000-AS hierarchical Gao-Rexford tier (12-member tier-1
/// clique, 988 tier-2, 4,000 regionals, 45,000 stubs). The simulator
/// quiesces 8 stub prefixes on it in 1.5–2.0 s.
pub fn hier_50k(seed: u64) -> HierTopology {
    generate_hier(HierParams::default(), seed)
}

/// The R-BGP failover diamond: destination 0, a short transit 1, a long
/// transit chain 2-3, and source 4.
///
/// ```text
///        1
///       / \
///      0   4
///       \ /
///      2-3
/// ```
///
/// Node 0 is the provider of 1 and 2; node 4 is a customer of 1 and 3 —
/// both paths are valley-free, so a source running R-BGP can hold the
/// long path as a disjoint backup for the short primary.
pub fn rbgp_diamond() -> AsGraph {
    let mut g = AsGraph::new(5);
    g.add_edge(1, 0); // 1 buys transit from 0
    g.add_edge(2, 0);
    g.add_edge(3, 2);
    g.add_edge(4, 1);
    g.add_edge(4, 3);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waxman_50_is_connected_and_deterministic() {
        let g1 = waxman_50(7);
        let g2 = waxman_50(7);
        assert_eq!(g1.len(), 50);
        assert!(g1.is_connected());
        assert_eq!(g1.edge_count(), g2.edge_count(), "same seed, same graph");
        for n in 0..g1.len() {
            let a: Vec<_> = g1.neighbors(n).collect();
            let b: Vec<_> = g2.neighbors(n).collect();
            assert_eq!(a, b);
        }
        let g3 = waxman_50(8);
        let differs = g1.edge_count() != g3.edge_count()
            || (0..g1.len()).any(|n| {
                g1.neighbors(n).collect::<Vec<_>>() != g3.neighbors(n).collect::<Vec<_>>()
            });
        assert!(differs, "different seeds must differ somewhere");
    }

    #[test]
    fn diamond_shape() {
        let g = rbgp_diamond();
        assert_eq!(g.len(), 5);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(4), 2);
        assert!(g.is_connected());
    }
}
