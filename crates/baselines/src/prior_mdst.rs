//! Model of the prior self-stabilizing MDST algorithm the paper compares against
//! (\[16\] Blin–Gradinariu–Rovedakis, JPDC 2011): an (OPT + 1)-approximation that is not
//! silent and stores, at every node, explicit lists describing its fragment/subtree —
//! `Ω(n log n)` bits per node.
//!
//! The model measures the actual list sizes the cited algorithm would store (one
//! identity per node of the subtree rooted at the node, plus per-neighbor bookkeeping),
//! so the space comparison of experiment E7 is a measurement rather than a formula. The
//! output tree is computed with the exact Fürer–Raghavachari oracle so that degree
//! comparisons are fair.

use stst_graph::fr::furer_raghavachari;
use stst_graph::Graph;

use crate::BaselineReport;

/// Runs the modelled prior-art MDST algorithm.
///
/// # Panics
///
/// Panics if the graph is disconnected.
pub fn run(graph: &Graph) -> BaselineReport {
    let (tree, stats) = furer_raghavachari(graph);
    let n = graph.node_count() as u64;
    let ident_bits = graph.ident_bits();
    // Ω(n log n) bits: the node storing the largest subtree (the root) keeps one
    // identity per node of the graph, plus constant-size per-neighbor fields.
    let sizes = tree.subtree_sizes();
    let max_register_bits = sizes
        .iter()
        .map(|&s| s * ident_bits + graph.max_degree() * 4)
        .max()
        .unwrap_or(0);
    // The cited algorithm converges in O(mn² log n) moves; we report the round order n⁴
    // as the comparable coarse bound and keep the improvement count from the oracle.
    let rounds = n.saturating_pow(4).max(stats.improvements as u64);
    BaselineReport {
        tree,
        rounds,
        max_register_bits,
        silent: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stst_graph::fr::is_fr_tree;
    use stst_graph::generators;

    #[test]
    fn produces_a_low_degree_tree_but_with_linear_memory() {
        let g = generators::workload(40, 0.15, 3);
        let report = run(&g);
        assert!(is_fr_tree(&g, &report.tree));
        assert!(!report.silent);
        // The root stores ~n identities: at least n·⌈log₂ n⌉ / 2 bits.
        assert!(
            report.max_register_bits >= 40 * 6 / 2,
            "expected Ω(n log n) bits, got {}",
            report.max_register_bits
        );
    }

    #[test]
    fn memory_grows_linearly_with_n() {
        let small = run(&generators::workload(20, 0.2, 1)).max_register_bits;
        let large = run(&generators::workload(80, 0.08, 1)).max_register_bits;
        assert!(
            large >= 3 * small,
            "prior-art memory should grow ~linearly: {small} → {large}"
        );
    }
}
