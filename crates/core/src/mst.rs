//! Corollary 6.1: the silent self-stabilizing MST construction (Algorithm 2, the
//! PLS-guided version of Borůvka's algorithm).
//!
//! Composition, exactly as in §VI:
//!
//! 1. build a spanning tree with the guarded-rule construction of
//!    [`crate::spanning::MinIdSpanningTree`] (Instruction 1 of Algorithm 1);
//! 2. construct the Borůvka-trace fragment labels on the current tree (`O(log² n)` bits
//!    per node) and the NCA labels used to navigate fundamental cycles;
//! 3. while some node detects that its fragment's recorded outgoing edge is not the
//!    lightest outgoing edge in the graph (`φ(T) > 0`), add that lightest edge `e`,
//!    remove the heaviest edge `f` of the fundamental cycle `T + e` (red rule) through
//!    the loop-free switch module of §IV, and update the labels;
//! 4. when `φ(T) = 0` the tree is a minimum spanning tree, all labels are consistent,
//!    and no rule is enabled: the construction is silent.
//!
//! Every wave is charged its measured round cost on the current tree; the register bound
//! is the measured maximum over all phases (dominated by the `O(log² n)`-bit fragment
//! labels, which is optimal for silent MST by the Korman–Kutten lower bound).

use stst_graph::Graph;
use stst_runtime::{Executor, ExecutorConfig};

use crate::engine::{CompositionEngine, EngineTask};
use crate::framework::{ConstructionReport, EngineConfig};
use crate::spanning::MinIdSpanningTree;

/// Runs the silent self-stabilizing MST construction from an arbitrary initial
/// configuration and returns the measured report.
///
/// This is a thin wrapper around [`CompositionEngine`] run to silence; use the engine
/// directly for phase-step control, incremental-vs-from-scratch comparisons
/// ([`crate::framework::Relabel`]) or wave-boundary fault injection.
///
/// # Panics
///
/// Panics if the guarded-rule spanning-tree phase does not converge within the
/// configured step budget (which, for connected graphs, indicates a budget far too small
/// for the graph size).
pub fn construct_mst(graph: &Graph, config: &EngineConfig) -> ConstructionReport {
    CompositionEngine::new(graph, EngineTask::Mst, *config).run()
}

/// Sanity helper used by experiments: the measured spanning-tree-phase register size
/// alone (the `O(log n)`-bit part of the budget).
pub fn spanning_phase_register_bits(graph: &Graph, seed: u64) -> usize {
    let mut exec = Executor::from_arbitrary(graph, MinIdSpanningTree, ExecutorConfig::seeded(seed));
    exec.run_to_quiescence(5_000_000)
        .expect("spanning phase converges");
    exec.space_report().max_bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use stst_graph::generators;
    use stst_graph::mst::kruskal;
    use stst_runtime::SchedulerKind;

    #[test]
    fn produces_minimum_spanning_trees() {
        for seed in 0..4 {
            let g = generators::workload(20, 0.25, seed);
            let report = construct_mst(&g, &EngineConfig::seeded(seed));
            assert!(report.legal, "seed {seed}");
            let opt = kruskal(&g).unwrap().total_weight(&g);
            assert_eq!(report.tree.total_weight(&g), opt, "seed {seed}");
        }
    }

    #[test]
    fn round_count_is_polynomial_and_itemized() {
        let g = generators::workload(24, 0.2, 7);
        let report = construct_mst(&g, &EngineConfig::seeded(7));
        let n = g.node_count() as u64;
        // Very generous poly(n) sanity bound: n³ rounds.
        assert!(
            report.total_rounds <= n * n * n,
            "took {} rounds",
            report.total_rounds
        );
        assert!(report.rounds_for("tree construction") > 0);
        assert!(report.rounds_for("fragment labels") > 0);
        assert_eq!(
            report.total_rounds,
            report.phase_rounds.iter().map(|(_, r)| r).sum::<u64>()
        );
    }

    #[test]
    fn register_bits_grow_like_log_squared() {
        let small = generators::workload(16, 0.25, 1);
        let large = generators::workload(96, 0.06, 1);
        let b_small = construct_mst(&small, &EngineConfig::seeded(1)).max_register_bits;
        let b_large = construct_mst(&large, &EngineConfig::seeded(1)).max_register_bits;
        // Θ(log² n): going from n = 16 to n = 96 multiplies log² n by ≈ 2.7, so the
        // measured registers must grow by far less than the 6× a linear dependence on n
        // would give, and must stay below the Ω(n log n) budget of explicit-list
        // approaches (96 · 7 = 672 bits).
        assert!(
            b_large < 6 * b_small,
            "register growth looks super-polylogarithmic: {b_small} → {b_large}"
        );
        assert!(
            b_large < 96 * 7,
            "registers must stay below the n·log n baseline, got {b_large}"
        );
    }

    #[test]
    fn improvement_count_is_bounded_by_phi_max() {
        let g = generators::workload(18, 0.3, 3);
        let report = construct_mst(&g, &EngineConfig::seeded(3));
        let n = g.node_count() as u64;
        let phi_max = n * (64 - n.leading_zeros() as u64 + 1);
        assert!((report.improvements as u64) <= phi_max);
    }

    #[test]
    fn works_under_the_adversarial_daemon() {
        let g = generators::workload(16, 0.3, 9);
        let config = EngineConfig::seeded(9).with_scheduler(SchedulerKind::Adversarial);
        let report = construct_mst(&g, &config);
        assert!(report.legal);
    }

    #[test]
    fn tree_workloads_need_no_improvements() {
        // If the graph is itself a tree, the spanning-tree phase already outputs the MST.
        let g = generators::randomize_weights(&generators::random_tree(20, 4), 4);
        let report = construct_mst(&g, &EngineConfig::seeded(4));
        assert!(report.legal);
        assert_eq!(report.improvements, 0);
    }
}
