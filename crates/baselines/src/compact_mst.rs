//! Model of the non-silent compact self-stabilizing MST algorithms the paper compares
//! against (\[17\] Blin–Gradinariu–Rovedakis–Tixeuil and \[51\] Korman–Kutten–Masuzawa):
//! `O(log n)` bits per node, convergence in `O(n)` (resp. `O(n³)`) rounds, but a
//! verification token that keeps circulating forever — the algorithm is **not silent**.
//!
//! The model reproduces exactly the quantities the experiments compare (register bits,
//! round order, silence); the output tree is computed with the exact Borůvka oracle so
//! that quality comparisons are fair.

use stst_graph::ids::bits_for;
use stst_graph::mst::boruvka;
use stst_graph::Graph;

use crate::BaselineReport;

/// Which of the two cited compact algorithms to model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompactVariant {
    /// Korman–Kutten–Masuzawa (PODC 2011): uniform, `O(n)` rounds.
    KormanKuttenMasuzawa,
    /// Blin–Gradinariu–Rovedakis–Tixeuil (DISC 2009): semi-uniform, `O(n³)` rounds,
    /// loop-free.
    BlinGradinariuRovedakisTixeuil,
}

/// Runs the modelled compact non-silent MST algorithm.
///
/// # Panics
///
/// Panics if the graph is disconnected.
pub fn run(graph: &Graph, variant: CompactVariant) -> BaselineReport {
    let run = boruvka(graph).expect("the compact MST baselines assume a connected graph");
    let n = graph.node_count() as u64;
    let rounds = match variant {
        CompactVariant::KormanKuttenMasuzawa => 4 * n,
        CompactVariant::BlinGradinariuRovedakisTixeuil => n.saturating_mul(n).saturating_mul(n),
    };
    // Register content per node: parent pointer, a constant number of fragment/token
    // fields of O(log n) bits each (this is what makes these algorithms compact), but no
    // certificate that would allow the verification to stop: the token field keeps
    // cycling through O(n) values forever.
    let ident_bits = graph.ident_bits();
    let weight_bits = graph.weight_bits();
    let max_register_bits = ident_bits      // parent pointer
        + ident_bits                        // fragment identity
        + weight_bits                       // candidate outgoing edge weight
        + bits_for(n)                       // circulating token phase
        + 3; // flags
    BaselineReport {
        tree: run.tree,
        rounds,
        max_register_bits,
        silent: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stst_graph::generators;
    use stst_graph::mst::is_mst;

    #[test]
    fn outputs_an_mst_but_is_not_silent() {
        let g = generators::workload(30, 0.2, 1);
        for variant in [
            CompactVariant::KormanKuttenMasuzawa,
            CompactVariant::BlinGradinariuRovedakisTixeuil,
        ] {
            let report = run(&g, variant);
            assert!(is_mst(&g, &report.tree));
            assert!(!report.silent);
            assert!(report.max_register_bits > 0);
        }
    }

    #[test]
    fn registers_are_logarithmic_and_rounds_match_the_cited_orders() {
        let g = generators::workload(100, 0.05, 2);
        let kkm = run(&g, CompactVariant::KormanKuttenMasuzawa);
        let bgrt = run(&g, CompactVariant::BlinGradinariuRovedakisTixeuil);
        assert!(kkm.max_register_bits <= 5 * 10 + 5);
        assert!(kkm.rounds < bgrt.rounds);
        assert_eq!(bgrt.rounds, 100u64.pow(3));
    }
}
