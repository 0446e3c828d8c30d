//! End-to-end integration tests: the composed silent self-stabilizing constructions
//! (BFS, MST, MDST) on a zoo of topologies, checked against the sequential oracles.

use self_stabilizing_spanning_trees::core::bfs::RootedBfs;
use self_stabilizing_spanning_trees::core::spanning::MinIdSpanningTree;
use self_stabilizing_spanning_trees::core::{construct_mdst, construct_mst, EngineConfig};
use self_stabilizing_spanning_trees::graph::{bfs, fr, generators, mst, Graph};
use self_stabilizing_spanning_trees::runtime::{Executor, ExecutorConfig, SchedulerKind};

/// A small zoo of connected workloads with distinct weights and shuffled identities.
fn zoo(seed: u64) -> Vec<(&'static str, Graph)> {
    vec![
        (
            "ring",
            generators::randomize_weights(
                &generators::shuffle_idents(&generators::ring(14), seed),
                seed,
            ),
        ),
        (
            "grid",
            generators::randomize_weights(
                &generators::shuffle_idents(&generators::grid(4, 4), seed),
                seed,
            ),
        ),
        (
            "lollipop",
            generators::randomize_weights(
                &generators::shuffle_idents(&generators::lollipop(6, 6), seed),
                seed,
            ),
        ),
        ("sparse random", generators::workload(20, 0.12, seed)),
        ("dense random", generators::workload(16, 0.45, seed)),
        (
            "tree",
            generators::randomize_weights(
                &generators::shuffle_idents(&generators::random_tree(18, seed), seed),
                seed,
            ),
        ),
    ]
}

#[test]
fn mst_construction_matches_kruskal_on_the_zoo() {
    for (name, g) in zoo(3) {
        let report = construct_mst(&g, &EngineConfig::seeded(3));
        assert!(report.legal, "{name}: output must be an MST");
        let opt = mst::kruskal(&g).unwrap().total_weight(&g);
        assert_eq!(report.tree.total_weight(&g), opt, "{name}");
        assert!(report.tree.is_spanning_tree_of(&g), "{name}");
    }
}

#[test]
fn mdst_construction_is_fr_certified_on_the_zoo() {
    for (name, g) in zoo(5) {
        let report = construct_mdst(&g, &EngineConfig::seeded(5));
        assert!(report.legal, "{name}: output must be FR-certified");
        assert!(fr::is_fr_tree(&g, &report.tree), "{name}");
        // No spanning tree beats the cut lower bound.
        let lb = self_stabilizing_spanning_trees::graph::properties::min_degree_lower_bound(&g);
        let degree = report.tree.max_degree();
        assert!(
            lb <= degree,
            "{name}: degree {degree} below lower bound {lb}"
        );
    }
}

#[test]
fn mdst_degree_is_within_one_of_exact_optimum_on_small_graphs() {
    for seed in 0..4 {
        let g = generators::workload(10, 0.4, seed);
        let report = construct_mdst(&g, &EngineConfig::seeded(seed));
        let (opt, _) = fr::exact_min_degree_spanning_tree(&g, 14);
        assert!(
            report.tree.max_degree() <= opt + 1,
            "seed {seed}: degree {} vs OPT {opt}",
            report.tree.max_degree()
        );
    }
}

#[test]
fn bfs_layer_is_correct_under_every_daemon() {
    let g = generators::workload(24, 0.15, 9);
    let gateway = g.min_ident_node();
    let oracle = bfs::distances_from(&g, gateway);
    for kind in SchedulerKind::all() {
        let mut exec = Executor::from_arbitrary(
            &g,
            RootedBfs::new(g.ident(gateway)),
            ExecutorConfig::with_scheduler(1, kind),
        );
        let q = exec.run_to_quiescence(5_000_000).unwrap();
        assert!(q.silent && q.legal, "daemon {kind}");
        let tree = exec.extract_tree().unwrap();
        let depths = tree.depths();
        for v in g.nodes() {
            assert_eq!(
                depths[v.index()],
                oracle[v.index()],
                "daemon {kind}, node {v}"
            );
        }
    }
}

#[test]
fn spanning_tree_layer_is_scheduler_independent() {
    // The guarded-rule layer stabilizes on the *same* canonical tree under every daemon
    // (its fixed point does not depend on the schedule).
    let g = generators::workload(18, 0.2, 13);
    let mut trees = Vec::new();
    for kind in SchedulerKind::all() {
        let mut exec = Executor::from_arbitrary(
            &g,
            MinIdSpanningTree,
            ExecutorConfig::with_scheduler(2, kind),
        );
        let q = exec.run_to_quiescence(5_000_000).unwrap();
        assert!(q.legal, "daemon {kind}");
        trees.push(exec.extract_tree().unwrap());
    }
    for t in &trees[1..] {
        assert_eq!(
            t.parents(),
            trees[0].parents(),
            "all daemons reach the same fixed point"
        );
    }
}

#[test]
fn composed_constructions_report_consistent_round_ledgers() {
    let g = generators::workload(16, 0.3, 21);
    for report in [
        construct_mst(&g, &EngineConfig::seeded(21)),
        construct_mdst(&g, &EngineConfig::seeded(21)),
    ] {
        let sum: u64 = report.phase_rounds.iter().map(|(_, r)| r).sum();
        assert_eq!(sum, report.total_rounds);
        assert!(report.max_register_bits > 0);
    }
}
