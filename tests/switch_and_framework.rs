//! Cross-crate tests of the PLS-guided local search: Algorithm 1 (§III) under the §VI
//! fragment potential is the oracle of the MST composition engine's swap sequence, and
//! the loop-free switch module (§IV) applies those swaps with the redundant labels
//! accepted at every intermediate stage.

use self_stabilizing_spanning_trees::core::switch::loop_free_switch;
use self_stabilizing_spanning_trees::core::{
    CompositionEngine, EngineConfig, EngineTask, PhaseEvent, Relabel,
};
use self_stabilizing_spanning_trees::graph::{bfs, generators, mst, Graph};
use self_stabilizing_spanning_trees::labeling::mst_fragments::fragment_guided_swap;
use self_stabilizing_spanning_trees::labeling::redundant::RedundantScheme;
use self_stabilizing_spanning_trees::labeling::scheme::{Instance, ProofLabelingScheme};
use self_stabilizing_spanning_trees::runtime::SchedulerKind;

#[test]
fn mst_local_search_via_loop_free_switches_reaches_the_optimum() {
    // Drive Algorithm 1 manually, but perform every swap through the loop-free switch
    // module, verifying malleability at every stage.
    for seed in 0..3 {
        let g = generators::workload(16, 0.35, seed);
        let mut tree = bfs::bfs_tree(&g, g.min_ident_node());
        let mut guard = 0;
        while let Some((e, f)) = fragment_guided_swap(&g, &tree) {
            let outcome = loop_free_switch(&g, &tree, e, f);
            for stage in &outcome.stages {
                assert!(stage.tree.is_spanning_tree_of(&g), "loop-freedom");
                let inst = Instance {
                    graph: &g,
                    parents: stage.tree.parents(),
                };
                assert!(
                    RedundantScheme.verify_all(&inst, &stage.labels).accepted(),
                    "malleability at '{}'",
                    stage.description
                );
            }
            tree = outcome.tree;
            guard += 1;
            assert!(guard < 200);
        }
        assert!(mst::is_mst(&g, &tree), "seed {seed}");
    }
}

/// Steps an MST engine to silence and checks its swap sequence against Algorithm 1:
/// every switch leaves exactly `T.with_swap(e, f)` for the swap `(e, f)` that
/// [`fragment_guided_swap`] prescribes on the previous tree `T` (parent vectors
/// included), and the engine stabilizes exactly when that oracle finds no improving
/// swap. Returns the number of switches compared.
fn check_switch_sequence(g: &Graph, config: EngineConfig) -> usize {
    let case = format!("n={} {config:?}", g.node_count());
    let mut engine = CompositionEngine::new(g, EngineTask::Mst, config);
    let event = engine.step();
    assert!(
        matches!(event, PhaseEvent::TreeConstructed { .. }),
        "{case}: {event:?}"
    );
    let mut prev = engine.tree().clone();
    let mut k = 0;
    loop {
        match engine.step() {
            PhaseEvent::LabelsReady { .. } => {}
            PhaseEvent::Switched { .. } => {
                let (e, f) = fragment_guided_swap(g, &prev)
                    .unwrap_or_else(|| panic!("{case}: switch {k} on an optimal tree"));
                let expected = prev.with_swap(g, e, f);
                assert!(
                    engine.tree().parents() == expected.parents(),
                    "{case}: switch {k} did not apply Algorithm 1's swap"
                );
                prev = expected;
                k += 1;
            }
            PhaseEvent::Stabilized { legal } => {
                assert!(legal, "{case}");
                assert_eq!(
                    fragment_guided_swap(g, &prev),
                    None,
                    "{case}: stabilized with an improving swap left"
                );
                return k;
            }
            other => panic!("{case}: unexpected {other:?}"),
        }
        assert!(engine.tree().parents() == prev.parents(), "{case}");
    }
}

/// Algorithm 1 is the oracle of the engine's swap *sequence*, in both label
/// maintenance modes and from the different trees three daemons build.
#[test]
fn engine_switch_sequence_is_algorithm_1() {
    let mut switches = 0;
    for (n, p) in [(40, 0.15), (90, 0.06)] {
        for seed in 0..2 {
            let g = generators::workload(n, p, seed);
            for relabel in [Relabel::Incremental, Relabel::FromScratch] {
                for scheduler in [
                    SchedulerKind::Central,
                    SchedulerKind::Synchronous,
                    SchedulerKind::Adversarial,
                ] {
                    let config = EngineConfig::seeded(seed)
                        .with_relabel(relabel)
                        .with_scheduler(scheduler);
                    switches += check_switch_sequence(&g, config);
                }
            }
        }
    }
    assert!(switches >= 100, "only {switches} switches compared");
}

#[test]
fn switch_rounds_grow_linearly_with_the_cycle_length() {
    // E2's shape: the cost of a switch is governed by the tree height / cycle length,
    // i.e. O(n), not O(n²).
    let mut last = 0u64;
    for n in [16usize, 32, 64] {
        let g = generators::ring(n);
        let t = bfs::bfs_tree(&g, self_stabilizing_spanning_trees::graph::NodeId(0));
        let e = g
            .edge_ids()
            .find(|&e| {
                let ed = g.edge(e);
                !t.contains_edge(ed.u, ed.v)
            })
            .unwrap();
        let f = t.fundamental_cycle_tree_edges(&g, e)[n / 4];
        let outcome = loop_free_switch(&g, &t, e, f);
        assert!(
            outcome.rounds <= 8 * n as u64,
            "n = {n}: {} rounds",
            outcome.rounds
        );
        assert!(
            outcome.rounds >= last / 4,
            "cost should grow roughly linearly"
        );
        last = outcome.rounds;
    }
}
