//! Differential oracle for the incremental label maintenance of the composition engine
//! (mirroring `tests/incremental_executor_oracle.rs` one layer up).
//!
//! The engine repairs the Borůvka fragment labels, the NCA labels and the redundant
//! distance/size labels on the dirty region of every loop-free switch. These tests pin
//! the core invariant — the repaired labels are **bit-identical** to from-scratch
//! reproofs on the current tree — after every single switch, across MST and MDST runs,
//! multiple seeds, and under injected label corruption; and they assert the acceptance
//! criterion of the refactor: on a 1,000-node sparse workload, the incremental mode
//! performs ≥ 5× fewer label writes (the deterministic work counter) than the retained
//! `Relabel::FromScratch` reference mode while stabilizing on the identical tree.

use self_stabilizing_spanning_trees::core::{
    CompositionEngine, EngineConfig, EngineTask, PhaseEvent, Relabel,
};
use self_stabilizing_spanning_trees::graph::{generators, mst, Graph};
use self_stabilizing_spanning_trees::labeling::mst_fragments::assign_fragment_labels;
use self_stabilizing_spanning_trees::labeling::nca::assign_nca_labels;
use self_stabilizing_spanning_trees::labeling::redundant::RedundantScheme;
use self_stabilizing_spanning_trees::labeling::scheme::ProofLabelingScheme;

/// Steps an engine to silence, asserting after every labeling wave that the maintained
/// label families equal fresh from-scratch proofs on the current tree. Optionally
/// injects `k` random label faults every `corrupt_every`-th wave boundary.
fn drive_with_oracle(
    graph: &Graph,
    engine: &mut CompositionEngine<'_>,
    corrupt_every: Option<usize>,
    label: &str,
) {
    let mut waves = 0usize;
    let mut recoveries = 0usize;
    loop {
        match engine.step() {
            PhaseEvent::TreeConstructed { .. } | PhaseEvent::Switched { .. } => {}
            PhaseEvent::LabelsReady { .. } | PhaseEvent::Recovered { .. } => {
                let tree = engine.tree();
                if let Some(fragments) = engine.fragment_labels() {
                    assert_eq!(
                        fragments,
                        assign_fragment_labels(graph, tree).as_slice(),
                        "{label}: fragment labels diverged at wave {waves}"
                    );
                }
                assert_eq!(
                    engine.nca_labels(),
                    assign_nca_labels(graph, tree).as_slice(),
                    "{label}: NCA labels diverged at wave {waves}"
                );
                assert_eq!(
                    engine.redundant_labels(),
                    RedundantScheme.prove(graph, tree).as_slice(),
                    "{label}: redundant labels diverged at wave {waves}"
                );
                waves += 1;
                if let Some(every) = corrupt_every {
                    if waves.is_multiple_of(every) && recoveries < 4 {
                        engine.corrupt_random_labels(3);
                        recoveries += 1;
                    }
                }
            }
            PhaseEvent::Stabilized { legal } => {
                assert!(legal, "{label}: must stabilize legally");
                break;
            }
            event @ (PhaseEvent::TopologyApplied { .. } | PhaseEvent::Partitioned { .. }) => {
                // This harness never mutates the topology (tests/churn_oracle.rs
                // covers those paths).
                unreachable!("{label}: unexpected topology event {event:?}");
            }
        }
        assert!(waves < 2_000, "{label}: runaway composition");
    }
    assert!(waves > 0, "{label}: at least one labeling wave runs");
}

#[test]
fn mst_labels_are_identical_to_from_scratch_reproofs_after_every_switch() {
    for seed in 0..5 {
        let g = generators::workload(30, 0.2, seed);
        let mut engine = CompositionEngine::new(&g, EngineTask::Mst, EngineConfig::seeded(seed));
        drive_with_oracle(&g, &mut engine, None, &format!("mst seed {seed}"));
        assert!(mst::is_mst(&g, engine.tree()));
    }
}

#[test]
fn mdst_labels_are_identical_to_from_scratch_reproofs_after_every_improvement() {
    for seed in 0..5 {
        let g = generators::workload(24, 0.3, seed);
        let mut engine = CompositionEngine::new(&g, EngineTask::Mdst, EngineConfig::seeded(seed));
        drive_with_oracle(&g, &mut engine, None, &format!("mdst seed {seed}"));
    }
}

#[test]
fn labels_stay_identical_under_injected_corruption() {
    for (task, name) in [(EngineTask::Mst, "mst"), (EngineTask::Mdst, "mdst")] {
        for seed in 0..3 {
            let g = generators::workload(26, 0.25, seed);
            let mut engine = CompositionEngine::new(&g, task, EngineConfig::seeded(seed));
            drive_with_oracle(
                &g,
                &mut engine,
                Some(2),
                &format!("corrupted {name} seed {seed}"),
            );
        }
    }
}

#[test]
fn corruption_after_stabilization_is_recovered_without_moving_the_tree() {
    let g = generators::workload(32, 0.2, 11);
    let mut engine = CompositionEngine::new(&g, EngineTask::Mst, EngineConfig::seeded(11));
    let report = engine.run();
    assert!(report.legal);
    let stable = engine.tree().clone();
    for round in 0..3 {
        engine.corrupt_random_labels(4);
        assert!(
            matches!(engine.step(), PhaseEvent::Recovered { families_rebuilt, .. } if families_rebuilt > 0),
            "round {round}"
        );
        assert!(matches!(
            engine.step(),
            PhaseEvent::Stabilized { legal: true }
        ));
        assert_eq!(
            engine.tree(),
            &stable,
            "round {round}: recovery must not move the tree"
        );
        assert_eq!(
            engine.fragment_labels().unwrap(),
            assign_fragment_labels(&g, &stable).as_slice()
        );
    }
}

#[test]
fn thousand_node_mst_needs_5x_fewer_label_writes_than_from_scratch() {
    // The acceptance criterion of the refactor, measured in the deterministic label-write
    // counter (wall clock for the same pair is table R1 of `report reference`).
    let g = generators::workload(1_000, 0.004, 2015);
    let incremental = CompositionEngine::new(&g, EngineTask::Mst, EngineConfig::seeded(2015)).run();
    let from_scratch = CompositionEngine::new(
        &g,
        EngineTask::Mst,
        EngineConfig::seeded(2015).with_relabel(Relabel::FromScratch),
    )
    .run();
    assert!(incremental.legal && from_scratch.legal);
    assert_eq!(
        incremental.tree, from_scratch.tree,
        "both modes stabilize on the identical tree"
    );
    assert_eq!(incremental.improvements, from_scratch.improvements);
    assert!(
        incremental.improvements > 0,
        "the workload must exercise the improvement loop"
    );
    println!(
        "1,000-node MST: {} switches, {} label writes incremental vs {} from scratch ({:.1}x)",
        incremental.improvements,
        incremental.labels_written,
        from_scratch.labels_written,
        from_scratch.labels_written as f64 / incremental.labels_written as f64
    );
    assert!(
        incremental.labels_written * 5 <= from_scratch.labels_written,
        "label writes: incremental {} vs from-scratch {} — expected at least a 5x gap",
        incremental.labels_written,
        from_scratch.labels_written
    );
}
