//! The snapshot format, pinned: one executor and one MST-engine snapshot, recorded
//! from seeded runs and checked in under `tests/golden/`.
//!
//! `tests/persist_oracle.rs` round-trips snapshots within one build, so a layout change
//! that writes and reads consistently passes there while every snapshot on disk stops
//! restoring. These tests take the same checkpoints today and require them to equal the
//! pinned bytes, and require the pinned bytes to restore. On a mismatch the test
//! writes today's bytes under `CARGO_TARGET_TMPDIR`, so a deliberate layout change
//! bumps `SNAPSHOT_VERSION` and copies the two files it names over the pinned ones
//! (renamed for the new version).

use std::path::Path;

use self_stabilizing_spanning_trees::core::spanning::MinIdSpanningTree;
use self_stabilizing_spanning_trees::core::{
    CompositionEngine, EngineConfig, EngineTask, PhaseEvent,
};
use self_stabilizing_spanning_trees::graph::{generators, Graph};
use self_stabilizing_spanning_trees::runtime::persist::SNAPSHOT_VERSION;
use self_stabilizing_spanning_trees::runtime::{Executor, ExecutorConfig, Snapshot};

/// `MinIdSpanningTree` on `workload(30, 0.3, 7)` from the arbitrary configuration of
/// seed 5, checkpointed after 23 steps (mid-run: enabled list and round set non-empty).
const EXECUTOR_V2: &[u8] = include_bytes!("golden/executor_v2.snap");

/// The MST engine on the same graph with seed 7, checkpointed at its third
/// `LabelsReady` (mid local search: repaired labels, switch and repair ledger entries).
const MST_ENGINE_V2: &[u8] = include_bytes!("golden/mst_engine_v2.snap");

fn graph() -> Graph {
    generators::workload(30, 0.3, 7)
}

fn pinned_executor(g: &Graph) -> Executor<'_, MinIdSpanningTree> {
    let mut exec = Executor::from_arbitrary(g, MinIdSpanningTree, ExecutorConfig::seeded(5));
    for _ in 0..23 {
        exec.step_once();
    }
    exec
}

fn pinned_engine(g: &Graph) -> CompositionEngine<'_> {
    let mut engine = CompositionEngine::new(g, EngineTask::Mst, EngineConfig::seeded(7));
    let mut ready = 0;
    while ready < 3 {
        if let PhaseEvent::LabelsReady { .. } = engine.step() {
            ready += 1;
        }
    }
    engine
}

/// Asserts byte equality. On a mismatch, writes today's bytes to `file` under the
/// test's scratch directory and names the first differing byte.
fn assert_same_bytes(today: &[u8], pinned: &[u8], file: &str) {
    if today == pinned {
        return;
    }
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, today).expect("write today's checkpoint");
    let first_diff = today.iter().zip(pinned).position(|(a, b)| a != b);
    panic!(
        "{file}: today's checkpoint ({} bytes) differs from the pinned one ({} bytes) \
         at byte {first_diff:?}, and is written to {}; a layout change bumps \
         SNAPSHOT_VERSION (now {SNAPSHOT_VERSION}) and copies it over the pinned file",
        today.len(),
        pinned.len(),
        path.display()
    );
}

#[test]
fn executor_checkpoint_equals_the_pinned_snapshot() {
    let g = graph();
    let today = pinned_executor(&g).checkpoint().to_bytes();
    assert_same_bytes(&today, EXECUTOR_V2, "executor_v2.snap");
}

#[test]
fn engine_checkpoint_equals_the_pinned_snapshot() {
    let g = graph();
    let today = pinned_engine(&g).checkpoint().to_bytes();
    assert_same_bytes(&today, MST_ENGINE_V2, "mst_engine_v2.snap");
}

/// The pinned executor snapshot restores and continues exactly like the run it was
/// taken from.
#[test]
fn pinned_executor_snapshot_restores_and_continues() {
    let g = graph();
    let snapshot = Snapshot::from_bytes(EXECUTOR_V2).expect("the pinned snapshot validates");
    let mut restored =
        Executor::restore(&g, MinIdSpanningTree, &snapshot, ExecutorConfig::seeded(5))
            .expect("the pinned snapshot restores");
    let mut uninterrupted = pinned_executor(&g);
    let a = restored.run_to_quiescence(1_000_000).expect("converges");
    let b = uninterrupted
        .run_to_quiescence(1_000_000)
        .expect("converges");
    assert_eq!(a, b);
    assert_eq!(restored.states(), uninterrupted.states());
    assert!(restored.check_legal());
}

/// The pinned engine snapshot restores verbatim (a clean wave boundary) and
/// re-stabilizes exactly like the run it was taken from.
#[test]
fn pinned_engine_snapshot_restores_verbatim_and_continues() {
    let g = graph();
    let snapshot = Snapshot::from_bytes(MST_ENGINE_V2).expect("the pinned snapshot validates");
    let (mut restored, outcome) =
        CompositionEngine::restore(&snapshot, 1).expect("the pinned snapshot restores");
    assert_eq!(
        outcome.families_rebuilt, 0,
        "a wave-boundary snapshot is verbatim"
    );
    assert_eq!(outcome.rounds, 0);
    assert_same_bytes(
        &restored.checkpoint().to_bytes(),
        MST_ENGINE_V2,
        "mst_engine_v2.restored.snap",
    );
    let mut uninterrupted = pinned_engine(&g);
    let (a, b) = (restored.run(), uninterrupted.run());
    assert_eq!(a.tree, b.tree);
    assert_eq!(a.phase_rounds, b.phase_rounds);
    assert_eq!(a.labels_written, b.labels_written);
    assert_eq!(a.improvements, b.improvements);
    assert!(
        restored.checkpoint() == uninterrupted.checkpoint(),
        "the restored engine re-stabilizes into the uninterrupted run's configuration"
    );
    assert!(a.legal && restored.check_legal());
}
