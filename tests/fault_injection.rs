//! Self-stabilization proper: recovery from transient faults (register corruption) of
//! every severity, under different daemons, for the guarded-rule layer.

use self_stabilizing_spanning_trees::core::bfs::{BfsState, RootedBfs};
use self_stabilizing_spanning_trees::core::spanning::{MinIdSpanningTree, SpanningState};
use self_stabilizing_spanning_trees::graph::{generators, NodeId};
use self_stabilizing_spanning_trees::runtime::{Executor, ExecutorConfig, SchedulerKind};

#[test]
fn spanning_tree_recovers_from_any_number_of_corrupted_registers() {
    let g = generators::workload(30, 0.12, 17);
    let mut exec = Executor::from_arbitrary(&g, MinIdSpanningTree, ExecutorConfig::seeded(17));
    exec.run_to_quiescence(5_000_000).unwrap();
    for k in [1usize, 3, 10, 15, 30] {
        exec.corrupt_random_nodes(k);
        let q = exec
            .run_to_quiescence(5_000_000)
            .expect("recovery after {k} faults");
        assert!(q.legal, "recovery after corrupting {k} registers");
        assert!(exec.is_quiescent());
    }
}

#[test]
fn recovery_from_a_single_fault_is_cheaper_than_from_scratch() {
    let g = generators::workload(40, 0.1, 23);
    // From-scratch cost.
    let mut scratch = Executor::from_arbitrary(&g, MinIdSpanningTree, ExecutorConfig::seeded(23));
    let from_scratch = scratch.run_to_quiescence(5_000_000).unwrap();
    // Converge, then corrupt a single register's size field (a local fault): recovery
    // is a convergecast along one root path, far cheaper than a full reconstruction.
    let mut exec = Executor::from_arbitrary(&g, MinIdSpanningTree, ExecutorConfig::seeded(23));
    exec.run_to_quiescence(5_000_000).unwrap();
    let moves_before = exec.moves();
    let damaged = SpanningState {
        size: exec.state(NodeId(7)).size + 5,
        ..exec.state(NodeId(7))
    };
    exec.corrupt_node(NodeId(7), damaged);
    let q = exec.run_to_quiescence(5_000_000).unwrap();
    assert!(q.legal);
    let recovery_moves = q.moves - moves_before;
    assert!(
        recovery_moves <= from_scratch.moves,
        "recovering from one local fault ({recovery_moves} moves) should not cost more \
         than converging from scratch ({} moves)",
        from_scratch.moves
    );
}

#[test]
fn bfs_recovers_under_the_adversarial_daemon() {
    let g = generators::workload(25, 0.15, 31);
    let root_ident = g.ident(g.min_ident_node());
    let mut exec = Executor::from_arbitrary(
        &g,
        RootedBfs::new(root_ident),
        ExecutorConfig::with_scheduler(31, SchedulerKind::Adversarial),
    );
    exec.run_to_quiescence(5_000_000).unwrap();
    // Adversarially helpful-looking corruption: claim distance 0 everywhere.
    for v in 0..5 {
        exec.corrupt_node(
            NodeId(v),
            BfsState {
                parent: None,
                dist: 0,
            },
        );
    }
    let q = exec.run_to_quiescence(5_000_000).unwrap();
    assert!(
        q.legal,
        "BFS must recover even from systematically misleading corruption"
    );
}

#[test]
fn corrupting_every_register_is_just_a_fresh_start() {
    let g = generators::workload(20, 0.2, 41);
    let mut exec = Executor::from_arbitrary(&g, MinIdSpanningTree, ExecutorConfig::seeded(41));
    exec.run_to_quiescence(5_000_000).unwrap();
    exec.corrupt_random_nodes(g.node_count());
    let q = exec.run_to_quiescence(5_000_000).unwrap();
    assert!(q.legal);
}

#[test]
fn repeated_faults_on_the_same_register_are_absorbed() {
    // An adversary that keeps hitting one node's register (the paper's transient
    // faults need not be spread out) still leaves just another arbitrary
    // configuration: the last overwrite wins and stabilization proceeds from there.
    let g = generators::workload(30, 0.15, 53);
    let mut exec = Executor::from_arbitrary(&g, MinIdSpanningTree, ExecutorConfig::seeded(53));
    exec.run_to_quiescence(5_000_000).unwrap();
    for victim in [NodeId(0), NodeId(13), NodeId(29)] {
        let flips = exec.corrupt_node_repeatedly(victim, 16);
        assert!(
            flips > 0,
            "sixteen arbitrary overwrites must flip bits at least once"
        );
        let q = exec.run_to_quiescence(5_000_000).unwrap();
        assert!(
            q.legal,
            "recovery after hammering {victim:?} sixteen times in a row"
        );
    }
}

// The codec keeps out-of-width values through its escape bit, so a fault can write a
// register field of `u64::MAX`. A distance with no successor is an out-of-range offer
// and a size sum saturates: the rules must neither overflow nor, in a wrapping build,
// read the offer as distance 0.
#[test]
fn spanning_tree_recovers_from_a_distance_and_size_of_u64_max() {
    let g = generators::workload(20, 0.2, 3);
    let mut exec = Executor::from_arbitrary(&g, MinIdSpanningTree, ExecutorConfig::seeded(3));
    exec.run_to_quiescence(5_000_000).unwrap();
    let victim = NodeId(5);
    let damaged = SpanningState {
        dist: u64::MAX,
        size: u64::MAX,
        ..exec.state(victim)
    };
    exec.corrupt_node(victim, damaged);
    let q = exec.run_to_quiescence(5_000_000).unwrap();
    assert!(q.silent && q.legal);
}

#[test]
fn bfs_recovers_from_a_distance_of_u64_max() {
    let g = generators::workload(20, 0.2, 3);
    let root_ident = g.ident(g.min_ident_node());
    let mut exec =
        Executor::from_arbitrary(&g, RootedBfs::new(root_ident), ExecutorConfig::seeded(3));
    exec.run_to_quiescence(5_000_000).unwrap();
    let victim = NodeId(5);
    let damaged = BfsState {
        dist: u64::MAX,
        ..exec.state(victim)
    };
    exec.corrupt_node(victim, damaged);
    let q = exec.run_to_quiescence(5_000_000).unwrap();
    assert!(q.silent && q.legal);
}

#[test]
fn distance_only_baseline_recovers_from_a_distance_of_u64_max() {
    use self_stabilizing_spanning_trees::baselines::naive_reset::{
        DistanceOnlySpanningTree, DistanceOnlyState,
    };
    let g = generators::workload(20, 0.2, 3);
    let mut exec =
        Executor::from_arbitrary(&g, DistanceOnlySpanningTree, ExecutorConfig::seeded(3));
    exec.run_to_quiescence(5_000_000).unwrap();
    let victim = NodeId(5);
    let damaged = DistanceOnlyState {
        dist: u64::MAX,
        ..exec.state(victim)
    };
    exec.corrupt_node(victim, damaged);
    let q = exec.run_to_quiescence(5_000_000).unwrap();
    assert!(q.silent && q.legal);
}

#[test]
fn stale_but_consistent_certificates_are_rejected_by_the_verification_wave() {
    use self_stabilizing_spanning_trees::core::{
        CompositionEngine, EngineConfig, EngineTask, PhaseEvent,
    };

    // The hardest corruption class: labels that are *internally* consistent — a
    // complete, correct proof of the wrong tree — so no local syntactic check can
    // reject them. The verification wave compares them against the maintained tree
    // and must re-prove both certificate families.
    let g = generators::workload(26, 0.25, 61);
    let mut engine = CompositionEngine::new(&g, EngineTask::Mst, EngineConfig::seeded(61));
    let report = engine.run();
    assert!(report.legal);

    assert!(
        engine.corrupt_stale_certificates(),
        "the stale tree's certificates must differ from the maintained ones"
    );
    match engine.step() {
        PhaseEvent::Recovered {
            families_rebuilt,
            labels_written,
            rounds,
        } => {
            assert!(
                families_rebuilt >= 2,
                "stale NCA and redundant certificates must both be re-proved"
            );
            assert!(labels_written > 0);
            assert!(rounds > 0, "recovery waves are charged real rounds");
        }
        other => panic!("stale certificates must be detected, got {other:?}"),
    }
    assert!(engine.report().legal, "the tree itself was never damaged");
}
