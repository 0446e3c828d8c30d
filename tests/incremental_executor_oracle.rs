//! Differential oracle tests for the incremental enabled-set executor.
//!
//! The executor maintains the enabled set (and cached pending transitions)
//! incrementally: after a step it re-evaluates guards only in the closed
//! neighborhoods of the nodes that moved. These tests pin the core invariant —
//! the incremental set is *exactly* the set a brute-force full rescan computes —
//! after every step, across all five daemons and under `corrupt`-style fault
//! injection, for both a toy algorithm and the real spanning-tree layer.

use self_stabilizing_spanning_trees::core::bfs::RootedBfs;
use self_stabilizing_spanning_trees::core::spanning::MinIdSpanningTree;
use self_stabilizing_spanning_trees::graph::{generators, Graph, NodeId};
use self_stabilizing_spanning_trees::runtime::{
    Algorithm, ExecMode, Executor, ExecutorConfig, SchedulerKind,
};

/// Steps `exec` until quiescence (or `max_steps`), asserting after every step that the
/// incrementally maintained enabled set equals the brute-force rescan oracle; every
/// `perturb_every` steps, injects a random register-corruption fault first.
fn drive_with_oracle<A: Algorithm>(
    exec: &mut Executor<'_, A>,
    max_steps: usize,
    perturb_every: Option<usize>,
    label: &str,
) {
    // One scratch buffer reused across the whole step loop (`enabled_nodes_into`):
    // reading the maintained set costs no per-step allocation.
    let mut maintained = Vec::new();
    exec.enabled_nodes_into(&mut maintained);
    assert_eq!(
        maintained,
        exec.rescan_enabled_nodes(),
        "{label}: initial set"
    );
    for step in 0..max_steps {
        if exec.is_quiescent() {
            match perturb_every {
                // Keep perturbing until the step budget runs out, so the oracle is
                // also exercised on recovery executions.
                Some(_) if step + 50 < max_steps => {}
                _ => break,
            }
        }
        if let Some(every) = perturb_every {
            if step % every == every - 1 {
                exec.corrupt_random_nodes(3);
                exec.enabled_nodes_into(&mut maintained);
                assert_eq!(
                    maintained,
                    exec.rescan_enabled_nodes(),
                    "{label}: after corruption at step {step}"
                );
            }
        }
        exec.step_once();
        exec.enabled_nodes_into(&mut maintained);
        assert_eq!(
            maintained,
            exec.rescan_enabled_nodes(),
            "{label}: after step {step}"
        );
        assert_eq!(maintained.len(), exec.enabled_count(), "{label}: count");
        assert_eq!(
            exec.is_quiescent(),
            exec.rescan_enabled_nodes().is_empty(),
            "{label}: quiescence flag at step {step}"
        );
    }
}

fn workloads() -> Vec<(&'static str, Graph)> {
    vec![
        ("ring", generators::shuffle_idents(&generators::ring(12), 3)),
        (
            "grid",
            generators::shuffle_idents(&generators::grid(4, 4), 3),
        ),
        ("star", generators::shuffle_idents(&generators::star(10), 3)),
        ("random", generators::workload(20, 0.2, 3)),
    ]
}

#[test]
fn spanning_tree_enabled_set_matches_oracle_under_all_daemons() {
    for (topo, g) in workloads() {
        for kind in SchedulerKind::all() {
            let config = ExecutorConfig::with_scheduler(7, kind);
            let mut exec = Executor::from_arbitrary(&g, MinIdSpanningTree, config);
            drive_with_oracle(&mut exec, 400, None, &format!("{topo}/{kind}"));
        }
    }
}

#[test]
fn enabled_set_matches_oracle_under_fault_injection() {
    for (topo, g) in workloads() {
        for kind in SchedulerKind::all() {
            let config = ExecutorConfig::with_scheduler(13, kind);
            let mut exec = Executor::from_arbitrary(&g, MinIdSpanningTree, config);
            drive_with_oracle(
                &mut exec,
                300,
                Some(17),
                &format!("perturbed {topo}/{kind}"),
            );
        }
    }
}

#[test]
fn rooted_bfs_enabled_set_matches_oracle_with_targeted_corruption() {
    let g = generators::workload(24, 0.15, 5);
    let root_ident = g.ident(g.min_ident_node());
    for kind in SchedulerKind::all() {
        let config = ExecutorConfig::with_scheduler(11, kind);
        let mut exec = Executor::from_arbitrary(&g, RootedBfs::new(root_ident), config);
        exec.run_to_quiescence(2_000_000).expect("BFS converges");
        // Targeted single-register faults, including "helpful-looking" ones.
        for (i, v) in [0usize, 5, 11, 17, 23].into_iter().enumerate() {
            let mut state = exec.state(NodeId(v));
            state.dist = if i % 2 == 0 { 0 } else { state.dist + 7 };
            exec.corrupt_node(NodeId(v), state);
            drive_with_oracle(&mut exec, 200, None, &format!("targeted fault {i}/{kind}"));
        }
    }
}

#[test]
fn full_rescan_mode_agrees_with_incremental_on_final_configurations() {
    let g = generators::workload(18, 0.25, 9);
    for kind in SchedulerKind::all() {
        let config = ExecutorConfig::with_scheduler(3, kind);
        let mut inc = Executor::from_arbitrary(&g, MinIdSpanningTree, config);
        let mut full = Executor::from_arbitrary(
            &g,
            MinIdSpanningTree,
            config.with_mode(ExecMode::FullRescan),
        );
        let qi = inc
            .run_to_quiescence(2_000_000)
            .expect("incremental converges");
        let qf = full
            .run_to_quiescence(2_000_000)
            .expect("full rescan converges");
        // The modes lay the enabled list out identically, so they take the same
        // trajectory under every daemon: identical configurations and identical cost
        // accounting.
        assert_eq!(inc.states(), full.states(), "daemon {kind}");
        assert_eq!(
            (qi.moves, qi.rounds, qi.steps),
            (qf.moves, qf.rounds, qf.steps),
            "daemon {kind}"
        );
        assert_eq!(
            inc.activation_counts(),
            full.activation_counts(),
            "daemon {kind}"
        );
        assert!(qi.legal && qf.legal);
    }
}

#[test]
fn incremental_mode_saves_at_least_5x_guard_evaluations_on_recovery() {
    // The acceptance criterion of the incremental executor, measured in guard
    // evaluations (deterministic, unlike wall clock): steady-state recovery from a
    // small fault batch must cost at least 5x less than the full-rescan reference.
    // The `reference` scenario of the experiment harness (`report reference`,
    // table R1) shows the same gap in wall-clock time on a 10k-node graph.
    let g = generators::workload(400, 0.02, 21);
    let root_ident = g.ident(g.min_ident_node());
    let recovery_cost = |mode: ExecMode| {
        let config = ExecutorConfig::with_scheduler(21, SchedulerKind::Central).with_mode(mode);
        let mut exec = Executor::from_arbitrary(&g, RootedBfs::new(root_ident), config);
        exec.run_to_quiescence(5_000_000).expect("converges");
        let before = exec.guard_evaluations();
        exec.corrupt_random_nodes(4);
        exec.run_to_quiescence(5_000_000).expect("recovers");
        exec.guard_evaluations() - before
    };
    let incremental = recovery_cost(ExecMode::Incremental);
    let full = recovery_cost(ExecMode::FullRescan);
    assert!(
        incremental * 5 <= full,
        "recovery cost: incremental {incremental} vs full rescan {full} guard evaluations \
         — expected at least a 5x gap"
    );
}
