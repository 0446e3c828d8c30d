//! Certified silence, made executable.
//!
//! The executor reports `Quiescence::legal` from the algorithm's premise
//! (`Algorithm::silence_certifies`: connectivity, plus the root's presence for rooted
//! BFS) without reading a register, and the composition engine reports
//! `PhaseEvent::Stabilized { legal }` from the certificate its last improvement step
//! read (φ = 0 for MST, the FR propagation for MDST). Self-stabilization is what makes
//! those verdicts right: a configuration in which no node is enabled is legal whenever
//! a legal one exists. This test checks the theorem against the global predicates at
//! every silence it reaches:
//!
//! * executor: `RootedBfs`, `MinIdSpanningTree` and `DistanceOnlySpanningTree` under
//!   all five daemons and several seeds, through register-fault bursts (`u64::MAX`
//!   fields included), checkpoint → bytes → restore cycles and topology churn. The
//!   churn deletes the edges that connect a node (silence with no spanning tree),
//!   reconnects it, and removes the BFS root (silence with no root); both verdicts
//!   are reached;
//! * engine: MST and MDST in both relabel modes, through label faults, stale
//!   certificates, topology churn and restores.
//!
//! An algorithm whose premise is wrong (say, one that ignores connectivity) fails
//! here, and so does a verdict that does not come from the certificate.

use self_stabilizing_spanning_trees::baselines::naive_reset::{
    DistanceOnlySpanningTree, DistanceOnlyState,
};
use self_stabilizing_spanning_trees::core::bfs::{BfsState, RootedBfs};
use self_stabilizing_spanning_trees::core::engine::{CompositionEngine, EngineTask, PhaseEvent};
use self_stabilizing_spanning_trees::core::spanning::{MinIdSpanningTree, SpanningState};
use self_stabilizing_spanning_trees::core::{EngineConfig, Relabel};
use self_stabilizing_spanning_trees::graph::{
    generators, Graph, Mutation, MutationOutcome, NodeId,
};
use self_stabilizing_spanning_trees::runtime::{
    Algorithm, Executor, ExecutorConfig, SchedulerKind, Snapshot,
};

const BUDGET: u64 = 5_000_000;
const BURSTS: usize = 8;

/// Silences checked, and how many of them were (certified and oracle-) illegal.
#[derive(Default)]
struct Tally {
    checked: usize,
    illegal: usize,
}

impl Tally {
    /// Runs `exec` to quiescence and compares its certified verdict with the oracle.
    fn executor<A: Algorithm>(&mut self, exec: &mut Executor<'_, A>, what: &str) {
        let q = exec
            .run_to_quiescence(BUDGET)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(
            q.legal,
            exec.check_legal(),
            "{what}: certified verdict against Algorithm::is_legal"
        );
        self.count(q.legal);
    }

    /// Steps `engine` to silence and compares its certified verdict with the oracle.
    fn engine(&mut self, engine: &mut CompositionEngine<'_>, what: &str) {
        let legal = loop {
            if let PhaseEvent::Stabilized { legal } = engine.step() {
                break legal;
            }
        };
        assert_eq!(
            legal,
            engine.check_legal(),
            "{what}: certified verdict against is_mst / fr_certificate"
        );
        self.count(legal);
    }

    fn count(&mut self, legal: bool) {
        self.checked += 1;
        self.illegal += usize::from(!legal);
    }
}

/// Connected base graphs of 10–12 nodes with shuffled identities.
fn base_graphs(seed: u64) -> Vec<Graph> {
    vec![
        generators::shuffle_idents(&generators::ring(10), seed),
        generators::shuffle_idents(&generators::grid(3, 4), seed),
        generators::workload(12, 0.3, seed),
    ]
}

/// The topology churn the executor goes through, as `(graph, outcome)` steps from
/// `g0`: the edges of a non-root node are deleted (disconnecting it), restored, then
/// the minimum-identity node (the BFS root) leaves, and a node joins.
fn churn_chain(g0: &Graph) -> Vec<(Graph, MutationOutcome)> {
    let root = g0.min_ident_node();
    let cut = g0.nodes().find(|&v| v != root).expect("two nodes");
    let cut_edges: Vec<(NodeId, u64)> = g0
        .neighbors(cut)
        .iter()
        .map(|&(w, e)| (w, g0.weight(e)))
        .collect();
    let batches = [
        cut_edges
            .iter()
            .map(|&(w, _)| Mutation::RemoveEdge { u: cut, v: w })
            .collect::<Vec<_>>(),
        cut_edges
            .iter()
            .map(|&(w, weight)| Mutation::AddEdge {
                u: cut,
                v: w,
                weight,
            })
            .collect(),
        vec![Mutation::RemoveNode { v: root }],
        vec![
            Mutation::AddNode { ident: 1_000 },
            Mutation::AddEdge {
                u: NodeId(g0.node_count() - 1),
                v: NodeId(0),
                weight: 7,
            },
            Mutation::AddEdge {
                u: NodeId(g0.node_count() - 1),
                v: NodeId(1),
                weight: 9,
            },
        ],
    ];
    let mut chain: Vec<(Graph, MutationOutcome)> = Vec::new();
    for batch in batches {
        let mut g = chain.last().map_or_else(|| g0.clone(), |(g, _)| g.clone());
        let outcome = g.apply_mutations(&batch);
        chain.push((g, outcome));
    }
    chain
}

/// Checkpoints `exec`, serializes, drops and restores it on `graph`.
fn restored<'g, A: Algorithm + Copy>(
    exec: Executor<'g, A>,
    graph: &'g Graph,
    config: ExecutorConfig,
) -> Executor<'g, A> {
    let bytes = exec.checkpoint().to_bytes();
    let algo = *exec.algorithm();
    drop(exec);
    let snapshot = Snapshot::from_bytes(&bytes).expect("a fresh snapshot parses");
    Executor::restore(graph, algo, &snapshot, config).expect("a fresh snapshot restores")
}

/// The executor grid for one algorithm: every daemon and seed, on every base graph,
/// through fault bursts, restores and the churn chain.
fn executor_grid<A: Algorithm + Copy>(
    name: &str,
    algo_for: impl Fn(&Graph) -> A,
    extremes: impl Fn(&Graph) -> [A::State; 2],
    tally: &mut Tally,
) {
    for seed in 0..10u64 {
        for (gi, g0) in base_graphs(seed).iter().enumerate() {
            let chain = churn_chain(g0);
            let algo = algo_for(g0);
            for kind in SchedulerKind::all() {
                let what = format!("{name} on graph {gi}, seed {seed}, {kind}");
                let config = ExecutorConfig::with_scheduler(seed, kind);
                let mut exec = Executor::from_arbitrary(g0, algo, config);
                tally.executor(&mut exec, &format!("{what}: from arbitrary"));
                for b in 0..BURSTS {
                    exec.corrupt_random_nodes(1 + b % 3);
                    tally.executor(&mut exec, &format!("{what}: burst {b}"));
                }
                for (i, state) in extremes(g0).into_iter().enumerate() {
                    exec.corrupt_node(NodeId((i * 5) % g0.node_count()), state);
                    tally.executor(&mut exec, &format!("{what}: extreme register {i}"));
                }
                // A restore mid-recovery, then one of a silent configuration.
                exec.corrupt_random_nodes(3);
                exec.step_once();
                exec = restored(exec, g0, config);
                tally.executor(&mut exec, &format!("{what}: restored mid-run"));
                exec = restored(exec, g0, config);
                tally.executor(&mut exec, &format!("{what}: restored silent"));
                for (step, (g, outcome)) in chain.iter().enumerate() {
                    let what = format!("{what}, churn step {step}");
                    exec.apply_topology(g, outcome);
                    tally.executor(&mut exec, &format!("{what}: applied"));
                    exec.corrupt_random_nodes(2);
                    tally.executor(&mut exec, &format!("{what}: burst"));
                    exec = restored(exec, g, config);
                    tally.executor(&mut exec, &format!("{what}: restored"));
                }
            }
        }
    }
}

/// Steps an engine through faults, churn and restores, checking every silence.
fn engine_run(g: &Graph, task: EngineTask, config: EngineConfig, tally: &mut Tally) {
    let what = format!("{task:?} {:?} seed {}", config.relabel, config.seed);
    let mut engine = CompositionEngine::new(g, task, config);
    tally.engine(&mut engine, &format!("{what}: from scratch"));
    for k in [1, 3] {
        engine.corrupt_random_labels(k);
        tally.engine(&mut engine, &format!("{what}: {k} label faults"));
    }
    if engine.corrupt_stale_certificates() {
        tally.engine(&mut engine, &format!("{what}: stale certificates"));
    }
    // Churn: a chord appears, a tree edge drifts heavier, a tree edge fails, a node
    // joins, the minimum-identity node leaves. A severing batch commits nothing.
    let batches = {
        let (graph, tree) = (engine.graph(), engine.tree());
        let n = graph.node_count();
        let chord = graph
            .nodes()
            .flat_map(|u| graph.nodes().map(move |v| (u, v)))
            .find(|&(u, v)| u < v && graph.edge_between(u, v).is_none());
        let (tu, tp) = graph
            .nodes()
            .find_map(|v| tree.parent(v).map(|p| (v, p)))
            .expect("a tree edge");
        let mut out = vec![
            vec![Mutation::SetWeight {
                u: tu,
                v: tp,
                weight: 10_000,
            }],
            vec![Mutation::RemoveEdge { u: tu, v: tp }],
            vec![
                Mutation::AddNode { ident: 5_000 },
                Mutation::AddEdge {
                    u: NodeId(n),
                    v: NodeId(0),
                    weight: 3,
                },
                Mutation::AddEdge {
                    u: NodeId(n),
                    v: NodeId(n / 2),
                    weight: 4,
                },
            ],
            vec![Mutation::RemoveNode {
                v: graph.min_ident_node(),
            }],
        ];
        if let Some((u, v)) = chord {
            out.insert(0, vec![Mutation::AddEdge { u, v, weight: 1 }]);
        }
        out
    };
    for (i, batch) in batches.into_iter().enumerate() {
        match engine.apply_topology(&batch) {
            PhaseEvent::Partitioned { .. } => continue,
            _ => tally.engine(&mut engine, &format!("{what}: churn batch {i}")),
        }
    }
    // Restores: of the silent engine, and of one carrying unresolved label faults.
    let bytes = engine.checkpoint().to_bytes();
    let snapshot = Snapshot::from_bytes(&bytes).expect("a fresh snapshot parses");
    let (mut back, _) = CompositionEngine::restore(&snapshot, 1).expect("it restores");
    tally.engine(&mut back, &format!("{what}: restored silent"));
    back.corrupt_random_labels(2);
    let bytes = back.checkpoint().to_bytes();
    drop(back);
    let snapshot = Snapshot::from_bytes(&bytes).expect("a fresh snapshot parses");
    let (mut back, _) = CompositionEngine::restore(&snapshot, 1).expect("it restores");
    tally.engine(&mut back, &format!("{what}: restored with faults"));
}

#[test]
fn certified_silence_agrees_with_the_oracles() {
    let mut tally = Tally::default();
    executor_grid(
        "RootedBfs",
        |g| RootedBfs::new(g.ident(g.min_ident_node())),
        |_| {
            [
                BfsState {
                    parent: Some(u64::MAX),
                    dist: u64::MAX,
                },
                BfsState {
                    parent: None,
                    dist: 0,
                },
            ]
        },
        &mut tally,
    );
    executor_grid(
        "MinIdSpanningTree",
        |_| MinIdSpanningTree,
        |_| {
            [
                SpanningState {
                    root: u64::MAX,
                    parent: Some(u64::MAX),
                    dist: u64::MAX,
                    size: u64::MAX,
                },
                // A ghost root below every identity.
                SpanningState {
                    root: 0,
                    parent: None,
                    dist: 0,
                    size: u64::MAX,
                },
            ]
        },
        &mut tally,
    );
    executor_grid(
        "DistanceOnlySpanningTree",
        |_| DistanceOnlySpanningTree,
        |_| {
            [
                DistanceOnlyState {
                    root: u64::MAX,
                    parent: Some(u64::MAX),
                    dist: u64::MAX,
                },
                DistanceOnlyState {
                    root: 0,
                    parent: None,
                    dist: 0,
                },
            ]
        },
        &mut tally,
    );
    let executor_silences = tally.checked;
    for seed in 0..3u64 {
        for g in [
            generators::workload(14, 0.3, seed),
            generators::shuffle_idents(&generators::wheel(11), seed),
        ] {
            for task in [EngineTask::Mst, EngineTask::Mdst] {
                for relabel in [Relabel::Incremental, Relabel::FromScratch] {
                    let config = EngineConfig::seeded(seed).with_relabel(relabel);
                    engine_run(&g, task, config, &mut tally);
                }
            }
        }
    }
    let engine_silences = tally.checked - executor_silences;
    assert!(
        tally.checked >= 10_000,
        "{} silences checked ({executor_silences} executor, {engine_silences} engine)",
        tally.checked
    );
    // Both verdicts were reached: churn produced silence with no legal configuration.
    assert!(tally.illegal > 0 && tally.illegal < tally.checked);
}
