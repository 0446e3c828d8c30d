//! Correctness gates. Every check runs outside the timed calls; a failed check is a
//! failed operation and makes the benchmark exit non-zero.

use stst_core::bfs::{BfsState, RootedBfs};
use stst_graph::{Graph, NodeId, Tree};
use stst_runtime::Executor;
use stst_serve::{Answer, Query, ServeSnapshot};

/// Attempted and failed verified operations.
#[derive(Clone, Debug, Default)]
pub struct Audit {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the error report.
    pub failures: Vec<String>,
}

impl Audit {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    pub fn merge(&mut self, other: Audit) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(16);
    }
}

/// The tree spans `graph` and weighs what Kruskal's tree on the same graph weighs.
pub fn is_minimum(graph: &Graph, tree: &Tree) -> bool {
    tree.is_spanning_tree_of(graph)
        && stst_graph::mst::kruskal(graph)
            .is_ok_and(|mst| mst.total_weight(graph) == tree.total_weight(graph))
}

/// The tree spans `graph` and carries a Fürer–Raghavachari certificate.
pub fn is_fr_certified(graph: &Graph, tree: &Tree) -> bool {
    tree.is_spanning_tree_of(graph) && stst_graph::fr::fr_certificate(graph, tree).is_some()
}

/// The configuration passed the executor's legality predicate, and every register
/// holds its BFS depth from `root` and points at a neighbour one hop closer.
pub fn is_bfs(graph: &Graph, root: NodeId, states: &[BfsState], legal: bool) -> bool {
    let depth = stst_graph::bfs::distances_from(graph, root);
    legal
        && states.len() == graph.node_count()
        && graph.nodes().all(|v| {
            let s = states[v.0];
            if s.dist != depth[v.0] as u64 {
                return false;
            }
            match s.parent {
                None => v == root,
                Some(p) => graph
                    .neighbors(v)
                    .iter()
                    .any(|&(w, _)| graph.ident(w) == p && depth[w.0] + 1 == depth[v.0]),
            }
        })
}

/// What a checkpoint captured of a sync-BFS executor: registers and counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecImage {
    pub states: Vec<BfsState>,
    pub counters: [u64; 6],
}

impl ExecImage {
    pub fn of(exec: &Executor<'_, RootedBfs>) -> Self {
        ExecImage {
            states: exec.states(),
            counters: [
                exec.rounds(),
                exec.moves(),
                exec.steps(),
                exec.guard_evaluations(),
                exec.guard_screen_hits(),
                exec.guard_full_decodes(),
            ],
        }
    }
}

/// The answer direct traversal of the pinned epoch's tree gives, for the query
/// kinds a traversal can answer (fragment membership needs the graph's Borůvka
/// levels, which a snapshot does not carry).
pub fn traversal_answer(snap: &ServeSnapshot, query: Query) -> Option<Answer> {
    let depth = |v: NodeId| snap.traversal_depth(v);
    Some(match query {
        Query::DistToRoot(v) => Answer::Count(depth(v)),
        Query::TreeDist(u, v) => {
            Answer::Count(depth(u) + depth(v) - 2 * depth(snap.traversal_nca(u, v)))
        }
        Query::NcaDepth(u, v) => Answer::Count(depth(snap.traversal_nca(u, v))),
        Query::Ancestor(u, v) => Answer::Flag(snap.traversal_nca(u, v) == u),
        Query::SameFragment(..) => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stst_core::{CompositionEngine, EngineConfig, EngineTask};
    use stst_graph::generators;
    use stst_runtime::store::StoreMode;
    use stst_runtime::{ExecutorConfig, SchedulerKind};
    use stst_serve::ServeHub;

    /// `(attempted, failed)` after one audited check.
    fn audited(ok: bool) -> (u64, u64) {
        let mut audit = Audit::default();
        audit.check(ok, || "planted".into());
        (audit.attempted, audit.failed)
    }

    #[test]
    fn a_heavier_spanning_tree_fails_the_mst_gate() {
        let g = generators::workload(40, 0.2, 7);
        let mst = stst_graph::mst::kruskal(&g).unwrap();
        assert!(is_minimum(&g, &mst));
        let (add, remove) = {
            let e = g
                .edge_ids()
                .find(|&e| !mst.contains_edge(g.edge(e).u, g.edge(e).v))
                .expect("a non-tree edge");
            let cycle = mst.fundamental_cycle_tree_edges(&g, e);
            (e, cycle[0])
        };
        let worse = mst.with_swap(&g, add, remove);
        assert_eq!(audited(is_minimum(&g, &worse)), (1, 1));
    }

    #[test]
    fn a_star_with_a_cheaper_path_fails_the_fr_gate() {
        // A wheel: the star at the hub has degree n − 1; the rim path has degree 2.
        let n = 8;
        let mut edges: Vec<(usize, usize, u64)> = (1..n).map(|i| (0, i, i as u64)).collect();
        edges.extend((1..n - 1).map(|i| (i, i + 1, (n + i) as u64)));
        let g = Graph::from_edges(n, &edges);
        let star =
            Tree::from_parents_in(&g, (0..n).map(|i| (i > 0).then_some(NodeId(0))).collect())
                .unwrap();
        assert_eq!(audited(is_fr_certified(&g, &star)), (1, 1));
        let mut engine = CompositionEngine::new(&g, EngineTask::Mdst, EngineConfig::seeded(3));
        let report = engine.run();
        assert!(is_fr_certified(&g, &report.tree));
    }

    #[test]
    fn a_perturbed_register_fails_the_bfs_and_restore_gates() {
        let g = generators::random_sparse(300, 150, 5);
        let root = g.min_ident_node();
        let mut exec = Executor::from_arbitrary(
            &g,
            RootedBfs::new(g.ident(root)),
            ExecutorConfig::with_scheduler(5, SchedulerKind::Synchronous),
        );
        let q = exec.run_to_quiescence(1_000_000).unwrap();
        let image = ExecImage::of(&exec);
        assert!(is_bfs(&g, root, &image.states, q.legal));
        let mut bad = image.clone();
        let v = g.nodes().find(|&v| v != root).unwrap();
        bad.states[v.0].dist += 1;
        assert_eq!(audited(is_bfs(&g, root, &bad.states, true)), (1, 1));
        assert_eq!(audited(bad == image), (1, 1));
        let mut counted = image.clone();
        counted.counters[0] += 1;
        assert_eq!(audited(counted == image), (1, 1));
    }

    #[test]
    fn a_perturbed_answer_fails_the_traversal_oracle() {
        let g = generators::workload(60, 0.1, 9);
        let mut engine = CompositionEngine::new(&g, EngineTask::Mst, EngineConfig::seeded(9));
        engine.run();
        let hub = ServeHub::new(StoreMode::Packed);
        hub.publish_from_engine(&engine);
        let mut reader = hub.reader().unwrap();
        let q = Query::TreeDist(NodeId(3), NodeId(41));
        let served = reader.query(q);
        let truth = traversal_answer(reader.snapshot(), q).unwrap();
        assert_eq!(served, truth);
        let Answer::Count(d) = served else {
            panic!("distances are counts")
        };
        assert_eq!(audited(Answer::Count(d + 1) == truth), (1, 1));
        assert!(
            traversal_answer(reader.snapshot(), Query::SameFragment(NodeId(1), NodeId(2)))
                .is_none()
        );
    }
}
