//! Sequential minimum-weight spanning tree references: Kruskal, Prim and Borůvka, plus
//! the red-rule helpers (heaviest edge on a fundamental cycle) used by the PLS-guided
//! MST improvement step (paper §VI).

use crate::graph::{EdgeId, Graph};
use crate::ids::{NodeId, Weight};
use crate::tree::{Tree, TreeError};
use crate::union_find::UnionFind;

/// Errors from the MST oracles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MstError {
    /// The graph is not connected; no spanning tree exists.
    Disconnected,
    /// The edge set produced internally did not form a tree (should not happen on
    /// well-formed inputs).
    Internal(TreeError),
}

impl std::fmt::Display for MstError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MstError::Disconnected => write!(f, "the graph is not connected"),
            MstError::Internal(e) => write!(f, "internal tree construction error: {e}"),
        }
    }
}

impl std::error::Error for MstError {}

impl From<TreeError> for MstError {
    fn from(value: TreeError) -> Self {
        MstError::Internal(value)
    }
}

fn tree_from_edge_ids(graph: &Graph, edges: &[EdgeId]) -> Result<Tree, MstError> {
    if edges.len() + 1 != graph.node_count() {
        return Err(MstError::Disconnected);
    }
    Ok(Tree::from_edge_set(graph, edges, graph.min_ident_node())?)
}

/// The edges Kruskal's algorithm keeps, in the order it keeps them (a spanning forest
/// of minimum weight).
fn kruskal_edges(graph: &Graph) -> Vec<EdgeId> {
    let mut order: Vec<EdgeId> = graph.edge_ids().collect();
    order.sort_by_key(|&e| (graph.weight(e), e.index()));
    let mut uf = UnionFind::new(graph.node_count());
    let mut chosen = Vec::with_capacity(graph.node_count().saturating_sub(1));
    for e in order {
        let edge = graph.edge(e);
        if uf.union(edge.u.index(), edge.v.index()) {
            chosen.push(e);
        }
    }
    chosen
}

/// Kruskal's algorithm. Returns an MST rooted at the minimum-identity node.
///
/// # Errors
///
/// Returns [`MstError::Disconnected`] if the graph has no spanning tree.
pub fn kruskal(graph: &Graph) -> Result<Tree, MstError> {
    tree_from_edge_ids(graph, &kruskal_edges(graph))
}

/// Prim's algorithm starting from `start`. Returns an MST rooted at the minimum-identity
/// node (independently of `start`, so results are comparable across oracles).
///
/// # Errors
///
/// Returns [`MstError::Disconnected`] if the graph has no spanning tree.
pub fn prim(graph: &Graph, start: NodeId) -> Result<Tree, MstError> {
    let n = graph.node_count();
    let mut in_tree = vec![false; n];
    in_tree[start.index()] = true;
    let mut chosen: Vec<EdgeId> = Vec::with_capacity(n.saturating_sub(1));
    for _ in 1..n {
        let mut best: Option<EdgeId> = None;
        for e in graph.edge_ids() {
            let edge = graph.edge(e);
            if in_tree[edge.u.index()] ^ in_tree[edge.v.index()]
                && best.is_none_or(|b| (graph.weight(e), e.index()) < (graph.weight(b), b.index()))
            {
                best = Some(e);
            }
        }
        let Some(e) = best else {
            return Err(MstError::Disconnected);
        };
        let edge = graph.edge(e);
        in_tree[edge.u.index()] = true;
        in_tree[edge.v.index()] = true;
        chosen.push(e);
    }
    tree_from_edge_ids(graph, &chosen)
}

/// One node's record of a Borůvka execution: the sequence of fragments it belonged to
/// and, for each level, the minimum-weight outgoing edge chosen by its fragment.
/// This is exactly the label content of the paper's §VI (Fig. 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoruvkaTrace {
    /// `fragment[i]` = identity of the level-`i` fragment containing the node
    /// (the minimum node identity in the fragment).
    pub fragment: Vec<u64>,
    /// `chosen_edge[i]` = the minimum-weight edge outgoing from the level-`i` fragment
    /// (`None` once the fragment covers the whole graph).
    pub chosen_edge: Vec<Option<EdgeId>>,
}

/// The result of running Borůvka's algorithm: the MST plus the per-node fragment traces.
#[derive(Clone, Debug)]
pub struct BoruvkaRun {
    /// The minimum spanning tree, rooted at the minimum-identity node.
    pub tree: Tree,
    /// Per-node traces (indexed by dense node index).
    pub traces: Vec<BoruvkaTrace>,
    /// Number of levels until a single fragment remained (`k ≤ ⌈log₂ n⌉`).
    pub levels: usize,
}

/// Borůvka's algorithm *restricted to the edges of a given spanning structure* is what
/// the paper's labeling scheme simulates on the current tree `T`; running it on the full
/// graph yields the true MST. `edges_allowed` filters which edges fragments may choose.
fn boruvka_with_filter(
    graph: &Graph,
    edges_allowed: &dyn Fn(EdgeId) -> bool,
) -> Result<BoruvkaRun, MstError> {
    let n = graph.node_count();
    let mut uf = UnionFind::new(n);
    let mut traces = vec![
        BoruvkaTrace {
            fragment: Vec::new(),
            chosen_edge: Vec::new()
        };
        n
    ];
    let mut chosen_total: Vec<EdgeId> = Vec::new();
    let mut levels = 0usize;
    // At most ⌈log₂ n⌉ + 1 levels; guard with n iterations for safety.
    for _ in 0..=n {
        // Record the fragment identity of every node at this level.
        let mut frag_ident = vec![u64::MAX; n];
        for v in 0..n {
            let r = uf.find(v);
            let id = graph.ident(NodeId(v));
            if id < frag_ident[r] {
                frag_ident[r] = id;
            }
        }
        for v in 0..n {
            let r = uf.find(v);
            traces[v].fragment.push(frag_ident[r]);
        }
        if uf.component_count() == 1 {
            for t in &mut traces {
                t.chosen_edge.push(None);
            }
            levels += 1;
            break;
        }
        // Minimum-weight outgoing edge of each fragment.
        let mut best: Vec<Option<EdgeId>> = vec![None; n];
        for e in graph.edge_ids() {
            if !edges_allowed(e) {
                continue;
            }
            let edge = graph.edge(e);
            let (ru, rv) = (uf.find(edge.u.index()), uf.find(edge.v.index()));
            if ru == rv {
                continue;
            }
            for r in [ru, rv] {
                if best[r]
                    .is_none_or(|b| (graph.weight(e), e.index()) < (graph.weight(b), b.index()))
                {
                    best[r] = Some(e);
                }
            }
        }
        // If some fragment has no outgoing edge at all, the filtered edge set is
        // disconnected.
        let mut any = false;
        for v in 0..n {
            let r = uf.find(v);
            traces[v].chosen_edge.push(best[r]);
            if best[r].is_some() {
                any = true;
            }
        }
        if !any {
            return Err(MstError::Disconnected);
        }
        // Merge along chosen edges.
        let roots: Vec<usize> = (0..n).filter(|&v| uf.find(v) == v).collect();
        for r in roots {
            if let Some(e) = best[r] {
                let edge = graph.edge(e);
                if uf.union(edge.u.index(), edge.v.index()) {
                    chosen_total.push(e);
                }
            }
        }
        levels += 1;
    }
    if uf.component_count() != 1 {
        return Err(MstError::Disconnected);
    }
    let tree = tree_from_edge_ids(graph, &chosen_total)?;
    Ok(BoruvkaRun {
        tree,
        traces,
        levels,
    })
}

/// Borůvka's algorithm on the whole graph. The returned traces are the reference content
/// for the MST fragment labels of §VI.
///
/// # Errors
///
/// Returns [`MstError::Disconnected`] if the graph has no spanning tree.
pub fn boruvka(graph: &Graph) -> Result<BoruvkaRun, MstError> {
    boruvka_with_filter(graph, &|_| true)
}

/// A *virtual* execution of Borůvka's algorithm restricted to the edges of the spanning
/// tree `T` (paper §VI: "each node stores the trace of a virtual execution of Borůvska's
/// algorithm on T"). The traces describe how the fragments of `T` merge; the chosen
/// edges are tree edges.
///
/// # Errors
///
/// Returns an error if `tree` is not a spanning tree of `graph`.
pub fn boruvka_on_tree(graph: &Graph, tree: &Tree) -> Result<BoruvkaRun, MstError> {
    if !tree.is_spanning_tree_of(graph) {
        return Err(MstError::Disconnected);
    }
    let tree_edges: std::collections::HashSet<EdgeId> =
        tree.edge_ids_in(graph).into_iter().collect();
    boruvka_with_filter(graph, &move |e| tree_edges.contains(&e))
}

/// `true` if `tree` is a minimum-weight spanning tree of `graph`.
///
/// Compares the tree's weight with the weight of Kruskal's forest, in `O(m log m)`. By
/// the cycle-optimality theorem this is the cycle (red) rule — every non-tree edge is a
/// maximum-weight edge on its fundamental cycle — ties included, without walking a
/// cycle per non-tree edge.
pub fn is_mst(graph: &Graph, tree: &Tree) -> bool {
    tree.is_spanning_tree_of(graph)
        && tree.total_weight(graph)
            == kruskal_edges(graph)
                .into_iter()
                .map(|e| graph.weight(e))
                .sum::<Weight>()
}

/// The heaviest tree edge on the fundamental cycle of the non-tree edge `e`
/// (Tarjan's red rule, used by the improvement step of Algorithm 2).
///
/// # Panics
///
/// Panics if `e` is a tree edge.
pub fn heaviest_cycle_edge(graph: &Graph, tree: &Tree, e: EdgeId) -> EdgeId {
    tree.fundamental_cycle_tree_edges(graph, e)
        .into_iter()
        .max_by_key(|&f| (graph.weight(f), f.index()))
        .expect("a fundamental cycle has at least one tree edge")
}

/// [`heaviest_cycle_edge`] for a caller that maintains the tree's depth table: the
/// cycle is walked from the deeper endpoint up to the NCA along the parent pointers,
/// in `O(cycle length)`, with no path materialized.
///
/// # Panics
///
/// Panics if `e` is a tree edge or `depths` is not `tree`'s depth table.
pub fn heaviest_cycle_edge_at_depths(
    graph: &Graph,
    tree: &Tree,
    depths: &[usize],
    e: EdgeId,
) -> EdgeId {
    let edge = graph.edge(e);
    assert!(
        !tree.contains_edge(edge.u, edge.v),
        "fundamental cycles are defined for non-tree edges"
    );
    let mut best: Option<EdgeId> = None;
    let mut climb = |x: NodeId| -> NodeId {
        let p = tree
            .parent(x)
            .expect("below the NCA there is always a parent");
        let f = graph
            .edge_between(x, p)
            .expect("tree edges are graph edges");
        if best.is_none_or(|b| (graph.weight(f), f.index()) > (graph.weight(b), b.index())) {
            best = Some(f);
        }
        p
    };
    let (mut a, mut b) = (edge.u, edge.v);
    while depths[a.0] > depths[b.0] {
        a = climb(a);
    }
    while depths[b.0] > depths[a.0] {
        b = climb(b);
    }
    while a != b {
        a = climb(a);
        b = climb(b);
    }
    best.expect("a fundamental cycle has at least one tree edge")
}

/// An improving swap for a non-MST tree: a non-tree edge `e` and the heaviest tree edge
/// `f` on its fundamental cycle with `w(e) < w(f)`. Returns `None` iff `tree` is an MST.
pub fn improving_swap(graph: &Graph, tree: &Tree) -> Option<(EdgeId, EdgeId)> {
    let mut best: Option<(EdgeId, EdgeId, Weight)> = None;
    for e in graph.edge_ids() {
        let edge = graph.edge(e);
        if tree.contains_edge(edge.u, edge.v) {
            continue;
        }
        let f = heaviest_cycle_edge(graph, tree, e);
        if graph.weight(e) < graph.weight(f) {
            let gain = graph.weight(f) - graph.weight(e);
            if best.is_none_or(|(_, _, g)| gain > g) {
                best = Some((e, f, gain));
            }
        }
    }
    best.map(|(e, f, _)| (e, f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn weighted(n: usize, p: f64, seed: u64) -> Graph {
        generators::workload(n, p, seed)
    }

    /// The cycle-rule check `is_mst` used before the Kruskal weight comparison, kept as
    /// its differential oracle: `O(m·h)`, one fundamental cycle per non-tree edge.
    fn is_mst_reference(graph: &Graph, tree: &Tree) -> bool {
        if !tree.is_spanning_tree_of(graph) {
            return false;
        }
        for e in graph.edge_ids() {
            let edge = graph.edge(e);
            if tree.contains_edge(edge.u, edge.v) {
                continue;
            }
            let max_on_cycle = tree
                .fundamental_cycle_tree_edges(graph, e)
                .into_iter()
                .map(|f| graph.weight(f))
                .max()
                .expect("a fundamental cycle has at least one tree edge");
            if graph.weight(e) < max_on_cycle {
                return false;
            }
        }
        true
    }

    /// `graph` with every weight replaced by one of `1..=levels`, so that many edges tie.
    fn tied(graph: &Graph, levels: Weight, seed: u64) -> Graph {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let edges: Vec<_> = graph
            .edges()
            .iter()
            .map(|e| (e.u.0, e.v.0, rng.gen_range(1..=levels)))
            .collect();
        Graph::from_edges(graph.node_count(), &edges)
    }

    #[test]
    fn is_mst_matches_the_cycle_rule_reference() {
        let mut verdicts = [0usize; 2];
        let mut check = |g: &Graph, t: &Tree, what: &str| {
            let got = is_mst(g, t);
            assert_eq!(got, is_mst_reference(g, t), "{what}");
            verdicts[usize::from(got)] += 1;
        };
        for seed in 0..4 {
            let distinct = weighted(30, 0.2, seed);
            let graphs = [
                ("distinct", distinct.clone()),
                ("tied (3 weights)", tied(&distinct, 3, seed)),
                ("tied (1 weight)", tied(&distinct, 1, seed)),
                ("tied grid", tied(&generators::grid(5, 5), 2, seed)),
            ];
            for (kind, g) in graphs {
                let what = format!("{kind} graph, seed {seed}");
                let mst = kruskal(&g).unwrap();
                check(&g, &mst, &format!("{what}: Kruskal's tree"));
                check(&g, &prim(&g, NodeId(seed as usize)).unwrap(), &what);
                // Every tree one swap away from the MST, and one swap away from a
                // random spanning tree.
                let start = generators::random_spanning_tree(&g, seed);
                check(&g, &start, &format!("{what}: random tree"));
                for base in [&mst, &start] {
                    for e in g.edge_ids() {
                        let edge = g.edge(e);
                        if base.contains_edge(edge.u, edge.v) {
                            continue;
                        }
                        for f in base.fundamental_cycle_tree_edges(&g, e) {
                            let swapped = base.with_swap(&g, e, f);
                            check(&g, &swapped, &format!("{what}: swap {e:?} for {f:?}"));
                        }
                    }
                }
                // Trees that do not span the graph: a tree edge missing from the graph,
                // and a tree over fewer nodes.
                let path = Tree::path(g.node_count());
                if !path.is_spanning_tree_of(&g) {
                    check(&g, &path, &format!("{what}: path off the graph"));
                }
                check(
                    &g,
                    &Tree::path(g.node_count() - 1),
                    &format!("{what}: too small"),
                );
            }
        }
        assert!(
            verdicts.iter().all(|&k| k > 100),
            "both verdicts must be exercised: {verdicts:?}"
        );
    }

    #[test]
    fn the_three_oracles_agree() {
        for seed in 0..8 {
            let g = weighted(24, 0.2, seed);
            let k = kruskal(&g).unwrap();
            let p = prim(&g, NodeId(seed as usize % 24)).unwrap();
            let b = boruvka(&g).unwrap();
            let w = k.total_weight(&g);
            assert_eq!(p.total_weight(&g), w, "prim disagrees on seed {seed}");
            assert_eq!(
                b.tree.total_weight(&g),
                w,
                "boruvka disagrees on seed {seed}"
            );
            // With distinct weights the MST is unique, so edge sets agree too.
            let mut ke = k.edge_ids_in(&g);
            let mut be = b.tree.edge_ids_in(&g);
            ke.sort();
            be.sort();
            assert_eq!(ke, be);
        }
    }

    #[test]
    fn is_mst_accepts_the_oracle_and_rejects_heavier_trees() {
        let g = weighted(20, 0.3, 3);
        let t = kruskal(&g).unwrap();
        assert!(is_mst(&g, &t));
        // Apply a deteriorating swap if one exists: add the heaviest non-tree edge and
        // remove a lighter cycle edge.
        let non_tree: Vec<EdgeId> = g
            .edge_ids()
            .filter(|&e| {
                let edge = g.edge(e);
                !t.contains_edge(edge.u, edge.v)
            })
            .collect();
        let heavy = *non_tree
            .iter()
            .max_by_key(|&&e| g.weight(e))
            .expect("dense graph has non-tree edges");
        let cycle = t.fundamental_cycle_tree_edges(&g, heavy);
        let light = *cycle.iter().min_by_key(|&&f| g.weight(f)).unwrap();
        assert!(g.weight(heavy) > g.weight(light));
        let worse = t.with_swap(&g, heavy, light);
        assert!(!is_mst(&g, &worse));
        assert!(worse.total_weight(&g) > t.total_weight(&g));
    }

    #[test]
    fn improving_swaps_reach_the_mst() {
        // Local search guided by the red rule converges to the MST from any spanning tree.
        let g = weighted(18, 0.35, 7);
        let mut t = crate::bfs::bfs_tree(&g, NodeId(0));
        let opt = kruskal(&g).unwrap().total_weight(&g);
        let mut guard = 0;
        while let Some((e, f)) = improving_swap(&g, &t) {
            let before = t.total_weight(&g);
            t = t.with_swap(&g, e, f);
            assert!(t.total_weight(&g) < before, "each swap strictly improves");
            guard += 1;
            assert!(guard < 1000, "local search must terminate");
        }
        assert_eq!(t.total_weight(&g), opt);
        assert!(is_mst(&g, &t));
    }

    #[test]
    fn boruvka_traces_have_log_levels_and_consistent_fragments() {
        let g = weighted(64, 0.1, 5);
        let run = boruvka(&g).unwrap();
        assert!(
            run.levels <= 8,
            "64 nodes need at most ⌈log₂ 64⌉ + 1 = 7 levels, got {}",
            run.levels
        );
        for v in g.nodes() {
            let tr = &run.traces[v.index()];
            assert_eq!(tr.fragment.len(), run.levels);
            assert_eq!(tr.chosen_edge.len(), run.levels);
            // Level-0 fragments are singletons identified by the node's own identity.
            assert_eq!(tr.fragment[0], g.ident(v));
            // The last level has a single fragment and no outgoing edge.
            assert_eq!(tr.chosen_edge[run.levels - 1], None);
        }
        // All nodes agree on the final fragment identity.
        let last: std::collections::HashSet<u64> = g
            .nodes()
            .map(|v| run.traces[v.index()].fragment[run.levels - 1])
            .collect();
        assert_eq!(last.len(), 1);
    }

    #[test]
    fn boruvka_on_tree_follows_tree_edges() {
        let g = weighted(30, 0.25, 9);
        let t = crate::bfs::bfs_tree(&g, NodeId(2));
        let run = boruvka_on_tree(&g, &t).unwrap();
        // Every chosen edge is a tree edge.
        for tr in &run.traces {
            for e in tr.chosen_edge.iter().flatten() {
                let edge = g.edge(*e);
                assert!(t.contains_edge(edge.u, edge.v));
            }
        }
        // The reconstructed tree spans the graph (it is T itself as an edge set).
        let mut ours = run.tree.edge_ids_in(&g);
        let mut orig = t.edge_ids_in(&g);
        ours.sort();
        orig.sort();
        assert_eq!(ours, orig);
    }

    #[test]
    fn mst_on_a_tree_graph_is_the_graph() {
        let g = generators::randomize_weights(&generators::random_tree(15, 2), 2);
        let t = kruskal(&g).unwrap();
        assert_eq!(
            t.total_weight(&g),
            g.edges().iter().map(|e| e.weight).sum::<u64>()
        );
    }

    #[test]
    fn heaviest_cycle_edge_is_on_the_cycle() {
        let g = weighted(16, 0.4, 11);
        let t = kruskal(&g).unwrap();
        for e in g.edge_ids() {
            let edge = g.edge(e);
            if t.contains_edge(edge.u, edge.v) {
                continue;
            }
            let f = heaviest_cycle_edge(&g, &t, e);
            assert!(t.fundamental_cycle_tree_edges(&g, e).contains(&f));
            // Red rule on an MST: the non-tree edge is at least as heavy as f.
            assert!(g.weight(e) > g.weight(f));
        }
    }

    #[test]
    fn depth_walk_finds_the_same_heaviest_cycle_edge() {
        for seed in 0..4 {
            let g = weighted(40, 0.15, seed);
            for t in [
                crate::bfs::bfs_tree(&g, g.min_ident_node()),
                generators::random_spanning_tree(&g, seed),
            ] {
                let depths = t.depths();
                for e in g.edge_ids() {
                    let edge = g.edge(e);
                    if !t.contains_edge(edge.u, edge.v) {
                        assert_eq!(
                            heaviest_cycle_edge_at_depths(&g, &t, &depths, e),
                            heaviest_cycle_edge(&g, &t, e),
                            "seed {seed}, edge {e:?}"
                        );
                    }
                }
            }
        }
    }
}
