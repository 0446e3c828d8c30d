//! Minimum-degree spanning trees: the sequential Fürer–Raghavachari (+1)-approximation,
//! FR-tree certification (Definition 8.1 of the paper), and an exact branch-and-bound
//! search for small instances.
//!
//! The paper's MDST construction (§VIII) stabilizes on *FR-trees*: spanning trees that
//! admit a good/bad marking certifying that their degree is at most `OPT + 1`. This
//! module provides the sequential ground truth: the FR local-search algorithm
//! (Algorithm 4), the marking/certification procedure, and exact optima for small `n`.

use std::collections::HashMap;

use crate::graph::{EdgeId, Graph};
use crate::ids::NodeId;
use crate::tree::Tree;
use crate::union_find::UnionFind;

/// A good/bad marking of the nodes certifying that a tree is an FR-tree
/// (Definition 8.1): max-degree nodes are bad, degree ≤ k−2 nodes are good, and no graph
/// edge joins two good nodes lying in different fragments (components of the tree minus
/// the bad nodes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrCertificate {
    /// The tree degree `k` the certificate refers to.
    pub degree: usize,
    /// `good[v]` is `true` iff node `v` is marked good.
    pub good: Vec<bool>,
    /// `fragment[v]` identifies the fragment of `v` (meaningful only for good nodes):
    /// the smallest dense index in the fragment.
    pub fragment: Vec<usize>,
}

impl FrCertificate {
    /// Verifies the three conditions of Definition 8.1 against `graph` and `tree`.
    pub fn verify(&self, graph: &Graph, tree: &Tree) -> bool {
        let n = graph.node_count();
        if self.good.len() != n || self.fragment.len() != n {
            return false;
        }
        let k = tree.max_degree();
        if k != self.degree {
            return false;
        }
        for v in tree.nodes() {
            let d = tree.degree(v);
            // (1) every node with degree k is bad.
            if d == k && self.good[v.0] {
                return false;
            }
            // (2) every node with degree ≤ k−2 is good.
            if d + 2 <= k && !self.good[v.0] {
                return false;
            }
        }
        // Recompute fragments (components of T minus bad nodes) and check they match the
        // certificate, then check (3): no graph edge between good nodes of different
        // fragments.
        let frag = fragments_of_good_nodes(tree, &self.good);
        for v in 0..n {
            if self.good[v] && frag[v] != self.fragment[v] {
                return false;
            }
        }
        for e in graph.edges() {
            let (u, v) = (e.u.0, e.v.0);
            if self.good[u] && self.good[v] && frag[u] != frag[v] {
                return false;
            }
        }
        true
    }
}

/// Components of the forest obtained from `tree` by deleting the nodes marked bad,
/// identified by the smallest dense index they contain. Bad nodes get their own index.
fn fragments_of_good_nodes(tree: &Tree, good: &[bool]) -> Vec<usize> {
    let n = tree.node_count();
    let mut uf = UnionFind::new(n);
    for v in tree.nodes() {
        if let Some(p) = tree.parent(v) {
            if good[v.0] && good[p.0] {
                uf.union(v.0, p.0);
            }
        }
    }
    let mut smallest: HashMap<usize, usize> = HashMap::new();
    for v in 0..n {
        let r = uf.find(v);
        let entry = smallest.entry(r).or_insert(v);
        if v < *entry {
            *entry = v;
        }
    }
    (0..n).map(|v| smallest[&uf.find(v)]).collect()
}

/// Tree degree of every node, read off the parent pointers in one pass.
fn degree_table(parents: &[Option<NodeId>]) -> Vec<usize> {
    let mut deg = vec![0usize; parents.len()];
    for (v, p) in parents.iter().enumerate() {
        if let Some(p) = p {
            deg[v] += 1;
            deg[p.0] += 1;
        }
    }
    deg
}

/// Depth of every node: each walk up the parent pointers stops at the first node whose
/// depth is already known, so every pointer is followed once.
fn depth_table(parents: &[Option<NodeId>]) -> Vec<usize> {
    const UNKNOWN: usize = usize::MAX;
    let mut depth = vec![UNKNOWN; parents.len()];
    let mut pending = Vec::new();
    for start in 0..parents.len() {
        let mut cur = start;
        while depth[cur] == UNKNOWN {
            match parents[cur] {
                Some(p) => {
                    pending.push(cur);
                    cur = p.0;
                }
                None => depth[cur] = 0,
            }
        }
        let mut d = depth[cur];
        while let Some(x) = pending.pop() {
            d += 1;
            depth[x] = d;
        }
    }
    depth
}

/// The fundamental cycle of the non-tree edge `{u, v}` as the tree path
/// `u → NCA → v` (the node order of [`Tree::fundamental_cycle_nodes`]). Both endpoints
/// walk up the parent pointers, the deeper one first, so the cost is the length of the
/// path.
fn cycle_path(parents: &[Option<NodeId>], depth: &[usize], u: NodeId, v: NodeId) -> Vec<NodeId> {
    let (mut a, mut b) = (u, v);
    let mut from_u = Vec::new();
    let mut from_v = Vec::new();
    while a != b {
        // A node at least as deep as the other walker is not its ancestor, so it lies
        // strictly below the NCA.
        if depth[a.0] >= depth[b.0] {
            from_u.push(a);
            a = parents[a.0].expect("a node below the NCA has a parent");
        } else {
            from_v.push(b);
            b = parents[b.0].expect("a node below the NCA has a parent");
        }
    }
    from_u.push(a);
    from_u.extend(from_v.into_iter().rev());
    from_u
}

/// Result of the good-propagation phase of the FR algorithm on a given tree.
#[derive(Clone, Debug)]
struct Propagation {
    /// Final good marks.
    good: Vec<bool>,
    /// For nodes that started bad and were marked good: the non-tree witness edge whose
    /// fundamental cycle contains them.
    witness: Vec<Option<EdgeId>>,
    /// A max-degree node that became good, if any (then the tree is improvable).
    improvable: Option<NodeId>,
}

/// The marking/propagation phase of Fürer–Raghavachari (Algorithm 4, lines 3–9):
/// nodes of degree ≥ d−1 start bad, all others good; repeatedly, a non-tree edge whose
/// endpoints are good and lie in different fragments marks every bad node on its
/// fundamental cycle good (recording the edge as witness) and merges the fragments.
///
/// `deg` and `depth` are the tree's degree and depth tables and `d` its maximum degree.
/// Each sweep over the edges costs `O(m)` plus the cycles it walks.
fn propagate(graph: &Graph, tree: &Tree, deg: &[usize], depth: &[usize], d: usize) -> Propagation {
    let n = graph.node_count();
    let parents = tree.parents();
    let mut good: Vec<bool> = deg.iter().map(|&k| k + 1 < d).collect();
    let mut uf = UnionFind::new(n);
    for (v, p) in parents.iter().enumerate() {
        if let Some(p) = p {
            if good[v] && good[p.0] {
                uf.union(v, p.0);
            }
        }
    }
    let mut witness: Vec<Option<EdgeId>> = vec![None; n];
    let mut improvable: Option<NodeId> = None;
    let mut changed = true;
    while changed && improvable.is_none() {
        changed = false;
        for e in graph.edge_ids() {
            let edge = graph.edge(e);
            if tree.contains_edge(edge.u, edge.v) {
                continue;
            }
            if !(good[edge.u.0] && good[edge.v.0]) {
                continue;
            }
            if uf.same(edge.u.0, edge.v.0) {
                continue;
            }
            // This edge connects two different fragments of good nodes: every bad node
            // on its fundamental cycle can be improved, so mark it good.
            let cycle = cycle_path(parents, depth, edge.u, edge.v);
            for &x in &cycle {
                if !good[x.0] {
                    good[x.0] = true;
                    witness[x.0] = Some(e);
                    if deg[x.0] == d && improvable.is_none() {
                        improvable = Some(x);
                    }
                }
            }
            // Merge the fragments along the cycle (all cycle nodes are now good).
            for w in cycle.windows(2) {
                uf.union(w[0].0, w[1].0);
            }
            uf.union(edge.u.0, edge.v.0);
            changed = true;
            if improvable.is_some() {
                break;
            }
        }
    }
    Propagation {
        good,
        witness,
        improvable,
    }
}

/// The maximum of a degree table (0 for the empty tree).
fn max_degree(deg: &[usize]) -> usize {
    deg.iter().copied().max().unwrap_or(0)
}

/// The certificate of a propagation that left every max-degree node bad.
fn certificate(tree: &Tree, degree: usize, good: Vec<bool>) -> FrCertificate {
    let fragment = fragments_of_good_nodes(tree, &good);
    FrCertificate {
        degree,
        good,
        fragment,
    }
}

/// Attempts to certify `tree` as an FR-tree. Returns the certificate if the
/// propagation fixed point leaves every max-degree node bad (Definition 8.1), or `None`
/// if the tree is improvable (hence not an FR-tree with this marking).
///
/// This is the oracle of the MDST composition's silence: the engine takes its verdict
/// from the propagation [`improve_once`] has just run ([`FrStep::Certified`]), and
/// tests and experiments check that verdict with this function.
pub fn fr_certificate(graph: &Graph, tree: &Tree) -> Option<FrCertificate> {
    if !tree.is_spanning_tree_of(graph) {
        return None;
    }
    let deg = degree_table(tree.parents());
    let d = max_degree(&deg);
    let prop = propagate(graph, tree, &deg, &depth_table(tree.parents()), d);
    if prop.improvable.is_some() {
        return None;
    }
    Some(certificate(tree, d, prop.good))
}

/// `true` if the tree is certified as an FR-tree (hence has degree at most `OPT + 1`).
pub fn is_fr_tree(graph: &Graph, tree: &Tree) -> bool {
    fr_certificate(graph, tree).is_some()
}

/// The tree an improvement rewires in place: its parent pointers, degree table and
/// depth table. A swap reverses the pointers on one path, as the composition engine's
/// loop-free switch does, and leaves the depths stale until the next cycle walk.
struct Rewiring {
    parents: Vec<Option<NodeId>>,
    deg: Vec<usize>,
    depth: Vec<usize>,
    depth_stale: bool,
}

impl Rewiring {
    fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.parents[u.0] == Some(v) || self.parents[v.0] == Some(u)
    }

    /// The swap `T ← T + {u, v} − f`, where `f` is the first tree edge touching `x` on
    /// the fundamental cycle `u → NCA → v`. Returns `None` if `x` is not on the cycle.
    fn swap_at(&mut self, u: NodeId, v: NodeId, x: NodeId) -> Option<()> {
        if self.depth_stale {
            self.depth = depth_table(&self.parents);
            self.depth_stale = false;
        }
        let cycle = cycle_path(&self.parents, &self.depth, u, v);
        let at = cycle.iter().position(|&y| y == x)?;
        // The cycle edges are the consecutive node pairs; the first one touching `x`
        // ends at `x`, unless `x` is the first node.
        let i = at.saturating_sub(1);
        let (a, b) = (cycle[i], cycle[i + 1]);
        assert!(
            self.contains_edge(a, b),
            "the removed edge must lie on the fundamental cycle of the added edge"
        );
        assert!(a == x || b == x, "the removed edge must touch {x:?}");
        if self.parents[a.0] == Some(b) {
            // `{a, b}` is on the u side: the detached subtree holds `u`, and the path
            // u = cycle[0] … cycle[i] = a turns around to hang from `v`.
            for k in 1..=i {
                self.parents[cycle[k].0] = Some(cycle[k - 1]);
            }
            self.parents[u.0] = Some(v);
        } else {
            // `{a, b}` is on the v side: the path v … cycle[i + 1] = b hangs from `u`.
            let last = cycle.len() - 1;
            for k in i + 1..last {
                self.parents[cycle[k].0] = Some(cycle[k + 1]);
            }
            self.parents[v.0] = Some(u);
        }
        self.deg[a.0] -= 1;
        self.deg[b.0] -= 1;
        self.deg[u.0] += 1;
        self.deg[v.0] += 1;
        self.depth_stale = true;
        Some(())
    }
}

/// Recursively applies the improvement rooted at the good node `x` (which carries a
/// witness edge): first reduces the degree of any witness-edge endpoint that is still at
/// degree ≥ d−1, then performs the swap that removes a tree edge incident to `x` on the
/// witness cycle. Returns `None` if the nested structure was invalidated (the caller
/// then restarts the outer loop); `tree` is left half-rewired in that case.
fn apply_improvement(
    graph: &Graph,
    tree: &mut Rewiring,
    x: NodeId,
    d: usize,
    witness: &[Option<EdgeId>],
    depth: usize,
) -> Option<()> {
    if depth > graph.node_count() {
        return None;
    }
    let e = witness[x.0]?;
    let edge = graph.edge(e);
    for endpoint in [edge.u, edge.v] {
        if tree.deg[endpoint.0] + 1 >= d {
            // The endpoint would reach degree d after the swap: reduce it first
            // (this is the "well nested" sequence of §VII).
            apply_improvement(graph, tree, endpoint, d, witness, depth + 1)?;
        }
    }
    if tree.contains_edge(edge.u, edge.v) {
        return None;
    }
    tree.swap_at(edge.u, edge.v, x)
}

/// Statistics of a Fürer–Raghavachari run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrStats {
    /// Number of applied improvements (well-nested swap sequences).
    pub improvements: usize,
    /// Number of individual edge swaps performed across all improvements.
    pub swaps: usize,
    /// Degree of the initial tree.
    pub initial_degree: usize,
    /// Degree of the final tree.
    pub final_degree: usize,
}

/// The sequential Fürer–Raghavachari algorithm (Algorithm 4 of the paper), starting from
/// `initial` (any spanning tree of `graph`). Returns an FR-tree (degree ≤ OPT+1) together
/// with run statistics.
///
/// # Panics
///
/// Panics if `initial` is not a spanning tree of `graph`.
pub fn furer_raghavachari_from(graph: &Graph, initial: &Tree) -> (Tree, FrStats) {
    assert!(
        initial.is_spanning_tree_of(graph),
        "initial tree must span the graph"
    );
    let mut tree = initial.clone();
    let mut stats = FrStats {
        initial_degree: tree.max_degree(),
        final_degree: tree.max_degree(),
        ..FrStats::default()
    };
    // Each successful improvement reduces (degree, #max-degree nodes) lexicographically,
    // so at most n·d iterations happen; we add a hard guard for safety.
    let guard = graph.node_count() * graph.node_count() + 10;
    for _ in 0..guard {
        // An FR-tree, or an invalidated nested sequence, ends the search.
        let FrStep::Improved(next) = improve_once(graph, &tree) else {
            break;
        };
        stats.swaps += tree.edge_difference(&next);
        stats.improvements += 1;
        tree = next;
    }
    stats.final_degree = tree.max_degree();
    (tree, stats)
}

/// What one Fürer–Raghavachari step ([`improve_once`]) did with a tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrStep {
    /// One well-nested swap sequence was applied: the improved tree.
    Improved(Tree),
    /// The propagation left every max-degree node bad: the tree is an FR-tree, and
    /// this is the certificate [`fr_certificate`] returns for it.
    Certified(FrCertificate),
    /// The propagation marked a max-degree node good, so the tree is not an FR-tree,
    /// but the nested application of its improvement was invalidated.
    Invalidated,
}

/// Applies *one* Fürer–Raghavachari improvement (a single well-nested swap sequence
/// reducing the number of max-degree nodes), if the tree admits one. When it does not,
/// the step reports the verdict of the propagation it ran: [`FrStep::Certified`] with
/// the tree's certificate (a Hamiltonian path included), or [`FrStep::Invalidated`]
/// when the tree is improvable but the nested application was invalidated. A caller
/// that stops here knows whether it stopped on an FR-tree without a second
/// propagation.
///
/// Costs `O(n)` plus `O(m)` per sweep of the marking phase, plus the fundamental cycles
/// it walks; every swap of the nested sequence after the first recomputes the depth
/// table in `O(n)`.
///
/// # Panics
///
/// Panics if `tree` is not a spanning tree of `graph`.
pub fn improve_once(graph: &Graph, tree: &Tree) -> FrStep {
    assert!(
        tree.is_spanning_tree_of(graph),
        "improvements need a spanning tree"
    );
    let deg = degree_table(tree.parents());
    let d = max_degree(&deg);
    let depth = depth_table(tree.parents());
    // Below degree 3 no node starts good, so the propagation certifies at once.
    let prop = propagate(graph, tree, &deg, &depth, d);
    let Some(w) = prop.improvable else {
        return FrStep::Certified(certificate(tree, d, prop.good));
    };
    let mut rewiring = Rewiring {
        parents: tree.parents().to_vec(),
        deg,
        depth,
        depth_stale: false,
    };
    match apply_improvement(graph, &mut rewiring, w, d, &prop.witness, 0) {
        Some(()) => FrStep::Improved(Tree::from_parents_unchecked(rewiring.parents, tree.root())),
        None => FrStep::Invalidated,
    }
}

/// The sequential Fürer–Raghavachari algorithm starting from a BFS tree rooted at the
/// minimum-identity node.
pub fn furer_raghavachari(graph: &Graph) -> (Tree, FrStats) {
    let initial = crate::bfs::bfs_tree(graph, graph.min_ident_node());
    furer_raghavachari_from(graph, &initial)
}

/// Exact minimum spanning-tree degree `∆_min(G)` by branch-and-bound, feasible only for
/// small graphs (`n ≲ 20`). Returns the optimal degree and one optimal tree.
///
/// # Panics
///
/// Panics if the graph is disconnected or has more than `max_nodes` nodes.
pub fn exact_min_degree_spanning_tree(graph: &Graph, max_nodes: usize) -> (usize, Tree) {
    assert!(
        graph.is_connected(),
        "minimum-degree spanning trees need a connected graph"
    );
    assert!(
        graph.node_count() <= max_nodes,
        "exact search is limited to {max_nodes} nodes"
    );
    let n = graph.node_count();
    if n == 1 {
        return (0, Tree::from_parents(vec![None]).expect("singleton tree"));
    }
    // Try degree bounds k = 2, 3, … until a spanning tree within the bound exists.
    for k in 2..n {
        if let Some(tree) = spanning_tree_with_degree_at_most(graph, k) {
            return (k, tree);
        }
    }
    // A star always works with degree n − 1.
    let (t, _) = furer_raghavachari(graph);
    (t.max_degree(), t)
}

/// Backtracking search for a spanning tree with maximum degree at most `k`.
fn spanning_tree_with_degree_at_most(graph: &Graph, k: usize) -> Option<Tree> {
    let n = graph.node_count();
    let edges: Vec<EdgeId> = graph.edge_ids().collect();
    let mut degree = vec![0usize; n];
    let mut chosen: Vec<EdgeId> = Vec::new();
    let mut uf = UnionFind::new(n);

    fn backtrack(
        graph: &Graph,
        edges: &[EdgeId],
        idx: usize,
        k: usize,
        degree: &mut Vec<usize>,
        chosen: &mut Vec<EdgeId>,
        uf: &mut UnionFind,
    ) -> bool {
        let n = graph.node_count();
        if chosen.len() == n - 1 {
            return true;
        }
        if idx >= edges.len() {
            return false;
        }
        // Prune: not enough remaining edges to finish the tree.
        if edges.len() - idx < (n - 1) - chosen.len() {
            return false;
        }
        let e = edges[idx];
        let edge = graph.edge(e);
        let (u, v) = (edge.u.0, edge.v.0);
        // Branch 1: take the edge if it keeps the forest acyclic and within the degree
        // budget.
        if degree[u] < k && degree[v] < k && !uf.same(u, v) {
            let snapshot = uf.clone();
            uf.union(u, v);
            degree[u] += 1;
            degree[v] += 1;
            chosen.push(e);
            if backtrack(graph, edges, idx + 1, k, degree, chosen, uf) {
                return true;
            }
            chosen.pop();
            degree[u] -= 1;
            degree[v] -= 1;
            *uf = snapshot;
        }
        // Branch 2: skip the edge.
        backtrack(graph, edges, idx + 1, k, degree, chosen, uf)
    }

    if backtrack(graph, &edges, 0, k, &mut degree, &mut chosen, &mut uf) {
        Some(Tree::from_edge_set(graph, &chosen, graph.min_ident_node()).expect("valid tree"))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    /// The quadratic kernel the linear-time one replaced, kept verbatim as the
    /// differential oracle: `Tree::degree` per node, `Tree::nca`-based fundamental
    /// cycles, and a cloned, fully re-validated tree per swap.
    mod reference {
        use std::collections::HashMap;

        use super::super::{fragments_of_good_nodes, FrCertificate};
        use crate::graph::{EdgeId, Graph};
        use crate::ids::NodeId;
        use crate::tree::Tree;
        use crate::union_find::UnionFind;

        /// Result of the good-propagation phase of the FR algorithm on a given tree.
        #[derive(Clone, Debug)]
        struct Propagation {
            /// Final good marks.
            good: Vec<bool>,
            /// For nodes that started bad and were marked good: the non-tree witness edge whose
            /// fundamental cycle contains them.
            witness: HashMap<NodeId, EdgeId>,
            /// A max-degree node that became good, if any (then the tree is improvable).
            improvable: Option<NodeId>,
        }

        /// The marking/propagation phase of Fürer–Raghavachari (Algorithm 4, lines 3–9):
        /// nodes of degree ≥ d−1 start bad, all others good; repeatedly, a non-tree edge whose
        /// endpoints are good and lie in different fragments marks every bad node on its
        /// fundamental cycle good (recording the edge as witness) and merges the fragments.
        fn propagate(graph: &Graph, tree: &Tree) -> Propagation {
            let n = graph.node_count();
            let d = tree.max_degree();
            let mut good: Vec<bool> = tree.nodes().map(|v| tree.degree(v) + 1 < d).collect();
            let mut uf = UnionFind::new(n);
            for v in tree.nodes() {
                if let Some(p) = tree.parent(v) {
                    if good[v.0] && good[p.0] {
                        uf.union(v.0, p.0);
                    }
                }
            }
            let mut witness: HashMap<NodeId, EdgeId> = HashMap::new();
            let mut improvable: Option<NodeId> = None;
            let mut changed = true;
            while changed && improvable.is_none() {
                changed = false;
                for e in graph.edge_ids() {
                    let edge = graph.edge(e);
                    if tree.contains_edge(edge.u, edge.v) {
                        continue;
                    }
                    if !(good[edge.u.0] && good[edge.v.0]) {
                        continue;
                    }
                    if uf.same(edge.u.0, edge.v.0) {
                        continue;
                    }
                    // This edge connects two different fragments of good nodes: every bad node
                    // on its fundamental cycle can be improved, so mark it good.
                    let cycle = tree.fundamental_cycle_nodes(graph, e);
                    for &x in &cycle {
                        if !good[x.0] {
                            good[x.0] = true;
                            witness.insert(x, e);
                            if tree.degree(x) == d && improvable.is_none() {
                                improvable = Some(x);
                            }
                        }
                    }
                    // Merge the fragments along the cycle (all cycle nodes are now good).
                    for w in cycle.windows(2) {
                        uf.union(w[0].0, w[1].0);
                    }
                    uf.union(edge.u.0, edge.v.0);
                    changed = true;
                    if improvable.is_some() {
                        break;
                    }
                }
            }
            Propagation {
                good,
                witness,
                improvable,
            }
        }

        /// Attempts to certify `tree` as an FR-tree. Returns the certificate if the
        /// propagation fixed point leaves every max-degree node bad (Definition 8.1), or `None`
        /// if the tree is improvable (hence not an FR-tree with this marking).
        pub(super) fn fr_certificate(graph: &Graph, tree: &Tree) -> Option<FrCertificate> {
            if !tree.is_spanning_tree_of(graph) {
                return None;
            }
            let prop = propagate(graph, tree);
            if prop.improvable.is_some() {
                return None;
            }
            let fragment = fragments_of_good_nodes(tree, &prop.good);
            Some(FrCertificate {
                degree: tree.max_degree(),
                good: prop.good,
                fragment,
            })
        }

        /// Recursively applies the improvement rooted at the good node `x` (which carries a
        /// witness edge): first reduces the degree of any witness-edge endpoint that is still at
        /// degree ≥ d−1, then performs the swap that removes a tree edge incident to `x` on the
        /// witness cycle. Returns the improved tree, or `None` if the nested structure was
        /// invalidated (the caller then restarts the outer loop).
        fn apply_improvement(
            graph: &Graph,
            tree: &Tree,
            x: NodeId,
            d: usize,
            witness: &HashMap<NodeId, EdgeId>,
            depth: usize,
        ) -> Option<Tree> {
            if depth > graph.node_count() {
                return None;
            }
            let &e = witness.get(&x)?;
            let edge = graph.edge(e);
            let mut current = tree.clone();
            for endpoint in [edge.u, edge.v] {
                if current.degree(endpoint) + 1 >= d {
                    // The endpoint would reach degree d after the swap: reduce it first
                    // (this is the "well nested" sequence of §VII).
                    current = apply_improvement(graph, &current, endpoint, d, witness, depth + 1)?;
                }
            }
            if current.contains_edge(edge.u, edge.v) {
                return None;
            }
            let cycle_edges = current.fundamental_cycle_tree_edges(graph, e);
            let f = cycle_edges
                .into_iter()
                .find(|&f| graph.edge(f).touches(x))?;
            Some(current.with_swap(graph, e, f))
        }

        /// Applies *one* Fürer–Raghavachari improvement (a single well-nested swap sequence
        /// reducing the number of max-degree nodes), if the tree admits one. Returns `None` when
        /// the tree is already an FR-tree (or the nested application was invalidated).
        ///
        /// # Panics
        ///
        /// Panics if `tree` is not a spanning tree of `graph`.
        pub(super) fn improve_once(graph: &Graph, tree: &Tree) -> Option<Tree> {
            assert!(
                tree.is_spanning_tree_of(graph),
                "improvements need a spanning tree"
            );
            let d = tree.max_degree();
            if d <= 2 {
                return None;
            }
            let prop = propagate(graph, tree);
            let w = prop.improvable?;
            apply_improvement(graph, tree, w, d, &prop.witness, 0)
        }
    }

    /// The graphs of the differential sweep: sparse workloads, dense random graphs and
    /// the structured topologies whose degree constraints are extreme.
    fn sweep_graphs() -> Vec<(String, Graph)> {
        let mut graphs: Vec<(String, Graph)> = [12, 40, 150, 400]
            .into_iter()
            .map(|n| {
                let g = generators::workload(n, 6.0 / n as f64, 2015 + n as u64);
                (format!("workload({n}, 6/n)"), g)
            })
            .collect();
        for seed in 0..3 {
            let g = generators::random_connected(30, 0.2, seed);
            graphs.push((format!("random_connected(30, 0.2, {seed})"), g));
            // Random trees plus a few chords: high forced degrees, so the FR-trees
            // have many good nodes in long fragments.
            for (n, extra) in [(100, 30), (200, 10)] {
                let g = generators::random_sparse(n, extra, seed);
                let g = generators::shuffle_idents(&g, seed);
                graphs.push((format!("random_sparse({n}, {extra}, {seed})"), g));
            }
        }
        graphs.push(("star(9)".into(), generators::star(9)));
        graphs.push(("wheel(12)".into(), generators::wheel(12)));
        graphs.push(("complete(10)".into(), generators::complete(10)));
        graphs.push(("grid(5, 6)".into(), generators::grid(5, 6)));
        graphs.push(("caterpillar(5, 3)".into(), generators::caterpillar(5, 3)));
        graphs
    }

    #[test]
    fn rewiring_matches_with_swap_along_random_swap_sequences() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for seed in 0..6 {
            let g = generators::workload(60, 0.08, seed);
            let mut expected = generators::random_spanning_tree(&g, seed);
            let parents = expected.parents();
            let mut rewiring = Rewiring {
                parents: parents.to_vec(),
                deg: degree_table(parents),
                depth: depth_table(parents),
                depth_stale: false,
            };
            for step in 0..40 {
                // A random non-tree edge and a random node on its fundamental cycle;
                // every swap after the first walks a re-hung tree.
                let non_tree: Vec<EdgeId> = g
                    .edge_ids()
                    .filter(|&e| !expected.contains_edge(g.edge(e).u, g.edge(e).v))
                    .collect();
                let e = non_tree[rng.gen_range(0..non_tree.len())];
                let edge = g.edge(e);
                let cycle = expected.fundamental_cycle_nodes(&g, e);
                if let Some(off) = g.nodes().find(|v| !cycle.contains(v)) {
                    assert_eq!(rewiring.swap_at(edge.u, edge.v, off), None);
                }
                let x = cycle[rng.gen_range(0..cycle.len())];
                let f = expected
                    .fundamental_cycle_tree_edges(&g, e)
                    .into_iter()
                    .find(|&f| g.edge(f).touches(x))
                    .expect("x is on the cycle");
                expected = expected.with_swap(&g, e, f);
                assert_eq!(rewiring.swap_at(edge.u, edge.v, x), Some(()));
                let what = format!("seed {seed}, swap {step}");
                assert_eq!(rewiring.parents, expected.parents(), "{what}");
                assert_eq!(rewiring.deg, degree_table(expected.parents()), "{what}");
            }
        }
    }

    #[test]
    fn linear_kernel_matches_the_quadratic_reference_at_every_search_step() {
        let mut improvements = 0;
        for (name, g) in sweep_graphs() {
            let starts = [
                ("bfs", crate::bfs::bfs_tree(&g, g.min_ident_node())),
                ("random", generators::random_spanning_tree(&g, 7)),
            ];
            for (start, mut tree) in starts {
                for step in 0..=g.node_count() * g.node_count() {
                    let what = format!("{name} from a {start} tree, step {step}");
                    let cert = fr_certificate(&g, &tree);
                    assert_eq!(
                        cert,
                        reference::fr_certificate(&g, &tree),
                        "{what}: certificate"
                    );
                    if let Some(cert) = &cert {
                        assert!(cert.verify(&g, &tree), "{what}: certificate rejected");
                    }
                    let step = improve_once(&g, &tree);
                    let improved = match &step {
                        FrStep::Improved(next) => Some(next.clone()),
                        _ => None,
                    };
                    assert_eq!(
                        improved,
                        reference::improve_once(&g, &tree),
                        "{what}: improvement"
                    );
                    // A step that stops reports the certificate's verdict.
                    match step {
                        FrStep::Improved(next) => tree = next,
                        FrStep::Certified(c) => {
                            assert_eq!(Some(c), cert, "{what}: verdict");
                            break;
                        }
                        FrStep::Invalidated => {
                            assert_eq!(cert, None, "{what}: verdict");
                            break;
                        }
                    }
                    improvements += 1;
                }
            }
        }
        assert!(improvements > 100, "the sweep must exercise improvements");
    }

    #[test]
    fn hamiltonian_graphs_get_low_degree_trees() {
        // On a ring the unique spanning trees are Hamiltonian paths: degree 2.
        let g = generators::ring(12);
        let (t, stats) = furer_raghavachari(&g);
        assert_eq!(t.max_degree(), 2);
        assert!(is_fr_tree(&g, &t));
        assert!(stats.final_degree <= stats.initial_degree);
    }

    #[test]
    fn star_graph_forces_high_degree() {
        // The star has a unique spanning tree: the star itself.
        let g = generators::star(9);
        let (t, _) = furer_raghavachari(&g);
        assert_eq!(t.max_degree(), 8);
        assert!(is_fr_tree(&g, &t));
        let cert = fr_certificate(&g, &t).unwrap();
        assert!(cert.verify(&g, &t));
    }

    #[test]
    fn fr_is_within_one_of_optimal_on_small_graphs() {
        for seed in 0..10 {
            let g = generators::random_connected(11, 0.3, seed);
            let (t, _) = furer_raghavachari(&g);
            let (opt, opt_tree) = exact_min_degree_spanning_tree(&g, 16);
            assert_eq!(opt_tree.max_degree(), opt);
            assert!(
                t.max_degree() <= opt + 1,
                "seed {seed}: FR degree {} vs OPT {opt}",
                t.max_degree()
            );
            assert!(
                is_fr_tree(&g, &t),
                "seed {seed}: result must be FR-certified"
            );
        }
    }

    #[test]
    fn fr_improves_a_deliberately_bad_initial_tree() {
        // Complete graph: OPT = 2 (Hamiltonian path); start from the star.
        let g = generators::complete(10);
        let star_parents: Vec<Option<NodeId>> = std::iter::once(None)
            .chain((1..10).map(|_| Some(NodeId(0))))
            .collect();
        let star = Tree::from_parents(star_parents).unwrap();
        assert_eq!(star.max_degree(), 9);
        let (t, stats) = furer_raghavachari_from(&g, &star);
        assert!(t.max_degree() <= 3, "got degree {}", t.max_degree());
        assert!(stats.improvements > 0);
        assert!(is_fr_tree(&g, &t));
    }

    #[test]
    fn certificate_verification_rejects_tampering() {
        let g = generators::random_connected(14, 0.3, 5);
        let (t, _) = furer_raghavachari(&g);
        let cert = fr_certificate(&g, &t).unwrap();
        assert!(cert.verify(&g, &t));
        // Tamper: mark a max-degree node good.
        let mut bad_cert = cert.clone();
        let w = t.max_degree_nodes()[0];
        bad_cert.good[w.0] = true;
        assert!(!bad_cert.verify(&g, &t));
        // Tamper: wrong degree.
        let mut bad_cert = cert.clone();
        bad_cert.degree += 1;
        assert!(!bad_cert.verify(&g, &t));
    }

    #[test]
    fn improvable_trees_are_not_fr_trees() {
        // Complete graph with a star tree: clearly improvable, so not an FR-tree.
        let g = generators::complete(8);
        let star_parents: Vec<Option<NodeId>> = std::iter::once(None)
            .chain((1..8).map(|_| Some(NodeId(0))))
            .collect();
        let star = Tree::from_parents(star_parents).unwrap();
        assert!(!is_fr_tree(&g, &star));
    }

    #[test]
    fn exact_search_matches_known_optima() {
        // Ring: OPT = 2. Star: OPT = n − 1. Grid 3×3: OPT = 2 (it is Hamiltonian-pathable).
        let (d, _) = exact_min_degree_spanning_tree(&generators::ring(8), 16);
        assert_eq!(d, 2);
        let (d, _) = exact_min_degree_spanning_tree(&generators::star(7), 16);
        assert_eq!(d, 6);
        let (d, t) = exact_min_degree_spanning_tree(&generators::grid(3, 3), 16);
        assert_eq!(d, 2);
        assert_eq!(t.max_degree(), 2);
    }

    #[test]
    fn fr_on_grids_and_caterpillars() {
        let g = generators::grid(4, 4);
        let (t, _) = furer_raghavachari(&g);
        assert!(
            t.max_degree() <= 3,
            "grid FR degree {} too high",
            t.max_degree()
        );
        assert!(is_fr_tree(&g, &t));

        let g = generators::caterpillar(5, 2);
        let (t, _) = furer_raghavachari(&g);
        // The caterpillar is a tree: the only spanning tree is the graph itself.
        assert_eq!(t.max_degree(), 4);
        assert!(is_fr_tree(&g, &t));
    }
}
