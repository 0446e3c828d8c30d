//! Miscellaneous structural properties used by tests, experiments and reports.

use crate::graph::Graph;
use crate::ids::NodeId;
use crate::tree::Tree;
use crate::union_find::UnionFind;

/// The connected components of the graph, as a vector of node lists (sorted by dense
/// index inside each component, components sorted by their smallest member).
pub fn connected_components(graph: &Graph) -> Vec<Vec<NodeId>> {
    let n = graph.node_count();
    let mut uf = UnionFind::new(n);
    for e in graph.edges() {
        uf.union(e.u.0, e.v.0);
    }
    let mut by_root: std::collections::BTreeMap<usize, Vec<NodeId>> = Default::default();
    for v in 0..n {
        by_root.entry(uf.find(v)).or_default().push(NodeId(v));
    }
    let mut comps: Vec<Vec<NodeId>> = by_root.into_values().collect();
    comps.sort_by_key(|c| c[0]);
    comps
}

/// The degree histogram of a tree: `hist[d]` = number of nodes of tree degree `d`.
pub fn tree_degree_histogram(tree: &Tree) -> Vec<usize> {
    let max = tree.max_degree();
    let mut hist = vec![0usize; max + 1];
    for v in tree.nodes() {
        hist[tree.degree(v)] += 1;
    }
    hist
}

/// `true` if the tree is a simple (Hamiltonian) path: every node has degree ≤ 2.
pub fn is_hamiltonian_path(tree: &Tree) -> bool {
    tree.max_degree() <= 2
}

/// The number of leaves of a tree.
pub fn leaf_count(tree: &Tree) -> usize {
    tree.nodes().filter(|&v| tree.degree(v) == 1).count()
}

/// A trivial lower bound on the minimum spanning-tree degree of `graph`:
/// `⌈(n − 1) / n⌉ = 1` is useless, but a cut-based bound is not: for every node `v`,
/// removing `v` splits the graph into `c(v)` components, and any spanning tree must give
/// `v` degree at least `c(v)`. We return the maximum of that bound over all nodes
/// (and at least 2 whenever `n ≥ 3` and the graph is not a single edge).
pub fn min_degree_lower_bound(graph: &Graph) -> usize {
    let n = graph.node_count();
    if n <= 2 {
        return n.saturating_sub(1);
    }
    let mut best = if graph.edge_count() == n - 1 {
        // The graph is itself a tree: its own maximum degree is forced.
        let parents = crate::bfs::bfs_tree(graph, NodeId(0));
        parents.max_degree()
    } else {
        // A tree on n ≥ 3 nodes is not a single edge, so some node has degree 2.
        2
    };
    for v in graph.nodes() {
        // Count components of G − v.
        let mut uf = UnionFind::new(n);
        for e in graph.edges() {
            if e.u != v && e.v != v {
                uf.union(e.u.0, e.v.0);
            }
        }
        let comps: std::collections::HashSet<usize> =
            (0..n).filter(|&x| x != v.0).map(|x| uf.find(x)).collect();
        best = best.max(comps.len());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn components_of_connected_and_disconnected_graphs() {
        let g = generators::ring(6);
        assert_eq!(connected_components(&g).len(), 1);
        let mut g = Graph::new(5);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(2), NodeId(3), 1);
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![NodeId(0), NodeId(1)]);
        assert_eq!(comps[2], vec![NodeId(4)]);
    }

    #[test]
    fn histogram_and_leaves_of_a_star_tree() {
        let t = Tree::from_parents(
            std::iter::once(None)
                .chain((1..6).map(|_| Some(NodeId(0))))
                .collect(),
        )
        .unwrap();
        let hist = tree_degree_histogram(&t);
        assert_eq!(hist[5], 1);
        assert_eq!(hist[1], 5);
        assert_eq!(leaf_count(&t), 5);
        assert!(!is_hamiltonian_path(&t));
        assert!(is_hamiltonian_path(&Tree::path(6)));
    }

    #[test]
    fn lower_bound_is_consistent_with_exact_optimum() {
        for seed in 0..6 {
            let g = generators::random_connected(10, 0.25, seed);
            let (opt, _) = crate::fr::exact_min_degree_spanning_tree(&g, 16);
            let lb = min_degree_lower_bound(&g);
            assert!(
                lb <= opt,
                "seed {seed}: lower bound {lb} exceeds optimum {opt}"
            );
        }
    }

    #[test]
    fn lower_bound_on_special_graphs() {
        assert_eq!(min_degree_lower_bound(&generators::star(8)), 7);
        assert_eq!(min_degree_lower_bound(&generators::ring(8)), 2);
        assert_eq!(min_degree_lower_bound(&generators::path(2)), 1);
        // Every spanning tree on n ≥ 3 nodes has a node of degree 2, also when no
        // node is a cut vertex.
        for n in [14, 24] {
            assert_eq!(
                min_degree_lower_bound(&generators::workload(n, 0.3, 2015)),
                2
            );
        }
    }
}
