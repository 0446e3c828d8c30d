//! Structural bounds used by the experiments and reports.

use crate::graph::Graph;
use crate::ids::NodeId;
use crate::union_find::UnionFind;

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
