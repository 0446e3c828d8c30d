//! Sequential breadth-first-search reference: distances, BFS trees, and the BFS-tree
//! legality predicate used by experiment E1.

use std::collections::VecDeque;

use crate::graph::Graph;
use crate::ids::NodeId;
use crate::tree::Tree;

/// Hop distances from `root` to every node.
///
/// # Panics
///
/// Panics if the graph is not connected (some node would have no distance).
pub fn distances_from(graph: &Graph, root: NodeId) -> Vec<usize> {
    let n = graph.node_count();
    let mut dist = vec![usize::MAX; n];
    dist[root.0] = 0;
    let mut queue = VecDeque::from([root]);
    while let Some(v) = queue.pop_front() {
        for &(w, _) in graph.neighbors(v) {
            if dist[w.0] == usize::MAX {
                dist[w.0] = dist[v.0] + 1;
                queue.push_back(w);
            }
        }
    }
    assert!(
        dist.iter().all(|&d| d != usize::MAX),
        "BFS distances are only defined on connected graphs"
    );
    dist
}

/// A BFS tree rooted at `root` (parents chosen in neighbor order).
pub fn bfs_tree(graph: &Graph, root: NodeId) -> Tree {
    let n = graph.node_count();
    let mut parents: Vec<Option<NodeId>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[root.0] = true;
    let mut queue = VecDeque::from([root]);
    while let Some(v) = queue.pop_front() {
        for &(w, _) in graph.neighbors(v) {
            if !seen[w.0] {
                seen[w.0] = true;
                parents[w.0] = Some(v);
                queue.push_back(w);
            }
        }
    }
    assert!(
        seen.iter().all(|&s| s),
        "BFS trees are only defined on connected graphs"
    );
    Tree::from_parents(parents).expect("BFS produces a valid tree")
}

/// `true` if `tree` is a BFS tree of `graph` rooted at `tree.root()`:
/// every node's tree depth equals its hop distance from the root in the graph.
pub fn is_bfs_tree(graph: &Graph, tree: &Tree) -> bool {
    if !tree.is_spanning_tree_of(graph) {
        return false;
    }
    let dist = distances_from(graph, tree.root());
    tree.depths()
        .into_iter()
        .enumerate()
        .all(|(v, d)| d == dist[v])
}

/// Eccentricity of `v`: the maximum hop distance from `v` to any node.
pub fn eccentricity(graph: &Graph, v: NodeId) -> usize {
    distances_from(graph, v).into_iter().max().unwrap_or(0)
}

/// Diameter of the graph (maximum eccentricity). Quadratic; intended for workloads.
pub fn diameter(graph: &Graph) -> usize {
    graph
        .nodes()
        .map(|v| eccentricity(graph, v))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn distances_on_a_ring() {
        let g = generators::ring(6);
        let d = distances_from(&g, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn bfs_tree_is_a_bfs_tree() {
        for seed in 0..5 {
            let g = generators::random_connected(40, 0.1, seed);
            let t = bfs_tree(&g, NodeId(3));
            assert!(is_bfs_tree(&g, &t));
        }
    }

    #[test]
    fn diameter_and_eccentricity() {
        assert_eq!(diameter(&generators::path(7)), 6);
        assert_eq!(diameter(&generators::ring(8)), 4);
        assert_eq!(diameter(&generators::complete(5)), 1);
        assert_eq!(eccentricity(&generators::path(7), NodeId(3)), 3);
        assert_eq!(diameter(&generators::grid(3, 3)), 4);
    }

    #[test]
    fn foreign_tree_is_rejected() {
        // A spanning tree of the complete graph that is not a subgraph of the ring.
        let g = generators::ring(5);
        let star_parents = vec![
            None,
            Some(NodeId(0)),
            Some(NodeId(0)),
            Some(NodeId(0)),
            Some(NodeId(0)),
        ];
        let t = Tree::from_parents(star_parents).unwrap();
        assert!(!is_bfs_tree(&g, &t));
        // A spanning tree of the ring that is not a BFS tree: the rooted path puts node
        // 7 at depth 7 instead of distance 1.
        assert!(!is_bfs_tree(&generators::ring(8), &Tree::path(8)));
    }
}
