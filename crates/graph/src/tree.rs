//! Rooted spanning trees encoded by parent pointers.
//!
//! This is the distributed output representation used throughout the paper: every node
//! `v` stores the identity of its parent `p(v)`, and the root stores `⊥` (paper §II-B).
//! [`Tree`] is the *simulator-side* view of such a configuration, with the utilities the
//! oracles, proof-labeling schemes and experiments need (depths, subtree sizes,
//! fundamental cycles, edge swaps, …).

use std::collections::VecDeque;
use std::fmt;

use crate::graph::{EdgeId, Graph};
use crate::ids::{NodeId, Weight};

/// Errors raised when a parent-pointer vector does not encode a rooted spanning tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// No node has `p(v) = ⊥`.
    NoRoot,
    /// More than one node has `p(v) = ⊥` (the 1-factor is a forest).
    MultipleRoots(Vec<NodeId>),
    /// A parent pointer references a node outside the graph.
    ParentOutOfRange { node: NodeId },
    /// A node is its own parent.
    SelfParent { node: NodeId },
    /// Following parent pointers from `node` never reaches the root (a cycle exists).
    CycleDetected { node: NodeId },
    /// A parent pointer uses a pair `(v, p(v))` that is not an edge of the graph.
    NotAGraphEdge { node: NodeId, parent: NodeId },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::NoRoot => write!(f, "no node has a ⊥ parent pointer"),
            TreeError::MultipleRoots(roots) => {
                write!(f, "multiple roots: {roots:?}")
            }
            TreeError::ParentOutOfRange { node } => {
                write!(f, "parent pointer of {node} is out of range")
            }
            TreeError::SelfParent { node } => write!(f, "{node} is its own parent"),
            TreeError::CycleDetected { node } => {
                write!(f, "parent pointers from {node} form a cycle")
            }
            TreeError::NotAGraphEdge { node, parent } => {
                write!(f, "({node}, {parent}) is not an edge of the graph")
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// A rooted tree over the nodes `0..n`, encoded by parent pointers.
#[derive(Clone, PartialEq, Eq)]
pub struct Tree {
    parent: Vec<Option<NodeId>>,
    root: NodeId,
}

impl fmt::Debug for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tree")
            .field("root", &self.root)
            .field("parent", &self.parent)
            .finish()
    }
}

impl Tree {
    /// Builds a tree from a parent-pointer vector, validating that it encodes a rooted
    /// tree spanning all of `0..parents.len()`.
    ///
    /// # Errors
    ///
    /// Returns a [`TreeError`] if there is not exactly one root, a pointer is out of
    /// range, or the pointers contain a cycle.
    pub fn from_parents(parents: Vec<Option<NodeId>>) -> Result<Self, TreeError> {
        let n = parents.len();
        let roots: Vec<NodeId> = parents
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .map(|(i, _)| NodeId(i))
            .collect();
        if roots.is_empty() {
            return Err(TreeError::NoRoot);
        }
        if roots.len() > 1 {
            return Err(TreeError::MultipleRoots(roots));
        }
        let root = roots[0];
        for (i, p) in parents.iter().enumerate() {
            if let Some(p) = p {
                if p.0 >= n {
                    return Err(TreeError::ParentOutOfRange { node: NodeId(i) });
                }
                if p.0 == i {
                    return Err(TreeError::SelfParent { node: NodeId(i) });
                }
            }
        }
        // Cycle check: walk up from every node; a walk longer than n steps means a cycle.
        for start in 0..n {
            let mut cur = NodeId(start);
            let mut steps = 0;
            while let Some(p) = parents[cur.0] {
                cur = p;
                steps += 1;
                if steps > n {
                    return Err(TreeError::CycleDetected {
                        node: NodeId(start),
                    });
                }
            }
        }
        Ok(Tree {
            parent: parents,
            root,
        })
    }

    /// Builds a tree from a parent-pointer vector **without validating it**, for callers
    /// that maintain the pointers themselves (the incremental composition engine applies
    /// `O(path)`-sized edits and cannot afford the `O(n·h)` validation of
    /// [`Tree::from_parents`] on every switch). `root` must be the unique node with a
    /// `⊥` pointer and the pointers must be acyclic; both are checked in debug builds.
    pub fn from_parents_unchecked(parents: Vec<Option<NodeId>>, root: NodeId) -> Self {
        debug_assert!(
            Tree::from_parents(parents.clone())
                .map(|t| t.root == root)
                .unwrap_or(false),
            "from_parents_unchecked requires a valid rooted tree"
        );
        Tree {
            parent: parents,
            root,
        }
    }

    /// Points `v` at `parent` in place, **without validating** the result — the
    /// one-pointer edit of a caller that reverses a path pointer by pointer (the
    /// composition engine's loop-free switch) and keeps the tree valid between its
    /// batches of edits. `v` must not be the root.
    pub fn set_parent_unchecked(&mut self, v: NodeId, parent: NodeId) {
        debug_assert!(v != self.root, "the root is never reparented");
        self.parent[v.0] = Some(parent);
    }

    /// Builds a tree from a parent-pointer vector and checks that every tree edge is an
    /// edge of `graph` (i.e. the tree is a spanning tree *of that graph*).
    ///
    /// # Errors
    ///
    /// Returns a [`TreeError`] for the same reasons as [`Tree::from_parents`], plus
    /// [`TreeError::NotAGraphEdge`] when a parent pointer does not follow a graph edge.
    pub fn from_parents_in(graph: &Graph, parents: Vec<Option<NodeId>>) -> Result<Self, TreeError> {
        let tree = Tree::from_parents(parents)?;
        for v in tree.nodes() {
            if let Some(p) = tree.parent(v) {
                if graph.edge_between(v, p).is_none() {
                    return Err(TreeError::NotAGraphEdge { node: v, parent: p });
                }
            }
        }
        Ok(tree)
    }

    /// Builds the path graph `0 - 1 - … - (n-1)` rooted at node 0 (handy in tests).
    pub fn path(n: usize) -> Self {
        let parents = (0..n)
            .map(|i| if i == 0 { None } else { Some(NodeId(i - 1)) })
            .collect();
        Tree::from_parents(parents).expect("a path is a valid tree")
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// Iterator over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId)
    }

    /// The root of the tree (the unique node with `p(v) = ⊥`).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The parent of `v`, or `None` for the root.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.0]
    }

    /// The raw parent-pointer vector.
    pub fn parents(&self) -> &[Option<NodeId>] {
        &self.parent
    }

    /// The children of every node, indexed by node.
    pub fn children_table(&self) -> Vec<Vec<NodeId>> {
        let mut children = vec![Vec::new(); self.node_count()];
        for v in self.nodes() {
            if let Some(p) = self.parent(v) {
                children[p.0].push(v);
            }
        }
        children
    }

    /// The children of `v`.
    ///
    /// Each call scans all `n` parent pointers; build [`Tree::children_table`] once
    /// when asking for many nodes.
    pub fn children(&self, v: NodeId) -> Vec<NodeId> {
        self.nodes()
            .filter(|&c| self.parent(c) == Some(v))
            .collect()
    }

    /// The degree of `v` *in the tree* (children plus parent).
    ///
    /// Each call scans all `n` parent pointers; read the degrees off
    /// [`Tree::children_table`] when asking for many nodes.
    pub fn degree(&self, v: NodeId) -> usize {
        self.children(v).len() + usize::from(self.parent(v).is_some())
    }

    /// The maximum degree of the tree, `deg(T)` in the paper (§II-B).
    pub fn max_degree(&self) -> usize {
        let children = self.children_table();
        self.nodes()
            .map(|v| children[v.0].len() + usize::from(self.parent(v).is_some()))
            .max()
            .unwrap_or(0)
    }

    /// Nodes whose tree degree equals the tree's maximum degree.
    pub fn max_degree_nodes(&self) -> Vec<NodeId> {
        let d = self.max_degree();
        let children = self.children_table();
        self.nodes()
            .filter(|&v| children[v.0].len() + usize::from(self.parent(v).is_some()) == d)
            .collect()
    }

    /// The depth of every node (root has depth 0).
    pub fn depths(&self) -> Vec<usize> {
        let children = self.children_table();
        let mut depth = vec![0usize; self.node_count()];
        let mut queue = VecDeque::from([self.root]);
        while let Some(v) = queue.pop_front() {
            for &c in &children[v.0] {
                depth[c.0] = depth[v.0] + 1;
                queue.push_back(c);
            }
        }
        depth
    }

    /// The height of the tree (maximum depth).
    ///
    /// Each call builds [`Tree::children_table`] and a BFS order in `O(n)`; callers
    /// that maintain depths should take their maximum instead.
    pub fn height(&self) -> usize {
        self.depths().into_iter().max().unwrap_or(0)
    }

    /// The size of the subtree rooted at every node (the `s` component of the redundant
    /// proof-labeling scheme of §IV).
    pub fn subtree_sizes(&self) -> Vec<usize> {
        let children = self.children_table();
        // Process nodes in reverse BFS order so children are done before their parent.
        let mut order = Vec::with_capacity(self.node_count());
        let mut queue = VecDeque::from([self.root]);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &c in &children[v.0] {
                queue.push_back(c);
            }
        }
        let mut size = vec![1usize; self.node_count()];
        for &v in order.iter().rev() {
            for &c in &children[v.0] {
                size[v.0] += size[c.0];
            }
        }
        size
    }

    /// `true` if `{u, v}` is a tree edge (in either orientation).
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.parent(u) == Some(v) || self.parent(v) == Some(u)
    }

    /// The tree edges as `(child, parent)` pairs.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        self.nodes()
            .filter_map(|v| self.parent(v).map(|p| (v, p)))
            .collect()
    }

    /// The [`EdgeId`]s of the tree edges in `graph`.
    ///
    /// # Panics
    ///
    /// Panics if a tree edge is not an edge of `graph`; build the tree with
    /// [`Tree::from_parents_in`] to get an error instead.
    pub fn edge_ids_in(&self, graph: &Graph) -> Vec<EdgeId> {
        self.edges()
            .into_iter()
            .map(|(v, p)| {
                graph
                    .edge_between(v, p)
                    .unwrap_or_else(|| panic!("tree edge ({v}, {p}) is not in the graph"))
            })
            .collect()
    }

    /// Number of edges in which two trees on the same node set differ (half their
    /// symmetric difference), counted in `O(n)` from the parent pointers: an edge
    /// `{v, p(v)}` of `other` is shared iff `self` has it in either orientation.
    ///
    /// # Panics
    ///
    /// Panics if the trees have different node counts.
    pub fn edge_difference(&self, other: &Tree) -> usize {
        assert_eq!(
            self.node_count(),
            other.node_count(),
            "trees over different node sets"
        );
        other
            .nodes()
            .filter(|&v| other.parent(v).is_some_and(|p| !self.contains_edge(v, p)))
            .count()
    }

    /// `true` if this tree is a spanning tree of `graph` (same node set, every tree edge
    /// a graph edge).
    pub fn is_spanning_tree_of(&self, graph: &Graph) -> bool {
        self.node_count() == graph.node_count()
            && self
                .edges()
                .iter()
                .all(|&(v, p)| graph.edge_between(v, p).is_some())
    }

    /// Sum of the weights of the tree edges in `graph`.
    ///
    /// # Panics
    ///
    /// Panics if a tree edge is not an edge of `graph`.
    pub fn total_weight(&self, graph: &Graph) -> Weight {
        self.edge_ids_in(graph)
            .into_iter()
            .map(|e| graph.weight(e))
            .sum()
    }

    /// The path from `v` to the root, inclusive of both endpoints.
    pub fn path_to_root(&self, v: NodeId) -> Vec<NodeId> {
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path
    }

    /// The nearest common ancestor of `u` and `v`, computed directly from the parent
    /// pointers (quadratic worst case; the [`crate::nca`] oracle is the fast version).
    pub fn nca(&self, u: NodeId, v: NodeId) -> NodeId {
        let up: Vec<NodeId> = self.path_to_root(u);
        let on_u_path: std::collections::HashSet<NodeId> = up.iter().copied().collect();
        let mut cur = v;
        loop {
            if on_u_path.contains(&cur) {
                return cur;
            }
            cur = self
                .parent(cur)
                .expect("root is a common ancestor of all nodes");
        }
    }

    /// The unique tree path between `u` and `v`, inclusive of both endpoints.
    pub fn tree_path(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
        let w = self.nca(u, v);
        let mut up = Vec::new();
        let mut cur = u;
        while cur != w {
            up.push(cur);
            cur = self
                .parent(cur)
                .expect("below the NCA there is always a parent");
        }
        up.push(w);
        let mut down = Vec::new();
        let mut cur = v;
        while cur != w {
            down.push(cur);
            cur = self
                .parent(cur)
                .expect("below the NCA there is always a parent");
        }
        up.extend(down.into_iter().rev());
        up
    }

    /// The *fundamental cycle* `T + e` of a non-tree edge `e = {u, v}`: the tree path
    /// from `u` to `v` (as node sequence). Adding `e` closes the cycle (paper, footnote 2).
    ///
    /// # Panics
    ///
    /// Panics if `e` is a tree edge.
    pub fn fundamental_cycle_nodes(&self, graph: &Graph, e: EdgeId) -> Vec<NodeId> {
        let edge = graph.edge(e);
        assert!(
            !self.contains_edge(edge.u, edge.v),
            "fundamental cycles are defined for non-tree edges"
        );
        self.tree_path(edge.u, edge.v)
    }

    /// The tree edges (as [`EdgeId`]s of `graph`) on the fundamental cycle of the
    /// non-tree edge `e`.
    pub fn fundamental_cycle_tree_edges(&self, graph: &Graph, e: EdgeId) -> Vec<EdgeId> {
        let nodes = self.fundamental_cycle_nodes(graph, e);
        nodes
            .windows(2)
            .map(|w| {
                graph
                    .edge_between(w[0], w[1])
                    .expect("consecutive path nodes are connected in the graph")
            })
            .collect()
    }

    /// Returns the tree obtained by the swap `T ← T + e − f`, where `e` is a non-tree
    /// edge and `f` a tree edge on the fundamental cycle of `T + e`, re-rooted at the
    /// original root (the operation of §IV of the paper, performed atomically).
    ///
    /// # Panics
    ///
    /// Panics if `e` is a tree edge, `f` is not a tree edge, or `f` is not on the
    /// fundamental cycle of `T + e` (the result would not be a spanning tree).
    pub fn with_swap(&self, graph: &Graph, add: EdgeId, remove: EdgeId) -> Tree {
        let cycle = self.fundamental_cycle_tree_edges(graph, add);
        assert!(
            cycle.contains(&remove),
            "the removed edge must lie on the fundamental cycle of the added edge"
        );
        let mut edge_set: Vec<EdgeId> = self.edge_ids_in(graph);
        edge_set.retain(|&f| f != remove);
        edge_set.push(add);
        Tree::from_edge_set(graph, &edge_set, self.root).expect("swap preserves spanning trees")
    }

    /// Builds a tree rooted at `root` from an explicit set of `n - 1` graph edges.
    ///
    /// # Errors
    ///
    /// Returns an error if the edge set does not form a spanning tree of `graph`.
    pub fn from_edge_set(graph: &Graph, edges: &[EdgeId], root: NodeId) -> Result<Tree, TreeError> {
        let n = graph.node_count();
        let mut adjacency: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &e in edges {
            let edge = graph.edge(e);
            adjacency[edge.u.0].push(edge.v);
            adjacency[edge.v.0].push(edge.u);
        }
        let mut parents: Vec<Option<NodeId>> = vec![None; n];
        let mut seen = vec![false; n];
        seen[root.0] = true;
        let mut queue = VecDeque::from([root]);
        let mut visited = 1usize;
        while let Some(v) = queue.pop_front() {
            for &w in &adjacency[v.0] {
                if !seen[w.0] {
                    seen[w.0] = true;
                    visited += 1;
                    parents[w.0] = Some(v);
                    queue.push_back(w);
                }
            }
        }
        if visited != n {
            return Err(TreeError::CycleDetected { node: root });
        }
        Tree::from_parents(parents)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small fixed graph: a 6-cycle plus a chord.
    fn ring_with_chord() -> Graph {
        Graph::from_edges(
            6,
            &[
                (0, 1, 1),
                (1, 2, 2),
                (2, 3, 3),
                (3, 4, 4),
                (4, 5, 5),
                (5, 0, 6),
                (1, 4, 7),
            ],
        )
    }

    fn star_parents() -> Vec<Option<NodeId>> {
        vec![None, Some(NodeId(0)), Some(NodeId(0)), Some(NodeId(0))]
    }

    #[test]
    fn valid_tree_from_parents() {
        let t = Tree::from_parents(star_parents()).unwrap();
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.children(NodeId(0)).len(), 3);
        assert_eq!(t.degree(NodeId(0)), 3);
        assert_eq!(t.degree(NodeId(1)), 1);
        assert_eq!(t.max_degree(), 3);
        assert_eq!(t.max_degree_nodes(), vec![NodeId(0)]);
    }

    #[test]
    fn detects_missing_and_multiple_roots() {
        // A 2-cycle of parent pointers has no root at all.
        assert_eq!(
            Tree::from_parents(vec![Some(NodeId(1)), Some(NodeId(0))]).unwrap_err(),
            TreeError::NoRoot
        );
        let err = Tree::from_parents(vec![None, None]).unwrap_err();
        assert_eq!(err, TreeError::MultipleRoots(vec![NodeId(0), NodeId(1)]));
        let err = Tree::from_parents(Vec::new()).unwrap_err();
        assert_eq!(err, TreeError::NoRoot);
    }

    #[test]
    fn detects_self_parent_and_out_of_range() {
        let err = Tree::from_parents(vec![None, Some(NodeId(1))]).unwrap_err();
        assert_eq!(err, TreeError::SelfParent { node: NodeId(1) });
        let err = Tree::from_parents(vec![None, Some(NodeId(9))]).unwrap_err();
        assert_eq!(err, TreeError::ParentOutOfRange { node: NodeId(1) });
    }

    #[test]
    fn detects_cycles() {
        let err = Tree::from_parents(vec![
            None,
            Some(NodeId(2)),
            Some(NodeId(3)),
            Some(NodeId(1)),
        ])
        .unwrap_err();
        assert!(matches!(err, TreeError::CycleDetected { .. }));
    }

    #[test]
    fn from_parents_in_checks_graph_edges() {
        let g = ring_with_chord();
        // 0-2 is not a graph edge.
        let err = Tree::from_parents_in(
            &g,
            vec![
                None,
                Some(NodeId(0)),
                Some(NodeId(0)),
                Some(NodeId(2)),
                Some(NodeId(3)),
                Some(NodeId(4)),
            ],
        )
        .unwrap_err();
        assert_eq!(
            err,
            TreeError::NotAGraphEdge {
                node: NodeId(2),
                parent: NodeId(0)
            }
        );
    }

    #[test]
    fn depths_sizes_and_height_on_a_path() {
        let t = Tree::path(5);
        assert_eq!(t.depths(), vec![0, 1, 2, 3, 4]);
        assert_eq!(t.height(), 4);
        assert_eq!(t.subtree_sizes(), vec![5, 4, 3, 2, 1]);
        assert_eq!(t.max_degree(), 2);
    }

    #[test]
    fn paths_and_nca() {
        // Tree: 0 - 1 - 2, 1 - 3, 0 - 4
        let t = Tree::from_parents(vec![
            None,
            Some(NodeId(0)),
            Some(NodeId(1)),
            Some(NodeId(1)),
            Some(NodeId(0)),
        ])
        .unwrap();
        assert_eq!(t.nca(NodeId(2), NodeId(3)), NodeId(1));
        assert_eq!(t.nca(NodeId(2), NodeId(4)), NodeId(0));
        assert_eq!(t.nca(NodeId(1), NodeId(2)), NodeId(1));
        assert_eq!(
            t.tree_path(NodeId(2), NodeId(3)),
            vec![NodeId(2), NodeId(1), NodeId(3)]
        );
        assert_eq!(
            t.tree_path(NodeId(2), NodeId(4)),
            vec![NodeId(2), NodeId(1), NodeId(0), NodeId(4)]
        );
        assert_eq!(
            t.path_to_root(NodeId(3)),
            vec![NodeId(3), NodeId(1), NodeId(0)]
        );
    }

    #[test]
    fn fundamental_cycle_of_the_chord() {
        let g = ring_with_chord();
        // Spanning tree: the path 0-1-2-3-4-5 (drop edges {5,0} and {1,4}).
        let t = Tree::path(6);
        assert!(t.is_spanning_tree_of(&g));
        let chord = g.edge_between(NodeId(1), NodeId(4)).unwrap();
        let cyc = t.fundamental_cycle_nodes(&g, chord);
        assert_eq!(cyc, vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
        let cyc_edges = t.fundamental_cycle_tree_edges(&g, chord);
        assert_eq!(cyc_edges.len(), 3);
    }

    #[test]
    fn swap_preserves_spanning_tree_and_changes_weight() {
        let g = ring_with_chord();
        let t = Tree::path(6);
        let add = g.edge_between(NodeId(1), NodeId(4)).unwrap();
        let remove = g.edge_between(NodeId(2), NodeId(3)).unwrap();
        let before = t.total_weight(&g);
        let t2 = t.with_swap(&g, add, remove);
        assert!(t2.is_spanning_tree_of(&g));
        assert_eq!(t2.root(), t.root());
        assert_eq!(
            t2.total_weight(&g),
            before - g.weight(remove) + g.weight(add)
        );
        assert!(t2.contains_edge(NodeId(1), NodeId(4)));
        assert!(!t2.contains_edge(NodeId(2), NodeId(3)));
        assert_eq!(t.edge_difference(&t2), 1);
        assert_eq!(t2.edge_difference(&t), 1);
        assert_eq!(t.edge_difference(&t), 0);
    }

    #[test]
    #[should_panic(expected = "fundamental cycle")]
    fn swap_rejects_edge_outside_cycle() {
        let g = ring_with_chord();
        let t = Tree::path(6);
        let add = g.edge_between(NodeId(1), NodeId(4)).unwrap();
        // {0,1} is a tree edge but not on the fundamental cycle of {1,4}.
        let remove = g.edge_between(NodeId(0), NodeId(1)).unwrap();
        let _ = t.with_swap(&g, add, remove);
    }

    #[test]
    fn total_weight_of_a_path_tree() {
        let g = ring_with_chord();
        let t = Tree::path(6);
        assert_eq!(t.total_weight(&g), 1 + 2 + 3 + 4 + 5);
    }
}
