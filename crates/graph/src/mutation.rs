//! First-class topology deltas: live mutations of the network.
//!
//! Self-stabilization is exactly the promise that the system recovers from *any*
//! transient change — including the topology itself: links failing, weights drifting,
//! nodes joining and leaving. This module gives [`Graph`] a batched mutation API:
//! [`Graph::apply_mutations`] applies a whole batch of [`Mutation`]s and rebuilds the
//! CSR adjacency and the per-node `(weight, ident)` port order **once**, in
//! `O(n + m + k)` for `k` edge-level mutations, instead of the `k · O(n + m)` that `k`
//! repeated [`Graph::add_edge`] calls would cost (node-level mutations additionally pay
//! an `O(m)` incident-edge sweep each — they remap the dense index space).
//!
//! The returned [`MutationOutcome`] carries the exact **dirty node set** (every node
//! whose incident edge set, incident weight, or dense index changed) plus the node
//! remap table, which is what lets the runtime executor re-seed only the affected
//! enabled-set entries and the composition engine invalidate only the touched label
//! regions (see `stst-core::engine::CompositionEngine::apply_topology`).
//!
//! # Index stability
//!
//! Edge removal uses `swap_remove` on the dense edge list: the removed [`EdgeId`](crate::EdgeId) is
//! recycled for the previously-last edge. Node removal does the same to the node index
//! space. The outcome reports both effects: remapped *nodes* via
//! [`MutationOutcome::old_index`], remapped *edges* by marking the moved edge's
//! endpoints dirty (every structure that names an edge of a fragment/label stores an
//! edge incident to a dirty node, so endpoint-dirty repair re-derives it).

use std::collections::HashMap;

use crate::graph::{Edge, Graph};
use crate::ids::{Ident, NodeId, Weight};

/// One elementary topology delta. Endpoints are dense [`NodeId`]s *at the time the
/// mutation is applied within its batch* (earlier node mutations in the same batch
/// shift the index space; a node added by the batch has index `node_count()` as of its
/// `AddNode`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Insert the edge `{u, v}` with the given weight.
    AddEdge {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
        /// Weight of the new edge.
        weight: Weight,
    },
    /// Delete the edge `{u, v}`.
    RemoveEdge {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Re-weight the edge `{u, v}` (weight drift).
    SetWeight {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
        /// The new weight.
        weight: Weight,
    },
    /// Add an isolated node carrying `ident` (usually followed by `AddEdge`s attaching
    /// it in the same batch).
    AddNode {
        /// Identity of the joining node (must be distinct from every existing one).
        ident: Ident,
    },
    /// Remove node `v` together with all of its incident edges.
    RemoveNode {
        /// The leaving node.
        v: NodeId,
    },
}

/// What a batch of mutations did to the graph, as consumed by the incremental layers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutationOutcome {
    /// Every surviving node whose incident edge set, incident edge weight, or dense
    /// index changed — sorted, deduplicated, in post-batch indices. Guards and labels
    /// outside the closed neighborhoods of these nodes are provably unaffected.
    pub dirty: Vec<NodeId>,
    /// Node remap table: `old_index[i]` is the pre-batch index of the node now at
    /// index `i`, or `None` for a node the batch added. The identity map when
    /// [`MutationOutcome::node_set_changed`] is `false`.
    pub old_index: Vec<Option<NodeId>>,
    /// `true` iff the batch added or removed nodes (the dense node index space was
    /// remapped).
    pub node_set_changed: bool,
}

impl Graph {
    /// Applies a batch of topology mutations, rebuilding the CSR adjacency and the
    /// per-node weight order exactly once at the end.
    ///
    /// Mutations are applied in order; endpoints refer to the index space as mutated
    /// by the earlier entries of the same batch. Connectivity is *not* enforced — the
    /// engine layer decides what to do with a severed network (report, never silently
    /// repair).
    ///
    /// # Panics
    ///
    /// Panics on self-loops, out-of-range endpoints, duplicate edges, removing or
    /// re-weighting a missing edge, duplicate identities, or removing the last node.
    pub fn apply_mutations(&mut self, mutations: &[Mutation]) -> MutationOutcome {
        // Position map (u, v) → dense edge index, maintained across swap_removes so
        // lookups stay O(1) while the CSR is stale.
        let mut pos: HashMap<(NodeId, NodeId), usize> = self
            .edges
            .iter()
            .enumerate()
            .map(|(i, e)| ((e.u, e.v), i))
            .collect();
        let key = |u: NodeId, v: NodeId| if u < v { (u, v) } else { (v, u) };
        let mut dirty: Vec<NodeId> = Vec::new();
        let mut old_index: Vec<Option<NodeId>> =
            (0..self.node_count()).map(|i| Some(NodeId(i))).collect();
        let mut node_set_changed = false;
        for &mutation in mutations {
            match mutation {
                Mutation::AddEdge { u, v, weight } => {
                    assert!(u != v, "self-loops are not allowed");
                    assert!(
                        u.0 < self.node_count() && v.0 < self.node_count(),
                        "endpoint out of range"
                    );
                    let (a, b) = key(u, v);
                    assert!(
                        !pos.contains_key(&(a, b)),
                        "duplicate edge between {u:?} and {v:?}"
                    );
                    pos.insert((a, b), self.edges.len());
                    self.edges.push(Edge { u: a, v: b, weight });
                    dirty.push(u);
                    dirty.push(v);
                }
                Mutation::RemoveEdge { u, v } => {
                    let idx = pos
                        .remove(&key(u, v))
                        .unwrap_or_else(|| panic!("no edge between {u:?} and {v:?} to remove"));
                    self.remove_edge_at(idx, &mut pos, &mut dirty);
                }
                Mutation::SetWeight { u, v, weight } => {
                    let idx = *pos
                        .get(&key(u, v))
                        .unwrap_or_else(|| panic!("no edge between {u:?} and {v:?} to re-weight"));
                    self.edges[idx].weight = weight;
                    dirty.push(u);
                    dirty.push(v);
                }
                Mutation::AddNode { ident } => {
                    assert!(
                        !self.ids.contains(&ident),
                        "identities must be distinct (ident {ident} already present)"
                    );
                    dirty.push(NodeId(self.ids.len()));
                    self.ids.push(ident);
                    old_index.push(None);
                    node_set_changed = true;
                }
                Mutation::RemoveNode { v } => {
                    assert!(v.0 < self.node_count(), "node out of range");
                    assert!(self.node_count() > 1, "cannot remove the last node");
                    // Drop every incident edge in one retain pass (the CSR is stale
                    // mid-batch, so adjacency cannot be trusted). Node churn remaps
                    // the edge index space wholesale — consumers rebuild on
                    // `node_set_changed`, so no per-edge recycling bookkeeping is
                    // needed; the position map is rebuilt below.
                    self.edges.retain(|e| {
                        if e.touches(v) {
                            dirty.push(e.u);
                            dirty.push(e.v);
                            false
                        } else {
                            true
                        }
                    });
                    // Recycle the last dense index for `v` (swap_remove semantics).
                    let last = NodeId(self.ids.len() - 1);
                    self.ids.swap_remove(v.0);
                    old_index.swap_remove(v.0);
                    node_set_changed = true;
                    if v != last {
                        // Remap edge endpoints, re-normalizing the `u < v` order of
                        // remapped records.
                        for e in self.edges.iter_mut() {
                            if e.touches(last) {
                                let (mut a, mut b) = (e.u, e.v);
                                if a == last {
                                    a = v;
                                }
                                if b == last {
                                    b = v;
                                }
                                let (a, b) = if a < b { (a, b) } else { (b, a) };
                                e.u = a;
                                e.v = b;
                            }
                        }
                        for d in dirty.iter_mut() {
                            if *d == last {
                                *d = v;
                            }
                        }
                    }
                    dirty.retain(|&d| d != last);
                    pos.clear();
                    pos.extend(self.edges.iter().enumerate().map(|(i, e)| ((e.u, e.v), i)));
                }
            }
        }
        self.rebuild_csr();
        let n = self.node_count();
        dirty.retain(|d| d.0 < n);
        dirty.sort_unstable();
        dirty.dedup();
        MutationOutcome {
            dirty,
            old_index,
            node_set_changed,
        }
    }

    /// Swap-removes the edge at `idx`, marking the endpoints of both the removed edge
    /// and the edge recycled into its slot dirty, and fixing the recycled edge's
    /// position-map entry.
    fn remove_edge_at(
        &mut self,
        idx: usize,
        pos: &mut HashMap<(NodeId, NodeId), usize>,
        dirty: &mut Vec<NodeId>,
    ) {
        let removed = self.edges.swap_remove(idx);
        dirty.push(removed.u);
        dirty.push(removed.v);
        if idx < self.edges.len() {
            let moved = self.edges[idx];
            pos.insert((moved.u, moved.v), idx);
            // The moved edge changed its EdgeId: anything naming it by index must be
            // re-derived, which endpoint-dirty repair guarantees.
            dirty.push(moved.u);
            dirty.push(moved.v);
        }
    }

    /// Deletes the edge `{u, v}` (single-mutation convenience over
    /// [`Graph::apply_mutations`]).
    ///
    /// # Panics
    ///
    /// Panics if the edge does not exist.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> MutationOutcome {
        self.apply_mutations(&[Mutation::RemoveEdge { u, v }])
    }

    /// Re-weights the edge `{u, v}` (single-mutation convenience).
    ///
    /// # Panics
    ///
    /// Panics if the edge does not exist.
    pub fn set_weight(&mut self, u: NodeId, v: NodeId, weight: Weight) -> MutationOutcome {
        self.apply_mutations(&[Mutation::SetWeight { u, v, weight }])
    }

    /// Adds an isolated node carrying `ident` and returns its dense index.
    ///
    /// # Panics
    ///
    /// Panics if `ident` is already assigned.
    pub fn add_node(&mut self, ident: Ident) -> NodeId {
        self.apply_mutations(&[Mutation::AddNode { ident }]);
        NodeId(self.node_count() - 1)
    }

    /// Removes node `v` with all of its incident edges. The previously-last node is
    /// recycled into index `v` (see [`MutationOutcome::old_index`]).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or the last remaining node.
    pub fn remove_node(&mut self, v: NodeId) -> MutationOutcome {
        self.apply_mutations(&[Mutation::RemoveNode { v }])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeId;

    fn diamond() -> Graph {
        // 0-1-3, 0-2-3 plus the chord 1-2.
        Graph::from_edges(4, &[(0, 1, 1), (0, 2, 2), (1, 3, 3), (2, 3, 4), (1, 2, 5)])
    }

    /// Graphs agree as values *and* in their derived CSR views.
    fn assert_same(a: &Graph, b: &Graph) {
        assert_eq!(a, b);
        for v in a.nodes() {
            assert_eq!(a.neighbors(v), b.neighbors(v));
            assert_eq!(a.neighbor_order_by_weight(v), b.neighbor_order_by_weight(v));
        }
    }

    #[test]
    fn batched_mutations_match_bulk_reconstruction() {
        let mut g = diamond();
        let outcome = g.apply_mutations(&[
            Mutation::RemoveEdge {
                u: NodeId(1),
                v: NodeId(2),
            },
            Mutation::SetWeight {
                u: NodeId(0),
                v: NodeId(2),
                weight: 9,
            },
            Mutation::AddEdge {
                u: NodeId(0),
                v: NodeId(3),
                weight: 6,
            },
        ]);
        assert!(!outcome.node_set_changed);
        assert_eq!(outcome.old_index.len(), 4);
        assert!(outcome
            .old_index
            .iter()
            .enumerate()
            .all(|(i, o)| *o == Some(NodeId(i))));
        // Edge 1-2 (index 4) was last, so no remap; dirty = all touched endpoints.
        assert_eq!(
            outcome.dirty,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        let expected =
            Graph::from_edges(4, &[(0, 1, 1), (0, 2, 9), (1, 3, 3), (2, 3, 4), (0, 3, 6)]);
        assert_same(&g, &expected);
    }

    #[test]
    fn edge_removal_recycles_the_last_edge_id_and_marks_it_dirty() {
        let mut g = diamond();
        // Removing edge 0 moves edge 4 (1-2) into slot 0.
        let outcome = g.remove_edge(NodeId(0), NodeId(1));
        assert_eq!(g.edge_count(), 4);
        assert_eq!(
            g.edge(EdgeId(0)),
            &Edge {
                u: NodeId(1),
                v: NodeId(2),
                weight: 5
            }
        );
        assert_eq!(
            outcome.dirty,
            vec![NodeId(0), NodeId(1), NodeId(2)],
            "endpoints of the removed and of the recycled edge"
        );
        assert!(g.edge_between(NodeId(0), NodeId(1)).is_none());
        assert!(g.edge_between(NodeId(1), NodeId(2)).is_some());
    }

    #[test]
    fn node_join_and_leave_remap_the_index_space() {
        let mut g = diamond(); // idents 1..=4
        let joined = g.add_node(99);
        assert_eq!(joined, NodeId(4));
        let outcome = g.apply_mutations(&[
            Mutation::AddEdge {
                u: NodeId(4),
                v: NodeId(0),
                weight: 10,
            },
            Mutation::RemoveNode { v: NodeId(1) },
        ]);
        assert!(outcome.node_set_changed);
        // Node 4 (ident 99) was recycled into slot 1.
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.ident(NodeId(1)), 99);
        // Relative to the start of the *second* batch, node 4 (the joiner of the first
        // batch) already existed; it is reported as remapped, not as new.
        assert_eq!(
            outcome.old_index,
            vec![
                Some(NodeId(0)),
                Some(NodeId(4)),
                Some(NodeId(2)),
                Some(NodeId(3))
            ]
        );
        // The leaver's old neighbors and the remapped node are dirty.
        assert_eq!(
            outcome.dirty,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        // All edges are consistent with the remapped indices (edge order reflects the
        // swap_remove recycling, so compare the multiset of endpoint/weight triples).
        let mut triples: Vec<_> = g.edges().iter().map(|e| (e.u, e.v, e.weight)).collect();
        triples.sort_unstable();
        assert_eq!(
            triples,
            vec![
                (NodeId(0), NodeId(1), 10),
                (NodeId(0), NodeId(2), 2),
                (NodeId(2), NodeId(3), 4),
            ]
        );
        assert!(g.is_connected());
    }

    #[test]
    fn removal_can_disconnect_and_the_graph_reports_it() {
        let mut g = Graph::from_edges(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 3)]);
        assert_eq!(g.component_count(), 1);
        g.remove_edge(NodeId(1), NodeId(2));
        assert!(!g.is_connected());
        assert_eq!(g.component_count(), 2);
    }

    #[test]
    #[should_panic(expected = "no edge between")]
    fn removing_a_missing_edge_panics() {
        let mut g = diamond();
        g.remove_edge(NodeId(0), NodeId(3));
    }

    #[test]
    #[should_panic(expected = "identities must be distinct")]
    fn duplicate_join_ident_panics() {
        let mut g = diamond();
        g.add_node(3);
    }

    #[test]
    fn add_edge_still_matches_bulk_construction() {
        // The historical contract of `add_edge` (now a wrapper over the batched path):
        // edge-by-edge insertion agrees with bulk CSR construction exactly.
        let edges = [(0, 1, 5), (1, 2, 3), (0, 2, 9), (2, 3, 1), (1, 3, 7)];
        let bulk = Graph::from_edges(4, &edges);
        let mut incremental = Graph::new(4);
        for &(u, v, w) in &edges {
            incremental.add_edge(NodeId(u), NodeId(v), w);
        }
        assert_same(&bulk, &incremental);
    }
}
