//! First-class topology deltas: live mutations of the network.
//!
//! Self-stabilization is exactly the promise that the system recovers from *any*
//! transient change — including the topology itself: links failing, weights drifting,
//! nodes joining and leaving. This module gives [`Graph`] a batched mutation API:
//! [`Graph::apply_mutations`] applies a whole batch of [`Mutation`]s **in place**. An
//! edge-level mutation finds its edge by scanning one endpoint's adjacency run and edits
//! only the runs and weight orders of the endpoints it touches (and of the edge whose
//! id a removal recycles): `O(d log d)` for endpoint degrees `d`, amortized over the
//! occasional run relocation and compaction, with no pass over the whole graph. A
//! node departure re-indexes the edge list and rebuilds the CSR (`O(n + m)`); a node
//! arrival appends an empty run.
//!
//! The returned [`MutationOutcome`] carries the exact **dirty node set** (every node
//! whose incident edge set, incident weight, or dense index changed), which is what
//! lets the runtime executor re-seed only the affected enabled-set entries and the
//! composition engine invalidate only the touched label regions (see
//! `stst-core::engine::CompositionEngine::apply_topology`), plus a node remap table
//! when, and only when, the batch added or removed nodes.
//!
//! # Index stability
//!
//! Edge removal uses `swap_remove` on the dense edge list: the removed [`EdgeId`] is
//! recycled for the previously-last edge. Node removal does the same to the node index
//! space. The outcome reports both effects: remapped *nodes* via
//! [`MutationOutcome::old_index`], remapped *edges* by marking the moved edge's
//! endpoints dirty (every structure that names an edge of a fragment/label stores an
//! edge incident to a dirty node, so endpoint-dirty repair re-derives it).

use crate::graph::{Edge, EdgeId, Graph};
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
    /// Node remap table, present iff the batch added or removed nodes (the dense node
    /// index space was remapped): `old_index[i]` is the pre-batch index of the node now
    /// at index `i`, or `None` for a node the batch added.
    pub old_index: Option<Vec<Option<NodeId>>>,
}

impl Graph {
    /// Applies a batch of topology mutations in place (see the module docs for the
    /// cost of each kind).
    ///
    /// Mutations are applied in order; endpoints refer to the index space as mutated
    /// by the earlier entries of the same batch. Connectivity is *not* enforced — the
    /// engine layer decides what to do with a severed network (report, never silently
    /// repair). The result is the graph [`Graph::from_edges`] would build from the
    /// mutated edge list, view for view.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, out-of-range endpoints, duplicate edges, removing or
    /// re-weighting a missing edge, duplicate identities, or removing the last node.
    pub fn apply_mutations(&mut self, mutations: &[Mutation]) -> MutationOutcome {
        let mut dirty: Vec<NodeId> = Vec::new();
        let mut old_index: Option<Vec<Option<NodeId>>> = None;
        // Node mutations start the remap table from the identity on the nodes before
        // the batch: edge mutations leave the index space alone.
        let identity = |n: usize| (0..n).map(|i| Some(NodeId(i))).collect();
        for &mutation in mutations {
            match mutation {
                Mutation::AddEdge { u, v, weight } => {
                    assert!(u != v, "self-loops are not allowed");
                    assert!(
                        u.0 < self.node_count() && v.0 < self.node_count(),
                        "endpoint out of range"
                    );
                    assert!(
                        self.find_edge(u, v).is_none(),
                        "duplicate edge between {u:?} and {v:?}"
                    );
                    let (a, b) = if u < v { (u, v) } else { (v, u) };
                    let id = EdgeId(self.edges.len());
                    self.edges.push(Edge { u: a, v: b, weight });
                    for (x, y) in [(a, b), (b, a)] {
                        self.push_adjacent(x, y, id);
                        self.refresh_order(x);
                    }
                    dirty.push(u);
                    dirty.push(v);
                }
                Mutation::RemoveEdge { u, v } => {
                    let idx = self
                        .find_edge(u, v)
                        .unwrap_or_else(|| panic!("no edge between {u:?} and {v:?} to remove"));
                    self.remove_edge_at(idx, &mut dirty);
                }
                Mutation::SetWeight { u, v, weight } => {
                    let idx = self
                        .find_edge(u, v)
                        .unwrap_or_else(|| panic!("no edge between {u:?} and {v:?} to re-weight"));
                    self.edges[idx.0].weight = weight;
                    self.refresh_order(u);
                    self.refresh_order(v);
                    dirty.push(u);
                    dirty.push(v);
                }
                Mutation::AddNode { ident } => {
                    assert!(
                        !self.ids.contains(&ident),
                        "identities must be distinct (ident {ident} already present)"
                    );
                    old_index
                        .get_or_insert_with(|| identity(self.ids.len()))
                        .push(None);
                    dirty.push(NodeId(self.ids.len()));
                    self.ids.push(ident);
                    self.push_empty_run();
                }
                Mutation::RemoveNode { v } => {
                    assert!(v.0 < self.node_count(), "node out of range");
                    assert!(self.node_count() > 1, "cannot remove the last node");
                    // Drop every incident edge in one retain pass. Node churn remaps the
                    // edge index space wholesale — consumers rebuild when the outcome
                    // carries a remap table, so no per-edge recycling bookkeeping is
                    // needed; the CSR is rebuilt below.
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
                    old_index
                        .get_or_insert_with(|| identity(self.ids.len()))
                        .swap_remove(v.0);
                    self.ids.swap_remove(v.0);
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
                    self.rebuild_csr();
                }
            }
        }
        self.compact_if_sparse();
        let n = self.node_count();
        dirty.retain(|d| d.0 < n);
        dirty.sort_unstable();
        dirty.dedup();
        MutationOutcome { dirty, old_index }
    }

    /// The edge between `u` and `v`, found by scanning the shorter of their two runs.
    /// `None` for a missing edge or an out-of-range endpoint.
    fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let n = self.node_count();
        if u.0 >= n || v.0 >= n {
            return None;
        }
        if self.degree(u) <= self.degree(v) {
            self.edge_between(u, v)
        } else {
            self.edge_between(v, u)
        }
    }

    /// Swap-removes the edge `idx`, marking the endpoints of both the removed edge and
    /// the edge recycled into its slot dirty, and edits the runs of those endpoints.
    fn remove_edge_at(&mut self, idx: EdgeId, dirty: &mut Vec<NodeId>) {
        let removed = self.edges.swap_remove(idx.0);
        for x in [removed.u, removed.v] {
            self.remove_adjacent(x, idx);
            dirty.push(x);
        }
        if idx.0 < self.edges.len() {
            // The previously-last edge takes the freed id: anything naming it by index
            // must be re-derived, which endpoint-dirty repair guarantees.
            let moved = self.edges[idx.0];
            let last = EdgeId(self.edges.len());
            for x in [moved.u, moved.v] {
                self.rename_adjacent(x, last, idx);
                self.refresh_order(x);
                dirty.push(x);
            }
        }
        for x in [removed.u, removed.v] {
            self.refresh_order(x);
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        assert_eq!(
            outcome.old_index, None,
            "edge mutations keep the index space"
        );
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
        // Node 4 (ident 99) was recycled into slot 1.
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.ident(NodeId(1)), 99);
        // Relative to the start of the *second* batch, node 4 (the joiner of the first
        // batch) already existed; it is reported as remapped, not as new.
        assert_eq!(
            outcome.old_index,
            Some(vec![
                Some(NodeId(0)),
                Some(NodeId(4)),
                Some(NodeId(2)),
                Some(NodeId(3))
            ])
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

    /// The reference for one batch: the mutations applied to a plain edge list (the
    /// swap-remove recycling of [`Graph::apply_mutations`]' contract), the graph then
    /// built in bulk from that list.
    fn rebuilt(g: &Graph, batch: &[Mutation]) -> (Graph, MutationOutcome) {
        let mut ids = g.ids.clone();
        let mut edges: Vec<Edge> = g.edges().to_vec();
        let mut dirty: Vec<NodeId> = Vec::new();
        let mut old_index: Vec<Option<NodeId>> = (0..ids.len()).map(|i| Some(NodeId(i))).collect();
        let find = |edges: &[Edge], u: NodeId, v: NodeId| {
            let key = if u < v { (u, v) } else { (v, u) };
            edges
                .iter()
                .position(|e| (e.u, e.v) == key)
                .expect("edge exists")
        };
        for &m in batch {
            match m {
                Mutation::AddEdge { u, v, weight } => {
                    edges.push(Edge {
                        u: u.min(v),
                        v: u.max(v),
                        weight,
                    });
                    dirty.extend([u, v]);
                }
                Mutation::RemoveEdge { u, v } => {
                    let i = find(&edges, u, v);
                    let removed = edges.swap_remove(i);
                    dirty.extend([removed.u, removed.v]);
                    if i < edges.len() {
                        dirty.extend([edges[i].u, edges[i].v]);
                    }
                }
                Mutation::SetWeight { u, v, weight } => {
                    let i = find(&edges, u, v);
                    edges[i].weight = weight;
                    dirty.extend([u, v]);
                }
                Mutation::AddNode { ident } => {
                    dirty.push(NodeId(ids.len()));
                    ids.push(ident);
                    old_index.push(None);
                }
                Mutation::RemoveNode { v } => {
                    for e in edges.iter().filter(|e| e.touches(v)) {
                        dirty.extend([e.u, e.v]);
                    }
                    edges.retain(|e| !e.touches(v));
                    let last = NodeId(ids.len() - 1);
                    ids.swap_remove(v.0);
                    old_index.swap_remove(v.0);
                    let remap = |x: NodeId| if x == last { v } else { x };
                    for e in &mut edges {
                        let (a, b) = (remap(e.u), remap(e.v));
                        (e.u, e.v) = (a.min(b), a.max(b));
                    }
                    dirty.iter_mut().for_each(|d| *d = remap(*d));
                    dirty.retain(|&d| d != last);
                }
            }
        }
        let n = ids.len();
        dirty.retain(|d| d.0 < n);
        dirty.sort_unstable();
        dirty.dedup();
        let list: Vec<_> = edges.iter().map(|e| (e.u.0, e.v.0, e.weight)).collect();
        let mut graph = Graph::from_edges(n, &list);
        graph.set_idents(ids);
        let node_set_changed = batch
            .iter()
            .any(|m| matches!(m, Mutation::AddNode { .. } | Mutation::RemoveNode { .. }));
        let outcome = MutationOutcome {
            dirty,
            old_index: node_set_changed.then_some(old_index),
        };
        (graph, outcome)
    }

    /// A random batch of one to four mutations valid on `g` (as mutated by the earlier
    /// entries): edge adds, removals (severing ones included), weight drift and node
    /// churn.
    fn random_batch(g: &Graph, rng: &mut StdRng, next: &mut u64) -> Vec<Mutation> {
        let mut shadow = g.clone();
        let mut batch = Vec::new();
        for _ in 0..rng.gen_range(1..=4) {
            let n = shadow.node_count();
            let m = shadow.edge_count();
            let pick = |rng: &mut StdRng| NodeId(rng.gen_range(0..n));
            *next += 1;
            let mutation = match rng.gen_range(0..10) {
                0..=2 => {
                    let (u, v) = (pick(rng), pick(rng));
                    if u == v || shadow.edge_between(u, v).is_some() {
                        continue;
                    }
                    // Now and then a weight far wider than the others.
                    let weight = if rng.gen_range(0..8) == 0 {
                        *next << 40
                    } else {
                        *next
                    };
                    Mutation::AddEdge { u, v, weight }
                }
                3..=5 if m > 0 => {
                    let e = shadow.edge(EdgeId(rng.gen_range(0..m)));
                    Mutation::RemoveEdge { u: e.v, v: e.u }
                }
                6 | 7 if m > 0 => {
                    let e = shadow.edge(EdgeId(rng.gen_range(0..m)));
                    Mutation::SetWeight {
                        u: e.u,
                        v: e.v,
                        weight: *next,
                    }
                }
                8 => Mutation::AddNode {
                    ident: 1_000 + *next,
                },
                9 if n > 3 => Mutation::RemoveNode { v: pick(rng) },
                _ => continue,
            };
            shadow.apply_mutations(&[mutation]);
            batch.push(mutation);
        }
        batch
    }

    #[test]
    fn in_place_batches_match_a_rebuild_from_the_edge_list() {
        for seed in 0..6u64 {
            let mut g = crate::generators::workload(30, 0.15, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut next = 10_000u64;
            for step in 0..150 {
                let batch = random_batch(&g, &mut rng, &mut next);
                let (expected, expected_outcome) = rebuilt(&g, &batch);
                let outcome = g.apply_mutations(&batch);
                assert_eq!(
                    outcome, expected_outcome,
                    "seed {seed} batch {step}: {batch:?}"
                );
                assert_same(&g, &expected);
                assert_eq!(g.component_count(), expected.component_count());
                let mut compact = g.clone();
                compact.rebuild_csr();
                assert_same(&g, &compact);
            }
        }
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
