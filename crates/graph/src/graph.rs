//! The network model: a simple connected undirected graph with distinct node identities
//! and (optionally) distinct edge weights.

use std::collections::HashSet;
use std::fmt;

use crate::ids::{bits_for, Ident, NodeId, Weight};

/// Dense index of an edge inside a [`Graph`] (0-based).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub usize);

impl EdgeId {
    /// Returns the underlying dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An undirected edge record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// One endpoint (always the smaller `NodeId`).
    pub u: NodeId,
    /// The other endpoint (always the larger `NodeId`).
    pub v: NodeId,
    /// The (incorruptible) weight of the edge.
    pub weight: Weight,
}

impl Edge {
    /// Returns the endpoint different from `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of the edge.
    pub fn other(&self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("{x:?} is not an endpoint of edge {self:?}")
        }
    }

    /// Returns `true` if `x` is an endpoint of this edge.
    pub fn touches(&self, x: NodeId) -> bool {
        self.u == x || self.v == x
    }
}

/// A simple undirected graph with stable dense node indices, distinct node identities
/// and edge weights.
///
/// This is the *network* of the state model (paper §II-A): node identities and incident
/// edge weights are incorruptible constants; everything a distributed algorithm stores
/// lives in the runtime crate's registers instead.
///
/// Adjacency is stored in **CSR form** (compressed sparse row): one flat `(neighbor,
/// edge)` array in which every node owns one contiguous run, located by its own
/// `(start, len, cap)` record. Neighbor iteration is therefore a contiguous slice read
/// — cache-linear and allocation-free — which is what makes the runtime crate's
/// per-guard-evaluation views cheap. Bulk construction ([`Graph::from_edges`] and the
/// `generators`) lays the runs out back to back with no spare capacity in `O(n + m)`.
/// Topology mutations ([`Graph::apply_mutations`]) edit only the runs of the endpoints
/// they touch: a run that outgrows its capacity moves to the end of the array with
/// doubled capacity, and the array is laid out back to back again once the abandoned
/// slots outnumber the live ones. Within a run, neighbors are in increasing [`EdgeId`]
/// order, whichever way the graph was built.
#[derive(Clone, Debug)]
pub struct Graph {
    pub(crate) ids: Vec<Ident>,
    pub(crate) edges: Vec<Edge>,
    /// Node `v`'s run is `adj[runs[v].start ..][.. runs[v].len]`, with `runs[v].cap`
    /// slots reserved.
    runs: Vec<Run>,
    /// Flat adjacency array: one run per node, in increasing edge-id order.
    adj: Vec<(NodeId, EdgeId)>,
    /// Per-node port permutation sorting the adjacency run by `(weight, neighbor
    /// ident)`, parallel to `adj`: entry `k` of `v`'s run is the *local* index (into
    /// `neighbors(v)`) of `v`'s `k`-th lightest incident edge. Weights and identities
    /// are incorruptible constants, so this is recomputed only for the nodes whose run,
    /// incident weights or identities change — "lightest incident edge" rules (the MST
    /// hot loop) read it instead of sorting per guard evaluation.
    adj_order: Vec<u32>,
    /// Slots of `adj` no run reserves any more (left behind by relocated runs).
    holes: usize,
}

/// One node's adjacency run inside [`Graph`]'s flat array.
#[derive(Clone, Copy, Debug, Default)]
struct Run {
    start: u32,
    len: u32,
    cap: u32,
}

/// Graphs are equal when they have the same identities, the same edge list and the same
/// adjacency and weight-order views; where the runs sit inside the flat array is not
/// part of the value.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.ids == other.ids
            && self.edges == other.edges
            && self.nodes().all(|v| {
                self.neighbors(v) == other.neighbors(v)
                    && self.neighbor_order_by_weight(v) == other.neighbor_order_by_weight(v)
            })
    }
}

impl Eq for Graph {}

impl Graph {
    /// Creates a graph with `n` nodes, no edges, and the default identity assignment
    /// `ident(v) = v + 1`.
    pub fn new(n: usize) -> Self {
        Graph {
            ids: (0..n as u64).map(|i| i + 1).collect(),
            edges: Vec::new(),
            runs: vec![Run::default(); n],
            adj: Vec::new(),
            adj_order: Vec::new(),
            holes: 0,
        }
    }

    /// Creates a graph with `n` nodes and the given edge list `(u, v, weight)`,
    /// building the CSR adjacency in bulk (`O(n + m)`).
    ///
    /// # Panics
    ///
    /// Panics if an edge is a self-loop, references an out-of-range node, or duplicates
    /// an existing edge.
    pub fn from_edges(n: usize, edges: &[(usize, usize, Weight)]) -> Self {
        let mut records = Vec::with_capacity(edges.len());
        let mut seen = HashSet::with_capacity(edges.len());
        for &(u, v, w) in edges {
            assert!(u != v, "self-loops are not allowed");
            assert!(u < n && v < n, "endpoint out of range");
            let (a, b) = if u < v { (u, v) } else { (v, u) };
            assert!(
                seen.insert((a, b)),
                "duplicate edge between {:?} and {:?}",
                NodeId(u),
                NodeId(v)
            );
            records.push(Edge {
                u: NodeId(a),
                v: NodeId(b),
                weight: w,
            });
        }
        let mut g = Graph::new(n);
        g.edges = records;
        g.rebuild_csr();
        g
    }

    /// Rebuilds the CSR arrays from `self.edges` in `O(n + m)`, the runs back to back
    /// with `cap = len`, preserving, for every node, the order in which its incident
    /// edges appear in the edge list.
    pub(crate) fn rebuild_csr(&mut self) {
        self.holes = 0;
        self.runs.clear();
        self.runs.resize(self.node_count(), Run::default());
        for e in &self.edges {
            self.runs[e.u.0].cap += 1;
            self.runs[e.v.0].cap += 1;
        }
        let mut start = 0;
        for run in &mut self.runs {
            run.start = start;
            start += run.cap;
        }
        self.adj.clear();
        self.adj.resize(start as usize, (NodeId(0), EdgeId(0)));
        for (i, e) in self.edges.iter().enumerate() {
            for (x, y) in [(e.u, e.v), (e.v, e.u)] {
                let run = &mut self.runs[x.0];
                self.adj[(run.start + run.len) as usize] = (y, EdgeId(i));
                run.len += 1;
            }
        }
        self.rebuild_weight_order();
    }

    /// The slots of `adj` holding `v`'s run.
    #[inline]
    fn run(&self, v: NodeId) -> std::ops::Range<usize> {
        let run = self.runs[v.0];
        run.start as usize..(run.start + run.len) as usize
    }

    /// Recomputes the weight-order permutation of every node from the current CSR,
    /// weights and identities (`O(m log Δ)`). Called whenever identities or weights
    /// change wholesale.
    fn rebuild_weight_order(&mut self) {
        self.adj_order.clear();
        self.adj_order.resize(self.adj.len(), 0);
        for v in 0..self.node_count() {
            self.refresh_order(NodeId(v));
        }
    }

    /// Overwrites the weight of every edge, `weights[i]` for edge `i`, and recomputes
    /// the weight order once. The edge set is unchanged, so nothing is re-checked.
    pub(crate) fn set_weights(&mut self, weights: &[Weight]) {
        assert_eq!(weights.len(), self.edges.len(), "one weight per edge");
        for (e, &w) in self.edges.iter_mut().zip(weights) {
            e.weight = w;
        }
        self.rebuild_weight_order();
    }

    /// Recomputes `v`'s weight-order permutation (`O(d log d)` for degree `d`).
    pub(crate) fn refresh_order(&mut self, v: NodeId) {
        let range = self.run(v);
        let slice = &self.adj[range.clone()];
        let sub = &mut self.adj_order[range];
        for (k, slot) in sub.iter_mut().enumerate() {
            *slot = k as u32;
        }
        sub.sort_by_key(|&k| {
            let (w, e) = slice[k as usize];
            (self.edges[e.0].weight, self.ids[w.0])
        });
    }

    /// Appends `(w, e)` to `v`'s run, moving the run to the end of the array with
    /// doubled capacity when it is full. The caller refreshes `v`'s weight order.
    pub(crate) fn push_adjacent(&mut self, v: NodeId, w: NodeId, e: EdgeId) {
        let run = self.runs[v.0];
        let mut start = run.start as usize;
        if run.len == run.cap {
            let cap = (2 * run.len).max(4);
            let old = start..start + run.len as usize;
            start = self.adj.len();
            self.adj.extend_from_within(old);
            self.adj
                .resize(start + cap as usize, (NodeId(0), EdgeId(0)));
            self.adj_order.resize(start + cap as usize, 0);
            self.holes += run.cap as usize;
            self.runs[v.0] = Run {
                start: start as u32,
                len: run.len,
                cap,
            };
        }
        self.adj[start + run.len as usize] = (w, e);
        self.runs[v.0].len += 1;
    }

    /// Removes the entry of edge `e` from `v`'s run, keeping the rest in order. The
    /// caller refreshes `v`'s weight order.
    pub(crate) fn remove_adjacent(&mut self, v: NodeId, e: EdgeId) {
        self.runs[v.0].len -= 1;
        let run = self.runs[v.0];
        let slots = &mut self.adj[run.start as usize..=(run.start + run.len) as usize];
        let k = slots
            .iter()
            .position(|&(_, x)| x == e)
            .expect("the adjacency runs mirror the edge list");
        slots[k..].rotate_left(1);
    }

    /// Renames edge `from` to `to < from` in `v`'s run and moves the entry to its place
    /// in edge-id order. The caller refreshes `v`'s weight order.
    pub(crate) fn rename_adjacent(&mut self, v: NodeId, from: EdgeId, to: EdgeId) {
        let range = self.run(v);
        let run = &mut self.adj[range];
        let k = run
            .iter()
            .position(|&(_, x)| x == from)
            .expect("the adjacency runs mirror the edge list");
        let at = run[..k].partition_point(|&(_, x)| x < to);
        run[k].1 = to;
        run[at..=k].rotate_right(1);
    }

    /// Gives a joining node an empty run (its first neighbor relocates it).
    pub(crate) fn push_empty_run(&mut self) {
        self.runs.push(Run::default());
    }

    /// Lays the runs out back to back again once the slots abandoned by relocated runs
    /// outnumber the live entries (amortized `O(1)` per relocation).
    pub(crate) fn compact_if_sparse(&mut self) {
        if self.holes > 2 * self.edges.len() {
            self.rebuild_csr();
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node indices.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId)
    }

    /// Iterator over all edge indices.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edge_count()).map(EdgeId)
    }

    /// All edge records.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge record for `e`.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.0]
    }

    /// The identity of node `v` (an incorruptible constant of the model).
    pub fn ident(&self, v: NodeId) -> Ident {
        self.ids[v.0]
    }

    /// The node carrying identity `id`, if any.
    pub fn node_with_ident(&self, id: Ident) -> Option<NodeId> {
        self.ids.iter().position(|&x| x == id).map(NodeId)
    }

    /// The node with the minimum identity. This is the canonical root elected by the
    /// leader-election layer.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no nodes.
    pub fn min_ident_node(&self) -> NodeId {
        self.nodes()
            .min_by_key(|&v| self.ident(v))
            .expect("graph has at least one node")
    }

    /// Overrides the identity assignment. Identities must be pairwise distinct.
    ///
    /// # Panics
    ///
    /// Panics if `ids.len() != n` or identities are not pairwise distinct.
    pub fn set_idents(&mut self, ids: Vec<Ident>) {
        assert_eq!(ids.len(), self.node_count(), "one identity per node");
        let distinct: HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), ids.len(), "identities must be distinct");
        self.ids = ids;
        // Identities break weight ties in the per-node weight order.
        self.rebuild_weight_order();
    }

    /// Adds an undirected edge and returns its [`EdgeId`].
    ///
    /// Thin wrapper over the topology-delta path ([`Graph::apply_mutations`]): it edits
    /// the two endpoints' runs in place, `O(d log d)` for the endpoint degrees `d`
    /// (amortized over the occasional run relocation and compaction).
    ///
    /// # Panics
    ///
    /// Panics on self-loops, out-of-range endpoints, or duplicate edges.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: Weight) -> EdgeId {
        self.apply_mutations(&[crate::mutation::Mutation::AddEdge { u, v, weight }]);
        EdgeId(self.edges.len() - 1)
    }

    /// Neighbors of `v` with the connecting edge ids, in insertion order — a borrowed
    /// contiguous CSR slice, so iteration is cache-linear and allocation-free.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adj[self.run(v)]
    }

    /// Degree of `v` in the graph.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.run(v).len()
    }

    /// Port permutation of `v`'s adjacency slice in increasing `(weight, neighbor
    /// ident)` order: entry `k` is the local index into [`Graph::neighbors`]`(v)` of
    /// `v`'s `k`-th lightest incident edge. Precomputed whenever `v`'s run, incident
    /// weights or identities change, so "lightest incident edge" rules pay no per-call
    /// sort or allocation.
    #[inline]
    pub fn neighbor_order_by_weight(&self, v: NodeId) -> &[u32] {
        &self.adj_order[self.run(v)]
    }

    /// The edge between `u` and `v`, if present: a scan of `u`'s adjacency run.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.neighbors(u)
            .iter()
            .find(|(w, _)| *w == v)
            .map(|&(_, e)| e)
    }

    /// Weight of the edge `e`.
    pub fn weight(&self, e: EdgeId) -> Weight {
        self.edges[e.0].weight
    }

    /// Number of connected components (0 for the empty graph). Used by the churn
    /// layer to report how badly a topology delta severed the network.
    pub fn component_count(&self) -> usize {
        let n = self.node_count();
        let mut seen = vec![false; n];
        let mut stack: Vec<NodeId> = Vec::new();
        let mut components = 0;
        for start in 0..n {
            if seen[start] {
                continue;
            }
            components += 1;
            seen[start] = true;
            stack.push(NodeId(start));
            while let Some(v) = stack.pop() {
                for &(w, _) in self.neighbors(v) {
                    if !seen[w.0] {
                        seen[w.0] = true;
                        stack.push(w);
                    }
                }
            }
        }
        components
    }

    /// `true` if the graph is connected (the paper only considers connected graphs).
    pub fn is_connected(&self) -> bool {
        self.component_count() <= 1
    }

    /// Number of bits needed to store a node identity of this graph.
    pub fn ident_bits(&self) -> usize {
        bits_for(self.ids.iter().copied().max().unwrap_or(1))
    }

    /// Number of bits needed to store an edge weight of this graph.
    pub fn weight_bits(&self) -> usize {
        bits_for(self.edges.iter().map(|e| e.weight).max().unwrap_or(1))
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1, 5), (1, 2, 3), (0, 2, 9)])
    }

    #[test]
    fn builds_adjacency_both_directions() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert!(g.edge_between(NodeId(2), NodeId(0)).is_some());
        assert!(g.edge_between(NodeId(0), NodeId(0)).is_none());
    }

    #[test]
    fn edge_other_endpoint() {
        let g = triangle();
        let e = g.edge(EdgeId(0));
        assert_eq!(e.other(NodeId(0)), NodeId(1));
        assert_eq!(e.other(NodeId(1)), NodeId(0));
        assert!(e.touches(NodeId(0)));
        assert!(!e.touches(NodeId(2)));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_other_panics_for_non_endpoint() {
        let g = triangle();
        g.edge(EdgeId(0)).other(NodeId(2));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loops() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(0), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicate_edges() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(1), NodeId(0), 2);
    }

    #[test]
    fn default_identities_are_distinct_and_positive() {
        let g = Graph::new(5);
        let ids: Vec<_> = g.nodes().map(|v| g.ident(v)).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        assert_eq!(g.min_ident_node(), NodeId(0));
        assert_eq!(g.node_with_ident(3), Some(NodeId(2)));
        assert_eq!(g.node_with_ident(77), None);
    }

    #[test]
    fn set_idents_changes_root_election() {
        let mut g = triangle();
        g.set_idents(vec![30, 10, 20]);
        assert_eq!(g.min_ident_node(), NodeId(1));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn set_idents_rejects_duplicates() {
        let mut g = triangle();
        g.set_idents(vec![1, 1, 2]);
    }

    #[test]
    fn connectivity() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(2), NodeId(3), 1);
        assert!(!g.is_connected());
        g.add_edge(NodeId(1), NodeId(2), 1);
        assert!(g.is_connected());
        assert!(Graph::new(0).is_connected());
        assert!(Graph::new(1).is_connected());
    }

    #[test]
    fn csr_neighbors_match_incremental_construction() {
        // Bulk CSR construction and edge-by-edge insertion must agree exactly,
        // including the per-node insertion order of the adjacency slices.
        let edges = [(0, 1, 5), (1, 2, 3), (0, 2, 9), (2, 3, 1), (1, 3, 7)];
        let bulk = Graph::from_edges(4, &edges);
        let mut incremental = Graph::new(4);
        for &(u, v, w) in &edges {
            incremental.add_edge(NodeId(u), NodeId(v), w);
        }
        assert_eq!(bulk, incremental);
        for v in bulk.nodes() {
            assert_eq!(bulk.neighbors(v), incremental.neighbors(v));
            assert_eq!(bulk.degree(v), bulk.neighbors(v).len());
        }
        // Every neighbor entry names an edge that really touches both endpoints.
        for v in bulk.nodes() {
            for &(w, e) in bulk.neighbors(v) {
                assert!(bulk.edge(e).touches(v));
                assert!(bulk.edge(e).touches(w));
                assert_eq!(bulk.edge(e).other(v), w);
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn bulk_construction_rejects_duplicates() {
        let _ = Graph::from_edges(3, &[(0, 1, 1), (1, 0, 2)]);
    }

    #[test]
    fn weight_order_is_sorted_and_tracks_mutations() {
        let assert_order = |g: &Graph| {
            for v in g.nodes() {
                let nbrs = g.neighbors(v);
                let order = g.neighbor_order_by_weight(v);
                assert_eq!(order.len(), nbrs.len());
                let keys: Vec<_> = order
                    .iter()
                    .map(|&k| {
                        let (w, e) = nbrs[k as usize];
                        (g.weight(e), g.ident(w))
                    })
                    .collect();
                assert!(
                    keys.windows(2).all(|p| p[0] <= p[1]),
                    "node {v:?}: {keys:?}"
                );
                let mut seen: Vec<u32> = order.to_vec();
                seen.sort_unstable();
                assert_eq!(seen, (0..nbrs.len() as u32).collect::<Vec<_>>());
            }
        };
        let mut g = Graph::from_edges(4, &[(0, 1, 5), (1, 2, 3), (0, 2, 9), (2, 3, 1), (1, 3, 7)]);
        assert_order(&g);
        // add_edge edits the endpoints' runs (and their orders) in place.
        let mut grown = g.clone();
        grown.add_edge(NodeId(0), NodeId(3), 2);
        assert_order(&grown);
        // Identity reassignment re-breaks weight ties.
        g.set_idents(vec![40, 30, 20, 10]);
        assert_order(&g);
    }

    #[test]
    fn bit_measures() {
        let g = triangle();
        assert_eq!(g.ident_bits(), 2); // identities 1..=3
        assert_eq!(g.weight_bits(), 4); // max weight 9
        assert_eq!(g.max_degree(), 2);
    }
}
