//! Graph generators used as experiment workloads.
//!
//! All generators are deterministic given their `seed`, produce *connected* graphs, and
//! leave every edge with weight 1; combine with [`randomize_weights`] to obtain the
//! distinct weights assumed by the MST experiments, and with [`shuffle_idents`] to
//! decorrelate node identities from the dense indices.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::graph::{EdgeId, Graph};
use crate::ids::{Ident, NodeId, Weight};
use crate::tree::Tree;
use crate::union_find::UnionFind;

/// The path `0 - 1 - … - (n-1)`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> Graph {
    assert!(n > 0, "graphs must have at least one node");
    let edges: Vec<_> = (1..n).map(|i| (i - 1, i, 1)).collect();
    Graph::from_edges(n, &edges)
}

/// The cycle on `n ≥ 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3, "a ring needs at least three nodes");
    let mut edges: Vec<_> = (1..n).map(|i| (i - 1, i, 1)).collect();
    edges.push((n - 1, 0, 1));
    Graph::from_edges(n, &edges)
}

/// The star with center 0 and `n - 1` leaves.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> Graph {
    assert!(n > 0, "graphs must have at least one node");
    let edges: Vec<_> = (1..n).map(|i| (0, i, 1)).collect();
    Graph::from_edges(n, &edges)
}

/// The wheel on `n ≥ 4` nodes: hub 0 joined to every node of the rim cycle
/// `1 - 2 - … - (n-1) - 1`.
///
/// # Panics
///
/// Panics if `n < 4`.
pub fn wheel(n: usize) -> Graph {
    assert!(n >= 4, "a wheel needs at least four nodes");
    let mut edges: Vec<_> = (1..n).map(|i| (0, i, 1)).collect();
    edges.extend((2..n).map(|i| (i - 1, i, 1)));
    edges.push((n - 1, 1, 1));
    Graph::from_edges(n, &edges)
}

/// The complete graph on `n` nodes.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete(n: usize) -> Graph {
    assert!(n > 0, "graphs must have at least one node");
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            edges.push((i, j, 1));
        }
    }
    Graph::from_edges(n, &edges)
}

/// The interior (non-wrapping) edges of a `rows × cols` grid, shared by [`grid`] and
/// [`torus`].
fn grid_edges(rows: usize, cols: usize) -> Vec<(usize, usize, Weight)> {
    let at = |r: usize, c: usize| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((at(r, c), at(r, c + 1), 1));
            }
            if r + 1 < rows {
                edges.push((at(r, c), at(r + 1, c), 1));
            }
        }
    }
    edges
}

/// The `rows × cols` grid graph.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    Graph::from_edges(rows * cols, &grid_edges(rows, cols))
}

/// The `rows × cols` torus (grid with wrap-around edges). Needs both dimensions ≥ 3 to
/// stay a simple graph.
///
/// # Panics
///
/// Panics if either dimension is `< 3`.
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(
        rows >= 3 && cols >= 3,
        "torus dimensions must be at least 3"
    );
    let at = |r: usize, c: usize| r * cols + c;
    let mut edges = grid_edges(rows, cols);
    for r in 0..rows {
        edges.push((at(r, cols - 1), at(r, 0), 1));
    }
    for c in 0..cols {
        edges.push((at(rows - 1, c), at(0, c), 1));
    }
    Graph::from_edges(rows * cols, &edges)
}

/// A uniformly random labelled tree on `n` nodes (via a random Prüfer-like attachment:
/// node `i` attaches to a uniformly random earlier node).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree(n: usize, seed: u64) -> Graph {
    assert!(n > 0, "graphs must have at least one node");
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<_> = (1..n).map(|i| (rng.gen_range(0..i), i, 1)).collect();
    Graph::from_edges(n, &edges)
}

/// A caterpillar: a spine path of `spine` nodes, each carrying `legs` pendant leaves.
/// Worst-case-ish workload for NCA labels and degree-based potentials.
///
/// # Panics
///
/// Panics if `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    assert!(spine > 0, "the spine must be non-empty");
    let n = spine + spine * legs;
    let mut edges: Vec<_> = (1..spine).map(|i| (i - 1, i, 1)).collect();
    let mut next = spine;
    for s in 0..spine {
        for _ in 0..legs {
            edges.push((s, next, 1));
            next += 1;
        }
    }
    Graph::from_edges(n, &edges)
}

/// A lollipop: a clique of `clique` nodes attached to a path of `tail` nodes.
/// Classic worst case for walk-based algorithms.
///
/// # Panics
///
/// Panics if `clique < 1`.
pub fn lollipop(clique: usize, tail: usize) -> Graph {
    assert!(clique >= 1, "the clique must be non-empty");
    let n = clique + tail;
    let mut edges = Vec::new();
    for i in 0..clique {
        for j in (i + 1)..clique {
            edges.push((i, j, 1));
        }
    }
    for i in 0..tail {
        let prev = if i == 0 { clique - 1 } else { clique + i - 1 };
        edges.push((prev, clique + i, 1));
    }
    Graph::from_edges(n, &edges)
}

/// A random spanning tree on `0..n`, the backbone that keeps [`random_connected`] and
/// [`random_sparse`] connected: the nodes in shuffled order, each attached to a uniformly
/// random earlier one. Edges are `(smaller, larger, 1)`.
fn random_backbone(n: usize, rng: &mut StdRng) -> Vec<(usize, usize, Weight)> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    (1..n)
        .map(|i| {
            let j = rng.gen_range(0..i);
            (order[j].min(order[i]), order[j].max(order[i]), 1)
        })
        .collect()
}

/// An Erdős–Rényi-style random *connected* graph: a random spanning tree plus each other
/// pair independently with probability `p`.
///
/// # Panics
///
/// Panics if `n == 0` or `p` is not in `[0, 1]`.
pub fn random_connected(n: usize, p: f64, seed: u64) -> Graph {
    assert!(n > 0, "graphs must have at least one node");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = random_backbone(n, &mut rng);
    // The pairs are visited in lexicographic order, so the sorted backbone is skipped
    // by a merge instead of a lookup per pair.
    let mut backbone: Vec<(usize, usize)> = edges.iter().map(|&(a, b, _)| (a, b)).collect();
    backbone.sort_unstable();
    let mut backbone = backbone.into_iter().peekable();
    for u in 0..n {
        for v in (u + 1)..n {
            if backbone.next_if_eq(&(u, v)).is_none() && rng.gen_bool(p) {
                edges.push((u, v, 1));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// A sparse random connected graph on `n` nodes with ~`extra` non-tree edges, built in
/// `O(n + extra)` — unlike [`random_connected`], which visits all `Θ(n²)` node pairs.
/// This is the workload of the large-scale executor benches (10⁴–10⁶ nodes).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_sparse(n: usize, extra: usize, seed: u64) -> Graph {
    assert!(n > 0, "graphs must have at least one node");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = random_backbone(n, &mut rng);
    edges.reserve(extra);
    let mut present = HashSet::with_capacity(n - 1 + extra);
    present.extend(edges.iter().map(|&(a, b, _)| (a, b)));
    let max_edges = n * (n - 1) / 2;
    let target = (n - 1 + extra).min(max_edges);
    // Rejection sampling stays cheap while the graph is sparse; bail out to keep the
    // generator total even when `extra` approaches the complete graph.
    let mut attempts = 0usize;
    let attempt_budget = 20 * (extra + 1);
    while edges.len() < target && attempts < attempt_budget {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let (a, b) = (u.min(v), u.max(v));
        if present.insert((a, b)) {
            edges.push((a, b, 1));
        }
    }
    Graph::from_edges(n, &edges)
}

/// A random connected graph with average degree approximately `avg_degree`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_with_avg_degree(n: usize, avg_degree: f64, seed: u64) -> Graph {
    assert!(n > 0, "graphs must have at least one node");
    if n == 1 {
        return Graph::new(1);
    }
    let target_edges = (avg_degree * n as f64 / 2.0).max((n - 1) as f64);
    let extra = (target_edges - (n - 1) as f64).max(0.0);
    let possible_extra = (n * (n - 1) / 2 - (n - 1)) as f64;
    let p = if possible_extra <= 0.0 {
        0.0
    } else {
        (extra / possible_extra).min(1.0)
    };
    random_connected(n, p, seed)
}

/// Replaces every edge weight with a distinct value drawn as a random permutation of
/// `1..=m` (deterministic in `seed`).
pub fn randomize_weights(graph: &Graph, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_u64);
    let mut weights: Vec<Weight> = (1..=graph.edge_count() as Weight).collect();
    weights.shuffle(&mut rng);
    let edges: Vec<_> = graph
        .edges()
        .iter()
        .enumerate()
        .map(|(i, e)| (e.u.0, e.v.0, weights[i]))
        .collect();
    let mut g = Graph::from_edges(graph.node_count(), &edges);
    g.set_idents(
        (0..graph.node_count())
            .map(|v| graph.ident(NodeId(v)))
            .collect(),
    );
    g
}

/// Replaces node identities with a random permutation of `1..=n` (deterministic in
/// `seed`), decorrelating identities from dense indices so that min-identity leader
/// election is not trivially node 0.
pub fn shuffle_idents(graph: &Graph, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1de57_u64);
    let mut ids: Vec<Ident> = (1..=graph.node_count() as Ident).collect();
    ids.shuffle(&mut rng);
    let mut g = graph.clone();
    g.set_idents(ids);
    g
}

/// A seeded random spanning tree of `graph` (Kruskal's forest over a shuffled edge
/// order), rooted at the minimum-identity node: a starting configuration for local
/// searches that is not a BFS tree.
///
/// # Panics
///
/// Panics if `graph` is disconnected.
pub fn random_spanning_tree(graph: &Graph, seed: u64) -> Tree {
    let mut order: Vec<EdgeId> = graph.edge_ids().collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x7ee_u64));
    let mut uf = UnionFind::new(graph.node_count());
    let chosen: Vec<EdgeId> = order
        .into_iter()
        .filter(|&e| uf.union(graph.edge(e).u.0, graph.edge(e).v.0))
        .collect();
    Tree::from_edge_set(graph, &chosen, graph.min_ident_node())
        .expect("random spanning trees need a connected graph")
}

/// The standard workload of the experiments: a random connected graph with shuffled
/// identities and distinct random weights.
pub fn workload(n: usize, p: f64, seed: u64) -> Graph {
    let g = random_connected(n, p, seed);
    let g = shuffle_idents(&g, seed.wrapping_add(1));
    randomize_weights(&g, seed.wrapping_add(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_counts() {
        assert_eq!(path(5).edge_count(), 4);
        assert_eq!(ring(5).edge_count(), 5);
        assert_eq!(star(5).edge_count(), 4);
        assert_eq!(complete(5).edge_count(), 10);
        assert_eq!(grid(3, 4).edge_count(), 3 * 3 + 2 * 4);
        assert_eq!(torus(3, 3).edge_count(), 18);
        assert_eq!(random_tree(17, 3).edge_count(), 16);
        assert_eq!(caterpillar(4, 2).node_count(), 12);
        assert_eq!(lollipop(4, 3).node_count(), 7);
    }

    #[test]
    fn everything_is_connected() {
        for (name, g) in [
            ("path", path(8)),
            ("ring", ring(8)),
            ("star", star(8)),
            ("complete", complete(8)),
            ("grid", grid(3, 5)),
            ("torus", torus(3, 4)),
            ("random_tree", random_tree(20, 11)),
            ("caterpillar", caterpillar(5, 3)),
            ("lollipop", lollipop(5, 4)),
            ("random_connected", random_connected(20, 0.1, 42)),
            ("random_sparse", random_sparse(200, 150, 42)),
            ("avg_degree", random_with_avg_degree(30, 4.0, 42)),
            ("workload", workload(25, 0.15, 9)),
        ] {
            assert!(g.is_connected(), "{name} should be connected");
        }
    }

    #[test]
    fn generators_are_deterministic_in_seed() {
        assert_eq!(random_connected(30, 0.2, 5), random_connected(30, 0.2, 5));
        assert_ne!(random_connected(30, 0.2, 5), random_connected(30, 0.2, 6));
        assert_eq!(workload(20, 0.3, 5), workload(20, 0.3, 5));
    }

    #[test]
    fn randomized_weights_are_distinct_permutation() {
        let g = randomize_weights(&complete(6), 3);
        let mut w: Vec<_> = g.edges().iter().map(|e| e.weight).collect();
        w.sort_unstable();
        assert_eq!(w, (1..=15).collect::<Vec<_>>());
    }

    #[test]
    fn shuffled_idents_are_a_permutation() {
        let g = shuffle_idents(&path(10), 4);
        let mut ids: Vec<_> = g.nodes().map(|v| g.ident(v)).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn random_sparse_hits_the_requested_edge_budget() {
        let g = random_sparse(1_000, 3_000, 9);
        assert!(g.is_connected());
        assert!(g.edge_count() >= 999, "tree backbone present");
        assert!(
            (3_500..=3_999).contains(&g.edge_count()),
            "~extra edges on top of the tree, got {}",
            g.edge_count()
        );
        assert_eq!(
            random_sparse(1_000, 3_000, 9),
            random_sparse(1_000, 3_000, 9)
        );
        // Near-complete requests stay bounded by the simple-graph limit.
        let dense = random_sparse(8, 1_000, 1);
        assert!(dense.edge_count() <= 28);
    }

    #[test]
    fn avg_degree_is_in_the_ballpark() {
        let g = random_with_avg_degree(100, 6.0, 1);
        let avg = 2.0 * g.edge_count() as f64 / g.node_count() as f64;
        assert!(
            avg > 3.0 && avg < 9.0,
            "average degree {avg} too far from 6"
        );
    }

    #[test]
    fn wheels_and_random_spanning_trees() {
        let g = wheel(7);
        assert_eq!(g.edge_count(), 12);
        assert_eq!(g.degree(NodeId(0)), 6);
        assert!((1..7).all(|v| g.degree(NodeId(v)) == 3));
        let graph = workload(40, 0.2, 3);
        let t = random_spanning_tree(&graph, 8);
        assert!(t.is_spanning_tree_of(&graph));
        assert_eq!(t.root(), graph.min_ident_node());
        assert_eq!(t, random_spanning_tree(&graph, 8));
        assert_ne!(t, random_spanning_tree(&graph, 9));
    }

    /// FNV-1a over the node count, the identities and the edge list `(u, v, weight)` in
    /// edge-id order.
    fn graph_hash(g: &Graph) -> u64 {
        std::iter::once(g.node_count() as u64)
            .chain(g.nodes().map(|v| g.ident(v)))
            .chain(
                g.edges()
                    .iter()
                    .flat_map(|e| [e.u.0 as u64, e.v.0 as u64, e.weight]),
            )
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn generators_keep_their_pinned_hashes() {
        // Recorded with the generators that probed a hash set for every node pair: the
        // random draws, their order and hence every graph must stay the same.
        let connected = [
            (1usize, 0.5f64, 3u64, 0x581c_d0fa_58d9_9645u64),
            (40, 0.0, 1, 0x826d_1370_cc73_4722),
            (40, 0.3, 2, 0x5759_314a_00e9_548e),
            (40, 1.0, 3, 0xa07f_5efb_9d75_f8a5),
            (300, 0.02, 7, 0x46c3_7d29_8c04_460d),
            (1000, 0.006, 2015, 0xc9a2_b54a_2761_039f),
        ];
        for (n, p, seed, pinned) in connected {
            let g = random_connected(n, p, seed);
            assert_eq!(graph_hash(&g), pinned, "random_connected({n}, {p}, {seed})");
        }
        let sparse = [
            (1usize, 0usize, 1u64, 0x581c_d0fa_58d9_9645u64),
            (200, 150, 42, 0xf46a_04f4_f637_6048),
            (8, 1000, 1, 0xdcdf_3f82_5906_31e5),
            (5000, 2500, 71, 0x63de_6b33_ed9a_e84c),
        ];
        for (n, extra, seed, pinned) in sparse {
            let g = random_sparse(n, extra, seed);
            assert_eq!(
                graph_hash(&g),
                pinned,
                "random_sparse({n}, {extra}, {seed})"
            );
        }
        let avg = [
            (1usize, 4.0f64, 1u64, 0x581c_d0fa_58d9_9645u64),
            (100, 6.0, 1, 0xa5c7_afa9_749e_3dee),
            (30, 50.0, 2, 0x15fe_ab13_a74c_2d04),
        ];
        for (n, degree, seed, pinned) in avg {
            let g = random_with_avg_degree(n, degree, seed);
            assert_eq!(
                graph_hash(&g),
                pinned,
                "random_with_avg_degree({n}, {degree}, {seed})"
            );
        }
        let workloads = [
            (25usize, 0.15f64, 9u64, 0xda6f_e68a_fb28_8644u64),
            (50, 0.0, 4, 0xd599_7313_fc92_c40c),
            (20, 1.0, 5, 0xec4b_9785_71f4_f8da),
            (1000, 0.006, 2015, 0x1cf4_5e46_40f1_5fc9),
        ];
        for (n, p, seed, pinned) in workloads {
            let g = workload(n, p, seed);
            assert_eq!(graph_hash(&g), pinned, "workload({n}, {p}, {seed})");
        }
    }

    #[test]
    #[should_panic(expected = "at least three")]
    fn ring_needs_three_nodes() {
        let _ = ring(2);
    }
}
