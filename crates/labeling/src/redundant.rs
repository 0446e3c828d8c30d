//! The *redundant* (distance + subtree-size) proof-labeling scheme of §IV, including the
//! pruning discipline (constraints C1/C2) and the verification table of Lemma 4.1.
//!
//! The point of the redundancy is **malleability**: while an edge switch
//! `T ← T + e − f` is in progress, the labels along the affected paths can be *pruned*
//! (one of the two components replaced by `⊥`) in a way that keeps every verifier
//! accepting, so the switch never raises an alarm and the algorithm stays loop-free.

use stst_graph::{Graph, Ident, NodeId, Tree};
use stst_runtime::bits::{BitReader, BitWriter};
use stst_runtime::{Codec, CodecCtx};

use crate::scheme::{Instance, ProofLabelingScheme};

/// Label of the redundant scheme: root identity plus optional distance and subtree size.
/// A label with both components pruned (`(⊥, ⊥)`) is illegal and always rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RedundantLabel {
    /// Identity of the claimed root.
    pub root: Ident,
    /// Distance to the root, or `⊥` when pruned.
    pub dist: Option<u64>,
    /// Size of the subtree rooted at the node, or `⊥` when pruned.
    pub size: Option<u64>,
}

impl RedundantLabel {
    /// A full (unpruned) label.
    pub fn full(root: Ident, dist: u64, size: u64) -> Self {
        RedundantLabel {
            root,
            dist: Some(dist),
            size: Some(size),
        }
    }

    /// The label with its size component pruned (form `(d, ⊥)`).
    pub fn pruned_to_distance(self) -> Self {
        RedundantLabel { size: None, ..self }
    }

    /// The label with its distance component pruned (form `(⊥, s)`).
    pub fn pruned_to_size(self) -> Self {
        RedundantLabel { dist: None, ..self }
    }
}

impl Codec for RedundantLabel {
    fn encoded_bits(&self, ctx: &CodecCtx) -> usize {
        CodecCtx::uint_bits(self.root, ctx.ident_bits)
            + CodecCtx::opt_uint_bits(&self.dist, ctx.count_bits)
            + CodecCtx::opt_uint_bits(&self.size, ctx.count_bits)
    }

    fn encode_into(&self, ctx: &CodecCtx, w: &mut BitWriter<'_>) {
        CodecCtx::write_uint(w, self.root, ctx.ident_bits);
        CodecCtx::write_opt_uint(w, &self.dist, ctx.count_bits);
        CodecCtx::write_opt_uint(w, &self.size, ctx.count_bits);
    }

    fn decode_from(ctx: &CodecCtx, r: &mut BitReader<'_>) -> Self {
        RedundantLabel {
            root: CodecCtx::read_uint(r, ctx.ident_bits),
            dist: CodecCtx::read_opt_uint(r, ctx.count_bits),
            size: CodecCtx::read_opt_uint(r, ctx.count_bits),
        }
    }
}

/// The redundant (malleable) proof-labeling scheme for spanning trees.
#[derive(Clone, Copy, Debug, Default)]
pub struct RedundantScheme;

impl RedundantScheme {
    /// The "check distance" predicate of the verification table: `d(v) = d(p(v)) + 1`.
    /// A parent distance with no successor in `u64` rejects.
    fn distance_ok(labels: &[RedundantLabel], v: NodeId, p: NodeId) -> bool {
        match (labels[v.0].dist, labels[p.0].dist) {
            (Some(dv), Some(dp)) => dp.checked_add(1) == Some(dv),
            _ => false,
        }
    }

    /// The "check size" predicate: `s(v) = 1 + Σ_{u ∈ children(v)} s(u)`; every child
    /// must expose a size component (by C2 a child of a size-carrying node always does
    /// in a legally pruned labeling). A sum that overflows `u64` rejects.
    fn size_ok(instance: &Instance<'_>, labels: &[RedundantLabel], v: NodeId) -> bool {
        let Some(sv) = labels[v.0].size else {
            return false;
        };
        let mut sum = 1u64;
        for c in instance.children(v) {
            match labels[c.0].size.and_then(|sc| sum.checked_add(sc)) {
                Some(next) => sum = next,
                None => return false,
            }
        }
        sv == sum
    }
}

impl ProofLabelingScheme for RedundantScheme {
    type Label = RedundantLabel;

    fn name(&self) -> &str {
        "redundant (malleable) spanning tree PLS"
    }

    fn prove(&self, graph: &Graph, tree: &Tree) -> Vec<RedundantLabel> {
        let root_ident = graph.ident(tree.root());
        let depths = tree.depths();
        let sizes = tree.subtree_sizes();
        graph
            .nodes()
            .map(|v| RedundantLabel::full(root_ident, depths[v.0] as u64, sizes[v.0] as u64))
            .collect()
    }

    fn verify_at(&self, instance: &Instance<'_>, labels: &[RedundantLabel], v: NodeId) -> bool {
        let graph = instance.graph;
        let own = labels[v.0];
        // (⊥, ⊥) is never a legal label.
        if own.dist.is_none() && own.size.is_none() {
            return false;
        }
        // Root-identity agreement with every neighbor, in all cases.
        for &(w, _) in graph.neighbors(v) {
            if labels[w.0].root != own.root {
                return false;
            }
        }
        match instance.parents[v.0] {
            None => {
                // The root: its identity must match, a present distance must be 0, and a
                // present size must satisfy the subtree equation.
                if graph.ident(v) != own.root {
                    return false;
                }
                if let Some(d) = own.dist {
                    if d != 0 {
                        return false;
                    }
                }
                if own.size.is_some() && !Self::size_ok(instance, labels, v) {
                    return false;
                }
                true
            }
            Some(p) => {
                if graph.edge_between(v, p).is_none() {
                    return false;
                }
                let parent = labels[p.0];
                // The 3×3 verification table of Lemma 4.1 (rows: label of v, columns:
                // label of p(v)).
                match (own.dist, own.size, parent.dist, parent.size) {
                    // v = (d, s)
                    (Some(_), Some(_), Some(_), Some(_)) => {
                        Self::distance_ok(labels, v, p) && Self::size_ok(instance, labels, v)
                    }
                    (Some(_), Some(_), Some(_), None) => Self::distance_ok(labels, v, p),
                    (Some(_), Some(_), None, Some(_)) => Self::size_ok(instance, labels, v),
                    // The parent exposes the illegal label (⊥, ⊥): reject here too.
                    (Some(_), Some(_), None, None) => false,
                    // v = (d, ⊥): constraint C1 requires the parent to be (d', ⊥).
                    (Some(_), None, Some(_), None) => Self::distance_ok(labels, v, p),
                    (Some(_), None, _, _) => false,
                    // v = (⊥, s): constraint C2 forbids a parent of the form (d', ⊥).
                    (None, Some(_), Some(_), None) => false,
                    (None, Some(_), _, _) => Self::size_ok(instance, labels, v),
                    // v = (⊥, ⊥) already rejected above.
                    (None, None, _, _) => false,
                }
            }
        }
    }
}

/// Incrementally repairs a full redundant labeling after a tree edit, given the already
/// repaired `depths` and `sizes` arrays of the *new* tree and the dirty regions computed
/// by the caller (the composition engine): `depth_dirty` is the set of nodes whose
/// root path changed, `size_dirty` the set of nodes whose subtree membership changed.
/// Untouched labels are exactly those of the old tree, so patching the dirty regions
/// reproduces [`RedundantScheme::prove`] on the new tree bit for bit (the root never
/// changes across a loop-free switch). Returns the number of label components written —
/// the deterministic work unit of the incremental-vs-from-scratch comparison.
pub fn repair_redundant_labels(
    labels: &mut [RedundantLabel],
    depths: &[usize],
    sizes: &[usize],
    depth_dirty: &[NodeId],
    size_dirty: &[NodeId],
) -> usize {
    for &v in depth_dirty {
        labels[v.0].dist = Some(depths[v.0] as u64);
    }
    for &v in size_dirty {
        labels[v.0].size = Some(sizes[v.0] as u64);
    }
    depth_dirty.len() + size_dirty.len()
}

/// Checks the pruning constraints C1 and C2 of §IV for a label assignment over a tree:
///
/// * C1: if `λ'(v) = (d, ⊥)` then `λ'(p(v)) = (d', ⊥)`;
/// * C2: if `λ'(v) = (⊥, s)` then `λ'(p(v))` is `(d', s')` or `(⊥, s')`;
/// * no label is `(⊥, ⊥)`.
pub fn pruning_is_legal(tree: &Tree, labels: &[RedundantLabel]) -> bool {
    for v in tree.nodes() {
        let own = labels[v.0];
        if own.dist.is_none() && own.size.is_none() {
            return false;
        }
        if let Some(p) = tree.parent(v) {
            let parent = labels[p.0];
            if own.dist.is_some() && own.size.is_none() && parent.size.is_some() {
                return false; // C1 violated
            }
            if own.dist.is_none() && own.size.is_some() && parent.size.is_none() {
                return false; // C2 violated
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use stst_graph::bfs::bfs_tree;
    use stst_graph::generators;

    fn setup(seed: u64) -> (Graph, Tree, Vec<RedundantLabel>) {
        let g = generators::workload(20, 0.2, seed);
        let t = bfs_tree(&g, g.min_ident_node());
        let labels = RedundantScheme.prove(&g, &t);
        (g, t, labels)
    }

    #[test]
    fn completeness_with_full_labels() {
        for seed in 0..5 {
            let (g, t, _) = setup(seed);
            assert!(RedundantScheme.accepts_legal(&g, &t));
        }
    }

    #[test]
    fn lemma_4_1_pruning_along_root_paths_is_accepted() {
        // Prune to (d, ⊥) along the path from the root to some node w, and to (⊥, s) in
        // the subtree of some node v — exactly the shapes used during a switch (Fig. 1b).
        let (g, t, mut labels) = setup(1);
        let w = NodeId(17 % g.node_count());
        for x in t.path_to_root(w) {
            labels[x.0] = labels[x.0].pruned_to_distance();
        }
        assert!(pruning_is_legal(&t, &labels));
        let outcome = RedundantScheme.verify_all(&Instance::from_tree(&g, &t), &labels);
        assert!(outcome.accepted(), "rejecting: {:?}", outcome.rejecting);
    }

    #[test]
    fn lemma_4_1_pruning_a_subtree_to_sizes_is_accepted() {
        let (g, t, mut labels) = setup(2);
        // Pick an internal node and prune its whole subtree (including itself) to (⊥, s).
        let children = t.children_table();
        let v = t
            .nodes()
            .find(|&v| !children[v.0].is_empty() && t.parent(v).is_some())
            .expect("some internal non-root node exists");
        let mut stack = vec![v];
        while let Some(x) = stack.pop() {
            labels[x.0] = labels[x.0].pruned_to_size();
            stack.extend(children[x.0].iter().copied());
        }
        assert!(pruning_is_legal(&t, &labels));
        let outcome = RedundantScheme.verify_all(&Instance::from_tree(&g, &t), &labels);
        assert!(outcome.accepted(), "rejecting: {:?}", outcome.rejecting);
    }

    #[test]
    fn illegal_prunings_are_rejected() {
        let (g, t, labels) = setup(3);
        // C1 violation: a (d, ⊥) node whose parent keeps its size.
        let v = t.nodes().find(|&v| t.parent(v).is_some()).unwrap();
        let mut bad = labels.clone();
        bad[v.0] = bad[v.0].pruned_to_distance();
        assert!(!pruning_is_legal(&t, &bad));
        assert!(!RedundantScheme
            .verify_all(&Instance::from_tree(&g, &t), &bad)
            .accepted());
        // (⊥, ⊥) is always rejected.
        let mut bad = labels;
        bad[v.0] = RedundantLabel {
            root: bad[v.0].root,
            dist: None,
            size: None,
        };
        assert!(!RedundantScheme
            .verify_all(&Instance::from_tree(&g, &t), &bad)
            .accepted());
    }

    #[test]
    fn soundness_cycles_are_rejected_even_with_pruned_labels() {
        // The proof of Lemma 4.1: on a parent-pointer cycle either some label is
        // (d, ⊥) — then C1 forces the whole cycle to be (·, ⊥) and the distance check
        // fails — or all labels carry sizes and the size check fails.
        let g = generators::ring(6);
        let parents: Vec<Option<NodeId>> = (0..6).map(|i| Some(NodeId((i + 1) % 6))).collect();
        let inst = Instance {
            graph: &g,
            parents: &parents,
        };
        // All labels carry sizes.
        let labels: Vec<RedundantLabel> = (0..6)
            .map(|i| RedundantLabel {
                root: 1,
                dist: None,
                size: Some(6 - i as u64),
            })
            .collect();
        assert!(!RedundantScheme.verify_all(&inst, &labels).accepted());
        // All labels distance-only.
        let labels: Vec<RedundantLabel> = (0..6)
            .map(|i| RedundantLabel {
                root: 1,
                dist: Some(i as u64),
                size: None,
            })
            .collect();
        assert!(!RedundantScheme.verify_all(&inst, &labels).accepted());
        // Mixed labels violate C1 somewhere on the cycle.
        let labels: Vec<RedundantLabel> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    RedundantLabel {
                        root: 1,
                        dist: Some(i as u64),
                        size: None,
                    }
                } else {
                    RedundantLabel {
                        root: 1,
                        dist: None,
                        size: Some(10 + i as u64),
                    }
                }
            })
            .collect();
        assert!(!RedundantScheme.verify_all(&inst, &labels).accepted());
    }

    #[test]
    fn label_bits_account_for_pruning() {
        let (g, _, _) = setup(4);
        let ctx = CodecCtx::for_graph(&g);
        let full = RedundantLabel::full(5, 3, 9);
        let bits_full = RedundantScheme.label_bits(&ctx, &full);
        let bits_pruned = RedundantScheme.label_bits(&ctx, &full.pruned_to_distance());
        assert!(bits_pruned < bits_full);
    }

    #[test]
    fn codec_round_trips_full_pruned_and_garbage_labels() {
        use stst_runtime::codec::assert_codec_roundtrip;
        let (g, t, labels) = setup(5);
        let ctx = CodecCtx::for_graph(&g);
        for label in &labels {
            assert_codec_roundtrip(&ctx, label);
            assert_codec_roundtrip(&ctx, &label.pruned_to_distance());
            assert_codec_roundtrip(&ctx, &label.pruned_to_size());
        }
        let _ = t;
        // The illegal (⊥, ⊥) shape and out-of-width garbage still round-trip exactly
        // (a fault can produce them; the verifier — not the codec — rejects them).
        assert_codec_roundtrip(
            &ctx,
            &RedundantLabel {
                root: u64::MAX,
                dist: None,
                size: None,
            },
        );
        assert_codec_roundtrip(
            &ctx,
            &RedundantLabel {
                root: 0,
                dist: Some(u64::MAX),
                size: Some(0),
            },
        );
    }

    /// The labeling pruned everywhere to `(d, ⊥)`, and the one pruned everywhere to
    /// `(⊥, s)`.
    fn views(labels: &[RedundantLabel]) -> [Vec<RedundantLabel>; 2] {
        [
            RedundantLabel::pruned_to_distance as fn(RedundantLabel) -> RedundantLabel,
            RedundantLabel::pruned_to_size,
        ]
        .map(|prune| labels.iter().map(|&l| prune(l)).collect())
    }

    /// The two views are checked by exactly the classical distance-based and
    /// subtree-size-based schemes: completeness, soundness on two roots and on cycles,
    /// local detection of a wrong distance or size, and `O(log n)`-bit labels.
    #[test]
    fn pruned_views_are_the_distance_and_size_schemes() {
        let accepted = |g: &Graph, parents: &[Option<NodeId>], labels: &[RedundantLabel]| {
            let inst = Instance { graph: g, parents };
            RedundantScheme.verify_all(&inst, labels).accepted()
        };
        for seed in 0..5 {
            let g = generators::workload(24, 0.2, seed);
            let t = bfs_tree(&g, g.min_ident_node());
            for view in views(&RedundantScheme.prove(&g, &t)) {
                assert!(accepted(&g, t.parents(), &view));
            }
        }

        // Two roots: nodes 1 and 2 are adjacent with different claimed roots.
        let g = generators::path(4);
        let parents = [None, Some(NodeId(0)), None, Some(NodeId(2))];
        let forged = [(1, 0, 2), (1, 1, 1), (3, 0, 2), (3, 1, 1)]
            .map(|(root, dist, size)| RedundantLabel::full(root, dist, size));
        for view in views(&forged) {
            assert!(!accepted(&g, &parents, &view));
        }

        // A parent-pointer cycle is rejected whatever the labels: distances would have
        // to decrease towards the parent forever, and sizes to increase. The forged
        // labels satisfy both equations everywhere but at one edge of the cycle.
        for n in [4u64, 5] {
            let g = generators::ring(n as usize);
            let parents: Vec<_> = (0..n)
                .map(|i| Some(NodeId(((i + 1) % n) as usize)))
                .collect();
            for base in 0..6 {
                let forged: Vec<_> = (0..n)
                    .map(|i| RedundantLabel::full(1, base + n - i, base + i + 1))
                    .collect();
                for view in views(&forged) {
                    assert!(!accepted(&g, &parents, &view));
                }
            }
        }

        // A wrong distance is pinpointed at the node or its child; a tampered size is
        // detected.
        let g = generators::path(5);
        let t = bfs_tree(&g, NodeId(0));
        let [mut labels, _] = views(&RedundantScheme.prove(&g, &t));
        labels[3].dist = Some(7);
        let outcome = RedundantScheme.verify_all(&Instance::from_tree(&g, &t), &labels);
        assert!(!outcome.accepted());
        assert!(outcome.rejecting.iter().all(|v| v.0 == 3 || v.0 == 4));
        let g = generators::grid(3, 3);
        let t = bfs_tree(&g, NodeId(0));
        let [_, mut labels] = views(&RedundantScheme.prove(&g, &t));
        labels[4].size = labels[4].size.map(|s| s + 1);
        assert!(!accepted(&g, t.parents(), &labels));

        // The root's size is n, and both views stay within O(log n) bits.
        let g = generators::workload(200, 0.05, 1);
        let ctx = CodecCtx::for_graph(&g);
        let t = bfs_tree(&g, g.min_ident_node());
        let labels = RedundantScheme.prove(&g, &t);
        assert_eq!(labels[t.root().0].size, Some(200));
        for view in views(&labels) {
            let max_bits = RedundantScheme.max_label_bits(&ctx, &view);
            assert!(max_bits <= 2 * 10 + 2, "{max_bits} bits at n = 200");
        }
    }

    /// The distance check has no successor for `u64::MAX`: a child claiming the wrapped
    /// distance 0 is rejected instead of accepted (or panicking on the addition).
    #[test]
    fn a_distance_without_successor_is_rejected() {
        let g = generators::path(4);
        let t = bfs_tree(&g, NodeId(0));
        let mut labels = RedundantScheme.prove(&g, &t);
        labels[1].dist = Some(u64::MAX);
        labels[2].dist = Some(0);
        let inst = Instance::from_tree(&g, &t);
        assert!(!RedundantScheme.verify_at(&inst, &labels, NodeId(2)));
        assert!(!RedundantScheme.verify_all(&inst, &labels).accepted());
    }

    /// Child sizes whose sum overflows `u64` are rejected: under wrapping arithmetic
    /// the star's centre would accept the size 1 + (2·MAX + 1) = 0.
    #[test]
    fn an_overflowing_size_sum_is_rejected() {
        let g = generators::star(4);
        let t = bfs_tree(&g, NodeId(0));
        let mut labels = RedundantScheme.prove(&g, &t);
        for (leaf, size) in [(1, u64::MAX), (2, u64::MAX), (3, 1)] {
            labels[leaf].size = Some(size);
        }
        labels[0].size = Some(0);
        let inst = Instance::from_tree(&g, &t);
        assert!(!RedundantScheme.verify_at(&inst, &labels, NodeId(0)));
        assert!(!RedundantScheme.verify_all(&inst, &labels).accepted());
    }
}
