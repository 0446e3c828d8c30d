//! The informative NCA labeling of §V and its proof-labeling scheme (Lemma 5.1).
//!
//! Given the labels `λ(u)` and `λ(v)` of two nodes, the label of their nearest common
//! ancestor is computable *from the labels alone*; this is what lets every node decide
//! locally whether it lies on the fundamental cycle of a non-tree edge `{u, v}`
//! (paper §V). The labeling follows the heavy-path construction of
//! Alstrup–Gavoille–Kaplan–Rauhe: the label of `v` lists, for every heavy path met on
//! the way down from the root, the identity of the path's head and the depth at which
//! the downward route leaves the path (its own depth for the last path).
//!
//! The number of light edges on a root-to-node path is at most `⌈log₂ n⌉`, so labels
//! have `O(log n)` entries. We store path heads explicitly (`O(log n)` bits each), so
//! the packed size is `O(log² n)` bits in the worst case — a deliberate engineering
//! relaxation of the `O(log n)`-bit encoding of [AGKR 2004], documented in DESIGN.md and
//! measured by experiment E3.

use std::collections::HashMap;

use stst_graph::{Graph, Ident, NodeId, Tree};
use stst_runtime::bits::{BitReader, BitWriter};
use stst_runtime::{Codec, CodecCtx};

use crate::scheme::{Instance, ProofLabelingScheme};

/// One heavy-path segment of an NCA label: the identity of the path's head and the depth
/// (within the path) at which the labelled node's root-path leaves it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Segment {
    /// Identity of the topmost node of the heavy path.
    pub head: Ident,
    /// Depth within the heavy path at which the route exits (or, for the last segment,
    /// the labelled node's own depth on its heavy path).
    pub depth: u64,
}

/// An NCA label: the sequence of heavy-path segments on the root-to-node path.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct NcaLabel {
    /// Segments from the root's heavy path down to the node's own heavy path.
    pub segments: Vec<Segment>,
}

impl Codec for NcaLabel {
    fn encoded_bits(&self, ctx: &CodecCtx) -> usize {
        CodecCtx::uint_bits(self.segments.len() as u64, ctx.len_bits)
            + self
                .segments
                .iter()
                .map(|s| {
                    CodecCtx::uint_bits(s.head, ctx.ident_bits)
                        + CodecCtx::uint_bits(s.depth, ctx.count_bits)
                })
                .sum::<usize>()
    }

    fn encode_into(&self, ctx: &CodecCtx, w: &mut BitWriter<'_>) {
        CodecCtx::write_uint(w, self.segments.len() as u64, ctx.len_bits);
        for s in &self.segments {
            CodecCtx::write_uint(w, s.head, ctx.ident_bits);
            CodecCtx::write_uint(w, s.depth, ctx.count_bits);
        }
    }

    fn decode_from(ctx: &CodecCtx, r: &mut BitReader<'_>) -> Self {
        // A corrupted length may claim more segments than the stream holds. Every
        // segment takes at least `ident_bits + count_bits + 2` bits (two escape-coded
        // fields), so this cap never shortens a valid encoding and bounds the
        // allocation.
        let min_segment_bits = u64::from(ctx.ident_bits + ctx.count_bits) + 2;
        let len = CodecCtx::read_uint(r, ctx.len_bits).min(r.remaining_bits() / min_segment_bits);
        let len = len as usize;
        let segments = (0..len)
            .map(|_| Segment {
                head: CodecCtx::read_uint(r, ctx.ident_bits),
                depth: CodecCtx::read_uint(r, ctx.count_bits),
            })
            .collect();
        NcaLabel { segments }
    }
}

impl NcaLabel {
    /// `true` if `self` labels an ancestor of the node labelled by `other`
    /// (every node is an ancestor of itself).
    pub fn is_ancestor_of(&self, other: &NcaLabel) -> bool {
        &nca_of_labels(self, other) == self
    }

    /// Tree depth of the labelled node, recovered from the label alone: the sum of the
    /// per-segment depths plus one edge per heavy-path change (each segment after the
    /// first is entered by a light edge from the previous exit node). Labels produced
    /// by [`nca_of_labels`] obey the same formula, which is what lets distance queries
    /// run as `depth(a) + depth(b) − 2·depth(nca)` without touching the tree.
    pub fn depth(&self) -> u64 {
        let hops: u64 = self.segments.iter().map(|s| s.depth).sum();
        hops + (self.segments.len() as u64).saturating_sub(1)
    }
}

/// Computes the label of the nearest common ancestor of the nodes labelled `a` and `b`,
/// using the labels alone (no access to the tree).
pub fn nca_of_labels(a: &NcaLabel, b: &NcaLabel) -> NcaLabel {
    // Longest common prefix of full (head, depth) segments.
    let mut k = 0;
    while k < a.segments.len() && k < b.segments.len() && a.segments[k] == b.segments[k] {
        k += 1;
    }
    if k == a.segments.len() {
        return a.clone(); // a is an ancestor of b (or a == b).
    }
    if k == b.segments.len() {
        return b.clone(); // b is an ancestor of a.
    }
    if a.segments[k].head == b.segments[k].head {
        // Both routes are on the same heavy path but leave it at different depths (or
        // end on it): the NCA is the shallower of the two positions on that path.
        let mut segments = a.segments[..k].to_vec();
        segments.push(Segment {
            head: a.segments[k].head,
            depth: a.segments[k].depth.min(b.segments[k].depth),
        });
        NcaLabel { segments }
    } else {
        // The routes left the previous heavy path at the same node (full prefix match)
        // but continued into different heavy paths: the NCA is that exit node, whose
        // label is exactly the common prefix.
        NcaLabel {
            segments: a.segments[..k].to_vec(),
        }
    }
}

/// The fundamental-cycle membership test of §V: node `x` lies on the fundamental cycle
/// closed by the non-tree edge `{u, v}` iff
/// `nca(x, u) = x ∧ nca(x, v) = w` or `nca(x, u) = w ∧ nca(x, v) = x`,
/// where `w = nca(u, v)`.
pub fn on_fundamental_cycle(x: &NcaLabel, u: &NcaLabel, v: &NcaLabel) -> bool {
    let w = nca_of_labels(u, v);
    let xu = nca_of_labels(x, u);
    let xv = nca_of_labels(x, v);
    (&xu == x && xv == w) || (xu == w && &xv == x)
}

/// Builds the heavy-path NCA labels of every node of `tree` (prover side).
pub fn assign_nca_labels(graph: &Graph, tree: &Tree) -> Vec<NcaLabel> {
    let n = tree.node_count();
    let sizes = tree.subtree_sizes();
    let children = tree.children_table();
    let mut labels: Vec<NcaLabel> = vec![NcaLabel::default(); n];
    let root = tree.root();
    labels[root.0] = NcaLabel {
        segments: vec![Segment {
            head: graph.ident(root),
            depth: 0,
        }],
    };
    // Top-down traversal: the heavy child continues the parent's heavy path, every other
    // child starts a new one.
    let mut stack = vec![root];
    while let Some(v) = stack.pop() {
        let heavy_child: Option<NodeId> = children[v.0]
            .iter()
            .copied()
            .max_by_key(|&c| (sizes[c.0], std::cmp::Reverse(graph.ident(c))));
        for &c in &children[v.0] {
            let mut label = labels[v.0].clone();
            if Some(c) == heavy_child {
                let last = label.segments.last_mut().expect("labels are never empty");
                last.depth += 1;
            } else {
                label.segments.push(Segment {
                    head: graph.ident(c),
                    depth: 0,
                });
            }
            labels[c.0] = label;
            stack.push(c);
        }
    }
    labels
}

/// Incrementally repairs heavy-path NCA labels after a tree edit.
///
/// `children`, `sizes` and `depths` describe the **new** tree (already repaired by the
/// caller); `seeds` is the dirty frontier — every node whose children set changed plus
/// the parents of every node whose subtree size changed (those are the only places where
/// the heavy-child selection, and hence the label derivation, can differ from the old
/// tree). Starting from each seed in top-down order, the repair re-derives the labels of
/// the seed's children and descends only while a label actually changes: a node whose
/// derived label is unchanged roots a subtree of unchanged labels (labels are a pure
/// function of the parent label and the heavy-child choice along the path). The result
/// is bit-identical to [`assign_nca_labels`] on the new tree.
///
/// Returns the number of labels rewritten (the deterministic work unit).
pub fn repair_nca_labels(
    graph: &Graph,
    children: &[Vec<NodeId>],
    sizes: &[usize],
    depths: &[usize],
    labels: &mut [NcaLabel],
    seeds: &[NodeId],
) -> usize {
    let heavy_child = |v: NodeId| -> Option<NodeId> {
        children[v.0]
            .iter()
            .copied()
            .max_by_key(|&c| (sizes[c.0], std::cmp::Reverse(graph.ident(c))))
    };
    let derive = |parent_label: &NcaLabel, heavy: Option<NodeId>, c: NodeId| -> NcaLabel {
        let mut label = parent_label.clone();
        if Some(c) == heavy {
            let last = label.segments.last_mut().expect("labels are never empty");
            last.depth += 1;
        } else {
            label.segments.push(Segment {
                head: graph.ident(c),
                depth: 0,
            });
        }
        label
    };

    let mut ordered: Vec<NodeId> = seeds.to_vec();
    ordered.sort_by_key(|&v| depths[v.0]);
    ordered.dedup();
    let mut processed = vec![false; labels.len()];
    let mut writes = 0usize;
    let mut stack: Vec<NodeId> = Vec::new();
    for &seed in &ordered {
        if processed[seed.0] {
            continue;
        }
        stack.push(seed);
        while let Some(v) = stack.pop() {
            processed[v.0] = true;
            let heavy = heavy_child(v);
            for &c in &children[v.0] {
                let label = derive(&labels[v.0], heavy, c);
                if label != labels[c.0] {
                    labels[c.0] = label;
                    writes += 1;
                    stack.push(c);
                }
            }
        }
    }
    writes
}

/// The proof-labeling scheme *for the NCA labeling itself* (Lemma 5.1): the verifier at
/// `v` checks that `v`'s label extends its parent's label in one of the two legal ways
/// (heavy continuation or new path headed by `v`), and that at most one child continues
/// `v`'s path. Combined with a spanning-tree scheme for the parent pointers, this
/// certifies that the labels support correct NCA queries.
#[derive(Clone, Copy, Debug, Default)]
pub struct NcaScheme;

impl NcaScheme {
    fn extends_parent(child: &NcaLabel, parent: &NcaLabel, child_ident: Ident) -> bool {
        let cl = child.segments.len();
        let pl = parent.segments.len();
        if cl == pl {
            // Heavy continuation: identical prefix, last depth incremented by one.
            if cl == 0 {
                return false;
            }
            child.segments[..cl - 1] == parent.segments[..pl - 1]
                && child.segments[cl - 1].head == parent.segments[pl - 1].head
                && child.segments[cl - 1].depth == parent.segments[pl - 1].depth + 1
        } else if cl == pl + 1 {
            // New heavy path headed by the child itself.
            child.segments[..pl] == parent.segments[..]
                && child.segments[pl]
                    == Segment {
                        head: child_ident,
                        depth: 0,
                    }
        } else {
            false
        }
    }
}

impl ProofLabelingScheme for NcaScheme {
    type Label = NcaLabel;

    fn name(&self) -> &str {
        "NCA labeling PLS"
    }

    fn prove(&self, graph: &Graph, tree: &Tree) -> Vec<NcaLabel> {
        assign_nca_labels(graph, tree)
    }

    fn verify_at(&self, instance: &Instance<'_>, labels: &[NcaLabel], v: NodeId) -> bool {
        let graph = instance.graph;
        let own = &labels[v.0];
        if own.segments.is_empty() {
            return false;
        }
        // At most one child of v may continue v's heavy path (checked at every node,
        // root included).
        let continuing = instance
            .children(v)
            .into_iter()
            .filter(|c| labels[c.0].segments.len() == own.segments.len())
            .count();
        if continuing > 1 {
            return false;
        }
        match instance.parents[v.0] {
            None => {
                // Root: a single segment (own identity, depth 0).
                own.segments.len() == 1
                    && own.segments[0]
                        == Segment {
                            head: graph.ident(v),
                            depth: 0,
                        }
            }
            Some(p) => {
                if graph.edge_between(v, p).is_none() {
                    return false;
                }
                Self::extends_parent(own, &labels[p.0], graph.ident(v))
            }
        }
    }
}

/// Convenience: a map from label to node, used by tests and by the simulator-side
/// decoding of labels back into nodes.
pub fn label_index(labels: &[NcaLabel]) -> HashMap<NcaLabel, NodeId> {
    labels
        .iter()
        .enumerate()
        .map(|(i, l)| (l.clone(), NodeId(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stst_graph::bfs::bfs_tree;
    use stst_graph::generators;
    use stst_graph::nca::NcaOracle;

    fn setup(n: usize, seed: u64) -> (Graph, Tree, Vec<NcaLabel>) {
        let g = generators::workload(n, 0.15, seed);
        let t = bfs_tree(&g, g.min_ident_node());
        let labels = assign_nca_labels(&g, &t);
        (g, t, labels)
    }

    #[test]
    fn labels_are_injective() {
        let (_, t, labels) = setup(60, 1);
        let index = label_index(&labels);
        assert_eq!(index.len(), t.node_count());
    }

    #[test]
    fn nca_from_labels_matches_the_oracle() {
        for seed in 0..4 {
            let (_, t, labels) = setup(40, seed);
            let oracle = NcaOracle::new(&t);
            let index = label_index(&labels);
            for u in t.nodes() {
                for v in t.nodes() {
                    let w = nca_of_labels(&labels[u.0], &labels[v.0]);
                    let expected = oracle.nca(u, v);
                    assert_eq!(index[&w], expected, "seed {seed}: nca({u}, {v})");
                }
            }
        }
    }

    #[test]
    fn ancestor_test_matches_the_oracle() {
        let (_, t, labels) = setup(30, 7);
        let oracle = NcaOracle::new(&t);
        for u in t.nodes() {
            for v in t.nodes() {
                assert_eq!(
                    labels[u.0].is_ancestor_of(&labels[v.0]),
                    oracle.is_ancestor(u, v)
                );
            }
        }
    }

    #[test]
    fn cycle_membership_matches_the_tree_path() {
        for seed in 0..4 {
            let (g, t, labels) = setup(28, seed);
            for e in g.edge_ids() {
                let edge = g.edge(e);
                if t.contains_edge(edge.u, edge.v) {
                    continue;
                }
                let cycle: std::collections::HashSet<NodeId> =
                    t.fundamental_cycle_nodes(&g, e).into_iter().collect();
                for x in t.nodes() {
                    let claimed =
                        on_fundamental_cycle(&labels[x.0], &labels[edge.u.0], &labels[edge.v.0]);
                    assert_eq!(
                        claimed,
                        cycle.contains(&x),
                        "seed {seed}, edge {e:?}, node {x}"
                    );
                }
            }
        }
    }

    #[test]
    fn label_sizes_stay_small() {
        // Number of segments is bounded by the number of light edges + 1 ≤ log₂ n + 1.
        let (g, _, labels) = setup(256, 3);
        let ctx = CodecCtx::for_graph(&g);
        let max_segments = labels.iter().map(|l| l.segments.len()).max().unwrap();
        assert!(max_segments <= 9, "got {max_segments} segments for n = 256");
        let max_bits = labels.iter().map(|l| l.encoded_bits(&ctx)).max().unwrap();
        assert!(
            max_bits <= 9 * (11 + 10) + 8,
            "labels too large: {max_bits} bits"
        );
    }

    #[test]
    fn codec_round_trips_labels_including_the_empty_one() {
        use stst_runtime::codec::assert_codec_roundtrip;
        let (g, _, labels) = setup(48, 2);
        let ctx = CodecCtx::for_graph(&g);
        for label in &labels {
            assert_codec_roundtrip(&ctx, label);
        }
        // The empty label (a corrupt shape the verifier rejects) and out-of-width
        // garbage still round-trip exactly.
        assert_codec_roundtrip(&ctx, &NcaLabel::default());
        assert_codec_roundtrip(
            &ctx,
            &NcaLabel {
                segments: vec![Segment {
                    head: u64::MAX,
                    depth: u64::MAX,
                }],
            },
        );
    }

    #[test]
    fn path_and_star_extremes() {
        // On a path, a single heavy path covers everything: one segment per label.
        let g = generators::path(32);
        let t = bfs_tree(&g, NodeId(0));
        let labels = assign_nca_labels(&g, &t);
        assert!(labels.iter().all(|l| l.segments.len() == 1));
        // On a star, exactly one leaf continues the center's heavy path; every other
        // leaf starts its own path (two segments).
        let g = generators::star(16);
        let t = bfs_tree(&g, NodeId(0));
        let labels = assign_nca_labels(&g, &t);
        let two_segment_leaves = labels
            .iter()
            .skip(1)
            .filter(|l| l.segments.len() == 2)
            .count();
        assert_eq!(two_segment_leaves, 14);
        assert!(labels.iter().all(|l| l.segments.len() <= 2));
    }

    #[test]
    fn scheme_completeness_and_soundness() {
        let (g, t, labels) = setup(36, 5);
        assert!(NcaScheme.accepts_legal(&g, &t));
        // Tamper with one label: some node rejects.
        let mut bad = labels.clone();
        let v = t.nodes().find(|&v| t.parent(v).is_some()).unwrap();
        bad[v.0].segments.last_mut().unwrap().depth += 1;
        assert!(!NcaScheme
            .verify_all(&Instance::from_tree(&g, &t), &bad)
            .accepted());
        // Two children continuing the same heavy path: the parent rejects. Rewrite the
        // label of a *light* child (one that currently starts its own path) so that it
        // also claims to continue the parent's path.
        let mut bad = labels;
        let (parent, light_child) = t
            .nodes()
            .find_map(|v| {
                t.children(v)
                    .into_iter()
                    .find(|c| bad[c.0].segments.len() == bad[v.0].segments.len() + 1)
                    .filter(|_| t.children(v).len() >= 2)
                    .map(|c| (v, c))
            })
            .expect("some node has both a heavy and a light child");
        bad[light_child.0] = NcaLabel {
            segments: {
                let mut s = bad[parent.0].segments.clone();
                let last = s.last_mut().unwrap();
                last.depth += 1;
                s
            },
        };
        assert!(!NcaScheme
            .verify_all(&Instance::from_tree(&g, &t), &bad)
            .accepted());
    }
}
