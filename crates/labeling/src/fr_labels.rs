//! The FR-tree proof-labeling scheme of §VIII (Lemma 8.1).
//!
//! Certifying that an arbitrary spanning tree has degree ≤ OPT + 1 is impossible with
//! short labels unless NP = co-NP (Proposition 8.1), so the paper certifies membership
//! in the subclass of **FR-trees** instead: trees admitting a good/bad marking such that
//! (1) max-degree nodes are bad, (2) nodes of degree ≤ k − 2 are good, and (3) no graph
//! edge joins good nodes of two different fragments (components of the tree minus the
//! bad nodes). Fürer–Raghavachari's theorem then bounds the degree by OPT + 1.
//!
//! The label of a node carries the tree degree `k`, its good/bad mark, and — for good
//! nodes — a certified pointer into its fragment (the fragment head's identity plus the
//! distance to it inside the fragment), so that fragment identities cannot be forged.
//! An extra `subtree_max_degree` field, aggregated bottom-up along the (separately
//! certified) spanning tree, prevents overstating `k`.

use stst_graph::fr::FrCertificate;
use stst_graph::{Graph, Ident, NodeId, Tree};
use stst_runtime::bits::{BitReader, BitWriter};
use stst_runtime::{Codec, CodecCtx};

use crate::scheme::{Instance, ProofLabelingScheme};

/// Label of the FR-tree scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrLabel {
    /// The degree `k` of the tree (claimed; certified via `subtree_max_degree`).
    pub tree_degree: u64,
    /// Maximum tree degree within the node's subtree (convergecast certificate for
    /// `tree_degree`).
    pub subtree_max_degree: u64,
    /// `true` if the node is marked good.
    pub good: bool,
    /// For good nodes: the identity of the fragment head (the smallest identity in the
    /// fragment) and the distance to it within the fragment. `None` for bad nodes.
    pub fragment: Option<(Ident, u64)>,
}

impl Codec for FrLabel {
    fn encoded_bits(&self, ctx: &CodecCtx) -> usize {
        CodecCtx::uint_bits(self.tree_degree, ctx.count_bits)
            + CodecCtx::uint_bits(self.subtree_max_degree, ctx.count_bits)
            + 1
            + 1
            + self.fragment.map_or(0, |(head, dist)| {
                CodecCtx::uint_bits(head, ctx.ident_bits)
                    + CodecCtx::uint_bits(dist, ctx.count_bits)
            })
    }

    fn encode_into(&self, ctx: &CodecCtx, w: &mut BitWriter<'_>) {
        CodecCtx::write_uint(w, self.tree_degree, ctx.count_bits);
        CodecCtx::write_uint(w, self.subtree_max_degree, ctx.count_bits);
        w.write(u64::from(self.good), 1);
        match self.fragment {
            None => w.write(0, 1),
            Some((head, dist)) => {
                w.write(1, 1);
                CodecCtx::write_uint(w, head, ctx.ident_bits);
                CodecCtx::write_uint(w, dist, ctx.count_bits);
            }
        }
    }

    fn decode_from(ctx: &CodecCtx, r: &mut BitReader<'_>) -> Self {
        let tree_degree = CodecCtx::read_uint(r, ctx.count_bits);
        let subtree_max_degree = CodecCtx::read_uint(r, ctx.count_bits);
        let good = r.read(1) == 1;
        let fragment = (r.read(1) == 1).then(|| {
            let head = CodecCtx::read_uint(r, ctx.ident_bits);
            let dist = CodecCtx::read_uint(r, ctx.count_bits);
            (head, dist)
        });
        FrLabel {
            tree_degree,
            subtree_max_degree,
            good,
            fragment,
        }
    }
}

/// The FR-tree proof-labeling scheme.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrScheme;

impl FrScheme {
    /// The labels of the FR-tree `tree` under the marking `cert`, which must be the
    /// canonical one: [`stst_graph::fr::fr_certificate`]'s, or the
    /// [`stst_graph::fr::FrStep::Certified`] verdict of an improvement step on `tree`
    /// (the same propagation). [`ProofLabelingScheme::prove`] is this function on
    /// `fr_certificate`'s marking.
    pub fn prove_certified(
        &self,
        graph: &Graph,
        tree: &Tree,
        cert: &FrCertificate,
    ) -> Vec<FrLabel> {
        let k = cert.degree as u64;
        // Distance to the fragment head within the fragment, for good nodes.
        let n = graph.node_count();
        let mut frag_dist = vec![0u64; n];
        let mut frag_head: Vec<Option<Ident>> = vec![None; n];
        // Fragment heads: smallest identity among the good nodes of each fragment
        // (fragments are named by a dense index).
        let mut head_of: Vec<Option<NodeId>> = vec![None; n];
        for v in graph.nodes() {
            if cert.good[v.0] {
                let entry = &mut head_of[cert.fragment[v.0]];
                if entry.is_none_or(|head| graph.ident(v) < graph.ident(head)) {
                    *entry = Some(v);
                }
            }
        }
        // BFS inside each fragment from its head (fragments are subtrees of T restricted
        // to good nodes). Fragments are disjoint, so one `seen` array serves them all.
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        for (f, head) in head_of.into_iter().enumerate() {
            let Some(head) = head else { continue };
            queue.push_back(head);
            frag_dist[head.0] = 0;
            frag_head[head.0] = Some(graph.ident(head));
            seen[head.0] = true;
            while let Some(v) = queue.pop_front() {
                for &(w, _) in graph.neighbors(v) {
                    if !seen[w.0]
                        && cert.good[w.0]
                        && cert.fragment[w.0] == f
                        && tree.contains_edge(v, w)
                    {
                        seen[w.0] = true;
                        frag_dist[w.0] = frag_dist[v.0] + 1;
                        frag_head[w.0] = Some(graph.ident(head));
                        queue.push_back(w);
                    }
                }
            }
        }
        // Subtree max degree, bottom-up.
        let children = tree.children_table();
        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        let mut stack = vec![tree.root()];
        while let Some(v) = stack.pop() {
            order.push(v);
            stack.extend(children[v.0].iter().copied());
        }
        let mut submax = vec![0u64; n];
        for &v in order.iter().rev() {
            let mut m = (children[v.0].len() + usize::from(tree.parent(v).is_some())) as u64;
            for &c in &children[v.0] {
                m = m.max(submax[c.0]);
            }
            submax[v.0] = m;
        }
        graph
            .nodes()
            .map(|v| FrLabel {
                tree_degree: k,
                subtree_max_degree: submax[v.0],
                good: cert.good[v.0],
                fragment: if cert.good[v.0] {
                    Some((
                        frag_head[v.0].expect("good nodes belong to a fragment"),
                        frag_dist[v.0],
                    ))
                } else {
                    None
                },
            })
            .collect()
    }
}

impl ProofLabelingScheme for FrScheme {
    type Label = FrLabel;

    fn name(&self) -> &str {
        "FR-tree PLS"
    }

    /// The canonical marking: degree ≥ k − 1 nodes start bad and the propagation of
    /// [`stst_graph::fr::fr_certificate`] decides the rest.
    ///
    /// # Panics
    ///
    /// Panics if `tree` is not an FR-tree of `graph` (there is nothing to certify then);
    /// use [`stst_graph::fr::is_fr_tree`] to check first.
    fn prove(&self, graph: &Graph, tree: &Tree) -> Vec<FrLabel> {
        let cert = stst_graph::fr::fr_certificate(graph, tree)
            .expect("the prover is only defined on FR-trees (Definition 8.1)");
        self.prove_certified(graph, tree, &cert)
    }

    fn verify_at(&self, instance: &Instance<'_>, labels: &[FrLabel], v: NodeId) -> bool {
        let graph = instance.graph;
        let own = labels[v.0];
        let k = own.tree_degree;
        // Everyone must agree on k.
        for &(w, _) in graph.neighbors(v) {
            if labels[w.0].tree_degree != k {
                return false;
            }
        }
        // Tree degree of v according to the parent pointers.
        let children = instance.children(v);
        let deg = children.len() as u64 + u64::from(instance.parents[v.0].is_some());
        // subtree_max_degree is the max of own degree and children's values; the root
        // additionally certifies that the global maximum equals k.
        let mut submax = deg;
        for &c in &children {
            submax = submax.max(labels[c.0].subtree_max_degree);
        }
        if own.subtree_max_degree != submax {
            return false;
        }
        if deg > k {
            return false;
        }
        if instance.parents[v.0].is_none() && own.subtree_max_degree != k {
            return false;
        }
        // Condition (1): degree-k nodes are bad. Condition (2): degree ≤ k − 2 nodes are
        // good.
        if deg == k && own.good {
            return false;
        }
        if deg + 2 <= k && !own.good {
            return false;
        }
        match own.fragment {
            None => {
                // Bad nodes carry no fragment pointer.
                if own.good {
                    return false;
                }
            }
            Some((head, dist)) => {
                if !own.good {
                    return false;
                }
                if dist == 0 {
                    // The fragment head is the node itself.
                    if head != graph.ident(v) {
                        return false;
                    }
                } else {
                    // Some tree-adjacent good neighbor is one step closer to the head.
                    let has_witness = graph.neighbors(v).iter().any(|&(w, _)| {
                        let adjacent_in_tree =
                            instance.parents[v.0] == Some(w) || instance.parents[w.0] == Some(v);
                        adjacent_in_tree
                            && labels[w.0].good
                            && labels[w.0].fragment == Some((head, dist - 1))
                    });
                    if !has_witness {
                        return false;
                    }
                }
                // Condition (3): no graph edge towards a good node of another fragment;
                // tree-adjacent good neighbors must be in the same fragment.
                for &(w, _) in graph.neighbors(v) {
                    if let Some((other_head, _)) = labels[w.0].fragment {
                        if labels[w.0].good && other_head != head {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stst_graph::fr::{furer_raghavachari, is_fr_tree};
    use stst_graph::generators;

    fn setup(n: usize, seed: u64) -> (Graph, Tree) {
        let g = generators::workload(n, 0.25, seed);
        let (t, _) = furer_raghavachari(&g);
        (g, t)
    }

    /// The prover before it shared one `seen` array across fragments and read degrees
    /// off the children table, kept verbatim as its differential oracle.
    fn prove_reference(graph: &Graph, tree: &Tree) -> Vec<FrLabel> {
        let cert = stst_graph::fr::fr_certificate(graph, tree)
            .expect("the prover is only defined on FR-trees (Definition 8.1)");
        let k = tree.max_degree() as u64;
        // Distance to the fragment head within the fragment, for good nodes.
        let n = graph.node_count();
        let mut frag_dist = vec![0u64; n];
        let mut frag_head: Vec<Option<Ident>> = vec![None; n];
        // Fragment heads: smallest identity among the good nodes of each fragment.
        use std::collections::HashMap;
        let mut head_of: HashMap<usize, NodeId> = HashMap::new();
        for v in graph.nodes() {
            if cert.good[v.0] {
                let f = cert.fragment[v.0];
                let entry = head_of.entry(f).or_insert(v);
                if graph.ident(v) < graph.ident(*entry) {
                    *entry = v;
                }
            }
        }
        // BFS inside each fragment from its head (fragments are subtrees of T restricted
        // to good nodes).
        for (&f, &head) in &head_of {
            let mut queue = std::collections::VecDeque::from([head]);
            frag_dist[head.0] = 0;
            frag_head[head.0] = Some(graph.ident(head));
            let mut seen = vec![false; n];
            seen[head.0] = true;
            while let Some(v) = queue.pop_front() {
                for &(w, _) in graph.neighbors(v) {
                    if !seen[w.0]
                        && cert.good[w.0]
                        && cert.fragment[w.0] == f
                        && tree.contains_edge(v, w)
                    {
                        seen[w.0] = true;
                        frag_dist[w.0] = frag_dist[v.0] + 1;
                        frag_head[w.0] = Some(graph.ident(head));
                        queue.push_back(w);
                    }
                }
            }
        }
        // Subtree max degree, bottom-up.
        let children = tree.children_table();
        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        let mut stack = vec![tree.root()];
        while let Some(v) = stack.pop() {
            order.push(v);
            stack.extend(children[v.0].iter().copied());
        }
        let mut submax = vec![0u64; n];
        for &v in order.iter().rev() {
            let mut m = tree.degree(v) as u64;
            for &c in &children[v.0] {
                m = m.max(submax[c.0]);
            }
            submax[v.0] = m;
        }
        graph
            .nodes()
            .map(|v| FrLabel {
                tree_degree: k,
                subtree_max_degree: submax[v.0],
                good: cert.good[v.0],
                fragment: if cert.good[v.0] {
                    Some((
                        frag_head[v.0].expect("good nodes belong to a fragment"),
                        frag_dist[v.0],
                    ))
                } else {
                    None
                },
            })
            .collect()
    }

    #[test]
    fn prover_matches_the_reference_on_every_fr_tree_of_a_local_search() {
        let mut graphs: Vec<(String, Graph)> = [12, 40, 150, 400]
            .into_iter()
            .map(|n| {
                let g = generators::workload(n, 6.0 / n as f64, 2015 + n as u64);
                (format!("workload({n}, 6/n)"), g)
            })
            .collect();
        for seed in 0..3 {
            let g = generators::random_connected(30, 0.2, seed);
            graphs.push((format!("random_connected(30, 0.2, {seed})"), g));
            // Random trees plus a few chords: high forced degrees, so the FR-trees
            // have many good nodes in long fragments.
            for (n, extra) in [(100, 30), (200, 10)] {
                let g = generators::random_sparse(n, extra, seed);
                let g = generators::shuffle_idents(&g, seed);
                graphs.push((format!("random_sparse({n}, {extra}, {seed})"), g));
            }
        }
        graphs.push(("star(9)".into(), generators::star(9)));
        graphs.push(("wheel(12)".into(), generators::wheel(12)));
        graphs.push(("complete(10)".into(), generators::complete(10)));
        graphs.push(("grid(5, 6)".into(), generators::grid(5, 6)));
        graphs.push(("caterpillar(5, 3)".into(), generators::caterpillar(5, 3)));
        let mut proved = 0;
        for (name, g) in graphs {
            let starts = [
                ("bfs", stst_graph::bfs::bfs_tree(&g, g.min_ident_node())),
                ("random", generators::random_spanning_tree(&g, 7)),
            ];
            for (start, mut tree) in starts {
                // The prover is defined on FR-trees only: compare wherever the search
                // passes through one (at its end, unless a nested sequence was
                // invalidated).
                for step in 0.. {
                    if is_fr_tree(&g, &tree) {
                        let what = format!("{name} from a {start} tree, step {step}");
                        let labels = FrScheme.prove(&g, &tree);
                        assert_eq!(labels, prove_reference(&g, &tree), "{what}");
                        assert!(
                            FrScheme
                                .verify_all(&Instance::from_tree(&g, &tree), &labels)
                                .accepted(),
                            "{what}: labels rejected"
                        );
                        proved += 1;
                    }
                    match stst_graph::fr::improve_once(&g, &tree) {
                        stst_graph::fr::FrStep::Improved(next) => tree = next,
                        _ => break,
                    }
                }
            }
        }
        assert!(
            proved >= 24,
            "the searches must reach FR-trees, got {proved}"
        );
    }

    #[test]
    fn completeness_on_fr_trees() {
        for seed in 0..6 {
            let (g, t) = setup(18, seed);
            assert!(is_fr_tree(&g, &t));
            assert!(FrScheme.accepts_legal(&g, &t), "seed {seed}");
        }
    }

    #[test]
    fn labels_are_logarithmic() {
        let (g, t) = setup(120, 1);
        let ctx = CodecCtx::for_graph(&g);
        let labels = FrScheme.prove(&g, &t);
        let max_bits = FrScheme.max_label_bits(&ctx, &labels);
        assert!(
            max_bits <= 4 * 10 + 6,
            "FR labels should be O(log n) bits, got {max_bits}"
        );
    }

    #[test]
    fn codec_round_trips_good_bad_and_garbage_labels() {
        use stst_runtime::codec::assert_codec_roundtrip;
        let (g, t) = setup(24, 5);
        let ctx = CodecCtx::for_graph(&g);
        for label in FrScheme.prove(&g, &t) {
            assert_codec_roundtrip(&ctx, &label);
        }
        assert_codec_roundtrip(
            &ctx,
            &FrLabel {
                tree_degree: 0,
                subtree_max_degree: 0,
                good: false,
                fragment: None,
            },
        );
        assert_codec_roundtrip(
            &ctx,
            &FrLabel {
                tree_degree: u64::MAX,
                subtree_max_degree: u64::MAX,
                good: true,
                fragment: Some((u64::MAX, u64::MAX)),
            },
        );
    }

    #[test]
    fn forged_good_mark_on_a_max_degree_node_is_rejected() {
        let (g, t) = setup(16, 2);
        let mut labels = FrScheme.prove(&g, &t);
        let w = t.max_degree_nodes()[0];
        labels[w.0].good = true;
        labels[w.0].fragment = Some((g.ident(w), 0));
        assert!(!FrScheme
            .verify_all(&Instance::from_tree(&g, &t), &labels)
            .accepted());
    }

    #[test]
    fn forged_fragment_identity_is_rejected() {
        let (g, t) = setup(16, 3);
        let labels = FrScheme.prove(&g, &t);
        // Give some good node a bogus fragment head it cannot justify.
        let v = g
            .nodes()
            .find(|&v| labels[v.0].good && labels[v.0].fragment.is_some_and(|(_, d)| d > 0));
        if let Some(v) = v {
            let mut bad = labels.clone();
            bad[v.0].fragment = Some((9999, 1));
            assert!(!FrScheme
                .verify_all(&Instance::from_tree(&g, &t), &bad)
                .accepted());
        }
        // Overstating the tree degree: the root's subtree_max_degree check fails.
        let mut bad = labels;
        for l in &mut bad {
            l.tree_degree += 1;
        }
        assert!(!FrScheme
            .verify_all(&Instance::from_tree(&g, &t), &bad)
            .accepted());
    }
}
