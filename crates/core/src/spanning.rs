//! Silent self-stabilizing spanning-tree construction (the paper's Instruction 1).
//!
//! This is a genuine guarded-rule algorithm on the state model: every node maintains a
//! register `(root, parent, dist, size)` on `O(log n)` bits. A node adopts the
//! lexicographically best offer `(root, dist)` available in its closed neighborhood
//! (preferring smaller root identities, then smaller distances, with its own identity as
//! the fallback root), bounded by `dist < n` so that spurious root identities left by
//! transient faults die out. Once the structure is stable, the `size` field converges
//! bottom-up to the subtree size, providing the size half of the redundant
//! proof-labeling scheme of §IV for free.
//!
//! The stabilized configuration is a BFS spanning tree rooted at the minimum-identity
//! node, with correct distances and subtree sizes, and no rule is enabled (the algorithm
//! is silent).

use rand::rngs::StdRng;
use rand::Rng;

use stst_graph::{Graph, Ident, NodeId};
use stst_runtime::bits::{BitReader, BitWriter};
use stst_runtime::{Algorithm, Codec, CodecCtx, ParentPointer, RawView, Screen, View};

/// Register of the spanning-tree construction: `O(log n)` bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanningState {
    /// Identity of the claimed root.
    pub root: Ident,
    /// Identity of the parent neighbor, or `⊥` for a (claimed) root.
    pub parent: Option<Ident>,
    /// Claimed hop distance to the root.
    pub dist: u64,
    /// Claimed size of the subtree hanging below the node.
    pub size: u64,
}

impl Codec for SpanningState {
    fn encoded_bits(&self, ctx: &CodecCtx) -> usize {
        CodecCtx::uint_bits(self.root, ctx.ident_bits)
            + CodecCtx::opt_uint_bits(&self.parent, ctx.ident_bits)
            + CodecCtx::uint_bits(self.dist, ctx.count_bits)
            + CodecCtx::uint_bits(self.size, ctx.count_bits)
    }

    fn encode_into(&self, ctx: &CodecCtx, w: &mut BitWriter<'_>) {
        CodecCtx::write_uint(w, self.root, ctx.ident_bits);
        CodecCtx::write_opt_uint(w, &self.parent, ctx.ident_bits);
        CodecCtx::write_uint(w, self.dist, ctx.count_bits);
        CodecCtx::write_uint(w, self.size, ctx.count_bits);
    }

    fn decode_from(ctx: &CodecCtx, r: &mut BitReader<'_>) -> Self {
        SpanningState {
            root: CodecCtx::read_uint(r, ctx.ident_bits),
            parent: CodecCtx::read_opt_uint(r, ctx.ident_bits),
            dist: CodecCtx::read_uint(r, ctx.count_bits),
            size: CodecCtx::read_uint(r, ctx.count_bits),
        }
    }
}

impl ParentPointer for SpanningState {
    fn parent_ident(&self) -> Option<Ident> {
        self.parent
    }
}

/// The silent self-stabilizing spanning-tree (leader-elected BFS) construction.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinIdSpanningTree;

impl MinIdSpanningTree {
    /// The best `(root, parent, dist)` offer available to the node: its own identity as
    /// a root, or any neighbor offering a smaller root identity within the distance
    /// bound `dist + 1 < n`. A corrupted `dist` with no successor in `u64` is out of
    /// range too.
    fn best_offer(view: &View<'_, SpanningState>) -> (Ident, Option<Ident>, u64) {
        let mut best: (Ident, u64, Option<Ident>) = (view.ident, 0, None);
        for nb in view.neighbors() {
            let offer_root = nb.state.root;
            let Some(offer_dist) = nb.state.dist.checked_add(1) else {
                continue;
            };
            if offer_root < view.ident && offer_dist < view.n as u64 {
                let candidate = (offer_root, offer_dist, Some(nb.ident));
                if (candidate.0, candidate.1, candidate.2) < (best.0, best.1, best.2) {
                    best = candidate;
                }
            }
        }
        (best.0, best.2, best.1)
    }

    /// The subtree size implied by the current neighborhood: one plus the sizes of the
    /// neighbors that designate this node as their parent under the same root. The sum
    /// saturates, so corrupted sizes near `u64::MAX` cannot overflow it.
    fn implied_size(view: &View<'_, SpanningState>, root: Ident) -> u64 {
        view.neighbors()
            .filter(|nb| nb.state.parent == Some(view.ident) && nb.state.root == root)
            .fold(1, |sum, nb| sum.saturating_add(nb.state.size))
    }
}

impl Algorithm for MinIdSpanningTree {
    type State = SpanningState;

    fn name(&self) -> &str {
        "silent min-identity spanning tree"
    }

    fn arbitrary_state(&self, graph: &Graph, _node: NodeId, rng: &mut StdRng) -> SpanningState {
        let n = graph.node_count() as u64;
        let parent = match rng.gen_range(0..3) {
            0 => None,
            // Possibly a non-neighbor or non-existent identity: the rules must cope.
            _ => Some(rng.gen_range(0..=2 * n.max(1))),
        };
        SpanningState {
            root: rng.gen_range(0..=2 * n.max(1)),
            parent,
            dist: rng.gen_range(0..=n + 1),
            size: rng.gen_range(0..=n + 1),
        }
    }

    fn step(&self, view: &View<'_, SpanningState>) -> Option<SpanningState> {
        let (root, parent, dist) = Self::best_offer(view);
        let size = Self::implied_size(view, root);
        let desired = SpanningState {
            root,
            parent,
            dist,
            size,
        };
        (desired != *view.state).then_some(desired)
    }

    /// Decode-free mirror of [`MinIdSpanningTree::step`]: two extraction passes over
    /// the packed neighborhood (one replaying `MinIdSpanningTree::best_offer`, one
    /// replaying `MinIdSpanningTree::implied_size` under the chosen root — the size
    /// sum depends on the root picked by the first pass, exactly as in `step`). Any
    /// fired escape bit aborts to `Unknown` and the full-decode path takes over.
    fn guard_screen(&self, raw: &RawView<'_>) -> Screen<SpanningState> {
        let ctx = raw.ctx();
        let mut own = raw.own_reader();
        let Some(root) = own.uint(ctx.ident_bits) else {
            return Screen::Unknown;
        };
        let Some(parent) = own.opt_uint(ctx.ident_bits) else {
            return Screen::Unknown;
        };
        let Some(dist) = own.uint(ctx.count_bits) else {
            return Screen::Unknown;
        };
        let Some(size) = own.uint(ctx.count_bits) else {
            return Screen::Unknown;
        };
        let current = SpanningState {
            root,
            parent,
            dist,
            size,
        };
        let n = raw.n as u64;
        // Pass 1 — best offer. Extracted fields are un-escaped (< 2^count_bits), so
        // the +1 cannot wrap; the candidate/incumbent tuples have exactly the types
        // `best_offer` compares, `Option` ordering included.
        let mut best: (Ident, u64, Option<Ident>) = (raw.ident, 0, None);
        for port in 0..raw.degree() {
            let mut r = raw.reader_of(port);
            let Some(nb_root) = r.uint(ctx.ident_bits) else {
                return Screen::Unknown;
            };
            if r.opt_uint(ctx.ident_bits).is_none() {
                return Screen::Unknown;
            }
            let Some(nb_dist) = r.uint(ctx.count_bits) else {
                return Screen::Unknown;
            };
            let offer_dist = nb_dist + 1;
            if nb_root < raw.ident && offer_dist < n {
                let candidate = (nb_root, offer_dist, Some(raw.neighbor(port).ident));
                if candidate < best {
                    best = candidate;
                }
            }
        }
        // Pass 2 — implied size under the chosen root.
        let mut implied = 1u64;
        for port in 0..raw.degree() {
            let mut r = raw.reader_of(port);
            let Some(nb_root) = r.uint(ctx.ident_bits) else {
                return Screen::Unknown;
            };
            let Some(nb_parent) = r.opt_uint(ctx.ident_bits) else {
                return Screen::Unknown;
            };
            if r.uint(ctx.count_bits).is_none() {
                return Screen::Unknown; // skip over dist
            }
            let Some(nb_size) = r.uint(ctx.count_bits) else {
                return Screen::Unknown;
            };
            if nb_parent == Some(raw.ident) && nb_root == best.0 {
                implied += nb_size;
            }
        }
        let desired = SpanningState {
            root: best.0,
            parent: best.2,
            dist: best.1,
            size: implied,
        };
        if desired == current {
            Screen::Disabled
        } else {
            Screen::Enabled(desired)
        }
    }

    /// Every silent configuration of a connected graph is legal. A claimed root is
    /// real: a chain of parent pointers strictly decreases `dist` under one root, and
    /// only a node offering its own identity holds `dist = 0`. So every node adopts
    /// the minimum identity at its hop distance (all within `n − 1`), and the sizes
    /// are then exact bottom-up. The premise is exact: a graph with no node or with
    /// two components has no spanning tree to encode.
    fn silence_certifies(&self, graph: &Graph) -> bool {
        graph.node_count() > 0 && graph.is_connected()
    }

    fn is_legal(&self, graph: &Graph, states: &[SpanningState]) -> bool {
        // The parent pointers must encode a spanning tree rooted at the minimum-identity
        // node, with exact distances and subtree sizes.
        let Ok(tree) = stst_runtime::executor::parent_pointer_tree(graph, states) else {
            return false;
        };
        if tree.root() != graph.min_ident_node() {
            return false;
        }
        let root_ident = graph.ident(tree.root());
        let depths = tree.depths();
        let sizes = tree.subtree_sizes();
        graph.nodes().all(|v| {
            let s = &states[v.0];
            s.root == root_ident && s.dist == depths[v.0] as u64 && s.size == sizes[v.0] as u64
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stst_graph::bfs::is_bfs_tree;
    use stst_graph::generators;
    use stst_runtime::{Executor, ExecutorConfig, SchedulerKind};

    fn converge(
        graph: &Graph,
        seed: u64,
        scheduler: SchedulerKind,
    ) -> (stst_graph::Tree, stst_runtime::Quiescence, usize) {
        let config = ExecutorConfig::with_scheduler(seed, scheduler);
        let mut exec = Executor::from_arbitrary(graph, MinIdSpanningTree, config);
        let q = exec.run_to_quiescence(4_000_000).expect("must converge");
        let bits = exec.peak_register_bits();
        let tree = exec.extract_tree().expect("stabilized on a spanning tree");
        (tree, q, bits)
    }

    #[test]
    fn stabilizes_on_a_bfs_tree_rooted_at_the_min_identity_node() {
        for seed in 0..4 {
            let g = generators::workload(24, 0.15, seed);
            let (tree, q, _) = converge(&g, seed, SchedulerKind::Central);
            assert!(q.silent);
            assert!(q.legal, "seed {seed}: final configuration must be legal");
            assert_eq!(tree.root(), g.min_ident_node());
            assert!(
                is_bfs_tree(&g, &tree),
                "min-offer adoption builds a BFS tree"
            );
        }
    }

    #[test]
    fn every_daemon_converges_to_a_legal_configuration() {
        let g = generators::workload(16, 0.2, 7);
        for kind in SchedulerKind::all() {
            let (_, q, _) = converge(&g, 3, kind);
            assert!(q.legal, "daemon {kind} must converge");
        }
    }

    #[test]
    fn registers_stay_logarithmic() {
        let g = generators::workload(96, 0.05, 2);
        let (_, _, bits) = converge(&g, 2, SchedulerKind::Central);
        // 4 fields of O(log n) bits each (identities go up to 2n during faults).
        assert!(bits <= 4 * (8 + 2) + 2, "register too large: {bits} bits");
    }

    #[test]
    fn convergence_rounds_are_moderate() {
        // The paper's framework only needs poly(n) rounds; this construction needs O(n).
        for (n, p) in [(16usize, 0.2), (48, 0.1)] {
            let g = generators::workload(n, p, 11);
            let (_, q, _) = converge(&g, 5, SchedulerKind::Synchronous);
            assert!(
                q.rounds <= 3 * n as u64 + 10,
                "n = {n}: took {} rounds, expected O(n)",
                q.rounds
            );
        }
    }

    #[test]
    fn codec_round_trips_across_the_reachable_and_garbage_state_space() {
        use rand::SeedableRng;
        use stst_runtime::codec::assert_codec_roundtrip;
        let g = generators::workload(28, 0.2, 4);
        let ctx = stst_runtime::CodecCtx::for_graph(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for v in g.nodes() {
            assert_codec_roundtrip(&ctx, &MinIdSpanningTree.arbitrary_state(&g, v, &mut rng));
        }
        for state in [
            SpanningState {
                root: 0,
                parent: None,
                dist: 0,
                size: 0,
            },
            SpanningState {
                root: u64::MAX,
                parent: Some(u64::MAX),
                dist: u64::MAX,
                size: u64::MAX,
            },
        ] {
            assert_codec_roundtrip(&ctx, &state);
        }
    }

    #[test]
    fn field_extraction_matches_decoding_for_random_and_garbage_registers() {
        use rand::SeedableRng;
        use stst_runtime::codec::FieldReader;
        let g = generators::workload(28, 0.2, 4);
        let ctx = stst_runtime::CodecCtx::for_graph(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut states: Vec<SpanningState> = g
            .nodes()
            .map(|v| MinIdSpanningTree.arbitrary_state(&g, v, &mut rng))
            .collect();
        states.push(SpanningState {
            root: u64::MAX, // escapes the ident field
            parent: Some(1),
            dist: 2,
            size: 3,
        });
        states.push(SpanningState {
            root: 4,
            parent: Some(5),
            dist: u64::MAX, // escapes the count field
            size: 6,
        });
        let ident_max = 1u64 << ctx.ident_bits;
        let count_max = 1u64 << ctx.count_bits;
        for state in &states {
            let mut words = Vec::new();
            let mut w = BitWriter::new(&mut words, 0);
            state.encode_into(&ctx, &mut w);
            let mut f = FieldReader::new(&words, 0);
            // Walk the fields in encoding order; each extraction must either equal the
            // decoded struct field or refuse exactly when the field escaped.
            let root = f.uint(ctx.ident_bits);
            assert_eq!(
                root,
                (state.root < ident_max).then_some(state.root),
                "{state:?}"
            );
            let parent = f.opt_uint(ctx.ident_bits);
            if state.parent.is_some_and(|p| p >= ident_max) {
                assert_eq!(parent, None, "{state:?}");
            } else {
                assert_eq!(parent, Some(state.parent), "{state:?}");
            }
            let dist = f.uint(ctx.count_bits);
            assert_eq!(
                dist,
                (state.dist < count_max).then_some(state.dist),
                "{state:?}"
            );
            let size = f.uint(ctx.count_bits);
            assert_eq!(
                size,
                (state.size < count_max).then_some(state.size),
                "{state:?}"
            );
        }
    }

    #[test]
    fn recovers_after_corrupting_registers() {
        let g = generators::workload(20, 0.2, 9);
        let config = ExecutorConfig::seeded(1);
        let mut exec = Executor::from_arbitrary(&g, MinIdSpanningTree, config);
        exec.run_to_quiescence(2_000_000).unwrap();
        assert!(exec.is_quiescent());
        // Corrupt half of the registers, including (possibly) the root's.
        exec.corrupt_random_nodes(10);
        let q = exec.run_to_quiescence(2_000_000).expect("must re-converge");
        assert!(q.legal, "recovery must restore a legal configuration");
    }

    #[test]
    fn fake_small_root_identities_die_out() {
        // Plant a configuration where every node claims a root identity smaller than any
        // real identity: the distance bound must flush it out.
        let g = generators::workload(12, 0.3, 4);
        let states: Vec<SpanningState> = g
            .nodes()
            .map(|v| SpanningState {
                root: 0, // no node has identity 0
                parent: g.neighbors(v).first().map(|&(w, _)| g.ident(w)),
                dist: 1,
                size: 1,
            })
            .collect();
        let mut exec =
            Executor::with_states(&g, MinIdSpanningTree, states, ExecutorConfig::seeded(3));
        let q = exec.run_to_quiescence(2_000_000).expect("must converge");
        assert!(q.legal);
        let tree = exec.extract_tree().unwrap();
        assert_eq!(tree.root(), g.min_ident_node());
    }

    #[test]
    fn the_canonical_legal_configuration_is_silent_immediately() {
        // The fixed point of the rules is the *canonical* BFS tree: every node's parent
        // is its smallest-identity neighbor among those one hop closer to the root.
        let g = generators::workload(18, 0.2, 6);
        let root = g.min_ident_node();
        let dist = stst_graph::bfs::distances_from(&g, root);
        let parents: Vec<Option<NodeId>> = g
            .nodes()
            .map(|v| {
                if v == root {
                    None
                } else {
                    g.neighbors(v)
                        .iter()
                        .map(|&(w, _)| w)
                        .filter(|w| dist[w.0] + 1 == dist[v.0])
                        .min_by_key(|&w| g.ident(w))
                }
            })
            .collect();
        let tree = stst_graph::Tree::from_parents_in(&g, parents).unwrap();
        let depths = tree.depths();
        let sizes = tree.subtree_sizes();
        let root_ident = g.ident(root);
        let states: Vec<SpanningState> = g
            .nodes()
            .map(|v| SpanningState {
                root: root_ident,
                parent: tree.parent(v).map(|p| g.ident(p)),
                dist: depths[v.0] as u64,
                size: sizes[v.0] as u64,
            })
            .collect();
        let exec = Executor::with_states(&g, MinIdSpanningTree, states, ExecutorConfig::seeded(0));
        assert!(
            exec.is_quiescent(),
            "the canonical legal configuration must already be silent"
        );
    }
}
