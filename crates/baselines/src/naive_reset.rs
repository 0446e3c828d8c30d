//! A genuine guarded-rule spanning-tree construction that keeps only the distance half
//! of the proof labels.
//!
//! It is silent, compact (`O(log n)` bits) and correct as a *spanning tree*
//! construction, but without the size component the labeling is not malleable: any
//! in-place improvement of the tree would transiently violate the distance labels and
//! raise alarms, which is why the paper introduces the redundant scheme of §IV. This
//! baseline is the ablation arm of experiment E9.

use rand::rngs::StdRng;
use rand::Rng;

use stst_graph::{Graph, Ident, NodeId};
use stst_runtime::bits::{BitReader, BitWriter};
use stst_runtime::codec::FieldSpec;
use stst_runtime::{Algorithm, Codec, CodecCtx, ParentPointer, RawView, Screen, View};

/// Register: claimed root, parent pointer and distance only (no subtree size).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DistanceOnlyState {
    /// Identity of the claimed root.
    pub root: Ident,
    /// Identity of the parent neighbor, or `⊥`.
    pub parent: Option<Ident>,
    /// Claimed hop distance to the root.
    pub dist: u64,
}

impl Codec for DistanceOnlyState {
    fn encoded_bits(&self, ctx: &CodecCtx) -> usize {
        CodecCtx::uint_bits(self.root, ctx.ident_bits)
            + CodecCtx::opt_uint_bits(&self.parent, ctx.ident_bits)
            + CodecCtx::uint_bits(self.dist, ctx.count_bits)
    }

    fn encode_into(&self, ctx: &CodecCtx, w: &mut BitWriter<'_>) {
        CodecCtx::write_uint(w, self.root, ctx.ident_bits);
        CodecCtx::write_opt_uint(w, &self.parent, ctx.ident_bits);
        CodecCtx::write_uint(w, self.dist, ctx.count_bits);
    }

    fn decode_from(ctx: &CodecCtx, r: &mut BitReader<'_>) -> Self {
        DistanceOnlyState {
            root: CodecCtx::read_uint(r, ctx.ident_bits),
            parent: CodecCtx::read_opt_uint(r, ctx.ident_bits),
            dist: CodecCtx::read_uint(r, ctx.count_bits),
        }
    }

    fn field_specs(ctx: &CodecCtx) -> Vec<FieldSpec> {
        // Fault-free shape with the parent present: escape + root payload, presence +
        // escape + parent payload, escape + dist payload.
        let i = ctx.ident_bits;
        vec![
            FieldSpec {
                name: "root",
                offset: 1,
                width: i,
            },
            FieldSpec {
                name: "parent",
                offset: i + 3,
                width: i,
            },
            FieldSpec {
                name: "dist",
                offset: 2 * i + 4,
                width: ctx.count_bits,
            },
        ]
    }
}

impl ParentPointer for DistanceOnlyState {
    fn parent_ident(&self) -> Option<Ident> {
        self.parent
    }
}

/// The distance-only silent spanning-tree construction.
#[derive(Clone, Copy, Debug, Default)]
pub struct DistanceOnlySpanningTree;

impl Algorithm for DistanceOnlySpanningTree {
    type State = DistanceOnlyState;

    fn name(&self) -> &str {
        "distance-only spanning tree (ablation baseline)"
    }

    fn arbitrary_state(&self, graph: &Graph, _node: NodeId, rng: &mut StdRng) -> DistanceOnlyState {
        let n = graph.node_count() as u64;
        DistanceOnlyState {
            root: rng.gen_range(0..=2 * n.max(1)),
            parent: if rng.gen_bool(0.3) {
                None
            } else {
                Some(rng.gen_range(0..=2 * n.max(1)))
            },
            dist: rng.gen_range(0..=n + 1),
        }
    }

    fn step(&self, view: &View<'_, DistanceOnlyState>) -> Option<DistanceOnlyState> {
        let mut best: (Ident, u64, Option<Ident>) = (view.ident, 0, None);
        for nb in view.neighbors() {
            // An offer whose `dist + 1` overflows is out of range, like any `≥ n`.
            let Some(dist) = nb.state.dist.checked_add(1) else {
                continue;
            };
            if nb.state.root < view.ident && dist < view.n as u64 {
                let candidate = (nb.state.root, dist, Some(nb.ident));
                if candidate < best {
                    best = candidate;
                }
            }
        }
        let desired = DistanceOnlyState {
            root: best.0,
            parent: best.2,
            dist: best.1,
        };
        (desired != *view.state).then_some(desired)
    }

    /// Decode-free mirror of [`DistanceOnlySpanningTree::step`] over extracted fields;
    /// `Unknown` on any fired escape bit (the full-decode path owns fault garbage).
    fn guard_screen(&self, raw: &RawView<'_>) -> Screen<DistanceOnlyState> {
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
        let current = DistanceOnlyState { root, parent, dist };
        let n = raw.n as u64;
        let mut best: (Ident, u64, Option<Ident>) = (raw.ident, 0, None);
        for port in 0..raw.degree() {
            let mut r = raw.reader_of(port);
            let Some(nb_root) = r.uint(ctx.ident_bits) else {
                return Screen::Unknown;
            };
            if r.opt_uint(ctx.ident_bits).is_none() {
                return Screen::Unknown; // skip over the parent field
            }
            let Some(nb_dist) = r.uint(ctx.count_bits) else {
                return Screen::Unknown;
            };
            // Un-escaped ⇒ < 2^count_bits, so the +1 cannot wrap (same arithmetic as
            // `step` on the decoded value).
            if nb_root < raw.ident && nb_dist + 1 < n {
                let candidate = (nb_root, nb_dist + 1, Some(raw.neighbor(port).ident));
                if candidate < best {
                    best = candidate;
                }
            }
        }
        let desired = DistanceOnlyState {
            root: best.0,
            parent: best.2,
            dist: best.1,
        };
        if desired == current {
            Screen::Disabled
        } else {
            Screen::Enabled(desired)
        }
    }

    /// Connectivity, by the argument of `MinIdSpanningTree::silence_certifies`
    /// without the size field: silent claims lead to the minimum identity along
    /// strictly decreasing distances. Exact, since only a connected graph with a
    /// node has a spanning tree.
    fn silence_certifies(&self, graph: &Graph) -> bool {
        graph.node_count() > 0 && graph.is_connected()
    }

    fn is_legal(&self, graph: &Graph, states: &[DistanceOnlyState]) -> bool {
        let Ok(tree) = stst_runtime::executor::parent_pointer_tree(graph, states) else {
            return false;
        };
        tree.root() == graph.min_ident_node()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stst_graph::generators;
    use stst_runtime::{Executor, ExecutorConfig};

    #[test]
    fn converges_silently_to_a_spanning_tree() {
        for seed in 0..3 {
            let g = generators::workload(24, 0.15, seed);
            let mut exec = Executor::from_arbitrary(
                &g,
                DistanceOnlySpanningTree,
                ExecutorConfig::seeded(seed),
            );
            let q = exec.run_to_quiescence(2_000_000).unwrap();
            assert!(q.silent && q.legal, "seed {seed}");
        }
    }

    #[test]
    fn field_extraction_matches_decoding_for_random_and_garbage_registers() {
        use rand::SeedableRng;
        use stst_runtime::codec::FieldReader;
        let g = generators::workload(24, 0.15, 3);
        let ctx = stst_runtime::CodecCtx::for_graph(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let mut states: Vec<DistanceOnlyState> = g
            .nodes()
            .map(|v| DistanceOnlySpanningTree.arbitrary_state(&g, v, &mut rng))
            .collect();
        states.push(DistanceOnlyState {
            root: u64::MAX, // escapes the ident field
            parent: None,
            dist: u64::MAX, // escapes the count field
        });
        let specs = DistanceOnlyState::field_specs(&ctx);
        assert_eq!(
            specs.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["root", "parent", "dist"]
        );
        let ident_max = 1u64 << ctx.ident_bits;
        let count_max = 1u64 << ctx.count_bits;
        for state in &states {
            let mut words = Vec::new();
            let mut w = BitWriter::new(&mut words, 0);
            state.encode_into(&ctx, &mut w);
            let mut f = FieldReader::new(&words, 0);
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
            if let Some(p) = state.parent {
                if root.is_some() && parent == Some(state.parent) && dist.is_some() {
                    for (spec, value) in specs.iter().zip([state.root, p, state.dist]) {
                        let mut r = BitReader::new(&words, spec.offset as u64);
                        assert_eq!(
                            r.read(spec.width as usize),
                            value,
                            "{}: {state:?}",
                            spec.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn uses_fewer_bits_than_the_redundant_construction() {
        let g = generators::workload(64, 0.08, 1);
        let mut exec =
            Executor::from_arbitrary(&g, DistanceOnlySpanningTree, ExecutorConfig::seeded(1));
        exec.run_to_quiescence(2_000_000).unwrap();
        // Compare the stabilized register sizes (peaks include the arbitrary initial
        // garbage, which says nothing about the algorithms).
        let ours = exec.space_report().max_bits;
        let full = stst_core::mst::spanning_phase_register_bits(&g, 1);
        assert!(
            ours <= full,
            "distance-only registers ({ours}) exceed the redundant ones ({full})"
        );
    }
}
