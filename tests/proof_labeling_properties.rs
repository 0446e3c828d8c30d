//! Property-based tests of the proof-labeling schemes: completeness on legal instances,
//! soundness under random corruption of labels and parent pointers, and the MST
//! potential characterization.
//!
//! The build is hermetic (no proptest), so the properties run over deterministic
//! seeded sweeps instead of proptest's shrinker: every case derives its parameters
//! from a seeded RNG, so a failure message pins down the reproducing case exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use self_stabilizing_spanning_trees::graph::{bfs, generators, mst, NodeId};
use self_stabilizing_spanning_trees::labeling::nca::{nca_of_labels, NcaScheme};
use self_stabilizing_spanning_trees::labeling::redundant::RedundantScheme;
use self_stabilizing_spanning_trees::labeling::scheme::{Instance, ProofLabelingScheme};

const CASES: u64 = 48;

/// Completeness: for every workload and every scheme, the prover-built labels of a
/// legal spanning tree are accepted at every node.
#[test]
fn schemes_accept_legal_trees() {
    let mut rng = StdRng::seed_from_u64(0xc01);
    for case in 0..CASES {
        let n = rng.gen_range(4usize..40);
        let seed = rng.gen_range(0u64..500);
        let g = generators::workload(n, 0.2, seed);
        let t = bfs::bfs_tree(&g, g.min_ident_node());
        // The redundant labels, and their views pruned everywhere to distances (the
        // distance-based scheme) or to sizes (the size-based scheme).
        let labels = RedundantScheme.prove(&g, &t);
        let inst = Instance::from_tree(&g, &t);
        for view in [
            labels.clone(),
            labels.iter().map(|l| l.pruned_to_distance()).collect(),
            labels.iter().map(|l| l.pruned_to_size()).collect(),
        ] {
            assert!(
                RedundantScheme.verify_all(&inst, &view).accepted(),
                "case {case}: n={n} seed={seed}"
            );
        }
        assert!(
            NcaScheme.accepts_legal(&g, &t),
            "case {case}: n={n} seed={seed}"
        );
    }
}

/// Soundness against structural corruption: re-pointing one node's parent pointer to
/// a random non-parent neighbor (without fixing the labels) is detected by the
/// redundant scheme.
#[test]
fn redundant_scheme_detects_reparented_pointers() {
    let mut rng = StdRng::seed_from_u64(0xc02);
    let mut checked = 0u64;
    let mut case = 0u64;
    while checked < CASES {
        case += 1;
        let n = rng.gen_range(6usize..30);
        let seed = rng.gen_range(0u64..200);
        let victim_pick = rng.gen_range(0usize..64);
        let neighbor_pick = rng.gen_range(0usize..8);
        let g = generators::workload(n, 0.3, seed);
        let t = bfs::bfs_tree(&g, g.min_ident_node());
        let labels = RedundantScheme.prove(&g, &t);
        // Pick a non-root victim and point it somewhere else.
        let victims: Vec<NodeId> = t.nodes().filter(|&v| t.parent(v).is_some()).collect();
        let victim = victims[victim_pick % victims.len()];
        let neighbors = g.neighbors(victim);
        let new_parent = neighbors[neighbor_pick % neighbors.len()].0;
        if Some(new_parent) == t.parent(victim) {
            continue; // the corruption must actually change the pointer
        }
        checked += 1;
        let mut parents = t.parents().to_vec();
        parents[victim.index()] = Some(new_parent);
        // The corrupted pointer either creates a cycle / second root situation or an
        // inconsistent distance; the verifier must notice in all cases.
        let inst = Instance {
            graph: &g,
            parents: &parents,
        };
        assert!(
            !RedundantScheme.verify_all(&inst, &labels).accepted(),
            "case {case}: n={n} seed={seed} victim={victim} new_parent={new_parent}"
        );
    }
}

/// Soundness against label corruption: randomly perturbing a distance or size value
/// in one label is detected.
#[test]
fn redundant_scheme_detects_corrupted_labels() {
    let mut rng = StdRng::seed_from_u64(0xc03);
    for case in 0..CASES {
        let n = rng.gen_range(6usize..30);
        let seed = rng.gen_range(0u64..200);
        let victim_pick = rng.gen_range(0usize..64);
        let delta = rng.gen_range(1u64..5);
        let corrupt_size = rng.gen_bool(0.5);
        let g = generators::workload(n, 0.3, seed);
        let t = bfs::bfs_tree(&g, g.min_ident_node());
        let mut labels = RedundantScheme.prove(&g, &t);
        let victim = NodeId(victim_pick % n);
        if corrupt_size {
            labels[victim.index()].size = labels[victim.index()].size.map(|s| s + delta);
        } else {
            labels[victim.index()].dist = labels[victim.index()].dist.map(|d| d + delta);
        }
        let inst = Instance::from_tree(&g, &t);
        assert!(
            !RedundantScheme.verify_all(&inst, &labels).accepted(),
            "case {case}: n={n} seed={seed} victim={victim} delta={delta} size={corrupt_size}"
        );
    }
}

/// The NCA labels computed by the prover answer arbitrary queries exactly like the
/// parent-pointer ground truth.
#[test]
fn nca_labels_answer_queries_correctly() {
    let mut rng = StdRng::seed_from_u64(0xc04);
    for case in 0..CASES {
        let n = rng.gen_range(4usize..36);
        let seed = rng.gen_range(0u64..200);
        let a = rng.gen_range(0usize..64);
        let b = rng.gen_range(0usize..64);
        let g = generators::workload(n, 0.2, seed);
        let t = bfs::bfs_tree(&g, g.min_ident_node());
        let labels = NcaScheme.prove(&g, &t);
        let u = NodeId(a % n);
        let v = NodeId(b % n);
        let w = t.nca(u, v);
        assert_eq!(
            &nca_of_labels(&labels[u.index()], &labels[v.index()]),
            &labels[w.index()],
            "case {case}: n={n} seed={seed} u={u} v={v}"
        );
    }
}

/// The MST fragment potential is zero exactly on minimum spanning trees.
#[test]
fn mst_potential_characterizes_msts() {
    let mut rng = StdRng::seed_from_u64(0xc05);
    for case in 0..CASES {
        let n = rng.gen_range(5usize..22);
        let seed = rng.gen_range(0u64..120);
        let g = generators::workload(n, 0.3, seed);
        let kruskal = mst::kruskal(&g).unwrap();
        assert_eq!(
            self_stabilizing_spanning_trees::labeling::mst_fragments::mst_potential(&g, &kruskal),
            0,
            "case {case}: n={n} seed={seed}"
        );
        let bfs_tree = bfs::bfs_tree(&g, g.min_ident_node());
        let phi =
            self_stabilizing_spanning_trees::labeling::mst_fragments::mst_potential(&g, &bfs_tree);
        assert_eq!(
            phi == 0,
            mst::is_mst(&g, &bfs_tree),
            "case {case}: n={n} seed={seed} phi={phi}"
        );
    }
}
