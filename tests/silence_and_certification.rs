//! Silence and certification: once a composed construction has stabilized, the
//! proof-labeling schemes it relies on accept the configuration at every node, and the
//! registers exposed by the guarded-rule layer translate into accepted labels — the
//! defining property of a *silent* algorithm (§II-C).

use self_stabilizing_spanning_trees::core::spanning::MinIdSpanningTree;
use self_stabilizing_spanning_trees::core::{construct_mdst, construct_mst, EngineConfig};
use self_stabilizing_spanning_trees::graph::{generators, NodeId};
use self_stabilizing_spanning_trees::labeling::fr_labels::FrScheme;
use self_stabilizing_spanning_trees::labeling::mst_fragments::FragmentScheme;
use self_stabilizing_spanning_trees::labeling::nca::NcaScheme;
use self_stabilizing_spanning_trees::labeling::redundant::{RedundantLabel, RedundantScheme};
use self_stabilizing_spanning_trees::labeling::scheme::{Instance, ProofLabelingScheme};
use self_stabilizing_spanning_trees::runtime::{Executor, ExecutorConfig};

#[test]
fn stabilized_mst_is_accepted_by_every_relevant_scheme() {
    let g = generators::workload(22, 0.25, 33);
    let report = construct_mst(&g, &EngineConfig::seeded(33));
    assert!(report.legal);
    let tree = &report.tree;
    let inst = Instance::from_tree(&g, tree);
    // Spanning-tree schemes: the redundant labels and their distance-only and
    // size-only views.
    let redundant = RedundantScheme.prove(&g, tree);
    let distances: Vec<RedundantLabel> = redundant.iter().map(|l| l.pruned_to_distance()).collect();
    let sizes: Vec<RedundantLabel> = redundant.iter().map(|l| l.pruned_to_size()).collect();
    for accepted in [
        RedundantScheme.verify_all(&inst, &distances).accepted(),
        RedundantScheme.verify_all(&inst, &sizes).accepted(),
        RedundantScheme.verify_all(&inst, &redundant).accepted(),
        NcaScheme
            .verify_all(&inst, &NcaScheme.prove(&g, tree))
            .accepted(),
        // MST-specific fragment labels: φ(T) = 0 means every verifier accepts.
        FragmentScheme
            .verify_all(&inst, &FragmentScheme.prove(&g, tree))
            .accepted(),
    ] {
        assert!(accepted);
    }
}

#[test]
fn stabilized_mdst_is_fr_certified_at_every_node() {
    let g = generators::workload(18, 0.35, 44);
    let report = construct_mdst(&g, &EngineConfig::seeded(44));
    assert!(report.legal);
    let inst = Instance::from_tree(&g, &report.tree);
    let labels = FrScheme.prove(&g, &report.tree);
    let outcome = FrScheme.verify_all(&inst, &labels);
    assert!(
        outcome.accepted(),
        "rejecting nodes: {:?}",
        outcome.rejecting
    );
    // Label sizes are the O(log n)-class budget of Corollary 8.1 (codec-derived
    // accounting: each field costs its fixed instance width plus one escape bit).
    let ctx = stst_runtime::CodecCtx::for_graph(&g);
    assert!(FrScheme.max_label_bits(&ctx, &labels) <= 46);
}

#[test]
fn spanning_registers_translate_into_accepted_distance_and_size_labels() {
    // The guarded-rule layer maintains (root, parent, dist, size); projecting those
    // registers onto the distance-only and size-only views of the redundant scheme must
    // yield accepted labelings — this is what makes the layer silent *with* local
    // verification rather than by fiat.
    let g = generators::workload(26, 0.18, 55);
    let mut exec = Executor::from_arbitrary(&g, MinIdSpanningTree, ExecutorConfig::seeded(55));
    let q = exec.run_to_quiescence(5_000_000).unwrap();
    assert!(q.silent && q.legal);
    let tree = exec.extract_tree().unwrap();
    let root_ident = g.ident(tree.root());
    let labels: Vec<RedundantLabel> = exec
        .states()
        .iter()
        .map(|s| RedundantLabel::full(root_ident, s.dist, s.size))
        .collect();
    let dist_labels: Vec<RedundantLabel> = labels.iter().map(|l| l.pruned_to_distance()).collect();
    let size_labels: Vec<RedundantLabel> = labels.iter().map(|l| l.pruned_to_size()).collect();
    let inst = Instance::from_tree(&g, &tree);
    assert!(RedundantScheme.verify_all(&inst, &dist_labels).accepted());
    assert!(RedundantScheme.verify_all(&inst, &size_labels).accepted());
}

#[test]
fn a_single_corrupted_register_is_locally_detectable() {
    // Silence requires that *illegality is detected locally*: corrupt one stabilized
    // register and check that some node in its 1-hop neighborhood becomes enabled
    // (detects the inconsistency), not some far-away node.
    let g = generators::workload(24, 0.2, 66);
    let mut exec = Executor::from_arbitrary(&g, MinIdSpanningTree, ExecutorConfig::seeded(66));
    exec.run_to_quiescence(5_000_000).unwrap();
    let victim = NodeId(5);
    let mut corrupted = exec.state(victim);
    corrupted.dist += 3;
    corrupted.size += 1;
    exec.corrupt_node(victim, corrupted);
    let enabled = exec.enabled_nodes();
    assert!(!enabled.is_empty(), "the fault must be detected");
    let neighborhood: Vec<NodeId> = std::iter::once(victim)
        .chain(g.neighbors(victim).iter().map(|&(w, _)| w))
        .collect();
    assert!(
        enabled.iter().all(|v| neighborhood.contains(v)),
        "detection must be local to the fault: enabled = {enabled:?}"
    );
}
