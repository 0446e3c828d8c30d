//! Write stamps and paged publication.
//!
//! * **Every write path stamps what it changes**: after every engine entry point
//!   (phase steps, topology batches with and without node churn, label faults, stale
//!   certificates), every label that differs from before lies on a page the engine
//!   stamped after the previous clock, and a changed tree or identity vector carries
//!   a newer tree or identity stamp — for the incremental and from-scratch MST engines
//!   and the MDST engine.
//! * **A paged publication is a fresh pack**: at every epoch the snapshot a hub
//!   publishes equals, page for page and bit for bit, the snapshot a full pack of the
//!   engine would give, and its decoded labels are the engine's — under churn, label
//!   faults, stale certificates, a widening weight, node churn, restore, and two
//!   engines publishing into one hub, in both store modes.
//! * **A severing batch commits nothing**: in the middle of a trace whose earlier
//!   batches were committed in place, a batch that severs the network leaves the
//!   engine's checkpoint byte-identical.

use self_stabilizing_spanning_trees::churn::event::batch_mutations;
use self_stabilizing_spanning_trees::churn::{trace, ChurnTrace};
use self_stabilizing_spanning_trees::core::engine::{
    CompositionEngine, EngineTask, LabelFamily, PhaseEvent,
};
use self_stabilizing_spanning_trees::core::{EngineConfig, Relabel};
use self_stabilizing_spanning_trees::graph::mst::kruskal;
use self_stabilizing_spanning_trees::graph::{generators, Graph, Mutation, NodeId};
use self_stabilizing_spanning_trees::labeling::mst_fragments::FragmentLabel;
use self_stabilizing_spanning_trees::labeling::nca::NcaLabel;
use self_stabilizing_spanning_trees::labeling::redundant::RedundantLabel;
use self_stabilizing_spanning_trees::runtime::store::PAGE_SLOTS;
use self_stabilizing_spanning_trees::runtime::StoreMode;
use self_stabilizing_spanning_trees::serve::{ServeHub, ServeSnapshot};

/// The engines the tests run: (task, relabel mode).
const ENGINES: [(EngineTask, Relabel); 3] = [
    (EngineTask::Mst, Relabel::Incremental),
    (EngineTask::Mst, Relabel::FromScratch),
    (EngineTask::Mdst, Relabel::Incremental),
];

fn engine(graph: &Graph, task: EngineTask, relabel: Relabel, seed: u64) -> CompositionEngine<'_> {
    let config = EngineConfig::seeded(seed).with_relabel(relabel);
    CompositionEngine::new(graph, task, config)
}

/// Steps to silence.
fn settle(engine: &mut CompositionEngine<'_>) {
    while !matches!(engine.step(), PhaseEvent::Stabilized { .. }) {}
}

/// Everything a write can change, with the write clock it was read at.
struct Seen {
    clock: u64,
    fragments: Option<Vec<FragmentLabel>>,
    nca: Vec<NcaLabel>,
    redundant: Vec<RedundantLabel>,
    parents: Option<Vec<Option<NodeId>>>,
    idents: Vec<u64>,
}

impl Seen {
    /// What `engine` holds now; `built` once its tree exists.
    fn of(engine: &CompositionEngine<'_>, built: bool) -> Self {
        let graph = engine.graph();
        Seen {
            clock: engine.label_writes().clock(),
            fragments: engine.fragment_labels().map(<[_]>::to_vec),
            nca: engine.nca_labels().to_vec(),
            redundant: engine.redundant_labels().to_vec(),
            parents: built.then(|| engine.tree().parents().to_vec()),
            idents: graph.nodes().map(|v| graph.ident(v)).collect(),
        }
    }

    /// Asserts that every difference between `self` and the engine now is stamped
    /// after `self.clock`.
    fn assert_stamped(&self, engine: &CompositionEngine<'_>, what: &str) {
        let writes = engine.label_writes();
        let now = Seen::of(engine, self.parents.is_some());
        let newer = |stamp: u64| stamp > self.clock;
        if now.idents != self.idents {
            assert!(newer(writes.ident_stamp()), "{what}: identities changed");
            return;
        }
        fn changed<L: PartialEq>(before: &[L], after: &[L]) -> Vec<usize> {
            if before.len() != after.len() {
                return (0..after.len()).collect();
            }
            (0..after.len())
                .filter(|&v| before[v] != after[v])
                .collect()
        }
        let families: [(LabelFamily, Vec<usize>); 3] = [
            (
                LabelFamily::Fragments,
                changed(
                    self.fragments.as_deref().unwrap_or(&[]),
                    now.fragments.as_deref().unwrap_or(&[]),
                ),
            ),
            (LabelFamily::Nca, changed(&self.nca, &now.nca)),
            (
                LabelFamily::Redundant,
                changed(&self.redundant, &now.redundant),
            ),
        ];
        for (family, nodes) in families {
            for v in nodes {
                let stamp = writes.page_stamps(family)[v / PAGE_SLOTS];
                assert!(
                    newer(stamp),
                    "{what}: {family:?} label of node {v} not stamped"
                );
            }
        }
        if let (Some(before), Some(after)) = (&self.parents, &now.parents) {
            if before != after {
                assert!(newer(writes.tree_stamp()), "{what}: tree changed");
            }
        }
    }
}

/// A steady trace with node churn, joins and leaves included.
fn churn_trace(graph: &Graph, seed: u64) -> ChurnTrace {
    trace::steady_poisson(graph, 36, 1.5, 0.2, seed)
}

#[test]
fn every_write_path_stamps_what_it_changes() {
    for (task, relabel) in ENGINES {
        for seed in [3u64, 8] {
            let g = generators::workload(90, 6.0 / 90.0, seed);
            let mut engine = engine(&g, task, relabel, seed);
            let what = |step: &str| format!("{task:?}/{relabel:?} seed {seed}: {step}");
            let step = |engine: &mut CompositionEngine<'_>, label: &str| {
                let seen = Seen::of(engine, true);
                let event = engine.step();
                seen.assert_stamped(engine, &what(&format!("{label} {event:?}")));
                matches!(event, PhaseEvent::Stabilized { .. })
            };
            assert!(matches!(engine.step(), PhaseEvent::TreeConstructed { .. }));
            while !step(&mut engine, "label and improve") {}
            for (b, batch) in churn_trace(&g, seed).batches.iter().enumerate() {
                let seen = Seen::of(&engine, true);
                let mutations = batch_mutations(batch, engine.graph().node_count());
                engine.apply_topology(&mutations);
                seen.assert_stamped(&engine, &what(&format!("batch {b}")));
                while !step(&mut engine, "repair") {}
                let seen = Seen::of(&engine, true);
                match b % 6 {
                    2 => {
                        engine.corrupt_random_labels(3);
                    }
                    5 => {
                        engine.corrupt_stale_certificates();
                    }
                    _ => continue,
                }
                seen.assert_stamped(&engine, &what(&format!("fault after batch {b}")));
                while !step(&mut engine, "recovery") {}
            }
        }
    }
}

/// Publishes `engine` into `hub` and checks the new epoch against a fresh pack of the
/// engine and against the engine's labels. Returns `(pages packed, pages)`.
fn publish_and_compare(
    hub: &ServeHub,
    engine: &CompositionEngine<'_>,
    what: &str,
) -> (usize, usize) {
    let epoch = hub.publish_from_engine(engine);
    let reader = hub.reader().expect("published");
    let published = reader.snapshot();
    let fresh = ServeSnapshot::from_engine(engine, hub.mode());
    assert!(
        *published == fresh,
        "{what} (epoch {epoch}): the published snapshot differs from a fresh pack"
    );
    assert_eq!(
        fresh.packed_pages(),
        fresh.page_count(),
        "{what}: a fresh pack packs all"
    );
    let labels = published.decode_labels();
    assert_eq!(labels.nca, engine.nca_labels(), "{what}: NCA labels");
    assert_eq!(
        labels.redundant,
        engine.redundant_labels(),
        "{what}: redundant labels"
    );
    assert_eq!(
        labels.fragments.as_deref(),
        engine.fragment_labels(),
        "{what}: fragment labels"
    );
    (published.packed_pages(), published.page_count())
}

#[test]
fn paged_publications_equal_fresh_packs() {
    for mode in [StoreMode::Packed, StoreMode::Struct] {
        for (task, relabel) in ENGINES {
            let seed = 5;
            let g = generators::workload(200, 6.0 / 200.0, seed);
            let hub = ServeHub::new(mode);
            let what = |step: &str| format!("{mode:?} {task:?}/{relabel:?}: {step}");
            let mut engine = engine(&g, task, relabel, seed);
            settle(&mut engine);
            let (packed, pages) = publish_and_compare(&hub, &engine, &what("first"));
            assert_eq!(packed, pages, "the first publication packs every page");
            let mut shared = 0;
            let trace = churn_trace(&g, seed);
            for (b, batch) in trace.batches.iter().enumerate() {
                let engine = &mut engine;
                let mutations = batch_mutations(batch, engine.graph().node_count());
                if let PhaseEvent::Partitioned { .. } = engine.apply_topology(&mutations) {
                    continue;
                }
                settle(engine);
                let (packed, pages) =
                    publish_and_compare(&hub, engine, &what(&format!("batch {b}")));
                shared += usize::from(packed < pages);
                match b {
                    b if b % 5 == 4 => {
                        engine.corrupt_random_labels(2);
                    }
                    11 => {
                        engine.corrupt_stale_certificates();
                    }
                    17 => {
                        // A weight that widens the codec context: every page repacks.
                        let e = engine.graph().edges()[0];
                        let before = hub_ctx(&hub);
                        let widen = [Mutation::SetWeight {
                            u: e.u,
                            v: e.v,
                            weight: 1 << 40,
                        }];
                        assert!(matches!(
                            engine.apply_topology(&widen),
                            PhaseEvent::TopologyApplied { .. }
                        ));
                        settle(engine);
                        let (packed, pages) = publish_and_compare(&hub, engine, &what("widened"));
                        assert_ne!(before, hub_ctx(&hub), "the weight widened the context");
                        assert_eq!(packed, pages, "a new context packs every page");
                        continue;
                    }
                    23 => {
                        let snapshot = engine.checkpoint();
                        (*engine, _) = CompositionEngine::restore(&snapshot, 1).expect("restores");
                        settle(engine);
                        let (packed, pages) = publish_and_compare(&hub, engine, &what("restored"));
                        assert_eq!(packed, pages, "a new lineage packs every page");
                        continue;
                    }
                    _ => continue,
                }
                settle(engine);
                publish_and_compare(&hub, engine, &what(&format!("fault after batch {b}")));
            }
            assert!(
                shared > 5,
                "{}: publications shared pages only {shared} times",
                what("")
            );
        }
    }
}

/// The codec context of the hub's newest snapshot.
fn hub_ctx(hub: &ServeHub) -> self_stabilizing_spanning_trees::runtime::CodecCtx {
    *hub.reader().expect("published").snapshot().ctx()
}

#[test]
fn two_engines_publishing_into_one_hub_never_share_pages() {
    // Two writers on graphs of the same size, like consecutive churn-serve segments
    // (and, interleaved, a stricter case): a publication after the other writer's
    // packs every page, and a writer's next one shares again.
    let (ga, gb) = (
        generators::workload(160, 6.0 / 160.0, 11),
        generators::workload(160, 6.0 / 160.0, 12),
    );
    let hub = ServeHub::new(StoreMode::Packed);
    let mut a = engine(&ga, EngineTask::Mst, Relabel::Incremental, 11);
    let mut b = engine(&gb, EngineTask::Mst, Relabel::Incremental, 12);
    settle(&mut a);
    settle(&mut b);
    let (ta, tb) = (churn_trace(&ga, 11), churn_trace(&gb, 12));
    let mut shared = 0;
    for (i, (ba, bb)) in ta.batches.iter().zip(&tb.batches).enumerate() {
        for (name, engine, batch) in [("a", &mut a, ba), ("b", &mut b, bb)] {
            let what = format!("engine {name} round {i}");
            let (packed, pages) = publish_and_compare(&hub, engine, &format!("{what} switch"));
            assert_eq!(packed, pages, "{what}: the other engine published last");
            let mutations = batch_mutations(batch, engine.graph().node_count());
            if let PhaseEvent::TopologyApplied { .. } = engine.apply_topology(&mutations) {
                settle(engine);
                let (packed, pages) = publish_and_compare(&hub, engine, &what);
                shared += usize::from(packed < pages);
            }
        }
    }
    assert!(
        shared > 5,
        "same-engine publications shared pages only {shared} times"
    );
}

#[test]
fn a_severing_batch_after_in_place_commits_leaves_the_checkpoint_unchanged() {
    for seed in [4u64, 9] {
        let g = generators::workload(150, 6.0 / 150.0, seed);
        let mut engine = engine(&g, EngineTask::Mst, Relabel::Incremental, seed);
        settle(&mut engine);
        let trace = trace::steady_poisson(&g, 40, 1.5, 0.0, seed);
        for (b, batch) in trace.batches.iter().enumerate() {
            let mutations = batch_mutations(batch, engine.graph().node_count());
            engine.apply_topology(&mutations);
            settle(&mut engine);
            if b % 10 != 9 {
                continue;
            }
            // Cut off one node (and, from the second cut on, a second one too), the
            // tree edges included: the batch severs the network.
            let graph = engine.graph();
            let cut: Vec<NodeId> = graph.nodes().skip(b).step_by(37).take(1 + b / 20).collect();
            let severing: Vec<Mutation> = cut
                .iter()
                .flat_map(|&v| graph.neighbors(v).iter().map(move |&(w, _)| (v, w)))
                .filter(|&(v, w)| v < w || !cut.contains(&w))
                .map(|(u, v)| Mutation::RemoveEdge { u, v })
                .collect();
            let mut expected = graph.clone();
            expected.apply_mutations(&severing);
            let components = expected.component_count();
            assert!(components > 1, "seed {seed} batch {b}: the cut severs");
            let before = engine.checkpoint().to_bytes();
            assert_eq!(
                engine.apply_topology(&severing),
                PhaseEvent::Partitioned { components },
                "seed {seed} batch {b}"
            );
            assert_eq!(
                engine.checkpoint().to_bytes(),
                before,
                "seed {seed} batch {b}: a severing batch commits nothing"
            );
            assert!(engine.is_publishable());
        }
        let tree_weight = engine.tree().total_weight(engine.graph());
        let mst = kruskal(engine.graph()).expect("connected");
        assert_eq!(tree_weight, mst.total_weight(engine.graph()), "seed {seed}");
    }
}
