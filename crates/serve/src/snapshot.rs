//! The immutable serving snapshot: one silent configuration, packed for queries.
//!
//! A [`ServeSnapshot`] is taken from a [`CompositionEngine`] at a *publishable*
//! boundary ([`CompositionEngine::is_publishable`]): the composition is silent and
//! every verifier has accepted the configuration, so the certificates the snapshot
//! carries are exactly the ones the paper's silent configurations expose to
//! higher-level protocols. The label families are re-encoded into fresh packed
//! [`ConfigStore`]s (one heap allocation each, [`ConfigStore::from_slice`]),
//! so the snapshot shares no memory with the engine's live state — the engine is free
//! to keep repairing under churn while readers query the snapshot.
//!
//! The snapshot also keeps the tree's parent vector. Queries never touch it (they run
//! off the labels alone); it exists so the differential oracle can re-derive every
//! answer by direct tree traversal *of the pinned epoch's tree* and so routing
//! escapes have a reference structure to walk.

use stst_core::{CompositionEngine, EngineTask};
use stst_graph::{Ident, NodeId};
use stst_labeling::fr_labels::{FrLabel, FrScheme};
use stst_labeling::mst_fragments::FragmentLabel;
use stst_labeling::nca::NcaLabel;
use stst_labeling::redundant::RedundantLabel;
use stst_labeling::scheme::ProofLabelingScheme;
use stst_runtime::store::{ConfigStore, StoreMode};
use stst_runtime::CodecCtx;

/// One silent configuration, frozen for serving. Immutable after construction.
#[derive(Debug)]
pub struct ServeSnapshot {
    /// The engine's deterministic round total at the silence this snapshot was taken
    /// from — the wave stamp staleness is measured against.
    wave: u64,
    /// Codec field widths the label stores were encoded under.
    ctx: CodecCtx,
    mode: StoreMode,
    task: EngineTask,
    /// Node identities, indexed by [`NodeId`].
    idents: Vec<Ident>,
    /// The silent tree's parent vector (differential-oracle reference; not used by
    /// the label-only query paths).
    parents: Vec<Option<NodeId>>,
    root: NodeId,
    /// Heavy-path NCA labels (§V) — NCA, ancestor and distance queries.
    pub(crate) nca: ConfigStore<NcaLabel>,
    /// Redundant distance+size labels (§IV) — distance-to-root queries.
    pub(crate) redundant: ConfigStore<RedundantLabel>,
    /// Borůvka fragment labels (§VI), present for MST tasks.
    pub(crate) fragments: Option<ConfigStore<FragmentLabel>>,
    /// FR-tree labels (§VIII), present for MDST tasks.
    pub(crate) fr: Option<ConfigStore<FrLabel>>,
}

impl ServeSnapshot {
    /// Freezes the engine's current silent configuration into a snapshot whose label
    /// stores use `mode` ([`StoreMode::Packed`] for serving; [`StoreMode::Struct`] is
    /// the reference representation the differential tests compare against).
    ///
    /// # Panics
    ///
    /// Panics if the engine is not at a publishable boundary
    /// ([`CompositionEngine::is_publishable`]) — publishing a non-silent
    /// configuration would leak uncertified state to readers.
    pub fn from_engine(engine: &CompositionEngine<'_>, mode: StoreMode) -> Self {
        assert!(
            engine.is_publishable(),
            "snapshots are published from silent configurations only"
        );
        let ctx = engine.codec_ctx();
        let graph = engine.graph();
        let tree = engine.tree();
        let nca = ConfigStore::from_slice(mode, engine.nca_labels(), &ctx);
        let redundant = ConfigStore::from_slice(mode, engine.redundant_labels(), &ctx);
        let fragments = engine
            .fragment_labels()
            .map(|labels| ConfigStore::from_slice(mode, labels, &ctx));
        // MDST engines do not retain FR labels between waves; the silent tree is an
        // FR-tree (that is what its verifiers accepted), so the prover re-derives
        // them here — a read-only O(n) pass, same cost class as the re-encoding.
        let fr = (engine.task() == EngineTask::Mdst)
            .then(|| ConfigStore::from_slice(mode, &FrScheme.prove(graph, tree), &ctx));
        ServeSnapshot {
            wave: engine.total_rounds(),
            ctx,
            mode,
            task: engine.task(),
            idents: graph.nodes().map(|v| graph.ident(v)).collect(),
            parents: tree.parents().to_vec(),
            root: tree.root(),
            nca,
            redundant,
            fragments,
            fr,
        }
    }

    /// Number of nodes in the snapshot's configuration.
    pub fn node_count(&self) -> usize {
        self.idents.len()
    }

    /// The wave stamp (engine round total at the source silence).
    pub fn wave(&self) -> u64 {
        self.wave
    }

    /// The codec field widths the stores were encoded under.
    pub fn ctx(&self) -> &CodecCtx {
        &self.ctx
    }

    /// The store representation of the label families.
    pub fn mode(&self) -> StoreMode {
        self.mode
    }

    /// The task of the engine the snapshot was taken from.
    pub fn task(&self) -> EngineTask {
        self.task
    }

    /// The identity of node `v`.
    pub fn ident(&self, v: NodeId) -> Ident {
        self.idents[v.0]
    }

    /// The pinned tree's parent vector (differential-oracle reference).
    pub fn parents(&self) -> &[Option<NodeId>] {
        &self.parents
    }

    /// The pinned tree's root.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Depth of `v` by direct parent-pointer traversal of the pinned tree — the
    /// reference the label-derived answers are differentially checked against.
    pub fn traversal_depth(&self, v: NodeId) -> u64 {
        let mut depth = 0;
        let mut cur = v;
        while let Some(p) = self.parents[cur.0] {
            depth += 1;
            cur = p;
        }
        depth
    }

    /// NCA of `u` and `v` by direct parent-pointer traversal of the pinned tree.
    pub fn traversal_nca(&self, u: NodeId, v: NodeId) -> NodeId {
        let (mut a, mut b) = (u, v);
        let (mut da, mut db) = (self.traversal_depth(a), self.traversal_depth(b));
        while da > db {
            a = self.parents[a.0].expect("depth positive implies a parent");
            da -= 1;
        }
        while db > da {
            b = self.parents[b.0].expect("depth positive implies a parent");
            db -= 1;
        }
        while a != b {
            a = self.parents[a.0].expect("roots are unique, so walks meet");
            b = self.parents[b.0].expect("roots are unique, so walks meet");
        }
        a
    }
}
