//! The immutable serving snapshot: one silent configuration, packed for queries.
//!
//! A [`ServeSnapshot`] is taken from a [`CompositionEngine`] at a *publishable*
//! boundary ([`CompositionEngine::is_publishable`]): the composition is silent and
//! every verifier has accepted the configuration, so the certificates the snapshot
//! carries are exactly the ones the paper's silent configurations expose to
//! higher-level protocols. Each label family is re-encoded in pages of
//! [`PAGE_SLOTS`] slots, each page the bit windows of a packed [`ConfigStore`] of its
//! labels, so the snapshot shares no memory with the engine's live state — the engine
//! is free to keep repairing under churn while readers query the snapshot.
//!
//! Pages are immutable and shared between epochs through `Arc`. A publication from
//! the engine that published the previous snapshot (the same
//! [`LabelWrites::lineage`]), under the same codec context and node count, re-packs
//! only the pages holding a label the engine wrote since the previous publication
//! ([`LabelWrites::page_stamps`]) and shares every other page, the identities and an
//! unchanged parent vector with it. Any other publication packs every page, with the
//! same code: every page counts as written. Either way each page is bit-identical to
//! a fresh pack of the engine's current labels.
//!
//! The snapshot also keeps the tree's parent vector. Queries never touch it (they run
//! off the labels alone); it exists so the differential oracle can re-derive every
//! answer by direct tree traversal *of the pinned epoch's tree* and so routing
//! escapes have a reference structure to walk.

use std::sync::Arc;

use stst_core::engine::LabelFamily;
use stst_core::writes::LabelWrites;
use stst_core::{CompositionEngine, EngineTask};
use stst_graph::{Ident, NodeId};
use stst_labeling::fr_labels::{FrLabel, FrScheme};
use stst_labeling::mst_fragments::FragmentLabel;
use stst_labeling::nca::NcaLabel;
use stst_labeling::redundant::RedundantLabel;
use stst_labeling::scheme::ProofLabelingScheme;
use stst_runtime::bits::BitReader;
use stst_runtime::store::{ConfigStore, StoreMode, PAGE_SLOTS};
use stst_runtime::{Codec, CodecCtx, FieldReader};

/// One label family of a snapshot in pages of [`PAGE_SLOTS`] slots (the last one
/// possibly shorter), each page shared with other epochs whose labels on that page are
/// the same.
#[derive(Debug, PartialEq)]
pub(crate) struct PagedStore<S> {
    pages: Vec<Page<S>>,
    /// Slots across every page.
    len: usize,
}

/// One page: the bit windows of a packed [`ConfigStore`] of its slots (every slot
/// present, so no presence bitmap), or the labels themselves in struct mode.
#[derive(Debug, PartialEq)]
enum Page<S> {
    Packed { stride: u32, words: Arc<[u64]> },
    Struct(Arc<[S]>),
}

impl<S: Codec + Clone> Clone for Page<S> {
    fn clone(&self) -> Self {
        match self {
            Page::Packed { stride, words } => Page::Packed {
                stride: *stride,
                words: Arc::clone(words),
            },
            Page::Struct(labels) => Page::Struct(Arc::clone(labels)),
        }
    }
}

impl<S: Codec + Clone> Page<S> {
    /// Packs `labels` the way [`ConfigStore::from_slice`] does.
    fn pack(mode: StoreMode, labels: &[S], ctx: &CodecCtx) -> Self {
        match mode {
            StoreMode::Struct => Page::Struct(labels.into()),
            StoreMode::Packed => {
                let store = ConfigStore::from_slice(mode, labels, ctx);
                let (words, stride) = store.raw_parts().unwrap_or((&[], 0));
                Page::Packed {
                    stride,
                    words: words.into(),
                }
            }
        }
    }
}

impl<S: Codec + Clone> PagedStore<S> {
    /// Packs `labels` page by page, taking page `p` from `prev` unless `prev` is
    /// `None` or `written(p)`; counts the pages it packed into `packed`.
    fn pack(
        mode: StoreMode,
        labels: &[S],
        ctx: &CodecCtx,
        prev: Option<&PagedStore<S>>,
        written: impl Fn(usize) -> bool,
        packed: &mut usize,
    ) -> Self {
        let pages = labels
            .chunks(PAGE_SLOTS)
            .enumerate()
            .map(|(p, chunk)| match prev {
                Some(prev) if !written(p) => prev.pages[p].clone(),
                _ => {
                    *packed += 1;
                    Page::pack(mode, chunk, ctx)
                }
            })
            .collect();
        PagedStore {
            pages,
            len: labels.len(),
        }
    }

    /// A decode-free cursor at the start of `v`'s register: `None` in struct mode or
    /// for zero-bit registers (see [`ConfigStore::field_reader`]).
    #[inline]
    pub(crate) fn field_reader(&self, v: NodeId) -> Option<FieldReader<'_>> {
        match &self.pages[v.0 / PAGE_SLOTS] {
            Page::Packed { stride, words } if *stride > 0 => Some(FieldReader::new(
                words,
                (v.0 % PAGE_SLOTS) as u64 * *stride as u64,
            )),
            _ => None,
        }
    }

    /// Decodes the register of `v`.
    pub(crate) fn get(&self, v: NodeId, ctx: &CodecCtx) -> S {
        let slot = v.0 % PAGE_SLOTS;
        match &self.pages[v.0 / PAGE_SLOTS] {
            Page::Packed { stride, words } => S::decode_from(
                ctx,
                &mut BitReader::new(words, slot as u64 * *stride as u64),
            ),
            Page::Struct(labels) => labels[slot].clone(),
        }
    }

    fn decode_all(&self, ctx: &CodecCtx) -> Vec<S> {
        (0..self.len).map(|v| self.get(NodeId(v), ctx)).collect()
    }

    fn page_count(&self) -> usize {
        self.pages.len()
    }
}

/// Every label of a snapshot, decoded ([`ServeSnapshot::decode_labels`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotLabels {
    /// NCA labels, by node.
    pub nca: Vec<NcaLabel>,
    /// Redundant distance/size labels, by node.
    pub redundant: Vec<RedundantLabel>,
    /// Fragment labels (MST snapshots).
    pub fragments: Option<Vec<FragmentLabel>>,
    /// FR-tree labels (MDST snapshots).
    pub fr: Option<Vec<FrLabel>>,
}

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
    /// The source engine's lineage and write clock at publication: what the next
    /// publication compares the engine's write stamps with.
    lineage: u64,
    clock: u64,
    /// Node identities, indexed by [`NodeId`].
    idents: Arc<Vec<Ident>>,
    /// The silent tree's parent vector (differential-oracle reference; not used by
    /// the label-only query paths).
    parents: Arc<Vec<Option<NodeId>>>,
    root: NodeId,
    /// Heavy-path NCA labels (§V) — NCA, ancestor and distance queries.
    pub(crate) nca: PagedStore<NcaLabel>,
    /// Redundant distance+size labels (§IV) — distance-to-root queries.
    pub(crate) redundant: PagedStore<RedundantLabel>,
    /// Borůvka fragment labels (§VI), present for MST tasks.
    pub(crate) fragments: Option<PagedStore<FragmentLabel>>,
    /// FR-tree labels (§VIII), present for MDST tasks.
    pub(crate) fr: Option<PagedStore<FrLabel>>,
    /// Pages this publication packed (the others it shares with the previous one).
    packed_pages: usize,
}

/// Snapshots are equal when they publish the same configuration bit for bit: stamps,
/// context, mode, task, identities, tree and every page of every label family. How
/// many pages a publication packed rather than shared is not part of the value.
impl PartialEq for ServeSnapshot {
    fn eq(&self, other: &Self) -> bool {
        (
            self.wave,
            self.ctx,
            self.mode,
            self.task,
            self.lineage,
            self.clock,
        ) == (
            other.wave,
            other.ctx,
            other.mode,
            other.task,
            other.lineage,
            other.clock,
        ) && self.idents == other.idents
            && (&self.parents, self.root) == (&other.parents, other.root)
            && self.nca == other.nca
            && self.redundant == other.redundant
            && self.fragments == other.fragments
            && self.fr == other.fr
    }
}

impl ServeSnapshot {
    /// Freezes the engine's current silent configuration into a snapshot whose label
    /// stores use `mode` ([`StoreMode::Packed`] for serving; [`StoreMode::Struct`] is
    /// the reference representation the differential tests compare against), packing
    /// every page.
    ///
    /// # Panics
    ///
    /// Panics if the engine is not at a publishable boundary
    /// ([`CompositionEngine::is_publishable`]) — publishing a non-silent
    /// configuration would leak uncertified state to readers.
    pub fn from_engine(engine: &CompositionEngine<'_>, mode: StoreMode) -> Self {
        ServeSnapshot::after(None, engine, mode)
    }

    /// [`ServeSnapshot::from_engine`] sharing with `prev`, the previous publication,
    /// every page (and the identities and parent vector) the engine has not written
    /// since — when `prev` came from the same engine lineage under the same codec
    /// context, node count, mode and task (see the module docs).
    pub(crate) fn after(
        prev: Option<&ServeSnapshot>,
        engine: &CompositionEngine<'_>,
        mode: StoreMode,
    ) -> Self {
        assert!(
            engine.is_publishable(),
            "snapshots are published from silent configurations only"
        );
        let ctx = engine.codec_ctx();
        let graph = engine.graph();
        let tree = engine.tree();
        let writes: &LabelWrites = engine.label_writes();
        let n = graph.node_count();
        let prev = prev.filter(|prev| {
            (
                prev.lineage,
                prev.ctx,
                prev.node_count(),
                prev.mode,
                prev.task,
            ) == (writes.lineage(), ctx, n, mode, engine.task())
        });
        let since = prev.map_or(0, |prev| prev.clock);
        let written = |family| move |p: usize| writes.page_stamps(family)[p] > since;
        let mut packed = 0;
        let nca = PagedStore::pack(
            mode,
            engine.nca_labels(),
            &ctx,
            prev.map(|prev| &prev.nca),
            written(LabelFamily::Nca),
            &mut packed,
        );
        let redundant = PagedStore::pack(
            mode,
            engine.redundant_labels(),
            &ctx,
            prev.map(|prev| &prev.redundant),
            written(LabelFamily::Redundant),
            &mut packed,
        );
        let fragments = engine.fragment_labels().map(|labels| {
            PagedStore::pack(
                mode,
                labels,
                &ctx,
                prev.and_then(|prev| prev.fragments.as_ref()),
                written(LabelFamily::Fragments),
                &mut packed,
            )
        });
        // MDST engines do not retain FR labels between waves; the silent tree is an
        // FR-tree (that is what its verifiers accepted), so the prover re-derives
        // them here and every page is packed — a read-only O(n) pass, same cost class
        // as the re-encoding.
        let fr = (engine.task() == EngineTask::Mdst).then(|| {
            let labels = FrScheme.prove(graph, tree);
            PagedStore::pack(mode, &labels, &ctx, None, |_| true, &mut packed)
        });
        let idents = match prev {
            Some(prev) if writes.ident_stamp() <= since => Arc::clone(&prev.idents),
            _ => Arc::new(graph.nodes().map(|v| graph.ident(v)).collect()),
        };
        let parents = match prev {
            Some(prev) if writes.tree_stamp() <= since => Arc::clone(&prev.parents),
            _ => Arc::new(tree.parents().to_vec()),
        };
        ServeSnapshot {
            wave: engine.total_rounds(),
            ctx,
            mode,
            task: engine.task(),
            lineage: writes.lineage(),
            clock: writes.clock(),
            idents,
            parents,
            root: tree.root(),
            nca,
            redundant,
            fragments,
            fr,
            packed_pages: packed,
        }
    }

    /// Pages of label slots this publication packed; the others it shares with the
    /// previous publication.
    pub fn packed_pages(&self) -> usize {
        self.packed_pages
    }

    /// Pages of label slots across every family of the snapshot.
    pub fn page_count(&self) -> usize {
        self.nca.page_count()
            + self.redundant.page_count()
            + self.fragments.as_ref().map_or(0, PagedStore::page_count)
            + self.fr.as_ref().map_or(0, PagedStore::page_count)
    }

    /// Decodes every label of every family (the differential oracle's view).
    pub fn decode_labels(&self) -> SnapshotLabels {
        SnapshotLabels {
            nca: self.nca.decode_all(&self.ctx),
            redundant: self.redundant.decode_all(&self.ctx),
            fragments: self.fragments.as_ref().map(|f| f.decode_all(&self.ctx)),
            fr: self.fr.as_ref().map(|f| f.decode_all(&self.ctx)),
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
