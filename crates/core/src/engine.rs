//! The resumable composition engine driving the MST and MDST constructions at wave
//! granularity with **incremental label maintenance**.
//!
//! [`CompositionEngine`] owns the tree and the label families — Borůvka fragment labels
//! (§VI), NCA labels (§V), redundant distance/size labels (§IV) — as persistent state,
//! exposes phase-step granularity ([`CompositionEngine::step`]), and after every
//! loop-free switch `T ← T + e − f` repairs each family on the dirty region the paper
//! charges (Lemmas 3.1, 4.1, 7.1): the fundamental cycle and the re-hung subtrees.
//! Fragment labels repair their dirty frontier
//! ([`stst_labeling::mst_fragments::FragmentState::apply_swap`]), NCA labels descend
//! only while a label changes ([`stst_labeling::nca::repair_nca_labels`]), redundant
//! labels patch depths and sizes ([`stst_labeling::redundant::repair_redundant_labels`]).
//!
//! Everything else goes through **one from-scratch prover** (any subset of the families
//! on any tree, concurrently on the pool) and **one cost table** (each family's
//! from-scratch rounds): the first labeling wave, the [`Relabel::FromScratch`]
//! reference mode that `tests/incremental_label_oracle.rs` compares the repairs with,
//! and recovery. Recovery is the paper's one mechanism for any configuration: a
//! transient fault injected between waves ([`CompositionEngine::corrupt_random_labels`])
//! meets the 1-round proof-labeling verification wave at the next step, and a restored
//! snapshot ([`CompositionEngine::restore`]) is compared with fresh proofs; either way
//! exactly the stale families are proved again and the measured cost is charged
//! (experiment E8b).

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use stst_graph::bfs::bfs_tree;
use stst_graph::fr::{fr_certificate, improve_once, FrCertificate, FrStep};
use stst_graph::marks::NodeMarks;
use stst_graph::mst::heaviest_cycle_edge_at_depths;
use stst_graph::union_find::UnionFind;
use stst_graph::{EdgeId, Graph, Mutation, MutationOutcome, NodeId, Tree, Weight};
use stst_labeling::fr_labels::{FrLabel, FrScheme};
use stst_labeling::mst_fragments::{FragmentLabel, FragmentScheme, FragmentState};
use stst_labeling::nca::{assign_nca_labels, repair_nca_labels, NcaLabel, NcaScheme};
use stst_labeling::redundant::{repair_redundant_labels, RedundantLabel, RedundantScheme};
use stst_labeling::scheme::{Instance, ProofLabelingScheme};
use stst_runtime::par::ThreadPool;
use stst_runtime::persist::{
    push_codec_stream, read_codec_stream, RestoreError, Snapshot, SnapshotReader, KIND_ENGINE,
};
use stst_runtime::store::{ConfigStore, StoreMode};
use stst_runtime::{Codec, CodecCtx, Executor, ExecutorConfig, StoreReport};

use stst_obs::{Family, Layer, Obs, TraceEvent};

/// Minimum network size before the engine's per-node verification waves go through
/// the pool (below this, spawn overhead dominates). Results are unaffected.
const PAR_VERIFY_MIN: usize = 256;

use crate::framework::{ConstructionReport, EngineConfig, Relabel};
use crate::spanning::MinIdSpanningTree;
use crate::switch::loop_free_switch;
use crate::waves::{self, RoundLedger};
use crate::writes::{LabelWrites, RegisterSizes};

/// Which composed construction the engine runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineTask {
    /// Corollary 6.1: minimum spanning tree via PLS-guided Borůvka.
    Mst,
    /// Corollary 8.1: minimum-degree spanning tree via FR-trees.
    Mdst,
}

/// One phase step of the composition, as reported by [`CompositionEngine::step`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PhaseEvent {
    /// The guarded-rule spanning-tree phase reached quiescence.
    TreeConstructed {
        /// Rounds of the guarded-rule phase.
        rounds: u64,
    },
    /// Every label family is consistent with the current tree (built from scratch on
    /// the first pass, repaired on the dirty region afterwards).
    LabelsReady {
        /// Per-node label records written by this wave.
        labels_written: u64,
        /// Rounds charged to the wave.
        rounds: u64,
    },
    /// One improvement was applied through the loop-free switch machinery.
    Switched {
        /// Local reparentings performed (1 per hop of the reparenting path, or the
        /// number of swapped edges of a well-nested MDST sequence).
        local_switches: usize,
        /// Rounds charged to the switch.
        rounds: u64,
    },
    /// Injected label corruption was detected by the verification wave and the
    /// rejected families were rebuilt.
    Recovered {
        /// Number of label families that had to be re-proved.
        families_rebuilt: usize,
        /// Per-node label records written by the recovery.
        labels_written: u64,
        /// Rounds charged (one verification round plus the rebuild waves).
        rounds: u64,
    },
    /// A batch of topology mutations was applied and the affected state repaired; the
    /// engine resumes local search from the repaired configuration on the next step.
    TopologyApplied {
        /// Nodes whose incident topology (or dense index) changed.
        dirty_nodes: usize,
        /// Orphaned subtrees re-anchored through the loop-free switch machinery (or,
        /// after node churn, tree components reconnected by the rebuild).
        reanchored: usize,
        /// Per-node label records rewritten by the eager fragment repair.
        labels_written: u64,
        /// Rounds charged to the delta-detection and repair waves.
        rounds: u64,
    },
    /// A batch of topology mutations would sever the network. Nothing was committed:
    /// a spanning tree of a disconnected graph does not exist, so the condition is
    /// *reported*, never silently "repaired" — the caller decides whether to drop the
    /// batch (as the `stst-churn` driver does) or to tear the engine down.
    Partitioned {
        /// Number of connected components the mutated graph would have had.
        components: usize,
    },
    /// No rule is enabled: the composition is silent.
    Stabilized {
        /// Whether the stabilized tree is certified legal by the certificate the last
        /// improvement step read: φ = 0 for MST (§VI), the FR propagation for MDST
        /// (Definition 8.1). [`CompositionEngine::check_legal`] is its oracle.
        legal: bool,
    },
}

/// Rounds charged by the step an event reports (0 for the events that charge
/// none) — the `rounds` field of the trace wave that wraps the step.
fn event_rounds(event: &PhaseEvent) -> u64 {
    match event {
        PhaseEvent::TreeConstructed { rounds }
        | PhaseEvent::LabelsReady { rounds, .. }
        | PhaseEvent::Switched { rounds, .. }
        | PhaseEvent::Recovered { rounds, .. }
        | PhaseEvent::TopologyApplied { rounds, .. } => *rounds,
        PhaseEvent::Partitioned { .. } | PhaseEvent::Stabilized { .. } => 0,
    }
}

/// The engine's phases. A snapshot stores a phase as its declaration index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Build,
    Label,
    Improve,
    Done,
}

impl Phase {
    fn from_tag(tag: u64) -> Option<Phase> {
        const ALL: [Phase; 4] = [Phase::Build, Phase::Label, Phase::Improve, Phase::Done];
        ALL.get(usize::try_from(tag).ok()?).copied()
    }
}

/// Every phase label the engine ever charges the [`RoundLedger`] under. Snapshot
/// restore re-interns checkpointed ledger entries against this table — labels are
/// `&'static str`s and cannot round-trip through a file on their own.
const KNOWN_CHARGE_LABELS: [&str; 13] = [
    "tree construction (guarded rules)",
    "fragment labels (convergecast + broadcast per level)",
    "NCA labels",
    "redundant labels",
    "loop-free edge switch",
    "well-nested loop-free switches",
    "fragment label repair (dirty region)",
    "NCA label repair (dirty region)",
    "redundant label repair (dirty region)",
    "FR marking and fragment propagation",
    "label corruption recovery",
    "topology delta (dirty-region repair)",
    "topology delta (node churn rebuild)",
];

/// Ledger label a restored entry falls back to when its checkpointed text matches no
/// entry of [`KNOWN_CHARGE_LABELS`] (a snapshot from a build with different charge
/// sites). The rounds are preserved; only the attribution is lost.
const UNATTRIBUTED_LABEL: &str = "restored (unattributed)";

/// What [`CompositionEngine::restore`] had to do to turn the checkpointed
/// configuration back into a consistent engine. A snapshot taken at a clean wave
/// boundary restores **verbatim** (`families_rebuilt == 0`, `rounds == 0` — counters
/// continue exactly as the uninterrupted run); a mid-repair or stale snapshot is just
/// an arbitrary initial configuration, so the restore compares its families with fresh
/// proofs and rebuilds exactly the stale ones, charging the measured recovery cost
/// like any other transient fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct RestoreOutcome {
    /// Label families whose checkpointed labels were not the proofs of the restored
    /// tree.
    pub families_rebuilt: usize,
    /// Rounds charged for the restore-time verification + rebuild (0 for a clean
    /// wave-boundary snapshot).
    pub rounds: u64,
}

/// Appends `bytes` to a word stream as a length-prefixed little-endian packing.
fn push_bytes(words: &mut Vec<u64>, bytes: &[u8]) {
    words.push(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        words.push(u64::from_le_bytes(w));
    }
}

/// Reads a length-prefixed byte packing written by [`push_bytes`].
fn read_bytes(r: &mut SnapshotReader<'_>) -> Result<Vec<u8>, RestoreError> {
    let len = r.next_usize()?;
    let words = r.take(len.div_ceil(8))?;
    let mut bytes = Vec::with_capacity(len);
    for (i, &w) in words.iter().enumerate() {
        let le = w.to_le_bytes();
        bytes.extend_from_slice(&le[..(len - i * 8).min(8)]);
    }
    Ok(bytes)
}

/// A label family the engine maintains: Borůvka fragment labels (§VI, MST only), NCA
/// labels (§V) or redundant distance/size labels (§IV). Declaration order is the fixed
/// order in which from-scratch proofs are charged to the ledger and reported as
/// `Repair` events, at any thread count (DESIGN.md §3.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LabelFamily {
    /// Borůvka fragment labels ([`CompositionEngine::fragment_labels`]).
    Fragments,
    /// Heavy-path NCA labels ([`CompositionEngine::nca_labels`]).
    Nca,
    /// Redundant distance/size labels ([`CompositionEngine::redundant_labels`]).
    Redundant,
}

impl LabelFamily {
    /// The family's name in trace events.
    fn obs(self) -> Family {
        match self {
            LabelFamily::Fragments => Family::Fragments,
            LabelFamily::Nca => Family::Nca,
            LabelFamily::Redundant => Family::Redundant,
        }
    }
}

/// Every label family, in the fixed family order. An engine without fragment labels
/// (MDST) keeps `FAMILIES[1..]`.
const FAMILIES: [LabelFamily; 3] = [
    LabelFamily::Fragments,
    LabelFamily::Nca,
    LabelFamily::Redundant,
];

/// Label families proved from scratch by [`prove_families`]: `None` for a family that
/// was not asked for.
struct FreshLabels {
    fragments: Option<FragmentState>,
    nca: Option<Vec<NcaLabel>>,
    redundant: Option<Vec<RedundantLabel>>,
}

/// The engine's one from-scratch prover: builds the `families` on `tree`. The families
/// are independent pure functions of `(graph, tree)`, so they run concurrently on the
/// pool (the fragment prover also parallelizes its per-level scans); the result is
/// identical at any thread count.
fn prove_families(
    graph: &Graph,
    tree: &Tree,
    pool: &ThreadPool,
    families: &[LabelFamily],
) -> FreshLabels {
    let wants = |family| families.contains(&family);
    let (fragments, (nca, redundant)) = pool.join(
        || wants(LabelFamily::Fragments).then(|| FragmentState::new_with_pool(graph, tree, pool)),
        || {
            pool.join(
                || wants(LabelFamily::Nca).then(|| assign_nca_labels(graph, tree)),
                || wants(LabelFamily::Redundant).then(|| RedundantScheme.prove(graph, tree)),
            )
        },
    );
    FreshLabels {
        fragments,
        nca,
        redundant,
    }
}

/// The tree and its derived structure (children, depths, subtree sizes), maintained
/// incrementally across parent-pointer edits.
struct TreeState {
    tree: Tree,
    children: Vec<Vec<NodeId>>,
    depths: Vec<usize>,
    sizes: Vec<usize>,
    /// Nodes per depth, with no trailing zero: the height is its last index.
    depth_count: Vec<usize>,
    /// Scratch node set of the repairs (epoch-stamped, so clearing it is O(1)).
    marks: NodeMarks,
    /// Scratch piece index per node of the partition check (all zero between checks;
    /// allocated by the first one).
    piece: Vec<u32>,
}

/// The dirty region of one tree edit, as consumed by the label repairers.
struct DirtyRegion {
    /// Nodes whose children set changed (old and new parents of the reparented nodes).
    structurally_dirty: Vec<NodeId>,
    /// Nodes whose root path (hence depth) may have changed: the re-hung subtrees.
    depth_dirty: Vec<NodeId>,
    /// Nodes whose subtree membership (hence size) may have changed: the reparented
    /// nodes plus their old and new ancestors.
    size_dirty: Vec<NodeId>,
}

impl DirtyRegion {
    /// Height of the re-hung region (max − min depth over `depth_dirty`, in the new
    /// tree), the quantity the repair-wave round charge scales with.
    fn height_in(&self, depths: &[usize]) -> u64 {
        let dirty = || self.depth_dirty.iter().map(|&v| depths[v.0]);
        (dirty().max().unwrap_or(0) - dirty().min().unwrap_or(0)) as u64
    }
}

impl TreeState {
    fn new(tree: Tree) -> Self {
        let depths = tree.depths();
        let mut depth_count = vec![0; depths.iter().max().map_or(1, |&d| d + 1)];
        for &d in &depths {
            depth_count[d] += 1;
        }
        TreeState {
            children: tree.children_table(),
            sizes: tree.subtree_sizes(),
            marks: NodeMarks::new(tree.node_count()),
            piece: Vec::new(),
            depths,
            depth_count,
            tree,
        }
    }

    fn height(&self) -> u64 {
        (self.depth_count.len() - 1) as u64
    }

    /// Moves `x` to depth `d` in the depth table and its histogram.
    fn set_depth(&mut self, x: NodeId, d: usize) {
        self.depth_count[self.depths[x.0]] -= 1;
        if d >= self.depth_count.len() {
            self.depth_count.resize(d + 1, 0);
        }
        self.depth_count[d] += 1;
        self.depths[x.0] = d;
    }

    /// Rounds of one broadcast or convergecast wave over the current tree (one per
    /// level), read off the maintained depths instead of the children table and BFS
    /// that [`waves::broadcast_rounds`] rebuilds.
    fn wave_rounds(&self) -> u64 {
        let rounds = self.height() + 1;
        debug_assert_eq!(rounds, waves::broadcast_rounds(&self.tree));
        debug_assert_eq!(rounds, waves::convergecast_rounds(&self.tree));
        rounds
    }

    /// Marks `from` and its ancestors, appending the nodes not marked before to `out`.
    fn mark_root_path(&mut self, from: Option<NodeId>, out: &mut Vec<NodeId>) {
        let mut cur = from;
        while let Some(x) = cur {
            if self.marks.insert(x) {
                out.push(x);
            }
            cur = self.tree.parent(x);
        }
    }

    /// Applies a batch of reparentings (the result must be a valid tree on the same
    /// root) in place and recomputes depths and sizes on exactly the dirty region.
    fn apply_parent_changes(&mut self, changes: &[(NodeId, NodeId)]) -> DirtyRegion {
        self.marks.clear();
        let mut size_dirty: Vec<NodeId> = Vec::new();
        let mut structurally: Vec<NodeId> = Vec::new();
        // Old ancestors (walked before any mutation) — the paths that lose the re-hung
        // subtrees.
        for &(v, new_parent) in changes {
            let old_parent = self.tree.parent(v).expect("the root is never reparented");
            structurally.push(old_parent);
            structurally.push(new_parent);
            self.mark_root_path(Some(v), &mut size_dirty);
        }
        // Apply the edits to the parent pointers and the children table.
        for &(v, new_parent) in changes {
            let old_parent = self.tree.parent(v).expect("checked above");
            let slot = self.children[old_parent.0]
                .iter()
                .position(|&c| c == v)
                .expect("child lists mirror the parent pointers");
            self.children[old_parent.0].swap_remove(slot);
            self.children[new_parent.0].push(v);
            self.tree.set_parent_unchecked(v, new_parent);
        }
        debug_assert!(
            Tree::from_parents(self.tree.parents().to_vec())
                .is_ok_and(|t| t.root() == self.tree.root()),
            "reparenting keeps a valid tree on the same root"
        );
        // New ancestors — the paths that gain the re-hung subtrees.
        for &(v, _) in changes {
            self.mark_root_path(self.tree.parent(v), &mut size_dirty);
        }
        // Depths: recompute over the union of the re-hung subtrees, top-down from the
        // subtree roots whose parents kept their depth.
        self.marks.clear();
        let mut depth_dirty: Vec<NodeId> = Vec::new();
        let mut stack: Vec<NodeId> = Vec::new();
        for &(v, _) in changes {
            stack.push(v);
            while let Some(x) = stack.pop() {
                if !self.marks.insert(x) {
                    continue;
                }
                depth_dirty.push(x);
                stack.extend(self.children[x.0].iter().copied());
            }
        }
        let mut queue: std::collections::VecDeque<NodeId> = depth_dirty
            .iter()
            .copied()
            .filter(|&x| self.tree.parent(x).is_some_and(|p| !self.marks.contains(p)))
            .collect();
        while let Some(x) = queue.pop_front() {
            let p = self.tree.parent(x).expect("dirty nodes are never the root");
            self.set_depth(x, self.depths[p.0] + 1);
            queue.extend(self.children[x.0].iter().copied());
        }
        while self.depth_count.last() == Some(&0) {
            self.depth_count.pop();
        }
        // Sizes: recompute bottom-up over the dirty set (children outside the set kept
        // their sizes).
        size_dirty.sort_by_key(|&v| std::cmp::Reverse(self.depths[v.0]));
        for &v in &size_dirty {
            self.sizes[v.0] = 1 + self.children[v.0]
                .iter()
                .map(|&c| self.sizes[c.0])
                .sum::<usize>();
        }
        structurally.sort_unstable();
        structurally.dedup();
        DirtyRegion {
            structurally_dirty: structurally,
            depth_dirty,
            size_dirty,
        }
    }
}

/// A switch applied to the tree whose label repair is still pending (consumed by the
/// next `Label` step in [`Relabel::Incremental`] mode).
struct PendingRepair {
    /// The `(add, remove)` edge pair of an MST switch (`None` for MDST improvements,
    /// whose fragment labels are not maintained).
    swap: Option<(EdgeId, EdgeId)>,
    region: DirtyRegion,
    /// Hops of the reparenting path (or swapped edges of the nested sequence).
    path_len: u64,
    /// Height of the re-hung dirty region (for the repair-wave round charge).
    dirty_height: u64,
}

/// The resumable composition engine (see the module docs).
pub struct CompositionEngine<'g> {
    /// The network. Borrowed until the first topology mutation, owned afterwards
    /// ([`CompositionEngine::apply_topology`] clones on first write) — static-topology
    /// runs keep the zero-copy behavior of the previous `&'g Graph` field.
    graph: Cow<'g, Graph>,
    /// Codec field widths of the current instance (refreshed whenever a topology
    /// delta commits — identity and weight ranges can grow).
    ctx: CodecCtx,
    /// The graph's weight widths, kept by edge-level deltas once the first one ran.
    weight_widths: Option<WeightWidths>,
    task: EngineTask,
    config: EngineConfig,
    phase: Phase,
    state: Option<TreeState>,
    fragments: Option<FragmentState>,
    nca: Vec<NcaLabel>,
    redundant: Vec<RedundantLabel>,
    pending: Option<PendingRepair>,
    corrupted: bool,
    rng: StdRng,
    /// Scoped worker pool shared by the heavy from-scratch phases (verification waves,
    /// label reproofs, per-level Borůvka scans) and the guarded-rule executor.
    pool: ThreadPool,
    ledger: RoundLedger,
    improvements: usize,
    labels_written: u64,
    /// Fragment label entries written and node visits of the incremental fragment
    /// repairs ([`FragmentState::node_visits`]), since this engine was created or
    /// restored.
    fragment_entries: u64,
    fragment_visits: u64,
    max_register_bits: usize,
    legal: bool,
    /// Every label, parent-pointer and identity write, stamped for publishers.
    writes: LabelWrites,
    /// Per-family label sizes for register accounting, fed by the same writes.
    sizes: RegisterSizes,
    /// Scratch list of the nodes one repair wrote.
    written: Vec<NodeId>,
    /// Observability handle ([`CompositionEngine::attach_obs`]); disabled by default.
    /// Every engine entry point (`step`, `apply_topology`) opens one Engine-layer
    /// trace wave, and the phase bodies emit per-family `Repair` events inside it.
    obs: Obs,
    /// Wave index of the Engine-layer trace wave currently open (None between waves;
    /// always None while `obs` is disabled).
    obs_wave: Option<u64>,
}

impl<'g> CompositionEngine<'g> {
    /// Creates an engine for `task` on `graph`. Nothing runs until [`step`] or [`run`]
    /// is called.
    ///
    /// [`step`]: CompositionEngine::step
    /// [`run`]: CompositionEngine::run
    pub fn new(graph: &'g Graph, task: EngineTask, config: EngineConfig) -> Self {
        CompositionEngine::with_graph(Cow::Borrowed(graph), task, config)
    }

    /// A fresh engine on `graph`, borrowed or owned.
    fn with_graph(graph: Cow<'g, Graph>, task: EngineTask, config: EngineConfig) -> Self {
        CompositionEngine {
            ctx: CodecCtx::for_graph(&graph),
            weight_widths: None,
            writes: LabelWrites::new(graph.node_count()),
            graph,
            task,
            config,
            phase: Phase::Build,
            state: None,
            fragments: None,
            nca: Vec::new(),
            redundant: Vec::new(),
            pending: None,
            corrupted: false,
            rng: StdRng::seed_from_u64(config.seed ^ 0xc0_de),
            pool: ThreadPool::new(config.threads),
            ledger: RoundLedger::new(),
            improvements: 0,
            labels_written: 0,
            fragment_entries: 0,
            fragment_visits: 0,
            max_register_bits: 0,
            legal: false,
            sizes: RegisterSizes::default(),
            written: Vec::new(),
            obs: Obs::disabled(),
            obs_wave: None,
        }
    }

    /// Attaches an observability handle: subsequent phase steps and topology deltas
    /// emit Engine-layer trace waves (with `Repair`, `TopologyDelta`,
    /// `CorruptionInjected` and `SilenceReached` events) into its ring, per-phase
    /// wall-time spans into its histograms, and the run totals into its gauges. The
    /// handle is also passed down to the guarded-rule executor of the build phase, so
    /// one enabled handle yields a unified executor + engine trace.
    ///
    /// Instrumentation is determinism-transparent: attaching an enabled handle never
    /// changes a bit of the run (pinned by `tests/parallel_determinism.rs`).
    pub fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs;
        self.obs_wave = None;
    }

    /// The attached observability handle (disabled unless
    /// [`CompositionEngine::attach_obs`] was called).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The current tree.
    ///
    /// # Panics
    ///
    /// Panics before the tree-construction phase has run.
    pub fn tree(&self) -> &Tree {
        &self.state.as_ref().expect("tree not built yet").tree
    }

    /// The network the engine currently runs on (reflects every committed topology
    /// mutation).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Total rounds charged so far (across construction, waves, switches and deltas).
    pub fn total_rounds(&self) -> u64 {
        self.ledger.total()
    }

    /// Edge swaps (or well-nested swap sequences) applied so far.
    pub fn improvements(&self) -> usize {
        self.improvements
    }

    /// The maintained fragment labels (MST only, after the first labeling wave).
    pub fn fragment_labels(&self) -> Option<&[FragmentLabel]> {
        self.fragments.as_ref().map(|s| s.labels())
    }

    /// The maintained NCA labels (empty before the first labeling wave).
    pub fn nca_labels(&self) -> &[NcaLabel] {
        &self.nca
    }

    /// The maintained redundant labels (empty before the first labeling wave).
    pub fn redundant_labels(&self) -> &[RedundantLabel] {
        &self.redundant
    }

    /// Per-node label records written so far (the deterministic work counter).
    pub fn labels_written(&self) -> u64 {
        self.labels_written
    }

    /// `true` once the composition is silent.
    pub fn is_stabilized(&self) -> bool {
        self.phase == Phase::Done
    }

    /// The composed construction this engine runs.
    pub fn task(&self) -> EngineTask {
        self.task
    }

    /// The codec field widths of the current instance (refreshed whenever a topology
    /// delta commits).
    pub fn codec_ctx(&self) -> CodecCtx {
        self.ctx
    }

    /// The record of every label, parent-pointer and identity write, stamped per page
    /// of label slots: what a publisher re-packs after the engine moved on (see
    /// [`LabelWrites`]).
    pub fn label_writes(&self) -> &LabelWrites {
        &self.writes
    }

    /// The certified verdict of the last [`PhaseEvent::Stabilized`] (see
    /// [`CompositionEngine::check_legal`] for the oracle).
    pub fn is_legal(&self) -> bool {
        self.legal
    }

    /// `true` when the configuration is a *silent* one a serving snapshot may be
    /// published from: the composition is stabilized, no repair is pending and no
    /// injected corruption is awaiting its verification wave. This is the publication
    /// hook of the serving layer (`stst-serve`) — the paper's reason for silence is
    /// that higher-level protocols consume the certified labels, and this predicate is
    /// what guarantees they only ever consume a configuration every verifier accepted.
    pub fn is_publishable(&self) -> bool {
        self.is_stabilized() && !self.corrupted && self.pending.is_none()
    }

    /// Runs the composition to silence and returns the measured report.
    ///
    /// # Panics
    ///
    /// Panics if the guarded-rule spanning-tree phase does not converge within the
    /// configured step budget (which, for connected graphs, indicates a budget far too
    /// small for the graph size).
    pub fn run(&mut self) -> ConstructionReport {
        while !matches!(self.step(), PhaseEvent::Stabilized { .. }) {}
        self.report()
    }

    /// The report of the run so far (complete once [`PhaseEvent::Stabilized`] was
    /// returned).
    pub fn report(&self) -> ConstructionReport {
        ConstructionReport {
            tree: self.tree().clone(),
            total_rounds: self.ledger.total(),
            phase_rounds: self.ledger.by_phase(),
            labels_written: self.labels_written,
            fragment_entries_written: self.fragment_entries,
            fragment_node_visits: self.fragment_visits,
            improvements: self.improvements,
            max_register_bits: self.max_register_bits,
            legal: self.legal,
        }
    }

    /// Advances the composition by one phase step.
    pub fn step(&mut self) -> PhaseEvent {
        let span_name = match self.phase {
            _ if self.corrupted => "engine_recover",
            Phase::Build => "engine_build",
            Phase::Label => "engine_label",
            Phase::Improve => "engine_improve",
            Phase::Done => "engine_done",
        };
        self.in_trace_wave(span_name, Self::step_inner)
    }

    /// Runs one engine entry point (`step` or `apply_topology`) as one Engine-layer
    /// trace wave timed by the span `span_name`, emitting the events its outcome
    /// reports: `SilenceReached` and the run gauges at silence, `TopologyDelta` (and
    /// the eager fragment repair's `Repair`) after a delta. Runs `body` alone when
    /// observability is disabled.
    fn in_trace_wave(
        &mut self,
        span_name: &'static str,
        body: impl FnOnce(&mut Self) -> PhaseEvent,
    ) -> PhaseEvent {
        if !self.obs.is_enabled() {
            return body(self);
        }
        let wave = self.obs.begin_wave(Layer::Engine);
        self.obs_wave = Some(wave);
        self.obs.emit(TraceEvent::WaveStart {
            layer: Layer::Engine,
            wave,
        });
        let span = self.obs.span(span_name);
        let event = body(self);
        drop(span);
        self.obs_wave = None;
        match event {
            PhaseEvent::Stabilized { .. } => {
                self.obs.emit(TraceEvent::SilenceReached {
                    layer: Layer::Engine,
                    wave,
                    rounds: self.ledger.total(),
                });
                for (gauge, value) in [
                    ("engine_total_rounds", self.ledger.total()),
                    ("engine_labels_written", self.labels_written),
                    ("engine_improvements", self.improvements as u64),
                    ("engine_max_register_bits", self.max_register_bits as u64),
                ] {
                    self.obs.gauge(gauge).set(value);
                }
            }
            PhaseEvent::TopologyApplied {
                dirty_nodes,
                reanchored,
                labels_written,
                ..
            } => {
                self.obs.counter("engine_topology_deltas").inc();
                self.obs.emit(TraceEvent::TopologyDelta {
                    layer: Layer::Engine,
                    wave,
                    dirty_nodes: dirty_nodes as u64,
                    reanchored: reanchored as u64,
                });
                if labels_written > 0 {
                    // The eager fragment repair is the only label write a delta
                    // performs; NCA/redundant repair lands in the next label wave.
                    self.obs.emit(TraceEvent::Repair {
                        layer: Layer::Engine,
                        wave,
                        family: Family::Fragments,
                        dirty_nodes: dirty_nodes as u64,
                        labels_written,
                    });
                }
            }
            _ => {}
        }
        self.obs.emit(TraceEvent::WaveEnd {
            layer: Layer::Engine,
            wave,
            rounds: event_rounds(&event),
        });
        event
    }

    fn step_inner(&mut self) -> PhaseEvent {
        if self.corrupted {
            return self.recover();
        }
        match self.phase {
            Phase::Build => self.build_tree(),
            Phase::Label => self.label_wave(),
            Phase::Improve => self.improve(),
            Phase::Done => PhaseEvent::Stabilized { legal: self.legal },
        }
    }

    /// The Engine-layer wave to stamp on events emitted mid-step; events at a
    /// wave boundary (fault hooks) stamp the wave the next step will open.
    fn obs_current_wave(&self) -> u64 {
        self.obs_wave
            .unwrap_or_else(|| self.obs.peek_wave(Layer::Engine))
    }

    /// Applies a batch of live topology mutations — links failing, weights drifting,
    /// nodes joining and leaving — and repairs the engine's persistent state like a
    /// **localized fault** (the headline promise of self-stabilization, exercised on
    /// the workload it was designed for). An edge-level batch costs what it changes:
    ///
    /// * only a deleted tree edge can disconnect the network, so a batch that deletes
    ///   none commits at once; otherwise the partition is decided from the subtrees the
    ///   deleted tree edges orphan, before anything is committed, and a severing batch
    ///   is reported as [`PhaseEvent::Partitioned`] with nothing changed;
    /// * the owned graph is mutated in place through [`Graph::apply_mutations`] (only
    ///   the changed endpoints' adjacency runs are edited), and the codec context is
    ///   re-derived only when a changed weight can move its weight width;
    /// * every tree edge the batch deleted re-anchors its orphaned subtree through the
    ///   loop-free switch machinery (the stale pointers are found among the batch's
    ///   deleted pairs): the minimum-weight replacement edge is attached by the same
    ///   parent-pointer reversal a switch uses, and the resulting dirty region is left
    ///   pending for the incremental NCA/redundant label repair of the next wave
    ///   (mutations that leave the tree intact — non-tree edge removal, edge insertion,
    ///   weight drift — invalidate **no** tree-derived label at all);
    /// * the Borůvka fragment state is repaired on the endpoint-dirty frontier
    ///   ([`FragmentState::apply_topology`], which diffs only the edges incident to it),
    ///   bit-identical to a from-scratch rebuild on the mutated instance;
    /// * node churn remaps the dense index space, so it falls back to the coarse
    ///   path: the batch is applied to a copy of the graph, kept only if connected,
    ///   surviving tree edges are kept, components reconnected by the lightest
    ///   replacement edges, and every label family re-proved from scratch on the next
    ///   wave (`old_index` bookkeeping is in the returned
    ///   [`stst_graph::MutationOutcome`] contract);
    /// * local search then resumes: subsequent [`step`](CompositionEngine::step)s
    ///   repair labels and apply improving swaps until the composition is silent on
    ///   the mutated network. In [`Relabel::FromScratch`] mode every family is
    ///   re-proved instead — the differential baseline the churn oracle and E10
    ///   compare against.
    ///
    /// This is a wave-boundary event, exactly like
    /// [`corrupt_random_labels`](CompositionEngine::corrupt_random_labels):
    /// call it after a [`PhaseEvent::LabelsReady`], [`PhaseEvent::Stabilized`] or
    /// [`PhaseEvent::TreeConstructed`] — never while a switch's label repair is
    /// pending — so parallel wave execution stays deterministic.
    ///
    /// # Panics
    ///
    /// Panics if a label repair is pending or injected corruption is unresolved, or if
    /// a mutation itself is invalid (see [`Graph::apply_mutations`]).
    pub fn apply_topology(&mut self, mutations: &[Mutation]) -> PhaseEvent {
        self.in_trace_wave("engine_topology", |engine| {
            engine.apply_topology_inner(mutations)
        })
    }

    fn apply_topology_inner(&mut self, mutations: &[Mutation]) -> PhaseEvent {
        assert!(
            self.pending.is_none() && !self.corrupted,
            "topology deltas are wave-boundary events"
        );
        let node_churn = mutations
            .iter()
            .any(|m| matches!(m, Mutation::AddNode { .. } | Mutation::RemoveNode { .. }));
        if node_churn || self.state.is_none() {
            return self.apply_coarse(mutations);
        }
        // Edge-level delta on a built tree. Only a deleted tree edge can disconnect the
        // network, so the partition is decided from the orphaned sides of the deleted
        // tree edges, on the graph as it is, before anything is committed.
        let delta = EdgeDelta::of(&self.graph, mutations);
        let state = self.state.as_mut().expect("tree built");
        if let Some(components) = delta.components(&self.graph, state) {
            return PhaseEvent::Partitioned { components };
        }
        let written_before = self.labels_written;
        let rounds_before = self.ledger.total();
        let widths = self
            .weight_widths
            .get_or_insert_with(|| WeightWidths::of(&self.graph));
        widths.update(&delta.departed, &delta.arrived);
        self.ctx.weight_bits = widths.widest();
        let outcome = self.graph.to_mut().apply_mutations(mutations);
        debug_assert_eq!(self.ctx, CodecCtx::for_graph(&self.graph));
        // Re-anchor orphaned subtrees until no parent pointer crosses a deleted edge.
        // A batch can delete several tree edges on one ancestor chain, and a
        // re-anchoring reversal may then re-use a *sibling* deleted edge in the flipped
        // orientation — so stale pointers are re-discovered among the deleted pairs
        // after every repair instead of collected once (each repair eliminates the
        // picked stale pointer and flips at most the others, so the count strictly
        // decreases and the loop terminates; pinned by `tests/review_repro.rs`).
        let mut frag_dirty: Vec<NodeId> = outcome.dirty.clone();
        let mut rounds = 1u64; // the delta-detection wave
        let mut reanchored = 0usize;
        let mut structurally: Vec<NodeId> = Vec::new();
        let mut depth_dirty: Vec<NodeId> = Vec::new();
        let mut size_dirty: Vec<NodeId> = Vec::new();
        let mut path_len = 0u64;
        let mut dirty_height = 0u64;
        loop {
            let state = self.state.as_mut().expect("tree built");
            let Some(child_side) = delta.stale_child(&state.tree) else {
                break;
            };
            reanchored += 1;
            let (anchor, changes) = reanchor_changes(&self.graph, state, child_side)
                .expect("the partition check found an edge leaving every orphaned side");
            let anchor_edge = self.graph.edge(anchor);
            frag_dirty.push(anchor_edge.u);
            frag_dirty.push(anchor_edge.v);
            let region = state.apply_parent_changes(&changes);
            let height = region.height_in(&state.depths);
            self.writes.tree();
            rounds += waves::repair_rounds(height, changes.len() as u64);
            structurally.extend(region.structurally_dirty);
            depth_dirty.extend(region.depth_dirty);
            size_dirty.extend(region.size_dirty);
            path_len += changes.len() as u64;
            dirty_height = dirty_height.max(height);
        }
        frag_dirty.sort_unstable();
        frag_dirty.dedup();
        match self.config.relabel {
            Relabel::Incremental => {
                if let Some(fragments) = self.fragments.as_mut() {
                    let state = self.state.as_ref().expect("tree built");
                    let visits_before = fragments.node_visits();
                    let written = fragments.apply_topology(&self.graph, &state.tree, &frag_dirty);
                    self.fragment_visits += fragments.node_visits() - visits_before;
                    self.fragment_entries += written;
                    self.labels_written += written;
                    self.written.extend(fragments.drain_written());
                    self.note_labels(LabelFamily::Fragments);
                    rounds += waves::repair_rounds(dirty_height, frag_dirty.len() as u64);
                }
                if reanchored > 0 {
                    for list in [&mut structurally, &mut depth_dirty, &mut size_dirty] {
                        list.sort_unstable();
                        list.dedup();
                    }
                    self.pending = Some(PendingRepair {
                        swap: None,
                        region: DirtyRegion {
                            structurally_dirty: structurally,
                            depth_dirty,
                            size_dirty,
                        },
                        path_len,
                        dirty_height,
                    });
                    self.phase = Phase::Label;
                } else if self.nca.is_empty() {
                    // The delta landed right after TreeConstructed, before the first
                    // labeling wave: there is nothing to repair yet — the next wave
                    // proves every family from scratch on the mutated graph.
                    self.phase = Phase::Label;
                } else {
                    // The tree is untouched, so every tree-derived label family is
                    // still exact: resume local search directly.
                    self.phase = Phase::Improve;
                }
                if !self.nca.is_empty() {
                    self.account_register_bits();
                }
            }
            Relabel::FromScratch => {
                // Reference mode: the next wave re-proves every family from scratch.
                self.pending = None;
                self.phase = Phase::Label;
            }
        }
        self.ledger
            .charge("topology delta (dirty-region repair)", rounds);
        PhaseEvent::TopologyApplied {
            dirty_nodes: outcome.dirty.len(),
            reanchored,
            labels_written: self.labels_written - written_before,
            rounds: self.ledger.total() - rounds_before,
        }
    }

    /// The coarse path: a batch with node churn, or any batch before the tree is built.
    /// The batch is applied to a copy of the graph, which is kept only if it is
    /// connected.
    fn apply_coarse(&mut self, mutations: &[Mutation]) -> PhaseEvent {
        let mut next = self.graph.as_ref().clone();
        let outcome = next.apply_mutations(mutations);
        let components = next.component_count();
        if components > 1 {
            return PhaseEvent::Partitioned { components };
        }
        self.graph = Cow::Owned(next);
        self.ctx = CodecCtx::for_graph(&self.graph);
        self.weight_widths = None;
        if self.state.is_none() {
            // Nothing constructed yet: the guarded-rule build phase simply starts
            // from the mutated network.
            return PhaseEvent::TopologyApplied {
                dirty_nodes: outcome.dirty.len(),
                reanchored: 0,
                labels_written: 0,
                rounds: 0,
            };
        }
        self.rebuild_after_node_churn(&outcome)
    }

    /// The coarse repair path for node churn: the dense index space was remapped, so
    /// every `NodeId`-keyed register is void. Surviving tree edges are kept, the
    /// forest is reconnected with the lightest replacement edges (deterministic
    /// Kruskal completion), the tree is re-rooted at the mutated graph's minimum
    /// identity, and all label families are re-proved from scratch on the next wave.
    fn rebuild_after_node_churn(&mut self, outcome: &MutationOutcome) -> PhaseEvent {
        let old_state = self.state.take().expect("tree built");
        let graph: &Graph = &self.graph;
        let n = graph.node_count();
        let old_index = outcome
            .old_index
            .as_ref()
            .expect("the coarse path with a built tree is node churn");
        let mut new_of_old: Vec<Option<NodeId>> = vec![None; old_state.tree.node_count()];
        for (i, o) in old_index.iter().enumerate() {
            if let Some(o) = o {
                new_of_old[o.0] = Some(NodeId(i));
            }
        }
        let mut uf = UnionFind::new(n);
        let mut edges: Vec<EdgeId> = Vec::new();
        for (v_old, p_old) in old_state.tree.edges() {
            if let (Some(v), Some(p)) = (new_of_old[v_old.0], new_of_old[p_old.0]) {
                if let Some(e) = graph.edge_between(v, p) {
                    if uf.union(v.0, p.0) {
                        edges.push(e);
                    }
                }
            }
        }
        let surviving = edges.len();
        let mut order: Vec<EdgeId> = graph.edge_ids().collect();
        order.sort_by_key(|&e| (graph.weight(e), e.index()));
        for e in order {
            if uf.component_count() == 1 {
                break;
            }
            let ed = graph.edge(e);
            if uf.union(ed.u.0, ed.v.0) {
                edges.push(e);
            }
        }
        let root = graph.min_ident_node();
        let tree =
            Tree::from_edge_set(graph, &edges, root).expect("the mutated graph is connected");
        self.state = Some(TreeState::new(tree));
        self.writes.idents();
        self.writes.tree();
        self.fragments = None;
        self.nca = Vec::new();
        self.redundant = Vec::new();
        self.pending = None;
        let state = self.state.as_ref().expect("just rebuilt");
        let rounds =
            1 + waves::convergecast_rounds(&state.tree) + waves::broadcast_rounds(&state.tree);
        self.ledger
            .charge("topology delta (node churn rebuild)", rounds);
        self.phase = Phase::Label;
        PhaseEvent::TopologyApplied {
            dirty_nodes: outcome.dirty.len(),
            reanchored: n - 1 - surviving,
            labels_written: 0,
            rounds,
        }
    }

    fn build_tree(&mut self) -> PhaseEvent {
        let exec_config = ExecutorConfig::with_scheduler(self.config.seed, self.config.scheduler)
            .with_threads(self.config.threads);
        let mut exec = Executor::from_arbitrary(&self.graph, MinIdSpanningTree, exec_config);
        exec.attach_obs(self.obs.clone());
        let quiescence = exec
            .run_to_quiescence(self.config.max_steps)
            .expect("the spanning-tree phase converges on connected graphs");
        self.ledger
            .charge("tree construction (guarded rules)", quiescence.rounds);
        self.max_register_bits = self.max_register_bits.max(exec.peak_register_bits());
        let tree = exec
            .extract_tree()
            .expect("phase 1 stabilizes on a spanning tree");
        self.state = Some(TreeState::new(tree));
        self.phase = Phase::Label;
        PhaseEvent::TreeConstructed {
            rounds: quiescence.rounds,
        }
    }

    /// Builds (first pass / from-scratch mode) or repairs (incremental mode) every
    /// label family for the current tree.
    fn label_wave(&mut self) -> PhaseEvent {
        let written_before = self.labels_written;
        let rounds_before = self.ledger.total();
        let pending = self
            .pending
            .take()
            .filter(|_| self.config.relabel == Relabel::Incremental && !self.nca.is_empty());
        let incremental = pending.is_some();
        match pending {
            Some(pending) => self.repair_labels(pending),
            None => self.build_labels_from_scratch(),
        }
        // Register accounting walks every label of every family (`O(n log n)` work at
        // MST scale), so incremental repair waves sample it: the from-scratch waves
        // (where labels are largest — the freshly proven families on the least-optimal
        // tree), every 32nd repair wave, and the stabilized configuration (see
        // `improve_mst`/`improve_mdst`) are always accounted, which pins the peak
        // without paying an `O(n log n)` scan per switch.
        if !incremental || self.improvements.is_multiple_of(32) {
            self.account_register_bits();
        }
        self.phase = Phase::Improve;
        PhaseEvent::LabelsReady {
            labels_written: self.labels_written - written_before,
            rounds: self.ledger.total() - rounds_before,
        }
    }

    /// Repairs every family on the dirty region of the pending switch or re-anchoring.
    fn repair_labels(&mut self, pending: PendingRepair) {
        let repair_rounds = waves::repair_rounds(pending.dirty_height, pending.path_len);
        let region = &pending.region;
        if let Some((add, remove)) = pending.swap {
            let fragments = self.fragments.as_mut().expect("MST maintains fragments");
            let visits_before = fragments.node_visits();
            let written = fragments.apply_swap(&self.graph, add, remove);
            self.fragment_visits += fragments.node_visits() - visits_before;
            self.fragment_entries += written;
            self.written.extend(fragments.drain_written());
            self.note_labels(LabelFamily::Fragments);
            self.ledger
                .charge("fragment label repair (dirty region)", repair_rounds);
            self.note_written(LabelFamily::Fragments, pending.path_len, written);
        }
        let state = self.state.as_mut().expect("tree built");
        let mut seeds = region.structurally_dirty.clone();
        for &x in &region.size_dirty {
            if let Some(p) = state.tree.parents()[x.0] {
                seeds.push(p);
            }
        }
        let dirty_nodes = seeds.len() as u64;
        let written = repair_nca_labels(
            &self.graph,
            &state.children,
            &state.sizes,
            &state.depths,
            &mut self.nca,
            &mut seeds,
            &mut state.marks,
        ) as u64;
        self.written = seeds;
        self.note_labels(LabelFamily::Nca);
        self.ledger
            .charge("NCA label repair (dirty region)", repair_rounds);
        self.note_written(LabelFamily::Nca, dirty_nodes, written);
        let state = self.state.as_ref().expect("tree built");
        let written = repair_redundant_labels(
            &mut self.redundant,
            &state.depths,
            &state.sizes,
            &region.depth_dirty,
            &region.size_dirty,
        ) as u64;
        self.written.extend(&region.depth_dirty);
        self.written.extend(&region.size_dirty);
        self.note_labels(LabelFamily::Redundant);
        self.ledger
            .charge("redundant label repair (dirty region)", repair_rounds);
        let dirty = region.depth_dirty.len() + region.size_dirty.len();
        self.note_written(LabelFamily::Redundant, dirty as u64, written);
        if self.task == EngineTask::Mdst {
            self.charge_fr_marking();
        }
    }

    /// The from-scratch wave (first labeling pass and the `Relabel::FromScratch`
    /// reference mode): every family the task maintains is proved on the tree and
    /// charged under its own ledger label.
    fn build_labels_from_scratch(&mut self) {
        if self.task == EngineTask::Mdst {
            self.charge_fr_marking();
        }
        let families = self.families();
        let tree = &self.state.as_ref().expect("tree built").tree;
        let fresh = prove_families(&self.graph, tree, &self.pool, families);
        self.install(fresh);
        for &family in families {
            let (label, rounds) = self.proof_cost(family);
            self.ledger.charge(label, rounds);
            self.note_proved(family);
        }
    }

    /// The label families the task maintains, in the fixed family order.
    fn families(&self) -> &'static [LabelFamily] {
        &FAMILIES[usize::from(self.task == EngineTask::Mdst)..]
    }

    /// Replaces the maintained families by the freshly proved ones (the others are
    /// kept).
    fn install(&mut self, fresh: FreshLabels) {
        if let Some(fragments) = fresh.fragments {
            let old = self.fragments.as_ref().map_or(&[][..], |f| f.labels());
            let diffed = changed_nodes(old, fragments.labels(), &mut self.written);
            self.fragments = Some(fragments);
            self.note_install(LabelFamily::Fragments, diffed);
        }
        if let Some(nca) = fresh.nca {
            let diffed = changed_nodes(&self.nca, &nca, &mut self.written);
            self.nca = nca;
            self.note_install(LabelFamily::Nca, diffed);
        }
        if let Some(redundant) = fresh.redundant {
            let diffed = changed_nodes(&self.redundant, &redundant, &mut self.written);
            self.redundant = redundant;
            self.note_install(LabelFamily::Redundant, diffed);
        }
    }

    /// Records an install of `family`: the nodes in `self.written` when `diffed` (the
    /// new labels were compared with the old ones), else the whole family.
    fn note_install(&mut self, family: LabelFamily, diffed: bool) {
        if diffed {
            self.note_labels(family);
        } else {
            self.written.clear();
            self.writes.family(family, self.graph.node_count());
            self.sizes.family(family);
        }
    }

    /// Records the writes of the nodes in `self.written` to `family` labels (for
    /// publishers and register accounting) and empties the list.
    fn note_labels(&mut self, family: LabelFamily) {
        self.writes.labels(family, &self.written);
        self.sizes.labels(family, &self.written);
        self.written.clear();
    }

    /// The cost table: the ledger label and the rounds of proving `family` from
    /// scratch on the current tree (for fragments, at the installed hierarchy's level
    /// count).
    fn proof_cost(&self, family: LabelFamily) -> (&'static str, u64) {
        let tree = &self.state.as_ref().expect("tree built").tree;
        match family {
            LabelFamily::Fragments => {
                let levels = self.fragments.as_ref().map_or(0, |f| f.level_count());
                (
                    "fragment labels (convergecast + broadcast per level)",
                    waves::fragment_labeling_rounds(tree, levels),
                )
            }
            LabelFamily::Nca => ("NCA labels", waves::nca_labeling_rounds(tree)),
            LabelFamily::Redundant => (
                "redundant labels",
                waves::convergecast_rounds(tree) + waves::broadcast_rounds(tree),
            ),
        }
    }

    /// The bookkeeping of one family write: counts the `written` labels and emits the
    /// family's `Repair` event (`dirty_nodes` nodes dirty) in the current wave.
    fn note_written(&mut self, family: LabelFamily, dirty_nodes: u64, written: u64) {
        self.labels_written += written;
        if self.obs.is_enabled() {
            self.obs.emit(TraceEvent::Repair {
                layer: Layer::Engine,
                wave: self.obs_current_wave(),
                family: family.obs(),
                dirty_nodes,
                labels_written: written,
            });
        }
    }

    /// [`CompositionEngine::note_written`] for a from-scratch proof: every node dirty,
    /// every label written.
    fn note_proved(&mut self, family: LabelFamily) {
        let n = self.graph.node_count() as u64;
        self.note_written(family, n, n);
    }

    /// Installs `fresh` and books the `stale` families (the ones a staleness test
    /// rejected) as rebuilt from scratch, in the fixed family order. The outcome's
    /// rounds are the verification wave plus each rebuilt family's from-scratch cost,
    /// or 0 when no family was stale.
    fn rebuild_stale(&mut self, fresh: FreshLabels, stale: &[LabelFamily]) -> RestoreOutcome {
        self.install(fresh);
        if stale.is_empty() {
            return RestoreOutcome::default();
        }
        let mut rounds = 1; // the verification wave
        for &family in stale {
            rounds += self.proof_cost(family).1;
            self.note_proved(family);
        }
        self.obs
            .counter("engine_families_rebuilt")
            .add(stale.len() as u64);
        RestoreOutcome {
            families_rebuilt: stale.len(),
            rounds,
        }
    }

    /// The FR marking / fragment-propagation wave of the MDST composition (§VIII),
    /// recomputed every iteration in both relabel modes (it is derived from tree
    /// degrees, not maintained as a label family).
    fn charge_fr_marking(&mut self) {
        // One convergecast and two broadcasts.
        let wave = self.state.as_ref().expect("tree built").wave_rounds();
        self.ledger
            .charge("FR marking and fragment propagation", 3 * wave);
    }

    /// Per-phase register accounting: the sum of the per-family maxima, peaked over the
    /// whole run (dominated by the `O(log² n)`-bit fragment labels for MST). Sizes are
    /// codec-derived ([`Codec::encoded_bits`] under the instance's [`CodecCtx`]), i.e.
    /// exactly what the packed label store allocates — see
    /// [`CompositionEngine::packed_space`].
    fn account_register_bits(&mut self) {
        let fr = match self.task {
            EngineTask::Mst => None,
            EngineTask::Mdst => {
                fr_certificate(&self.graph, &self.state.as_ref().expect("tree built").tree)
            }
        };
        self.account_register_bits_with(fr.as_ref());
    }

    /// [`CompositionEngine::account_register_bits`] with the MDST tree's FR marking
    /// already known: `fr` is its certificate, or `None` when it is not an FR-tree
    /// (ignored for MST). The maintained families are measured through their size
    /// histograms, so an accounting re-measures only the labels written since the
    /// previous one (all of them after an install or a change of codec context).
    fn account_register_bits_with(&mut self, fr: Option<&FrCertificate>) {
        let ctx = &self.ctx;
        let rescan = self.sizes.begin(ctx);
        let task_bits = match (self.task, fr) {
            (EngineTask::Mst, _) => self.fragments.as_ref().map_or(0, |f| {
                self.sizes
                    .max_bits(LabelFamily::Fragments, f.labels(), ctx, rescan)
            }),
            (EngineTask::Mdst, Some(cert)) => {
                let tree = &self.state.as_ref().expect("tree built").tree;
                FrScheme.max_label_bits(ctx, &FrScheme.prove_certified(&self.graph, tree, cert))
            }
            // While not yet an FR-tree the nodes carry the same fields (degree, mark,
            // fragment pointer): an in-width label with a fragment pointer.
            (EngineTask::Mdst, None) => FrLabel {
                tree_degree: 0,
                subtree_max_degree: 0,
                good: true,
                fragment: Some((0, 0)),
            }
            .encoded_bits(ctx),
        };
        let nca_bits = self
            .sizes
            .max_bits(LabelFamily::Nca, &self.nca, ctx, rescan);
        let red_bits = self
            .sizes
            .max_bits(LabelFamily::Redundant, &self.redundant, ctx, rescan);
        self.max_register_bits = self.max_register_bits.max(task_bits + nca_bits + red_bits);
    }

    /// Packs every maintained label family into a fresh [`ConfigStore`] and reports the
    /// measured allocation against the accounted bits — the `measured B/node` column of
    /// the E5/E7/E11 space tables. The engine repairs its families on decoded working
    /// sets between waves; this materializes the silent configuration the way the
    /// runtime's packed executor stores registers, so the number is an *allocation
    /// measurement*, not a formula.
    ///
    /// # Panics
    ///
    /// Panics before the first labeling wave.
    pub fn packed_space(&self) -> StoreReport {
        let ctx = &self.ctx;
        let n = self.graph.node_count().max(1);
        let mut measured_bytes = 0usize;
        let mut accounted_bits = 0u64;
        if let Some(fragments) = self.fragments.as_ref() {
            let store = ConfigStore::from_slice(StoreMode::Packed, fragments.labels(), ctx);
            measured_bytes += store.measured().bytes;
            accounted_bits += store.accounted_bits(ctx);
        }
        assert!(!self.nca.is_empty(), "packed_space needs a labeled engine");
        let store = ConfigStore::from_slice(StoreMode::Packed, &self.nca, ctx);
        measured_bytes += store.measured().bytes;
        accounted_bits += store.accounted_bits(ctx);
        let store = ConfigStore::from_slice(StoreMode::Packed, &self.redundant, ctx);
        measured_bytes += store.measured().bytes;
        accounted_bits += store.accounted_bits(ctx);
        StoreReport {
            mode: StoreMode::Packed,
            measured_bytes,
            accounted_bits,
            bytes_per_node: measured_bytes as f64 / n as f64,
            accounted_bits_per_node: accounted_bits as f64 / n as f64,
        }
    }

    fn improve(&mut self) -> PhaseEvent {
        match self.task {
            EngineTask::Mst => self.improve_mst(),
            EngineTask::Mdst => self.improve_mdst(),
        }
    }

    /// Ends local search with the verdict of the certificate the improvement step has
    /// just read (φ = 0 for MST, the FR propagation for MDST), checked against the
    /// oracle ([`CompositionEngine::check_legal`]) in debug builds.
    fn stabilize(&mut self, legal: bool, fr: Option<&FrCertificate>) -> PhaseEvent {
        debug_assert_eq!(
            legal,
            self.check_legal(),
            "{:?}: the certified verdict disagrees with the oracle",
            self.task
        );
        self.legal = legal;
        self.account_register_bits_with(fr);
        self.phase = Phase::Done;
        PhaseEvent::Stabilized { legal }
    }

    /// The oracle of the composition's silence, on the current tree: Kruskal's weight
    /// ([`stst_graph::mst::is_mst`]) for MST, a fresh propagation
    /// ([`stst_graph::fr::fr_certificate`]) for MDST. At
    /// [`PhaseEvent::Stabilized`] the engine reports the verdict its own certificate
    /// gave instead; tests and experiments call this to check it.
    ///
    /// # Panics
    ///
    /// Panics before the tree-construction phase has run.
    pub fn check_legal(&self) -> bool {
        let tree = self.tree();
        match self.task {
            EngineTask::Mst => stst_graph::mst::is_mst(&self.graph, tree),
            EngineTask::Mdst => fr_certificate(&self.graph, tree).is_some(),
        }
    }

    fn improve_mst(&mut self) -> PhaseEvent {
        let fragments = self.fragments.as_ref().expect("MST maintains fragments");
        let state = self.state.as_ref().expect("tree built");
        let Some(add) = fragments.improving_edge() else {
            // φ(T) = 0 only on minimum spanning trees (§VI).
            let legal = fragments.potential() == 0;
            return self.stabilize(legal, None);
        };
        let remove = heaviest_cycle_edge_at_depths(&self.graph, &state.tree, &state.depths, add);
        self.improvements += 1;
        match self.config.relabel {
            Relabel::Incremental => self.switch_incremental(add, remove),
            Relabel::FromScratch => self.switch_from_scratch(add, remove),
        }
    }

    /// Applies `T ← T + add − remove` directly on the maintained parent vector (the
    /// path-reversal of §IV, without materializing the staged configurations) and
    /// leaves the dirty region pending for the next labeling wave.
    fn switch_incremental(&mut self, add: EdgeId, remove: EdgeId) -> PhaseEvent {
        let state = self.state.as_mut().expect("tree built");
        let old_height = state.height();
        let add_edge = self.graph.edge(add);
        let remove_edge = self.graph.edge(remove);
        // The child-side endpoint of the removed edge roots the detached subtree.
        let child_side = if state.tree.parents()[remove_edge.u.0] == Some(remove_edge.v) {
            remove_edge.u
        } else {
            remove_edge.v
        };
        let in_detached = |mut x: NodeId, parents: &[Option<NodeId>]| loop {
            if x == child_side {
                return true;
            }
            match parents[x.0] {
                Some(p) => x = p,
                None => return false,
            }
        };
        let (inside, outside) = if in_detached(add_edge.u, state.tree.parents()) {
            (add_edge.u, add_edge.v)
        } else {
            (add_edge.v, add_edge.u)
        };
        let changes = reversal_changes(&state.tree, inside, outside, child_side);
        let region = state.apply_parent_changes(&changes);
        self.writes.tree();
        let new_height = state.height();
        // Same pipelined round charge as the staged switch module: one pruning and one
        // relabeling wave plus two rounds per local switch.
        let rounds = 2 * (old_height + 1) + 2 * changes.len() as u64 + 2 * (new_height + 1);
        self.ledger.charge("loop-free edge switch", rounds);
        let dirty_height = region.height_in(&state.depths);
        self.pending = Some(PendingRepair {
            swap: Some((add, remove)),
            region,
            path_len: changes.len() as u64,
            dirty_height,
        });
        self.phase = Phase::Label;
        PhaseEvent::Switched {
            local_switches: changes.len(),
            rounds,
        }
    }

    /// The staged reference switch: every intermediate configuration is generated with
    /// from-scratch redundant reproofs (as in the seed), and all label families are
    /// rebuilt by the next labeling wave.
    fn switch_from_scratch(&mut self, add: EdgeId, remove: EdgeId) -> PhaseEvent {
        let state = self.state.as_mut().expect("tree built");
        let outcome = loop_free_switch(&self.graph, &state.tree, add, remove);
        self.ledger.charge("loop-free edge switch", outcome.rounds);
        // The staged machinery re-proves the full redundant labeling once per local
        // switch (its relabeling phase) — that is the work the incremental mode saves.
        self.labels_written += outcome.local_switches as u64 * self.graph.node_count() as u64;
        let rounds = outcome.rounds;
        let local_switches = outcome.local_switches;
        *state = TreeState::new(outcome.tree);
        self.writes.tree();
        self.pending = None;
        self.phase = Phase::Label;
        PhaseEvent::Switched {
            local_switches,
            rounds,
        }
    }

    fn improve_mdst(&mut self) -> PhaseEvent {
        let next = match improve_once(&self.graph, self.tree()) {
            FrStep::Improved(next) => next,
            FrStep::Certified(cert) => return self.stabilize(true, Some(&cert)),
            // Improvable, but the nested sequence was invalidated: silent on a tree
            // that is not an FR-tree.
            FrStep::Invalidated => return self.stabilize(false, None),
        };
        let state = self.state.as_mut().expect("tree built");
        self.improvements += 1;
        // Charge the well-nested swap sequence: each swapped edge goes through a
        // loop-free switch whose pipelined cost is O(height + path).
        // Two broadcasts, two convergecasts and two local rounds per switch.
        let swapped = state.tree.edge_difference(&next);
        let per_switch = 4 * state.wave_rounds() + 2;
        let rounds = per_switch * swapped.max(1) as u64;
        self.ledger.charge("well-nested loop-free switches", rounds);
        let changes: Vec<(NodeId, NodeId)> = next
            .parents()
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| {
                let v = NodeId(i);
                match (state.tree.parents()[i], p) {
                    (Some(old), Some(new)) if old != new => Some((v, new)),
                    _ => None,
                }
            })
            .collect();
        match self.config.relabel {
            Relabel::Incremental => {
                let region = state.apply_parent_changes(&changes);
                debug_assert_eq!(state.tree, next, "parent diff reproduces the new tree");
                let dirty_height = region.height_in(&state.depths);
                self.pending = Some(PendingRepair {
                    swap: None,
                    region,
                    path_len: changes.len() as u64,
                    dirty_height,
                });
            }
            Relabel::FromScratch => {
                *state = TreeState::new(next);
                self.pending = None;
            }
        }
        self.writes.tree();
        self.phase = Phase::Label;
        PhaseEvent::Switched {
            local_switches: swapped.max(1),
            rounds,
        }
    }

    /// Injects `k` random single-label faults across the maintained families (the
    /// wave-boundary fault hook of experiment E8b). Only meaningful once labels exist
    /// and between waves — i.e. after a [`PhaseEvent::LabelsReady`] or
    /// [`PhaseEvent::Stabilized`] — so the next [`step`](CompositionEngine::step) runs
    /// the verification wave and rebuilds exactly the rejected families. Returns the
    /// nodes hit.
    ///
    /// # Panics
    ///
    /// Panics if called before the first labeling wave or while a label repair is
    /// pending (mid-switch).
    pub fn corrupt_random_labels(&mut self, k: usize) -> Vec<NodeId> {
        assert!(
            !self.nca.is_empty() && self.pending.is_none(),
            "label corruption is a wave-boundary fault"
        );
        let n = self.graph.node_count();
        let families = if self.task == EngineTask::Mst { 3 } else { 2 };
        let mut hit = Vec::with_capacity(k);
        for i in 0..k {
            let v = NodeId(self.rng.gen_range(0..n));
            let family = match i % families {
                0 => {
                    let label = &mut self.redundant[v.0];
                    label.dist = Some(label.dist.unwrap_or(0) + 3);
                    LabelFamily::Redundant
                }
                1 => {
                    let segment = self.nca[v.0]
                        .segments
                        .last_mut()
                        .expect("labels are never empty");
                    segment.depth += 1;
                    LabelFamily::Nca
                }
                _ => {
                    let labels = self
                        .fragments
                        .as_mut()
                        .expect("MST maintains fragments")
                        .labels_mut();
                    let level = labels[v.0].levels.last_mut().expect("non-empty trace");
                    level.fragment += 1;
                    LabelFamily::Fragments
                }
            };
            self.written.push(v);
            self.note_labels(family);
            hit.push(v);
        }
        self.mark_corrupted(hit.len());
        hit
    }

    /// Marks the labels corrupted at this wave boundary, so the next step runs the
    /// recovery wave, and reports the `nodes` faults.
    fn mark_corrupted(&mut self, nodes: usize) {
        self.corrupted = true;
        if nodes > 0 && self.obs.is_enabled() {
            self.obs
                .counter("engine_corruptions_injected")
                .add(nodes as u64);
            self.obs.emit(TraceEvent::CorruptionInjected {
                layer: Layer::Engine,
                wave: self.obs_current_wave(),
                nodes: nodes as u64,
            });
        }
    }

    /// Runs a family's 1-round proof-labeling verification wave: every node checks its
    /// own label against its neighbors'. The per-node verifiers are independent pure
    /// reads, so big networks are verified shard-parallel on the pool; the outcome
    /// ("did any node reject") is a commutative OR, identical at any thread count.
    fn verification_wave_accepts<S>(
        &self,
        scheme: &S,
        instance: &Instance<'_>,
        labels: &[S::Label],
    ) -> bool
    where
        S: ProofLabelingScheme + Sync,
        S::Label: Sync,
    {
        let n = self.graph.node_count();
        if !self.pool.is_parallel() || n < PAR_VERIFY_MIN {
            return scheme.verify_all(instance, labels).accepted();
        }
        self.pool
            .run(n, |_, range| {
                range
                    .into_iter()
                    .all(|i| scheme.verify_at(instance, labels, NodeId(i)))
            })
            .into_iter()
            .all(|shard_accepted| shard_accepted)
    }

    /// The recovery wave: run every family's 1-round proof-labeling verifier, rebuild
    /// the families some node rejected, and charge the measured cost.
    fn recover(&mut self) -> PhaseEvent {
        self.corrupted = false;
        let written_before = self.labels_written;
        let tree = &self.state.as_ref().expect("tree built").tree;
        let instance = Instance::from_tree(&self.graph, tree);
        let stale: Vec<LabelFamily> = self
            .families()
            .iter()
            .copied()
            .filter(|&family| match family {
                LabelFamily::Fragments => self.fragments.as_ref().is_some_and(|fragments| {
                    !self.verification_wave_accepts(&FragmentScheme, &instance, fragments.labels())
                }),
                LabelFamily::Nca => {
                    !self.verification_wave_accepts(&NcaScheme, &instance, &self.nca)
                }
                LabelFamily::Redundant => {
                    !self.verification_wave_accepts(&RedundantScheme, &instance, &self.redundant)
                }
            })
            .collect();
        let fresh = prove_families(&self.graph, tree, &self.pool, &stale);
        let outcome = self.rebuild_stale(fresh, &stale);
        // The verification wave is charged even when every family passes it.
        let rounds = outcome.rounds.max(1);
        self.ledger.charge("label corruption recovery", rounds);
        if self.phase == Phase::Done {
            // Re-examine silence: the rebuilt labels certify the unchanged tree, so the
            // next improve step re-reports stabilization.
            self.phase = Phase::Improve;
        }
        PhaseEvent::Recovered {
            families_rebuilt: outcome.families_rebuilt,
            labels_written: self.labels_written - written_before,
            rounds,
        }
    }

    /// Installs **stale-but-consistent certificates**: NCA and redundant labels that
    /// are a perfectly valid proof — for a *different* spanning tree (a deterministic
    /// BFS tree rooted at the maximum identity, where the maintained tree is rooted at
    /// the minimum). Unlike the random single-label garbage of
    /// [`corrupt_random_labels`](CompositionEngine::corrupt_random_labels), every
    /// label is locally plausible; only the cross-neighbor verification wave can tell
    /// the certificate proves the wrong tree. This is the adversarial shape a restored
    /// checkpoint takes after topology churn, so the crash-injection tests drive it
    /// through the same recovery path.
    ///
    /// Returns `true` iff the installed certificates actually differ from the
    /// maintained families (on graphs whose BFS tree coincides with the maintained
    /// tree the injection is a no-op and the verification wave accepts).
    ///
    /// # Panics
    ///
    /// Panics if called before the first labeling wave or while a label repair is
    /// pending (mid-switch) — like every wave-boundary fault hook.
    pub fn corrupt_stale_certificates(&mut self) -> bool {
        assert!(
            !self.nca.is_empty() && self.pending.is_none(),
            "label corruption is a wave-boundary fault"
        );
        let root = self
            .graph
            .nodes()
            .max_by_key(|&v| self.graph.ident(v))
            .expect("non-empty network");
        let stale_tree = bfs_tree(&self.graph, root);
        let stale = prove_families(
            &self.graph,
            &stale_tree,
            &self.pool,
            &[LabelFamily::Nca, LabelFamily::Redundant],
        );
        let differs = stale.nca.as_ref() != Some(&self.nca)
            || stale.redundant.as_ref() != Some(&self.redundant);
        self.install(stale);
        self.mark_corrupted(self.graph.node_count());
        differs
    }

    /// Serializes the engine's complete persistent state into a versioned,
    /// checksummed [`Snapshot`]: the (possibly churned) network itself, the task and
    /// configuration, the phase, the maintained tree, all three label families as
    /// packed codec bitstreams, the round ledger, the work counters and the fault RNG
    /// stream.
    ///
    /// An in-flight label repair ([`PhaseEvent::Switched`] taken, labeling wave not
    /// yet run) is deliberately **not** serialized: a mid-repair snapshot is an
    /// arbitrary configuration, and [`CompositionEngine::restore`] hands it to the
    /// verification wave exactly as the paper prescribes for any arbitrary initial
    /// configuration (DESIGN.md §2.11). Checkpointing at a wave boundary — the
    /// [`stst-churn` driver's discipline] — restores verbatim instead.
    ///
    /// [`stst-churn` driver's discipline]: PhaseEvent
    pub fn checkpoint(&self) -> Snapshot {
        let timer = self.obs.is_enabled().then(std::time::Instant::now);
        let n = self.graph.node_count();
        // Task, relabel mode and phase are stored as their declaration indices.
        let mut words: Vec<u64> = vec![
            self.task as u64,
            self.config.seed,
            self.config.scheduler.tag(),
            self.config.max_steps,
            self.config.relabel as u64,
            self.phase as u64,
        ];
        words.push(self.corrupted as u64);
        words.extend_from_slice(&self.rng.state());
        words.push(self.improvements as u64);
        words.push(self.labels_written);
        words.push(self.max_register_bits as u64);
        words.push(self.legal as u64);
        words.push(n as u64);
        words.extend(self.graph.nodes().map(|v| self.graph.ident(v)));
        words.push(self.graph.edge_count() as u64);
        for e in self.graph.edges() {
            words.push(e.u.0 as u64);
            words.push(e.v.0 as u64);
            words.push(e.weight);
        }
        let entries = self.ledger.by_phase();
        words.push(self.ledger.charges() as u64);
        words.push(entries.len() as u64);
        for (label, rounds) in entries {
            push_bytes(&mut words, label.as_bytes());
            words.push(rounds);
        }
        match self.state.as_ref() {
            None => words.push(0),
            Some(state) => {
                words.push(1);
                words.push(state.tree.root().0 as u64);
                words.extend(
                    state
                        .tree
                        .parents()
                        .iter()
                        .map(|p| p.map_or(0, |p| p.0 as u64 + 1)),
                );
            }
        }
        match self.fragments.as_ref() {
            None => words.push(0),
            Some(fragments) => {
                words.push(1);
                push_codec_stream(&mut words, fragments.labels(), &self.ctx);
            }
        }
        if self.nca.is_empty() {
            words.push(0);
        } else {
            words.push(1);
            push_codec_stream(&mut words, &self.nca, &self.ctx);
            push_codec_stream(&mut words, &self.redundant, &self.ctx);
        }
        let snapshot = Snapshot::new(KIND_ENGINE, words);
        if let Some(started) = timer {
            self.obs.emit(TraceEvent::Checkpoint {
                layer: Layer::Engine,
                wave: self.obs_current_wave(),
                bytes: snapshot.byte_len() as u64,
                ms: started.elapsed().as_secs_f64() * 1e3,
            });
        }
        snapshot
    }

    /// Rebuilds an engine from a [`Snapshot`] written by
    /// [`CompositionEngine::checkpoint`]. The snapshot carries its own network (the
    /// graph churns under topology events), so the restored engine owns its graph and
    /// has a `'static` lifetime; `threads` is the one representation choice the
    /// restoring process supplies.
    ///
    /// Restore **is** self-stabilization: the checkpointed labels are compared
    /// against fresh proofs for the checkpointed tree, and
    ///
    /// * a clean wave-boundary snapshot restores **verbatim** — zero extra rounds,
    ///   zero label writes: stepping the restored engine is bit-identical to stepping
    ///   the one that never stopped, counters included;
    /// * a mid-repair snapshot (labels stale for the already-switched tree) triggers
    ///   the verification wave at restore: the rejected families are rebuilt and
    ///   charged as `"label corruption recovery"`, exactly like any transient fault,
    ///   and the engine resumes at the improvement phase — re-stabilizing to the same
    ///   final configuration as the uninterrupted run;
    /// * a snapshot taken with unresolved injected corruption restores the corrupted
    ///   labels verbatim and keeps the corrupted flag, so the next
    ///   [`step`](CompositionEngine::step) runs the same recovery the uninterrupted
    ///   engine would have run.
    ///
    /// # Errors
    ///
    /// Returns a typed [`RestoreError`] — never panics, never loads garbage — on a
    /// snapshot of the wrong kind or with a payload that does not parse (including
    /// parent vectors that do not encode a spanning tree of the embedded graph).
    pub fn restore(
        snapshot: &Snapshot,
        threads: usize,
    ) -> Result<(CompositionEngine<'static>, RestoreOutcome), RestoreError> {
        snapshot.expect_kind(KIND_ENGINE)?;
        let mut r = SnapshotReader::new(snapshot);
        let task = match r.next_word()? {
            0 => EngineTask::Mst,
            1 => EngineTask::Mdst,
            _ => return Err(RestoreError::Malformed("unknown engine task")),
        };
        let seed = r.next_word()?;
        let scheduler = stst_runtime::SchedulerKind::from_tag(r.next_word()?)
            .ok_or(RestoreError::Malformed("unknown scheduler kind"))?;
        let max_steps = r.next_word()?;
        let relabel = match r.next_word()? {
            0 => Relabel::Incremental,
            1 => Relabel::FromScratch,
            _ => return Err(RestoreError::Malformed("unknown relabel mode")),
        };
        let phase = Phase::from_tag(r.next_word()?)
            .ok_or(RestoreError::Malformed("unknown engine phase"))?;
        let corrupted = r.next_word()? != 0;
        let rng_state = r.next_words()?;
        let improvements = r.next_usize()?;
        let labels_written = r.next_word()?;
        let max_register_bits = r.next_usize()?;
        let legal = r.next_word()? != 0;
        let n = r.next_usize()?;
        if n == 0 {
            return Err(RestoreError::Malformed("empty network"));
        }
        let idents = r.take(n)?.to_vec();
        if idents.iter().collect::<HashSet<_>>().len() != n {
            return Err(RestoreError::Malformed("identities are not distinct"));
        }
        // Counts read from the payload bound no allocation beyond the words that are
        // actually left: an edge takes three words, a ledger entry at least two.
        let m = r.next_usize()?;
        let mut edges: Vec<(usize, usize, Weight)> = Vec::with_capacity(m.min(r.remaining() / 3));
        let mut seen = HashSet::with_capacity(edges.capacity());
        for _ in 0..m {
            let u = r.next_usize()?;
            let v = r.next_usize()?;
            let w = r.next_word()?;
            if u >= n || v >= n {
                return Err(RestoreError::Malformed("edge endpoint out of range"));
            }
            if u == v {
                return Err(RestoreError::Malformed("self-loop"));
            }
            if !seen.insert((u.min(v), u.max(v))) {
                return Err(RestoreError::Malformed("duplicate edge"));
            }
            edges.push((u, v, w));
        }
        let charges = r.next_usize()?;
        let entry_count = r.next_usize()?;
        let mut entries: Vec<(&'static str, u64)> =
            Vec::with_capacity(entry_count.min(r.remaining() / 2));
        for _ in 0..entry_count {
            let bytes = read_bytes(&mut r)?;
            let label = KNOWN_CHARGE_LABELS
                .iter()
                .find(|&&known| known.as_bytes() == bytes.as_slice())
                .copied()
                .unwrap_or(UNATTRIBUTED_LABEL);
            entries.push((label, r.next_word()?));
        }
        // The ledger recomputes its total from the entries, so the sum must fit.
        if entries
            .iter()
            .try_fold(0u64, |total, &(_, rounds)| total.checked_add(rounds))
            .is_none()
        {
            return Err(RestoreError::Malformed("round ledger total overflows"));
        }
        let mut graph = Graph::from_edges(n, &edges);
        graph.set_idents(idents);
        let ctx = CodecCtx::for_graph(&graph);
        let state = match r.next_word()? {
            0 => None,
            1 => {
                let root = NodeId(r.next_usize()?);
                let parents = r
                    .take_usizes(n)?
                    .into_iter()
                    .map(|w| match w {
                        0 => Ok(None),
                        p if p <= n => Ok(Some(NodeId(p - 1))),
                        _ => Err(RestoreError::Malformed("parent out of range")),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let tree = Tree::from_parents_in(&graph, parents).map_err(|_| {
                    RestoreError::Malformed("parents do not encode a spanning tree")
                })?;
                if tree.root() != root {
                    return Err(RestoreError::Malformed("root disagrees with parents"));
                }
                Some(TreeState::new(tree))
            }
            _ => return Err(RestoreError::Malformed("bad tree presence flag")),
        };
        let snapshot_fragments: Option<Vec<FragmentLabel>> = match r.next_word()? {
            0 => None,
            1 => Some(read_codec_stream(&mut r, n, &ctx)?),
            _ => return Err(RestoreError::Malformed("bad fragment presence flag")),
        };
        let (snapshot_nca, snapshot_redundant): (Vec<NcaLabel>, Vec<RedundantLabel>) =
            match r.next_word()? {
                0 => (Vec::new(), Vec::new()),
                1 => (
                    read_codec_stream(&mut r, n, &ctx)?,
                    read_codec_stream(&mut r, n, &ctx)?,
                ),
                _ => return Err(RestoreError::Malformed("bad label presence flag")),
            };
        r.expect_exhausted()?;
        if state.is_none()
            && (corrupted || snapshot_fragments.is_some() || !snapshot_nca.is_empty())
        {
            return Err(RestoreError::Malformed("labels without a tree"));
        }
        let threads = threads.max(1);
        let config = EngineConfig {
            seed,
            scheduler,
            max_steps,
            relabel,
            threads,
        };
        let mut engine = CompositionEngine {
            phase,
            state,
            corrupted,
            rng: StdRng::from_state(rng_state),
            ledger: RoundLedger::restore(entries, charges),
            improvements,
            labels_written,
            max_register_bits,
            legal,
            ..CompositionEngine::with_graph(Cow::Owned(graph), task, config)
        };
        if engine.state.is_none() || snapshot_nca.is_empty() {
            // Pre-labeling snapshot: nothing to verify, the next step builds (or
            // labels) from scratch exactly like the uninterrupted run.
            return Ok((engine, RestoreOutcome::default()));
        }
        let tree = &engine.state.as_ref().expect("checked above").tree;
        if corrupted {
            // Unresolved injected corruption travels through the snapshot verbatim:
            // the next step runs the same recovery wave the uninterrupted engine
            // would have run, with bit-identical outcome. The MST's fragment per-level
            // structure is rebuilt consistent with the tree — exactly the shape the
            // uninterrupted engine had, whose corruption hook edits labels only.
            let fragments = &FAMILIES[..usize::from(task == EngineTask::Mst)];
            let mut fresh = prove_families(&engine.graph, tree, &engine.pool, fragments);
            if let (Some(fragments), Some(labels)) = (&mut fresh.fragments, snapshot_fragments) {
                fragments.labels_mut().clone_from_slice(&labels);
            }
            fresh.nca = Some(snapshot_nca);
            fresh.redundant = Some(snapshot_redundant);
            engine.install(fresh);
            return Ok((engine, RestoreOutcome::default()));
        }
        // Restore is self-stabilization: the checkpointed families are an arbitrary
        // configuration until they are compared with fresh proofs for the restored
        // tree (equality, not the verification wave: the NCA verifier accepts any
        // heavy-path choice, and only fresh proofs keep restored labels canonical). A
        // clean wave-boundary snapshot matches and restores verbatim (zero charges); a
        // mid-repair snapshot has stale families, which are rebuilt and charged
        // exactly like transient-fault recovery. The task decides the families: a
        // family the snapshot lacks is stale.
        let families = engine.families();
        let fresh = prove_families(&engine.graph, tree, &engine.pool, families);
        let stale: Vec<LabelFamily> = families
            .iter()
            .copied()
            .filter(|&family| match family {
                LabelFamily::Fragments => {
                    snapshot_fragments.as_deref() != fresh.fragments.as_ref().map(|f| f.labels())
                }
                LabelFamily::Nca => fresh.nca.as_ref() != Some(&snapshot_nca),
                LabelFamily::Redundant => fresh.redundant.as_ref() != Some(&snapshot_redundant),
            })
            .collect();
        let outcome = engine.rebuild_stale(fresh, &stale);
        if outcome.families_rebuilt > 0 {
            engine
                .ledger
                .charge("label corruption recovery", outcome.rounds);
            // The restored families are now exact for the tree, so the pending label
            // wave (mid-repair snapshot) or the silence re-examination (stale Done
            // snapshot) both land at the improvement phase.
            if engine.phase == Phase::Label || engine.phase == Phase::Done {
                engine.phase = Phase::Improve;
            }
        }
        Ok((engine, outcome))
    }
}

/// Appends to `out` the nodes whose label differs between `old` and `new`; returns
/// `false` (appending nothing) when the two cover different node counts.
fn changed_nodes<L: PartialEq>(old: &[L], new: &[L], out: &mut Vec<NodeId>) -> bool {
    if old.len() != new.len() {
        return false;
    }
    out.extend((0..new.len()).filter(|&v| old[v] != new[v]).map(NodeId));
    true
}

/// Finds the minimum-weight graph edge reconnecting the orphaned subtree rooted at
/// `child_side` (whose parent edge was deleted by a topology mutation) to the rest of
/// the tree, and the parent-pointer reversal attaching it — the same reversal shape a
/// loop-free switch uses, so [`TreeState::apply_parent_changes`] yields the exact
/// dirty region. Returns `None` only if the subtree has no outgoing edge, i.e. the
/// graph is disconnected (which [`CompositionEngine::apply_topology`] rules out before
/// committing). Members' incident edges are scanned in the CSR's precomputed weight
/// order, so the search early-exits like the fragment repair scans.
fn reanchor_changes(
    graph: &Graph,
    state: &mut TreeState,
    child_side: NodeId,
) -> Option<(EdgeId, Vec<(NodeId, NodeId)>)> {
    state.marks.clear();
    let mut members: Vec<NodeId> = Vec::new();
    let mut stack = vec![child_side];
    while let Some(x) = stack.pop() {
        if !state.marks.insert(x) {
            continue;
        }
        members.push(x);
        stack.extend(state.children[x.0].iter().copied());
    }
    let mut best: Option<(Weight, EdgeId)> = None;
    for &v in &members {
        let nbrs = graph.neighbors(v);
        for &k in graph.neighbor_order_by_weight(v) {
            let (w, e) = nbrs[k as usize];
            let weight = graph.weight(e);
            if let Some((best_w, best_e)) = best {
                if weight > best_w {
                    break; // ascending order: nothing later in this list can win
                }
                if weight == best_w && e.index() >= best_e.index() {
                    continue;
                }
            }
            if state.marks.contains(w) {
                continue;
            }
            best = Some((weight, e));
        }
    }
    let (_, anchor) = best?;
    let anchor_edge = graph.edge(anchor);
    let (inside, outside) = if state.marks.contains(anchor_edge.u) {
        (anchor_edge.u, anchor_edge.v)
    } else {
        (anchor_edge.v, anchor_edge.u)
    };
    // The stale pointer of `child_side` across the deleted edge is overwritten by the
    // last reversal.
    Some((
        anchor,
        reversal_changes(&state.tree, inside, outside, child_side),
    ))
}

/// The net effect of an edge-level batch on the node pairs it touches, derived from the
/// graph *before* the batch commits: which pairs lose their edge, which gain one, and
/// the weights that leave and enter the graph (the only input of the codec context an
/// edge-level batch can move).
struct EdgeDelta {
    /// Pairs with an edge before the batch and none after, sorted.
    removed: Vec<(NodeId, NodeId)>,
    /// Pairs with no edge before the batch and one after, sorted.
    added: Vec<(NodeId, NodeId)>,
    /// Weights removed or overwritten, and weights inserted, in batch order.
    departed: Vec<Weight>,
    arrived: Vec<Weight>,
}

impl EdgeDelta {
    /// Simulates `mutations` (edge-level only) on the pairs they name, with the same
    /// validity checks as [`Graph::apply_mutations`].
    fn of(graph: &Graph, mutations: &[Mutation]) -> Self {
        let n = graph.node_count();
        let before = |u: NodeId, v: NodeId| {
            (u.0 < n && v.0 < n)
                .then(|| graph.edge_between(u, v).map(|e| graph.weight(e)))
                .flatten()
        };
        let key = |u: NodeId, v: NodeId| if u < v { (u, v) } else { (v, u) };
        let mut now: HashMap<(NodeId, NodeId), Option<Weight>> = HashMap::new();
        let mut departed: Vec<Weight> = Vec::new();
        let mut arrived: Vec<Weight> = Vec::new();
        for &mutation in mutations {
            let (u, v, next) = match mutation {
                Mutation::AddEdge { u, v, weight } => {
                    assert!(u != v, "self-loops are not allowed");
                    assert!(u.0 < n && v.0 < n, "endpoint out of range");
                    let current = *now.entry(key(u, v)).or_insert_with(|| before(u, v));
                    assert!(current.is_none(), "duplicate edge between {u:?} and {v:?}");
                    (u, v, Some(weight))
                }
                Mutation::RemoveEdge { u, v } => (u, v, None),
                Mutation::SetWeight { u, v, weight } => (u, v, Some(weight)),
                Mutation::AddNode { .. } | Mutation::RemoveNode { .. } => {
                    unreachable!("node churn takes the coarse path")
                }
            };
            let current = *now.entry(key(u, v)).or_insert_with(|| before(u, v));
            if !matches!(mutation, Mutation::AddEdge { .. }) {
                let old = current.unwrap_or_else(|| match next {
                    None => panic!("no edge between {u:?} and {v:?} to remove"),
                    Some(_) => panic!("no edge between {u:?} and {v:?} to re-weight"),
                });
                departed.push(old);
            }
            arrived.extend(next);
            now.insert(key(u, v), next);
        }
        let mut removed = Vec::new();
        let mut added = Vec::new();
        for (&(u, v), after) in &now {
            match (before(u, v).is_some(), after.is_some()) {
                (true, false) => removed.push((u, v)),
                (false, true) => added.push((u, v)),
                _ => {}
            }
        }
        removed.sort_unstable();
        added.sort_unstable();
        EdgeDelta {
            removed,
            added,
            departed,
            arrived,
        }
    }

    /// The child of the stale parent pointer with the smallest index: a pointer
    /// across a removed pair.
    fn stale_child(&self, tree: &Tree) -> Option<NodeId> {
        self.removed
            .iter()
            .flat_map(|&(a, b)| [(a, b), (b, a)])
            .filter(|&(child, parent)| tree.parent(child) == Some(parent))
            .map(|(child, _)| child)
            .min()
    }

    /// `None` if the graph stays connected after the batch, else the number of its
    /// components. The tree minus its removed edges falls into pieces: the root's and
    /// one per removed tree edge (the subtree below it, minus the subtrees below
    /// deeper removed tree edges). Each piece is connected by its surviving tree
    /// edges, so the graph's components are the classes of pieces joined by the
    /// batch's graph. Every piece but the root's lies in an orphaned subtree, so only
    /// those nodes' edges are scanned, and the scan stops once every piece is joined.
    fn components(&self, graph: &Graph, state: &mut TreeState) -> Option<usize> {
        let tree = &state.tree;
        let roots: Vec<NodeId> = self
            .removed
            .iter()
            .flat_map(|&(a, b)| [(a, b), (b, a)])
            .filter(|&(child, parent)| tree.parent(child) == Some(parent))
            .map(|(child, _)| child)
            .collect();
        if roots.is_empty() {
            return None;
        }
        // Piece of every orphaned node: 1 + the index of its orphaned subtree's root
        // (the root's piece is 0).
        state.piece.resize(tree.node_count(), 0);
        let piece = &mut state.piece;
        for (i, &r) in roots.iter().enumerate() {
            piece[r.0] = i as u32 + 1;
        }
        let mut members: Vec<NodeId> = Vec::new();
        for &r in &roots {
            let mut stack = vec![r];
            while let Some(x) = stack.pop() {
                members.push(x);
                for &c in &state.children[x.0] {
                    if piece[c.0] == 0 {
                        piece[c.0] = piece[x.0];
                        stack.push(c);
                    }
                }
            }
        }
        let removed = |x: NodeId, y: NodeId| {
            let key = if x < y { (x, y) } else { (y, x) };
            self.removed.binary_search(&key).is_ok()
        };
        let mut pieces = UnionFind::new(roots.len() + 1);
        for &x in &members {
            let kept = graph
                .neighbors(x)
                .iter()
                .map(|&(y, _)| y)
                .filter(|&y| !removed(x, y));
            let new = self
                .added
                .iter()
                .filter(|&&(a, b)| a == x || b == x)
                .map(|&(a, b)| if a == x { b } else { a });
            for y in kept.chain(new) {
                pieces.union(piece[x.0] as usize, piece[y.0] as usize);
            }
            if pieces.component_count() == 1 {
                break;
            }
        }
        for &x in &members {
            piece[x.0] = 0;
        }
        (pieces.component_count() > 1).then(|| pieces.component_count())
    }
}

/// How many edges have each weight width ([`CodecCtx::weight_width`]): the codec
/// context's weight width is the widest one present, so an edge-level batch updates
/// it from the weights it removes and inserts, without a pass over the edges.
struct WeightWidths([u32; 65]);

impl WeightWidths {
    fn of(graph: &Graph) -> Self {
        let mut widths = WeightWidths([0; 65]);
        for e in graph.edges() {
            widths.0[CodecCtx::weight_width(e.weight) as usize] += 1;
        }
        widths
    }

    fn update(&mut self, departed: &[Weight], arrived: &[Weight]) {
        for &w in departed {
            self.0[CodecCtx::weight_width(w) as usize] -= 1;
        }
        for &w in arrived {
            self.0[CodecCtx::weight_width(w) as usize] += 1;
        }
    }

    /// The widest width present (an edgeless graph's when there is none).
    fn widest(&self) -> u32 {
        self.0
            .iter()
            .rposition(|&count| count > 0)
            .map_or(CodecCtx::weight_width(0), |w| w as u32)
    }
}

/// The parent-pointer reversal of a loop-free switch (§IV), shared by the improving
/// switch and the re-anchoring of an orphaned subtree: `inside` is re-hung under
/// `outside`, and each hop of the tree path from `inside` up to its ancestor `top`
/// reverses one parent pointer. One change per hop plus one: the reparenting path's
/// length.
fn reversal_changes(
    tree: &Tree,
    inside: NodeId,
    outside: NodeId,
    top: NodeId,
) -> Vec<(NodeId, NodeId)> {
    let mut changes = vec![(inside, outside)];
    let mut cur = inside;
    while cur != top {
        let parent = tree.parents()[cur.0].expect("top is an ancestor of inside");
        changes.push((parent, cur));
        cur = parent;
    }
    changes
}

#[cfg(test)]
mod tests {
    use super::*;
    use stst_graph::generators;
    use stst_graph::mst::kruskal;

    #[test]
    fn engine_steps_through_the_documented_phase_sequence() {
        let g = generators::workload(18, 0.3, 2);
        let mut engine = CompositionEngine::new(&g, EngineTask::Mst, EngineConfig::seeded(2));
        assert!(matches!(
            engine.step(),
            PhaseEvent::TreeConstructed { rounds } if rounds > 0
        ));
        assert!(matches!(engine.step(), PhaseEvent::LabelsReady { .. }));
        let mut switches = 0;
        loop {
            match engine.step() {
                PhaseEvent::Switched { local_switches, .. } => {
                    assert!(local_switches >= 1);
                    switches += 1;
                    assert!(matches!(engine.step(), PhaseEvent::LabelsReady { .. }));
                }
                PhaseEvent::Stabilized { legal } => {
                    assert!(legal);
                    break;
                }
                other => panic!("unexpected event {other:?}"),
            }
            assert!(switches < 500);
        }
        assert!(engine.is_stabilized());
        // Stepping a stabilized engine is idempotent.
        assert!(matches!(
            engine.step(),
            PhaseEvent::Stabilized { legal: true }
        ));
        let report = engine.report();
        let opt = kruskal(&g).unwrap().total_weight(&g);
        assert_eq!(report.tree.total_weight(&g), opt);
        assert_eq!(report.improvements, switches);
    }

    #[test]
    fn incremental_and_from_scratch_modes_agree_on_the_result() {
        for seed in 0..4 {
            let g = generators::workload(22, 0.25, seed);
            for task in [EngineTask::Mst, EngineTask::Mdst] {
                let mut inc = CompositionEngine::new(&g, task, EngineConfig::seeded(seed));
                let mut full = CompositionEngine::new(
                    &g,
                    task,
                    EngineConfig::seeded(seed).with_relabel(Relabel::FromScratch),
                );
                let a = inc.run();
                let b = full.run();
                assert_eq!(a.tree, b.tree, "seed {seed} {task:?}");
                assert_eq!(a.improvements, b.improvements, "seed {seed} {task:?}");
                assert!(a.legal && b.legal, "seed {seed} {task:?}");
                assert!(
                    a.labels_written <= b.labels_written,
                    "seed {seed} {task:?}: incremental wrote {} vs {}",
                    a.labels_written,
                    b.labels_written
                );
            }
        }
    }

    #[test]
    fn corruption_between_waves_is_detected_and_repaired() {
        let g = generators::workload(20, 0.3, 7);
        let mut engine = CompositionEngine::new(&g, EngineTask::Mst, EngineConfig::seeded(7));
        let report = engine.run();
        assert!(report.legal);
        let tree_before = engine.tree().clone();
        let hit = engine.corrupt_random_labels(5);
        assert_eq!(hit.len(), 5);
        let event = engine.step();
        let PhaseEvent::Recovered {
            families_rebuilt,
            labels_written,
            rounds,
        } = event
        else {
            panic!("expected recovery, got {event:?}");
        };
        assert!(families_rebuilt >= 1);
        assert!(labels_written > 0);
        assert!(rounds > 1);
        // The tree is untouched and the engine re-stabilizes immediately.
        assert!(matches!(
            engine.step(),
            PhaseEvent::Stabilized { legal: true }
        ));
        assert_eq!(engine.tree(), &tree_before);
        // The rebuilt labels match fresh proofs.
        assert_eq!(
            engine.nca_labels(),
            assign_nca_labels(&g, &tree_before).as_slice()
        );
    }

    #[test]
    fn topology_deltas_restabilize_on_the_mutated_graph() {
        use stst_labeling::redundant::RedundantScheme;
        use stst_labeling::scheme::ProofLabelingScheme;
        for seed in 0..4 {
            let g = generators::workload(20, 0.3, seed);
            let mut engine =
                CompositionEngine::new(&g, EngineTask::Mst, EngineConfig::seeded(seed));
            assert!(engine.run().legal);
            let assert_consistent = |engine: &CompositionEngine<'_>, what: &str| {
                let g = engine.graph();
                let t = engine.tree();
                assert!(t.is_spanning_tree_of(g), "seed {seed}: {what}");
                assert_eq!(
                    t.total_weight(g),
                    kruskal(g).unwrap().total_weight(g),
                    "seed {seed}: {what}"
                );
                assert_eq!(
                    engine.fragment_labels().unwrap(),
                    stst_labeling::mst_fragments::assign_fragment_labels(g, t).as_slice(),
                    "seed {seed}: {what}"
                );
                assert_eq!(
                    engine.nca_labels(),
                    assign_nca_labels(g, t).as_slice(),
                    "seed {seed}: {what}"
                );
                assert_eq!(
                    engine.redundant_labels(),
                    RedundantScheme.prove(g, t).as_slice(),
                    "seed {seed}: {what}"
                );
            };
            let mut next_weight = engine
                .graph()
                .edges()
                .iter()
                .map(|e| e.weight)
                .max()
                .unwrap()
                + 1;
            // Weight drift on a tree edge: the tree survives but may stop being
            // minimum; local search resumes and re-stabilizes.
            let te = engine.tree().edge_ids_in(engine.graph())[2];
            let (u, v) = {
                let e = engine.graph().edge(te);
                (e.u, e.v)
            };
            let event = engine.apply_topology(&[Mutation::SetWeight {
                u,
                v,
                weight: next_weight,
            }]);
            next_weight += 1;
            assert!(
                matches!(event, PhaseEvent::TopologyApplied { reanchored: 0, .. }),
                "seed {seed}: got {event:?}"
            );
            assert!(engine.run().legal);
            assert_consistent(&engine, "tree-edge weight drift");
            // Remove a non-bridge tree edge: its subtree re-anchors via the loop-free
            // switch machinery.
            let removable = engine
                .tree()
                .edge_ids_in(engine.graph())
                .into_iter()
                .find(|&e| {
                    let ed = *engine.graph().edge(e);
                    let mut trial = engine.graph().clone();
                    trial.remove_edge(ed.u, ed.v);
                    trial.is_connected()
                })
                .expect("some tree edge has a replacement");
            let (u, v) = {
                let e = engine.graph().edge(removable);
                (e.u, e.v)
            };
            let event = engine.apply_topology(&[Mutation::RemoveEdge { u, v }]);
            let PhaseEvent::TopologyApplied { reanchored, .. } = event else {
                panic!("seed {seed}: expected a committed delta, got {event:?}");
            };
            assert_eq!(reanchored, 1, "seed {seed}");
            assert!(engine.run().legal);
            assert_consistent(&engine, "tree-edge removal");
            // Insert a fresh light edge: it must be adopted by the MST.
            let (a, b) = {
                let g = engine.graph();
                let mut found = None;
                'outer: for a in g.nodes() {
                    for b in g.nodes() {
                        if a < b && g.edge_between(a, b).is_none() {
                            found = Some((a, b));
                            break 'outer;
                        }
                    }
                }
                found.expect("sparse graphs have non-adjacent pairs")
            };
            let event = engine.apply_topology(&[Mutation::AddEdge {
                u: a,
                v: b,
                weight: 0,
            }]);
            assert!(matches!(event, PhaseEvent::TopologyApplied { .. }));
            assert!(engine.run().legal);
            assert!(
                engine.tree().contains_edge(a, b),
                "seed {seed}: weight-0 edge adopted"
            );
            assert_consistent(&engine, "edge insertion");
            let _ = next_weight;
        }
    }

    #[test]
    fn topology_delta_right_after_tree_construction_is_safe() {
        // A delta landing between TreeConstructed and the first labeling wave must
        // not leave the engine in Improve with no labels (regression: it panicked on
        // "MST maintains fragments").
        let g = generators::workload(20, 0.3, 1);
        let mut engine = CompositionEngine::new(&g, EngineTask::Mst, EngineConfig::seeded(1));
        assert!(matches!(engine.step(), PhaseEvent::TreeConstructed { .. }));
        let (a, b) = {
            let g = engine.graph();
            let mut found = None;
            'outer: for a in g.nodes() {
                for b in g.nodes() {
                    if a < b && g.edge_between(a, b).is_none() {
                        found = Some((a, b));
                        break 'outer;
                    }
                }
            }
            found.expect("sparse graphs have non-adjacent pairs")
        };
        let event = engine.apply_topology(&[Mutation::AddEdge {
            u: a,
            v: b,
            weight: 0,
        }]);
        assert!(matches!(event, PhaseEvent::TopologyApplied { .. }));
        assert!(engine.run().legal);
        assert!(engine.tree().contains_edge(a, b));
    }

    #[test]
    fn severing_deltas_are_reported_and_not_committed() {
        // 0-1-2-3 path plus chord 0-2: edge {2, 3} is a bridge.
        let g = Graph::from_edges(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 2, 4)]);
        let mut engine = CompositionEngine::new(&g, EngineTask::Mst, EngineConfig::seeded(1));
        assert!(engine.run().legal);
        let tree_before = engine.tree().clone();
        let event = engine.apply_topology(&[Mutation::RemoveEdge {
            u: NodeId(2),
            v: NodeId(3),
        }]);
        assert_eq!(event, PhaseEvent::Partitioned { components: 2 });
        // Nothing was committed: the edge is still there, the engine still silent.
        assert!(engine.graph().edge_between(NodeId(2), NodeId(3)).is_some());
        assert!(matches!(
            engine.step(),
            PhaseEvent::Stabilized { legal: true }
        ));
        assert_eq!(engine.tree(), &tree_before);
    }

    #[test]
    fn node_churn_rebuilds_and_restabilizes() {
        let g = generators::workload(16, 0.35, 5);
        let mut engine = CompositionEngine::new(&g, EngineTask::Mst, EngineConfig::seeded(5));
        assert!(engine.run().legal);
        // A node joins with two links.
        let n = engine.graph().node_count();
        let event = engine.apply_topology(&[
            Mutation::AddNode { ident: 999 },
            Mutation::AddEdge {
                u: NodeId(n),
                v: NodeId(0),
                weight: 1_000,
            },
            Mutation::AddEdge {
                u: NodeId(n),
                v: NodeId(3),
                weight: 1_001,
            },
        ]);
        assert!(matches!(event, PhaseEvent::TopologyApplied { .. }));
        assert!(engine.run().legal);
        assert_eq!(engine.tree().node_count(), n + 1);
        // An interior node leaves; its orphans are reconnected.
        let victim = engine
            .graph()
            .nodes()
            .find(|&v| {
                let mut trial = engine.graph().clone();
                trial.remove_node(v);
                trial.is_connected()
            })
            .expect("some node is removable");
        let event = engine.apply_topology(&[Mutation::RemoveNode { v: victim }]);
        assert!(matches!(event, PhaseEvent::TopologyApplied { .. }));
        assert!(engine.run().legal);
        let g = engine.graph();
        assert_eq!(
            engine.tree().total_weight(g),
            kruskal(g).unwrap().total_weight(g)
        );
    }

    /// A checksum-valid MST snapshot without its fragment family (flag 0, stream
    /// dropped) counts that family as stale: restore rebuilds it instead of handing
    /// the improvement step an engine without fragment labels.
    #[test]
    fn restore_rebuilds_a_fragment_family_the_snapshot_lacks() {
        let g = generators::workload(30, 0.3, 7);
        let mut engine = CompositionEngine::new(&g, EngineTask::Mst, EngineConfig::seeded(7));
        let expected = engine.run();
        let ctx = engine.codec_ctx();
        let stream = |bits: usize| bits.div_ceil(64) + 2;
        let red = stream(engine.redundant.iter().map(|l| l.encoded_bits(&ctx)).sum());
        let nca = stream(engine.nca.iter().map(|l| l.encoded_bits(&ctx)).sum());
        let labels = engine.fragment_labels().expect("MST keeps fragments");
        let frag = stream(labels.iter().map(|l| l.encoded_bits(&ctx)).sum());
        let words = engine.checkpoint().words().to_vec();
        // Tail: fragment flag + stream, label flag, NCA stream, redundant stream.
        let flag_at = words.len() - red - nca - 1 - frag - 1;
        assert_eq!(words[flag_at], 1, "fragment flag located");
        let mut crafted = words[..flag_at].to_vec();
        crafted.push(0);
        crafted.extend_from_slice(&words[flag_at + 1 + frag..]);
        let (mut restored, outcome) =
            CompositionEngine::restore(&Snapshot::new(KIND_ENGINE, crafted), 1).unwrap();
        assert_eq!(outcome.families_rebuilt, 1);
        assert!(outcome.rounds > 1);
        assert_eq!(restored.fragment_labels(), engine.fragment_labels());
        let report = restored.run();
        assert!(report.legal && restored.check_legal());
        assert_eq!(report.tree, expected.tree);
    }

    #[test]
    fn mdst_engine_stabilizes_on_certified_fr_trees() {
        let g = generators::workload(16, 0.35, 3);
        let mut engine = CompositionEngine::new(&g, EngineTask::Mdst, EngineConfig::seeded(3));
        let report = engine.run();
        assert!(report.legal);
        assert!(stst_graph::fr::is_fr_tree(&g, &report.tree));
        assert!(report.rounds_for("FR marking") > 0);
    }
}
