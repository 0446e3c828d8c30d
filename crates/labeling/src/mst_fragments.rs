//! MST fragment labels and the MST potential function of §VI.
//!
//! Each node stores the trace of a *virtual execution of Borůvka's algorithm on the
//! current tree `T`*: for every level `i`, the identity of the level-`i` fragment it
//! belongs to and the minimum-weight **tree** edge outgoing from that fragment
//! (Fig. 2 of the paper). The potential
//! `φ(T) = k·n − Σ_x φ_x(T)`, where `φ_x(T)` is the largest level up to which the
//! recorded outgoing edges are also minimum-weight outgoing edges *in the whole graph*,
//! is zero exactly on minimum spanning trees; when it is positive, the lightest outgoing
//! edge `e` of a violating fragment and the heaviest edge `f` of the fundamental cycle
//! `T + e` form an improving swap (`φ(T + e − f) < φ(T)` — Tarjan's red rule).
//!
//! [`FragmentState`] maintains the labels and the potential across swaps and topology
//! mutations. It keeps the fragment hierarchy, not per-node data: `φ_x` is a sum of
//! per-fragment aggregates, member sets are reached by descending constituents, and a
//! repair costs the label entries it writes plus the constituents of the fragments it
//! regroups ([`FragmentState::node_visits`] counts that work).

use std::collections::{BTreeSet, HashMap};

use stst_graph::marks::NodeMarks;
use stst_graph::mst::{boruvka_on_tree, BoruvkaRun};
use stst_graph::{EdgeId, Graph, Ident, NodeId, Tree, Weight};
use stst_runtime::bits::{BitReader, BitWriter};
use stst_runtime::par::ThreadPool;
use stst_runtime::{Codec, CodecCtx};

use crate::scheme::{Instance, ProofLabelingScheme};

/// One level of a fragment label: the fragment identity and the recorded outgoing tree
/// edge `(ID(a), ID(b), w(a, b))` (or `⊥` once the fragment spans the tree).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FragmentLevel {
    /// Identity of the level-`i` fragment (smallest node identity it contains).
    pub fragment: Ident,
    /// The minimum-weight tree edge outgoing from the fragment, as an identity pair plus
    /// weight, or `None` at the final level.
    pub outgoing: Option<(Ident, Ident, Weight)>,
}

/// The fragment label of one node: one [`FragmentLevel`] per Borůvka level
/// (`k ≤ ⌈log₂ n⌉ + 1` levels), `O(log² n)` bits in total — the space-optimal budget for
/// silent MST (Korman–Kutten).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FragmentLabel {
    /// Levels from 0 (singleton fragments) to `k − 1` (the whole tree).
    pub levels: Vec<FragmentLevel>,
}

impl Codec for FragmentLabel {
    fn encoded_bits(&self, ctx: &CodecCtx) -> usize {
        CodecCtx::uint_bits(self.levels.len() as u64, ctx.len_bits)
            + self
                .levels
                .iter()
                .map(|l| {
                    CodecCtx::uint_bits(l.fragment, ctx.ident_bits)
                        + 1
                        + l.outgoing.map_or(0, |(a, b, w)| {
                            CodecCtx::uint_bits(a, ctx.ident_bits)
                                + CodecCtx::uint_bits(b, ctx.ident_bits)
                                + CodecCtx::uint_bits(w, ctx.weight_bits)
                        })
                })
                .sum::<usize>()
    }

    fn encode_into(&self, ctx: &CodecCtx, w: &mut BitWriter<'_>) {
        CodecCtx::write_uint(w, self.levels.len() as u64, ctx.len_bits);
        for level in &self.levels {
            CodecCtx::write_uint(w, level.fragment, ctx.ident_bits);
            match level.outgoing {
                None => w.write(0, 1),
                Some((a, b, weight)) => {
                    w.write(1, 1);
                    CodecCtx::write_uint(w, a, ctx.ident_bits);
                    CodecCtx::write_uint(w, b, ctx.ident_bits);
                    CodecCtx::write_uint(w, weight, ctx.weight_bits);
                }
            }
        }
    }

    fn decode_from(ctx: &CodecCtx, r: &mut BitReader<'_>) -> Self {
        // A corrupted length may claim more levels than the stream holds. Every level
        // takes at least `ident_bits + 2` bits (fragment field plus outgoing flag), so
        // this cap never shortens a valid encoding and bounds the allocation.
        let min_level_bits = u64::from(ctx.ident_bits) + 2;
        let len = CodecCtx::read_uint(r, ctx.len_bits).min(r.remaining_bits() / min_level_bits);
        let len = len as usize;
        let levels = (0..len)
            .map(|_| {
                let fragment = CodecCtx::read_uint(r, ctx.ident_bits);
                let outgoing = (r.read(1) == 1).then(|| {
                    let a = CodecCtx::read_uint(r, ctx.ident_bits);
                    let b = CodecCtx::read_uint(r, ctx.ident_bits);
                    let weight = CodecCtx::read_uint(r, ctx.weight_bits);
                    (a, b, weight)
                });
                FragmentLevel { fragment, outgoing }
            })
            .collect();
        FragmentLabel { levels }
    }
}

/// Builds the fragment labels of every node for the spanning tree `tree` by running
/// Borůvka virtually on the tree's edges.
///
/// # Panics
///
/// Panics if `tree` is not a spanning tree of `graph`.
pub fn assign_fragment_labels(graph: &Graph, tree: &Tree) -> Vec<FragmentLabel> {
    let run: BoruvkaRun =
        boruvka_on_tree(graph, tree).expect("fragment labels need a spanning tree of the graph");
    labels_from_traces(graph, &run)
}

fn labels_from_traces(graph: &Graph, run: &BoruvkaRun) -> Vec<FragmentLabel> {
    run.traces
        .iter()
        .map(|trace| FragmentLabel {
            levels: trace
                .fragment
                .iter()
                .zip(trace.chosen_edge.iter())
                .map(|(&fragment, &edge)| FragmentLevel {
                    fragment,
                    outgoing: edge.map(|e| outgoing_triple(graph, e)),
                })
                .collect(),
        })
        .collect()
}

/// The `(ID(a), ID(b), w)` form in which a recorded outgoing edge is stored in a label.
fn outgoing_triple(graph: &Graph, e: EdgeId) -> (Ident, Ident, Weight) {
    let ed = graph.edge(e);
    (graph.ident(ed.u), graph.ident(ed.v), ed.weight)
}

/// The MST potential `φ(T) = k·n − Σ_x φ_x(T)` of §VI, computed from freshly assigned
/// fragment labels. Zero iff `T` is a minimum spanning tree.
pub fn mst_potential(graph: &Graph, tree: &Tree) -> u64 {
    FragmentState::new(graph, tree).potential()
}

/// The improving swap prescribed by the potential: for a node `x` whose level-`(i+1)`
/// recorded edge is not the true minimum outgoing edge, take `e` = the true
/// minimum-weight outgoing edge of that fragment in `G` and `f` = the heaviest tree edge
/// on the fundamental cycle of `T + e`. Returns `None` iff the tree is an MST.
pub fn fragment_guided_swap(graph: &Graph, tree: &Tree) -> Option<(EdgeId, EdgeId)> {
    FragmentState::new(graph, tree).improving_swap(graph, tree)
}

/// Arena index of a [`FragRecord`]. Slots `0..n` hold the level-0 singletons (slot `v`
/// is node `v`); higher-level fragments take any free slot.
type Slot = u32;

/// `parent` of a final-level fragment, and of a fragment a repair created under a new
/// identity (its old group is reached through its dissolved predecessors instead).
const NO_SLOT: Slot = Slot::MAX;

/// `level` of a dissolved record. Its slot is recycled only once the repair that
/// dissolved it has finished, so a stale reference never names a live fragment.
const DEAD: u32 = u32::MAX;

/// The first level whose fragments keep edge sets. Below it fragments are singletons
/// or a handful of nodes, whose minima a scan of their members' adjacency finds for
/// less than the sets would cost to keep: nearly every edge crosses between two
/// level-1 fragments, so level 1 would hold the most entries of any level.
const SET_LEVEL: usize = 2;

/// The outgoing edges of one fragment from [`SET_LEVEL`] up, split into tree and
/// non-tree edges, each set in Borůvka's `(weight, edge index)` order.
#[derive(Clone, Debug, Default)]
struct OutEdges {
    tree: BTreeSet<(Weight, u32)>,
    cross: BTreeSet<(Weight, u32)>,
}

impl OutEdges {
    fn set(&mut self, tree: bool) -> &mut BTreeSet<(Weight, u32)> {
        if tree {
            &mut self.tree
        } else {
            &mut self.cross
        }
    }
}

fn min_node(a: Option<NodeId>, b: Option<NodeId>) -> Option<NodeId> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// One Borůvka fragment of one level. Fragments form a hierarchy: a level-`i` fragment
/// is the union of its `constituents` one level down and merges into `parent` one
/// level up, so a fragment's members are found by descending its constituents — no
/// member list is stored. Besides its recorded (chosen) edge and its true minimum
/// outgoing edge in the whole graph, a fragment carries the §VI potential in
/// aggregate form:
///
/// * `agree` — the recorded edge is the true minimum;
/// * `uncovered` — its members whose fragments at every lower level agree (at level 0
///   the node itself; above, the sum over its *agreeing* constituents);
/// * `min_uncovered` — the smallest such member.
///
/// A node `x` has `φ_x = i` exactly when it is an uncovered member of a disagreeing
/// level-`i` fragment, so `Σ_x φ_x` is the sum, over levels, of the `uncovered` counts
/// of agreeing fragments.
///
/// Node and edge indices are stored in 32 bits ([`NONE`] for `None`): records are
/// most of the state's memory.
#[derive(Clone, Debug)]
struct FragRecord {
    /// Smallest member identity (the fragment identity stored in the labels).
    ident: Ident,
    constituents: Vec<Slot>,
    level: u32,
    /// The member carrying `ident`.
    rep: u32,
    parent: Slot,
    size: u32,
    chosen: u32,
    true_min: u32,
    uncovered: u32,
    min_uncovered: u32,
    agree: bool,
    /// The repair that last rebuilt this fragment's membership (0: none).
    rebuilt_in: u32,
    /// The merge step that last pulled this fragment into its scope, and its index
    /// there (0: none).
    scoped_in: u32,
    scope_index: u32,
    /// The merge step that last pulled in this fragment's constituents (0: none).
    expanded_in: u32,
    /// From [`SET_LEVEL`] up: the outgoing edges.
    out: Option<Box<OutEdges>>,
}

/// `None` of a 32-bit index field.
const NONE: u32 = u32::MAX;

fn pack(index: Option<usize>) -> u32 {
    index.map_or(NONE, |i| i as u32)
}

fn unpack(field: u32) -> Option<usize> {
    (field != NONE).then_some(field as usize)
}

impl FragRecord {
    fn new(level: usize, ident: Ident, rep: NodeId, size: usize, chosen: Option<EdgeId>) -> Self {
        FragRecord {
            ident,
            constituents: Vec::new(),
            level: level as u32,
            rep: rep.0 as u32,
            parent: NO_SLOT,
            size: size as u32,
            chosen: pack(chosen.map(EdgeId::index)),
            true_min: NONE,
            // Zero contribution until the first `refresh_potential` registers one.
            uncovered: 0,
            min_uncovered: NONE,
            agree: true,
            rebuilt_in: 0,
            scoped_in: 0,
            scope_index: 0,
            expanded_in: 0,
            out: (level >= SET_LEVEL).then(Box::default),
        }
    }

    fn rep(&self) -> NodeId {
        NodeId(self.rep as usize)
    }

    fn chosen(&self) -> Option<EdgeId> {
        unpack(self.chosen).map(EdgeId)
    }

    fn true_min(&self) -> Option<EdgeId> {
        unpack(self.true_min).map(EdgeId)
    }

    fn min_uncovered(&self) -> Option<NodeId> {
        unpack(self.min_uncovered).map(NodeId)
    }

    /// What this fragment adds to its parent's uncovered count and minimum.
    fn contribution(&self) -> (u32, Option<NodeId>) {
        if self.agree {
            (self.uncovered, self.min_uncovered())
        } else {
            (0, None)
        }
    }
}

/// A graph edge as the state last saw it: the topology repair diffs these records
/// against the mutated graph to find the edges whose set entries moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct EdgeRec {
    weight: Weight,
    u: u32,
    v: u32,
    tree: bool,
}

impl EdgeRec {
    fn of(graph: &Graph, e: EdgeId, tree: bool) -> Self {
        let ed = graph.edge(e);
        EdgeRec {
            weight: ed.weight,
            u: ed.u.0 as u32,
            v: ed.v.0 as u32,
            tree,
        }
    }

    fn ends(&self) -> [NodeId; 2] {
        [NodeId(self.u as usize), NodeId(self.v as usize)]
    }
}

/// The fragments a merge step regrouped, by what happened to them one level up.
#[derive(Default)]
struct MergeOutcome {
    /// Fragments whose membership changed (reused identities and new ones).
    rebuilt: Vec<Slot>,
    /// Fragments that kept exactly their members but changed constituents.
    recomposed: Vec<Slot>,
    /// Old fragments every member of which moved elsewhere.
    emptied: Vec<Slot>,
}

/// What the merge step does with one regrouped set of constituents.
enum Plan {
    /// The old parent of every constituent, with exactly these constituents.
    Keep,
    /// An old fragment that keeps exactly its members under new constituents.
    Recompose(Slot),
    /// A fragment with a new member set: the old fragment with its identity (if any)
    /// and the blocks of members that move in, each with the fragment it leaves.
    Rebuild {
        target: Option<Slot>,
        head: Slot,
        moving: Vec<(Slot, Option<Slot>)>,
    },
}

/// Persistent Borůvka-trace state for one spanning tree, supporting *incremental* label
/// repair after a loop-free switch `T ← T + e − f` (the composition engine's MST
/// family) or a topology mutation, at a cost proportional to the label entries that
/// change rather than to `n`.
///
/// The fragments of all levels live in one index-based arena of fragment records
/// linked parent ↔ constituents; a per-level identity index resolves a label's
/// fragment field to its record. From level 2 up every fragment keeps its outgoing
/// edges, split into tree and non-tree edges, in two ordered sets, so its chosen edge
/// and true minimum are one lookup each; fragments of levels 0 and 1 (singletons and a
/// handful of nodes) scan their members' weight-ordered adjacency instead. The
/// potential is kept per fragment and per level: each fragment's agreement bit and
/// its uncovered members (those whose lower-level fragments all agree), each level's
/// uncovered total and violating fragments. A flip of one fragment's agreement updates
/// its O(k) ancestors, [`potential`] reads `k` totals and [`improving_swap`] the first
/// violating fragment of the lowest level.
///
/// A repair ([`apply_swap`], [`apply_topology`]) walks the levels once. At each level
/// it re-chooses only the fragments containing a dirty endpoint or rebuilt by the
/// level below, and regroups only the merge components those can reach. A regrouped
/// fragment kept exactly its old members when its constituents' sizes add up to the
/// old fragment's size and all of them lie in it — decided in O(1) per constituent the
/// repair did not rebuild, from the labels of one member. Label entries are rewritten
/// by descending only into the sub-fragments whose entries change, and members that
/// change fragment update the two edge sets involved one incident edge at a time.
/// The result is bit-identical to [`FragmentState::new`] on the new instance (pinned
/// by the differential tests), and [`node_visits`] counts the node-level work.
///
/// [`potential`]: FragmentState::potential
/// [`improving_swap`]: FragmentState::improving_swap
/// [`apply_swap`]: FragmentState::apply_swap
/// [`apply_topology`]: FragmentState::apply_topology
/// [`node_visits`]: FragmentState::node_visits
pub struct FragmentState {
    labels: Vec<FragmentLabel>,
    frags: Vec<FragRecord>,
    /// Per level: fragment identity → slot. `slots.len()` is the trace length.
    slots: Vec<HashMap<Ident, Slot>>,
    free: Vec<Slot>,
    /// Slots dissolved by the running repair, recycled when it ends.
    released: Vec<Slot>,
    edges: Vec<EdgeRec>,
    /// Per level: the uncovered members of its agreeing fragments (`Σ_x φ_x` is the
    /// sum over levels).
    uncovered_total: Vec<u64>,
    /// Per level: the disagreeing fragments with uncovered members, by smallest
    /// uncovered member.
    violating: Vec<BTreeSet<(NodeId, Slot)>>,
    /// Number of the running (or last) repair.
    epoch: u32,
    /// Number of the running (or last) merge step.
    merges: u32,
    /// Members of the block being moved.
    in_block: NodeMarks,
    visits: u64,
    /// Nodes whose labels the repairs rewrote since the last
    /// [`FragmentState::drain_written`], each once (`logged` holds them).
    written: Vec<NodeId>,
    logged: NodeMarks,
}

impl FragmentState {
    /// Builds the state from scratch (the `Relabel::FromScratch` reference prover),
    /// sequentially. See [`FragmentState::new_with_pool`] for the parallel variant.
    ///
    /// # Panics
    ///
    /// Panics if `tree` is not a spanning tree of `graph`.
    pub fn new(graph: &Graph, tree: &Tree) -> Self {
        FragmentState::new_with_pool(graph, tree, &ThreadPool::sequential())
    }

    /// Builds the state from scratch, running the per-level true-minimum-outgoing-edge
    /// scans (one `O(m)` pass per Borůvka level, mutually independent given the
    /// traces) on `pool`. The result is bit-identical to [`FragmentState::new`] at any
    /// pool width: levels are computed independently and merged in level order.
    ///
    /// # Panics
    ///
    /// Panics if `tree` is not a spanning tree of `graph`.
    pub fn new_with_pool(graph: &Graph, tree: &Tree, pool: &ThreadPool) -> Self {
        let run = boruvka_on_tree(graph, tree)
            .expect("fragment labels need a spanning tree of the graph");
        let labels = labels_from_traces(graph, &run);
        let n = graph.node_count();
        let k = run.levels;
        assert!(
            graph.edge_count() <= u32::MAX as usize && 4 * n < NO_SLOT as usize,
            "fragment state indexes edges and fragments with 32 bits"
        );
        let mut is_tree = vec![false; graph.edge_count()];
        for e in tree.edge_ids_in(graph) {
            is_tree[e.index()] = true;
        }
        let edges: Vec<EdgeRec> = graph
            .edge_ids()
            .map(|e| EdgeRec::of(graph, e, is_tree[e.index()]))
            .collect();
        let mut frags: Vec<FragRecord> = Vec::with_capacity(n);
        let mut slots: Vec<HashMap<Ident, Slot>> = vec![HashMap::new(); k];
        for v in graph.nodes() {
            let chosen = run.traces[v.0].chosen_edge[0];
            frags.push(FragRecord::new(0, graph.ident(v), v, 1, chosen));
            slots[0].insert(graph.ident(v), v.0 as Slot);
        }
        // `below[v]` is v's fragment one level down while level `level` is built.
        let mut below: Vec<Slot> = (0..n as Slot).collect();
        for level in 1..k {
            let mut here = vec![NO_SLOT; n];
            for v in graph.nodes() {
                let trace = &run.traces[v.0];
                let ident = trace.fragment[level];
                let slot = *slots[level].entry(ident).or_insert_with(|| {
                    frags.push(FragRecord::new(
                        level,
                        ident,
                        v,
                        0,
                        trace.chosen_edge[level],
                    ));
                    (frags.len() - 1) as Slot
                });
                here[v.0] = slot;
                let rec = &mut frags[slot as usize];
                rec.size += 1;
                if graph.ident(v) == ident {
                    rec.rep = v.0 as u32;
                }
                let c = below[v.0];
                if frags[c as usize].parent == NO_SLOT {
                    frags[c as usize].parent = slot;
                    frags[slot as usize].constituents.push(c);
                }
            }
            for (i, rec) in edges.iter().enumerate().filter(|_| level >= SET_LEVEL) {
                let (a, b) = (here[rec.u as usize], here[rec.v as usize]);
                if a != b {
                    for slot in [a, b] {
                        let out = frags[slot as usize].out.as_mut().expect("set level");
                        out.set(rec.tree).insert((rec.weight, i as u32));
                    }
                }
            }
            below = here;
        }
        frags.shrink_to_fit();
        let mut state = FragmentState {
            labels,
            frags,
            slots,
            free: Vec::new(),
            released: Vec::new(),
            edges,
            uncovered_total: vec![0; k],
            violating: vec![BTreeSet::new(); k],
            epoch: 0,
            merges: 0,
            in_block: NodeMarks::new(n),
            visits: 0,
            written: Vec::new(),
            logged: NodeMarks::new(n),
        };
        let true_min: Vec<HashMap<Ident, EdgeId>> = pool
            .run(k, |_, range| {
                range
                    .map(|i| state.true_min_level(graph, i))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        for (level, minima) in true_min.into_iter().enumerate() {
            for (ident, e) in minima {
                let slot = state.slots[level][&ident];
                state.frags[slot as usize].true_min = e.index() as u32;
            }
        }
        // Slots were allocated level by level, so every fragment's constituents are
        // settled before the fragment itself is counted.
        for slot in 0..state.frags.len() {
            state.refresh_potential(slot as Slot, true);
        }
        state
    }

    /// The maintained labels (always equal to `assign_fragment_labels` on the current
    /// tree).
    pub fn labels(&self) -> &[FragmentLabel] {
        &self.labels
    }

    /// Mutable access to the labels, for **fault injection only**: after mutating a
    /// label the state is inconsistent until the owner detects the corruption (via
    /// [`FragmentScheme`]) and rebuilds the state from scratch.
    pub fn labels_mut(&mut self) -> &mut [FragmentLabel] {
        &mut self.labels
    }

    /// The nodes whose labels the repairs ([`FragmentState::apply_swap`],
    /// [`FragmentState::apply_topology`]) rewrote since the last call, each once: what
    /// a consumer of the labels must re-read.
    pub fn drain_written(&mut self) -> std::vec::Drain<'_, NodeId> {
        self.logged.clear();
        self.written.drain(..)
    }

    /// Logs a label write of `x` for [`FragmentState::drain_written`].
    fn log_written(&mut self, x: NodeId) {
        if self.logged.insert(x) {
            self.written.push(x);
        }
    }

    /// Number of Borůvka levels of the current trace.
    pub fn level_count(&self) -> usize {
        self.slots.len()
    }

    /// Node-level work of every repair since construction: node ids reached by
    /// descending constituents (members enumerated, and the one member whose label
    /// stands for a sub-fragment), nodes whose adjacency was scanned, and level-0
    /// fragments pulled into a merge. The deterministic counterpart of repair time,
    /// compared with the label entries written (R2 of `report reference`).
    pub fn node_visits(&self) -> u64 {
        self.visits
    }

    /// `φ(T) = k·n − Σ_x φ_x(T)`; zero iff the current tree is an MST.
    pub fn potential(&self) -> u64 {
        (self.level_count() * self.labels.len()) as u64 - self.uncovered_total.iter().sum::<u64>()
    }

    /// The edge `e` of the improving swap the potential prescribes: the true minimum
    /// outgoing edge of the violating fragment that holds the node of smallest `φ_x`
    /// (smallest `NodeId` among ties). `None` iff `φ(T) = 0`. O(k).
    pub fn improving_edge(&self) -> Option<EdgeId> {
        let &(_, slot) = self.violating.iter().find_map(BTreeSet::first)?;
        let e = self.frags[slot as usize]
            .true_min()
            .expect("a violating fragment has an outgoing edge");
        // A recorded edge that is wrong while the true minimum is already a tree edge
        // is a discrepancy in the labels, not the tree (unreachable for prover-exact
        // state, kept for parity with the label-based definition).
        (!self.edges[e.index()].tree).then_some(e)
    }

    /// The improving swap prescribed by the potential on the current tree (which must be
    /// the tree the state was built/repaired for): [`FragmentState::improving_edge`]
    /// and the heaviest tree edge on its fundamental cycle. `None` iff `φ(T) = 0`.
    pub fn improving_swap(&self, graph: &Graph, tree: &Tree) -> Option<(EdgeId, EdgeId)> {
        let e = self.improving_edge()?;
        Some((e, stst_graph::mst::heaviest_cycle_edge(graph, tree, e)))
    }

    /// True minimum-weight outgoing edge (over all graph edges) of every fragment of
    /// level `i`, computed from scratch in one edge scan.
    fn true_min_level(&self, graph: &Graph, i: usize) -> HashMap<Ident, EdgeId> {
        let mut best: HashMap<Ident, EdgeId> = HashMap::new();
        for e in graph.edge_ids() {
            let ed = graph.edge(e);
            let fu = self.labels[ed.u.0].levels[i].fragment;
            let fv = self.labels[ed.v.0].levels[i].fragment;
            if fu == fv {
                continue;
            }
            for f in [fu, fv] {
                let slot = best.entry(f).or_insert(e);
                if (graph.weight(e), e.index()) < (graph.weight(*slot), slot.index()) {
                    *slot = e;
                }
            }
        }
        best
    }

    /// The fragment of `x` at `level`, as its current label names it.
    fn slot_at(&self, level: usize, x: NodeId) -> Slot {
        if level == 0 {
            return x.0 as Slot;
        }
        self.slots[level][&self.labels[x.0].levels[level].fragment]
    }

    fn is_live_at(&self, slot: Slot, level: usize) -> bool {
        self.frags[slot as usize].level == level as u32
    }

    /// The minimum outgoing tree edge (the edge Borůvka records) and the minimum
    /// outgoing edge overall of one fragment, under the exact `(weight, edge index)`
    /// order. From [`SET_LEVEL`] up these are the first entries of the fragment's two
    /// edge sets. Below, each member's adjacency is walked in the CSR's weight order,
    /// stopping once the remaining edges are heavier than the lightest tree edge found.
    fn outgoing_minima(&mut self, graph: &Graph, slot: Slot) -> (Option<EdgeId>, Option<EdgeId>) {
        let (level, ident) = {
            let rec = &self.frags[slot as usize];
            (rec.level as usize, rec.ident)
        };
        if level < SET_LEVEL {
            let mut chosen: Option<(Weight, EdgeId)> = None;
            let mut lightest: Option<(Weight, EdgeId)> = None;
            for v in self.members(slot) {
                let nbrs = graph.neighbors(v);
                for &k in graph.neighbor_order_by_weight(v) {
                    let (w, e) = nbrs[k as usize];
                    let weight = graph.weight(e);
                    if chosen.is_some_and(|(cw, _)| weight > cw) {
                        break; // ascending order: nothing later in this list can win
                    }
                    if self.labels[w.0].levels[level].fragment == ident {
                        continue;
                    }
                    let beats = |best: Option<(Weight, EdgeId)>| {
                        best.is_none_or(|(bw, be)| (weight, e.index()) < (bw, be.index()))
                    };
                    if beats(lightest) {
                        lightest = Some((weight, e));
                    }
                    if self.edges[e.index()].tree && beats(chosen) {
                        chosen = Some((weight, e));
                    }
                }
            }
            return (chosen.map(|(_, e)| e), lightest.map(|(_, e)| e));
        }
        let out = self.frags[slot as usize].out.as_ref().expect("set level");
        let tree = out.tree.first().copied();
        let any = match (tree, out.cross.first().copied()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let edge = |(_, e): (Weight, u32)| EdgeId(e as usize);
        (tree.map(edge), any.map(edge))
    }

    /// Re-derives one fragment's agreement bit — and, when `recount`, its uncovered
    /// count and minimum from its constituents — and re-registers it with its level's
    /// total and violating set. Returns whether its contribution to its parent changed.
    fn refresh_potential(&mut self, slot: Slot, recount: bool) -> bool {
        let rec = &self.frags[slot as usize];
        let (uncovered, min_uncovered) = match (recount, rec.level) {
            (true, 0) => (1, Some(rec.rep())),
            (true, _) => rec.constituents.iter().fold((0, None), |(u, m), &c| {
                let (cu, cm) = self.frags[c as usize].contribution();
                (u + cu, min_node(m, cm))
            }),
            (false, _) => (rec.uncovered, rec.min_uncovered()),
        };
        let min_uncovered = pack(min_uncovered.map(|x| x.0));
        let agree = rec.chosen == rec.true_min;
        if (agree, uncovered, min_uncovered) == (rec.agree, rec.uncovered, rec.min_uncovered) {
            return false;
        }
        let before = rec.contribution();
        self.register(slot, false);
        let rec = &mut self.frags[slot as usize];
        rec.agree = agree;
        rec.uncovered = uncovered;
        rec.min_uncovered = min_uncovered;
        let after = rec.contribution();
        self.register(slot, true);
        before != after
    }

    /// Adds (or removes) one fragment's potential aggregates to (from) its level.
    fn register(&mut self, slot: Slot, add: bool) {
        let rec = &self.frags[slot as usize];
        let level = rec.level as usize;
        if rec.agree {
            let total = &mut self.uncovered_total[level];
            if add {
                *total += rec.uncovered as u64;
            } else {
                *total -= rec.uncovered as u64;
            }
        } else if let Some(min) = rec.min_uncovered() {
            let key = (min, slot);
            if add {
                self.violating[level].insert(key);
            } else {
                self.violating[level].remove(&key);
            }
        }
    }

    /// One of a fragment's two outgoing-edge sets.
    fn out_set(&mut self, slot: Slot, tree: bool) -> &mut BTreeSet<(Weight, u32)> {
        self.frags[slot as usize]
            .out
            .as_mut()
            .expect("fragments from SET_LEVEL up keep edge sets")
            .set(tree)
    }

    /// Inserts (or removes) the set entries of edge `e`, as recorded in `self.edges`,
    /// at every level from [`SET_LEVEL`] up where its endpoints lie in different
    /// fragments.
    fn set_edge_keys(&mut self, e: EdgeId, insert: bool) {
        let rec = self.edges[e.index()];
        let key = (rec.weight, e.index() as u32);
        let [u, v] = rec.ends();
        for level in SET_LEVEL..self.level_count() {
            let (a, b) = (self.slot_at(level, u), self.slot_at(level, v));
            if a == b {
                break; // fragments nest: the edge is internal at every higher level
            }
            for slot in [a, b] {
                let set = self.out_set(slot, rec.tree);
                if insert {
                    set.insert(key);
                } else {
                    set.remove(&key);
                }
            }
        }
    }

    /// The maximal sub-fragments of `slot` whose membership the running repair did not
    /// rebuild: each lay inside one old fragment at every level, so its members share
    /// every label entry above its own level.
    fn blocks(&self, slot: Slot) -> Vec<Slot> {
        let mut out = Vec::new();
        let mut stack = vec![slot];
        while let Some(s) = stack.pop() {
            let rec = &self.frags[s as usize];
            if rec.rebuilt_in == self.epoch {
                stack.extend_from_slice(&rec.constituents);
            } else {
                out.push(s);
            }
        }
        out
    }

    /// The members of one fragment, by descending its constituents.
    fn members(&mut self, slot: Slot) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.frags[slot as usize].size as usize);
        let mut stack = vec![slot];
        while let Some(s) = stack.pop() {
            let rec = &self.frags[s as usize];
            if rec.level == 0 {
                out.push(rec.rep());
            } else {
                stack.extend_from_slice(&rec.constituents);
            }
        }
        self.visits += out.len() as u64;
        out
    }

    /// The level-`level` label entry shared by every member of a block, read off one.
    fn block_entry(&mut self, block: Slot, level: usize) -> FragmentLevel {
        self.visits += 1;
        self.labels[self.frags[block as usize].rep().0].levels[level]
    }

    /// Rewrites the level-`level` outgoing entry to `chosen`'s triple for every member
    /// of `slot` whose entry differs, testing one member per block. Returns the entries
    /// written.
    fn write_outgoing(
        &mut self,
        graph: &Graph,
        slot: Slot,
        level: usize,
        chosen: Option<EdgeId>,
    ) -> u64 {
        let triple = chosen.map(|e| outgoing_triple(graph, e));
        let mut written = 0;
        for block in self.blocks(slot) {
            if self.block_entry(block, level).outgoing == triple {
                continue;
            }
            for m in self.members(block) {
                self.labels[m.0].levels[level].outgoing = triple;
                self.log_written(m);
                written += 1;
            }
        }
        written
    }

    /// Moves every member of `block` into the level-`level` fragment `to` from `from`
    /// (`None` while that level is being created), rewriting (or appending) their label
    /// entries, and returns the entries written. From [`SET_LEVEL`] up, edges inside
    /// the block stay internal and every other incident edge updates the edge sets of
    /// `from` and `to` only: it turns internal when the neighbour is in `to`, starts
    /// crossing when the neighbour stays in `from`, and otherwise changes which of the
    /// two it leaves. When `from` is about to be dissolved (`from_stays` false), its
    /// sets are left as they are: they are dropped with it.
    fn move_block(
        &mut self,
        graph: &Graph,
        level: usize,
        block: Slot,
        (from, from_stays): (Option<Slot>, bool),
        to: Slot,
    ) -> u64 {
        let members = self.members(block);
        let to_ident = self.frags[to as usize].ident;
        if level >= SET_LEVEL {
            self.visits += members.len() as u64;
            let from_ident = from.map(|s| self.frags[s as usize].ident);
            let kept = from.filter(|_| from_stays);
            self.in_block.clear();
            for &x in &members {
                self.in_block.insert(x);
            }
            for &x in &members {
                for &(y, e) in graph.neighbors(x) {
                    if self.in_block.contains(y) {
                        continue;
                    }
                    let neighbour = self.labels[y.0].levels.get(level).map(|l| l.fragment);
                    let key = (graph.weight(e), e.index() as u32);
                    let tree = self.edges[e.index()].tree;
                    if neighbour == Some(to_ident) {
                        self.out_set(to, tree).remove(&key);
                        if let Some(a) = kept {
                            self.out_set(a, tree).remove(&key);
                        }
                    } else if let Some(a) = kept.filter(|_| neighbour == from_ident) {
                        self.out_set(a, tree).insert(key);
                        self.out_set(to, tree).insert(key);
                    } else {
                        if let Some(a) = kept {
                            self.out_set(a, tree).remove(&key);
                        }
                        self.out_set(to, tree).insert(key);
                    }
                }
            }
        }
        for &x in &members {
            self.log_written(x);
            let label = &mut self.labels[x.0];
            if label.levels.len() == level {
                label.levels.push(FragmentLevel {
                    fragment: to_ident,
                    outgoing: None,
                });
            } else {
                label.levels[level].fragment = to_ident;
            }
        }
        if let Some(a) = from {
            self.frags[a as usize].size -= members.len() as u32;
        }
        self.frags[to as usize].size += members.len() as u32;
        members.len() as u64
    }

    /// A fresh record at `level`, registered in the identity index.
    fn alloc(&mut self, level: usize, ident: Ident, rep: NodeId) -> Slot {
        let rec = FragRecord::new(level, ident, rep, 0, None);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.frags[slot as usize] = rec;
                slot
            }
            None => {
                self.frags.push(rec);
                (self.frags.len() - 1) as Slot
            }
        };
        self.slots[level].insert(ident, slot);
        slot
    }

    /// Removes a fragment: its potential aggregates, its identity, its edge sets and
    /// its record.
    fn dissolve(&mut self, slot: Slot) {
        self.register(slot, false);
        let rec = &mut self.frags[slot as usize];
        self.slots[rec.level as usize].remove(&rec.ident);
        rec.level = DEAD;
        rec.constituents.clear();
        rec.out = None;
        self.released.push(slot);
    }

    /// Incrementally repairs the state for the swap `T ← T + add − remove`, leaving
    /// labels, records and potentials exactly as a from-scratch rebuild on the new tree
    /// would. Returns the number of per-node label entries rewritten (the deterministic
    /// work unit of the incremental-vs-from-scratch comparison).
    ///
    /// # Panics
    ///
    /// Panics if `remove` is not a tree edge or `add` already is one.
    pub fn apply_swap(&mut self, graph: &Graph, add: EdgeId, remove: EdgeId) -> u64 {
        assert!(
            self.edges[remove.index()].tree && !self.edges[add.index()].tree,
            "apply_swap needs a non-tree edge to add and a tree edge to remove"
        );
        // A swap changes only which set the two edges sit in; every fragment's true
        // minimum over both sets is unchanged until memberships move.
        for (e, tree) in [(add, true), (remove, false)] {
            self.set_edge_keys(e, false);
            self.edges[e.index()].tree = tree;
            self.set_edge_keys(e, true);
        }
        let add_edge = graph.edge(add);
        let remove_edge = graph.edge(remove);
        let endpoints = [add_edge.u, add_edge.v, remove_edge.u, remove_edge.v];
        self.repair(graph, &endpoints, false)
    }

    /// Incrementally repairs the state after a **topology mutation** of the underlying
    /// graph (edges added/removed/re-weighted, node set unchanged): `tree` is the
    /// already-repaired spanning tree of the mutated graph and `dirty` must hold both
    /// endpoints of every changed edge — graph-mutated edges, edges whose dense index
    /// was recycled by a removal, and edges that entered or left the tree (see
    /// `stst-graph::mutation`). Only the edges incident to `dirty` (and the records past
    /// the new edge count) are diffed against the mutated graph, their tree membership
    /// read off `tree`'s parent pointers; the set entries of every changed edge are
    /// moved under the old memberships, and the fragments containing an endpoint of a
    /// changed edge seed the same level cascade a swap runs, which leaves the state
    /// bit-identical to a from-scratch rebuild on the mutated instance.
    ///
    /// Returns the per-node label entries rewritten.
    ///
    /// # Panics
    ///
    /// Panics if the node set changed (node churn requires a from-scratch rebuild: the
    /// dense index space every label is keyed by was remapped).
    pub fn apply_topology(&mut self, graph: &Graph, tree: &Tree, dirty: &[NodeId]) -> u64 {
        assert_eq!(
            self.labels.len(),
            graph.node_count(),
            "node churn remaps the index space: rebuild the fragment state from scratch"
        );
        assert!(graph.edge_count() <= u32::MAX as usize);
        let m = graph.edge_count();
        let record = |i: usize| {
            let ed = graph.edge(EdgeId(i));
            let tree_edge = tree.parent(ed.u) == Some(ed.v) || tree.parent(ed.v) == Some(ed.u);
            EdgeRec::of(graph, EdgeId(i), tree_edge)
        };
        let mut changed: Vec<usize> = dirty
            .iter()
            .flat_map(|&x| graph.neighbors(x).iter().map(|&(_, e)| e.index()))
            .chain(m..self.edges.len())
            .collect();
        changed.sort_unstable();
        changed.dedup();
        changed.retain(|&i| self.edges.get(i).copied() != (i < m).then(|| record(i)));
        let mut endpoints = dirty.to_vec();
        for &i in &changed {
            if let Some(old) = self.edges.get(i).copied() {
                endpoints.extend(old.ends());
                self.set_edge_keys(EdgeId(i), false);
            }
        }
        self.edges.truncate(m);
        for i in changed.into_iter().filter(|&i| i < m) {
            let rec = record(i);
            if i < self.edges.len() {
                self.edges[i] = rec;
            } else {
                self.edges.push(rec);
            }
            endpoints.extend(rec.ends());
            self.set_edge_keys(EdgeId(i), true);
        }
        assert_eq!(self.edges.len(), m, "every added edge has a dirty endpoint");
        endpoints.sort_unstable();
        endpoints.dedup();
        self.repair(graph, &endpoints, true)
    }

    /// The level cascade shared by [`FragmentState::apply_swap`] and
    /// [`FragmentState::apply_topology`]. Per level: dissolve the fragments the merge
    /// below emptied, recount the aggregates of regrouped fragments and of parents
    /// whose constituents' contributions changed, re-choose the fragments rebuilt by
    /// the level below or holding a dirty endpoint (rewriting the outgoing entries that
    /// change), and regroup what those can reach. `topology` marks a changed edge set:
    /// every re-chosen fragment then seeds the merge, since a recycled edge index can
    /// keep its number while its endpoints move.
    fn repair(&mut self, graph: &Graph, endpoints: &[NodeId], topology: bool) -> u64 {
        if self.epoch == u32::MAX {
            self.frags.iter_mut().for_each(|rec| rec.rebuilt_in = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let old_level_count = self.level_count();
        let mut writes = 0u64;
        let mut rebuilt: Vec<Slot> = Vec::new();
        let mut recount: Vec<Slot> = Vec::new();
        let mut emptied: Vec<Slot> = Vec::new();
        let mut level = 0usize;
        loop {
            // Old parents of the fragments dissolved here lost a constituent, so the
            // merge below must regroup them (closure seeds).
            let mut stale_parents: Vec<Slot> = Vec::new();
            for slot in emptied.drain(..) {
                let parent = self.frags[slot as usize].parent;
                if parent != NO_SLOT {
                    stale_parents.push(parent);
                }
                self.dissolve(slot);
            }
            // Fragments whose contribution to their parent changed.
            let mut moved: Vec<Slot> = Vec::new();
            recount.sort_unstable();
            recount.dedup();
            for &slot in &recount {
                if self.is_live_at(slot, level) && self.refresh_potential(slot, true) {
                    moved.push(slot);
                }
            }
            let mut rechoose = rebuilt.clone();
            rechoose.extend(endpoints.iter().map(|&x| self.slot_at(level, x)));
            rechoose.sort_unstable();
            rechoose.dedup();
            let mut seeds: Vec<Slot> = Vec::new();
            for &slot in &rechoose {
                let (chosen, true_min) = self.outgoing_minima(graph, slot);
                let rec = &self.frags[slot as usize];
                if rec.rebuilt_in == self.epoch || topology || chosen != rec.chosen() {
                    seeds.push(slot);
                    writes += self.write_outgoing(graph, slot, level, chosen);
                }
                let rec = &mut self.frags[slot as usize];
                rec.chosen = pack(chosen.map(EdgeId::index));
                rec.true_min = pack(true_min.map(EdgeId::index));
                if self.refresh_potential(slot, false) {
                    moved.push(slot);
                }
            }
            if self.slots[level].len() == 1 {
                writes += self.finalize_levels(level + 1, old_level_count);
                break;
            }
            // When no merge input changed — the fragment set and every chosen edge are
            // what they were — the grouping is unchanged and the pass is skipped.
            let outcome = if seeds.is_empty() && stale_parents.is_empty() {
                MergeOutcome::default()
            } else {
                self.merge_level(graph, level, &seeds, &stale_parents, &mut writes)
            };
            recount = outcome.rebuilt.clone();
            recount.extend(&outcome.recomposed);
            recount.extend(
                moved
                    .iter()
                    .map(|&s| self.frags[s as usize].parent)
                    .filter(|&p| p != NO_SLOT),
            );
            rebuilt = outcome.rebuilt;
            emptied = outcome.emptied;
            level += 1;
        }
        self.free.append(&mut self.released);
        writes
    }

    /// The scope of one merge step: the seeds, the full old groups (constituents of
    /// their parents) of every seed and of every fragment the scope reaches, extended
    /// wherever a scoped fragment's chosen edge leads out of the scope. Groups outside
    /// keep their recorded grouping verbatim, which is sound because (a) their own
    /// links are unchanged, and (b) a link *into* the scope from an unchanged fragment
    /// implies it already shared an old group with its target, so the closure pulled
    /// it in.
    fn merge_scope(
        &mut self,
        graph: &Graph,
        level: usize,
        seeds: &[Slot],
        stale_parents: &[Slot],
    ) -> Vec<Slot> {
        let merge = self.merges;
        let mut scope: Vec<Slot> = Vec::new();
        let mut parent_queue: Vec<Slot> = stale_parents.to_vec();
        let mut frontier: Vec<Slot> = Vec::new();
        let enter = |frags: &mut [FragRecord], scope: &mut Vec<Slot>, f: Slot| {
            let rec = &mut frags[f as usize];
            if rec.level != level as u32 || rec.scoped_in == merge {
                return false;
            }
            rec.scoped_in = merge;
            rec.scope_index = scope.len() as u32;
            scope.push(f);
            true
        };
        for &f in seeds {
            if enter(&mut self.frags, &mut scope, f) {
                frontier.push(f);
                parent_queue.push(self.frags[f as usize].parent);
            }
        }
        loop {
            while let Some(p) = parent_queue.pop() {
                if p == NO_SLOT {
                    continue;
                }
                let rec = &mut self.frags[p as usize];
                if rec.level != level as u32 + 1 || rec.expanded_in == merge {
                    continue;
                }
                rec.expanded_in = merge;
                let constituents = std::mem::take(&mut rec.constituents);
                for &c in &constituents {
                    if enter(&mut self.frags, &mut scope, c) {
                        frontier.push(c);
                    }
                }
                self.frags[p as usize].constituents = constituents;
            }
            let Some(f) = frontier.pop() else { break };
            let other = self.partner(graph, level, f);
            if enter(&mut self.frags, &mut scope, other) {
                frontier.push(other);
                parent_queue.push(self.frags[other as usize].parent);
            }
        }
        scope
    }

    /// The fragment across `slot`'s chosen edge.
    fn partner(&self, graph: &Graph, level: usize, slot: Slot) -> Slot {
        let e = self.frags[slot as usize]
            .chosen()
            .expect("a non-final fragment of a spanning tree has an outgoing tree edge");
        let ed = graph.edge(e);
        let (a, b) = (self.slot_at(level, ed.u), self.slot_at(level, ed.v));
        if a == slot {
            b
        } else {
            a
        }
    }

    /// The merge step of one repair level: groups the scope along chosen edges with a
    /// union-find, then, for each group, either keeps it (it is its members' old
    /// parent), recomposes the old parent (same members, new constituents) or rebuilds
    /// (a new member set, under the old fragment with the group's identity if there is
    /// one). The decision reads one member's level-`level + 1` identity per block and
    /// compares sizes; rebuilding moves only the blocks whose identity changes. When
    /// the level count grows, the whole level is regrouped into a new level.
    fn merge_level(
        &mut self,
        graph: &Graph,
        level: usize,
        seeds: &[Slot],
        stale_parents: &[Slot],
        writes: &mut u64,
    ) -> MergeOutcome {
        let growing = level + 1 >= self.level_count();
        if self.merges == u32::MAX {
            for rec in &mut self.frags {
                (rec.scoped_in, rec.expanded_in) = (0, 0);
            }
            self.merges = 0;
        }
        self.merges += 1;
        let scope: Vec<Slot> = if growing {
            let mut all: Vec<Slot> = self.slots[level].values().copied().collect();
            all.sort_unstable();
            for (i, &slot) in all.iter().enumerate() {
                let rec = &mut self.frags[slot as usize];
                rec.scoped_in = self.merges;
                rec.scope_index = i as u32;
            }
            all
        } else {
            self.merge_scope(graph, level, seeds, stale_parents)
        };
        if level == 0 {
            self.visits += scope.len() as u64;
        }
        let mut dsu: Vec<usize> = (0..scope.len()).collect();
        fn find(dsu: &mut [usize], mut x: usize) -> usize {
            while dsu[x] != x {
                dsu[x] = dsu[dsu[x]];
                x = dsu[x];
            }
            x
        }
        for (i, &slot) in scope.iter().enumerate() {
            let other = self.frags[self.partner(graph, level, slot) as usize].scope_index as usize;
            let (a, b) = (find(&mut dsu, i), find(&mut dsu, other));
            if a != b {
                dsu[a] = b;
            }
        }
        let mut group_of = vec![usize::MAX; scope.len()];
        let mut groups: Vec<Vec<Slot>> = Vec::new();
        for (i, &slot) in scope.iter().enumerate() {
            let root = find(&mut dsu, i);
            if group_of[root] == usize::MAX {
                group_of[root] = groups.len();
                groups.push(Vec::new());
            }
            groups[group_of[root]].push(slot);
        }
        if growing {
            self.slots.push(HashMap::new());
            self.uncovered_total.push(0);
            self.violating.push(BTreeSet::new());
        }
        // Decide every group against the old level above before moving anyone: the
        // sizes the decisions compare are the old ones.
        let plans: Vec<Plan> = groups
            .iter()
            .map(|group| self.plan_group(level, group, growing))
            .collect();
        // Old fragments every member of which moves out are dissolved at the next
        // level; their edge sets are not kept up to date meanwhile.
        let mut leaving: HashMap<Slot, u32> = HashMap::new();
        for plan in &plans {
            if let Plan::Rebuild { moving, .. } = plan {
                for &(block, from) in moving {
                    if let Some(from) = from {
                        *leaving.entry(from).or_default() += self.frags[block as usize].size;
                    }
                }
            }
        }
        let mut emptied: Vec<Slot> = leaving
            .iter()
            .filter(|&(&from, &count)| self.frags[from as usize].size == count)
            .map(|(&from, _)| from)
            .collect();
        emptied.sort_unstable();
        let mut outcome = MergeOutcome {
            emptied,
            ..MergeOutcome::default()
        };
        for (group, plan) in groups.into_iter().zip(plans) {
            match plan {
                Plan::Keep => {}
                Plan::Recompose(slot) => {
                    for &c in &group {
                        self.frags[c as usize].parent = slot;
                    }
                    self.frags[slot as usize].constituents = group;
                    outcome.recomposed.push(slot);
                }
                Plan::Rebuild {
                    target,
                    head,
                    moving,
                } => {
                    let slot = target.unwrap_or_else(|| {
                        let head = &self.frags[head as usize];
                        let (ident, rep) = (head.ident, head.rep());
                        self.alloc(level + 1, ident, rep)
                    });
                    for &c in &group {
                        self.frags[c as usize].parent = slot;
                    }
                    let rec = &mut self.frags[slot as usize];
                    rec.constituents = group;
                    rec.rebuilt_in = self.epoch;
                    for (block, from) in moving {
                        let stays =
                            from.is_some_and(|a| outcome.emptied.binary_search(&a).is_err());
                        *writes += self.move_block(graph, level + 1, block, (from, stays), slot);
                    }
                    outcome.rebuilt.push(slot);
                }
            }
        }
        debug_assert!(outcome
            .emptied
            .iter()
            .all(|&s| self.frags[s as usize].size == 0));
        outcome
    }

    /// Decides what one regrouped set of level-`level` fragments becomes one level up.
    fn plan_group(&mut self, level: usize, group: &[Slot], growing: bool) -> Plan {
        let head = *group
            .iter()
            .min_by_key(|&&s| self.frags[s as usize].ident)
            .expect("groups are non-empty");
        let ident = self.frags[head as usize].ident;
        let size: u32 = group.iter().map(|&s| self.frags[s as usize].size).sum();
        if growing {
            let moving = group
                .iter()
                .flat_map(|&c| self.blocks(c))
                .map(|block| (block, None))
                .collect();
            return Plan::Rebuild {
                target: None,
                head,
                moving,
            };
        }
        let parent = self.frags[group[0] as usize].parent;
        let kept = parent != NO_SLOT
            && self.frags[parent as usize].size == size
            && group.iter().all(|&s| {
                let rec = &self.frags[s as usize];
                rec.parent == parent && rec.rebuilt_in != self.epoch
            });
        if kept {
            return Plan::Keep;
        }
        let target = self.slots[level + 1].get(&ident).copied();
        let mut moving = Vec::new();
        for block in group
            .iter()
            .flat_map(|&c| self.blocks(c))
            .collect::<Vec<_>>()
        {
            let from = self.block_entry(block, level + 1).fragment;
            if from != ident {
                moving.push((block, Some(self.slots[level + 1][&from])));
            }
        }
        match target {
            Some(old) if moving.is_empty() && self.frags[old as usize].size == size => {
                Plan::Recompose(old)
            }
            _ => Plan::Rebuild {
                target,
                head,
                moving,
            },
        }
    }

    /// Truncates or confirms the trace length once the repair reached the spanning
    /// fragment at `new_level_count` levels, mirroring the from-scratch run's final
    /// `(fragment, ⊥)` entries. Returns the labels rewritten.
    fn finalize_levels(&mut self, new_level_count: usize, old_level_count: usize) -> u64 {
        let last = new_level_count - 1;
        let final_slot = *self.slots[last]
            .values()
            .next()
            .expect("the final level has one fragment");
        debug_assert!(
            self.frags[final_slot as usize].chosen().is_none(),
            "the spanning fragment has no outgoing edge"
        );
        self.frags[final_slot as usize].parent = NO_SLOT;
        for level in new_level_count..self.level_count() {
            let doomed: Vec<Slot> = self.slots[level].values().copied().collect();
            for slot in doomed {
                self.dissolve(slot);
            }
        }
        self.slots.truncate(new_level_count);
        self.uncovered_total.truncate(new_level_count);
        self.violating.truncate(new_level_count);
        if new_level_count == old_level_count {
            return 0;
        }
        let final_ident = self.frags[final_slot as usize].ident;
        self.visits += self.labels.len() as u64;
        // No write is logged here: a shorter trace had several fragments at its new
        // last level, so the cascade already rewrote every label's entry there.
        let mut writes = 0u64;
        for label in &mut self.labels {
            if label.levels.len() != new_level_count {
                label.levels.truncate(new_level_count);
                label.levels[last].fragment = final_ident;
                label.levels[last].outgoing = None;
                writes += 1;
            }
        }
        writes
    }
}

/// The fragment labels as a proof-labeling scheme for MST. Completeness: the labels
/// proved for an MST are accepted. Soundness holds against the two configurations the
/// engine meets — for a non-MST tree its own prover-built labels make some node detect
/// a violating fragment, and labels proved for any other spanning tree are rejected —
/// but not against every adversarial labeling: nothing checks that the nodes sharing a
/// fragment identity are connected in the tree.
///
/// The verifier at `v` checks that the level-0 fragment is `v`'s own identity, that
/// its neighbors agree on the level count and the final fragment, that fragment
/// identities only shrink from level to level, and that each recorded outgoing edge is
/// not beaten by a lighter incident graph edge leaving the fragment — the local part of
/// the Korman–Kutten style verification. It also checks the labels against the parent
/// pointers, which is what rejects labels of another tree. On its parent edge (so
/// every tree edge is checked once, at its child), `v` requires that
///
/// 1. tree neighbors in the same level-`i` fragment record the same outgoing edge;
/// 2. from the first level at which `v` shares its parent's fragment they share every
///    higher level, and the level below records exactly that edge (unordered
///    identities plus weight) in `v`'s label or its parent's.
///
/// Both hold on the Borůvka trace of any spanning tree: fragments are subtrees, so
/// exactly one tree edge joins two fragments that merge, and one of them chose it.
#[derive(Clone, Copy, Debug, Default)]
pub struct FragmentScheme;

impl ProofLabelingScheme for FragmentScheme {
    type Label = FragmentLabel;

    fn name(&self) -> &str {
        "MST fragment (Borůvka trace) labels"
    }

    fn prove(&self, graph: &Graph, tree: &Tree) -> Vec<FragmentLabel> {
        assign_fragment_labels(graph, tree)
    }

    fn verify_at(&self, instance: &Instance<'_>, labels: &[FragmentLabel], v: NodeId) -> bool {
        let graph = instance.graph;
        let own = &labels[v.0].levels;
        let (Some(first), Some(last)) = (own.first(), own.last()) else {
            return false;
        };
        // Level 0 is the singleton fragment `v`; a single fragment spans the tree at
        // the final level, which records no outgoing edge; and the level-(i+1)
        // fragment contains the level-i one, so identities only shrink.
        if first.fragment != graph.ident(v)
            || last.outgoing.is_some()
            || own
                .windows(2)
                .any(|pair| pair[1].fragment > pair[0].fragment)
        {
            return false;
        }
        let parent = instance.parents[v.0];
        let mut parent_edge = None;
        for &(w, e) in graph.neighbors(v) {
            let theirs = &labels[w.0].levels;
            // All nodes agree on the level count and the final fragment.
            if theirs.len() != own.len() || theirs[own.len() - 1].fragment != last.fragment {
                return false;
            }
            // Local optimality: an incident edge leaving the fragment is not lighter
            // than the recorded outgoing edge (what lets some node notice φ(T) > 0).
            let weight = graph.weight(e);
            let beaten = own.iter().zip(theirs).any(|(mine, other)| {
                mine.fragment != other.fragment
                    && mine
                        .outgoing
                        .is_some_and(|(_, _, recorded)| weight < recorded)
            });
            if beaten {
                return false;
            }
            if parent == Some(w) {
                parent_edge = Some((graph.ident(v), graph.ident(w), weight));
            }
        }
        match (parent, parent_edge) {
            (None, _) => true,
            (Some(p), Some(edge)) => consistent_with_parent(own, &labels[p.0].levels, edge),
            // A parent pointer to a non-neighbor names no tree edge.
            (Some(_), None) => false,
        }
    }
}

/// Checks (1) and (2) of [`FragmentScheme`] on the tree edge `(a, b, weight)` from a
/// node with levels `own` to its parent with levels `theirs` (the same length). Each
/// tree edge is checked once, at its child, which covers every pair of tree neighbors.
fn consistent_with_parent(
    own: &[FragmentLevel],
    theirs: &[FragmentLevel],
    (a, b, weight): (Ident, Ident, Weight),
) -> bool {
    let shared = |(mine, other): (&FragmentLevel, &FragmentLevel)| mine.fragment == other.fragment;
    // (1) One fragment records one outgoing edge.
    let levels = || own.iter().zip(theirs);
    if levels().any(|pair| shared(pair) && pair.0.outgoing != pair.1.outgoing) {
        return false;
    }
    // (2) From the first shared level on they share every level, and the level below
    // records the parent edge, in either orientation, in one of the two labels.
    let Some(join) = levels().position(shared) else {
        return false;
    };
    let is_edge = |level: &FragmentLevel| {
        level.outgoing.is_some_and(|(x, y, recorded)| {
            recorded == weight && ((x, y) == (a, b) || (x, y) == (b, a))
        })
    };
    join > 0
        && levels().skip(join).all(shared)
        && (is_edge(&own[join - 1]) || is_edge(&theirs[join - 1]))
}

/// Read-only views of the maintained state for the differential tests: everything is
/// keyed by fragment identity, so two states built along different paths compare equal
/// exactly when they describe the same fragments.
#[cfg(test)]
impl FragmentState {
    /// `φ_x` per node, read off the fragments' agreement bits.
    fn derived_phi(&self) -> Vec<usize> {
        let k = self.level_count();
        (0..self.labels.len())
            .map(|x| {
                (0..k)
                    .find(|&level| !self.frags[self.slot_at(level, NodeId(x)) as usize].agree)
                    .unwrap_or(k)
            })
            .collect()
    }

    /// The per-level true minima, by fragment identity.
    fn true_minima(&self) -> Vec<std::collections::BTreeMap<Ident, Option<EdgeId>>> {
        self.slots
            .iter()
            .map(|level| {
                level
                    .iter()
                    .map(|(&id, &s)| (id, self.frags[s as usize].true_min()))
                    .collect()
            })
            .collect()
    }

    /// Every live fragment's record, aggregates and edge sets, by `(level, identity)`,
    /// after checking that the identity index, the parent links and the sizes agree.
    fn fragment_summaries(&self) -> std::collections::BTreeMap<(usize, Ident), String> {
        let mut out = std::collections::BTreeMap::new();
        for (level, index) in self.slots.iter().enumerate() {
            for (&ident, &slot) in index {
                let rec = &self.frags[slot as usize];
                assert_eq!((rec.level as usize, rec.ident), (level, ident), "index");
                let ident_of = |s: Slot| (s != NO_SLOT).then(|| self.frags[s as usize].ident);
                let mut constituents: Vec<Ident> = rec
                    .constituents
                    .iter()
                    .map(|&c| {
                        assert_eq!(self.frags[c as usize].parent, slot, "parent link");
                        assert_eq!(
                            self.frags[c as usize].level as usize + 1,
                            level,
                            "constituent level"
                        );
                        self.frags[c as usize].ident
                    })
                    .collect();
                constituents.sort_unstable();
                if level > 0 {
                    let sum: u32 = rec
                        .constituents
                        .iter()
                        .map(|&c| self.frags[c as usize].size)
                        .sum();
                    assert_eq!(sum, rec.size, "size");
                }
                let sets = rec.out.as_deref().cloned().unwrap_or_default();
                let tree: Vec<u32> = sets.tree.iter().map(|&(_, e)| e).collect();
                let cross: Vec<u32> = sets.cross.iter().map(|&(_, e)| e).collect();
                out.insert(
                    (level, ident),
                    format!(
                        "size {} rep {:?} parent {:?} constituents {:?} chosen {:?} true_min {:?} \
                         agree {} uncovered {} min_uncovered {:?} tree_out {:?} cross_out {:?}",
                        rec.size,
                        rec.rep(),
                        ident_of(rec.parent),
                        constituents,
                        rec.chosen(),
                        rec.true_min(),
                        rec.agree,
                        rec.uncovered,
                        rec.min_uncovered(),
                        tree,
                        cross
                    ),
                );
            }
        }
        out
    }

    /// Per level: the uncovered total and the violating fragments as `(min uncovered,
    /// identity)`.
    fn level_aggregates(&self) -> Vec<(u64, Vec<(NodeId, Ident)>)> {
        self.uncovered_total
            .iter()
            .zip(&self.violating)
            .map(|(&total, set)| {
                (
                    total,
                    set.iter()
                        .map(|&(x, s)| (x, self.frags[s as usize].ident))
                        .collect(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stst_graph::bfs::bfs_tree;
    use stst_graph::generators;
    use stst_graph::mst::{is_mst, kruskal};

    fn setup(n: usize, seed: u64) -> (Graph, Tree) {
        let g = generators::workload(n, 0.25, seed);
        let t = bfs_tree(&g, g.min_ident_node());
        (g, t)
    }

    /// Asserts that a repaired state describes the same labels, fragments, aggregates,
    /// edge sets and per-level true minima as `fresh`, and derives the same `φ_x`.
    fn assert_same_state(state: &FragmentState, fresh: &FragmentState, what: &str) {
        assert_eq!(state.labels(), fresh.labels(), "{what}: labels");
        assert_eq!(state.derived_phi(), fresh.derived_phi(), "{what}: φ_x");
        assert_eq!(
            state.true_minima(),
            fresh.true_minima(),
            "{what}: true minima"
        );
        assert_eq!(
            state.level_aggregates(),
            fresh.level_aggregates(),
            "{what}: levels"
        );
        assert_eq!(state.edges, fresh.edges, "{what}: edge records");
        let (a, b) = (state.fragment_summaries(), fresh.fragment_summaries());
        for (key, summary) in &b {
            assert_eq!(a.get(key), Some(summary), "{what}: fragment {key:?}");
        }
        assert_eq!(a.len(), b.len(), "{what}: fragment count");
    }

    /// The rule `improving_swap` replaced, computed from the labels alone: `φ_x` is the
    /// first level whose recorded edge differs from a from-scratch true-minimum scan of
    /// `x`'s fragment; the swap starts at the smallest `φ_x`, smallest `NodeId` first.
    /// Returns the potential and the swap.
    fn node_scan_oracle(
        graph: &Graph,
        tree: &Tree,
        labels: &[FragmentLabel],
    ) -> (u64, Option<(EdgeId, EdgeId)>) {
        let k = labels[0].levels.len();
        let minima: Vec<HashMap<Ident, EdgeId>> = (0..k)
            .map(|i| {
                let mut best: HashMap<Ident, EdgeId> = HashMap::new();
                for e in graph.edge_ids() {
                    let ed = graph.edge(e);
                    let (fu, fv) = (
                        labels[ed.u.0].levels[i].fragment,
                        labels[ed.v.0].levels[i].fragment,
                    );
                    if fu != fv {
                        for f in [fu, fv] {
                            let slot = best.entry(f).or_insert(e);
                            if (graph.weight(e), e.index()) < (graph.weight(*slot), slot.index()) {
                                *slot = e;
                            }
                        }
                    }
                }
                best
            })
            .collect();
        let phi: Vec<usize> = graph
            .nodes()
            .map(|x| {
                (0..k)
                    .find(|&i| {
                        let level = labels[x.0].levels[i];
                        let truth = minima[i]
                            .get(&level.fragment)
                            .map(|&e| outgoing_triple(graph, e));
                        truth != level.outgoing
                    })
                    .unwrap_or(k)
            })
            .collect();
        let potential = (k * graph.node_count() - phi.iter().sum::<usize>()) as u64;
        let swap = graph
            .nodes()
            .filter(|x| phi[x.0] < k)
            .min_by_key(|x| (phi[x.0], *x))
            .and_then(|x| {
                let i = phi[x.0];
                let e = minima[i][&labels[x.0].levels[i].fragment];
                let ed = graph.edge(e);
                (!tree.contains_edge(ed.u, ed.v))
                    .then(|| (e, stst_graph::mst::heaviest_cycle_edge(graph, tree, e)))
            });
        (potential, swap)
    }

    /// mst-build's input shape: a sparse random graph with shuffled identities and
    /// distinct random weights.
    fn sparse(n: usize, seed: u64) -> Graph {
        let g = generators::random_sparse(n, n / 2, seed);
        let g = generators::shuffle_idents(&g, seed.wrapping_add(1));
        generators::randomize_weights(&g, seed.wrapping_add(2))
    }

    /// A small deterministic generator (splitmix64) for the random mutation sequences.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }
    }

    /// Soundness against labels of another tree: Kruskal's fragment labels paired with
    /// the BFS tree from the minimum identity (not an MST on any of these graphs) are
    /// rejected by some node. Every label alone is a consistent Borůvka trace, so only
    /// the checks that read the parent pointers can tell.
    #[test]
    fn fragment_labels_of_another_tree_are_rejected() {
        for seed in 0..20 {
            let g = generators::workload(30, 0.2, seed);
            let mst = kruskal(&g).unwrap();
            let bfs = bfs_tree(&g, g.min_ident_node());
            assert!(!is_mst(&g, &bfs), "seed {seed}: the BFS tree is not an MST");
            let labels = FragmentScheme.prove(&g, &mst);
            let mst_instance = Instance::from_tree(&g, &mst);
            assert!(
                FragmentScheme.verify_all(&mst_instance, &labels).accepted(),
                "seed {seed}: the MST's own labels are accepted"
            );
            let outcome = FragmentScheme.verify_all(&Instance::from_tree(&g, &bfs), &labels);
            assert!(
                !outcome.accepted(),
                "seed {seed}: the MST's labels must not certify the BFS tree"
            );
        }
    }

    /// Tree neighbors in one fragment record one outgoing edge: a leaf whose record at
    /// the first level it shares with its parent names a weight-0 phantom edge (which
    /// no incident edge beats, so only that check can object) is rejected.
    #[test]
    fn a_fragment_recording_two_outgoing_edges_is_rejected() {
        let g = generators::workload(30, 0.2, 1);
        let mst = kruskal(&g).unwrap();
        let instance = Instance::from_tree(&g, &mst);
        let mut labels = FragmentScheme.prove(&g, &mst);
        let k = labels[0].levels.len();
        let (x, join) = g
            .nodes()
            .filter(|&v| instance.children(v).is_empty())
            .find_map(|x| {
                let p = mst.parent(x)?;
                let shared =
                    |l: &usize| labels[x.0].levels[*l].fragment == labels[p.0].levels[*l].fragment;
                let join = (0..k).find(shared)?;
                (join + 1 < k).then_some((x, join))
            })
            .expect("a leaf joins its parent's fragment below the final level");
        assert!(FragmentScheme.verify_all(&instance, &labels).accepted());
        let id = g.ident(x);
        labels[x.0].levels[join].outgoing = Some((id, id, 0));
        assert!(!FragmentScheme.verify_all(&instance, &labels).accepted());
    }

    #[test]
    fn potential_is_zero_exactly_on_msts() {
        for seed in 0..6 {
            let (g, t) = setup(20, seed);
            let mst = kruskal(&g).unwrap();
            assert_eq!(
                mst_potential(&g, &mst),
                0,
                "seed {seed}: MST must have φ = 0"
            );
            if !is_mst(&g, &t) {
                assert!(
                    mst_potential(&g, &t) > 0,
                    "seed {seed}: non-MST must have φ > 0"
                );
            }
        }
    }

    #[test]
    fn fragment_guided_local_search_reaches_the_mst() {
        for seed in 0..5 {
            let (g, mut t) = setup(18, seed);
            let opt = kruskal(&g).unwrap().total_weight(&g);
            let mut guard = 0;
            while let Some((e, f)) = fragment_guided_swap(&g, &t) {
                assert!(
                    g.weight(e) < g.weight(f),
                    "swaps strictly decrease the weight"
                );
                t = t.with_swap(&g, e, f);
                guard += 1;
                assert!(guard < 500, "local search must terminate");
            }
            assert_eq!(t.total_weight(&g), opt, "seed {seed}");
            assert!(is_mst(&g, &t));
            assert_eq!(mst_potential(&g, &t), 0);
        }
    }

    #[test]
    fn labels_have_logarithmically_many_levels_and_quadratic_log_bits() {
        let (g, t) = setup(64, 2);
        let ctx = CodecCtx::for_graph(&g);
        let labels = assign_fragment_labels(&g, &t);
        let levels = labels[0].levels.len();
        assert!(
            levels <= 8,
            "64 nodes: at most 7 Borůvka levels, got {levels}"
        );
        let max_bits = labels.iter().map(|l| l.encoded_bits(&ctx)).max().unwrap();
        // O(log² n): generous constant, but far below the O(n log n) of explicit lists.
        assert!(max_bits <= 60 * 8, "labels too large: {max_bits} bits");
    }

    #[test]
    fn codec_round_trips_traces_including_empty_and_garbage_shapes() {
        use stst_runtime::codec::assert_codec_roundtrip;
        let (g, t) = setup(40, 6);
        let ctx = CodecCtx::for_graph(&g);
        for label in assign_fragment_labels(&g, &t) {
            assert_codec_roundtrip(&ctx, &label);
        }
        // The empty trace (a corrupt shape the verifier rejects) and a level whose
        // recorded edge escaped the instance's weight range both round-trip exactly.
        assert_codec_roundtrip(&ctx, &FragmentLabel::default());
        assert_codec_roundtrip(
            &ctx,
            &FragmentLabel {
                levels: vec![
                    FragmentLevel {
                        fragment: u64::MAX,
                        outgoing: Some((u64::MAX, 0, u64::MAX)),
                    },
                    FragmentLevel {
                        fragment: 1,
                        outgoing: None,
                    },
                ],
            },
        );
    }

    #[test]
    fn scheme_completeness_on_msts_and_detection_on_non_msts() {
        for seed in 0..5 {
            let (g, t) = setup(16, seed);
            let mst = kruskal(&g).unwrap();
            assert!(FragmentScheme.accepts_legal(&g, &mst), "seed {seed}");
            if !is_mst(&g, &t) {
                // The prover-built labels of a non-MST tree must alert at least one node.
                let labels = FragmentScheme.prove(&g, &t);
                let outcome = FragmentScheme.verify_all(&Instance::from_tree(&g, &t), &labels);
                assert!(!outcome.accepted(), "seed {seed}: non-MST must be flagged");
            }
        }
    }

    #[test]
    fn incremental_state_matches_from_scratch_across_swap_sequences() {
        // Drive the red-rule local search with an incrementally repaired FragmentState
        // and assert, after every single swap, that labels and potential are
        // bit-identical to a from-scratch rebuild on the new tree.
        for seed in 0..6 {
            let g = generators::workload(26, 0.25, seed);
            let mut t = bfs_tree(&g, g.min_ident_node());
            let mut state = FragmentState::new(&g, &t);
            let mut guard = 0;
            while let Some((e, f)) = state.improving_swap(&g, &t) {
                t = t.with_swap(&g, e, f);
                let written = state.apply_swap(&g, e, f);
                let fresh = FragmentState::new(&g, &t);
                assert_eq!(state.labels(), fresh.labels(), "seed {seed} swap {guard}");
                assert_eq!(
                    state.potential(),
                    fresh.potential(),
                    "seed {seed} swap {guard}"
                );
                assert_same_state(&state, &fresh, &format!("seed {seed} swap {guard}"));
                assert_eq!(
                    state.improving_swap(&g, &t),
                    fresh.improving_swap(&g, &t),
                    "seed {seed} swap {guard}"
                );
                assert!(written > 0, "a swap always rewrites some labels");
                guard += 1;
                assert!(guard < 500, "local search must terminate");
            }
            assert_eq!(state.potential(), 0);
            assert!(is_mst(&g, &t), "seed {seed}");
        }
    }

    #[test]
    fn incremental_repair_touches_a_small_dirty_region() {
        // On a larger sparse instance the per-swap repair must rewrite far fewer labels
        // than the `n · levels` a from-scratch relabeling writes.
        let g = generators::workload(160, 0.05, 9);
        let mut t = bfs_tree(&g, g.min_ident_node());
        let mut state = FragmentState::new(&g, &t);
        let full = (g.node_count() * state.level_count()) as u64;
        let mut total: u64 = 0;
        let mut swaps: u64 = 0;
        while let Some((e, f)) = state.improving_swap(&g, &t) {
            t = t.with_swap(&g, e, f);
            total += state.apply_swap(&g, e, f);
            swaps += 1;
            assert!(swaps < 1000);
        }
        assert!(swaps > 0, "the BFS tree of this workload is not an MST");
        assert!(
            total < swaps * full / 2,
            "incremental repair wrote {total} labels over {swaps} swaps, \
             from-scratch would write {} per swap",
            full
        );
    }

    #[test]
    fn topology_repair_matches_from_scratch_rebuild() {
        // Mutate the graph under a fixed spanning tree (edge removal with EdgeId
        // recycling, weight drift on tree and non-tree edges, edge insertion) and
        // assert after every delta that the endpoint-dirty repair leaves the state
        // bit-identical to a from-scratch rebuild on the mutated instance.
        for seed in 0..5 {
            let mut g = generators::workload(24, 0.3, seed);
            let t = bfs_tree(&g, g.min_ident_node());
            let mut state = FragmentState::new(&g, &t);
            let mut next_weight = g.edges().iter().map(|e| e.weight).max().unwrap() + 1;
            let assert_matches = |state: &FragmentState, g: &Graph, t: &Tree, what: &str| {
                let fresh = FragmentState::new(g, t);
                assert_eq!(state.labels(), fresh.labels(), "seed {seed}: {what}");
                assert_same_state(state, &fresh, &format!("seed {seed}: {what}"));
                assert_eq!(state.potential(), fresh.potential(), "seed {seed}: {what}");
                assert_eq!(
                    state.improving_swap(g, t),
                    fresh.improving_swap(g, t),
                    "seed {seed}: {what}"
                );
            };
            // Remove a non-tree edge (the tree stays valid).
            let non_tree = g
                .edge_ids()
                .find(|&e| {
                    let ed = g.edge(e);
                    !t.contains_edge(ed.u, ed.v)
                })
                .expect("workload graphs have non-tree edges");
            let (u, v) = (g.edge(non_tree).u, g.edge(non_tree).v);
            let outcome = g.remove_edge(u, v);
            state.apply_topology(&g, &t, &outcome.dirty);
            assert_matches(&state, &g, &t, "non-tree edge removal");
            // Drift the weight of a tree edge upward (may flip chosen edges anywhere
            // along the fragment stack of its endpoints).
            let te = t.edge_ids_in(&g)[1];
            let (u, v) = (g.edge(te).u, g.edge(te).v);
            let outcome = g.set_weight(u, v, next_weight);
            next_weight += 1;
            state.apply_topology(&g, &t, &outcome.dirty);
            assert_matches(&state, &g, &t, "tree-edge weight drift");
            // Insert a fresh edge between two non-adjacent nodes.
            let (a, b) = {
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
            let outcome = g.apply_mutations(&[stst_graph::Mutation::AddEdge {
                u: a,
                v: b,
                weight: next_weight,
            }]);
            state.apply_topology(&g, &t, &outcome.dirty);
            assert_matches(&state, &g, &t, "edge insertion");
        }
    }

    #[test]
    fn pooled_prover_is_bit_identical_to_the_sequential_prover() {
        for seed in 0..3 {
            let g = generators::workload(120, 0.06, seed);
            let t = bfs_tree(&g, g.min_ident_node());
            let seq = FragmentState::new(&g, &t);
            for threads in [2usize, 8] {
                let par = FragmentState::new_with_pool(&g, &t, &ThreadPool::new(threads));
                assert_eq!(seq.labels(), par.labels(), "seed {seed}, {threads} threads");
                assert_same_state(&seq, &par, &format!("seed {seed}, {threads} threads"));
                assert_eq!(seq.potential(), par.potential());
                assert_eq!(
                    seq.improving_swap(&g, &t),
                    par.improving_swap(&g, &t),
                    "seed {seed}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn tampering_with_levels_is_detected() {
        let (g, _) = setup(14, 4);
        let mst = kruskal(&g).unwrap();
        let labels = FragmentScheme.prove(&g, &mst);
        // Wrong singleton fragment identity.
        let mut bad = labels.clone();
        bad[3].levels[0].fragment = 999;
        assert!(!FragmentScheme
            .verify_all(&Instance::from_tree(&g, &mst), &bad)
            .accepted());
        // Truncated label (wrong number of levels).
        let mut bad = labels;
        bad[5].levels.pop();
        assert!(!FragmentScheme
            .verify_all(&Instance::from_tree(&g, &mst), &bad)
            .accepted());
    }

    #[test]
    fn improving_swap_and_potential_match_the_node_scan_oracle() {
        // Full local searches on the experiments' workload and on mst-build's input
        // shape; after every swap the maintained potential and swap must equal the
        // node scan over the labels.
        let mut swaps = 0;
        for seed in 0..6 {
            let dense = generators::workload(60, 0.15, seed);
            let dense_tree = bfs_tree(&dense, dense.min_ident_node());
            let sparse_graph = sparse(200, seed + 100);
            let sparse_tree = generators::random_spanning_tree(&sparse_graph, seed);
            for (g, mut t) in [(dense, dense_tree), (sparse_graph, sparse_tree)] {
                let mut state = FragmentState::new(&g, &t);
                loop {
                    let (potential, expected) = node_scan_oracle(&g, &t, state.labels());
                    assert_eq!(state.potential(), potential, "seed {seed} swap {swaps}");
                    let swap = state.improving_swap(&g, &t);
                    assert_eq!(swap, expected, "seed {seed} swap {swaps}");
                    let Some((e, f)) = swap else { break };
                    t = t.with_swap(&g, e, f);
                    state.apply_swap(&g, e, f);
                    swaps += 1;
                    assert!(swaps < 20_000, "local search must terminate");
                }
                assert!(is_mst(&g, &t), "seed {seed}");
            }
        }
        assert!(swaps > 500, "the searches exercise many swaps, got {swaps}");
    }

    #[test]
    fn drained_writes_cover_every_changed_label() {
        // Every label a repair changes is among the nodes `drain_written` returns,
        // through random swaps and weight drift, level-count changes included.
        let mut level_count_changes = 0;
        for seed in 0..6u64 {
            let mut rng = Mix(seed + 7);
            let mut g = sparse(36, seed + 90);
            let mut t = generators::random_spanning_tree(&g, seed);
            let mut state = FragmentState::new(&g, &t);
            let max_weight = g.edge_count() as Weight + 8;
            for step in 0..70 {
                let before = state.labels().to_vec();
                let levels = state.level_count();
                let non_tree: Vec<EdgeId> = g
                    .edge_ids()
                    .filter(|&e| !t.contains_edge(g.edge(e).u, g.edge(e).v))
                    .collect();
                if rng.below(2) == 0 && !non_tree.is_empty() {
                    let e = non_tree[rng.below(non_tree.len())];
                    let cycle = t.fundamental_cycle_tree_edges(&g, e);
                    let f = cycle[rng.below(cycle.len())];
                    t = t.with_swap(&g, e, f);
                    state.apply_swap(&g, e, f);
                } else {
                    let e = *g.edge(EdgeId(rng.below(g.edge_count())));
                    let weight = 1 + rng.below(max_weight as usize) as Weight;
                    let outcome = g.set_weight(e.u, e.v, weight);
                    state.apply_topology(&g, &t, &outcome.dirty);
                }
                let drained: Vec<NodeId> = state.drain_written().collect();
                for v in g.nodes() {
                    if before[v.0] != state.labels()[v.0] {
                        assert!(drained.contains(&v), "seed {seed} step {step}: {v:?}");
                    }
                }
                level_count_changes += usize::from(state.level_count() != levels);
            }
        }
        assert!(level_count_changes > 3, "{level_count_changes}");
    }

    #[test]
    fn random_swap_and_topology_sequences_match_the_prover() {
        // Random swaps (improving or not) interleaved with edge insertions, non-tree
        // edge removals (which recycle edge indices) and weight drift on tree and
        // non-tree edges; after every step the repaired state must equal the prover's.
        let mut level_count_changes = 0;
        let mut steps_by_kind = [0usize; 5];
        for seed in 0..6u64 {
            let mut rng = Mix(seed);
            let mut g = sparse(36, seed + 50);
            let mut t = generators::random_spanning_tree(&g, seed);
            let mut state = FragmentState::new(&g, &t);
            let max_weight = g.edge_count() as Weight + 8;
            for step in 0..70 {
                let levels_before = state.level_count();
                let non_tree: Vec<EdgeId> = g
                    .edge_ids()
                    .filter(|&e| !t.contains_edge(g.edge(e).u, g.edge(e).v))
                    .collect();
                let kind = rng.below(5);
                match kind {
                    0 if !non_tree.is_empty() => {
                        let e = non_tree[rng.below(non_tree.len())];
                        let cycle = t.fundamental_cycle_tree_edges(&g, e);
                        let f = cycle[rng.below(cycle.len())];
                        t = t.with_swap(&g, e, f);
                        state.apply_swap(&g, e, f);
                    }
                    1 => {
                        let (a, b) = (NodeId(rng.below(36)), NodeId(rng.below(36)));
                        if a != b && g.edge_between(a, b).is_none() {
                            let weight = 1 + rng.below(max_weight as usize) as Weight;
                            let outcome = g.apply_mutations(&[stst_graph::Mutation::AddEdge {
                                u: a,
                                v: b,
                                weight,
                            }]);
                            state.apply_topology(&g, &t, &outcome.dirty);
                        }
                    }
                    2 if !non_tree.is_empty() => {
                        let e = non_tree[rng.below(non_tree.len())];
                        let (u, v) = (g.edge(e).u, g.edge(e).v);
                        let outcome = g.remove_edge(u, v);
                        state.apply_topology(&g, &t, &outcome.dirty);
                    }
                    _ => {
                        // 3: a tree edge, 4: a non-tree edge.
                        let pool: Vec<EdgeId> = if kind == 3 || non_tree.is_empty() {
                            t.edge_ids_in(&g)
                        } else {
                            non_tree
                        };
                        let e = pool[rng.below(pool.len())];
                        let weight = 1 + rng.below(max_weight as usize) as Weight;
                        let outcome = g.set_weight(g.edge(e).u, g.edge(e).v, weight);
                        state.apply_topology(&g, &t, &outcome.dirty);
                    }
                }
                steps_by_kind[kind] += 1;
                let what = format!("seed {seed} step {step} (kind {kind})");
                let fresh = FragmentState::new(&g, &t);
                assert_same_state(&state, &fresh, &what);
                assert_eq!(state.potential(), fresh.potential(), "{what}");
                assert_eq!(
                    state.improving_swap(&g, &t),
                    fresh.improving_swap(&g, &t),
                    "{what}"
                );
                if state.level_count() != levels_before {
                    level_count_changes += 1;
                }
            }
        }
        assert!(steps_by_kind.iter().all(|&c| c > 0), "{steps_by_kind:?}");
        assert!(
            level_count_changes > 0,
            "the sequences change the level count"
        );
    }
}
