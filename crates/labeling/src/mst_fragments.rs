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

use std::collections::{BTreeSet, HashMap, HashSet};

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

/// One Borůvka fragment of one level, as maintained incrementally: its member nodes,
/// the minimum-weight outgoing **tree** edge it recorded, the identity of the
/// level-above fragment it merged into (its own identity at the final level), and the
/// identities of the level-below fragments it is composed of (empty at level 0). The
/// constituent lists are the reverse index that lets a repair regroup only the merge
/// components actually touched by a swap instead of re-deriving the whole level.
#[derive(Clone, Debug)]
struct FragRecord {
    members: Vec<NodeId>,
    chosen: Option<EdgeId>,
    parent: Ident,
    constituents: Vec<Ident>,
}

/// Persistent Borůvka-trace state for one spanning tree, supporting *incremental* label
/// repair after a loop-free switch `T ← T + e − f` (the tentpole of the composition
/// engine). The state keeps, per level, every fragment's member list and chosen edge,
/// plus the true minimum-weight outgoing edge of every fragment *in the whole graph*
/// (the quantity the potential compares against) and the per-node potential `φ_x`.
///
/// [`FragmentState::apply_swap`] exploits that a swap changes the tree edge set by
/// exactly `{+e, −f}`: at every level, a fragment's membership, chosen edge and true
/// minimum outgoing edge can change only if the fragment contains an endpoint of `e` or
/// `f`, or if one of its constituent fragments already changed at the level below. The
/// repair walks the levels once, recomputes only that dirty frontier, and rewrites only
/// the labels of nodes in dirty fragments — producing labels bit-identical to
/// [`assign_fragment_labels`] on the new tree (asserted by the differential oracle
/// tests) at a cost proportional to the dirty region instead of `O(m log n)`.
pub struct FragmentState {
    labels: Vec<FragmentLabel>,
    /// Per level: fragment identity → record. `levels.len()` equals the trace length.
    levels: Vec<HashMap<Ident, FragRecord>>,
    /// Tree membership per edge (the only tree representation the traces depend on).
    is_tree_edge: Vec<bool>,
    /// Per level: fragment identity → minimum-weight outgoing edge over *all* graph
    /// edges (`None` only for the final spanning fragment).
    true_min_out: Vec<HashMap<Ident, EdgeId>>,
    /// `φ_x` per node: the first level whose recorded edge is not the true minimum
    /// outgoing edge of `x`'s fragment (or `k` when all levels agree).
    phi: Vec<usize>,
    phi_sum: u64,
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
    /// traces) and the per-node potential pass on `pool`. The result is bit-identical
    /// to [`FragmentState::new`] at any pool width: levels are computed independently
    /// and merged in level order, `φ_x` per node in node order.
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
        let mut levels: Vec<HashMap<Ident, FragRecord>> = vec![HashMap::new(); k];
        for v in graph.nodes() {
            let trace = &run.traces[v.0];
            for i in 0..k {
                let rec = levels[i]
                    .entry(trace.fragment[i])
                    .or_insert_with(|| FragRecord {
                        members: Vec::new(),
                        chosen: trace.chosen_edge[i],
                        parent: if i + 1 < k {
                            trace.fragment[i + 1]
                        } else {
                            trace.fragment[i]
                        },
                        constituents: Vec::new(),
                    });
                rec.members.push(v);
            }
        }
        // Reverse index: every fragment registers with its parent one level up, in
        // ascending identity order (deterministic across builds).
        for i in 0..k.saturating_sub(1) {
            let mut links: Vec<(Ident, Ident)> = levels[i]
                .iter()
                .map(|(&id, rec)| (id, rec.parent))
                .collect();
            links.sort_unstable();
            for (id, parent) in links {
                levels[i + 1]
                    .get_mut(&parent)
                    .expect("parents exist one level up")
                    .constituents
                    .push(id);
            }
        }
        let mut is_tree_edge = vec![false; graph.edge_count()];
        for e in tree.edge_ids_in(graph) {
            is_tree_edge[e.index()] = true;
        }
        let mut state = FragmentState {
            labels,
            levels,
            is_tree_edge,
            true_min_out: vec![HashMap::new(); k],
            phi: vec![0; n],
            phi_sum: 0,
        };
        state.true_min_out = pool
            .run(k, |_, range| {
                range
                    .map(|i| state.true_min_level(graph, i))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        let mut phi = std::mem::take(&mut state.phi);
        pool.fill_with(&mut phi, |i| state.node_phi(NodeId(i)));
        state.phi = phi;
        state.phi_sum = state.phi.iter().map(|&p| p as u64).sum();
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

    /// Number of Borůvka levels of the current trace.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// `φ(T) = k·n − Σ_x φ_x(T)`; zero iff the current tree is an MST.
    pub fn potential(&self) -> u64 {
        (self.level_count() * self.labels.len()) as u64 - self.phi_sum
    }

    /// The improving swap prescribed by the potential on the current tree (which must be
    /// the tree the state was built/repaired for). `None` iff `φ(T) = 0`.
    pub fn improving_swap(&self, graph: &Graph, tree: &Tree) -> Option<(EdgeId, EdgeId)> {
        let k = self.level_count();
        let mut violating: Option<(NodeId, usize)> = None;
        for x in graph.nodes() {
            let px = self.phi[x.0];
            if px < k && violating.is_none_or(|(_, best)| px < best) {
                violating = Some((x, px));
            }
        }
        let (x, i) = violating?;
        let fragment = self.labels[x.0].levels[i].fragment;
        let e = *self.true_min_out[i]
            .get(&fragment)
            .expect("a violating fragment has an outgoing edge");
        if self.is_tree_edge[e.index()] {
            // The recorded edge was wrong but the true minimum is already a tree edge;
            // the discrepancy is in the labels, not the tree (unreachable for
            // prover-exact state, kept for parity with the label-based definition).
            return None;
        }
        let f = stst_graph::mst::heaviest_cycle_edge(graph, tree, e);
        Some((e, f))
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

    /// Minimum outgoing edge of one fragment under the exact `(weight, edge index)`
    /// order, optionally restricted to tree edges — the shared scan of the
    /// dirty-fragment repair path. Each member's incident edges are walked in the
    /// CSR's precomputed weight order (`Graph::neighbor_order_by_weight`), so the scan
    /// **early-exits** as soon as the remaining edges of a member are strictly heavier
    /// than the best candidate so far: only ties by weight still need the edge-index
    /// comparison, and equal weights are contiguous in the order. Results are
    /// identical to the full `O(Σ_{v ∈ F} deg(v))` scan; the cost drops to the prefix
    /// of each adjacency list at or below the winning weight.
    fn min_outgoing(
        &self,
        graph: &Graph,
        level: usize,
        fragment: Ident,
        tree_only: bool,
    ) -> Option<EdgeId> {
        let members = &self.levels[level][&fragment].members;
        let mut best: Option<(Weight, EdgeId)> = None;
        for &v in members {
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
                if (tree_only && !self.is_tree_edge[e.index()])
                    || self.labels[w.0].levels[level].fragment == fragment
                {
                    continue;
                }
                best = Some((weight, e));
            }
        }
        best.map(|(_, e)| e)
    }

    /// True minimum outgoing edge of one fragment (over all graph edges).
    fn true_min_of(&self, graph: &Graph, level: usize, fragment: Ident) -> Option<EdgeId> {
        self.min_outgoing(graph, level, fragment, false)
    }

    /// Minimum-weight outgoing **tree** edge of one fragment (the edge Borůvka records).
    fn chosen_of(&self, graph: &Graph, level: usize, fragment: Ident) -> Option<EdgeId> {
        self.min_outgoing(graph, level, fragment, true)
    }

    /// Recomputes `φ_x` from the maintained records.
    fn node_phi(&self, x: NodeId) -> usize {
        let k = self.level_count();
        for i in 0..k {
            let fragment = self.labels[x.0].levels[i].fragment;
            let recorded = self.levels[i][&fragment].chosen;
            let true_min = self.true_min_out[i].get(&fragment).copied();
            match (recorded, true_min) {
                (None, None) => continue, // final level: the fragment spans everything
                (Some(r), Some(t)) if r == t => continue,
                _ => return i,
            }
        }
        k
    }

    /// Incrementally repairs the state for the swap `T ← T + add − remove`, leaving
    /// labels, records, true minima and potentials exactly as a from-scratch rebuild on
    /// the new tree would. Returns the number of per-node label entries rewritten (the
    /// deterministic work unit of the incremental-vs-from-scratch comparison).
    ///
    /// # Panics
    ///
    /// Panics if `remove` is not a tree edge or `add` already is one.
    pub fn apply_swap(&mut self, graph: &Graph, add: EdgeId, remove: EdgeId) -> u64 {
        assert!(
            self.is_tree_edge[remove.index()] && !self.is_tree_edge[add.index()],
            "apply_swap needs a non-tree edge to add and a tree edge to remove"
        );
        self.is_tree_edge[remove.index()] = false;
        self.is_tree_edge[add.index()] = true;
        let add_edge = graph.edge(add);
        let remove_edge = graph.edge(remove);
        let endpoints = [add_edge.u, add_edge.v, remove_edge.u, remove_edge.v];
        // A swap changes only tree membership, never the graph's edge set, so the true
        // minima of clean fragments are untouched — and the chosen edges of
        // membership-clean fragments can be patched from `{+add, −remove}` alone.
        self.repair_dirty_endpoints(graph, &endpoints, false, Some((add, remove)))
    }

    /// Incrementally repairs the state after a **topology mutation** of the underlying
    /// graph (edges added/removed/re-weighted, node set unchanged): `tree` is the
    /// already-repaired spanning tree of the mutated graph and `dirty` the endpoint
    /// set of every changed edge — graph-mutated edges, edges whose dense index was
    /// recycled by a removal, and the tree edges swapped by the re-anchoring (see
    /// `stst-graph::mutation`). Any fragment whose membership, chosen edge, or true
    /// minimum outgoing edge can change necessarily contains one of these endpoints
    /// (an edge incident to a fragment has an endpoint inside it), so repairing the
    /// endpoint-dirty frontier — this time re-scanning true minima as well, because
    /// the graph's edge set itself moved — leaves the state bit-identical to a
    /// from-scratch rebuild on the mutated instance.
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
        // Edge ids may have been recycled by removals: rebuild tree membership from
        // the repaired tree rather than patching indices.
        self.is_tree_edge.clear();
        self.is_tree_edge.resize(graph.edge_count(), false);
        for e in tree.edge_ids_in(graph) {
            self.is_tree_edge[e.index()] = true;
        }
        self.repair_dirty_endpoints(graph, dirty, true, None)
    }

    /// The shared dirty-frontier cascade of [`FragmentState::apply_swap`] and
    /// [`FragmentState::apply_topology`]: walks the levels once, re-choosing fragments
    /// that contain a dirty endpoint (re-scanning their true minima too when
    /// `refresh_true_min` — i.e. when the graph's own edge set changed), merging and
    /// rebuilding only the groups whose composition changed, and repairing `φ_x` for
    /// exactly the affected nodes.
    fn repair_dirty_endpoints(
        &mut self,
        graph: &Graph,
        endpoints: &[NodeId],
        refresh_true_min: bool,
        swap: Option<(EdgeId, EdgeId)>,
    ) -> u64 {
        let old_level_count = self.level_count();
        let mut writes = 0u64;
        let mut phi_dirty: HashSet<NodeId> = HashSet::new();
        // Fragments of the current level whose member set was rebuilt by the merge step
        // below (none at level 0: singletons never change membership).
        let mut membership_dirty: HashSet<Ident> = HashSet::new();
        // Stale fragment identities to drop from the current level before processing it.
        let mut stale: Vec<Ident> = Vec::new();
        let mut level = 0usize;
        loop {
            // The merge step below can only produce a different grouping if one of its
            // inputs changed at this level: the fragment *set* (stale removals or
            // rebuilt groups) or some fragment's chosen edge. Tracked so that clean
            // levels skip the grouping pass entirely — this is what makes a repair
            // cost `O(dirty region)` per level instead of `O(#fragments)` (at
            // n = 10⁵, the difference between a milliseconds-per-swap cascade and an
            // `O(n)` rebuild per swap).
            // Old parents of the fragments dissolved at this level: their groups lost a
            // constituent, so the merge below must re-derive them (closure seeds).
            let mut stale_parents: Vec<Ident> = Vec::new();
            for id in stale.drain(..) {
                if let Some(rec) = self.levels[level].remove(&id) {
                    stale_parents.push(rec.parent);
                }
                self.true_min_out[level].remove(&id);
            }
            // Fragments whose merge-relevant state changes at this level: rebuilt
            // membership now, or a changed chosen edge (recorded below). The merge
            // pass regroups only the link-closure of these seeds — clean groups
            // elsewhere on the level are never touched, which is what makes a repair
            // cost `O(dirty region)` instead of `O(#fragments)` per level (at
            // n = 10⁵, the difference between a milliseconds-per-swap cascade and an
            // `O(n)` regrouping per swap).
            let mut merge_seeds: BTreeSet<Ident> = membership_dirty.iter().copied().collect();
            // (A) Recompute chosen edges (and true minima) on the dirty frontier: the
            // rebuilt fragments plus every fragment containing an endpoint of e or f
            // (the only fragments whose incident tree-edge set changed).
            let mut rechoose: BTreeSet<Ident> = membership_dirty.iter().copied().collect();
            for &v in endpoints {
                rechoose.insert(self.labels[v.0].levels[level].fragment);
            }
            for id in rechoose {
                let rebuilt = membership_dirty.contains(&id);
                let old_chosen = self.levels[level][&id].chosen;
                let old_min = self.true_min_out[level].get(&id).copied();
                // A membership-clean fragment under a pure swap changes its outgoing
                // **tree**-edge set by exactly `{+add, −remove}`, so its minimum can
                // be patched in O(1): a full member scan (`chosen_of`, O(Σ deg) over
                // the fragment — O(n) for the top-level fragments!) is only needed
                // when the removed edge *was* the recorded minimum. This is what
                // keeps a swap's repair proportional to its dirty region.
                let new_chosen = match swap {
                    Some((add, remove)) if !rebuilt && !refresh_true_min => {
                        if old_chosen == Some(remove) {
                            self.chosen_of(graph, level, id)
                        } else {
                            let ae = graph.edge(add);
                            let fu = self.labels[ae.u.0].levels[level].fragment;
                            let fv = self.labels[ae.v.0].levels[level].fragment;
                            let add_outgoing = (fu == id) != (fv == id);
                            match (old_chosen, add_outgoing) {
                                (Some(o), true)
                                    if (graph.weight(add), add.index())
                                        < (graph.weight(o), o.index()) =>
                                {
                                    Some(add)
                                }
                                (None, true) => Some(add),
                                (other, _) => other,
                            }
                        }
                    }
                    _ => self.chosen_of(graph, level, id),
                };
                if new_chosen != old_chosen {
                    merge_seeds.insert(id);
                }
                // Under a topology mutation the stored `(ID, ID, w)` triple can go
                // stale even when the chosen EdgeId is unchanged (weight drift), so
                // the members' labels are re-derived unconditionally there; the inner
                // loop still only counts entries whose text actually changed.
                if rebuilt || refresh_true_min || new_chosen != old_chosen {
                    let rec = self.levels[level].get_mut(&id).expect("fragment exists");
                    rec.chosen = new_chosen;
                    let members = rec.members.clone();
                    let triple = new_chosen.map(|e| outgoing_triple(graph, e));
                    // Only members whose recorded edge actually differs perform a
                    // register write (a rebuilt fragment that kept its choice leaves
                    // most labels untouched); the work counter counts real writes.
                    for &m in &members {
                        let slot = &mut self.labels[m.0].levels[level].outgoing;
                        if *slot != triple {
                            *slot = triple;
                            writes += 1;
                            phi_dirty.insert(m);
                        }
                    }
                }
                let new_min = if rebuilt || refresh_true_min {
                    let new_min = self.true_min_of(graph, level, id);
                    match new_min {
                        Some(e) => {
                            self.true_min_out[level].insert(id, e);
                        }
                        None => {
                            self.true_min_out[level].remove(&id);
                        }
                    }
                    new_min
                } else {
                    old_min
                };
                // φ reads only the per-fragment (recorded, true-min) *agreement*, so
                // the members' potentials need repair exactly when that agreement
                // flips (or the membership itself was rebuilt) — not on every record
                // rewrite. This keeps the φ repair off the O(n)-member fragments for
                // the vast majority of swaps.
                let old_agree = old_chosen == old_min;
                let new_agree = new_chosen == new_min;
                if rebuilt || old_agree != new_agree {
                    let members = self.levels[level][&id].members.clone();
                    phi_dirty.extend(members);
                }
            }
            // (B) Termination: a single fragment spans the tree at this level.
            if self.levels[level].len() == 1 {
                writes += self.finalize_levels(level + 1, old_level_count, &mut phi_dirty);
                break;
            }
            // (C) Merge into level + 1: group the seeds' link-closure along the chosen
            // edges (cheap per-fragment bookkeeping, no per-node work), then rebuild
            // only the groups whose composition actually changed. When no merge input
            // changed at this level — the fragment set and every chosen edge are
            // exactly what they were before the repair — the grouping is unchanged by
            // definition and the pass is skipped outright (bit-identity to a full
            // regrouping is pinned by the from-scratch differential tests).
            let next_dirty = if !merge_seeds.is_empty() || !stale_parents.is_empty() {
                self.merge_level(
                    graph,
                    level,
                    &membership_dirty,
                    &merge_seeds,
                    &stale_parents,
                    &mut stale,
                    &mut writes,
                    &mut phi_dirty,
                )
            } else {
                HashSet::new()
            };
            membership_dirty = next_dirty;
            level += 1;
        }

        // (D) Repair the per-node potentials of every node whose fragment stack or
        // fragment agreement changed.
        if self.level_count() != old_level_count {
            phi_dirty.extend(graph.nodes());
        }
        let mut dirty_nodes: Vec<NodeId> = phi_dirty.into_iter().collect();
        dirty_nodes.sort_unstable();
        for x in dirty_nodes {
            let new_phi = self.node_phi(x);
            self.phi_sum = self.phi_sum - self.phi[x.0] as u64 + new_phi as u64;
            self.phi[x.0] = new_phi;
        }
        writes
    }

    /// The merge step of one repair level: groups fragments along their chosen edges
    /// with a fragment-granularity union-find, keeps every group whose composition is
    /// provably unchanged, and rebuilds the rest. Returns the identities of the rebuilt
    /// level-`level + 1` fragments.
    ///
    /// The union-find runs over the **link-closure scope** of the seeds, not the whole
    /// level: the full old groups (via the stored constituent lists) of every
    /// chosen-changed, rebuilt or dissolved fragment, extended transitively wherever a
    /// scoped fragment's new link targets a fragment outside the scope. Groups fully
    /// outside the scope keep their recorded grouping verbatim, which is sound because
    /// (a) their own links are unchanged, and (b) a link *into* the scope from an
    /// unchanged fragment implies it already shared an old group with its target
    /// (links pre-existed ⇒ same component), so the closure pulled it in. When the
    /// level count grows there is no recorded grouping to reuse, so the scope falls
    /// back to the whole level.
    #[allow(clippy::too_many_arguments)]
    fn merge_level(
        &mut self,
        graph: &Graph,
        level: usize,
        membership_dirty: &HashSet<Ident>,
        merge_seeds: &BTreeSet<Ident>,
        stale_parents: &[Ident],
        stale: &mut Vec<Ident>,
        writes: &mut u64,
        phi_dirty: &mut HashSet<NodeId>,
    ) -> HashSet<Ident> {
        let ids: Vec<Ident> = if level + 1 >= self.levels.len() {
            let mut ids: Vec<Ident> = self.levels[level].keys().copied().collect();
            ids.sort_unstable();
            ids
        } else {
            let lower = &self.levels[level];
            let upper = &self.levels[level + 1];
            let mut in_scope: BTreeSet<Ident> = BTreeSet::new();
            let mut expanded: BTreeSet<Ident> = BTreeSet::new();
            let mut parent_queue: Vec<Ident> = stale_parents.to_vec();
            let mut frontier: Vec<Ident> = Vec::new();
            for &f in merge_seeds {
                if lower.contains_key(&f) && in_scope.insert(f) {
                    frontier.push(f);
                    parent_queue.push(lower[&f].parent);
                }
            }
            loop {
                while let Some(p) = parent_queue.pop() {
                    if expanded.insert(p) {
                        if let Some(rec) = upper.get(&p) {
                            for &c in &rec.constituents {
                                // Constituent lists can name fragments this repair
                                // already dissolved; only live ones are grouped.
                                if lower.contains_key(&c) && in_scope.insert(c) {
                                    frontier.push(c);
                                }
                            }
                        }
                    }
                }
                let Some(f) = frontier.pop() else { break };
                let e = lower[&f]
                    .chosen
                    .expect("a non-final fragment of a spanning tree has an outgoing tree edge");
                let ed = graph.edge(e);
                let fu = self.labels[ed.u.0].levels[level].fragment;
                let fv = self.labels[ed.v.0].levels[level].fragment;
                let other = if fu == f { fv } else { fu };
                if in_scope.insert(other) {
                    frontier.push(other);
                    if let Some(rec) = lower.get(&other) {
                        parent_queue.push(rec.parent);
                    }
                }
            }
            in_scope.into_iter().collect()
        };
        let index: HashMap<Ident, usize> = ids.iter().enumerate().map(|(i, &d)| (d, i)).collect();
        let mut dsu: Vec<usize> = (0..ids.len()).collect();
        fn find(dsu: &mut [usize], mut x: usize) -> usize {
            while dsu[x] != x {
                dsu[x] = dsu[dsu[x]];
                x = dsu[x];
            }
            x
        }
        for (i, &id) in ids.iter().enumerate() {
            let Some(e) = self.levels[level][&id].chosen else {
                panic!("a non-final fragment of a spanning tree has an outgoing tree edge");
            };
            let ed = graph.edge(e);
            let fu = self.labels[ed.u.0].levels[level].fragment;
            let fv = self.labels[ed.v.0].levels[level].fragment;
            let other = if fu == id { fv } else { fu };
            let (a, b) = (find(&mut dsu, i), find(&mut dsu, index[&other]));
            if a != b {
                dsu[a] = b;
            }
        }
        let mut components: HashMap<usize, Vec<Ident>> = HashMap::new();
        for (i, &id) in ids.iter().enumerate() {
            components.entry(find(&mut dsu, i)).or_default().push(id);
        }
        let growing = level + 1 >= self.levels.len();
        if growing {
            self.levels.push(HashMap::new());
            self.true_min_out.push(HashMap::new());
        }
        let mut next_dirty: HashSet<Ident> = HashSet::new();
        let mut rebuilt: Vec<(Ident, Vec<NodeId>, Vec<Ident>)> = Vec::new();
        for mut constituents in components.into_values() {
            // A group is unchanged iff every constituent kept its membership, they all
            // merged into the same old parent, and together they cover all of it.
            let clean =
                !growing && constituents.iter().all(|id| !membership_dirty.contains(id)) && {
                    let parent = self.levels[level][&constituents[0]].parent;
                    constituents
                        .iter()
                        .all(|id| self.levels[level][id].parent == parent)
                        && self.levels[level + 1].get(&parent).is_some_and(|rec| {
                            rec.members.len()
                                == constituents
                                    .iter()
                                    .map(|id| self.levels[level][id].members.len())
                                    .sum::<usize>()
                        })
                };
            if clean {
                continue;
            }
            constituents.sort_unstable();
            let new_ident = constituents[0];
            let mut members: Vec<NodeId> = Vec::new();
            for id in &constituents {
                let rec = self.levels[level].get_mut(id).expect("constituent exists");
                rec.parent = new_ident;
                members.extend(rec.members.iter().copied());
            }
            members.sort_unstable();
            // The group recomposed out of different constituents but to exactly its old
            // member set (the common case one level above a local swap: the two sides of
            // the fundamental cycle re-merge): everything above this level is unchanged,
            // so the upward dirty cascade stops here — only the reverse index needs the
            // new composition.
            if !growing {
                if let Some(old) = self.levels[level + 1].get_mut(&new_ident) {
                    if old.members == members {
                        old.constituents = constituents;
                        continue;
                    }
                }
            }
            rebuilt.push((new_ident, members, constituents));
        }
        let new_idents: Vec<Ident> = rebuilt.iter().map(|(id, _, _)| *id).collect();
        for (new_ident, members, constituents) in rebuilt {
            for &m in &members {
                let label = &mut self.labels[m.0];
                if level + 1 < label.levels.len() {
                    // The member's old group is dissolved by this rebuild (unless the
                    // rebuilt group reuses its identity — filtered below); remember it
                    // so the next level drops the record before processing. Only members
                    // whose identity entry actually differs perform a register write.
                    let old_parent = label.levels[level + 1].fragment;
                    if old_parent != new_ident {
                        stale.push(old_parent);
                        label.levels[level + 1].fragment = new_ident;
                        *writes += 1;
                        phi_dirty.insert(m);
                    }
                } else {
                    label.levels.push(FragmentLevel {
                        fragment: new_ident,
                        outgoing: None,
                    });
                    *writes += 1;
                    phi_dirty.insert(m);
                }
            }
            // A reused identity keeps its old record's parent: the next level's merge
            // seeds its closure from it to locate the (possibly recomposing) old
            // group. Brand-new identities have no old group; their dissolved
            // predecessors are tracked through `stale_parents` instead.
            let parent = self.levels[level + 1]
                .get(&new_ident)
                .map_or(new_ident, |old| old.parent);
            self.levels[level + 1].insert(
                new_ident,
                FragRecord {
                    members,
                    chosen: None,
                    parent,
                    constituents,
                },
            );
            next_dirty.insert(new_ident);
        }
        stale.sort_unstable();
        stale.dedup();
        stale.retain(|id| !new_idents.contains(id));
        next_dirty
    }

    /// Truncates or confirms the trace length once the repair reached the spanning
    /// fragment at `new_level_count` levels, mirroring the from-scratch run's final
    /// `(fragment, ⊥)` entries. Returns the labels rewritten.
    fn finalize_levels(
        &mut self,
        new_level_count: usize,
        old_level_count: usize,
        phi_dirty: &mut HashSet<NodeId>,
    ) -> u64 {
        let last = new_level_count - 1;
        let final_ident = {
            let (&id, rec) = self.levels[last]
                .iter_mut()
                .next()
                .expect("the final level has one fragment");
            rec.parent = id;
            debug_assert!(
                rec.chosen.is_none(),
                "the spanning fragment has no outgoing edge"
            );
            id
        };
        self.levels.truncate(new_level_count);
        self.true_min_out.truncate(new_level_count);
        if new_level_count == old_level_count {
            return 0;
        }
        let mut writes = 0u64;
        for (i, label) in self.labels.iter_mut().enumerate() {
            if label.levels.len() != new_level_count {
                label.levels.truncate(new_level_count);
                label.levels[last].fragment = final_ident;
                label.levels[last].outgoing = None;
                writes += 1;
                phi_dirty.insert(NodeId(i));
            }
        }
        writes
    }
}

/// The fragment labels as a proof-labeling scheme for MST (completeness: the labels of
/// an MST are accepted; soundness: for a non-MST tree, *these prover-built* labels make
/// some node detect a violating fragment). The verifier at `v` checks that the level-0
/// fragment is `v`'s own identity, that consecutive levels are consistent with the
/// parent/children labels it can see, and that each recorded outgoing edge incident to
/// `v` is not beaten by a lighter incident graph edge leaving the fragment — the local
/// part of the Korman–Kutten style verification.
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
        let own = &labels[v.0];
        if own.levels.is_empty() {
            return false;
        }
        // Level 0: the singleton fragment is the node itself.
        if own.levels[0].fragment != graph.ident(v) {
            return false;
        }
        // All nodes must agree on the number of levels (checked against neighbors).
        for &(w, _) in graph.neighbors(v) {
            if labels[w.0].levels.len() != own.levels.len() {
                return false;
            }
        }
        // The final level must have no outgoing edge and a fragment identity shared with
        // every neighbor (a single fragment spans the tree).
        let last = own.levels.last().expect("non-empty");
        if last.outgoing.is_some() {
            return false;
        }
        for &(w, _) in graph.neighbors(v) {
            if labels[w.0].levels.last().map(|l| l.fragment) != Some(last.fragment) {
                return false;
            }
        }
        // Local optimality: for every level, if an incident graph edge leaves v's
        // fragment and is lighter than the recorded outgoing edge, reject (this is what
        // lets at least one node notice φ(T) > 0).
        for (i, level) in own.levels.iter().enumerate() {
            if let Some((_, _, recorded_w)) = level.outgoing {
                for &(w, e) in graph.neighbors(v) {
                    let neighbor_frag = labels[w.0].levels.get(i).map(|l| l.fragment);
                    if neighbor_frag != Some(level.fragment) && graph.weight(e) < recorded_w {
                        return false;
                    }
                }
            }
            // Fragment monotonicity: the fragment of level i+1 contains the fragment of
            // level i, so its identity can only get smaller or stay equal.
            if i + 1 < own.levels.len() && own.levels[i + 1].fragment > level.fragment {
                return false;
            }
        }
        true
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
                assert_eq!(state.phi, fresh.phi, "seed {seed} swap {guard}");
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
                assert_eq!(state.phi, fresh.phi, "seed {seed}: {what}");
                assert_eq!(state.potential(), fresh.potential(), "seed {seed}: {what}");
                assert_eq!(
                    state.improving_swap(g, t),
                    fresh.improving_swap(g, t),
                    "seed {seed}: {what}"
                );
                for (a, b) in state.true_min_out.iter().zip(&fresh.true_min_out) {
                    assert_eq!(a, b, "seed {seed}: {what}");
                }
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
                assert_eq!(seq.phi, par.phi, "seed {seed}, {threads} threads");
                assert_eq!(seq.potential(), par.potential());
                assert_eq!(seq.true_min_out.len(), par.true_min_out.len());
                for (a, b) in seq.true_min_out.iter().zip(&par.true_min_out) {
                    assert_eq!(a, b);
                }
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
}
