//! The executor: runs a guarded-rule algorithm under a daemon, counting moves and rounds
//! exactly as defined in the paper, detecting silence, and injecting transient faults.
//!
//! # Incremental enabled-set maintenance
//!
//! A naive executor re-evaluates every guard in the network at every daemon step —
//! `O(n·Δ)` work per step just to decide who is enabled. This executor instead
//! maintains the enabled set *incrementally*: a node's guard reads only its closed
//! 1-hop neighborhood, so after a step in which the set `M` of nodes moved, only nodes
//! in `⋃_{v∈M} N[v]` can change enabledness. Each step therefore re-evaluates
//! `O(Σ_{v∈M} deg(v))` guards, each exactly once, and caches the resulting *pending
//! transition* so the write applied when the daemon picks the node needs no second
//! evaluation. The invariants (verified by the differential oracle tests against a
//! brute-force rescan) are spelled out in DESIGN.md:
//!
//! 1. `pending[v]` is `Some(s)` iff `v` is enabled in the current configuration, and
//!    `s` is exactly what [`Algorithm::step`] returns on `v`'s current view;
//! 2. `enabled_list`/`enabled_pos`/`in_enabled` form an indexed set equal to
//!    `{v : pending[v].is_some()}`;
//! 3. `round_pending` (a dense bitset) is the subset of nodes enabled at the start of
//!    the current round that have neither been activated nor been observed disabled
//!    since — when it empties, a round is complete (paper §II-A).
//!
//! This requires [`Algorithm::step`] to be a *pure function of the view* (the trait
//! offers no randomness, so this is enforced by construction).
//!
//! Construction, daemon steps, the fault hooks and [`Executor::apply_topology`]
//! re-evaluate guards through one routine and differ only in the frontier they hand
//! it. The full-rescan reference mode ([`ExecMode::FullRescan`]), kept for
//! differential testing and for benchmarking the speedup, hands it a step's
//! incremental frontier followed by every other node: the added guards cannot have
//! changed, so both modes run the same execution under every daemon.
//!
//! # Deterministic parallel wave execution
//!
//! The same purity frees the order in which a refresh evaluates its guards: every
//! guard reads only the immutable pre-step configuration. The executor collects a
//! refresh frontier in a fixed order (a step's movers, each followed by its
//! neighbors). A frontier of at least [`PAR_MIN_ITEMS`] guards is evaluated as a
//! sorted copy in ascending node index, where the stores and the neighbor cache lie,
//! writing each pending slot, tier counter and round bit as it goes; none of those
//! updates depends on the order. A second pass in frontier order replays only the
//! enabled-list membership changes, the one order-sensitive update, since the
//! daemons index into the list. A smaller frontier is evaluated and applied in one
//! pass in frontier order.
//!
//! With [`ExecutorConfig::with_threads`] the guards of a large frontier (under the
//! synchronous daemon potentially the whole network, and at construction always) run
//! on a scoped worker pool ([`crate::par::ThreadPool`]), each worker over a
//! contiguous node range of the sorted frontier. Every write — pending transitions,
//! the enabled-set bookkeeping, round accounting, RNG draws — stays on the calling
//! thread, applied in the *same deterministic order* the sequential path uses, so
//! executions are **bit-identical at any thread count** (asserted by
//! `tests/parallel_determinism.rs` across daemons, seeds and fault injection). Small
//! frontiers (under [`PAR_MIN_ITEMS`] guards) skip the pool entirely, so
//! `threads > 1` never slows the central-daemon steady state and `threads = 1` is the
//! sequential executor verbatim.
//!
//! # Packed configuration storage
//!
//! The pre-round configuration and the pending-transition cache are two
//! [`ConfigStore`]s of the representation [`ExecutorConfig::store`] names; only the
//! store knows which one it is. Under the default [`StoreMode::Packed`] every register
//! occupies a fixed-width bit slot sized by its codec ([`crate::codec::Codec`]), so the
//! bits the space reports account are the bits actually allocated (see
//! `crates/runtime/src/store.rs` and DESIGN.md §2.9). Guard evaluations read the closed
//! neighborhood into a reused scratch buffer with [`ConfigStore::get`] — a decode from
//! the packed store, a clone from the struct store — and run over a locally indexed
//! [`View`]. Because `decode(encode(x)) == x` exactly (the codec contract), packed
//! executions are **bit-identical** to the [`StoreMode::Struct`] reference, the
//! lockstep oracle (asserted by `tests/packed_store_oracle.rs` across daemons, seeds,
//! thread counts, fault injection and topology churn).
//!
//! # Two-tier guard evaluation (decode-free screening)
//!
//! On the packed store, guard evaluation is two-tiered. The cheap first tier is the
//! algorithm's [`Algorithm::guard_screen`]: it mirrors [`Algorithm::step`] on fields
//! extracted from the heap by shift/mask ([`crate::view::RawView`]) — no
//! `decode_from`, no scratch fill — and resolves the guard outright
//! ([`crate::algorithm::Screen::Disabled`] / [`crate::algorithm::Screen::Enabled`])
//! whenever every field of the closed neighborhood is in its fault-free shape. Only
//! when some escape bit fires (fault garbage) or the algorithm offers no screen does
//! the executor fall back to the full-decode second tier, so after the initial
//! garbage is burned off a stabilizing run pays almost no decoding at all. The
//! [`Executor::guard_screen_hits`] / [`Executor::guard_full_decodes`] counters split
//! [`Executor::guard_evaluations`] between the tiers (struct-store runs leave both at
//! zero — the reference store has no heap to screen, and its reads are clones, not
//! decodes), and the differential
//! oracles pin that screening never changes a single bit of the execution.
//!
//! Writes are symmetric: [`ConfigStore::set`] short-circuits on bit-identical
//! re-encodes via a per-slot xor-fold fingerprint, and the fault-injection paths use
//! its changed/unchanged verdict to skip re-evaluating closed neighborhoods whose
//! registers did not actually change bits.
//!
//! # Certified silence
//!
//! Quiescence reads no register. The enabled set is empty, and a self-stabilizing
//! algorithm cannot stop in an illegal configuration where a legal one exists: it
//! would never leave it. So [`Quiescence::legal`] is the algorithm's
//! [`Algorithm::silence_certifies`] premise on the current graph (connectivity, plus
//! the root's presence for rooted BFS), evaluated once per graph at the first
//! quiescence after construction, [`Executor::restore`] or
//! [`Executor::apply_topology`], and cached. The global predicate
//! [`Algorithm::is_legal`] is the oracle, called through [`Executor::check_legal`];
//! debug builds assert it on every certified quiescence (DESIGN.md §2.14).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use stst_graph::tree::TreeError;
use stst_graph::{Graph, MutationOutcome, NodeId, Tree};
use stst_obs::{Layer, Obs, TraceEvent};

use crate::algorithm::{Algorithm, ParentPointer, Screen};
use crate::codec::{Codec, CodecCtx};
use crate::par::ThreadPool;
use crate::persist::{self, RestoreError, Snapshot, SnapshotReader};
use crate::scheduler::{Scheduler, SchedulerKind, SchedulerState};
use crate::store::{ConfigStore, StoreMode};
use crate::view::{NeighborInfo, RawView, View};

/// Minimum number of guard evaluations in one wave before the executor hands the work
/// to the pool and evaluates it in node-index order: below this, thread spawn overhead
/// beats the parallelism and a sort costs more than the locality it buys. Purity makes
/// the threshold invisible in the results (every path computes the same values and
/// lays the enabled list out the same way) — it only affects wall clock.
pub const PAR_MIN_ITEMS: usize = 128;

/// Which tier resolved one guard evaluation (see the module docs on two-tier guard
/// evaluation). Returned alongside the result by `Executor::eval_guard` so the
/// order-sensitive caller can count tier usage deterministically — the evaluation
/// itself is a pure `&self` read and must not touch counters (worker threads run it
/// concurrently).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GuardPath {
    /// Struct-store evaluation: registers cloned into the scratch buffer, counted as
    /// neither screened nor decoded (the reference store has no heap to screen).
    Struct,
    /// The decode-free screen resolved the guard (packed store, fault-free shape).
    Screened,
    /// Full decode of the closed neighborhood (screen returned `Unknown`, the
    /// algorithm has no screen, or the store has no extractable heap).
    Decoded,
}

/// Which guards a refresh re-evaluates besides its seed nodes (`Executor::refresh`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Reach {
    /// The seeds alone: the endpoints of changed edges under edge churn.
    Seeds,
    /// The seeds' closed neighborhoods: a step's movers, or faulted registers.
    Neighborhoods,
    /// The seeds' closed neighborhoods, then every other node: construction, node
    /// churn, and each step of [`ExecMode::FullRescan`].
    All,
}

/// How the executor maintains its enabled set. Like [`StoreMode`] and the thread
/// count, the choice changes only the work counters: both modes run the same
/// execution under every daemon.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Incremental maintenance: `O(Σ_{v moved} deg(v))` guard evaluations per step.
    #[default]
    Incremental,
    /// Reference mode: after every step, re-evaluate the incremental frontier and then
    /// every other guard (`O(n·Δ)` per step). The guards it adds cannot have changed,
    /// so the enabled list keeps the incremental layout. Retained for differential
    /// tests and as the baseline of table R1 (`report reference`).
    FullRescan,
}

/// Executor configuration: a seed (for the arbitrary initial configuration, the daemon's
/// random choices, and fault injection), the daemon kind, the enabled-set mode, the
/// worker-thread count and the register-store representation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Seed for every random choice made by the executor.
    pub seed: u64,
    /// The daemon under which the algorithm runs.
    pub scheduler: SchedulerKind,
    /// Enabled-set maintenance strategy (incremental unless benchmarking the rescan).
    /// Results are bit-identical in either mode; only the guard counters change.
    pub mode: ExecMode,
    /// Worker threads for parallel wave evaluation (1 = fully sequential). Results are
    /// bit-identical at any value; only wall clock changes.
    pub threads: usize,
    /// Register-store representation: bit-packed, or the struct-backed reference that
    /// the differential oracles and E11's memory baseline run. Results are
    /// bit-identical in either mode; only memory and the guard-tier counters change.
    pub store: StoreMode,
}

impl ExecutorConfig {
    /// Central daemon with the given seed.
    pub fn seeded(seed: u64) -> Self {
        ExecutorConfig {
            seed,
            scheduler: SchedulerKind::Central,
            mode: ExecMode::Incremental,
            threads: 1,
            store: StoreMode::Packed,
        }
    }

    /// The given daemon with the given seed.
    pub fn with_scheduler(seed: u64, scheduler: SchedulerKind) -> Self {
        ExecutorConfig {
            scheduler,
            ..ExecutorConfig::seeded(seed)
        }
    }

    /// The same configuration with the given enabled-set mode.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// The same configuration with the given worker-thread count (clamped to ≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The same configuration with the given register-store representation.
    pub fn with_store(mut self, store: StoreMode) -> Self {
        self.store = store;
        self
    }
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig::seeded(0)
    }
}

/// Why an execution stopped before reaching quiescence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The step budget was exhausted while some node was still enabled.
    StepBudgetExhausted {
        /// Steps taken before giving up.
        steps: u64,
        /// Rounds completed before giving up.
        rounds: u64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::StepBudgetExhausted { steps, rounds } => write!(
                f,
                "step budget exhausted after {steps} steps ({rounds} rounds) without quiescence"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Measurements of a run that reached quiescence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Quiescence {
    /// `true` — quiescence means no node is enabled, i.e. the algorithm is silent.
    pub silent: bool,
    /// Number of rounds until quiescence (paper §II-A definition).
    pub rounds: u64,
    /// Number of individual node activations (moves).
    pub moves: u64,
    /// Number of daemon steps (a synchronous step may contain many moves).
    pub steps: u64,
    /// Whether the final configuration is certified legal: the algorithm's
    /// [`Algorithm::silence_certifies`] premise on the current graph. No node is
    /// enabled, so under a premise that holds this configuration is legal by the
    /// algorithm's self-stabilization theorem; no register is read to decide it. The
    /// oracle, [`Algorithm::is_legal`], is [`Executor::check_legal`]; debug builds
    /// assert that it accepts every certified configuration.
    pub legal: bool,
}

/// Space usage of a configuration, in bits per node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpaceReport {
    /// Maximum register size over all nodes, in bits.
    pub max_bits: usize,
    /// Average register size, in bits.
    pub avg_bits: f64,
    /// Sum of register sizes, in bits.
    pub total_bits: usize,
}

/// Measured memory of the executor's configuration storage (snapshot **and** pending
/// buffers — the double-buffered state both store modes keep), set against the
/// codec-accounted register bits. This is the allocated-vs-accounted comparison the
/// E5/E7/E11 space tables record: for the packed store the ratio is a small constant
/// (slot stride + presence bit over the accounted bits); for the struct-backed
/// reference it is the 10–50× a `Vec` of decoded structs pays.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StoreReport {
    /// The store representation measured.
    pub mode: StoreMode,
    /// Bytes allocated for the snapshot + pending configuration buffers.
    pub measured_bytes: usize,
    /// Codec-accounted bits of the current configuration (sum over nodes).
    pub accounted_bits: u64,
    /// `measured_bytes / n`.
    pub bytes_per_node: f64,
    /// `accounted_bits / n`.
    pub accounted_bits_per_node: f64,
}

/// Runs an [`Algorithm`] on a [`Graph`] under a [`Scheduler`].
#[derive(Clone, Debug)]
pub struct Executor<'g, A: Algorithm> {
    graph: &'g Graph,
    algo: A,
    /// The pre-round configuration: one register per node.
    states: ConfigStore<A::State>,
    /// The pending-transition cache: slot `v` holds `v`'s next register iff `v` is
    /// enabled (invariant 1). Same representation as `states`.
    pending: ConfigStore<A::State>,
    /// Fixed codec field widths of the current instance (re-derived on topology
    /// mutations, which can grow the identity/weight ranges).
    ctx: CodecCtx,
    scheduler: Scheduler,
    rng: StdRng,
    mode: ExecMode,
    moves: u64,
    steps: u64,
    rounds: u64,
    /// Total guard evaluations performed (the cost metric the incremental design
    /// optimizes; exposed so tests and benches can assert the asymptotics).
    guard_evals: u64,
    /// Guard evaluations resolved by the decode-free screen (packed store only).
    screen_hits: u64,
    /// Guard evaluations that fell through to a full decode of the closed
    /// neighborhood (packed store only; the struct path decodes nothing).
    full_decodes: u64,
    /// CSR of per-neighbor incorruptible constants: node `v`'s entries live at
    /// `nbr_info[nbr_offsets[v] .. nbr_offsets[v + 1]]`. Built once — identities and
    /// weights never change, so views borrow these slices allocation-free.
    nbr_offsets: Vec<u32>,
    nbr_info: Vec<NeighborInfo>,
    /// Indexed enabled set: membership flags, dense list, and list positions.
    in_enabled: Vec<bool>,
    enabled_list: Vec<NodeId>,
    enabled_pos: Vec<usize>,
    /// Bitset of nodes enabled at the start of the current round that have neither been
    /// activated nor become disabled since, plus its population count.
    round_words: Vec<u64>,
    round_count: usize,
    /// Epoch stamps deduplicating guard re-evaluations within one refresh.
    touched: Vec<u32>,
    stamp: u32,
    /// Largest register size, in bits, any node held at any point of the execution
    /// (nodes that left under churn included).
    peak_bits: usize,
    /// Scoped worker pool for parallel wave evaluation (width 1 = sequential).
    pool: ThreadPool,
    /// Scratch buffer the daemon's per-step selection is written into (reused across
    /// steps — no per-step allocation, [`Scheduler::select_into`]).
    chosen_buf: Vec<NodeId>,
    /// Scratch buffer holding the frontier of the current refresh, in the
    /// deterministic order the enabled-list membership is replayed in.
    refresh_buf: Vec<NodeId>,
    /// Scratch buffer holding a sorted copy of the frontier: the ascending node order
    /// the guards of a frontier of at least [`PAR_MIN_ITEMS`] are evaluated and
    /// applied in (unused by sweeps, whose order is `0..n`).
    sorted_buf: Vec<u32>,
    /// Scratch buffer for the parallel wave's guard results (and the tier that
    /// produced each), index-aligned with the sorted frontier.
    eval_buf: Vec<(Option<A::State>, GuardPath)>,
    /// Scratch buffer the packed store decodes closed neighborhoods into (sequential
    /// path; parallel waves hold one such buffer per worker).
    decode_buf: Vec<A::State>,
    /// Observability handle ([`Executor::attach_obs`]); disabled by default, in which
    /// case every instrumentation site reduces to one branch. All trace emission and
    /// metric publication happens at wave boundaries on the calling thread — never
    /// from guard evaluation — so enabling it cannot perturb the execution.
    obs: Obs,
    /// Wave index of the trace wave currently open (None between waves; always None
    /// while `obs` is disabled).
    obs_wave: Option<u64>,
    /// Guard-counter readings (`guard_evals`, `screen_hits`, `full_decodes`) at the
    /// last trace publish, so each `GuardBatch` event carries per-wave deltas.
    obs_guard_mark: (u64, u64, u64),
    /// [`Algorithm::silence_certifies`] on the current graph, evaluated at the first
    /// quiescence after construction, restore or a topology change (not in the
    /// constructors, which time-critical callers run before anything is silent).
    certifies: Option<bool>,
}

impl<'g, A: Algorithm> Executor<'g, A> {
    /// Creates an executor with an explicit initial configuration.
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the number of nodes.
    pub fn with_states(
        graph: &'g Graph,
        algo: A,
        states: Vec<A::State>,
        config: ExecutorConfig,
    ) -> Self {
        let n = graph.node_count();
        assert_eq!(states.len(), n, "one register per node");
        let ctx = CodecCtx::for_graph(graph);
        let peak_bits = states
            .iter()
            .map(|s| s.encoded_bits(&ctx))
            .max()
            .unwrap_or(0);
        let store = ConfigStore::from_slice(config.store, &states, &ctx);
        // The store holds its own copy: free the decoded vector before the initial
        // scan so the two never peak together.
        drop(states);
        let (nbr_offsets, nbr_info) = neighbor_cache(graph);
        let mut exec = Executor {
            graph,
            algo,
            states: store,
            pending: ConfigStore::empty(config.store, n),
            ctx,
            scheduler: Scheduler::new(config.scheduler, n, config.seed),
            rng: StdRng::seed_from_u64(config.seed ^ 0xfa_0717),
            mode: config.mode,
            moves: 0,
            steps: 0,
            rounds: 0,
            guard_evals: 0,
            screen_hits: 0,
            full_decodes: 0,
            nbr_offsets,
            nbr_info,
            in_enabled: Vec::new(),
            enabled_list: Vec::new(),
            enabled_pos: Vec::new(),
            round_words: Vec::new(),
            round_count: 0,
            touched: Vec::new(),
            stamp: 0,
            peak_bits,
            pool: ThreadPool::new(config.threads),
            chosen_buf: Vec::new(),
            refresh_buf: Vec::new(),
            sorted_buf: Vec::new(),
            eval_buf: Vec::new(),
            decode_buf: Vec::new(),
            obs: Obs::disabled(),
            obs_wave: None,
            obs_guard_mark: (0, 0, 0),
            certifies: None,
        };
        exec.rebuild_enabled_set();
        exec.refill_round_pending();
        exec
    }

    /// Creates an executor whose initial configuration is *arbitrary*: every register is
    /// set to a state drawn by [`Algorithm::arbitrary_state`]. This is the standard
    /// starting point for self-stabilization experiments.
    pub fn from_arbitrary(graph: &'g Graph, algo: A, config: ExecutorConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0171_a100);
        let states = graph
            .nodes()
            .map(|v| algo.arbitrary_state(graph, v, &mut rng))
            .collect();
        Executor::with_states(graph, algo, states, config)
    }

    /// The network the algorithm runs on.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The algorithm being executed.
    pub fn algorithm(&self) -> &A {
        &self.algo
    }

    /// The enabled-set maintenance mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The register-store representation.
    pub fn store_mode(&self) -> StoreMode {
        self.states.mode()
    }

    /// The codec field widths of the current instance (what the packed store encodes
    /// with and the space reports account in).
    pub fn codec_ctx(&self) -> &CodecCtx {
        &self.ctx
    }

    /// The current configuration, decoded (one register per node, indexed densely).
    pub fn states(&self) -> Vec<A::State> {
        self.states.decode_all(&self.ctx)
    }

    /// The register of node `v`, decoded.
    pub fn state(&self, v: NodeId) -> A::State {
        self.states.get(v, &self.ctx)
    }

    /// Writes `state` into the snapshot buffer of `v` and raises the peak register
    /// size to it. Returns whether the stored register actually changed: the packed
    /// store compares bits (fingerprint first, exact on a match —
    /// [`ConfigStore::set`]), the struct store compares values, and by codec
    /// exactness the two verdicts are always identical.
    fn write_snapshot(&mut self, v: NodeId, state: A::State) -> bool {
        self.peak_bits = self.peak_bits.max(state.encoded_bits(&self.ctx));
        self.states.set(v, &state, &self.ctx)
    }

    /// Overwrites the register of `v` (models a transient fault targeting `v`).
    /// Re-evaluates the guards of `v`'s closed neighborhood and restarts the round
    /// accounting from the now-enabled set. A fault that leaves the register
    /// bit-identical is skipped outright (no guard in the network can observe it), so
    /// the re-evaluation cost is paid only for faults that actually flipped bits.
    pub fn corrupt_node(&mut self, v: NodeId, state: A::State) {
        if self.write_snapshot(v, state) {
            self.after_faults(&[v], 1);
        }
    }

    /// Corrupts `k` distinct registers chosen uniformly at random, replacing each with an
    /// arbitrary state. Returns the nodes hit. Closed neighborhoods are re-evaluated
    /// only around the nodes whose registers actually changed bits (an "overwrite"
    /// with the very state already stored is invisible to every guard).
    pub fn corrupt_random_nodes(&mut self, k: usize) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.graph.nodes().collect();
        nodes.shuffle(&mut self.rng);
        nodes.truncate(k.min(self.graph.node_count()));
        let changed: Vec<NodeId> = nodes
            .iter()
            .copied()
            .filter(|&v| {
                let state = self.algo.arbitrary_state(self.graph, v, &mut self.rng);
                self.write_snapshot(v, state)
            })
            .collect();
        self.after_faults(&changed, changed.len() as u64);
        nodes
    }

    /// Re-binds the executor to a **mutated** graph mid-run: the caller applied a
    /// batch of [`stst_graph::Mutation`]s to a copy of the network and passes the
    /// mutated graph together with the resulting [`MutationOutcome`]. This is the
    /// guarded-rule layer's topology-churn hook — a link failing or a node leaving is
    /// just another transient change for a self-stabilizing algorithm, so the
    /// executor treats it exactly like the fault hooks:
    ///
    /// * registers survive (remapped through [`MutationOutcome::old_index`] under
    ///   node churn; joining nodes start from an arbitrary state, like the initial
    ///   configuration);
    /// * the per-neighbor constant caches (identities, weights) are rebuilt against
    ///   the new CSR;
    /// * the enabled set is **re-seeded from exactly the dirty nodes**: a guard
    ///   reads only its closed 1-hop neighborhood and every changed edge has both
    ///   endpoints in [`MutationOutcome::dirty`], so no other cached pending
    ///   transition can be stale (`O(Σ_{v dirty} deg(v))` guard evaluations, not
    ///   `O(n·Δ)`; node churn remaps the whole index space and is the one inherently
    ///   `O(n·Δ)` case);
    /// * round accounting restarts at the now-enabled set (paper §II-A — a fresh
    ///   round begins at the post-fault configuration).
    ///
    /// Both graphs must outlive the executor; keep the mutated graph alongside the
    /// original (e.g. `let g1 = { let mut g = g0.clone(); g.apply_mutations(..); g };`).
    ///
    /// # Panics
    ///
    /// Panics if `outcome.old_index` disagrees with the node count of `graph`.
    pub fn apply_topology(&mut self, graph: &'g Graph, outcome: &MutationOutcome) {
        let n = graph.node_count();
        let old_ctx = self.ctx;
        let new_ctx = CodecCtx::for_graph(graph);
        // Decode both configuration buffers out of the store before touching anything:
        // the codec field widths follow the instance (weight drift and joining
        // identities can grow them), so every surviving register — snapshot and cached
        // pending transition alike — is re-encoded under the new context.
        let mut states = self.states.decode_all(&old_ctx);
        let mut pending: Vec<Option<A::State>> = vec![None; states.len()];
        self.pending.decode_present_into(&old_ctx, &mut pending);
        if let Some(old_index) = &outcome.old_index {
            assert_eq!(old_index.len(), n, "outcome does not match the graph");
            let old_states = states;
            states = old_index
                .iter()
                .enumerate()
                .map(|(i, o)| match o {
                    Some(o) => old_states[o.0].clone(),
                    None => self.algo.arbitrary_state(graph, NodeId(i), &mut self.rng),
                })
                .collect();
            pending = vec![None; n];
        }
        // Wider fields under the new context can grow a surviving register, and a
        // joining node brings its own.
        self.peak_bits = states
            .iter()
            .map(|s| s.encoded_bits(&new_ctx))
            .fold(self.peak_bits, usize::max);
        self.ctx = new_ctx;
        self.certifies = None;
        let mode = self.store_mode();
        self.states = ConfigStore::from_slice(mode, &states, &new_ctx);
        self.pending = ConfigStore::from_slots(mode, &pending, &new_ctx);
        // Free the decoded copies before the re-seeding scan below.
        drop((states, pending));
        self.graph = graph;
        (self.nbr_offsets, self.nbr_info) = neighbor_cache(graph);
        if let Some(old_index) = &outcome.old_index {
            // The dense index space was remapped: rebuild the enabled bookkeeping
            // wholesale.
            self.scheduler.remap_nodes(old_index);
            self.rebuild_enabled_set();
        } else {
            self.refresh(&outcome.dirty, Reach::Seeds);
        }
        self.refill_round_pending();
        if self.obs.is_enabled() {
            let wave = self.obs_current_wave();
            let dirty_nodes = if outcome.old_index.is_some() {
                n as u64
            } else {
                outcome.dirty.len() as u64
            };
            self.obs.counter("executor_topology_deltas").inc();
            self.obs.emit(TraceEvent::TopologyDelta {
                layer: Layer::Executor,
                wave,
                dirty_nodes,
                reanchored: 0,
            });
        }
    }

    /// Evaluates `v`'s guard on the current configuration: the next state if `v` is
    /// enabled, `None` otherwise, plus the tier that resolved it. Pure read — does not
    /// touch the executor's caches or counters, which is what lets the parallel wave
    /// run it from worker threads (each worker brings its own scratch; the caller
    /// applies the returned [`GuardPath`]s on its own thread). When the store exposes
    /// a packed heap the algorithm's decode-free screen runs first; on
    /// [`Screen::Unknown`] (or with no heap to screen) the closed neighborhood is read
    /// into `scratch` with [`ConfigStore::get`] and `step` runs on the locally indexed
    /// view — identical guard semantics either way (the screen is required to mirror
    /// `step` exactly on fault-free shapes).
    fn eval_guard(&self, v: NodeId, scratch: &mut Vec<A::State>) -> (Option<A::State>, GuardPath) {
        let range = self.nbr_offsets[v.0] as usize..self.nbr_offsets[v.0 + 1] as usize;
        let infos = &self.nbr_info[range];
        let (ident, n) = (self.graph.ident(v), self.graph.node_count());
        if let Some((heap, stride)) = self.states.raw_parts() {
            let raw = RawView::new(v, ident, n, infos, heap, stride, &self.ctx);
            match self.algo.guard_screen(&raw) {
                Screen::Disabled => return (None, GuardPath::Screened),
                Screen::Enabled(next) => return (Some(next), GuardPath::Screened),
                Screen::Unknown => {}
            }
        }
        scratch.clear();
        scratch.extend(
            infos
                .iter()
                .map(|info| self.states.get(info.node, &self.ctx)),
        );
        scratch.push(self.states.get(v, &self.ctx));
        let view = View::over_decoded(v, ident, n, infos, scratch);
        let next = match self.algo.step(&view) {
            Some(next) if next != scratch[infos.len()] => Some(next),
            _ => None,
        };
        let path = match self.states.mode() {
            StoreMode::Packed => GuardPath::Decoded,
            StoreMode::Struct => GuardPath::Struct,
        };
        (next, path)
    }

    /// Re-evaluates the guards of a frontier and applies the results. The frontier is
    /// `seeds` in order, each followed by its neighbors in CSR order unless `reach`
    /// is [`Reach::Seeds`], then under [`Reach::All`] every other node in node
    /// order; a node's first occurrence wins. No register changes while the frontier
    /// is evaluated, and the enabled-list membership is the one update whose order
    /// matters. A frontier of at least [`PAR_MIN_ITEMS`] guards is therefore
    /// evaluated in ascending node index, where the stores and the neighbor cache lie
    /// (on the worker pool when there is one), each result written to the pending
    /// store, the tier counters and the round bitset as it comes, and a second pass in
    /// frontier order replays the membership changes. A smaller one (a central-daemon
    /// step's closed neighborhood) is evaluated and applied in one pass in frontier
    /// order, where a sort would cost more than it saves. Either way the executor
    /// state depends on neither the thread count nor the evaluation order.
    fn refresh(&mut self, seeds: &[NodeId], reach: Reach) {
        self.bump_stamp();
        let mut frontier = std::mem::take(&mut self.refresh_buf);
        frontier.clear();
        let (touched, stamp) = (&mut self.touched, self.stamp);
        let mut push = |v: NodeId| {
            if touched[v.0] != stamp {
                touched[v.0] = stamp;
                frontier.push(v);
            }
        };
        for &v in seeds {
            push(v);
            if reach != Reach::Seeds {
                let range = self.nbr_offsets[v.0] as usize..self.nbr_offsets[v.0 + 1] as usize;
                self.nbr_info[range].iter().for_each(|info| push(info.node));
            }
        }
        if reach == Reach::All {
            self.graph.nodes().for_each(push);
        }
        self.guard_evals += frontier.len() as u64;
        let mut scratch = std::mem::take(&mut self.decode_buf);
        if frontier.len() < PAR_MIN_ITEMS {
            for &v in &frontier {
                let result = self.eval_guard(v, &mut scratch);
                self.apply_guard(v, result);
                self.replay_membership(v);
            }
            self.decode_buf = scratch;
            self.refresh_buf = frontier;
            return;
        }
        // A sweep's frontier holds every node, so its index order is `0..n`.
        let sweep = reach == Reach::All;
        let mut sorted = std::mem::take(&mut self.sorted_buf);
        sorted.clear();
        if !sweep {
            sorted.extend(frontier.iter().map(|v| v.0 as u32));
            sorted.sort_unstable();
        }
        let node = |i: usize| NodeId(if sweep { i } else { sorted[i] as usize });
        let mut results = std::mem::take(&mut self.eval_buf);
        if self.pool.is_parallel() {
            results.resize(frontier.len(), (None, GuardPath::Struct));
            self.pool
                .fill_with_init(&mut results, Vec::new, |scratch, i| {
                    self.eval_guard(node(i), scratch)
                });
            for (i, result) in results.drain(..).enumerate() {
                self.apply_guard(node(i), result);
            }
        } else {
            for i in 0..frontier.len() {
                let result = self.eval_guard(node(i), &mut scratch);
                self.apply_guard(node(i), result);
            }
        }
        for &v in &frontier {
            self.replay_membership(v);
        }
        self.decode_buf = scratch;
        // A sweep's buffers hold every node: kept, they would pin O(n) words for the
        // executor's lifetime (construction and node churn are one-offs).
        if !sweep {
            self.refresh_buf = frontier;
            self.sorted_buf = sorted;
            self.eval_buf = results;
        }
    }

    /// Applies one evaluated guard on the calling thread (never from workers): counts
    /// the tier that resolved it, then writes or clears the pending slot, and clears
    /// the round bit of a node found disabled (a no-op for one that already was: round
    /// bits are a subset of the enabled set). None of these updates depends on the
    /// order they are applied in.
    fn apply_guard(&mut self, v: NodeId, (next, path): (Option<A::State>, GuardPath)) {
        match path {
            GuardPath::Struct => {}
            GuardPath::Screened => self.screen_hits += 1,
            GuardPath::Decoded => self.full_decodes += 1,
        }
        match &next {
            Some(s) => {
                self.pending.set(v, s, &self.ctx);
            }
            None => {
                debug_assert!(
                    self.in_enabled[v.0] || self.round_words[v.0 >> 6] & (1 << (v.0 & 63)) == 0,
                    "round bits are a subset of the enabled set"
                );
                self.pending.clear(v);
                self.clear_round_bit(v);
            }
        }
    }

    /// Brings `v`'s membership in the indexed enabled set in line with its pending
    /// slot (present iff enabled, invariant 1). Called in frontier order: the pushes
    /// and swap-removes lay the enabled list out, and the daemons index into it.
    fn replay_membership(&mut self, v: NodeId) {
        let now = self.pending.is_present(v);
        let was = self.in_enabled[v.0];
        if now && !was {
            self.enabled_pos[v.0] = self.enabled_list.len();
            self.enabled_list.push(v);
            self.in_enabled[v.0] = true;
        } else if !now && was {
            let pos = self.enabled_pos[v.0];
            self.enabled_list.swap_remove(pos);
            if pos < self.enabled_list.len() {
                self.enabled_pos[self.enabled_list[pos].0] = pos;
            }
            self.enabled_pos[v.0] = usize::MAX;
            self.in_enabled[v.0] = false;
        }
    }

    /// Sizes the enabled-set bookkeeping to the current graph with every node
    /// disabled, then evaluates every guard in node order (construction, and node
    /// churn, which remaps the index space). The pending store must be empty.
    fn rebuild_enabled_set(&mut self) {
        let n = self.graph.node_count();
        self.in_enabled.clear();
        self.in_enabled.resize(n, false);
        self.enabled_list.clear();
        self.enabled_pos.clear();
        self.enabled_pos.resize(n, usize::MAX);
        self.round_words.clear();
        self.round_words.resize(n.div_ceil(64), 0);
        self.round_count = 0;
        self.touched.clear();
        self.touched.resize(n, 0);
        self.stamp = 0;
        self.refresh(&[], Reach::All);
    }

    /// Starts a new deduplication epoch for guard re-evaluation.
    fn bump_stamp(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.touched.fill(0);
            self.stamp = 1;
        }
    }

    #[inline]
    fn clear_round_bit(&mut self, v: NodeId) {
        let (word, bit) = (v.0 >> 6, 1u64 << (v.0 & 63));
        if self.round_words[word] & bit != 0 {
            self.round_words[word] &= !bit;
            self.round_count -= 1;
        }
    }

    /// Resets the round bitset to the currently enabled set (a fresh round begins).
    ///
    /// Under the packed store this is word-parallel: invariant 1 makes the pending
    /// buffer's presence bitmap *equal* to the enabled set, so the refill is a
    /// word-copy plus popcounts over `n/64` words instead of a zero-fill plus one
    /// scatter write per enabled node — whole runs of disabled nodes cost one word.
    fn refill_round_pending(&mut self) {
        if let Some(words) = self.pending.present_words() {
            let mut count = 0usize;
            for (dst, &src) in self.round_words.iter_mut().zip(words) {
                *dst = src;
                count += src.count_ones() as usize;
            }
            debug_assert_eq!(count, self.enabled_list.len());
            self.round_count = count;
            return;
        }
        self.round_words.iter_mut().for_each(|w| *w = 0);
        let words = &mut self.round_words;
        for &v in &self.enabled_list {
            words[v.0 >> 6] |= 1u64 << (v.0 & 63);
        }
        self.round_count = self.enabled_list.len();
    }

    /// `true` if node `v` is enabled in the current configuration.
    pub fn is_enabled(&self, v: NodeId) -> bool {
        self.in_enabled[v.0]
    }

    /// Number of enabled nodes in the current configuration (`O(1)`).
    pub fn enabled_count(&self) -> usize {
        self.enabled_list.len()
    }

    /// All enabled nodes of the current configuration, in ascending index order.
    /// Allocating wrapper around [`Executor::enabled_nodes_into`] — per-step loops
    /// (the differential oracles) should reuse a scratch buffer through that instead.
    pub fn enabled_nodes(&self) -> Vec<NodeId> {
        let mut nodes = Vec::with_capacity(self.enabled_list.len());
        self.enabled_nodes_into(&mut nodes);
        nodes
    }

    /// Writes the enabled nodes, in ascending index order, into `out` (cleared first).
    /// Reusing one scratch buffer across a step loop avoids cloning the whole enabled
    /// list every step.
    pub fn enabled_nodes_into(&self, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(&self.enabled_list);
        out.sort_unstable();
    }

    /// Brute-force oracle: recomputes the enabled set by evaluating every guard from
    /// scratch, bypassing all caches. The differential tests assert that this always
    /// equals [`Executor::enabled_nodes`].
    pub fn rescan_enabled_nodes(&self) -> Vec<NodeId> {
        let mut scratch = Vec::new();
        self.graph
            .nodes()
            .filter(|&v| self.eval_guard(v, &mut scratch).0.is_some())
            .collect()
    }

    /// `true` if no node is enabled (the algorithm is silent in this configuration).
    /// `O(1)` — the enabled set is maintained incrementally.
    pub fn is_quiescent(&self) -> bool {
        self.enabled_list.is_empty()
    }

    /// Number of rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Number of moves (node activations) so far.
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Number of daemon steps so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Total guard evaluations so far (initialization scan included).
    pub fn guard_evaluations(&self) -> u64 {
        self.guard_evals
    }

    /// Guard evaluations the decode-free screen resolved (packed store only; always
    /// zero under [`StoreMode::Struct`], which has no heap to screen). In packed
    /// mode `guard_screen_hits() + guard_full_decodes() == guard_evaluations()`.
    pub fn guard_screen_hits(&self) -> u64 {
        self.screen_hits
    }

    /// Guard evaluations that decoded the whole closed neighborhood (packed store
    /// only): the screen returned [`Screen::Unknown`] — some register held escaped
    /// fault garbage or the algorithm offers no screen.
    pub fn guard_full_decodes(&self) -> u64 {
        self.full_decodes
    }

    /// Attaches an observability handle. Subsequent waves emit
    /// [`TraceEvent::WaveStart`]/[`TraceEvent::WaveEnd`]/[`TraceEvent::GuardBatch`]
    /// into its trace ring, and the guard-tier counters are published to its registry
    /// (`executor_guard_evaluations` / `executor_guard_screen_hits` /
    /// `executor_guard_full_decodes`). The counters accumulated so far — including
    /// the construction-time initial scan — are folded into the registry at the next
    /// publish, so the registry totals always equal [`Executor::guard_evaluations`]
    /// and friends.
    ///
    /// Instrumentation is determinism-transparent: attaching an enabled handle never
    /// changes a bit of the execution (pinned by `tests/parallel_determinism.rs` and
    /// `tests/packed_store_oracle.rs`).
    pub fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs;
        self.obs_wave = None;
        self.obs_guard_mark = (0, 0, 0);
    }

    /// The attached observability handle (disabled unless [`Executor::attach_obs`]
    /// was called).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Publishes the guard-counter deltas since the last publish: a `GuardBatch`
    /// trace event stamped with `wave` plus registry counter increments. No-op when
    /// nothing accumulated.
    fn obs_publish_guards(&mut self, wave: u64) {
        let evals = self.guard_evals - self.obs_guard_mark.0;
        let screen_hits = self.screen_hits - self.obs_guard_mark.1;
        let full_decodes = self.full_decodes - self.obs_guard_mark.2;
        if evals == 0 {
            return;
        }
        self.obs_guard_mark = (self.guard_evals, self.screen_hits, self.full_decodes);
        self.obs.counter("executor_guard_evaluations").add(evals);
        self.obs
            .counter("executor_guard_screen_hits")
            .add(screen_hits);
        self.obs
            .counter("executor_guard_full_decodes")
            .add(full_decodes);
        self.obs.emit(TraceEvent::GuardBatch {
            layer: Layer::Executor,
            wave,
            evals,
            screen_hits,
            full_decodes,
        });
    }

    /// The wave index to stamp an out-of-band event with: the open wave if one is in
    /// progress, otherwise the index the next wave will get (keeps per-layer wave
    /// sequences monotone).
    fn obs_current_wave(&self) -> u64 {
        self.obs_wave
            .unwrap_or_else(|| self.obs.peek_wave(Layer::Executor))
    }

    /// Reacts to faults that flipped the registers of `changed`: re-evaluates their
    /// closed neighborhoods, restarts the round accounting at the now-enabled set and
    /// emits a `CorruptionInjected` event for `nodes` faults. Injections invisible to
    /// every guard (`changed` empty) cost nothing and emit nothing.
    fn after_faults(&mut self, changed: &[NodeId], nodes: u64) {
        if changed.is_empty() {
            return;
        }
        self.refresh(changed, Reach::Neighborhoods);
        self.refill_round_pending();
        if !self.obs.is_enabled() {
            return;
        }
        let wave = self.obs_current_wave();
        self.obs.counter("executor_corruptions_injected").add(nodes);
        self.obs.emit(TraceEvent::CorruptionInjected {
            layer: Layer::Executor,
            wave,
            nodes,
        });
    }

    /// Trace bookkeeping at quiescence: flushes guard deltas accumulated outside a
    /// completed round (e.g. by fault-injection refreshes), emits `SilenceReached`,
    /// and publishes the round/move/step totals as gauges.
    fn obs_note_silence(&mut self) {
        if !self.obs.is_enabled() {
            return;
        }
        let wave = self.obs_current_wave();
        self.obs_publish_guards(wave);
        self.obs.emit(TraceEvent::SilenceReached {
            layer: Layer::Executor,
            wave,
            rounds: self.rounds,
        });
        self.obs.gauge("executor_rounds").set(self.rounds);
        self.obs.gauge("executor_moves").set(self.moves);
        self.obs.gauge("executor_steps").set(self.steps);
    }

    /// Executes one daemon step. Returns the nodes that were activated (borrowed from
    /// an internal scratch buffer, valid until the next `&mut self` call), or an empty
    /// slice if the configuration was already quiescent.
    pub fn step_once(&mut self) -> &[NodeId] {
        if self.enabled_list.is_empty() {
            self.chosen_buf.clear();
            return &self.chosen_buf;
        }
        if self.round_count == 0 {
            // Defensive: a round in progress always tracks some pending node; if the
            // bookkeeping was reset externally, restart the round at the current set.
            self.refill_round_pending();
        }
        if self.obs.is_enabled() && self.obs_wave.is_none() {
            let wave = self.obs.begin_wave(Layer::Executor);
            self.obs_wave = Some(wave);
            self.obs.emit(TraceEvent::WaveStart {
                layer: Layer::Executor,
                wave,
            });
        }
        let mut chosen = std::mem::take(&mut self.chosen_buf);
        self.scheduler.select_into(&self.enabled_list, &mut chosen);
        // All chosen nodes read the same pre-step configuration (their reads are
        // concurrent): the cached pending transitions were all computed against it, so
        // applying them in sequence is exactly the simultaneous write.
        for &v in &chosen {
            if let Some(next) = self.pending.take(v, &self.ctx) {
                let wrote = self.write_snapshot(v, next);
                debug_assert!(wrote, "a pending transition always changes the register");
                self.moves += 1;
            }
        }
        self.steps += 1;
        // Round accounting (paper §II-A): the round ends once every node that was
        // enabled at its start has been activated or has become disabled.
        for &v in &chosen {
            self.clear_round_bit(v);
        }
        let reach = match self.mode {
            ExecMode::Incremental => Reach::Neighborhoods,
            ExecMode::FullRescan => Reach::All,
        };
        self.refresh(&chosen, reach);
        if self.round_count == 0 {
            self.rounds += 1;
            self.refill_round_pending();
            if let Some(wave) = self.obs_wave.take() {
                self.obs_publish_guards(wave);
                self.obs.emit(TraceEvent::WaveEnd {
                    layer: Layer::Executor,
                    wave,
                    rounds: 1,
                });
            }
        }
        self.chosen_buf = chosen;
        &self.chosen_buf
    }

    /// Runs until no node is enabled or the step budget runs out.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::StepBudgetExhausted`] if quiescence is not reached within
    /// `max_steps` daemon steps.
    pub fn run_to_quiescence(&mut self, max_steps: u64) -> Result<Quiescence, ExecError> {
        for _ in 0..max_steps {
            if self.is_quiescent() {
                break;
            }
            self.step_once();
        }
        if self.is_quiescent() {
            self.obs_note_silence();
            Ok(self.quiescence())
        } else {
            Err(ExecError::StepBudgetExhausted {
                steps: self.steps,
                rounds: self.rounds,
            })
        }
    }

    /// The measurements of the current, quiescent configuration. Its `legal` is the
    /// certified verdict: the cached premise, evaluated here once per graph.
    fn quiescence(&mut self) -> Quiescence {
        let legal = *self
            .certifies
            .get_or_insert_with(|| self.algo.silence_certifies(self.graph));
        debug_assert!(
            !legal || self.check_legal(),
            "{}: the premise certifies a silent configuration the oracle rejects",
            self.algo.name()
        );
        Quiescence {
            silent: true,
            rounds: self.rounds,
            moves: self.moves,
            steps: self.steps,
            legal,
        }
    }

    /// The oracle: decodes every register and runs [`Algorithm::is_legal`] on the
    /// current configuration, `O(n)` decodes plus the predicate. [`Quiescence::legal`]
    /// is the certified verdict it checks; tests and experiments call this to verify a
    /// run independently of the theorem.
    pub fn check_legal(&self) -> bool {
        self.algo.is_legal(self.graph, &self.states())
    }

    /// Space usage of the *current* configuration, in codec-accounted bits (which,
    /// under the packed store, are the bits actually allocated per slot payload).
    pub fn space_report(&self) -> SpaceReport {
        let n = self.states.len();
        let (max_bits, total_bits) = (0..n)
            .map(|i| self.state(NodeId(i)).encoded_bits(&self.ctx))
            .fold((0, 0), |(max, total), bits| (max.max(bits), total + bits));
        SpaceReport {
            max_bits,
            avg_bits: total_bits as f64 / n.max(1) as f64,
            total_bits,
        }
    }

    /// Measured memory of the configuration storage (snapshot + pending buffers)
    /// against the accounted register bits — the allocated-vs-accounted comparison of
    /// the E5/E7/E11 space tables.
    pub fn store_report(&self) -> StoreReport {
        let n = self.graph.node_count().max(1);
        let measured_bytes = self.states.measured().bytes + self.pending.measured().bytes;
        let accounted_bits = self.states.accounted_bits(&self.ctx);
        StoreReport {
            mode: self.store_mode(),
            measured_bytes,
            accounted_bits,
            bytes_per_node: measured_bytes as f64 / n as f64,
            accounted_bits_per_node: accounted_bits as f64 / n as f64,
        }
    }

    /// The largest register, in codec-accounted bits, any node held at any point of
    /// the execution, nodes that left under churn included (the honest measure of the
    /// algorithm's space complexity).
    pub fn peak_register_bits(&self) -> usize {
        self.peak_bits
    }

    /// Per-node activation counts (useful to visualize scheduler unfairness).
    pub fn activation_counts(&self) -> Vec<u64> {
        self.graph
            .nodes()
            .map(|v| self.scheduler.activation_count(v))
            .collect()
    }

    /// Overwrites the register of `v` with `k` successive arbitrary states — the
    /// "keep hitting the same register" fault pattern: unlike
    /// [`Executor::corrupt_random_nodes`] the damage concentrates on one node,
    /// modelling a faulty component rather than scattered transients. Every overwrite
    /// draws from the fault RNG and runs through the same changed-bits screen as
    /// [`Executor::corrupt_node`]; guards are re-evaluated once, after the last hit
    /// (intermediate values are never observable — registers are atomic). Returns how
    /// many of the `k` overwrites actually flipped stored bits.
    pub fn corrupt_node_repeatedly(&mut self, v: NodeId, k: usize) -> usize {
        let mut changed = 0usize;
        for _ in 0..k {
            let state = self.algo.arbitrary_state(self.graph, v, &mut self.rng);
            if self.write_snapshot(v, state) {
                changed += 1;
            }
        }
        if changed > 0 {
            self.after_faults(&[v], 1);
        }
        changed
    }

    /// Serializes the executor's **complete** execution state into a versioned,
    /// checksummed [`Snapshot`]: the configuration (every register, as one packed
    /// codec bitstream — the same `O(log² n)`-bit layout the packed store holds), the
    /// move/step/round/guard counters, the mid-round bitset, the peak register size,
    /// and both RNG streams (executor fault RNG and the daemon's full decision state).
    ///
    /// [`Executor::restore`] rebuilds an executor that continues the execution
    /// **bit-identically**: every future daemon choice, register write and counter
    /// increment matches the uninterrupted run. The enabled *set* and the
    /// pending-transition cache are *not* serialized — they are a pure function of the
    /// configuration and are rebuilt by the restore scan (DESIGN.md §2.11). The
    /// enabled list's *order*, however, is execution state like the RNG streams: the
    /// daemons index into it, and its layout depends on the history of swap-removes
    /// that produced it — so the order is serialized and reimposed on the rebuilt set.
    pub fn checkpoint(&self) -> Snapshot {
        // Clock reads are gated on the handle so a disabled run never touches the
        // timer; the event is emitted through the shared ring (`&self` is enough).
        let timer = self.obs.is_enabled().then(std::time::Instant::now);
        let n = self.graph.node_count();
        let mut words: Vec<u64> = vec![persist::graph_fingerprint(self.graph), n as u64];
        words.push(self.moves);
        words.push(self.steps);
        words.push(self.rounds);
        words.push(self.guard_evals);
        words.push(self.screen_hits);
        words.push(self.full_decodes);
        words.extend_from_slice(&self.rng.state());
        let sched = self.scheduler.export_state();
        words.push(sched.kind.tag());
        words.push(sched.cursor as u64);
        words.extend_from_slice(&sched.rng);
        words.extend_from_slice(&sched.activations);
        words.push(self.round_count as u64);
        words.extend_from_slice(&self.round_words);
        words.push(self.peak_bits as u64);
        words.push(self.enabled_list.len() as u64);
        words.extend(self.enabled_list.iter().map(|&v| v.0 as u64));
        persist::push_codec_stream(&mut words, &self.states(), &self.ctx);
        let snapshot = Snapshot::new(persist::KIND_EXECUTOR, words);
        if let Some(started) = timer {
            self.obs.emit(TraceEvent::Checkpoint {
                layer: Layer::Executor,
                wave: self.obs_current_wave(),
                bytes: snapshot.byte_len() as u64,
                ms: started.elapsed().as_secs_f64() * 1e3,
            });
        }
        snapshot
    }

    /// Rebuilds an executor from a [`Snapshot`] written by [`Executor::checkpoint`],
    /// resuming the execution bit-identically to the uninterrupted run.
    ///
    /// `graph` must be the network the snapshot was taken on (checked by
    /// fingerprint); `config` supplies the *representation* choices — store mode,
    /// enabled-set mode and thread count — which may freely differ from the
    /// checkpointing process: each changes only the work counters, never the
    /// execution (the differential oracles pin that executions are bit-identical
    /// across all of them). The daemon kind, its RNG stream and the fault RNG come
    /// from the snapshot: they are execution state, not representation.
    ///
    /// # Errors
    ///
    /// Returns a typed [`RestoreError`] — never panics, never loads garbage — on a
    /// snapshot of the wrong kind, for a different graph, or with a payload that does
    /// not parse.
    pub fn restore(
        graph: &'g Graph,
        algo: A,
        snapshot: &Snapshot,
        config: ExecutorConfig,
    ) -> Result<Self, RestoreError> {
        snapshot.expect_kind(persist::KIND_EXECUTOR)?;
        let mut r = SnapshotReader::new(snapshot);
        if r.next_word()? != persist::graph_fingerprint(graph) {
            return Err(RestoreError::GraphMismatch);
        }
        let n = r.next_usize()?;
        if n != graph.node_count() {
            return Err(RestoreError::GraphMismatch);
        }
        let moves = r.next_word()?;
        let steps = r.next_word()?;
        let rounds = r.next_word()?;
        let guard_evals = r.next_word()?;
        let screen_hits = r.next_word()?;
        let full_decodes = r.next_word()?;
        let rng_state = r.next_words()?;
        let kind = SchedulerKind::from_tag(r.next_word()?)
            .ok_or(RestoreError::Malformed("unknown scheduler kind"))?;
        let cursor = r.next_usize()?;
        let sched_rng = r.next_words()?;
        let activations = r.take(n)?.to_vec();
        let round_count = r.next_usize()?;
        let round_words = r.take(n.div_ceil(64))?.to_vec();
        let peak_bits = r.next_usize()?;
        let enabled_len = r.next_usize()?;
        if enabled_len > n || round_count > n {
            return Err(RestoreError::Malformed("length field out of range"));
        }
        let enabled_order = r.take_usizes(enabled_len)?;
        let states: Vec<A::State> =
            persist::read_codec_stream(&mut r, n, &CodecCtx::for_graph(graph))?;
        r.expect_exhausted()?;
        let mut exec = Executor::with_states(
            graph,
            algo,
            states,
            ExecutorConfig {
                scheduler: kind,
                ..config
            },
        );
        // The round bitset must be a subset of the (deterministically rebuilt) enabled
        // set and agree with its population count — true of every self-produced
        // snapshot, verified rather than assumed.
        let mut popcount = 0usize;
        for (word_idx, &word) in round_words.iter().enumerate() {
            popcount += word.count_ones() as usize;
            let mut bits = word;
            while bits != 0 {
                let v = (word_idx << 6) + bits.trailing_zeros() as usize;
                if v >= n || !exec.in_enabled[v] {
                    return Err(RestoreError::Malformed(
                        "round bitset is not a subset of the enabled set",
                    ));
                }
                bits &= bits - 1;
            }
        }
        if popcount != round_count {
            return Err(RestoreError::Malformed("round bitset population mismatch"));
        }
        // The serialized enabled order must be a permutation of the rebuilt enabled
        // set; reimpose it so the daemons' indexed picks continue bit-identically.
        if enabled_order.len() != exec.enabled_list.len() {
            return Err(RestoreError::Malformed(
                "enabled order does not match the enabled set",
            ));
        }
        let mut seen = vec![false; n];
        for &v in &enabled_order {
            if v >= n || !exec.in_enabled[v] || seen[v] {
                return Err(RestoreError::Malformed(
                    "enabled order does not match the enabled set",
                ));
            }
            seen[v] = true;
        }
        exec.enabled_list = enabled_order.into_iter().map(NodeId).collect();
        for (pos, &v) in exec.enabled_list.iter().enumerate() {
            exec.enabled_pos[v.0] = pos;
        }
        exec.moves = moves;
        exec.steps = steps;
        exec.rounds = rounds;
        exec.guard_evals = guard_evals;
        exec.screen_hits = screen_hits;
        exec.full_decodes = full_decodes;
        exec.rng = StdRng::from_state(rng_state);
        exec.scheduler = Scheduler::from_state(SchedulerState {
            kind,
            cursor,
            rng: sched_rng,
            activations,
        });
        exec.round_words = round_words;
        exec.round_count = round_count;
        exec.peak_bits = peak_bits;
        Ok(exec)
    }
}

impl<'g, A: Algorithm> Executor<'g, A>
where
    A::State: ParentPointer,
{
    /// Decodes the spanning tree encoded by the parent pointers of the current
    /// configuration (paper §II-B): `p(v)` is an identity, `⊥` marks the root.
    ///
    /// # Errors
    ///
    /// Returns a [`TreeError`] if the parent pointers do not encode a spanning tree of
    /// the graph (e.g. a parent identity that is not a neighbor, several roots, or a
    /// cycle).
    pub fn extract_tree(&self) -> Result<Tree, TreeError> {
        parent_pointer_tree(self.graph, &self.states())
    }
}

/// The per-neighbor constants guards read (identity and weight of every incident
/// edge's far end), in CSR order: the offsets of each node's run, then the runs.
fn neighbor_cache(graph: &Graph) -> (Vec<u32>, Vec<NeighborInfo>) {
    let mut offsets = Vec::with_capacity(graph.node_count() + 1);
    offsets.push(0u32);
    let mut info = Vec::with_capacity(2 * graph.edge_count());
    for v in graph.nodes() {
        for &(w, e) in graph.neighbors(v) {
            info.push(NeighborInfo {
                node: w,
                ident: graph.ident(w),
                weight: graph.weight(e),
            });
        }
        offsets.push(info.len() as u32);
    }
    (offsets, info)
}

/// Decodes the spanning tree encoded by a configuration of parent-pointer registers.
///
/// # Errors
///
/// Returns a [`TreeError`] if the pointers do not encode a spanning tree of `graph`.
pub fn parent_pointer_tree<S: ParentPointer>(
    graph: &Graph,
    states: &[S],
) -> Result<Tree, TreeError> {
    let mut parents: Vec<Option<NodeId>> = Vec::with_capacity(graph.node_count());
    for v in graph.nodes() {
        match states[v.0].parent_ident() {
            None => parents.push(None),
            Some(id) => {
                // The parent must be a neighbor carrying that identity.
                let parent = graph
                    .neighbors(v)
                    .iter()
                    .map(|&(w, _)| w)
                    .find(|&w| graph.ident(w) == id);
                match parent {
                    Some(p) => parents.push(Some(p)),
                    None => return Err(TreeError::ParentOutOfRange { node: v }),
                }
            }
        }
    }
    Tree::from_parents_in(graph, parents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use stst_graph::generators;
    use stst_graph::Ident;

    /// Toy algorithm: propagate the maximum identity seen so far ("flooding max").
    /// Silent, converges in at most `diameter` rounds, legal when all agree on the
    /// global maximum identity.
    struct FloodMax;

    impl Algorithm for FloodMax {
        type State = u64;

        fn name(&self) -> &str {
            "flood-max"
        }

        fn arbitrary_state(&self, graph: &Graph, _node: NodeId, rng: &mut StdRng) -> u64 {
            // Arbitrary garbage, possibly larger than any real identity — the algorithm
            // below is *not* resilient to that (flood-max famously is not
            // self-stabilizing), which the tests exploit.
            rng.gen_range(0..2 * graph.node_count() as u64)
        }

        fn step(&self, view: &View<'_, u64>) -> Option<u64> {
            let best = view
                .neighbors()
                .map(|nb| *nb.state)
                .chain(std::iter::once(view.ident))
                .max()
                .expect("closed neighborhood is non-empty");
            (best > *view.state).then_some(best)
        }

        /// Not self-stabilizing, so no premise makes its silence legal: it certifies
        /// nothing, and the tests below ask the oracle.
        fn silence_certifies(&self, _graph: &Graph) -> bool {
            false
        }

        fn is_legal(&self, graph: &Graph, states: &[u64]) -> bool {
            let max_id = graph.nodes().map(|v| graph.ident(v)).max().unwrap_or(0);
            states.iter().all(|&s| s == max_id)
        }
    }

    /// Parent-pointer register for tree-extraction tests.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Ptr(Option<Ident>);

    impl Codec for Ptr {
        fn encoded_bits(&self, ctx: &CodecCtx) -> usize {
            CodecCtx::opt_uint_bits(&self.0, ctx.ident_bits)
        }

        fn encode_into(&self, ctx: &CodecCtx, w: &mut crate::bits::BitWriter<'_>) {
            CodecCtx::write_opt_uint(w, &self.0, ctx.ident_bits);
        }

        fn decode_from(ctx: &CodecCtx, r: &mut crate::bits::BitReader<'_>) -> Self {
            Ptr(CodecCtx::read_opt_uint(r, ctx.ident_bits))
        }
    }

    impl ParentPointer for Ptr {
        fn parent_ident(&self) -> Option<Ident> {
            self.0
        }
    }

    #[test]
    fn flood_max_converges_and_counts_rounds() {
        let g = generators::path(8);
        // Start from the all-zero configuration (not arbitrary — flood-max is only a
        // plumbing test, not a self-stabilizing algorithm).
        let exec_config = ExecutorConfig::with_scheduler(3, SchedulerKind::Synchronous);
        let mut exec = Executor::with_states(&g, FloodMax, vec![0u64; 8], exec_config);
        let q = exec.run_to_quiescence(10_000).unwrap();
        assert!(q.silent);
        assert!(!q.legal, "flood-max certifies nothing");
        assert!(exec.check_legal());
        // Under the synchronous daemon every node first adopts its own identity
        // (round 1), then the maximum identity (node 7, ident 8) travels one hop per
        // round: 7 more rounds to reach node 0.
        assert_eq!(q.rounds, 8);
        assert!(q.moves >= 7);
        assert!(exec.is_quiescent());
    }

    #[test]
    fn all_daemons_reach_the_same_fixed_point() {
        let g = generators::random_connected(20, 0.15, 4);
        for kind in SchedulerKind::all() {
            let mut exec = Executor::with_states(
                &g,
                FloodMax,
                vec![0u64; 20],
                ExecutorConfig::with_scheduler(11, kind),
            );
            exec.run_to_quiescence(200_000).unwrap();
            assert!(
                exec.check_legal(),
                "daemon {kind} must still converge to the max"
            );
        }
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let g = generators::path(6);
        let mut exec = Executor::with_states(
            &g,
            FloodMax,
            vec![0u64; 6],
            ExecutorConfig::with_scheduler(0, SchedulerKind::Central),
        );
        let err = exec.run_to_quiescence(1).unwrap_err();
        assert!(matches!(
            err,
            ExecError::StepBudgetExhausted { steps: 1, .. }
        ));
    }

    #[test]
    fn corruption_reactivates_the_system() {
        let g = generators::path(5);
        let mut exec =
            Executor::with_states(&g, FloodMax, vec![0u64; 5], ExecutorConfig::seeded(1));
        exec.run_to_quiescence(10_000).unwrap();
        assert!(exec.is_quiescent());
        // Corrupt one register downwards: its neighbors are unaffected but the node
        // itself becomes enabled again.
        exec.corrupt_node(NodeId(2), 0);
        assert!(!exec.is_quiescent());
        exec.run_to_quiescence(10_000).unwrap();
        assert!(exec.check_legal());
    }

    #[test]
    fn random_corruption_hits_the_requested_number_of_nodes() {
        let g = generators::ring(10);
        let mut exec = Executor::from_arbitrary(&g, FloodMax, ExecutorConfig::seeded(5));
        let hit = exec.corrupt_random_nodes(4);
        assert_eq!(hit.len(), 4);
        let hit_all = exec.corrupt_random_nodes(100);
        assert_eq!(hit_all.len(), 10);
    }

    #[test]
    fn space_reports_track_current_and_peak_sizes() {
        let g = generators::path(3);
        let mut exec =
            Executor::with_states(&g, FloodMax, vec![0u64, 1023, 0], ExecutorConfig::seeded(2));
        // path(3) grants identities a (1 escape + 5)-bit field (covers the 0..=2n
        // garbage range with headroom); 1023 blows the field and escapes to 1 + 64.
        let ident_field = 1 + exec.codec_ctx().ident_bits as usize;
        let now = exec.space_report();
        assert_eq!(now.max_bits, 65);
        assert_eq!(now.total_bits, 65 + 2 * ident_field);
        assert_eq!(exec.peak_register_bits(), 65);
        exec.run_to_quiescence(1_000).unwrap();
        // After convergence every register holds 1023 (the corrupted maximum), so the
        // peak equals the current size.
        assert_eq!(exec.space_report().max_bits, 65);
        assert_eq!(exec.peak_register_bits(), 65);
        // Shrinking every register again leaves the peak where it was.
        for v in g.nodes() {
            exec.corrupt_node(v, 0);
        }
        assert_eq!(exec.space_report().max_bits, ident_field);
        assert_eq!(exec.peak_register_bits(), 65);
    }

    #[test]
    fn packed_store_memory_tracks_the_accounted_bits() {
        let g = generators::random_connected(200, 0.03, 1);
        let mut packed = Executor::from_arbitrary(&g, FloodMax, ExecutorConfig::seeded(4));
        let mut structs = Executor::from_arbitrary(
            &g,
            FloodMax,
            ExecutorConfig::seeded(4).with_store(StoreMode::Struct),
        );
        assert_eq!(packed.store_mode(), StoreMode::Packed);
        assert_eq!(structs.store_mode(), StoreMode::Struct);
        let qp = packed.run_to_quiescence(1_000_000).unwrap();
        let qs = structs.run_to_quiescence(1_000_000).unwrap();
        assert_eq!(qp, qs, "stores must not change the execution");
        assert_eq!(packed.states(), structs.states());
        let pr = packed.store_report();
        let sr = structs.store_report();
        assert_eq!(pr.accounted_bits, sr.accounted_bits);
        // The packed double buffer stays within 4x of the accounted bits; the struct
        // reference pays an order of magnitude more.
        assert!(
            (pr.measured_bytes as u64) * 8 <= 4 * pr.accounted_bits,
            "packed store: {} bytes for {} accounted bits",
            pr.measured_bytes,
            pr.accounted_bits
        );
        assert!(pr.measured_bytes * 4 < sr.measured_bytes);
    }

    #[test]
    fn guard_tier_counters_account_every_packed_evaluation() {
        // Flood-max has no screen, so on the packed store every evaluation falls
        // through to a full decode; the struct path has nothing to screen or decode.
        let g = generators::random_connected(60, 0.08, 12);
        let mut packed = Executor::from_arbitrary(&g, FloodMax, ExecutorConfig::seeded(12));
        packed.run_to_quiescence(1_000_000).unwrap();
        assert_eq!(packed.guard_screen_hits(), 0);
        assert_eq!(packed.guard_full_decodes(), packed.guard_evaluations());
        let mut structs = Executor::from_arbitrary(
            &g,
            FloodMax,
            ExecutorConfig::seeded(12).with_store(StoreMode::Struct),
        );
        structs.run_to_quiescence(1_000_000).unwrap();
        assert_eq!(structs.guard_screen_hits(), 0);
        assert_eq!(structs.guard_full_decodes(), 0);
        assert_eq!(structs.guard_evaluations(), packed.guard_evaluations());
    }

    #[test]
    fn bit_identical_corruption_is_invisible() {
        // Overwriting a register with the exact state it already holds must not
        // re-evaluate anything or restart the round accounting, in either store mode.
        for store in [StoreMode::Packed, StoreMode::Struct] {
            let g = generators::path(5);
            let config = ExecutorConfig::seeded(1).with_store(store);
            let mut exec = Executor::with_states(&g, FloodMax, vec![0u64; 5], config);
            exec.run_to_quiescence(10_000).unwrap();
            let settled = exec.state(NodeId(2));
            let evals = exec.guard_evaluations();
            exec.corrupt_node(NodeId(2), settled);
            assert!(exec.is_quiescent(), "{store:?}");
            assert_eq!(exec.guard_evaluations(), evals, "{store:?}");
            // A fault that actually flips bits still reactivates the system.
            exec.corrupt_node(NodeId(2), 0);
            assert!(!exec.is_quiescent(), "{store:?}");
            assert!(exec.guard_evaluations() > evals, "{store:?}");
        }
    }

    #[test]
    fn tree_extraction_decodes_parent_identities() {
        let g = generators::path(4); // identities 1,2,3,4
        let states = vec![Ptr(None), Ptr(Some(1)), Ptr(Some(2)), Ptr(Some(3))];
        let tree = parent_pointer_tree(&g, &states).unwrap();
        assert_eq!(tree.root(), NodeId(0));
        assert_eq!(tree.parent(NodeId(3)), Some(NodeId(2)));
        // A parent identity that is not a neighbor is rejected.
        let bad = vec![Ptr(None), Ptr(Some(4)), Ptr(Some(2)), Ptr(Some(3))];
        assert!(parent_pointer_tree(&g, &bad).is_err());
        // Two roots are rejected.
        let two_roots = vec![Ptr(None), Ptr(None), Ptr(Some(2)), Ptr(Some(3))];
        assert!(parent_pointer_tree(&g, &two_roots).is_err());
    }

    #[test]
    fn activation_counts_reflect_daemon_choices() {
        let g = generators::path(4);
        let mut exec = Executor::with_states(
            &g,
            FloodMax,
            vec![0u64; 4],
            ExecutorConfig::with_scheduler(7, SchedulerKind::Central),
        );
        exec.run_to_quiescence(10_000).unwrap();
        let counts = exec.activation_counts();
        assert_eq!(counts.iter().sum::<u64>(), exec.moves());
    }

    #[test]
    fn incremental_enabled_set_matches_the_rescan_oracle_stepwise() {
        let g = generators::random_connected(18, 0.2, 2);
        for kind in SchedulerKind::all() {
            let mut exec =
                Executor::from_arbitrary(&g, FloodMax, ExecutorConfig::with_scheduler(5, kind));
            assert_eq!(
                exec.enabled_nodes(),
                exec.rescan_enabled_nodes(),
                "init, {kind}"
            );
            for step in 0..200 {
                if exec.is_quiescent() {
                    break;
                }
                exec.step_once();
                assert_eq!(
                    exec.enabled_nodes(),
                    exec.rescan_enabled_nodes(),
                    "daemon {kind}, step {step}"
                );
            }
        }
    }

    #[test]
    fn full_rescan_and_incremental_modes_agree_under_deterministic_daemons() {
        // A full rescan re-checks the frontier of the incremental step first and then
        // the nodes it skips, whose guards cannot have changed: the enabled list keeps
        // the same layout, so even the daemons that pick by list position (central,
        // uniform random) see the same list and the two executions are identical.
        let g = generators::random_connected(16, 0.25, 7);
        for kind in SchedulerKind::all() {
            let config = ExecutorConfig::with_scheduler(9, kind);
            let mut inc = Executor::from_arbitrary(&g, FloodMax, config);
            let mut full =
                Executor::from_arbitrary(&g, FloodMax, config.with_mode(ExecMode::FullRescan));
            for step in 0..300 {
                assert_eq!(inc.states(), full.states(), "daemon {kind}, step {step}");
                assert_eq!(
                    inc.enabled_list, full.enabled_list,
                    "daemon {kind}, step {step}"
                );
                assert_eq!(inc.rounds(), full.rounds(), "daemon {kind}, step {step}");
                assert_eq!(inc.moves(), full.moves(), "daemon {kind}, step {step}");
                if inc.is_quiescent() {
                    assert!(full.is_quiescent());
                    break;
                }
                let chosen = inc.step_once().to_vec();
                assert_eq!(chosen, full.step_once(), "daemon {kind}, step {step}");
            }
            assert!(
                inc.is_quiescent(),
                "daemon {kind} must converge within the budget"
            );
        }
    }

    #[test]
    fn parallel_wave_execution_is_bit_identical_to_sequential() {
        // Large enough to cross PAR_MIN_ITEMS both at the initial scan and in the
        // synchronous waves, so the pool path genuinely runs.
        let g = generators::random_connected(300, 0.02, 8);
        for kind in SchedulerKind::all() {
            let (base_states, base_q, base_guards) = {
                let config = ExecutorConfig::with_scheduler(4, kind);
                let mut exec = Executor::from_arbitrary(&g, FloodMax, config);
                let q = exec.run_to_quiescence(500_000).unwrap();
                (exec.states(), q, exec.guard_evaluations())
            };
            for threads in [2usize, 8] {
                let config = ExecutorConfig::with_scheduler(4, kind).with_threads(threads);
                let mut exec = Executor::from_arbitrary(&g, FloodMax, config);
                let q = exec.run_to_quiescence(500_000).unwrap();
                assert_eq!(
                    exec.states(),
                    base_states.as_slice(),
                    "daemon {kind}, {threads} threads"
                );
                assert_eq!(q, base_q, "daemon {kind}, {threads} threads");
                assert_eq!(
                    exec.guard_evaluations(),
                    base_guards,
                    "daemon {kind}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn topology_churn_reseeds_exactly_the_dirty_neighborhoods() {
        use stst_graph::Mutation;
        let g0 = generators::random_connected(40, 0.1, 6);
        // Zero initial states: flood-max is a plumbing test, not self-stabilizing
        // from arbitrary garbage (see the other tests above).
        let mut exec =
            Executor::with_states(&g0, FloodMax, vec![0u64; 40], ExecutorConfig::seeded(6));
        exec.run_to_quiescence(100_000).unwrap();
        assert!(exec.is_quiescent());
        // An edge appears and one disappears: the incremental enabled set must match
        // the brute-force rescan oracle on the mutated graph.
        let (a, b) = {
            let mut found = None;
            'outer: for a in g0.nodes() {
                for b in g0.nodes() {
                    if a < b && g0.edge_between(a, b).is_none() {
                        found = Some((a, b));
                        break 'outer;
                    }
                }
            }
            found.unwrap()
        };
        let removable = g0
            .edge_ids()
            .find(|&e| {
                let ed = *g0.edge(e);
                let mut trial = g0.clone();
                trial.remove_edge(ed.u, ed.v);
                trial.is_connected()
            })
            .unwrap();
        let (ru, rv) = (g0.edge(removable).u, g0.edge(removable).v);
        let g1 = {
            let mut g = g0.clone();
            g.apply_mutations(&[
                Mutation::AddEdge {
                    u: a,
                    v: b,
                    weight: 1,
                },
                Mutation::RemoveEdge { u: ru, v: rv },
            ]);
            g
        };
        let outcome = {
            let mut g = g0.clone();
            g.apply_mutations(&[
                Mutation::AddEdge {
                    u: a,
                    v: b,
                    weight: 1,
                },
                Mutation::RemoveEdge { u: ru, v: rv },
            ])
        };
        let guards_before = exec.guard_evaluations();
        exec.apply_topology(&g1, &outcome);
        // Only the dirty closed neighborhoods were re-evaluated...
        assert!(exec.guard_evaluations() - guards_before <= outcome.dirty.len() as u64);
        // ...yet the enabled set matches the from-scratch oracle, stepwise.
        assert_eq!(exec.enabled_nodes(), exec.rescan_enabled_nodes());
        for _ in 0..200 {
            if exec.is_quiescent() {
                break;
            }
            exec.step_once();
            assert_eq!(exec.enabled_nodes(), exec.rescan_enabled_nodes());
        }
        exec.run_to_quiescence(100_000).unwrap();
        assert!(exec.check_legal(), "flood-max stays legal under edge churn");
    }

    #[test]
    fn node_churn_remaps_registers_and_reconverges() {
        use stst_graph::Mutation;
        let g0 = generators::random_connected(20, 0.2, 9);
        let mut exec =
            Executor::with_states(&g0, FloodMax, vec![0u64; 20], ExecutorConfig::seeded(9));
        exec.run_to_quiescence(100_000).unwrap();
        // A node with a large identity joins: the new maximum must flood.
        let mut g1 = g0.clone();
        let outcome = g1.apply_mutations(&[
            Mutation::AddNode { ident: 500 },
            Mutation::AddEdge {
                u: NodeId(20),
                v: NodeId(0),
                weight: 1,
            },
        ]);
        exec.apply_topology(&g1, &outcome);
        assert_eq!(exec.states().len(), 21);
        assert_eq!(exec.enabled_nodes(), exec.rescan_enabled_nodes());
        exec.run_to_quiescence(100_000).unwrap();
        assert!(exec.check_legal(), "the joining maximum floods the network");
        assert!(exec.states().iter().all(|&s| s == 500));
    }

    #[test]
    fn steady_state_maintenance_is_local_not_global() {
        // After convergence, corrupting one register must cost O(deg) guard
        // evaluations per step, not O(n): compare against the full-rescan mode.
        let g = generators::random_connected(240, 0.03, 3);
        let run = |mode: ExecMode| {
            let config = ExecutorConfig::with_scheduler(1, SchedulerKind::Central).with_mode(mode);
            let mut exec = Executor::with_states(&g, FloodMax, vec![0u64; 240], config);
            exec.run_to_quiescence(100_000).unwrap();
            let before = exec.guard_evaluations();
            exec.corrupt_node(NodeId(60), 0);
            exec.run_to_quiescence(100_000).unwrap();
            exec.guard_evaluations() - before
        };
        let incremental = run(ExecMode::Incremental);
        let rescan = run(ExecMode::FullRescan);
        assert!(
            incremental * 5 <= rescan,
            "incremental recovery used {incremental} guard evaluations, \
             full rescan {rescan}: expected at least a 5x gap"
        );
    }
}
