//! The paper's contribution: proof-labeling-scheme-guided, silent, self-stabilizing
//! constructions of constrained spanning trees.
//!
//! The crate is organized along the paper's own structure:
//!
//! * [`framework`] — the configuration ([`EngineConfig`], [`Relabel`]) and the
//!   [`ConstructionReport`] shared by the composed constructions;
//! * [`spanning`] and [`bfs`] — genuine guarded-rule silent self-stabilizing spanning
//!   tree / BFS constructions running on the [`stst_runtime`] state model (the paper's
//!   Instruction 1 and the §III example);
//! * [`switch`] — the loop-free edge-switch module of §IV, which performs
//!   `T ← T + e − f` through a sequence of local reparentings while keeping the
//!   redundant (malleable) labels accepted at every intermediate configuration;
//! * [`engine`] — the resumable composition engine, which is the paper's PLS-guided
//!   local search: Algorithm 1 (single edge swaps under the §VI fragment potential) for
//!   MST and Algorithm 3 (well-nested Fürer–Raghavachari swap sequences) for MDST. It
//!   owns the tree and every label family as persistent state, steps at phase
//!   granularity, repairs labels incrementally on the dirty region of each switch (with
//!   the from-scratch provers retained behind [`Relabel::FromScratch`]), and accepts
//!   wave-boundary label corruption with measured recovery;
//! * [`nca_build`] — the wave-based construction of the NCA labels of §V on a
//!   stabilized tree, with round and space accounting;
//! * [`waves`] — round-cost accounting for broadcast/convergecast waves over the
//!   current tree (the composition currency of the paper's Lemmas 3.1 and 7.1);
//! * [`mst`] — Corollary 6.1: the silent self-stabilizing MST construction
//!   (PLS-guided Borůvka, Algorithm 2);
//! * [`mdst`] — Corollary 8.1: the silent self-stabilizing MDST construction
//!   stabilizing on FR-trees (distributed Fürer–Raghavachari, Algorithm 4).
//!
//! ## Execution models
//!
//! The spanning-tree / BFS layer runs as *bona fide* guarded rules under any daemon of
//! the runtime. The MST and MDST constructions are composed exactly as the paper
//! composes them — label-construction waves, fundamental-cycle searches and loop-free
//! switches over the current tree — and are simulated at *wave granularity* by the
//! [`engine`]: every wave is charged its real round cost on the current tree (heights,
//! path lengths and dirty regions are measured, not assumed), labels are repaired
//! incrementally per switch exactly as the paper's lemmas charge them (with staged,
//! malleable-scheme-verified switches retained in the [`Relabel::FromScratch`]
//! reference mode). DESIGN.md discusses this choice.

pub mod bfs;
pub mod engine;
pub mod framework;
pub mod mdst;
pub mod mst;
pub mod nca_build;
pub mod spanning;
pub mod switch;
pub mod waves;
pub mod writes;

pub use engine::{CompositionEngine, EngineTask, PhaseEvent, RestoreOutcome};
pub use framework::{ConstructionReport, EngineConfig, Relabel};
pub use mdst::construct_mdst;
pub use mst::construct_mst;
// The runtime's fault hooks, daemons and snapshot container, re-exported so
// wave-boundary corruption and checkpoint/restore scenarios can be scripted against
// `stst-core` alone.
pub use stst_runtime::{
    Algorithm, ExecMode, Executor, ExecutorConfig, RestoreError, SchedulerKind, Snapshot,
};
