//! The self-stabilization *state model* runtime (paper §II-A).
//!
//! Every node of the network is a state machine holding a single-writer multiple-reader
//! register. In one atomic step a node (1) reads its own register and the registers of
//! its neighbors, (2) applies its transition function, and (3) writes its register.
//! Which enabled node(s) actually take a step is decided by a *scheduler* (daemon); the
//! paper assumes the **unfair** scheduler, which is only required to activate at least
//! one enabled node per step.
//!
//! This crate provides:
//!
//! * [`Register`] / [`Codec`] — register contents with exact, codec-derived bit
//!   accounting, so the space-complexity claims of the paper (`O(log n)`, `O(log² n)`
//!   bits per node) can be measured rather than asserted;
//! * [`store::ConfigStore`] — the packed configuration store: registers allocated at
//!   their accounted bit widths (fixed-stride bit slots in a shared word heap), so the
//!   accounted space *is* the allocated space. Its struct-backed reference mode is the
//!   lockstep oracle and memory baseline, and the store is the only type that knows
//!   which of the two it holds;
//! * [`Algorithm`] — a guarded-rule transition function over the closed 1-hop
//!   neighborhood [`View`] (the registers of the node and its neighbors, read out of
//!   the store into one locally indexed slice);
//! * [`Scheduler`] — central, synchronous, round-robin, uniformly random and
//!   greedy-adversarial (unfair) daemons;
//! * [`Executor`] — runs an algorithm from an *arbitrary* initial configuration,
//!   counts **moves** and **rounds** exactly as defined in the paper, detects
//!   *silence* (no node enabled), certifies its legality from the algorithm's
//!   premise ([`Algorithm::silence_certifies`]; [`Executor::check_legal`] is the
//!   oracle), and injects transient faults (register corruption).
//!   The enabled set is maintained **incrementally** (only the closed neighborhoods of
//!   the nodes that moved are re-evaluated, `O(Δ)` per move instead of `O(n·Δ)` per
//!   step — see DESIGN.md). The full-rescan reference mode
//!   ([`ExecMode::FullRescan`]) also re-checks every guard that maintenance skips,
//!   and runs the same execution: it exists for differential testing and
//!   benchmarking;
//! * [`SpaceReport`] / [`Quiescence`] — the measurements consumed by the experiment
//!   harness;
//! * [`par`] — a deterministic scoped worker pool ([`ThreadPool`]): the executor uses
//!   it to evaluate synchronous-daemon waves in parallel over stable node-range
//!   shards (bit-identical to the sequential path at any thread count, see
//!   `ExecutorConfig::with_threads`), and the composition engine reuses it for its
//!   heavy from-scratch phases.

pub mod algorithm;
pub mod bits;
pub mod codec;
pub mod executor;
pub mod par;
pub mod persist;
pub mod register;
pub mod scheduler;
pub mod store;
pub mod view;

pub use algorithm::{Algorithm, ParentPointer, Screen};
pub use codec::{Codec, CodecCtx, FieldReader};
pub use executor::{
    ExecError, ExecMode, Executor, ExecutorConfig, Quiescence, SpaceReport, StoreReport,
};
pub use par::ThreadPool;
pub use persist::{RestoreError, Snapshot, SnapshotReader};
pub use register::Register;
pub use scheduler::{Scheduler, SchedulerKind, SchedulerState};
pub use store::{ConfigStore, StoreMode};
pub use view::{NeighborInfo, NeighborView, RawView, View};
