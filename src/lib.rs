//! # Self-Stabilizing Constrained Spanning Trees
//!
//! A Rust reproduction of Blin & Fraigniaud, *"Space-Optimal Time-Efficient Silent
//! Self-Stabilizing Constructions of Constrained Spanning Trees"*, ICDCS 2015.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`graph`] — graph model, generators, and sequential reference algorithms
//!   (Kruskal/Prim/Borůvka MST, BFS, NCA oracle, Fürer–Raghavachari MDST).
//! * [`runtime`] — the self-stabilization *state model*: registers, guarded rules,
//!   schedulers (including the unfair daemon), round/move accounting, fault injection.
//! * [`labeling`] — proof-labeling schemes: the redundant (malleable) distance + size
//!   scheme, the NCA informative labeling and its proof-labeling scheme, MST fragment
//!   labels, FR-tree labels.
//! * [`core`] — the paper's contribution: the silent self-stabilizing BFS construction
//!   and the composition engine that runs the PLS-guided local search for MST and
//!   MDST (FR-tree) constructions.
//! * [`churn`] — live topology churn: the event model, seeded deterministic trace
//!   generators (steady Poisson churn, link flapping, partition-and-heal, weight
//!   drift), and the wave-boundary churn driver with measured per-event recovery.
//! * [`serve`] — the serving layer: epoch-published immutable snapshots of each
//!   silent configuration, a decode-free distance/NCA/fragment query engine over the
//!   packed certificate stores, and seeded zipfian load generation. Readers pin an
//!   epoch and answer queries lock-free while the engine keeps repairing under churn.
//! * [`baselines`] — comparator algorithms used by the experiment harness.
//! * [`obs`] — zero-dependency observability: the metrics registry (counters, gauges,
//!   log2-bucketed histograms with Prometheus/JSON export), wave-level typed trace
//!   events in a bounded ring with a byte-exact JSONL codec, and profiling hooks
//!   (per-phase wall-time spans, RSS sampling). Attached via `attach_obs` on the
//!   executor, the engine, the churn driver and the soak harness; runs with
//!   observability enabled are bit-identical to runs without it.
//!
//! ## Quickstart
//!
//! Build a minimum-weight spanning tree, self-stabilizingly, from an arbitrary initial
//! configuration, and check the result against the sequential oracle:
//!
//! ```
//! use self_stabilizing_spanning_trees::core::{construct_mst, EngineConfig};
//! use self_stabilizing_spanning_trees::graph::{generators, mst};
//!
//! // A small random connected graph with distinct weights and shuffled identities.
//! let g = generators::workload(16, 0.25, 7);
//!
//! // Run the silent self-stabilizing MST construction (Corollary 6.1).
//! let report = construct_mst(&g, &EngineConfig::seeded(7));
//! assert!(report.legal, "the stabilized tree is a minimum spanning tree");
//!
//! // Same weight as Kruskal; with distinct weights, the same tree.
//! let oracle = mst::kruskal(&g).expect("connected graph");
//! assert_eq!(report.tree.total_weight(&g), oracle.total_weight(&g));
//!
//! // The measured costs of the run are in the report.
//! assert!(report.total_rounds > 0);
//! assert!(report.max_register_bits > 0);
//! ```
//!
//! The guarded-rule layer can also be driven directly under any scheduler:
//!
//! ```
//! use self_stabilizing_spanning_trees::core::spanning::MinIdSpanningTree;
//! use self_stabilizing_spanning_trees::graph::generators;
//! use self_stabilizing_spanning_trees::runtime::{Executor, ExecutorConfig, SchedulerKind};
//!
//! let g = generators::workload(12, 0.3, 3);
//! let config = ExecutorConfig::with_scheduler(3, SchedulerKind::Adversarial);
//! let mut exec = Executor::from_arbitrary(&g, MinIdSpanningTree, config);
//! let outcome = exec.run_to_quiescence(1_000_000).expect("converges");
//! assert!(outcome.silent && outcome.legal);
//! ```

pub use stst_baselines as baselines;
pub use stst_churn as churn;
pub use stst_core as core;
pub use stst_graph as graph;
pub use stst_labeling as labeling;
pub use stst_obs as obs;
pub use stst_runtime as runtime;
pub use stst_serve as serve;
