//! Proof-labeling schemes (PLS) for constrained spanning trees.
//!
//! A proof-labeling scheme is a prover–verifier pair: the prover assigns a short label
//! to every node of a legal configuration, and a 1-hop verifier at every node decides,
//! from its own label and its neighbors' labels only, whether to accept. Legal
//! configurations admit a label assignment accepted everywhere; illegal configurations
//! are rejected by at least one node for *every* label assignment (paper §II-C).
//!
//! The crate provides all the schemes the paper builds on:
//!
//! * [`redundant`] — the *redundant* (distance + size) scheme of §IV, together with the
//!   pruning rules C1/C2 and the verification table of Lemma 4.1, which make it
//!   **malleable**: a legal labeling can be degraded into a pruned labeling that stays
//!   accepted while an edge switch `T ← T + e − f` is in progress. A labeling pruned
//!   everywhere to distances (or everywhere to sizes) is exactly the classical
//!   distance-based (or subtree-size-based) scheme for spanning trees;
//! * [`nca`] — the informative NCA labeling of §V (heavy-path based), its evaluation
//!   `nca(λ(u), λ(v))`, the fundamental-cycle membership test, and a proof-labeling
//!   scheme *for the labeling itself* (Lemma 5.1);
//! * [`mst_fragments`] — the Borůvka-trace fragment labels of §VI and the MST potential
//!   function `φ`;
//! * [`fr_labels`] — the FR-tree certification labels of §VIII (Lemma 8.1).

pub mod fr_labels;
pub mod mst_fragments;
pub mod nca;
pub mod redundant;
pub mod scheme;

pub use scheme::{Instance, ProofLabelingScheme, VerificationOutcome};
