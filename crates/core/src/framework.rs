//! The configuration and the report shared by the composed constructions: the label
//! maintenance mode, the engine configuration and the construction report.

use stst_graph::Tree;
use stst_runtime::SchedulerKind;

/// How the composition engine maintains the label families across improvement
/// iterations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Relabel {
    /// Repair labels incrementally on the dirty region of each loop-free switch (the
    /// paper's model: Lemmas 3.1, 4.1 and 7.1 charge repair per wave on the affected
    /// region).
    #[default]
    Incremental,
    /// Re-prove every label family from scratch after every switch. Retained as the
    /// reference mode for the differential oracles and as the baseline of table R1
    /// (`report reference`).
    FromScratch,
}

/// Configuration of a composed construction run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Seed for the arbitrary initial configuration and the daemon.
    pub seed: u64,
    /// Daemon used by the guarded-rule phases.
    pub scheduler: SchedulerKind,
    /// Step budget for the guarded-rule phases.
    pub max_steps: u64,
    /// Label maintenance mode of the improvement phase.
    pub relabel: Relabel,
    /// Worker threads for parallel wave execution (1 = fully sequential). Threaded
    /// through to the guarded-rule executor and to the engine's from-scratch reproof
    /// and verification waves; results are bit-identical at any value.
    pub threads: usize,
}

impl EngineConfig {
    /// Central daemon, generous step budget, incremental label maintenance.
    pub fn seeded(seed: u64) -> Self {
        EngineConfig {
            seed,
            scheduler: SchedulerKind::Central,
            max_steps: 5_000_000,
            relabel: Relabel::Incremental,
            threads: 1,
        }
    }

    /// Overrides the daemon.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Overrides the guarded-rule step budget.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Overrides the label maintenance mode.
    pub fn with_relabel(mut self, relabel: Relabel) -> Self {
        self.relabel = relabel;
        self
    }

    /// Overrides the worker-thread count (clamped to ≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::seeded(0)
    }
}

/// Report of a composed silent self-stabilizing construction (MST, MDST, …).
#[derive(Clone, Debug)]
pub struct ConstructionReport {
    /// The stabilized spanning tree.
    pub tree: Tree,
    /// Total rounds: guarded-rule rounds of the tree-construction phase plus the round
    /// charges of every wave and switch of the improvement phase.
    pub total_rounds: u64,
    /// Rounds broken down by phase (interned labels, first-seen order).
    pub phase_rounds: Vec<(&'static str, u64)>,
    /// Per-node label records written across all labeling waves — the deterministic
    /// work unit compared between [`Relabel::Incremental`] and [`Relabel::FromScratch`].
    pub labels_written: u64,
    /// Fragment label entries written by the incremental fragment repairs (after
    /// switches and topology deltas; the from-scratch proofs are not counted), since
    /// the engine was created or restored.
    pub fragment_entries_written: u64,
    /// Node visits of those repairs
    /// ([`stst_labeling::mst_fragments::FragmentState::node_visits`]): their
    /// deterministic work, compared with `fragment_entries_written`.
    pub fragment_node_visits: u64,
    /// Number of edge swaps (or well-nested swap sequences) applied.
    pub improvements: usize,
    /// Maximum register size (bits per node) observed across all phases, including the
    /// labels maintained for silence.
    pub max_register_bits: usize,
    /// Whether the stabilized output is certified legal: the verdict of
    /// [`crate::engine::PhaseEvent::Stabilized`], read off the certificate the last
    /// improvement step held (φ = 0, or the FR propagation).
    /// [`crate::CompositionEngine::check_legal`] is its oracle.
    pub legal: bool,
}

impl ConstructionReport {
    /// Rounds charged to phases whose label contains `needle`.
    pub fn rounds_for(&self, needle: &str) -> u64 {
        self.phase_rounds
            .iter()
            .filter(|(l, _)| l.contains(needle))
            .map(|(_, r)| r)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_phase_lookup() {
        let report = ConstructionReport {
            tree: Tree::path(3),
            total_rounds: 12,
            phase_rounds: vec![("tree construction", 5), ("labels", 7)],
            labels_written: 0,
            fragment_entries_written: 0,
            fragment_node_visits: 0,
            improvements: 1,
            max_register_bits: 32,
            legal: true,
        };
        assert_eq!(report.rounds_for("labels"), 7);
        assert_eq!(report.rounds_for("nothing"), 0);
    }

    #[test]
    fn engine_config_builders() {
        let c = EngineConfig::seeded(9)
            .with_scheduler(SchedulerKind::Adversarial)
            .with_max_steps(123)
            .with_relabel(Relabel::FromScratch)
            .with_threads(4);
        assert_eq!(c.seed, 9);
        assert_eq!(c.scheduler, SchedulerKind::Adversarial);
        assert_eq!(c.max_steps, 123);
        assert_eq!(c.relabel, Relabel::FromScratch);
        assert_eq!(c.threads, 4);
        assert_eq!(EngineConfig::default().scheduler, SchedulerKind::Central);
        assert_eq!(EngineConfig::default().relabel, Relabel::Incremental);
        assert_eq!(EngineConfig::default().threads, 1);
        assert_eq!(EngineConfig::seeded(0).with_threads(0).threads, 1);
    }
}
