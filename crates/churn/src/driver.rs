//! The churn driver: wave-boundary event injection with measured recovery.

use stst_core::engine::{CompositionEngine, PhaseEvent};
use stst_core::ConstructionReport;
use stst_obs::{Layer, Obs, TraceEvent};

use crate::event::{batch_mutations, TopologyEvent};
use crate::trace::ChurnTrace;

/// Measured recovery of one injected event batch (from the wave boundary before the
/// injection to the next silence).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventReport {
    /// Events in the batch.
    pub events: usize,
    /// `false` iff the batch would have severed the network and was dropped.
    pub applied: bool,
    /// Components the network would have been severed into (0 when applied).
    pub severed_components: usize,
    /// Nodes whose incident topology changed.
    pub dirty_nodes: usize,
    /// Orphaned subtrees re-anchored by the delta repair.
    pub reanchored: usize,
    /// Rounds from the injection to renewed silence (repair waves + switches).
    pub recovery_rounds: u64,
    /// Per-node label records written during the recovery.
    pub labels_written: u64,
    /// Improving switches the delta triggered.
    pub switches: u64,
    /// Whether the re-stabilized output is certified legal (the engine's
    /// [`PhaseEvent::Stabilized`] verdict; `CompositionEngine::check_legal` is its
    /// oracle). Per batch the driver reads only the certificate, so timing `inject`
    /// times no global check.
    pub legal: bool,
}

/// Aggregate over a whole trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChurnSummary {
    /// Non-empty batches injected.
    pub batches: usize,
    /// Events across all applied batches.
    pub events: usize,
    /// Batches dropped because they would sever the network.
    pub severed: usize,
    /// Total recovery rounds across applied batches.
    pub total_recovery_rounds: u64,
    /// Total label records written across applied batches.
    pub total_labels_written: u64,
    /// Total improving switches across applied batches.
    pub total_switches: u64,
    /// Worst single-batch recovery rounds.
    pub max_recovery_rounds: u64,
    /// `true` iff every applied batch re-stabilized to a certified-legal output.
    pub all_legal: bool,
}

/// Drives a [`CompositionEngine`] under live topology churn.
///
/// Injection happens **only at wave boundaries**: before every batch the driver steps
/// the engine to silence, so the mutation lands between waves — the same discipline as
/// the engine's label-corruption hook — and parallel wave execution stays bit-identical
/// at any thread count under churn. Severing batches are *dropped* and reported
/// ([`EventReport::severed_components`]): the engine never silently "repairs" a
/// partition.
pub struct ChurnDriver<'g> {
    engine: CompositionEngine<'g>,
    reports: Vec<EventReport>,
    obs: Obs,
}

impl<'g> ChurnDriver<'g> {
    /// Wraps an engine (constructed, possibly already stepped or stabilized).
    pub fn new(engine: CompositionEngine<'g>) -> Self {
        ChurnDriver {
            engine,
            reports: Vec::new(),
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observability handle: every injected batch becomes one
    /// Churn-layer trace wave (with its `TopologyDelta` and recovery rounds),
    /// and the handle is forwarded to the wrapped engine so engine and
    /// executor waves land in the same trace. Determinism-transparent.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs.clone();
        self.engine.attach_obs(obs);
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &CompositionEngine<'g> {
        &self.engine
    }

    /// Hands the engine back (e.g. to inspect labels after a trace).
    pub fn into_engine(self) -> CompositionEngine<'g> {
        self.engine
    }

    /// Per-batch recovery reports, in injection order.
    pub fn reports(&self) -> &[EventReport] {
        &self.reports
    }

    /// Steps the engine to silence and returns its report (idempotent when already
    /// silent).
    pub fn stabilize(&mut self) -> ConstructionReport {
        self.engine.run()
    }

    /// Steps the engine to silence and returns the certified verdict of its
    /// [`PhaseEvent::Stabilized`] (no report is built).
    fn settle(&mut self) -> bool {
        loop {
            if let PhaseEvent::Stabilized { legal } = self.engine.step() {
                return legal;
            }
        }
    }

    /// Injects one batch of events at the next wave boundary and measures the
    /// recovery to renewed silence.
    pub fn inject(&mut self, events: &[TopologyEvent]) -> EventReport {
        self.settle();
        let mutations = batch_mutations(events, self.engine.graph().node_count());
        let rounds_before = self.engine.total_rounds();
        let written_before = self.engine.labels_written();
        let switches_before = self.engine.improvements() as u64;
        let obs_wave = if self.obs.is_enabled() {
            let wave = self.obs.begin_wave(Layer::Churn);
            self.obs.emit(TraceEvent::WaveStart {
                layer: Layer::Churn,
                wave,
            });
            self.obs.counter("churn_batches_injected").inc();
            Some(wave)
        } else {
            None
        };
        let report = match self.engine.apply_topology(&mutations) {
            PhaseEvent::Partitioned { components } => EventReport {
                events: events.len(),
                applied: false,
                severed_components: components,
                dirty_nodes: 0,
                reanchored: 0,
                recovery_rounds: 0,
                labels_written: 0,
                switches: 0,
                legal: true,
            },
            PhaseEvent::TopologyApplied {
                dirty_nodes,
                reanchored,
                ..
            } => {
                let legal = self.settle();
                EventReport {
                    events: events.len(),
                    applied: true,
                    severed_components: 0,
                    dirty_nodes,
                    reanchored,
                    recovery_rounds: self.engine.total_rounds() - rounds_before,
                    labels_written: self.engine.labels_written() - written_before,
                    switches: self.engine.improvements() as u64 - switches_before,
                    legal,
                }
            }
            other => unreachable!("apply_topology reports deltas, got {other:?}"),
        };
        if let Some(wave) = obs_wave {
            if report.applied {
                self.obs
                    .counter("churn_events_applied")
                    .add(report.events as u64);
                self.obs.emit(TraceEvent::TopologyDelta {
                    layer: Layer::Churn,
                    wave,
                    dirty_nodes: report.dirty_nodes as u64,
                    reanchored: report.reanchored as u64,
                });
            } else {
                self.obs.counter("churn_batches_severed").inc();
            }
            self.obs.emit(TraceEvent::WaveEnd {
                layer: Layer::Churn,
                wave,
                rounds: report.recovery_rounds,
            });
        }
        self.reports.push(report.clone());
        report
    }

    /// Runs a whole trace (skipping empty batches) and aggregates the recovery costs.
    pub fn run_trace(&mut self, trace: &ChurnTrace) -> ChurnSummary {
        let mut summary = ChurnSummary {
            all_legal: true,
            ..ChurnSummary::default()
        };
        for batch in &trace.batches {
            if batch.is_empty() {
                continue;
            }
            let report = self.inject(batch);
            summary.batches += 1;
            if report.applied {
                summary.events += report.events;
                summary.total_recovery_rounds += report.recovery_rounds;
                summary.total_labels_written += report.labels_written;
                summary.total_switches += report.switches;
                summary.max_recovery_rounds =
                    summary.max_recovery_rounds.max(report.recovery_rounds);
                summary.all_legal &= report.legal;
            } else {
                summary.severed += 1;
            }
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stst_core::engine::EngineTask;
    use stst_core::EngineConfig;
    use stst_graph::generators;
    use stst_graph::mst::kruskal;

    use crate::trace;

    #[test]
    fn steady_churn_keeps_the_mst_optimal() {
        let g = generators::workload(22, 0.3, 4);
        let engine = CompositionEngine::new(&g, EngineTask::Mst, EngineConfig::seeded(4));
        let mut driver = ChurnDriver::new(engine);
        let churn = trace::steady_poisson(&g, 8, 1.5, 0.2, 4);
        let summary = driver.run_trace(&churn);
        assert!(summary.all_legal);
        assert!(summary.events > 0);
        assert_eq!(driver.reports().len(), summary.batches);
        let engine = driver.into_engine();
        let g = engine.graph();
        assert_eq!(
            engine.tree().total_weight(g),
            kruskal(g).unwrap().total_weight(g),
            "the maintained tree is the MST of the churned graph"
        );
    }

    #[test]
    fn partition_batches_are_dropped_and_counted() {
        let g = generators::workload(14, 0.15, 8);
        let engine = CompositionEngine::new(&g, EngineTask::Mst, EngineConfig::seeded(8));
        let mut driver = ChurnDriver::new(engine);
        let churn = trace::partition_and_heal(&g, 8);
        let summary = driver.run_trace(&churn);
        assert!(summary.severed >= 1, "the cut contains a severing removal");
        assert!(summary.all_legal);
        // Healed: same edge count as the start.
        assert_eq!(driver.engine().graph().edge_count(), g.edge_count());
    }

    #[test]
    fn mdst_survives_weight_and_link_churn() {
        let g = generators::workload(16, 0.35, 6);
        let engine = CompositionEngine::new(&g, EngineTask::Mdst, EngineConfig::seeded(6));
        let mut driver = ChurnDriver::new(engine);
        let churn = trace::steady_poisson(&g, 6, 1.0, 0.0, 6);
        let summary = driver.run_trace(&churn);
        assert!(summary.all_legal, "every recovery certifies an FR-tree");
    }
}
