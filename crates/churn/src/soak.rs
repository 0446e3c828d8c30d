//! Long-haul soak runs: churn + faults + periodic checkpoint/kill/restore cycles.
//!
//! The churn driver answers "does one event recover correctly?"; the soak harness
//! answers the systems question behind experiment E12: does the composition survive
//! *hours* of mixed load — steady topology churn, periodic label corruption, periodic
//! durability checkpoints, and full kill-and-restore cycles — with bounded memory and
//! bounded repair latency? Every wave is measured (wall-clock repair time, recovery
//! rounds, resident set size, checkpoint cost), and the report aggregates the series
//! into the percentiles the benchmark emits.
//!
//! A restore inside the soak is deliberately *not* special-cased: the restored
//! snapshot may carry unresolved label corruption (a fault wave and a checkpoint wave
//! can coincide), in which case the engine's verification wave detects and repairs it
//! — restore is just self-stabilization from a configuration that happens to come
//! from disk.

use std::time::Instant;

use stst_core::engine::{CompositionEngine, EngineTask};
use stst_core::{Algorithm, EngineConfig, Executor, ExecutorConfig, SchedulerKind, Snapshot};
use stst_graph::{Graph, NodeId};
use stst_obs::{rss_bytes, summarize_waves, Layer, Obs, TraceEvent, WavePoint};

use crate::event::batch_mutations;
use crate::trace::{self, ChurnTrace};

/// Configuration of a soak run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SoakConfig {
    /// Injection points (wave boundaries) to drive.
    pub waves: usize,
    /// Poisson rate of topology events per wave.
    pub churn_rate: f64,
    /// Fraction of churn events that are node joins/leaves (0 = link churn only).
    pub node_fraction: f64,
    /// Inject label corruption every this many waves (0 = never).
    pub fault_period: usize,
    /// Labels corrupted per fault wave.
    pub fault_burst: usize,
    /// Take a durability checkpoint every this many waves (0 = never).
    pub checkpoint_period: usize,
    /// Kill the engine and restore from the snapshot every this many checkpoints
    /// (0 = checkpoints are taken but never restored from).
    pub restore_period: usize,
    /// Seed for the trace generator and the engine.
    pub seed: u64,
    /// Worker threads for the engine's parallel waves.
    pub threads: usize,
    /// Daemon for the guarded-rule phases (synchronous at large scale — the central
    /// daemon's one-activation-per-step bookkeeping does not reach 10⁶ nodes).
    pub scheduler: SchedulerKind,
    /// Step budget for the guarded-rule phases.
    pub max_steps: u64,
}

impl SoakConfig {
    /// A short mixed-load soak: every stressor enabled, sized for CI.
    pub fn smoke(seed: u64) -> Self {
        SoakConfig {
            waves: 24,
            churn_rate: 1.5,
            node_fraction: 0.0,
            fault_period: 5,
            fault_burst: 2,
            checkpoint_period: 4,
            restore_period: 2,
            seed,
            threads: 1,
            scheduler: SchedulerKind::Central,
            max_steps: 5_000_000,
        }
    }
}

/// One wave of the soak time series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SoakSample {
    /// Wave index.
    pub wave: usize,
    /// Churn events injected this wave.
    pub events: usize,
    /// Labels corrupted this wave.
    pub faults: usize,
    /// Rounds from the injection(s) to renewed silence.
    pub recovery_rounds: u64,
    /// Wall-clock milliseconds spent repairing this wave (churn + fault recovery).
    pub repair_ms: f64,
    /// Resident set size after the wave, in bytes (0 where unavailable).
    pub rss_bytes: u64,
    /// Wall-clock milliseconds spent serializing the checkpoint (0 when none).
    pub checkpoint_ms: f64,
    /// Snapshot size in bytes (0 when no checkpoint was taken).
    pub checkpoint_bytes: usize,
    /// Whether this wave ended with a kill-and-restore cycle.
    pub restored: bool,
}

/// Aggregated outcome of a soak run.
#[derive(Clone, Debug, PartialEq)]
pub struct SoakReport {
    /// Per-wave time series, in wave order.
    pub samples: Vec<SoakSample>,
    /// Waves driven.
    pub waves: usize,
    /// Total churn events applied.
    pub events: usize,
    /// Total labels corrupted by fault injection.
    pub faults: usize,
    /// Checkpoints taken.
    pub checkpoints: usize,
    /// Kill-and-restore cycles performed.
    pub restores: usize,
    /// Label families rebuilt by restores (non-zero when a snapshot carried
    /// unresolved corruption or mid-repair state).
    pub restore_rebuilds: usize,
    /// Peak resident set size observed, in bytes (0 where unavailable).
    pub peak_rss_bytes: u64,
    /// Median per-wave repair wall time.
    pub p50_repair_ms: f64,
    /// 99th-percentile per-wave repair wall time.
    pub p99_repair_ms: f64,
    /// Worst per-wave repair wall time.
    pub max_repair_ms: f64,
    /// Fraction of waves that needed no recovery at all (already silent).
    pub silence_ratio: f64,
    /// Mean checkpoint serialization time across checkpoints taken.
    pub mean_checkpoint_ms: f64,
    /// Largest snapshot produced.
    pub max_checkpoint_bytes: usize,
    /// Whether every wave ended certified legal and the oracle (`check_legal` of the
    /// engine or executor) accepts the final configuration. The oracle runs once, at
    /// the end, outside every per-wave timing.
    pub legal: bool,
    /// Engine rounds at the end of the soak.
    pub total_rounds: u64,
    /// Wall-clock duration of the whole soak in milliseconds.
    pub wall_ms: f64,
}

/// The layer a soak drives. The wave loop ([`soak`]) owns the cadences, the timing,
/// the trace events and the report; the subject supplies the layer's operations.
trait Soaked {
    /// Injects wave `wave`'s stressors at the wave boundary: its churn batch, if the
    /// layer churns, and a fault burst on a fault wave. Returns the events the wave's
    /// sample counts and the labels or registers corrupted.
    fn inject(&mut self, wave: usize, fault_wave: bool) -> (usize, usize);
    /// Serializes the layer's complete state.
    fn checkpoint(&self) -> Snapshot;
    /// Kills the layer and replaces it by the one restored from `snapshot`, observed
    /// like the old one. Returns the label families the restore rebuilt.
    fn restore(&mut self, snapshot: &Snapshot) -> usize;
    /// Runs to silence. Returns the certified verdict and the rounds charged so far.
    fn settle(&mut self) -> (bool, u64);
    /// The oracle of the current configuration.
    fn check_legal(&self) -> bool;
}

/// The composition engine under churn and label faults.
struct EngineSoak {
    engine: CompositionEngine<'static>,
    trace: ChurnTrace,
    config: SoakConfig,
}

impl Soaked for EngineSoak {
    fn inject(&mut self, wave: usize, fault_wave: bool) -> (usize, usize) {
        // steady_poisson never emits a severing batch; one would be dropped
        // (`PhaseEvent::Partitioned`) without committing anything.
        let batch = &self.trace.batches[wave];
        if !batch.is_empty() {
            let mutations = batch_mutations(batch, self.engine.graph().node_count());
            self.engine.apply_topology(&mutations);
        }
        let mut faults = 0;
        if fault_wave {
            self.engine.run();
            faults = self
                .engine
                .corrupt_random_labels(self.config.fault_burst)
                .len();
        }
        (batch.len(), faults)
    }

    fn checkpoint(&self) -> Snapshot {
        self.engine.checkpoint()
    }

    fn restore(&mut self, snapshot: &Snapshot) -> usize {
        let (engine, outcome) = CompositionEngine::restore(snapshot, self.config.threads.max(1))
            .expect("a self-produced snapshot restores");
        let obs = self.engine.obs().clone();
        self.engine = engine;
        self.engine.attach_obs(obs);
        outcome.families_rebuilt
    }

    fn settle(&mut self) -> (bool, u64) {
        (self.engine.run().legal, self.engine.total_rounds())
    }

    fn check_legal(&self) -> bool {
        self.engine.check_legal()
    }
}

/// The guarded-rule executor under register faults.
struct ExecutorSoak<'g, A: Algorithm> {
    exec: Executor<'g, A>,
    exec_config: ExecutorConfig,
    config: SoakConfig,
}

impl<A: Algorithm + Clone> Soaked for ExecutorSoak<'_, A> {
    fn inject(&mut self, wave: usize, fault_wave: bool) -> (usize, usize) {
        let mut faults = 0;
        if fault_wave {
            faults += self
                .exec
                .corrupt_random_nodes(self.config.fault_burst)
                .len();
            if (wave + 1).is_multiple_of(2 * self.config.fault_period) {
                // The repeated-fault generator: hit one register over and over.
                let victim = NodeId((wave * 7919) % self.exec.graph().node_count());
                faults += self
                    .exec
                    .corrupt_node_repeatedly(victim, self.config.fault_burst.max(1));
            }
        }
        (faults, faults)
    }

    fn checkpoint(&self) -> Snapshot {
        self.exec.checkpoint()
    }

    fn restore(&mut self, snapshot: &Snapshot) -> usize {
        let algo = self.exec.algorithm().clone();
        let restored = Executor::restore(self.exec.graph(), algo, snapshot, self.exec_config)
            .expect("a self-produced snapshot restores");
        let obs = self.exec.obs().clone();
        self.exec = restored;
        self.exec.attach_obs(obs);
        0
    }

    fn settle(&mut self) -> (bool, u64) {
        let quiescence = self
            .exec
            .run_to_quiescence(self.config.max_steps)
            .expect("stabilization converges");
        (quiescence.legal, self.exec.rounds())
    }

    fn check_legal(&self) -> bool {
        self.exec.check_legal()
    }
}

/// The one soak wave loop, shared by both layers. `subject` starts unsettled and
/// observed by `obs`; `start` is when the soak began (its setup counts towards
/// `wall_ms`). Every wave injects, checkpoints and restores on the configured cadences
/// and settles to silence; the report's verdict ANDs every settle's certified verdict
/// with the oracle on the final configuration, which runs after `wall_ms` is taken.
fn soak(subject: &mut impl Soaked, config: &SoakConfig, obs: &Obs, start: Instant) -> SoakReport {
    let (mut legal, mut rounds) = subject.settle();
    let mut samples: Vec<SoakSample> = Vec::with_capacity(config.waves);
    let mut checkpoints = 0usize;
    let mut restore_rebuilds = 0usize;

    for wave in 0..config.waves {
        let rounds_before = rounds;
        let repair_start = Instant::now();
        let obs_wave = obs.is_enabled().then(|| {
            let w = obs.begin_wave(Layer::Soak);
            obs.emit(TraceEvent::WaveStart {
                layer: Layer::Soak,
                wave: w,
            });
            w
        });

        let fault_wave = config.fault_period > 0 && (wave + 1) % config.fault_period == 0;
        let (events, faults) = subject.inject(wave, fault_wave);
        if let Some(w) = obs_wave.filter(|_| fault_wave) {
            obs.counter("soak_faults_injected").add(faults as u64);
            obs.emit(TraceEvent::CorruptionInjected {
                layer: Layer::Soak,
                wave: w,
                nodes: faults as u64,
            });
        }

        // Checkpoint — possibly *carrying* an unresolved fault — and, on the restore
        // cadence, kill the subject and reload it from the serialized bytes.
        let mut checkpoint_ms = 0.0f64;
        let mut checkpoint_bytes = 0usize;
        let mut restored = false;
        if config.checkpoint_period > 0 && (wave + 1) % config.checkpoint_period == 0 {
            let t = Instant::now();
            let bytes = subject.checkpoint().to_bytes();
            checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
            checkpoint_bytes = bytes.len();
            checkpoints += 1;
            if let Some(w) = obs_wave {
                obs.counter("soak_checkpoints").inc();
                obs.emit(TraceEvent::Checkpoint {
                    layer: Layer::Soak,
                    wave: w,
                    bytes: bytes.len() as u64,
                    ms: checkpoint_ms,
                });
            }
            if config.restore_period > 0 && checkpoints.is_multiple_of(config.restore_period) {
                let restore_timer = obs.is_enabled().then(Instant::now);
                let reloaded = Snapshot::from_bytes(&bytes)
                    .expect("a freshly serialized snapshot parses back");
                restore_rebuilds += subject.restore(&reloaded);
                restored = true;
                if let Some(w) = obs_wave {
                    obs.counter("soak_restores").inc();
                    obs.emit(TraceEvent::Restore {
                        layer: Layer::Soak,
                        wave: w,
                        bytes: bytes.len() as u64,
                        ms: restore_timer.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3),
                    });
                }
            }
        }

        // Recover to silence; everything since the injection is this wave's repair.
        let (settled, settled_rounds) = subject.settle();
        legal &= settled;
        rounds = settled_rounds;
        let recovery_rounds = rounds - rounds_before;
        let rss = if obs.is_enabled() {
            obs.sample_rss()
        } else {
            rss_bytes()
        };
        samples.push(SoakSample {
            wave,
            events,
            faults,
            recovery_rounds,
            repair_ms: repair_start.elapsed().as_secs_f64() * 1e3,
            rss_bytes: rss,
            checkpoint_ms,
            checkpoint_bytes,
            restored,
        });
        if let Some(w) = obs_wave {
            obs.emit(TraceEvent::WaveEnd {
                layer: Layer::Soak,
                wave: w,
                rounds: recovery_rounds,
            });
        }
    }

    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    if obs.is_enabled() {
        obs.emit(TraceEvent::SilenceReached {
            layer: Layer::Soak,
            wave: obs.peek_wave(Layer::Soak),
            rounds,
        });
    }
    let points: Vec<WavePoint> = samples
        .iter()
        .map(|s| WavePoint {
            repair_ms: s.repair_ms,
            recovery_rounds: s.recovery_rounds,
            rss_bytes: s.rss_bytes,
            checkpoint_ms: s.checkpoint_ms,
            checkpoint_bytes: s.checkpoint_bytes,
        })
        .collect();
    let summary = summarize_waves(&points);
    SoakReport {
        waves: samples.len(),
        events: samples.iter().map(|s| s.events).sum(),
        faults: samples.iter().map(|s| s.faults).sum(),
        checkpoints,
        restores: samples.iter().filter(|s| s.restored).count(),
        restore_rebuilds,
        peak_rss_bytes: summary.peak_rss_bytes,
        p50_repair_ms: summary.p50_repair_ms,
        p99_repair_ms: summary.p99_repair_ms,
        max_repair_ms: summary.max_repair_ms,
        silence_ratio: summary.silence_ratio,
        mean_checkpoint_ms: summary.mean_checkpoint_ms,
        max_checkpoint_bytes: summary.max_checkpoint_bytes,
        legal: legal && subject.check_legal(),
        total_rounds: rounds,
        wall_ms,
        samples,
    }
}

/// Runs a mixed churn + fault + checkpoint/restore soak against a fresh engine on
/// `graph` and returns the measured report.
///
/// The engine is booted through a checkpoint/restore roundtrip so it owns its
/// network: kill-and-restore cycles then replace it wholesale, exactly like a
/// process restart would.
///
/// `obs` rides down through the engine (and its inner executor): each wave of the
/// soak becomes one Soak-layer trace wave carrying its fault, checkpoint and restore
/// events, and the process RSS is sampled once per wave. Instrumentation is
/// determinism-transparent, so an enabled handle changes the series only in
/// wall-clock noise; pass `Obs::disabled()` for an uninstrumented run.
pub fn run_soak(graph: &Graph, task: EngineTask, config: &SoakConfig, obs: Obs) -> SoakReport {
    let start = Instant::now();
    let trace = trace::steady_poisson(
        graph,
        config.waves,
        config.churn_rate,
        config.node_fraction,
        config.seed,
    );
    let engine_config = EngineConfig::seeded(config.seed)
        .with_scheduler(config.scheduler)
        .with_max_steps(config.max_steps)
        .with_threads(config.threads.max(1));
    let boot = CompositionEngine::new(graph, task, engine_config).checkpoint();
    let (mut engine, _) = CompositionEngine::restore(&boot, config.threads.max(1))
        .expect("a self-produced boot snapshot restores");
    engine.attach_obs(obs.clone());
    let mut subject = EngineSoak {
        engine,
        trace,
        config: *config,
    };
    soak(&mut subject, config, &obs, start)
}

/// Runs a register-fault + checkpoint/restore soak against the *guarded-rule
/// executor* layer — the configuration that reaches n = 10⁶ on one host, where the
/// full composition engine does not (see `BENCH_space.json`: the n = 10⁵ MST
/// composition alone costs ~10⁷ guarded-rule steps).
///
/// Each wave corrupts `fault_burst` random registers; every second fault wave
/// additionally hammers one rotating victim register `fault_burst` times in a row
/// (the repeated-fault generator). On the checkpoint cadence the executor's complete
/// execution state is serialized, and on the restore cadence the executor is dropped
/// and rebuilt from those bytes — [`Executor::restore`] continues bit-identically,
/// so the soak's recovery trajectory is exactly the uninterrupted one. `churn_rate`
/// and `node_fraction` are unused here: topology churn is an engine-layer stressor.
///
/// `obs` is attached to the executor (guard-batch and silence events at the
/// Executor layer), each soak wave becomes one Soak-layer trace wave, and the
/// process RSS is sampled once per wave; pass `Obs::disabled()` for an
/// uninstrumented run.
pub fn run_executor_soak<A: Algorithm + Clone>(
    graph: &Graph,
    algo: A,
    config: &SoakConfig,
    obs: Obs,
) -> SoakReport {
    let start = Instant::now();
    let exec_config = ExecutorConfig::with_scheduler(config.seed, config.scheduler)
        .with_threads(config.threads.max(1));
    let mut exec = Executor::from_arbitrary(graph, algo, exec_config);
    exec.attach_obs(obs.clone());
    let mut subject = ExecutorSoak {
        exec,
        exec_config,
        config: *config,
    };
    soak(&mut subject, config, &obs, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stst_graph::generators;

    #[test]
    fn smoke_soak_survives_every_stressor() {
        let g = generators::workload(24, 0.25, 9);
        let report = run_soak(&g, EngineTask::Mst, &SoakConfig::smoke(9), Obs::disabled());
        assert_eq!(report.waves, 24);
        assert!(report.legal, "the soak must end in a legal configuration");
        assert!(report.checkpoints > 0);
        assert!(report.restores > 0);
        assert!(report.events > 0);
        assert!(report.faults > 0);
        assert!(report.max_checkpoint_bytes > 0);
        assert!(report.p99_repair_ms >= report.p50_repair_ms);
        assert!((0.0..=1.0).contains(&report.silence_ratio));
    }

    #[test]
    fn executor_soak_recovers_from_every_fault_wave() {
        use stst_core::spanning::MinIdSpanningTree;
        let g = generators::workload(40, 0.15, 11);
        let config = SoakConfig {
            waves: 16,
            fault_period: 2,
            fault_burst: 4,
            checkpoint_period: 3,
            restore_period: 2,
            ..SoakConfig::smoke(11)
        };
        let report = run_executor_soak(&g, MinIdSpanningTree, &config, Obs::disabled());
        assert!(report.legal, "every wave must re-stabilize to legality");
        assert!(report.faults > 0);
        assert!(report.checkpoints > 0);
        assert!(report.restores > 0);
        assert!(report.max_checkpoint_bytes > 0);
    }

    #[test]
    fn soak_is_deterministic_in_everything_but_wall_clock() {
        let g = generators::workload(20, 0.3, 4);
        let config = SoakConfig {
            threads: 2,
            ..SoakConfig::smoke(4)
        };
        let a = run_soak(&g, EngineTask::Mst, &config, Obs::disabled());
        let b = run_soak(&g, EngineTask::Mst, &config, Obs::disabled());
        assert_eq!(a.total_rounds, b.total_rounds);
        assert_eq!(a.events, b.events);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.restores, b.restores);
        let rounds_a: Vec<u64> = a.samples.iter().map(|s| s.recovery_rounds).collect();
        let rounds_b: Vec<u64> = b.samples.iter().map(|s| s.recovery_rounds).collect();
        assert_eq!(rounds_a, rounds_b);
    }
}
