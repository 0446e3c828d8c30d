//! Integration tests for the observability layer (`stst-obs`) against *real*
//! runs of the stabilization stack.
//!
//! The unit tests inside `crates/obs` pin the codec and the registry in
//! isolation; these tests pin the *wiring*: the screen-counter invariant as
//! published to the registry across thread counts and store modes, byte-exact
//! JSONL round-trips of traces produced by actual executions, ring-overflow
//! behavior under a real event stream, wave ordering across all four layers
//! sharing one handle, and the `Repair` events a fault recovery emits.

use self_stabilizing_spanning_trees::churn::soak::{run_soak, SoakConfig};
use self_stabilizing_spanning_trees::churn::{trace, ChurnDriver};
use self_stabilizing_spanning_trees::core::engine::{CompositionEngine, EngineTask, PhaseEvent};
use self_stabilizing_spanning_trees::core::spanning::MinIdSpanningTree;
use self_stabilizing_spanning_trees::core::EngineConfig;
use self_stabilizing_spanning_trees::graph::generators;
use self_stabilizing_spanning_trees::obs::{
    check_wave_order, Layer, Obs, TraceBuffer, TraceEvent, LAYERS,
};
use self_stabilizing_spanning_trees::runtime::{
    Executor, ExecutorConfig, SchedulerKind, StoreMode,
};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The two-tier guard invariant, read from the *registry* (not the executor's
/// own counters): in packed mode every evaluation is either resolved by the
/// decode-free screen or by a full decode; the struct store has nothing to
/// screen and publishes zeros for both tiers. Holds at every thread count.
#[test]
fn screen_counter_invariant_holds_in_the_registry_across_threads() {
    let g = generators::workload(400, 0.015, 21);
    for store in [StoreMode::Packed, StoreMode::Struct] {
        for &threads in &THREAD_COUNTS {
            let obs = Obs::enabled();
            let config = ExecutorConfig::with_scheduler(6, SchedulerKind::Synchronous)
                .with_threads(threads)
                .with_store(store);
            let mut exec = Executor::from_arbitrary(&g, MinIdSpanningTree, config);
            exec.attach_obs(obs.clone());
            exec.run_to_quiescence(5_000_000).expect("converges");
            let registry = obs.registry().unwrap();
            let evals = registry
                .counter_value("executor_guard_evaluations")
                .unwrap_or(0);
            let hits = registry
                .counter_value("executor_guard_screen_hits")
                .unwrap_or(0);
            let decodes = registry
                .counter_value("executor_guard_full_decodes")
                .unwrap_or(0);
            let label = format!("{store:?}, {threads} threads");
            // At quiescence every delta has been flushed to the registry.
            assert_eq!(evals, exec.guard_evaluations(), "{label}");
            assert!(evals > 0, "{label}: no evaluations published");
            match store {
                StoreMode::Packed => {
                    assert_eq!(hits + decodes, evals, "{label}: tier accounting");
                    assert!(hits > 0, "{label}: the screen never resolved a guard");
                }
                StoreMode::Struct => {
                    assert_eq!((hits, decodes), (0, 0), "{label}: nothing to screen");
                }
            }
        }
    }
}

/// A trace produced by a real mixed-load run (soak + churn on one handle)
/// covers all four layers, passes the wave-order checker, and survives a
/// byte-identical JSONL round-trip.
#[test]
fn real_traces_cover_all_layers_order_cleanly_and_round_trip_exactly() {
    let g = generators::workload(40, 0.2, 11);
    let obs = Obs::enabled();
    // Soak layer (plus Engine and Executor through the engine's phases). The
    // smoke config keeps every stressor on, including kill-and-restore cycles.
    let config = SoakConfig::smoke(11);
    let report = run_soak(&g, EngineTask::Mst, &config, obs.clone());
    assert!(report.legal);
    assert!(report.restores > 0, "the smoke soak must kill-and-restore");
    // Churn layer on the same handle.
    let engine = CompositionEngine::new(&g, EngineTask::Mst, EngineConfig::seeded(11));
    let mut driver = ChurnDriver::new(engine);
    driver.attach_obs(obs.clone());
    let churn = trace::steady_poisson(&g, 4, 1.5, 0.0, 11);
    driver.run_trace(&churn);

    let buffer = obs.trace().unwrap();
    let events = buffer.snapshot();
    assert!(!events.is_empty());
    assert_eq!(
        buffer.dropped(),
        0,
        "the default ring must not overflow here"
    );
    for layer in LAYERS {
        assert!(
            events.iter().any(|(_, e)| e.layer() == layer),
            "layer {} emitted nothing",
            layer.as_str()
        );
    }
    check_wave_order(&events, false).expect("wave ordering");
    // Byte-exact round trip: emit -> parse -> re-emit.
    let jsonl = buffer.to_jsonl();
    let parsed = TraceBuffer::parse_jsonl(&jsonl).expect("every line parses");
    assert_eq!(parsed, events);
    let mut re_emitted = String::new();
    for (seq, event) in &parsed {
        re_emitted.push_str(&event.jsonl(*seq));
        re_emitted.push('\n');
    }
    assert_eq!(re_emitted, jsonl, "re-emit must be byte-identical");
    // The per-wave events carry the stressors the soak actually injected.
    assert!(
        events.iter().any(|(_, e)| matches!(
            e,
            TraceEvent::Checkpoint {
                layer: Layer::Soak,
                ..
            }
        )),
        "soak checkpoints must be traced"
    );
    assert!(
        events.iter().any(|(_, e)| matches!(
            e,
            TraceEvent::Restore {
                layer: Layer::Soak,
                ..
            }
        )),
        "soak restores must be traced"
    );
}

/// A tiny ring under a real event stream keeps the newest events, counts the
/// evictions, and the truncated trace still passes the order checker in
/// truncation-tolerant mode.
#[test]
fn ring_overflow_on_a_real_run_keeps_newest_events_and_counts_drops() {
    let g = generators::workload(60, 0.1, 5);
    let obs = Obs::with_trace_capacity(16);
    let mut engine = CompositionEngine::new(&g, EngineTask::Mst, EngineConfig::seeded(5));
    engine.attach_obs(obs.clone());
    engine.run();
    let buffer = obs.trace().unwrap();
    assert_eq!(buffer.len(), 16, "ring filled to capacity");
    assert!(buffer.dropped() > 0, "a full engine run overflows 16 slots");
    assert_eq!(
        buffer.dropped(),
        obs.registry()
            .unwrap()
            .counter_value("trace_dropped_events")
            .unwrap_or(0),
        "the registry mirrors the ring's eviction count"
    );
    let events = buffer.snapshot();
    // Newest retained: the final event is the engine reaching silence.
    let seqs: Vec<u64> = events.iter().map(|(seq, _)| *seq).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(
        *seqs.last().unwrap() + 1,
        buffer.dropped() + buffer.len() as u64,
        "retained suffix is contiguous with the eviction count"
    );
    check_wave_order(&events, true).expect("truncated traces order cleanly");
}

/// Fault recovery emits `Repair` events naming the rebuilt label families, and
/// the corruption itself is traced.
#[test]
fn fault_recovery_emits_corruption_and_repair_events() {
    let g = generators::workload(60, 0.1, 13);
    let obs = Obs::enabled();
    let mut engine = CompositionEngine::new(&g, EngineTask::Mst, EngineConfig::seeded(13));
    engine.attach_obs(obs.clone());
    engine.run();
    let before = obs.trace().unwrap().len();
    let hit = engine.corrupt_random_labels(6);
    assert!(!hit.is_empty());
    let recovery = engine.step();
    assert!(matches!(recovery, PhaseEvent::Recovered { .. }));
    let events = obs.trace().unwrap().snapshot();
    let tail = &events[before.min(events.len())..];
    assert!(
        tail.iter().any(|(_, e)| matches!(
            e,
            TraceEvent::CorruptionInjected { layer: Layer::Engine, nodes, .. } if *nodes > 0
        )),
        "the injection must be traced"
    );
    assert!(
        tail.iter().any(|(_, e)| matches!(
            e,
            TraceEvent::Repair {
                layer: Layer::Engine,
                ..
            }
        )),
        "the recovery must emit Repair events for the rebuilt families"
    );
    let registry = obs.registry().unwrap();
    assert!(
        registry
            .counter_value("engine_corruptions_injected")
            .unwrap_or(0)
            >= 6
    );
    assert!(
        registry
            .counter_value("engine_families_rebuilt")
            .unwrap_or(0)
            >= 1
    );
}
