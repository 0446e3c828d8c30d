//! The `trace` scenario: the observability contracts of `stst-obs`.

use std::time::Instant;

use stst_churn::soak::{run_soak, SoakConfig, SoakReport};
use stst_churn::{trace as churn_trace, ChurnDriver};
use stst_core::bfs::RootedBfs;
use stst_core::engine::{CompositionEngine, EngineTask};
use stst_core::EngineConfig;
use stst_obs::{check_wave_order, Obs, TraceBuffer, LAYERS};
use stst_runtime::{Executor, ExecutorConfig, SchedulerKind};

use crate::experiments::settle;
use crate::scale::sparse_workload;
use crate::{fl, Ctx, ScenarioRun, Table};

/// The `trace` scenario, table T1: at every grid thread count, one enabled [`Obs`]
/// handle is threaded through all four layers — a mixed soak (Soak and Engine waves,
/// Executor waves from the build phase), the churn driver (Churn waves) and a timed
/// sync-BFS — and every trace contract is gated: a non-empty trace with no dropped
/// events from all four layers, valid wave order, a byte-exact JSONL round-trip,
/// observed runs bit-identical to unobserved twins, the guard-counter invariant in
/// the registry, and a disabled-cost overhead bound. The widest run's trace and
/// registry are kept as the scenario's raw `trace` and `metrics`.
pub fn trace(ctx: &Ctx, run: &mut ScenarioRun) {
    let seed = ctx.seed;
    let (n, waves) = ctx.pick((60, 8), (2_000, 24));
    let g = sparse_workload(n, n / 2, seed);
    let mut t = Table::new(
        "T1",
        "observability: one enabled handle across executor, engine, churn and soak layers",
        &[
            "n",
            "soak waves",
            "threads",
            "events",
            "dropped",
            "layers",
            "wave order",
            "disabled ms",
            "enabled ms",
        ],
    )
    .with_volatile(&["disabled ms", "enabled ms"]);
    for &threads in &ctx.threads {
        let obs = Obs::enabled();
        // Soak: Soak + Engine (+ Executor via the engine's build phase), against an
        // unobserved twin.
        let config = SoakConfig {
            waves,
            threads,
            scheduler: SchedulerKind::Synchronous,
            max_steps: 100_000_000,
            ..SoakConfig::smoke(seed)
        };
        let observed = run_soak(&g, EngineTask::Mst, &config, obs.clone());
        let reference = run_soak(&g, EngineTask::Mst, &config, Obs::disabled());
        let counts = |r: &SoakReport| {
            let series: Vec<u64> = r.samples.iter().map(|s| s.recovery_rounds).collect();
            (r.total_rounds, r.events, r.faults, r.restores, series)
        };
        t.check("soak_transparent", counts(&observed) == counts(&reference));

        // Churn: the driver's Churn-layer waves, compared with a disabled twin
        // through serialized engine state (bit identity, not summaries).
        let churned = |obs: Obs| {
            let config = EngineConfig::seeded(seed)
                .with_scheduler(SchedulerKind::Synchronous)
                .with_max_steps(100_000_000)
                .with_threads(threads);
            let mut driver = ChurnDriver::new(CompositionEngine::new(&g, EngineTask::Mst, config));
            driver.attach_obs(obs);
            driver.stabilize();
            driver.run_trace(&churn_trace::steady_poisson(
                &g,
                waves.min(6),
                1.0,
                0.0,
                seed,
            ));
            driver.into_engine().checkpoint().to_bytes()
        };
        t.check(
            "churn_transparent",
            churned(obs.clone()) == churned(Obs::disabled()),
        );

        // Overhead: the packed sync-BFS hot path, disabled handle vs the enabled one.
        // The bound is loose (2x + 250 ms) because wall clocks are noisy at smoke
        // sizes; the million-node measurement pins the tight 5% bound.
        let root_ident = g.ident(g.min_ident_node());
        let timed_bfs = |handle: Obs| {
            let start = Instant::now();
            let config = ExecutorConfig::with_scheduler(seed, SchedulerKind::Synchronous)
                .with_threads(threads);
            let mut exec = Executor::from_arbitrary(&g, RootedBfs::new(root_ident), config);
            exec.attach_obs(handle);
            let silent = settle(&mut exec, 50_000_000).silent;
            (
                start.elapsed().as_secs_f64() * 1e3,
                silent.then(|| exec.checkpoint().to_bytes()),
            )
        };
        let (disabled_ms, disabled_state) = timed_bfs(Obs::disabled());
        let (enabled_ms, enabled_state) = timed_bfs(obs.clone());
        t.check(
            "executor_transparent",
            disabled_state.is_some() && disabled_state == enabled_state,
        );
        t.check(
            "disabled_overhead_bound",
            enabled_ms <= disabled_ms * 2.0 + 250.0,
        );

        // Trace contracts.
        let (registry, buffer) = (
            obs.registry().expect("enabled"),
            obs.trace().expect("enabled"),
        );
        let events = buffer.snapshot();
        let dropped = buffer.dropped();
        let order = check_wave_order(&events, dropped > 0);
        let jsonl = buffer.to_jsonl();
        let round_trip = TraceBuffer::parse_jsonl(&jsonl).is_ok_and(|parsed| {
            let re_emitted: String = parsed.iter().map(|(seq, e)| e.jsonl(*seq) + "\n").collect();
            parsed == events && re_emitted == jsonl
        });
        let layers: Vec<&str> = LAYERS
            .iter()
            .filter(|layer| events.iter().any(|(_, e)| e.layer() == **layer))
            .map(|layer| layer.as_str())
            .collect();
        let counter = |name| registry.counter_value(name).unwrap_or(0);
        let evals = counter("executor_guard_evaluations");
        let tiers = counter("executor_guard_screen_hits") + counter("executor_guard_full_decodes");
        t.check("events_recorded", !events.is_empty());
        t.check("no_dropped_events", dropped == 0);
        t.check("all_layers_emit", layers.len() == LAYERS.len());
        t.check("wave_order", order.is_ok());
        t.check("jsonl_round_trip", round_trip);
        t.check("guard_counter_invariant", evals > 0 && tiers == evals);
        let order = order.err().unwrap_or_else(|| "ok".into());
        t.rows.push(row![
            n,
            waves,
            threads,
            events.len(),
            dropped,
            layers.join(", "),
            order,
            fl(disabled_ms, 3),
            fl(enabled_ms, 3)
        ]);
        if threads == ctx.widest() {
            let lines: Vec<&str> = jsonl.lines().filter(|l| !l.trim().is_empty()).collect();
            run.raw = vec![
                ("trace", format!("[{}]", lines.join(","))),
                ("metrics", registry.json()),
            ];
        }
    }
    run.table(t);
}
