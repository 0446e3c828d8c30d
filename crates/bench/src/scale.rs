//! The systems scenarios: `space` (E5, E7, E11), `parallel` (P1), `churn` (E10,
//! E10b), `soak` (E12, E12s) and `reference` (R1).

use std::time::Instant;

use stst_churn::soak::{run_executor_soak, run_soak, SoakConfig, SoakReport};
use stst_churn::{trace, ChurnDriver};
use stst_core::bfs::{BfsState, RootedBfs};
use stst_core::engine::{CompositionEngine, EngineTask, PhaseEvent};
use stst_core::spanning::MinIdSpanningTree;
use stst_core::{construct_mst, EngineConfig, Relabel};
use stst_graph::{generators, mst, Graph};
use stst_obs::Obs;
use stst_runtime::{
    ExecMode, Executor, ExecutorConfig, Quiescence, SchedulerKind, Snapshot, StoreMode, StoreReport,
};

use crate::experiments::{e10_churn, e5_mst_space, e7_mdst_space, oracle_legal, settle};
use crate::{fl, Cell, Ctx, ScenarioRun, Table};

/// The large-scale workload: a connected sparse graph built in `O(n + m)` (random
/// spanning tree plus `extra` chords — the quadratic `workload` generator cannot
/// reach 10⁶ nodes), with shuffled identities and distinct random weights.
pub fn sparse_workload(n: usize, extra: usize, seed: u64) -> Graph {
    let g = generators::random_sparse(n, extra, seed);
    let g = generators::shuffle_idents(&g, seed.wrapping_add(1));
    generators::randomize_weights(&g, seed.wrapping_add(2))
}

/// Mean wall-clock milliseconds of `reps` calls of `f`, with the last call's result.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let start = Instant::now();
    let mut out = f();
    for _ in 1..reps {
        out = f();
    }
    (
        start.elapsed().as_secs_f64() * 1e3 / reps.max(1) as f64,
        out,
    )
}

/// The `space` scenario: E5, E7 and E11.
pub fn space(ctx: &Ctx, run: &mut ScenarioRun) {
    let seed = ctx.seed;
    run.table(e5_mst_space(ctx.pick(&[12], &[16, 32, 64, 128]), seed));
    run.table(e7_mdst_space(ctx.pick(&[12], &[16, 32, 64]), seed));
    let bfs_sizes = ctx.pick(&[2_000, 10_000][..], &[100_000, 1_000_000]);
    run.table(e11_space_scale(
        bfs_sizes,
        ctx.pick(&[400], &[100_000]),
        seed,
        &ctx.threads,
    ));
}

/// One sync-BFS stabilization of the E11 workload.
struct StoreRun {
    states: Vec<BfsState>,
    q: Quiescence,
    /// The oracle's verdict on the final configuration, taken after the timer.
    legal: bool,
    evals: u64,
    hits: u64,
    decodes: u64,
    report: StoreReport,
    wall_ms: f64,
}

fn store_run(g: &Graph, store: StoreMode, threads: usize, seed: u64) -> StoreRun {
    let root_ident = g.ident(g.min_ident_node());
    let config = ExecutorConfig::with_scheduler(seed, SchedulerKind::Synchronous)
        .with_threads(threads)
        .with_store(store);
    let start = Instant::now();
    let mut exec = Executor::from_arbitrary(g, RootedBfs::new(root_ident), config);
    let q = settle(&mut exec, 50_000_000);
    StoreRun {
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        states: exec.states(),
        legal: oracle_legal(&exec, &q),
        q,
        evals: exec.guard_evaluations(),
        hits: exec.guard_screen_hits(),
        decodes: exec.guard_full_decodes(),
        report: exec.store_report(),
    }
}

/// E11 — the packed configuration store at scale. Sync-BFS stabilizes from an
/// arbitrary configuration with its registers in the bit-packed
/// [`stst_runtime::ConfigStore`], and the struct-backed reference runs the identical
/// execution, so `measured B/node` shows allocation, not algorithm, differences. The
/// packed run is repeated at every grid thread count and must match the reference
/// bit for bit (states, quiescence, guard evaluations), account every evaluation as
/// screened or decoded with a thread-invariant split and ≥ 5× fewer full decodes than
/// evaluations, and allocate ≤ 4× the accounted bits and < ¼ of the struct store. The
/// full MST composition runs with its `O(log² n)`-bit label families packed the same
/// way. Rows are measured at the widest thread count.
pub fn e11_space_scale(
    bfs_sizes: &[usize],
    mst_sizes: &[usize],
    seed: u64,
    threads: &[usize],
) -> Table {
    let mut t = Table::new(
        "E11",
        "large-scale packed store: accounted O(log² n) bits are the allocated bits \
         (measured×8/accounted ≤ 4 packed vs 10–50 struct)",
        &[
            "workload",
            "n",
            "threads",
            "rounds",
            "accounted bits/node",
            "measured B/node",
            "measured×8 / accounted",
            "guard screen hits",
            "guard full decodes",
            "wall ms",
            "legal",
        ],
    )
    .with_volatile(&["wall ms"]);
    let widest = threads.iter().copied().max().unwrap_or(1);
    for &n in bfs_sizes {
        let g = sparse_workload(n, n / 2, seed);
        let reference = store_run(&g, StoreMode::Struct, widest, seed);
        t.check(
            "struct_never_screens",
            (reference.hits, reference.decodes) == (0, 0),
        );
        let (mut tiers, mut packed) = (None, None);
        for &th in threads {
            let p = store_run(&g, StoreMode::Packed, th, seed);
            let identical =
                p.states == reference.states && p.q == reference.q && p.evals == reference.evals;
            t.check("packed_matches_struct", identical);
            t.check(
                "accounting_store_invariant",
                p.report.accounted_bits == reference.report.accounted_bits,
            );
            t.check("tier_accounting", p.hits + p.decodes == p.evals);
            t.check("screen_resolves_guards", p.hits > 0);
            t.check("decodes_5x_below_evals", p.decodes * 5 <= p.evals);
            t.check(
                "tiers_thread_invariant",
                *tiers.get_or_insert((p.hits, p.decodes)) == (p.hits, p.decodes),
            );
            t.check(
                "packed_within_4x_accounted",
                p.report.measured_bytes as u64 * 8 <= 4 * p.report.accounted_bits,
            );
            t.check(
                "packed_4x_below_struct",
                p.report.measured_bytes * 4 < reference.report.measured_bytes,
            );
            if th == widest {
                packed = Some(p);
            }
        }
        for r in packed.iter().chain([&reference]) {
            let ratio = r.report.bytes_per_node * 8.0 / r.report.accounted_bits_per_node.max(1.0);
            t.rows.push(row![
                format!("sync-BFS ({:?})", r.report.mode),
                n,
                widest,
                r.q.rounds,
                r.report.accounted_bits_per_node,
                r.report.bytes_per_node,
                ratio,
                r.hits,
                r.decodes,
                r.wall_ms,
                r.legal
            ]);
        }
    }
    for &n in mst_sizes {
        let g = sparse_workload(n, n / 2, seed);
        // The synchronous daemon keeps the guarded-rule build phase to O(rounds)
        // steps (the central daemon would need tens of millions of steps at this
        // scale before the composition even starts).
        let config = EngineConfig::seeded(seed)
            .with_scheduler(SchedulerKind::Synchronous)
            .with_max_steps(100_000_000)
            .with_threads(widest);
        let start = Instant::now();
        let mut engine = CompositionEngine::new(&g, EngineTask::Mst, config);
        let report = engine.run();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let space = engine.packed_space();
        t.rows.push(row![
            "MST composition (Packed labels)",
            n,
            widest,
            report.total_rounds,
            space.accounted_bits_per_node,
            space.bytes_per_node,
            space.bytes_per_node * 8.0 / space.accounted_bits_per_node.max(1.0),
            "-",
            "-",
            wall_ms,
            mst::is_mst(&g, &report.tree)
        ]);
    }
    t
}

/// Runs `work` at one thread and then at every other grid entry, timing each run;
/// records one row per thread count and checks each outcome against one thread's.
fn thread_sweep<T: PartialEq>(
    t: &mut Table,
    label: &str,
    n: usize,
    grid: &[usize],
    work: impl Fn(usize) -> (T, u64, Cell),
) {
    let mut reference: Option<(T, f64)> = None;
    for threads in std::iter::once(1).chain(grid.iter().copied().filter(|&t| t != 1)) {
        let (ms, (outcome, rounds, labels)) = timed(1, || work(threads));
        match &reference {
            Some((expected, _)) => t.check("thread_invariant", outcome == *expected),
            None => reference = Some((outcome, ms)),
        }
        let base_ms = reference.as_ref().map_or(ms, |r| r.1);
        t.rows.push(row![
            label,
            n,
            threads,
            rounds,
            labels,
            ms,
            fl(base_ms / ms, 2)
        ]);
    }
}

/// The `parallel` scenario, table P1: synchronous-daemon BFS from an arbitrary
/// configuration (every round is one sharded guard wave) and the composition
/// engine's `Relabel::FromScratch` reproof waves (concurrent family provers, sharded
/// Borůvka scans), each bit-identical at every thread count to the one-thread run.
pub fn parallel(ctx: &Ctx, run: &mut ScenarioRun) {
    let seed = ctx.seed;
    let mut t = Table::new(
        "P1",
        "deterministic wave-parallel execution: identical results at every thread count \
         (1-thread time / time is a speedup only when the host has that many cores)",
        &[
            "workload",
            "n",
            "threads",
            "rounds",
            "label writes",
            "wall ms",
            "1-thread time / time",
        ],
    )
    .with_volatile(&["wall ms", "1-thread time / time"]);
    for &n in ctx.pick(&[2_000][..], &[10_000, 100_000]) {
        // ~3 extra edges per node over the spanning backbone: small Δ, big waves.
        let g = generators::shuffle_idents(&generators::random_sparse(n, 3 * n, seed), seed);
        let root = g.ident(g.min_ident_node());
        thread_sweep(&mut t, "sync-BFS", n, &ctx.threads, |threads| {
            let config = ExecutorConfig::with_scheduler(seed, SchedulerKind::Synchronous)
                .with_threads(threads);
            let mut exec = Executor::from_arbitrary(&g, RootedBfs::new(root), config);
            let q = settle(&mut exec, 10_000_000);
            ((exec.states(), q), q.rounds, "-".into())
        });
    }
    // The guarded-rule tree phase runs under the synchronous daemon: it is not what
    // this row measures, and synchronously it converges in diameter-ish rounds.
    let n = ctx.pick(300, 2_000);
    let g = generators::workload(n, 6.0 / n as f64, seed);
    thread_sweep(
        &mut t,
        "MST reproof waves (FromScratch)",
        n,
        &ctx.threads,
        |threads| {
            let config = EngineConfig::seeded(seed)
                .with_scheduler(SchedulerKind::Synchronous)
                .with_relabel(Relabel::FromScratch)
                .with_threads(threads);
            let r = construct_mst(&g, &config);
            (
                (r.tree, r.labels_written),
                r.total_rounds,
                r.labels_written.into(),
            )
        },
    );
    run.table(t);
}

/// The `churn` scenario: E10 and E10b.
pub fn churn(ctx: &Ctx, run: &mut ScenarioRun) {
    let (sizes, rates) = ctx.pick((&[16][..], &[1.5][..]), (&[64, 1000], &[0.5, 2.0]));
    run.table(e10_churn(
        sizes,
        rates,
        ctx.pick(4, 8),
        ctx.seed,
        ctx.widest(),
    ));
    let sizes = ctx.pick(&[300][..], &[1_000, 2_500]);
    run.table(e10b_churn_scale(
        sizes,
        ctx.pick(6, 10),
        ctx.seed,
        &ctx.threads,
    ));
}

/// E10b — steady churn at bench scale: the churned run (final tree, label writes,
/// rounds) is bit-identical at every thread count, ends on the MST a from-scratch
/// rebuild finds on the final graph, and writes fewer labels per applied batch than
/// that one rebuild. The wall clock is the whole one-thread churned run.
pub fn e10b_churn_scale(sizes: &[usize], waves: usize, seed: u64, threads: &[usize]) -> Table {
    let mut t = Table::new(
        "E10b",
        "steady churn at bench scale: thread-invariant, and cheaper per batch than one rebuild",
        &[
            "n",
            "waves",
            "applied batches",
            "labels/batch (incr)",
            "labels per rebuild",
            "rebuild / incr",
            "wall ms (1 thread)",
        ],
    )
    .with_volatile(&["wall ms (1 thread)"]);
    for &n in sizes {
        let g = generators::workload(n, 6.0 / n as f64, seed);
        let churn = trace::steady_poisson(&g, waves, 1.0, 0.0, seed);
        let churned = |threads| {
            let config = EngineConfig::seeded(seed).with_threads(threads);
            let mut driver = ChurnDriver::new(CompositionEngine::new(&g, EngineTask::Mst, config));
            driver.stabilize();
            let summary = driver.run_trace(&churn);
            let engine = driver.into_engine();
            let outcome = (
                engine.tree().clone(),
                engine.labels_written(),
                engine.total_rounds(),
            );
            (
                outcome,
                (summary.batches - summary.severed) as u64,
                summary.total_labels_written,
            )
        };
        let (wall_ms, (reference, applied, labels)) = timed(1, || churned(1));
        for &th in threads.iter().filter(|&&th| th != 1) {
            t.check("thread_invariant", churned(th).0 == reference);
        }
        // The final graph: every event that keeps the network connected, in order.
        let mut final_graph = g.clone();
        for event in churn.batches.iter().flatten() {
            let mut trial = final_graph.clone();
            trial.apply_mutations(&event.mutations(final_graph.node_count()));
            if trial.is_connected() {
                final_graph = trial;
            }
        }
        let mut fresh =
            CompositionEngine::new(&final_graph, EngineTask::Mst, EngineConfig::seeded(seed));
        let rebuild = fresh.run().labels_written;
        t.check("rebuild_matches_churned_tree", fresh.tree() == &reference.0);
        let per_batch = labels.checked_div(applied);
        t.check(
            "incremental_beats_rebuild",
            per_batch.is_some_and(|p| p < rebuild),
        );
        let (per, ratio): (Cell, Cell) = match per_batch {
            Some(p) => (p.into(), (rebuild / p.max(1)).into()),
            None => ("-".into(), "-".into()),
        };
        t.rows
            .push(row![n, waves, applied, per, rebuild, ratio, wall_ms]);
    }
    t
}

/// The `soak` scenario: the E12 soaks, then the durability gates — mid-flight
/// checkpoint/kill/restore bit identity and short mixed-load soak survival at every
/// grid thread count, and recovery from a snapshot that carries label corruption.
pub fn soak(ctx: &Ctx, run: &mut ScenarioRun) {
    let seed = ctx.seed;
    let engine_sizes = ctx.pick(&[20][..], &[2_000]);
    let executor_sizes = ctx.pick(&[400][..], &[1_000_000]);
    let (summary, series) = e12_soak(
        engine_sizes,
        executor_sizes,
        ctx.pick(8, 24),
        seed,
        ctx.widest(),
    );
    run.table(summary);
    run.table(series);

    let (exec_n, waves) = ctx.pick((400, 8), (20_000, 16));
    let g = sparse_workload(exec_n, exec_n / 2, seed);
    let eg = sparse_workload(24, 12, seed);
    run.check(
        "corrupted_snapshot_recovers",
        corrupted_snapshot_recovers(&eg, seed),
    );
    for &threads in &ctx.threads {
        run.check(
            "restore_bit_identical",
            restore_is_bit_identical(&g, seed, threads),
        );
        let config = SoakConfig {
            waves,
            threads,
            ..SoakConfig::smoke(seed)
        };
        let r = run_soak(&eg, EngineTask::Mst, &config, Obs::disabled());
        run.check(
            "engine_soak_survives",
            r.legal && r.checkpoints > 0 && r.restores > 0,
        );
        let config = SoakConfig {
            fault_burst: (exec_n / 250).max(2),
            scheduler: SchedulerKind::Synchronous,
            max_steps: 100_000_000,
            ..config
        };
        let r = run_executor_soak(&g, MinIdSpanningTree, &config, Obs::disabled());
        run.check(
            "executor_soak_survives",
            r.legal && r.checkpoints > 0 && r.restores > 0,
        );
    }
}

/// Checkpoints a spanning-tree execution mid-round, serializes, drops and restores it,
/// and checks the restored run finishes silent, legal and identical (states and every
/// counter) to the uninterrupted twin.
fn restore_is_bit_identical(g: &Graph, seed: u64, threads: usize) -> bool {
    let config = ExecutorConfig::seeded(seed).with_threads(threads);
    fn finish(exec: &mut Executor<'_, MinIdSpanningTree>) -> Option<impl PartialEq> {
        let q = settle(exec, 20_000_000);
        let state = (
            exec.states(),
            exec.moves(),
            exec.steps(),
            exec.rounds(),
            exec.activation_counts(),
        );
        oracle_legal(exec, &q).then_some(state)
    }
    let want = finish(&mut Executor::from_arbitrary(g, MinIdSpanningTree, config));
    let mut twin = Executor::from_arbitrary(g, MinIdSpanningTree, config);
    for _ in 0..29 {
        if twin.is_quiescent() {
            break;
        }
        twin.step_once();
    }
    let bytes = twin.checkpoint().to_bytes();
    drop(twin);
    let restored = Snapshot::from_bytes(&bytes)
        .ok()
        .and_then(|snap| Executor::restore(g, MinIdSpanningTree, &snap, config).ok());
    want.is_some() && restored.is_some_and(|mut exec| finish(&mut exec) == want)
}

/// Restore is self-stabilization from disk: an engine snapshot carrying unresolved
/// label corruption restores into a configuration whose next verification wave
/// repairs it, back onto the uninterrupted run's tree.
fn corrupted_snapshot_recovers(g: &Graph, seed: u64) -> bool {
    let mut engine = CompositionEngine::new(g, EngineTask::Mst, EngineConfig::seeded(seed));
    engine.run();
    let legal = engine.check_legal();
    let tree = engine.tree().clone();
    engine.corrupt_random_labels(3);
    let bytes = engine.checkpoint().to_bytes();
    drop(engine);
    let restored = Snapshot::from_bytes(&bytes)
        .ok()
        .and_then(|snap| CompositionEngine::restore(&snap, 1).ok());
    restored.is_some_and(|(mut engine, _)| {
        let recovered = matches!(engine.step(), PhaseEvent::Recovered { .. });
        legal && recovered && engine.check_legal() && engine.tree() == &tree
    })
}

/// E12 — the long-haul soak: mixed churn, periodic label/register faults, durability
/// checkpoints and kill-and-restore cycles, with the measured recovery story
/// (repair-latency percentiles, peak RSS, silence ratio, checkpoint cost) and, as
/// table E12s, the per-wave series the summary is computed from. The full MST
/// composition soaks at composition scale (`engine_sizes`: churn + label faults +
/// engine snapshots); the sync-BFS executor soaks at up to n = 10⁶
/// (`executor_sizes`: register faults incl. the repeated-fault generator + execution
/// snapshots restored bit-identically mid-run).
pub fn e12_soak(
    engine_sizes: &[usize],
    executor_sizes: &[usize],
    waves: usize,
    seed: u64,
    threads: usize,
) -> (Table, Table) {
    let config = SoakConfig {
        waves,
        threads,
        scheduler: SchedulerKind::Synchronous,
        max_steps: 100_000_000,
        ..SoakConfig::smoke(seed)
    };
    let mut runs: Vec<(&str, usize, SoakReport)> = Vec::new();
    for &n in engine_sizes {
        let g = sparse_workload(n, n / 2, seed);
        let report = run_soak(&g, EngineTask::Mst, &config, Obs::disabled());
        runs.push(("MST composition soak (churn+faults+restore)", n, report));
    }
    for &n in executor_sizes {
        let g = sparse_workload(n, n / 2, seed);
        let algo = RootedBfs::new(g.ident(g.min_ident_node()));
        // Register faults scale with the network so recovery is visible at 10⁶.
        let config = SoakConfig {
            fault_burst: (n / 250).max(2),
            ..config
        };
        let report = run_executor_soak(&g, algo, &config, Obs::disabled());
        runs.push(("sync-BFS executor soak (faults+restore)", n, report));
    }
    let mut summary = Table::new(
        "E12",
        "long-haul soak: churn + faults + checkpoint/kill/restore cycles with bounded RSS \
         and repair latency",
        &[
            "scenario",
            "n",
            "threads",
            "waves",
            "churn events",
            "faults",
            "checkpoints",
            "restores",
            "p50 repair ms",
            "p99 repair ms",
            "peak RSS MiB",
            "silence ratio",
            "mean ckpt ms",
            "max snapshot B",
            "legal",
            "max repair ms",
            "restore rebuilds",
            "total rounds",
            "wall ms",
        ],
    )
    .with_volatile(&[
        "wall ms",
        "p50 repair ms",
        "p99 repair ms",
        "max repair ms",
        "mean ckpt ms",
        "peak RSS MiB",
    ]);
    let mut series = Table::new(
        "E12s",
        "per-wave series of the E12 soaks",
        &[
            "scenario",
            "n",
            "wave",
            "events",
            "faults",
            "recovery rounds",
            "repair ms",
            "RSS bytes",
            "checkpoint ms",
            "checkpoint bytes",
            "restored",
        ],
    )
    .with_volatile(&["repair ms", "checkpoint ms", "RSS bytes"]);
    for (scenario, n, r) in runs {
        summary.check("restores_exercised", r.checkpoints > 0 && r.restores > 0);
        summary.rows.push(row![
            scenario,
            n,
            threads,
            r.waves,
            r.events,
            r.faults,
            r.checkpoints,
            r.restores,
            r.p50_repair_ms,
            r.p99_repair_ms,
            r.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            fl(r.silence_ratio, 2),
            r.mean_checkpoint_ms,
            r.max_checkpoint_bytes,
            r.legal,
            r.max_repair_ms,
            r.restore_rebuilds,
            r.total_rounds,
            r.wall_ms
        ]);
        for s in &r.samples {
            series.rows.push(row![
                scenario,
                n,
                s.wave,
                s.events,
                s.faults,
                s.recovery_rounds,
                fl(s.repair_ms, 3),
                s.rss_bytes,
                fl(s.checkpoint_ms, 3),
                s.checkpoint_bytes,
                if s.restored { "yes" } else { "no" }
            ]);
        }
    }
    (summary, series)
}

/// Times both modes of an incremental-vs-reference pair over `reps` repetitions and
/// checks that they reach the same result.
fn mode_pair<M: Copy, T: PartialEq>(
    t: &mut Table,
    workload: &str,
    n: usize,
    reps: usize,
    modes: [(&str, M); 2],
    work: impl Fn(M) -> (T, u64),
) {
    let (incr_ms, (incr, incr_work)) = timed(reps, || work(modes[0].1));
    let (ref_ms, (reference, ref_work)) = timed(reps, || work(modes[1].1));
    t.check("modes_agree", incr == reference);
    t.rows
        .push(row![workload, n, modes[0].0, reps, incr_ms, incr_work, "-"]);
    t.rows.push(row![
        workload,
        n,
        modes[1].0,
        reps,
        ref_ms,
        ref_work,
        ref_ms / incr_ms
    ]);
}

/// The `reference` scenario, table R1: the incremental executor against
/// `ExecMode::FullRescan` on fault recovery of a converged BFS layer (full rescan
/// pays `O(n·Δ)` per daemon step, incremental maintenance `O(Δ²)`), and incremental
/// label repair against `Relabel::FromScratch` on the MST composition. `work` counts
/// guard evaluations and label writes respectively.
///
/// The BFS pair runs under the central daemon, which picks by position in the
/// enabled list. Both modes lay that list out identically (DESIGN.md §2.6), so
/// `modes_agree` compares the whole execution: moves, steps, rounds, silence, the
/// final registers and the oracle's verdict.
pub fn reference(ctx: &Ctx, run: &mut ScenarioRun) {
    let (seed, reps) = (ctx.seed, ctx.pick(1, 5));
    let mut t = Table::new(
        "R1",
        "incremental maintenance vs the retained reference modes: same result, less work \
         and wall clock",
        &[
            "workload",
            "n",
            "mode",
            "reps",
            "mean ms",
            "work",
            "reference / incremental",
        ],
    )
    .with_volatile(&["mean ms", "reference / incremental"]);
    let n = ctx.pick(2_000, 10_000);
    // ~4 extra edges per node on the spanning backbone: Δ stays small, which is where
    // full rescans waste the most work.
    let g = generators::shuffle_idents(&generators::random_sparse(n, 4 * n, seed), seed);
    let algo = RootedBfs::new(g.ident(g.min_ident_node()));
    let config = ExecutorConfig::with_scheduler(seed, SchedulerKind::Synchronous);
    let mut converged = Executor::from_arbitrary(&g, algo, config);
    settle(&mut converged, 1_000_000);
    let stable = converged.states();
    let modes = [
        ("incremental", ExecMode::Incremental),
        ("full rescan", ExecMode::FullRescan),
    ];
    mode_pair(
        &mut t,
        "BFS recovery after 32 faults",
        n,
        reps,
        modes,
        |mode| {
            let config =
                ExecutorConfig::with_scheduler(seed, SchedulerKind::Central).with_mode(mode);
            let mut exec = Executor::with_states(&g, algo, stable.clone(), config);
            exec.corrupt_random_nodes(32);
            let q = settle(&mut exec, 10_000_000);
            let outcome = (q, oracle_legal(&exec, &q), exec.states());
            (outcome, exec.guard_evaluations())
        },
    );
    for &n in ctx.pick(&[150][..], &[400, 1000]) {
        let g = generators::workload(n, 6.0 / n as f64, seed);
        let modes = [
            ("incremental", Relabel::Incremental),
            ("from scratch", Relabel::FromScratch),
        ];
        mode_pair(&mut t, "MST composition", n, reps, modes, |relabel| {
            let report = construct_mst(&g, &EngineConfig::seeded(seed).with_relabel(relabel));
            (report.tree, report.labels_written)
        });
    }
    run.table(t);
    run.table(fragment_repair_work(ctx));
}

/// R2: the work of incremental fragment repair against the label entries it writes,
/// on E11's MST input shape. The counts and `ms / switch` cover the composition after
/// the guarded-rule build (which at seed 2015 and n = 32,000 first flushes two ghost
/// roots).
fn fragment_repair_work(ctx: &Ctx) -> Table {
    let mut t = Table::new(
        "R2",
        "fragment repair visits a bounded number of nodes per label entry it writes, \
         at every n",
        &[
            "n",
            "switches",
            "fragment entries written",
            "node visits",
            "visits / entry",
            "ms / switch",
        ],
    )
    .with_volatile(&["ms / switch"]);
    for &n in ctx.pick(&[400, 1_000][..], &[4_000, 16_000, 32_000]) {
        let g = sparse_workload(n, n / 2, ctx.seed);
        let config = EngineConfig::seeded(ctx.seed)
            .with_scheduler(SchedulerKind::Synchronous)
            .with_max_steps(1_000_000_000)
            .with_threads(1);
        let mut engine = CompositionEngine::new(&g, EngineTask::Mst, config);
        while !matches!(engine.step(), PhaseEvent::TreeConstructed { .. }) {}
        let start = Instant::now();
        while !matches!(engine.step(), PhaseEvent::Stabilized { .. }) {}
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let report = engine.report();
        let (entries, visits) = (report.fragment_entries_written, report.fragment_node_visits);
        t.check("visits_at_most_10_per_entry", visits <= 10 * entries);
        t.rows.push(row![
            n,
            report.improvements,
            entries,
            visits,
            fl(visits as f64 / entries.max(1) as f64, 2),
            fl(ms / report.improvements.max(1) as f64, 3)
        ]);
    }
    t
}
