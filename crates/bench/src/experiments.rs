//! The paper-claim tables E1–E10 and E8b, and the `paper` scenario.

use stst_baselines::compact_mst::{self, CompactVariant};
use stst_baselines::naive_reset::DistanceOnlySpanningTree;
use stst_baselines::prior_mdst;
use stst_churn::{trace, ChurnDriver};
use stst_core::bfs::RootedBfs;
use stst_core::engine::{CompositionEngine, EngineTask, PhaseEvent};
use stst_core::nca_build::build_nca_labels;
use stst_core::spanning::MinIdSpanningTree;
use stst_core::switch::loop_free_switch;
use stst_core::{construct_mdst, construct_mst, EngineConfig};
use stst_graph::properties::min_degree_lower_bound;
use stst_graph::{bfs, fr, generators, mst, NodeId};
use stst_labeling::mst_fragments::fragment_guided_swap;
use stst_labeling::redundant::RedundantScheme;
use stst_labeling::scheme::{Instance, ProofLabelingScheme};
use stst_runtime::{Algorithm, ExecError, Executor, ExecutorConfig, Quiescence, SchedulerKind};

use crate::{Cell, Ctx, ScenarioRun, Table};

/// Runs `exec` to quiescence within `budget` steps. An exhausted budget comes back
/// as a non-silent, illegal [`Quiescence`], so the row's verdict fails instead of
/// the harness panicking.
pub fn settle<A: Algorithm>(exec: &mut Executor<'_, A>, budget: u64) -> Quiescence {
    exec.run_to_quiescence(budget).unwrap_or_else(
        |ExecError::StepBudgetExhausted { steps, rounds }| Quiescence {
            silent: false,
            rounds,
            moves: exec.moves(),
            steps,
            legal: false,
        },
    )
}

/// The verdict a report row records for a settled executor: silent, and accepted by
/// the oracle ([`Executor::check_legal`]) on the final configuration. Rows check the
/// paper's claim independently, not the certified [`Quiescence::legal`].
pub fn oracle_legal<A: Algorithm>(exec: &Executor<'_, A>, q: &Quiescence) -> bool {
    q.silent && exec.check_legal()
}

/// The `paper` scenario: E1–E4, E6, E8, E8b and E9.
pub fn paper(ctx: &Ctx, run: &mut ScenarioRun) {
    let (seed, threads) = (ctx.seed, ctx.widest());
    run.table(e1_bfs(ctx.pick(&[12], &[16, 32, 64, 128]), seed));
    run.table(e2_switch(ctx.pick(&[12], &[16, 32, 64, 128]), seed));
    run.table(e3_nca(ctx.pick(&[16], &[32, 64, 128, 256]), seed));
    let e4_sizes = ctx.pick(&[12][..], &[16, 32, 64, 1000, 2500, 5000]);
    run.table(e4_mst(e4_sizes, seed, threads));
    run.table(e6_mdst(ctx.pick(&[10], &[10, 14, 24, 40, 1000]), seed));
    let e8_fractions = ctx.pick(&[0.5][..], &[0.05, 0.25, 0.5, 1.0]);
    run.table(e8_faults(ctx.pick(12, 40), e8_fractions, seed, threads));
    run.table(e8_label_faults(
        ctx.pick(16, 64),
        ctx.pick(&[2], &[1, 4, 16]),
        seed,
    ));
    run.table(e9_sched_ablation(ctx.pick(12, 24), seed));
}

/// E1 — silent BFS (§III example): rounds, moves and register bits vs `n`.
pub fn e1_bfs(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new(
        "E1",
        "silent BFS: poly(n) rounds, O(log n) bits (§III example)",
        &["topology", "n", "rounds", "moves", "max bits/node", "legal"],
    );
    for &n in sizes {
        let ring = generators::shuffle_idents(&generators::ring(n), seed);
        for (topo, g) in [
            ("ring", ring),
            ("random p=0.1", generators::workload(n, 0.1, seed)),
        ] {
            let root_ident = g.ident(g.min_ident_node());
            let config = ExecutorConfig::with_scheduler(seed, SchedulerKind::Synchronous);
            let mut exec = Executor::from_arbitrary(&g, RootedBfs::new(root_ident), config);
            let q = settle(&mut exec, 10_000_000);
            let bits = exec.space_report().max_bits;
            let legal = oracle_legal(&exec, &q);
            t.rows.push(row![topo, n, q.rounds, q.moves, bits, legal]);
        }
    }
    t
}

/// E2 — loop-free switch (Lemma 4.1): rounds and verification during `T ← T + e − f`.
pub fn e2_switch(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new(
        "E2",
        "loop-free malleable switch: O(n) rounds, no false alarms (Lemma 4.1, §IV)",
        &[
            "n",
            "cycle length",
            "local switches",
            "rounds",
            "loop-free",
            "all verifiers accept",
        ],
    );
    for &n in sizes {
        let g = generators::workload(n, 0.15, seed);
        let tree = bfs::bfs_tree(&g, g.min_ident_node());
        let e = g
            .edge_ids()
            .find(|&e| !tree.contains_edge(g.edge(e).u, g.edge(e).v))
            .expect("the workload generator adds chords to its spanning tree");
        let cycle = tree.fundamental_cycle_tree_edges(&g, e);
        let outcome = loop_free_switch(&g, &tree, e, cycle[cycle.len() / 2]);
        let loop_free = outcome
            .stages
            .iter()
            .all(|s| s.tree.is_spanning_tree_of(&g));
        let accepted = outcome.stages.iter().all(|s| {
            let inst = Instance {
                graph: &g,
                parents: s.tree.parents(),
            };
            RedundantScheme.verify_all(&inst, &s.labels).accepted()
        });
        t.rows.push(row![
            n,
            cycle.len() + 1,
            outcome.local_switches,
            outcome.rounds,
            loop_free,
            accepted
        ]);
    }
    t
}

/// E3 — NCA labeling (Lemma 5.1): label bits, construction rounds, certification.
pub fn e3_nca(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new(
        "E3",
        "NCA labeling: O(n)-round construction, compact certified labels (Lemma 5.1, §V)",
        &[
            "tree",
            "n",
            "rounds",
            "max label bits",
            "certified",
            "queries correct",
        ],
    );
    for &n in sizes {
        let random = generators::shuffle_idents(&generators::random_tree(n, seed), seed);
        let caterpillar = generators::shuffle_idents(&generators::caterpillar(n / 4, 3), seed);
        for (topo, g) in [("random tree", random), ("caterpillar", caterpillar)] {
            let tree = bfs::bfs_tree(&g, g.min_ident_node());
            let outcome = build_nca_labels(&g, &tree);
            // Spot-check correctness against the oracle.
            let oracle = stst_graph::nca::NcaOracle::new(&tree);
            let index = stst_labeling::nca::label_index(&outcome.labels);
            let correct = (0..g.node_count().min(20)).all(|i| {
                let (u, v) = (NodeId(i), NodeId((i * 7 + 3) % g.node_count()));
                let nca =
                    stst_labeling::nca::nca_of_labels(&outcome.labels[u.0], &outcome.labels[v.0]);
                index[&nca] == oracle.nca(u, v)
            });
            t.rows.push(row![
                topo,
                g.node_count(),
                outcome.rounds,
                outcome.max_label_bits,
                outcome.certified,
                correct
            ]);
        }
    }
    t
}

/// Densities exercised per size: two fixed densities for small instances, one sparse
/// (average degree ≈ 6) workload at composition scale (the incremental label
/// maintenance of the engine is what makes n ≥ 1000 feasible at all).
fn densities_for(n: usize) -> Vec<f64> {
    if n >= 256 {
        vec![6.0 / n as f64]
    } else {
        vec![0.15, 0.35]
    }
}

/// E4 — silent MST (Corollary 6.1): rounds, switches, label writes, register bits,
/// optimality, swept up to 5,000-node sparse workloads. Results are bit-identical at
/// any `threads`; the column records what the run was measured with.
pub fn e4_mst(sizes: &[usize], seed: u64, threads: usize) -> Table {
    let mut t = Table::new(
        "E4",
        "silent self-stabilizing MST: poly(n) rounds, O(log² n) bits (Corollary 6.1)",
        &[
            "n",
            "m",
            "threads",
            "rounds",
            "switches",
            "label writes",
            "max bits/node",
            "weight / OPT",
            "is MST",
        ],
    );
    for &n in sizes {
        for p in densities_for(n) {
            let g = generators::workload(n, p, seed);
            let r = construct_mst(&g, &EngineConfig::seeded(seed).with_threads(threads));
            let opt = mst::kruskal(&g)
                .expect("workload graphs are connected")
                .total_weight(&g);
            t.rows.push(row![
                n,
                g.edge_count(),
                threads,
                r.total_rounds,
                r.improvements,
                r.labels_written,
                r.max_register_bits,
                r.tree.total_weight(&g) as f64 / opt as f64,
                mst::is_mst(&g, &r.tree)
            ]);
        }
    }
    t
}

/// E5 — MST space and silence against the cited baselines. `measured B/node` is the
/// engine's stabilized label families packed into the runtime's
/// [`stst_runtime::ConfigStore`] ([`CompositionEngine::packed_space`]), recorded next to
/// the accounted bits so the two cannot silently diverge.
pub fn e5_mst_space(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new(
        "E5",
        "MST space: ours (silent, Θ(log² n)) vs non-silent compact MST (Θ(log n)) \
         vs distance-only ST",
        &[
            "n",
            "this work [bits]",
            "measured B/node (packed)",
            "accounted bits/node",
            "KKM'11 model [bits]",
            "BGRT'09 model [bits]",
            "distance-only ST [bits]",
        ],
    );
    for &n in sizes {
        let g = generators::workload(n, 0.15, seed);
        let mut engine = CompositionEngine::new(&g, EngineTask::Mst, EngineConfig::seeded(seed));
        let ours = engine.run();
        let space = engine.packed_space();
        let kkm = compact_mst::run(&g, CompactVariant::KormanKuttenMasuzawa);
        let bgrt = compact_mst::run(&g, CompactVariant::BlinGradinariuRovedakisTixeuil);
        let mut distance_only =
            Executor::from_arbitrary(&g, DistanceOnlySpanningTree, ExecutorConfig::seeded(seed));
        t.check(
            "distance_only_silent",
            settle(&mut distance_only, 10_000_000).silent,
        );
        t.rows.push(row![
            n,
            format!("{} (silent)", ours.max_register_bits),
            space.bytes_per_node,
            space.accounted_bits_per_node,
            format!("{} (not silent)", kkm.max_register_bits),
            format!("{} (not silent)", bgrt.max_register_bits),
            format!(
                "{} (silent, ST only)",
                distance_only.space_report().max_bits
            )
        ]);
    }
    t
}

/// E6 — silent MDST / FR-trees (Corollary 8.1): degree vs optimum, rounds, bits, swept
/// up to 1,000-node sparse workloads. `≤ OPT+1` is `true` only where it is proven: by
/// the exact optimum (n ≤ 14) or by `degree ≤ lower bound + 1`; otherwise `-`.
pub fn e6_mdst(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new(
        "E6",
        "silent MDST on FR-trees: degree ≤ OPT+1, poly(n) rounds (Corollary 8.1)",
        &[
            "n",
            "degree",
            "OPT (or bound)",
            "≤ OPT+1",
            "rounds",
            "max bits/node",
            "FR-certified",
        ],
    );
    for &n in sizes {
        let p = if n >= 256 { 8.0 / n as f64 } else { 0.3 };
        let g = generators::workload(n, p, seed);
        let report = construct_mdst(&g, &EngineConfig::seeded(seed));
        let degree = report.tree.max_degree();
        let (bound, within_one) = if n <= 14 {
            let (opt, _) = fr::exact_min_degree_spanning_tree(&g, 14);
            (opt.to_string(), Cell::Bool(degree <= opt + 1))
        } else {
            let lb = min_degree_lower_bound(&g);
            let proven = degree <= lb + 1;
            (
                format!("≥{lb}"),
                if proven { Cell::Bool(true) } else { "-".into() },
            )
        };
        t.rows.push(row![
            n,
            degree,
            bound,
            within_one,
            report.total_rounds,
            report.max_register_bits,
            fr::fr_certificate(&g, &report.tree).is_some()
        ]);
    }
    t
}

/// E7 — MDST memory against the prior-art model ([16], Ω(n log n) bits), with the
/// measured packed-store allocation next to the accounted bits (see [`e5_mst_space`]).
pub fn e7_mdst_space(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new(
        "E7",
        "MDST space: ours (O(log n)-class) vs prior-art explicit lists (Ω(n log n))",
        &[
            "n",
            "this work [bits]",
            "measured B/node (packed)",
            "accounted bits/node",
            "BGR'11 model [bits]",
            "ratio",
        ],
    );
    for &n in sizes {
        let g = generators::workload(n, 0.2, seed);
        let mut engine = CompositionEngine::new(&g, EngineTask::Mdst, EngineConfig::seeded(seed));
        let ours = engine.run();
        let space = engine.packed_space();
        let prior = prior_mdst::run(&g);
        t.rows.push(row![
            n,
            format!("{} (silent)", ours.max_register_bits),
            space.bytes_per_node,
            space.accounted_bits_per_node,
            format!("{} (not silent)", prior.max_register_bits),
            prior.max_register_bits as f64 / ours.max_register_bits.max(1) as f64
        ]);
    }
    t
}

/// E8 — recovery from transient faults: rounds, moves and guard evaluations (the
/// incremental executor's work unit, split into decode-free screens and full decodes)
/// to re-stabilize after corrupting `k` registers of a converged spanning-tree layer.
/// Results are bit-identical at any `threads`.
pub fn e8_faults(n: usize, fractions: &[f64], seed: u64, threads: usize) -> Table {
    let mut t = Table::new(
        "E8",
        format!("self-stabilization: recovery after register corruption (n = {n})"),
        &[
            "scenario",
            "fault fraction",
            "threads",
            "recovery rounds",
            "recovery moves",
            "recovery guard evals",
            "guard screen hits",
            "guard full decodes",
            "legal after",
        ],
    );
    let g = generators::workload(n, 0.12, seed);
    let config = ExecutorConfig::seeded(seed).with_threads(threads);
    let mut exec = Executor::from_arbitrary(&g, MinIdSpanningTree, config);
    let counters = |e: &Executor<'_, MinIdSpanningTree>| {
        [
            e.rounds(),
            e.moves(),
            e.guard_evaluations(),
            e.guard_screen_hits(),
            e.guard_full_decodes(),
        ]
    };
    // Each scenario is a fault injection followed by recovery: none (counted from
    // construction), `k` random registers, then the structured repeated-fault
    // generator — the adversary hits one register eight times in a row, the last
    // write wins, and recovery starts from just another arbitrary configuration.
    let victim = NodeId(n / 2);
    let mut scenarios = vec![("from scratch".to_string(), "-".to_string(), Some(0))];
    for &frac in fractions {
        let k = ((n as f64 * frac).round() as usize).max(1);
        scenarios.push((
            format!("corrupt {k} registers"),
            format!("{:.0}%", frac * 100.0),
            Some(k),
        ));
    }
    scenarios.push((
        format!("hit register {} eight times in a row", victim.0),
        "-".into(),
        None,
    ));
    for (i, (scenario, fraction, random)) in scenarios.into_iter().enumerate() {
        let before = if i == 0 { [0; 5] } else { counters(&exec) };
        match random {
            Some(0) => {}
            Some(k) => _ = exec.corrupt_random_nodes(k),
            None => _ = exec.corrupt_node_repeatedly(victim, 8),
        }
        let q = settle(&mut exec, 10_000_000);
        let legal = oracle_legal(&exec, &q);
        let after = counters(&exec);
        let d = |k: usize| after[k] - before[k];
        t.rows.push(row![
            scenario,
            fraction,
            threads,
            d(0),
            d(1),
            d(2),
            d(3),
            d(4),
            legal
        ]);
    }
    t
}

/// E8b — transient label corruption injected *between waves* of a composed MST run:
/// the engine's next step runs the 1-round verification wave and rebuilds exactly the
/// rejected families. A corruption that triggers no recovery wave reads `false` under
/// `silent again`.
pub fn e8_label_faults(n: usize, faults: &[usize], seed: u64) -> Table {
    let mut t = Table::new(
        "E8b",
        format!("composition-layer fault recovery: label corruption between waves (n = {n})"),
        &[
            "scenario",
            "corrupted labels",
            "families rebuilt",
            "recovery rounds",
            "labels rewritten",
            "silent again",
        ],
    );
    let g = generators::workload(n, 0.15, seed);
    let mut engine = CompositionEngine::new(&g, EngineTask::Mst, EngineConfig::seeded(seed));
    let report = engine.run();
    t.rows.push(row![
        "stabilize from scratch",
        "-",
        "-",
        report.total_rounds,
        report.labels_written,
        engine.check_legal()
    ]);
    let recover =
        |engine: &mut CompositionEngine<'_>, scenario: String, corrupted: Cell| match engine.step()
        {
            PhaseEvent::Recovered {
                families_rebuilt,
                labels_written,
                rounds,
            } => {
                let silent =
                    matches!(engine.step(), PhaseEvent::Stabilized { .. }) && engine.check_legal();
                row![
                    scenario,
                    corrupted,
                    families_rebuilt,
                    rounds,
                    labels_written,
                    silent
                ]
            }
            _ => row![scenario, corrupted, "-", "-", "-", false],
        };
    for &k in faults {
        engine.corrupt_random_labels(k);
        let row = recover(
            &mut engine,
            format!("corrupt {k} labels mid-composition"),
            k.into(),
        );
        t.rows.push(row);
    }
    // The hardest corruption class: stale-but-consistent certificates — a complete,
    // internally correct proof of the *wrong* tree. No syntactic check rejects it;
    // only the verification wave's comparison against the maintained tree does.
    if engine.corrupt_stale_certificates() {
        let row = recover(
            &mut engine,
            "stale-but-consistent certificates".into(),
            "all".into(),
        );
        t.rows.push(row);
    }
    t
}

/// E9 — scheduler robustness and the potential-guidance ablation.
pub fn e9_sched_ablation(n: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "E9",
        format!("scheduler robustness and potential-guidance ablation (n = {n})"),
        &["configuration", "rounds", "moves / swaps", "legal"],
    );
    let g = generators::workload(n, 0.2, seed);
    for kind in SchedulerKind::all() {
        let config = ExecutorConfig::with_scheduler(seed, kind);
        let mut exec = Executor::from_arbitrary(&g, MinIdSpanningTree, config);
        let q = settle(&mut exec, 10_000_000);
        t.rows.push(row![
            format!("spanning tree under {kind}"),
            q.rounds,
            q.moves,
            oracle_legal(&exec, &q)
        ]);
    }
    // Ablation: potential-guided (fragment) swap selection vs unguided improving swaps.
    let start = bfs::bfs_tree(&g, g.min_ident_node());
    let (mut guided, mut guided_swaps) = (start.clone(), 0u64);
    while let Some((e, f_edge)) = fragment_guided_swap(&g, &guided) {
        guided = guided.with_swap(&g, e, f_edge);
        guided_swaps += 1;
    }
    let (mut unguided, mut unguided_swaps) = (start, 0u64);
    while let Some((e, f_edge)) = mst::improving_swap(&g, &unguided) {
        unguided = unguided.with_swap(&g, e, f_edge);
        unguided_swaps += 1;
    }
    let label = "MST swaps, PLS-guided (fragment potential)";
    t.rows
        .push(row![label, "-", guided_swaps, mst::is_mst(&g, &guided)]);
    let label = "MST swaps, unguided red-rule";
    t.rows
        .push(row![label, "-", unguided_swaps, mst::is_mst(&g, &unguided)]);
    t
}

/// E10 — live topology churn: a steady stream of single-edge events (link add/remove,
/// weight drift) hits a stabilized MST composition, and the engine's incremental
/// re-stabilization is compared, per event, against rebuilding from scratch on the
/// mutated graph. Severing events are dropped and counted (`Partitioned` is reported,
/// never repaired). Results are bit-identical at any `threads`.
pub fn e10_churn(sizes: &[usize], rates: &[f64], waves: usize, seed: u64, threads: usize) -> Table {
    let mut t = Table::new(
        "E10",
        "live topology churn: incremental re-stabilization vs rebuild-from-scratch, \
         per single-edge event",
        &[
            "n",
            "m",
            "threads",
            "events/wave",
            "events",
            "severed (dropped)",
            "label writes/event (incr)",
            "label writes/event (rebuild)",
            "rounds/event (incr)",
            "rounds/event (rebuild)",
            "switches/event",
            "label-writes ratio (rebuild/incr)",
        ],
    );
    let config = EngineConfig::seeded(seed).with_threads(threads);
    for &n in sizes {
        for &rate in rates {
            let g = generators::workload(n, densities_for(n)[0], seed);
            let mut driver = ChurnDriver::new(CompositionEngine::new(&g, EngineTask::Mst, config));
            driver.stabilize();
            let churn = trace::steady_poisson(&g, waves, rate, 0.0, seed);
            let (mut severed, mut events) = (0u64, 0u64);
            // Incremental then rebuild: label writes, rounds; then switches.
            let mut totals = [0u64; 5];
            for batch in churn.batches.iter().filter(|b| !b.is_empty()) {
                let report = driver.inject(batch);
                if !report.applied {
                    severed += 1;
                    continue;
                }
                events += report.events as u64;
                // The rebuild-from-scratch baseline: a fresh engine on the mutated
                // graph (what a system without topology deltas would have to do).
                let mutated = driver.engine().graph().clone();
                let rebuilt = CompositionEngine::new(&mutated, EngineTask::Mst, config).run();
                t.check("rebuild_legal", mst::is_mst(&mutated, &rebuilt.tree));
                let add = [
                    report.labels_written,
                    rebuilt.labels_written,
                    report.recovery_rounds,
                    rebuilt.total_rounds,
                    report.switches,
                ];
                for (total, x) in totals.iter_mut().zip(add) {
                    *total += x;
                }
            }
            let per = |total: u64| -> Cell {
                if events == 0 {
                    "-".into()
                } else {
                    (total as f64 / events as f64).into()
                }
            };
            let ratio: Cell = if totals[0] == 0 {
                "inf".into()
            } else {
                (totals[1] as f64 / totals[0] as f64).into()
            };
            t.rows.push(row![
                n,
                g.edge_count(),
                threads,
                rate,
                events,
                severed,
                per(totals[0]),
                per(totals[1]),
                per(totals[2]),
                per(totals[3]),
                per(totals[4]),
                ratio
            ]);
        }
    }
    t
}
