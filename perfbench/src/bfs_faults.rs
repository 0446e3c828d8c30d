//! `bfs-faults`: the executor and persist layers alone, at the E11/E12 scale.
//!
//! A pass runs a sequence of instances, each on its own graph. Per instance:
//! generate `sparse_workload(n, n/2, seed)` and build the executor from an arbitrary
//! configuration (setup), run synchronous rooted BFS to quiescence (stabilize), then
//! bursts of `corrupt_random_nodes(n/250)`, each run back to quiescence (repair).
//! Every few bursts the executor goes through a crash cycle: checkpoint →
//! `to_bytes` → drop → `from_bytes` → `restore` → quiescent and legal (restore).

use std::fmt::Write as _;
use std::time::Instant;

use stst_core::bfs::RootedBfs;
use stst_graph::generators;
use stst_runtime::persist::Snapshot;
use stst_runtime::{Executor, ExecutorConfig, SchedulerKind};

use crate::gates::{self, ExecImage};
use crate::tracer::{Kind, Tracer};
use crate::{bump, derive, Counts, Pass, Plan, Scale, Until};

/// Executor threads. One, so that the CPU time of the thread that runs the
/// executor is the time of the operation (see `OpClock`).
const THREADS: usize = 1;
const BURSTS: usize = 8;
const RESTORE_EVERY: usize = 4;
const STEP_BUDGET: u64 = 100_000_000;

/// Runs the executor to quiescence; the final call decodes every register and runs
/// the legality predicate. Traced, each daemon step is its own span and the guard
/// evaluations the steps make are counted. Returns legality (`false` if the step
/// budget ran out).
fn quiesce(exec: &mut Executor<'_, RootedBfs>, tr: &mut Tracer, counts: &mut Counts) -> bool {
    if tr.enabled() {
        while !exec.is_quiescent() {
            let before = exec.guard_evaluations();
            tr.call("executor.step", || {
                exec.step_once();
            });
            bump(
                counts,
                "executor.step_evals",
                (exec.guard_evaluations() - before) as f64,
            );
        }
    }
    tr.call("executor.legality", || exec.run_to_quiescence(STEP_BUDGET))
        .is_ok_and(|q| q.legal)
}

pub(crate) fn pass(plan: &Plan, until: Until, tracer: Tracer) -> Pass {
    let (n, prefix) = match plan.scale {
        Scale::Full => (250_000, 2),
        Scale::Tiny => (400, 1),
    };
    let mut pass = Pass::new(tracer);
    let tr = &mut pass.tracer;
    let _ = write!(
        pass.provenance,
        "bfs-faults seed={} n={n} threads={THREADS} daemon=Synchronous bursts/instance={BURSTS} \
         burst={} restore_every={RESTORE_EVERY} instances:",
        plan.seed,
        n / 250
    );
    let started = Instant::now();
    tr.open("bfs-faults", Kind::Workload);
    let (mut bytes_sum, mut bits_sum, mut snapshot_bytes) = (0.0, 0.0, 0.0);
    let mut i = 0;
    while until.more(i, prefix, started) {
        let in_prefix = i < prefix;
        let mut counts = Counts::new();
        let seed = derive(plan.seed, 3, i as u64);
        let config =
            ExecutorConfig::with_scheduler(seed, SchedulerKind::Synchronous).with_threads(THREADS);

        tr.open("setup", Kind::Operation);
        let lap = pass.clock.start(tr);
        let g = tr.call("graph.generate", || {
            generators::random_sparse(n, n / 2, seed)
        });
        let g = tr.call("graph.generate", || {
            generators::shuffle_idents(&g, seed.wrapping_add(1))
        });
        let graph = tr.call("graph.generate", || {
            generators::randomize_weights(&g, seed.wrapping_add(2))
        });
        drop(g);
        let root = graph.min_ident_node();
        let algo = RootedBfs::new(graph.ident(root));
        let mut exec = tr.call("executor.construct", || {
            Executor::from_arbitrary(&graph, algo, config)
        });
        pass.setup_s.push(pass.clock.stop(lap));
        tr.close();

        tr.open("stabilize", Kind::Operation);
        let lap = pass.clock.start(tr);
        let legal = quiesce(&mut exec, tr, &mut counts);
        pass.stabilize_s.push(pass.clock.stop(lap));
        tr.close();
        let ok = tr.verify(|| gates::is_bfs(&graph, root, &exec.states(), legal));
        pass.audit.check(ok, || {
            format!("bfs-faults instance {i}: stabilized configuration is not BFS")
        });
        if in_prefix {
            let store = tr.call("store.report", || exec.store_report());
            bytes_sum += store.bytes_per_node;
            bits_sum += store.accounted_bits_per_node;
        }

        for b in 1..=BURSTS {
            if !in_prefix && !until.more(i, prefix, started) {
                break;
            }
            tr.open("repair", Kind::Operation);
            let lap = pass.clock.start(tr);
            tr.call("executor.corrupt", || exec.corrupt_random_nodes(n / 250));
            let legal = quiesce(&mut exec, tr, &mut counts);
            pass.repair_ms.push(pass.clock.stop(lap) * 1e3);
            tr.close();
            let ok = tr.verify(|| gates::is_bfs(&graph, root, &exec.states(), legal));
            pass.audit.check(ok, || {
                format!("bfs-faults instance {i}: burst {b} left a non-BFS configuration")
            });
            if b % RESTORE_EVERY != 0 {
                continue;
            }
            let snapshot = tr.call("persist.checkpoint", || exec.checkpoint());
            let bytes = tr.call("persist.encode", || snapshot.to_bytes());
            let image = tr.verify(|| ExecImage::of(&exec));
            drop(snapshot);
            drop(exec);
            tr.open("restore", Kind::Operation);
            let lap = pass.clock.start(tr);
            let restored = tr
                .call("persist.validate", || Snapshot::from_bytes(&bytes))
                .and_then(|snap| {
                    tr.call("persist.restore", || {
                        Executor::restore(&graph, algo, &snap, config)
                    })
                });
            let Ok(mut back) = restored else {
                tr.close();
                pass.audit.check(false, || {
                    format!("bfs-faults instance {i}: restore failed: {restored:?}")
                });
                return pass;
            };
            let legal = quiesce(&mut back, tr, &mut counts);
            pass.restore_s.push(pass.clock.stop(lap));
            tr.close();
            let ok = tr.verify(|| legal && ExecImage::of(&back) == image);
            pass.audit.check(ok, || {
                format!("bfs-faults instance {i}: restored executor differs from its checkpoint")
            });
            snapshot_bytes = bytes.len() as f64;
            exec = back;
        }

        if in_prefix {
            pass.rounds += exec.rounds();
            let states_hash = tr.verify(|| {
                exec.states().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, s| {
                    let p = s.parent.unwrap_or(u64::MAX);
                    ((h ^ p).wrapping_mul(0x100_0000_01b3) ^ s.dist).wrapping_mul(0x100_0000_01b3)
                })
            });
            pass.fingerprint.extend([
                exec.rounds(),
                exec.guard_evaluations(),
                exec.moves(),
                exec.steps(),
                states_hash,
            ]);
            for (name, value) in [
                ("executor.guard_evals", exec.guard_evaluations()),
                ("executor.screen_hits", exec.guard_screen_hits()),
                ("executor.full_decodes", exec.guard_full_decodes()),
                ("executor.steps", exec.steps()),
                ("executor.rounds", exec.rounds()),
                ("executor.moves", exec.moves()),
            ] {
                bump(&mut counts, name, value as f64);
            }
            for (name, value) in counts {
                bump(&mut pass.counts, name, value);
            }
            let _ = write!(pass.provenance, " {seed}");
            if i + 1 == prefix {
                pass.peak_rss_mib = pass.clock.peak_rss_mib();
            }
        }
        i += 1;
    }
    tr.close();
    pass.wall_s = started.elapsed().as_secs_f64();
    pass.store_bytes_per_node = bytes_sum / prefix as f64;
    pass.counts
        .insert("store.bytes_per_node", pass.store_bytes_per_node);
    pass.counts
        .insert("store.accounted_bits_per_node", bits_sum / prefix as f64);
    pass.counts.insert("persist.snapshot_bytes", snapshot_bytes);
    let _ = write!(pass.provenance, " done={i}");
    pass
}
