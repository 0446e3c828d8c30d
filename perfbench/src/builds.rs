//! `mst-build` and `mdst-build`: compositions from an arbitrary configuration to
//! silence (Corollaries 6.1 and 8.1), each followed by label-fault repairs.
//!
//! A pass runs a sequence of instances, each on its own graph drawn from the
//! workload seed. Per instance: generate the graph and create the engine (setup),
//! step the engine to silence (stabilize), then inject `corrupt_random_labels(2)`
//! a few times and step back to silence after each (repair).

use std::fmt::Write as _;
use std::time::Instant;

use stst_core::{CompositionEngine, EngineConfig, EngineTask};
use stst_graph::{generators, Graph, Tree};
use stst_runtime::SchedulerKind;

use crate::tracer::{Kind, Tracer};
use crate::{count_engine, derive, gates, ghost_free_seed, settle, tree_hash};
use crate::{Counts, Pass, Plan, Scale, Until};

/// Engine threads. One, so that the CPU time of the thread that steps the engine
/// is the time of the operation (see `OpClock`).
const THREADS: usize = 1;

struct Spec {
    name: &'static str,
    task: EngineTask,
    n: usize,
    scheduler: SchedulerKind,
    /// Label-fault repairs per instance.
    repairs: usize,
    /// Instances in the fixed prefix (deterministic counts, traced passes).
    prefix: usize,
    stream: u64,
}

pub(crate) fn mst_pass(plan: &Plan, until: Until, tracer: Tracer) -> Pass {
    let (n, prefix) = match plan.scale {
        Scale::Full => (4_000, 7),
        Scale::Tiny => (120, 2),
    };
    let spec = Spec {
        name: "mst-build",
        task: EngineTask::Mst,
        n,
        scheduler: SchedulerKind::Synchronous,
        repairs: 8,
        prefix,
        stream: 1,
    };
    pass(&spec, plan, until, tracer)
}

pub(crate) fn mdst_pass(plan: &Plan, until: Until, tracer: Tracer) -> Pass {
    let (n, prefix) = match plan.scale {
        Scale::Full => (1_000, 6),
        Scale::Tiny => (60, 2),
    };
    let spec = Spec {
        name: "mdst-build",
        task: EngineTask::Mdst,
        n,
        scheduler: SchedulerKind::Central,
        repairs: 12,
        prefix,
        stream: 4,
    };
    pass(&spec, plan, until, tracer)
}

/// The workload graph: `sparse_workload(n, n/2, seed)` of E11 for MST, the standard
/// `workload(n, 6/n, seed)` of E6 for MDST.
fn generate(spec: &Spec, seed: u64, tr: &mut Tracer) -> Graph {
    let n = spec.n;
    match spec.task {
        EngineTask::Mst => {
            let g = tr.call("graph.generate", || {
                generators::random_sparse(n, n / 2, seed)
            });
            let g = tr.call("graph.generate", || {
                generators::shuffle_idents(&g, seed.wrapping_add(1))
            });
            tr.call("graph.generate", || {
                generators::randomize_weights(&g, seed.wrapping_add(2))
            })
        }
        EngineTask::Mdst => tr.call("graph.generate", || {
            generators::workload(n, 6.0 / n as f64, seed)
        }),
    }
}

fn legal_tree(task: EngineTask, graph: &Graph, tree: &Tree) -> bool {
    match task {
        EngineTask::Mst => gates::is_minimum(graph, tree),
        EngineTask::Mdst => gates::is_fr_certified(graph, tree),
    }
}

fn pass(spec: &Spec, plan: &Plan, until: Until, tracer: Tracer) -> Pass {
    let mut pass = Pass::new(tracer);
    let tr = &mut pass.tracer;
    let _ = write!(
        pass.provenance,
        "{} seed={} n={} threads={} daemon={:?} repairs/instance={} instances:",
        spec.name, plan.seed, spec.n, THREADS, spec.scheduler, spec.repairs
    );
    let started = Instant::now();
    tr.open(spec.name, Kind::Workload);
    let (mut bytes_sum, mut bits_sum) = (0.0, 0.0);
    let mut i = 0;
    while until.more(i, spec.prefix, started) {
        let in_prefix = i < spec.prefix;
        let mut counts = Counts::new();
        let graph_seed = derive(plan.seed, spec.stream, i as u64);

        tr.open("setup", Kind::Operation);
        let lap = pass.clock.start(tr);
        let graph = generate(spec, graph_seed, tr);
        let generate_s = pass.clock.stop(lap);
        let engine_seed = tr.harness("bench.inputs", || ghost_free_seed(&graph, graph_seed));
        let config = EngineConfig::seeded(engine_seed)
            .with_scheduler(spec.scheduler)
            .with_max_steps(100_000_000)
            .with_threads(THREADS);
        let lap = pass.clock.start(tr);
        let mut engine = tr.call("engine.new", || {
            CompositionEngine::new(&graph, spec.task, config)
        });
        pass.setup_s.push(generate_s + pass.clock.stop(lap));
        tr.close();

        tr.open("stabilize", Kind::Operation);
        let lap = pass.clock.start(tr);
        let legal = settle(&mut engine, tr, &mut counts);
        pass.stabilize_s.push(pass.clock.stop(lap));
        tr.close();
        let ok = tr.verify(|| legal && legal_tree(spec.task, &graph, engine.tree()));
        pass.audit.check(ok, || {
            format!("{} instance {i}: construction is not legal", spec.name)
        });

        for r in 0..spec.repairs {
            let before = tr.verify(|| tree_hash(engine.tree()));
            tr.open("repair", Kind::Operation);
            let lap = pass.clock.start(tr);
            tr.call("engine.corrupt", || engine.corrupt_random_labels(2));
            let legal = settle(&mut engine, tr, &mut counts);
            pass.repair_ms.push(pass.clock.stop(lap) * 1e3);
            tr.close();
            let ok = tr.verify(|| {
                legal
                    && engine.is_publishable()
                    && tree_hash(engine.tree()) == before
                    && legal_tree(spec.task, &graph, engine.tree())
            });
            pass.audit.check(ok, || {
                format!("{} instance {i}: repair {r} is not legal", spec.name)
            });
        }

        if in_prefix {
            let space = tr.call("store.report", || engine.packed_space());
            bytes_sum += space.bytes_per_node;
            bits_sum += space.accounted_bits_per_node;
            tr.harness("bench.collect", || count_engine(&engine, &mut counts));
            pass.rounds += engine.total_rounds();
            pass.fingerprint.extend([
                engine.total_rounds(),
                engine.labels_written(),
                engine.improvements() as u64,
                tree_hash(engine.tree()),
            ]);
            for (name, value) in counts {
                crate::bump(&mut pass.counts, name, value);
            }
            let _ = write!(pass.provenance, " {graph_seed}/{engine_seed}");
            if i + 1 == spec.prefix {
                pass.peak_rss_mib = pass.clock.peak_rss_mib();
            }
        }
        i += 1;
    }
    tr.close();
    pass.wall_s = started.elapsed().as_secs_f64();
    pass.store_bytes_per_node = bytes_sum / spec.prefix as f64;
    pass.counts
        .insert("store.bytes_per_node", pass.store_bytes_per_node);
    pass.counts.insert(
        "store.accounted_bits_per_node",
        bits_sum / spec.prefix as f64,
    );
    let _ = write!(pass.provenance, " done={i}");
    pass
}
