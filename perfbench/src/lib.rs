//! The repository benchmark: four seeded workloads, their end-to-end metrics, and a
//! traced per-layer breakdown. `NOTES.md` next to this crate says why each workload
//! exists and which layer metric should move which end-to-end metric.
//!
//! A run with tracing off measures the end-to-end metrics for `--seconds` seconds.
//! A run with tracing on executes the workload's fixed prefix twice — untraced, then
//! traced — checks that both passes did the same deterministic work, and reports the
//! per-layer metrics of the traced pass.

mod bfs_faults;
mod builds;
mod churn_serve;
mod clock;
mod gates;
mod stats;
mod tracer;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use stst_core::{CompositionEngine, PhaseEvent};
use stst_graph::{Graph, NodeId, Tree};
use stst_runtime::{Executor, ExecutorConfig};

use clock::OpClock;
use gates::Audit;
use tracer::{Kind, Tracer};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["mst-build", "churn-serve", "bfs-faults", "mdst-build"];

/// End-to-end metrics (tracing off), every workload: name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("stabilize_s", "s"),
    ("repair_ms_mean", "ms"),
    ("rounds_to_silence", "rounds"),
    ("peak_rss_mib", "MiB"),
    ("store_bytes_per_node", "B"),
];

/// Per-layer metrics (tracing on), every workload: name and unit. A layer the
/// workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 71] = [
    ("graph.generate_ms", "ms"),
    ("executor.construct_ms", "ms"),
    ("executor.step_ms", "ms"),
    ("executor.ns_per_guard_eval", "ns"),
    ("executor.guard_evals", "count"),
    ("executor.screen_hit_ratio", "ratio"),
    ("executor.full_decodes", "count"),
    ("executor.steps", "count"),
    ("executor.rounds", "rounds"),
    ("executor.moves", "count"),
    ("executor.legality_ms", "ms"),
    ("executor.corrupt_ms", "ms"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.encode_ms", "ms"),
    ("persist.validate_ms", "ms"),
    ("persist.restore_ms", "ms"),
    ("persist.snapshot_bytes", "B"),
    ("store.report_ms", "ms"),
    ("store.bytes_per_node", "B"),
    ("store.accounted_bits_per_node", "bits"),
    ("engine.new_ms", "ms"),
    ("engine.build_ms", "ms"),
    ("engine.build_rounds", "rounds"),
    ("engine.label_scratch_ms", "ms"),
    ("engine.label_repair_ms", "ms"),
    ("engine.label_waves", "count"),
    ("engine.labels_written", "count"),
    ("engine.improve_ms", "ms"),
    ("engine.switches", "count"),
    ("engine.silence_check_ms", "ms"),
    ("engine.topology_ms", "ms"),
    ("engine.dirty_nodes", "count"),
    ("engine.reanchored", "count"),
    ("engine.recover_ms", "ms"),
    ("engine.corrupt_ms", "ms"),
    ("engine.rounds.build", "rounds"),
    ("engine.rounds.label_scratch", "rounds"),
    ("engine.rounds.switch", "rounds"),
    ("engine.rounds.label_repair", "rounds"),
    ("engine.rounds.fr_marking", "rounds"),
    ("engine.rounds.recovery", "rounds"),
    ("engine.rounds.topology", "rounds"),
    ("engine.rounds.other", "rounds"),
    ("churn.trace_ms", "ms"),
    ("churn.batches", "count"),
    ("churn.events", "count"),
    ("churn.severed", "count"),
    ("serve.publish_ms", "ms"),
    ("serve.refresh_ns", "ns"),
    ("serve.loadgen_ns", "ns"),
    ("serve.query_ns.dist_to_root", "ns"),
    ("serve.query_ns.tree_dist", "ns"),
    ("serve.query_ns.nca_depth", "ns"),
    ("serve.query_ns.ancestor", "ns"),
    ("serve.query_ns.same_fragment", "ns"),
    ("serve.screen_hits", "count"),
    ("serve.full_decodes", "count"),
    ("serve.epochs", "count"),
    ("serve.staleness_waves_max", "rounds"),
    ("serve.oracle_checked", "count"),
    ("serve.oracle_mismatches", "count"),
    ("repair_ms_p95", "ms"),
    ("restore_s", "s"),
    ("query_ns_p50", "ns"),
    ("query_ns_p99", "ns"),
    ("qps", "1/s"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
    ("bench.verify_ms", "ms"),
    ("bench.cpu_share", "frac"),
    ("bench.host_speed", "frac"),
];

/// Input sizes: the measured ones, and a tiny set for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One invocation: the workload seed, the measuring time and the input scale.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
}

/// How long a pass runs: its fixed prefix of operations, or until `seconds` have
/// passed (and at least the prefix is done).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Until {
    Prefix,
    Seconds(f64),
}

impl Until {
    pub(crate) fn more(self, done: usize, prefix: usize, started: Instant) -> bool {
        match self {
            Until::Prefix => done < prefix,
            Until::Seconds(s) => done < prefix || started.elapsed().as_secs_f64() < s,
        }
    }
}

/// Named deterministic counts (per-layer counters of one pass).
pub(crate) type Counts = BTreeMap<&'static str, f64>;

pub(crate) fn bump(counts: &mut Counts, name: &'static str, by: f64) {
    *counts.entry(name).or_default() += by;
}

/// What one pass over a workload measured. The operation times are CPU times of
/// the thread that ran them, scaled to the reference speed (see [`OpClock`]).
#[derive(Debug)]
pub(crate) struct Pass {
    pub clock: OpClock,
    pub setup_s: Vec<f64>,
    pub stabilize_s: Vec<f64>,
    pub repair_ms: Vec<f64>,
    pub restore_s: Vec<f64>,
    /// Rounds from every start or injection to silence, over the fixed prefix.
    pub rounds: u64,
    /// Packed bytes per node of the silent configurations of the prefix (mean).
    pub store_bytes_per_node: f64,
    /// Peak resident memory when the fixed prefix ended: the same work at every
    /// host speed, where the peak of a whole run grows with the instances it fits.
    pub peak_rss_mib: f64,
    /// Deterministic counts compared between the untraced and the traced pass:
    /// rounds, guard evaluations, labels written, final-tree hashes.
    pub fingerprint: Vec<u64>,
    /// Deterministic per-layer counts over the prefix.
    pub counts: Counts,
    pub audit: Audit,
    pub wall_s: f64,
    pub tracer: Tracer,
    pub reader: Option<churn_serve::ReaderOut>,
    /// Seeds and sizes, for the provenance line.
    pub provenance: String,
}

impl Pass {
    pub(crate) fn new(tracer: Tracer) -> Self {
        Pass {
            clock: OpClock::default(),
            setup_s: Vec::new(),
            stabilize_s: Vec::new(),
            repair_ms: Vec::new(),
            restore_s: Vec::new(),
            rounds: 0,
            store_bytes_per_node: 0.0,
            peak_rss_mib: 0.0,
            fingerprint: Vec::new(),
            counts: Counts::new(),
            audit: Audit::default(),
            wall_s: 0.0,
            tracer,
            reader: None,
            provenance: String::new(),
        }
    }
}

/// The result of one invocation.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The traced pass's spans as JSON lines (tracing on only).
    pub spans: Option<String>,
    pub provenance: String,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric with its
    /// unit.
    pub fn json(&self) -> String {
        let mut out = format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs `workload` once: end-to-end metrics with tracing off, per-layer metrics
/// with tracing on.
pub fn run(workload: &str, plan: &Plan, traced: bool) -> Result<Outcome, String> {
    let pass: fn(&Plan, Until, Tracer) -> Pass = match workload {
        "mst-build" => builds::mst_pass,
        "mdst-build" => builds::mdst_pass,
        "bfs-faults" => bfs_faults::pass,
        "churn-serve" => churn_serve::pass,
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    };
    if !traced {
        let p = pass(plan, Until::Seconds(plan.seconds), Tracer::off());
        let metrics = vec![
            ("setup_s", stats::median(&p.setup_s), "s"),
            ("stabilize_s", stats::mean(&p.stabilize_s), "s"),
            ("repair_ms_mean", stats::trimmed_mean(&p.repair_ms), "ms"),
            ("rounds_to_silence", p.rounds as f64, "rounds"),
            ("peak_rss_mib", p.peak_rss_mib, "MiB"),
            ("store_bytes_per_node", p.store_bytes_per_node, "B"),
        ];
        return Ok(Outcome {
            attempted: p.audit.attempted,
            failed: p.audit.failed,
            failures: p.audit.failures,
            metrics,
            spans: None,
            provenance: format!(
                "{} timed operations: {:.3} s CPU in {:.3} s wall, {:.3} s at the reference speed",
                p.provenance, p.clock.cpu_s, p.clock.wall_s, p.clock.scaled_s
            ),
        });
    }
    let base = pass(plan, Until::Prefix, Tracer::off());
    let traced = pass(plan, Until::Prefix, Tracer::on(Instant::now()));
    let mut audit = base.audit.clone();
    audit.merge(traced.audit.clone());
    check_same_work(&base, &traced, &mut audit);
    let metrics = per_layer(&base, &traced);
    Ok(Outcome {
        attempted: audit.attempted,
        failed: audit.failed,
        failures: audit.failures,
        metrics,
        spans: Some(traced.tracer.to_jsonl()),
        provenance: format!(
            "{} passes: untraced {:.3} s, traced {:.3} s",
            traced.provenance, base.wall_s, traced.wall_s
        ),
    })
}

/// The traced pass must do the untraced pass's deterministic work: same rounds,
/// guard evaluations, labels written and final trees.
fn check_same_work(base: &Pass, traced: &Pass, audit: &mut Audit) {
    audit.check(
        base.fingerprint == traced.fingerprint && base.rounds == traced.rounds,
        || {
            format!(
                "traced pass diverged from the untraced one: {:?} vs {:?}",
                traced.fingerprint, base.fingerprint
            )
        },
    );
}

/// Span names whose total time is reported as `<name>_ms`.
const TIMED_MS: [&str; 21] = [
    "graph.generate",
    "executor.construct",
    "executor.step",
    "executor.legality",
    "executor.corrupt",
    "persist.checkpoint",
    "persist.encode",
    "persist.validate",
    "persist.restore",
    "store.report",
    "engine.new",
    "engine.build",
    "engine.label_scratch",
    "engine.label_repair",
    "engine.improve",
    "engine.silence_check",
    "engine.topology",
    "engine.recover",
    "engine.corrupt",
    "churn.trace",
    "serve.publish",
];

fn per_layer(base: &Pass, traced: &Pass) -> Vec<(&'static str, f64, &'static str)> {
    let tr = &traced.tracer;
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    for name in TIMED_MS {
        let metric = PER_LAYER
            .iter()
            .find(|(m, _)| m.strip_suffix("_ms") == Some(name))
            .expect("every timed span has a metric")
            .0;
        values.insert(metric, tr.total_ms(name));
    }
    values.insert("serve.refresh_ns", tr.mean_ns("serve.refresh"));
    values.insert("serve.loadgen_ns", tr.mean_ns("serve.loadgen"));
    for (kind, metric) in churn_serve::QUERY_SPANS {
        values.insert(metric, tr.mean_ns(kind));
    }
    for (name, value) in &traced.counts {
        values.insert(name, *value);
    }
    let evals = traced
        .counts
        .get("executor.step_evals")
        .copied()
        .unwrap_or(0.0);
    values.insert(
        "executor.ns_per_guard_eval",
        if evals > 0.0 {
            tr.total_ns("executor.step") as f64 / evals
        } else {
            0.0
        },
    );
    let all_evals = traced
        .counts
        .get("executor.guard_evals")
        .copied()
        .unwrap_or(0.0);
    let hits = traced
        .counts
        .get("executor.screen_hits")
        .copied()
        .unwrap_or(0.0);
    values.insert(
        "executor.screen_hit_ratio",
        if all_evals > 0.0 {
            hits / all_evals
        } else {
            0.0
        },
    );
    values.insert("repair_ms_p95", stats::percentile(&base.repair_ms, 95.0));
    values.insert("restore_s", stats::median(&base.restore_s));
    if let Some(reader) = &base.reader {
        values.insert("query_ns_p50", reader.hist.percentile(50.0));
        values.insert("query_ns_p99", reader.hist.percentile(99.0));
        values.insert("qps", reader.qps());
    }
    if let Some(reader) = &traced.reader {
        reader.per_layer(&mut values);
    }
    values.insert(
        "trace.overhead_frac",
        traced.wall_s / base.wall_s.max(f64::MIN_POSITIVE) - 1.0,
    );
    values.insert("trace.unattributed_frac", tr.unattributed_frac());
    values.insert("bench.verify_ms", tr.total_ms("bench.verify"));
    values.insert("bench.cpu_share", base.clock.cpu_share());
    values.insert("bench.host_speed", base.clock.host_speed());
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// A 64-bit seed derived from the workload seed, a stream and an index
/// (splitmix64 finalizer).
pub(crate) fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ index.wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(17);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether the arbitrary configuration the engine's build phase draws with `seed`
/// (`Executor::from_arbitrary` with the engine's seed) names a root identity below
/// the graph's smallest identity: a "ghost root".
///
/// A ghost root makes the guarded-rule build flush a phantom identity for O(n)
/// rounds instead of a handful (8,571 rounds at n = 10,000). About two
/// configurations in five have one: root fields are drawn from 0..=2n, identities
/// are 1..=n.
pub(crate) fn plants_ghost_root(graph: &Graph, seed: u64) -> bool {
    let min = graph.ident(graph.min_ident_node());
    let exec = Executor::from_arbitrary(
        graph,
        stst_core::spanning::MinIdSpanningTree,
        ExecutorConfig::seeded(seed),
    );
    exec.states().iter().any(|st| st.root < min)
}

/// The engine seed for `graph`: the first seed derived from `base` whose arbitrary
/// configuration plants no ghost root. No workload exercises the ghost-root flush,
/// so every workload seed gives a workload of the same kind; the check looks at the
/// configuration only, before anything is timed.
pub(crate) fn ghost_free_seed(graph: &Graph, base: u64) -> u64 {
    (0..)
        .map(|j| derive(base, 0x6057, j))
        .find(|&s| !plants_ghost_root(graph, s))
        .expect("some configuration plants no ghost root")
}

/// FNV-1a over a parent vector: the final-tree part of a fingerprint.
pub(crate) fn tree_hash(tree: &Tree) -> u64 {
    tree.parents().iter().fold(0xcbf2_9ce4_8422_2325, |h, p| {
        let x = p.map_or(u64::MAX, |NodeId(v)| v as u64);
        (h ^ x).wrapping_mul(0x100_0000_01b3)
    })
}

/// Steps `engine` to silence, one span per step named after the phase event it
/// returned; returns whether the silent configuration is legal.
pub(crate) fn settle(
    engine: &mut CompositionEngine<'_>,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> bool {
    let mut after_build = false;
    loop {
        let started = tr.start();
        let event = engine.step();
        let name = match &event {
            PhaseEvent::TreeConstructed { .. } => "engine.build",
            PhaseEvent::LabelsReady { .. } if after_build => "engine.label_scratch",
            PhaseEvent::LabelsReady { .. } => "engine.label_repair",
            PhaseEvent::Switched { .. } => "engine.improve",
            PhaseEvent::Recovered { .. } => "engine.recover",
            PhaseEvent::Stabilized { .. } => "engine.silence_check",
            PhaseEvent::TopologyApplied { .. } | PhaseEvent::Partitioned { .. } => {
                "engine.topology"
            }
        };
        tr.end(started, name, Kind::Layer);
        after_build = false;
        match event {
            PhaseEvent::TreeConstructed { rounds } => {
                bump(counts, "engine.build_rounds", rounds as f64);
                after_build = true;
            }
            PhaseEvent::LabelsReady { .. } => bump(counts, "engine.label_waves", 1.0),
            PhaseEvent::Stabilized { legal } => return legal,
            _ => {}
        }
    }
}

/// Adds an engine's ledger, grouped by phase, and its work counters to `counts`.
pub(crate) fn count_engine(engine: &CompositionEngine<'_>, counts: &mut Counts) {
    for (label, rounds) in engine.report().phase_rounds {
        let group = if label.starts_with("tree construction") {
            "engine.rounds.build"
        } else if label.starts_with("topology delta") {
            "engine.rounds.topology"
        } else if label.ends_with("repair (dirty region)") {
            "engine.rounds.label_repair"
        } else if label.contains("switch") {
            "engine.rounds.switch"
        } else if label.starts_with("FR marking") {
            "engine.rounds.fr_marking"
        } else if label.contains("corruption recovery") {
            "engine.rounds.recovery"
        } else if label.contains("labels") {
            "engine.rounds.label_scratch"
        } else {
            "engine.rounds.other"
        };
        bump(counts, group, rounds as f64);
    }
    bump(
        counts,
        "engine.labels_written",
        engine.labels_written() as f64,
    );
    bump(counts, "engine.switches", engine.improvements() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_traced_pass_that_did_other_work_is_a_failure() {
        let mut base = Pass::new(Tracer::off());
        base.fingerprint = vec![10, 20, 30];
        let mut traced = Pass::new(Tracer::off());
        traced.fingerprint = base.fingerprint.clone();
        let mut audit = Audit::default();
        check_same_work(&base, &traced, &mut audit);
        assert_eq!((audit.attempted, audit.failed), (1, 0));
        traced.fingerprint[1] += 1;
        check_same_work(&base, &traced, &mut audit);
        assert_eq!((audit.attempted, audit.failed), (2, 1));
    }

    #[test]
    fn the_result_line_reports_failures() {
        let outcome = Outcome {
            attempted: 3,
            failed: 1,
            failures: vec!["planted".into()],
            metrics: vec![("setup_s", 0.5, "s")],
            spans: None,
            provenance: String::new(),
        };
        assert!(!outcome.correct());
        assert_eq!(
            outcome.json(),
            r#"{"correct": false, "attempted": 3, "failed": 1, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
    }

    #[test]
    fn ghost_free_seeds_plant_no_ghost_root() {
        let graph = stst_graph::generators::workload(50, 0.2, 4);
        let planted = (0..40).filter(|&s| plants_ghost_root(&graph, s)).count();
        assert!(planted > 0, "the property occurs");
        for base in 0..20 {
            assert!(!plants_ghost_root(&graph, ghost_free_seed(&graph, base)));
        }
    }

    /// The E10 anomaly (`churn_scale`, seed 71): at n = 1,000 the build starts from a
    /// ghost root and flushes it for 408 rounds; at n = 2,500 it does not (5 rounds).
    #[test]
    fn e10_seed_71_plants_a_ghost_root_at_n_1000_only() {
        let graph = |n: usize| stst_graph::generators::workload(n, 6.0 / n as f64, 71);
        assert!(plants_ghost_root(&graph(1_000), 71));
        assert!(!plants_ghost_root(&graph(2_500), 71));
    }
}
