//! `churn-serve`: a writer repairs an MST under link churn and publishes every
//! silence while a reader answers queries off its pinned epoch.
//!
//! The writer (engine threads 1) works in segments, each on its own S1/E10 graph
//! `workload(2000, 6/n, seed)`. A segment's setup stabilizes the graph under the
//! central daemon, publishes it and generates a steady Poisson link-churn trace
//! (rate 1.5 per wave, no node churn); the segment then replays 100 batches,
//! injects `corrupt_random_labels(2)` after every 5th, and publishes at every
//! silence. The reader (one more thread, one closed-loop client) answers the default
//! zipfian(0.99) query mix off its pinned epoch and re-pins every 4,096 queries.
//! Node ids stay valid across segments: every graph has the same `n`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use stst_churn::{trace, ChurnDriver, TopologyEvent};
use stst_core::{CompositionEngine, EngineConfig, EngineTask, PhaseEvent};
use stst_graph::generators;
use stst_runtime::store::StoreMode;
use stst_serve::{LoadGen, QueryMix, ServeHub, QUERY_KINDS};

use crate::gates;
use crate::stats::LatencyHist;
use crate::tracer::{Kind, Tracer};
use crate::{bump, count_engine, derive, ghost_free_seed, settle, tree_hash};
use crate::{Counts, Pass, Plan, Scale, Until};

/// Aggregate span per query kind (by `Query::kind_index`) and its metric.
pub(crate) const QUERY_SPANS: [(&str, &str); QUERY_KINDS] = [
    ("serve.query.dist_to_root", "serve.query_ns.dist_to_root"),
    ("serve.query.tree_dist", "serve.query_ns.tree_dist"),
    ("serve.query.nca_depth", "serve.query_ns.nca_depth"),
    ("serve.query.ancestor", "serve.query_ns.ancestor"),
    ("serve.query.same_fragment", "serve.query_ns.same_fragment"),
];

const RATE: f64 = 1.5;
const CORRUPT_EVERY: usize = 5;
const CHECK_EVERY: u64 = 64;
const REFRESH_EVERY: u64 = 4096;

struct Spec {
    n: usize,
    /// Churn waves generated per segment (about 78% of them carry events).
    waves: usize,
    /// Non-empty batches replayed per segment.
    batches: usize,
    /// Segments in the fixed prefix (deterministic counts, traced passes).
    prefix: usize,
}

/// What the reader measured.
#[derive(Debug, Default)]
pub(crate) struct ReaderOut {
    pub queries: u64,
    pub wall_ns: u64,
    pub verify_ns: u64,
    pub hist: LatencyHist,
    pub checked: u64,
    pub mismatches: u64,
    pub screened: u64,
    pub full_decodes: u64,
    pub staleness_max: u64,
    pub epochs: u64,
}

impl ReaderOut {
    /// Queries per second of reader time outside the correctness checks.
    pub(crate) fn qps(&self) -> f64 {
        let ns = self.wall_ns.saturating_sub(self.verify_ns).max(1);
        self.queries as f64 * 1e9 / ns as f64
    }

    pub(crate) fn per_layer(&self, values: &mut BTreeMap<&'static str, f64>) {
        values.insert("serve.screen_hits", self.screened as f64);
        values.insert("serve.full_decodes", self.full_decodes as f64);
        values.insert("serve.epochs", self.epochs as f64);
        values.insert("serve.staleness_waves_max", self.staleness_max as f64);
        values.insert("serve.oracle_checked", self.checked as f64);
        values.insert("serve.oracle_mismatches", self.mismatches as f64);
    }
}

fn ns(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// The reader: one closed-loop client until `stop`. Every query is timed; the time
/// between two queries (drawing the next query from the load generator, and the
/// loop's own bookkeeping) is the `serve.loadgen` aggregate. Every 64th answer is
/// checked against direct traversal of the pinned tree.
fn read(
    hub: &ServeHub,
    n: usize,
    seed: u64,
    stop: &AtomicBool,
    mut tr: Tracer,
) -> (ReaderOut, Tracer) {
    let mut rd = hub.reader().expect("the setup published a snapshot");
    let mut gen = LoadGen::new(n, 0.99, QueryMix::default_mix(), seed);
    let mut out = ReaderOut::default();
    let mut kind = [(0u64, 0u64); QUERY_KINDS];
    let (mut loadgen_ns, mut refresh_ns, mut refreshes) = (0u64, 0u64, 0u64);
    tr.open("reader", Kind::Workload);
    let start = Instant::now();
    let mut prev = start;
    // A stop flag publishes no data, so a relaxed load suffices.
    while out.queries == 0 || !stop.load(Ordering::Relaxed) {
        let query = gen.next_query();
        let t1 = Instant::now();
        let answer = rd.query(query);
        let t2 = Instant::now();
        let q_ns = ns(t1, t2);
        out.hist.record(q_ns);
        let slot = &mut kind[query.kind_index()];
        slot.0 += 1;
        slot.1 += q_ns;
        loadgen_ns += ns(prev, t1);
        prev = t2;
        out.queries += 1;
        if out.queries % CHECK_EVERY == 0 {
            if let Some(expected) = gates::traversal_answer(rd.snapshot(), query) {
                out.checked += 1;
                out.mismatches += u64::from(answer != expected);
            }
            let t3 = Instant::now();
            out.verify_ns += ns(t2, t3);
            prev = t3;
        }
        if out.queries % REFRESH_EVERY == 0 {
            out.screened += rd.stats().screened;
            out.full_decodes += rd.stats().full_decodes;
            out.staleness_max = out.staleness_max.max(rd.staleness_waves());
            let t3 = Instant::now();
            rd.refresh();
            let t4 = Instant::now();
            refresh_ns += ns(t3, t4);
            refreshes += 1;
            prev = t4;
        }
    }
    out.wall_ns = ns(start, Instant::now());
    out.screened += rd.stats().screened;
    out.full_decodes += rd.stats().full_decodes;
    out.epochs = hub.epoch();
    for (k, &(count, total)) in kind.iter().enumerate() {
        tr.aggregate(QUERY_SPANS[k].0, count, total);
    }
    tr.aggregate("serve.loadgen", out.queries, loadgen_ns);
    tr.aggregate("serve.refresh", refreshes, refresh_ns);
    tr.aggregate("bench.verify", out.queries / CHECK_EVERY, out.verify_ns);
    tr.close();
    (out, tr)
}

/// Raises the reader's stop flag when dropped.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// The writer's handle on the engine. Untraced it goes through
/// `ChurnDriver::inject`; traced it makes the calls `inject` makes, one by one.
enum Writer<'g> {
    Driver(Option<ChurnDriver<'g>>),
    Engine(CompositionEngine<'g>),
}

impl<'g> Writer<'g> {
    fn engine(&self) -> &CompositionEngine<'g> {
        match self {
            Writer::Driver(d) => d
                .as_ref()
                .expect("the driver is back after every call")
                .engine(),
            Writer::Engine(e) => e,
        }
    }

    /// One batch, from injection to silence: `(applied, legal)`.
    fn inject(
        &mut self,
        batch: &[TopologyEvent],
        tr: &mut Tracer,
        counts: &mut Counts,
    ) -> (bool, bool) {
        match self {
            Writer::Driver(d) => {
                let report = d.as_mut().expect("the driver is back").inject(batch);
                bump(counts, "engine.dirty_nodes", report.dirty_nodes as f64);
                bump(counts, "engine.reanchored", report.reanchored as f64);
                (report.applied, report.legal)
            }
            Writer::Engine(engine) => {
                // `inject` first steps the engine to silence (already silent here),
                // then applies the batch at that wave boundary.
                let legal = settle(engine, tr, counts);
                let mut n = engine.graph().node_count();
                let mut mutations = Vec::new();
                for event in batch {
                    mutations.extend(event.mutations(n));
                    n = n
                        .checked_add_signed(event.node_delta())
                        .expect("node count stays positive");
                }
                match tr.call("engine.topology", || engine.apply_topology(&mutations)) {
                    PhaseEvent::Partitioned { .. } => (false, legal),
                    PhaseEvent::TopologyApplied {
                        dirty_nodes,
                        reanchored,
                        ..
                    } => {
                        bump(counts, "engine.dirty_nodes", dirty_nodes as f64);
                        bump(counts, "engine.reanchored", reanchored as f64);
                        (true, settle(engine, tr, counts))
                    }
                    other => unreachable!("apply_topology reports deltas, got {other:?}"),
                }
            }
        }
    }

    /// `corrupt_random_labels(2)`, then back to silence: legality.
    fn corrupt(&mut self, tr: &mut Tracer, counts: &mut Counts) -> bool {
        match self {
            Writer::Driver(slot) => {
                let mut engine = slot.take().expect("the driver is back").into_engine();
                engine.corrupt_random_labels(2);
                let mut driver = ChurnDriver::new(engine);
                let legal = driver.stabilize().legal;
                *slot = Some(driver);
                legal
            }
            Writer::Engine(engine) => {
                tr.call("engine.corrupt", || engine.corrupt_random_labels(2));
                settle(engine, tr, counts)
            }
        }
    }
}

pub(crate) fn pass(plan: &Plan, until: Until, tracer: Tracer) -> Pass {
    let spec = match plan.scale {
        Scale::Full => Spec {
            n: 2_000,
            waves: 150,
            batches: 100,
            prefix: 3,
        },
        Scale::Tiny => Spec {
            n: 80,
            waves: 20,
            batches: 10,
            prefix: 2,
        },
    };
    let mut pass = Pass::new(tracer);
    let _ = write!(
        pass.provenance,
        "churn-serve seed={} n={} writer_threads=1 reader_threads=1 daemon=Central \
         waves/segment={} batches/segment={} rate={RATE} corrupt_every={CORRUPT_EVERY} segments:",
        plan.seed, spec.n, spec.waves, spec.batches
    );
    let started = Instant::now();
    pass.tracer.open("churn-serve", Kind::Workload);
    let hub = ServeHub::new(StoreMode::Packed);
    let stop = AtomicBool::new(false);
    let (published, first_publication) = mpsc::channel::<()>();
    let reader_tracer = pass.tracer.sibling();
    let reader_seed = derive(plan.seed, 2, 1_000);
    let reader = std::thread::scope(|scope| {
        let (hub, stop, spec) = (&hub, &stop, &spec);
        let handle = scope.spawn(move || {
            // An error means the writer stopped before its first publication.
            first_publication.recv().ok()?;
            Some(read(hub, spec.n, reader_seed, stop, reader_tracer))
        });
        // Stops the reader even if the writer panics: the scope joins the reader
        // before it lets the panic through.
        let stop_reader = StopOnDrop(stop);
        write(spec, plan, until, started, hub, published, &mut pass);
        drop(stop_reader);
        handle.join().expect("the reader thread does not panic")
    });
    if let Some((reader, reader_tracer)) = reader {
        pass.tracer.absorb(reader_tracer);
        pass.audit.attempted += reader.checked;
        pass.audit.failed += reader.mismatches;
        if reader.mismatches > 0 {
            pass.audit.failures.push(format!(
                "churn-serve: {} served answers differ from traversal",
                reader.mismatches
            ));
        }
        pass.reader = Some(reader);
    }
    pass.tracer.close();
    pass.wall_s = started.elapsed().as_secs_f64();
    pass
}

/// The writer: segment after segment, each on its own graph. A segment's setup
/// generates the graph, stabilizes it, publishes it and generates its churn trace;
/// then its batches are replayed, with a label fault after every 5th.
fn write(
    spec: &Spec,
    plan: &Plan,
    until: Until,
    started: Instant,
    hub: &ServeHub,
    published: mpsc::Sender<()>,
    pass: &mut Pass,
) {
    // Taken out of the pass while the writer runs, so both can be borrowed.
    let mut tracer = std::mem::replace(&mut pass.tracer, Tracer::off());
    let tr = &mut tracer;
    let n = spec.n;
    let mut published = Some(published);
    let (mut bytes_sum, mut bits_sum) = (0.0, 0.0);
    let mut s = 0;
    while until.more(s, spec.prefix, started) {
        let in_prefix = s < spec.prefix;
        let mut counts = Counts::new();
        let seed = derive(plan.seed, 2, s as u64);
        tr.open("setup", Kind::Operation);
        let lap = pass.clock.start(tr);
        let graph = tr.call("graph.generate", || {
            generators::workload(n, 6.0 / n as f64, seed)
        });
        let mut setup_s = pass.clock.stop(lap);
        let engine_seed = tr.harness("bench.inputs", || ghost_free_seed(&graph, seed));
        let lap = pass.clock.start(tr);
        let config = EngineConfig::seeded(engine_seed).with_threads(1);
        let mut engine = tr.call("engine.new", || {
            CompositionEngine::new(&graph, EngineTask::Mst, config)
        });
        setup_s += pass.clock.stop(lap);
        let lap = pass.clock.start(tr);
        let legal = settle(&mut engine, tr, &mut counts);
        let stabilize_s = pass.clock.stop(lap);
        let lap = pass.clock.start(tr);
        tr.call("serve.publish", || hub.publish_from_engine(&engine));
        let churn = tr.call("churn.trace", || {
            trace::steady_poisson(&graph, spec.waves, RATE, 0.0, seed)
        });
        setup_s += stabilize_s + pass.clock.stop(lap);
        pass.setup_s.push(setup_s);
        pass.stabilize_s.push(stabilize_s);
        tr.close();
        let ok = tr.verify(|| legal && gates::is_minimum(&graph, engine.tree()));
        pass.audit.check(ok, || {
            format!("churn-serve segment {s}: initial MST is not minimum")
        });
        if let Some(tx) = published.take() {
            // The reader may start: a snapshot is pinned-able from now on.
            let _ = tx.send(());
        }

        let mut writer = if tr.enabled() {
            Writer::Engine(engine)
        } else {
            Writer::Driver(Some(ChurnDriver::new(engine)))
        };
        let batches = churn
            .batches
            .iter()
            .filter(|b| !b.is_empty())
            .take(spec.batches);
        for (b, batch) in batches.enumerate() {
            if !in_prefix && !until.more(s, spec.prefix, started) {
                break;
            }
            tr.open("repair", Kind::Operation);
            let lap = pass.clock.start(tr);
            let (applied, legal) = writer.inject(batch, tr, &mut counts);
            if applied {
                tr.call("serve.publish", || hub.publish_from_engine(writer.engine()));
            }
            pass.repair_ms.push(pass.clock.stop(lap) * 1e3);
            tr.close();
            bump(&mut counts, "churn.batches", 1.0);
            bump(&mut counts, "churn.events", batch.len() as f64);
            bump(&mut counts, "churn.severed", f64::from(u8::from(!applied)));
            let ok = tr.verify(|| {
                let engine = writer.engine();
                legal && engine.is_publishable() && gates::is_minimum(engine.graph(), engine.tree())
            });
            pass.audit.check(ok, || {
                format!("churn-serve segment {s} batch {b}: tree is not minimum")
            });

            if (b + 1) % CORRUPT_EVERY == 0 {
                tr.open("repair", Kind::Operation);
                let lap = pass.clock.start(tr);
                let legal = writer.corrupt(tr, &mut counts);
                tr.call("serve.publish", || hub.publish_from_engine(writer.engine()));
                pass.repair_ms.push(pass.clock.stop(lap) * 1e3);
                tr.close();
                let ok = tr.verify(|| {
                    let engine = writer.engine();
                    legal
                        && engine.is_publishable()
                        && gates::is_minimum(engine.graph(), engine.tree())
                });
                pass.audit.check(ok, || {
                    format!("churn-serve segment {s} batch {b}: label repair is not minimum")
                });
            }
        }

        if in_prefix {
            // The deterministic end of the segment: rounds, work counters, the tree
            // and the packed size of the silent configuration.
            let engine = writer.engine();
            pass.rounds += engine.total_rounds();
            pass.fingerprint.extend([
                engine.total_rounds(),
                engine.labels_written(),
                engine.improvements() as u64,
                tree_hash(engine.tree()),
            ]);
            let space = tr.call("store.report", || engine.packed_space());
            bytes_sum += space.bytes_per_node;
            bits_sum += space.accounted_bits_per_node;
            tr.harness("bench.collect", || count_engine(engine, &mut counts));
            for (name, value) in counts {
                bump(&mut pass.counts, name, value);
            }
            let _ = write!(pass.provenance, " {seed}/{engine_seed}");
            if s + 1 == spec.prefix {
                pass.peak_rss_mib = pass.clock.peak_rss_mib();
            }
        }
        s += 1;
    }
    pass.tracer = tracer;
    pass.store_bytes_per_node = bytes_sum / spec.prefix as f64;
    pass.counts
        .insert("store.bytes_per_node", pass.store_bytes_per_node);
    pass.counts.insert(
        "store.accounted_bits_per_node",
        bits_sum / spec.prefix as f64,
    );
    let _ = write!(pass.provenance, " done={s}");
}
