//! The `serve` scenario (S1/S2): query throughput off epoch-published snapshots
//! under concurrent churn, gated by a differential oracle.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use stst_churn::{trace, ChurnDriver};
use stst_core::engine::{CompositionEngine, EngineTask};
use stst_core::EngineConfig;
use stst_graph::nca::NcaOracle;
use stst_graph::{generators, Tree};
use stst_runtime::StoreMode;
use stst_serve::{
    Answer, LoadGen, Query, QueryMix, ServeHub, ServeReader, ServeSnapshot, QUERY_KINDS,
};

use crate::{fl, logical_cores, Cell, Ctx, ScenarioRun, Table};

/// Direct-traversal reference for serve answers: a depth table and an [`NcaOracle`]
/// rebuilt from a pinned snapshot's own parent vector. `SameFragment` has no
/// traversal form (its ground truth is the fragment partition, covered by
/// `tests/serve_oracle.rs`), so [`ServeTraversal::expected`] returns `None` for it.
struct ServeTraversal {
    oracle: NcaOracle,
    depths: Vec<usize>,
}

impl ServeTraversal {
    fn of(snapshot: &ServeSnapshot) -> Option<Self> {
        let tree = Tree::from_parents(snapshot.parents().to_vec()).ok()?;
        Some(ServeTraversal {
            oracle: NcaOracle::new(&tree),
            depths: tree.depths(),
        })
    }

    fn expected(&self, query: Query) -> Option<Answer> {
        let depth = |v: stst_graph::NodeId| self.depths[v.0] as u64;
        match query {
            Query::DistToRoot(v) => Some(Answer::Count(depth(v))),
            // From the depth table, not `NcaOracle::tree_distance`, which recomputes
            // the whole depth vector per call.
            Query::TreeDist(u, v) => Some(Answer::Count(
                depth(u) + depth(v) - 2 * depth(self.oracle.nca(u, v)),
            )),
            Query::NcaDepth(u, v) => Some(Answer::Count(depth(self.oracle.nca(u, v)))),
            Query::Ancestor(u, v) => Some(Answer::Flag(self.oracle.is_ancestor(u, v))),
            Query::SameFragment(..) => None,
        }
    }
}

/// What one reader (or all readers of a run, summed) did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReaderStats {
    /// Queries answered.
    pub queries: u64,
    /// Answers sampled into the differential oracle.
    pub checked: u64,
    /// Sampled answers that disagreed with direct traversal of the pinned tree.
    pub mismatches: u64,
    /// Queries answered by streaming bit windows (no decode).
    pub screened: u64,
    /// Queries that fell back to a full label decode.
    pub full_decodes: u64,
    /// Wall time of the slowest reader, nanoseconds.
    pub wall_ns: u64,
}

impl ReaderStats {
    fn add(&mut self, other: ReaderStats) {
        self.queries += other.queries;
        self.checked += other.checked;
        self.mismatches += other.mismatches;
        self.screened += other.screened;
        self.full_decodes += other.full_decodes;
        self.wall_ns = self.wall_ns.max(other.wall_ns);
    }

    /// Aggregate queries per second over the slowest reader's wall time (readers
    /// start together, so this is the honest aggregate rate).
    pub fn qps(&self) -> f64 {
        self.queries as f64 * 1e9 / self.wall_ns.max(1) as f64
    }
}

/// Answers `queries` queries from `gen` off the reader's pinned epoch, checking every
/// 64th answer against direct traversal of that epoch's tree. With `refresh_every`,
/// the reader re-pins to the newest epoch every that many queries.
fn read(
    rd: &mut ServeReader<'_>,
    gen: &mut LoadGen,
    queries: u64,
    refresh_every: Option<u64>,
) -> ReaderStats {
    let mut stats = ReaderStats::default();
    let mut traversal = ServeTraversal::of(rd.snapshot());
    let start = Instant::now();
    for i in 0..queries {
        let query = gen.next_query();
        let answer = rd.query(query);
        if i % 64 == 0 {
            match traversal.as_ref().map(|t| t.expected(query)) {
                Some(Some(expected)) => {
                    stats.checked += 1;
                    stats.mismatches += u64::from(answer != expected);
                }
                Some(None) => {}
                None => stats.mismatches += 1,
            }
        }
        if refresh_every.is_some_and(|every| i % every == every - 1) {
            stats.screened += rd.stats().screened;
            stats.full_decodes += rd.stats().full_decodes;
            if rd.refresh() {
                traversal = ServeTraversal::of(rd.snapshot());
            }
        }
    }
    stats.wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    stats.queries = queries;
    stats.screened += rd.stats().screened;
    stats.full_decodes += rd.stats().full_decodes;
    stats
}

/// One serve run: `threads` readers each answer `queries_per_thread` zipfian-mixed
/// queries off their pinned epochs, re-pinning every 4,096 queries, while the writer
/// injects `waves` of link churn and republishes at every silence. Returns the
/// readers' summed stats, the epochs published (1 = the initial publication) and the
/// churn batches injected.
pub fn serve_scale_run(
    n: usize,
    waves: usize,
    queries_per_thread: u64,
    threads: usize,
    seed: u64,
) -> (ReaderStats, u64, u64) {
    let g = generators::workload(n, 6.0 / n as f64, seed);
    // Link-only churn keeps the node set fixed across epochs, so one generator's
    // node ids stay valid no matter which epoch a reader is pinned to.
    let churn = trace::steady_poisson(&g, waves, 1.5, 0.0, seed);
    let mut driver = ChurnDriver::new(CompositionEngine::new(
        &g,
        EngineTask::Mst,
        EngineConfig::seeded(seed),
    ));
    driver.stabilize();
    let hub = ServeHub::new(StoreMode::Packed);
    hub.publish_from_engine(driver.engine());

    let finished = AtomicUsize::new(0);
    let mut batches = 0u64;
    let mut stats = ReaderStats::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|reader| {
                let (hub, finished) = (&hub, &finished);
                scope.spawn(move || {
                    let mut gen =
                        LoadGen::new(n, 0.99, QueryMix::default_mix(), seed ^ reader as u64);
                    let stats = hub
                        .reader()
                        .map(|mut rd| read(&mut rd, &mut gen, queries_per_thread, Some(4096)));
                    finished.fetch_add(1, Ordering::Release);
                    stats.unwrap_or_default()
                })
            })
            .collect();
        // The writer injects churn and republishes at every silence until the trace
        // runs out or every reader is done. On a small host it competes with the
        // readers for cores — that contention is part of what the run measures.
        for batch in churn.batches.iter().filter(|b| !b.is_empty()) {
            if finished.load(Ordering::Acquire) == threads {
                break;
            }
            driver.inject(batch);
            batches += 1;
            if driver.engine().is_publishable() {
                hub.publish_from_engine(driver.engine());
            }
        }
        for handle in handles {
            stats.add(handle.join().expect("reader thread"));
        }
    });
    (stats, hub.epoch(), batches)
}

/// The `serve` scenario at its smoke or full size.
pub fn serve(ctx: &Ctx, run: &mut ScenarioRun) {
    let (n, waves, queries) = ctx.pick((80, 6, 30_000), (2_000, 16, 400_000));
    serve_report(run, n, waves, queries, &ctx.threads, ctx.seed);
}

/// The gates of one serve run: every sampled answer matched direct traversal, no
/// packed query fell back to a full decode, some answers were checked at all, and
/// the writer published an epoch.
pub(crate) fn serve_gates(run: &mut ScenarioRun, stats: &ReaderStats, epochs: u64) {
    run.check("oracle_exact", stats.mismatches == 0);
    run.check("decode_free", stats.full_decodes == 0);
    run.check("answers_checked", stats.checked > 0);
    run.check("epochs_published", epochs > 0);
}

/// S1 (throughput under churn, one row per reader count in `readers`) and S2
/// (per-kind cost of each query mix on one pinned reader, no churn), with the serve
/// gates: S1 runs pass `serve_gates`, S2 mixes must be oracle-exact and decode-free,
/// and a pinned reader must replay its answers bit-identically across a concurrent
/// publication.
pub fn serve_report(
    run: &mut ScenarioRun,
    n: usize,
    waves: usize,
    queries: u64,
    readers: &[usize],
    seed: u64,
) {
    let mut s1 = Table::new(
        "S1",
        format!(
            "serve throughput under churn: {queries} queries/reader off pinned epochs while \
             the writer injects link churn and republishes at every silence \
             (aggregate-vs-1-reader is overhead on a {}-core host, speedup only when \
             cores exceed readers)",
            logical_cores()
        ),
        &[
            "n",
            "readers",
            "queries",
            "wall ms",
            "qps",
            "qps/reader",
            "vs 1 reader",
            "epochs",
            "churn batches",
            "oracle ok",
            "decode-free %",
        ],
    )
    // `epochs` and `churn batches` are counts, but the writer stops once every reader
    // is done, so they follow thread scheduling.
    .with_volatile(&[
        "wall ms",
        "qps",
        "qps/reader",
        "vs 1 reader",
        "epochs",
        "churn batches",
    ]);
    let mut single_reader_qps = None;
    for &readers in readers {
        let (stats, epochs, batches) = serve_scale_run(n, waves, queries, readers, seed);
        serve_gates(run, &stats, epochs);
        if readers == 1 {
            single_reader_qps = Some(stats.qps());
        }
        // On a small host extra readers buy contention, not speedup; the column
        // says which one this row measured.
        let vs_single: Cell =
            single_reader_qps.map_or("-".into(), |base| fl(stats.qps() / base, 2));
        let decode_free =
            100.0 * stats.screened as f64 / (stats.screened + stats.full_decodes).max(1) as f64;
        s1.rows.push(row![
            n,
            readers,
            stats.queries,
            stats.wall_ns as f64 / 1e6,
            fl(stats.qps(), 0),
            fl(stats.qps() / readers as f64, 0),
            vs_single,
            epochs,
            batches,
            format!("{}/{}", stats.checked - stats.mismatches, stats.checked),
            decode_free
        ]);
    }
    run.table(s1);

    let mut s2 = Table::new(
        "S2",
        "per-kind query cost on one pinned reader (no churn): every kind answers \
         decode-free off the packed certificate store",
        &[
            "mix",
            "queries",
            "qps",
            "ns/query",
            "screen hits",
            "full decodes",
        ],
    )
    .with_volatile(&["qps", "ns/query"]);
    // One publication of a stabilized MST; each mix gets a fresh reader of it.
    let g = generators::workload(n, 6.0 / n as f64, seed);
    let mut engine = CompositionEngine::new(&g, EngineTask::Mst, EngineConfig::seeded(seed));
    engine.run();
    let hub = ServeHub::new(StoreMode::Packed);
    hub.publish_from_engine(&engine);
    let mixes = std::iter::once(("default", QueryMix::default_mix()))
        .chain((0..QUERY_KINDS).map(|k| (Query::kind_name(k), QueryMix::only(k))));
    for (name, mix) in mixes {
        let mut gen = LoadGen::new(n, 0.99, mix, seed);
        let stats = hub.reader().map_or_else(ReaderStats::default, |mut rd| {
            read(&mut rd, &mut gen, queries / 2, None)
        });
        run.check("oracle_exact", stats.mismatches == 0);
        run.check("decode_free", stats.full_decodes == 0);
        let ns_per_query = stats.wall_ns as f64 / stats.queries.max(1) as f64;
        s2.rows.push(row![
            name,
            stats.queries,
            fl(stats.qps(), 0),
            fl(ns_per_query, 0),
            stats.screened,
            stats.full_decodes
        ]);
    }
    run.table(s2);
    let lockstep = pinned_reader_lockstep(&hub, &engine, n, seed);
    run.check("pinned_reader_lockstep", lockstep);
}

/// A reader pinned to the hub's epoch answers a fixed query stream identically
/// before and after a concurrent publication makes its epoch stale.
fn pinned_reader_lockstep(hub: &ServeHub, engine: &CompositionEngine, n: usize, seed: u64) -> bool {
    let Some(mut reader) = hub.reader() else {
        return false;
    };
    let mut gen = LoadGen::new(n, 0.99, QueryMix::default_mix(), seed);
    let queries: Vec<Query> = (0..512).map(|_| gen.next_query()).collect();
    let before: Vec<Answer> = queries.iter().map(|&q| reader.query(q)).collect();
    hub.publish_from_engine(engine);
    let after: Vec<Answer> = queries.iter().map(|&q| reader.query(q)).collect();
    reader.is_stale() && before == after
}
