//! In-memory spans recorded around every public call the benchmark makes into a
//! layer. No crate is instrumented: the spans live here, in the benchmark's own code.
//!
//! A span has a name, a start, an end and a parent. The tree is
//! workload → operation → layer call; correctness checks, input selection and clock
//! calibration get `Harness` spans of their own so they count neither as a layer
//! nor as unattributed time. Calls too short and too many to record one by one (serve queries) are kept
//! as per-name aggregates. A disabled tracer never reads the clock and records
//! nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One pass of a workload on one thread (the root).
    Workload,
    /// One operation of the workload: a setup, a construction, a repair, a restore.
    Operation,
    /// One public call into a layer.
    Layer,
    /// Benchmark work outside every layer: correctness checks, input selection and
    /// clock calibration.
    Harness,
}

impl Kind {
    fn tag(self) -> &'static str {
        match self {
            Kind::Workload => "workload",
            Kind::Operation => "operation",
            Kind::Layer => "layer",
            Kind::Harness => "harness",
        }
    }
}

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
struct Span {
    pub name: &'static str,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Calls of one name under one parent, kept as a count and a total.
#[derive(Clone, Copy, Debug, Default)]
struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
}

/// The span recorder (see the module docs).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    aggregates: BTreeMap<(&'static str, usize), Aggregate>,
}

/// A started leaf span; finish it with [`Tracer::end`].
#[must_use]
pub struct Started(Option<Instant>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer::new(false, Instant::now())
    }

    /// A recording tracer whose times count from `origin`.
    pub fn on(origin: Instant) -> Self {
        Tracer::new(true, origin)
    }

    fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            aggregates: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a workload or operation span; later spans nest under it until
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, kind: Kind) {
        if !self.enabled {
            return;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            kind,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("close matches an open");
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Starts a leaf span (its name is given when it ends, so it can depend on the
    /// call's result).
    pub fn start(&self) -> Started {
        Started(self.enabled.then(Instant::now))
    }

    /// Ends a leaf span started by [`Tracer::start`].
    pub fn end(&mut self, started: Started, name: &'static str, kind: Kind) {
        if let Some(start) = started.0 {
            let end = Instant::now();
            self.spans.push(Span {
                name,
                kind,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.open.last().copied(),
            });
        }
    }

    /// Times one layer call.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let started = self.start();
        let out = f();
        self.end(started, name, Kind::Layer);
        out
    }

    /// Times one correctness check.
    pub fn verify<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.harness("bench.verify", f)
    }

    /// Times benchmark work that belongs to no layer.
    pub fn harness<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let started = self.start();
        let out = f();
        self.end(started, name, Kind::Harness);
        out
    }

    /// A tracer for another thread: same origin, same on/off state.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.enabled, self.origin)
    }

    /// Adds `count` calls totalling `total_ns` under `name`, below the innermost
    /// open span.
    pub fn aggregate(&mut self, name: &'static str, count: u64, total_ns: u64) {
        if !self.enabled || count == 0 {
            return;
        }
        let parent = self
            .open
            .last()
            .copied()
            .expect("aggregates nest in a span");
        let slot = self.aggregates.entry((name, parent)).or_default();
        slot.count += count;
        slot.total_ns += total_ns;
    }

    /// Moves every span and aggregate of `other` (another thread's tracer with the
    /// same origin) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        for mut span in other.spans {
            span.parent = span.parent.map(|p| p + offset);
            self.spans.push(span);
        }
        for ((name, parent), agg) in other.aggregates {
            let slot = self.aggregates.entry((name, parent + offset)).or_default();
            slot.count += agg.count;
            slot.total_ns += agg.total_ns;
        }
    }

    /// Total nanoseconds of the spans and aggregates named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        let spans: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let aggs: u64 = self
            .aggregates
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, a)| a.total_ns)
            .sum();
        spans + aggs
    }

    /// Number of calls named `name` (spans plus aggregated calls).
    pub fn count(&self, name: &str) -> u64 {
        let spans = self.spans.iter().filter(|s| s.name == name).count() as u64;
        let aggs: u64 = self
            .aggregates
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, a)| a.count)
            .sum();
        spans + aggs
    }

    /// Milliseconds of the spans and aggregates named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.total_ns(name) as f64 / 1e6
    }

    /// Mean nanoseconds per call named `name` (0 when there was none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            c => self.total_ns(name) as f64 / c as f64,
        }
    }

    /// Share of workload time covered by no layer call and no harness span: for every
    /// root span, its duration minus the layer, harness and aggregate time below it.
    pub fn unattributed_frac(&self) -> f64 {
        let mut root_of: Vec<usize> = Vec::with_capacity(self.spans.len());
        for (i, span) in self.spans.iter().enumerate() {
            let root = match span.parent {
                Some(p) => root_of[p],
                None => i,
            };
            root_of.push(root);
        }
        let mut covered: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if matches!(span.kind, Kind::Layer | Kind::Harness) {
                *covered.entry(root_of[i]).or_default() += span.end_ns - span.start_ns;
            }
        }
        for ((_, parent), agg) in &self.aggregates {
            *covered.entry(root_of[*parent]).or_default() += agg.total_ns;
        }
        let (mut total, mut missing) = (0u64, 0u64);
        for (i, span) in self.spans.iter().enumerate() {
            if span.parent.is_none() {
                let wall = span.end_ns - span.start_ns;
                total += wall;
                missing += wall.saturating_sub(covered.get(&i).copied().unwrap_or(0));
            }
        }
        if total == 0 {
            0.0
        } else {
            missing as f64 / total as f64
        }
    }

    /// The spans and aggregates as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"name":"{}","kind":"{}","start_ns":{},"end_ns":{},"parent":{parent}}}"#,
                s.name,
                s.kind.tag(),
                s.start_ns,
                s.end_ns
            );
        }
        for ((name, parent), a) in &self.aggregates {
            let _ = writeln!(
                out,
                r#"{{"name":"{name}","kind":"aggregate","count":{},"total_ns":{},"parent":{parent}}}"#,
                a.count, a.total_ns
            );
        }
        out
    }
}
