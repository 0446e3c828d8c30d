//! `stst-serve`: the serving layer over silent configurations.
//!
//! The paper's point of *silence* is that a stabilized configuration — the spanning
//! tree plus its `O(log² n)`-bit certificates — is meant to be **consumed** by
//! higher-level protocols under real load ("millions of users, heavy traffic").
//! This crate is that consumer: it turns the certified labels into a concurrent
//! distance/NCA/fragment oracle that keeps answering while the engine repairs under
//! churn.
//!
//! Three pieces:
//!
//! * **Epoch publication** ([`epoch`]): the engine publishes an immutable
//!   [`ServeSnapshot`] at each silence; readers pin an epoch and answer every query
//!   from the pinned value — no reader-side locks on the hot path, no torn reads by
//!   construction, staleness bounded by one repair convergence (readers observe the
//!   *last* silent configuration, never an intermediate repair state).
//! * **Query engine** ([`query`]): answers come from the labels alone. On packed
//!   stores the hot path streams fields straight out of the bit-packed slots
//!   (escape-aware [`stst_runtime::FieldReader`]); full decodes happen only on
//!   escape or in the struct reference mode.
//! * **Load generation** ([`workload`]): seeded scrambled-zipfian query streams for
//!   the benches and the differential oracle.
//!
//! [`ServeHub`] wires the pieces to `stst-obs`: readers tally served/screened
//! counts and latencies locally and flush them only at epoch boundaries (the
//! serving layer's wave boundaries), keeping the registry off the per-query path.

pub mod epoch;
pub mod query;
pub mod snapshot;
pub mod workload;

use std::time::Instant;

use stst_core::CompositionEngine;
use stst_obs::Obs;
use stst_runtime::store::StoreMode;

pub use epoch::{Pinned, SnapshotHub};
pub use query::{Answer, Query, QueryStats, QUERY_KINDS};
pub use snapshot::{ServeSnapshot, SnapshotLabels};
pub use workload::{LoadGen, QueryMix, Zipfian};

/// The serving hub: the publication slot plus the observability handle the readers
/// flush into. One writer (whoever drives the engine), any number of readers.
#[derive(Debug)]
pub struct ServeHub {
    hub: SnapshotHub<ServeSnapshot>,
    mode: StoreMode,
    obs: Obs,
}

impl ServeHub {
    /// A hub whose published snapshots use `mode` for their label stores.
    pub fn new(mode: StoreMode) -> Self {
        ServeHub {
            hub: SnapshotHub::new(),
            mode,
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observability handle. Readers created afterwards flush their
    /// per-epoch tallies (`queries_served*`, `query_ns`, `snapshot_staleness_waves`,
    /// screen-hit counters) into its registry; latency sampling is active only while
    /// the handle is enabled.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The attached observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The store mode published snapshots use.
    pub fn mode(&self) -> StoreMode {
        self.mode
    }

    /// Publishes the engine's current silent configuration and returns the new
    /// epoch. Call at silence boundaries — after [`CompositionEngine::run`] or
    /// whenever a churn batch has re-stabilized. When the previous publication came
    /// from the same engine, only the label pages the engine wrote since are packed
    /// again; every other page is shared with it (see [`snapshot`]).
    ///
    /// # Panics
    ///
    /// Panics if the engine is not publishable (see [`ServeSnapshot::from_engine`]).
    pub fn publish_from_engine(&self, engine: &CompositionEngine<'_>) -> u64 {
        let prev = self.hub.pin();
        let snapshot = ServeSnapshot::after(prev.as_ref().map(|p| &*p.snapshot), engine, self.mode);
        drop(prev);
        let wave = snapshot.wave();
        let epoch = self.hub.publish(wave, snapshot);
        if self.obs.is_enabled() {
            self.obs.counter("serve_snapshots_published").inc();
            self.obs.gauge("serve_epoch").set(epoch);
        }
        epoch
    }

    /// The current epoch (0 before the first publication); lock-free.
    pub fn epoch(&self) -> u64 {
        self.hub.epoch()
    }

    /// The newest snapshot's wave stamp; lock-free.
    pub fn latest_wave(&self) -> u64 {
        self.hub.latest_wave()
    }

    /// Pins the current snapshot into a new reader session. `None` before the first
    /// publication.
    pub fn reader(&self) -> Option<ServeReader<'_>> {
        let pinned = self.hub.pin()?;
        Some(ServeReader {
            hub: self,
            pinned,
            stats: QueryStats::default(),
            timed: self.obs.is_enabled(),
        })
    }
}

/// One reader session: a pinned epoch plus local tallies. Queries run lock-free off
/// the pinned snapshot; [`ServeReader::refresh`] is the session's epoch boundary —
/// it flushes the tallies into the hub's obs registry and re-pins if the writer has
/// published a newer snapshot. Dropping the reader flushes too.
#[derive(Debug)]
pub struct ServeReader<'h> {
    hub: &'h ServeHub,
    pinned: Pinned<ServeSnapshot>,
    stats: QueryStats,
    timed: bool,
}

impl ServeReader<'_> {
    /// The pinned epoch.
    pub fn epoch(&self) -> u64 {
        self.pinned.epoch
    }

    /// The pinned snapshot.
    pub fn snapshot(&self) -> &ServeSnapshot {
        &self.pinned.snapshot
    }

    /// The local tallies accumulated since the last flush.
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Answers `query` from the pinned snapshot. Lock-free; repeated calls return
    /// bit-identical answers regardless of concurrent publications.
    #[inline]
    pub fn query(&mut self, query: Query) -> Answer {
        if self.timed {
            let start = Instant::now();
            let answer = query::answer(&self.pinned.snapshot, query, &mut self.stats);
            self.stats
                .record_ns(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            answer
        } else {
            query::answer(&self.pinned.snapshot, query, &mut self.stats)
        }
    }

    /// `true` if the writer has published past the pinned epoch; lock-free.
    pub fn is_stale(&self) -> bool {
        self.hub.epoch() != self.pinned.epoch
    }

    /// Staleness in waves: the newest snapshot's wave stamp minus the pinned one's.
    /// Bounded by one repair convergence — the writer publishes at every silence.
    pub fn staleness_waves(&self) -> u64 {
        self.hub.latest_wave().saturating_sub(self.pinned.wave)
    }

    /// The session's epoch boundary: flushes the local tallies into the obs
    /// registry, then re-pins the newest snapshot. Returns `true` if the pin moved.
    pub fn refresh(&mut self) -> bool {
        self.flush();
        if !self.is_stale() {
            return false;
        }
        if let Some(pinned) = self.hub.hub.pin() {
            let moved = pinned.epoch != self.pinned.epoch;
            self.pinned = pinned;
            if moved && self.hub.obs.is_enabled() {
                self.hub.obs.counter("serve_epoch_refreshes").inc();
            }
            return moved;
        }
        false
    }

    /// Flushes the local tallies into the obs registry (no re-pin). A no-op with a
    /// disabled handle; tallies reset either way so they are never double-counted.
    pub fn flush(&mut self) {
        let obs = &self.hub.obs;
        if obs.is_enabled() {
            let total = self.stats.total();
            if total > 0 {
                obs.counter("queries_served").add(total);
                for (kind, &served) in self.stats.served.iter().enumerate() {
                    if served > 0 {
                        obs.counter(&format!("queries_served_{}", Query::kind_name(kind)))
                            .add(served);
                    }
                }
                obs.counter("serve_screen_hits").add(self.stats.screened);
                obs.counter("serve_full_decodes")
                    .add(self.stats.full_decodes);
                obs.histogram("query_ns")
                    .merge(&self.stats.query_ns_buckets, self.stats.query_ns_sum);
            }
            obs.gauge("snapshot_staleness_waves")
                .set(self.staleness_waves());
        }
        self.stats = QueryStats::default();
    }
}

impl Drop for ServeReader<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}
