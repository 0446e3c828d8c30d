//! Epoch-based snapshot publication.
//!
//! The writer (the engine reaching silence) publishes whole immutable snapshots; each
//! publication bumps a monotone **epoch**. Readers *pin* an epoch — an `Arc` clone of
//! the snapshot current at pin time — and answer every query from that pinned value
//! until they explicitly re-pin. The hot path is therefore free of reader-side locks
//! *and* of torn reads by construction: a snapshot is never mutated after publication,
//! only replaced, so the only synchronization is the brief slot lock taken when a
//! reader re-pins (never per query).
//!
//! Hand-rolled on `std::sync` in the spirit of `stst_runtime::par`: no epoch-GC
//! machinery is needed because `Arc` *is* the reclamation — a superseded snapshot is
//! freed exactly when the last reader holding it drops its pin.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A reader's pinned snapshot: the epoch it was published at, the writer-side wave
/// stamp it carries, and the shared immutable value.
#[derive(Debug)]
pub struct Pinned<T> {
    /// Publication epoch (1 for the first publication).
    pub epoch: u64,
    /// Writer-side wave stamp passed to [`SnapshotHub::publish`] (the engine's round
    /// total at the silence the snapshot was taken from).
    pub wave: u64,
    /// The pinned immutable snapshot.
    pub snapshot: Arc<T>,
}

impl<T> Clone for Pinned<T> {
    fn clone(&self) -> Self {
        Pinned {
            epoch: self.epoch,
            wave: self.wave,
            snapshot: Arc::clone(&self.snapshot),
        }
    }
}

/// The publication slot shared by one writer and any number of readers.
#[derive(Debug, Default)]
pub struct SnapshotHub<T> {
    /// Authoritative (epoch, wave, snapshot) triple. Locked only by `publish` and
    /// `pin` — never on the per-query path.
    slot: Mutex<Option<Pinned<T>>>,
    /// Advisory copy of the current epoch for lock-free staleness checks
    /// ([`SnapshotHub::epoch`]); written after the slot under the same publication.
    epoch: AtomicU64,
    /// Advisory copy of the newest snapshot's wave stamp, same discipline.
    wave: AtomicU64,
}

impl<T> SnapshotHub<T> {
    /// An empty hub: nothing published yet, [`SnapshotHub::pin`] returns `None`.
    pub fn new() -> Self {
        SnapshotHub {
            slot: Mutex::new(None),
            epoch: AtomicU64::new(0),
            wave: AtomicU64::new(0),
        }
    }

    /// Publishes `snapshot` with the writer's wave stamp, replacing the previous one,
    /// and returns the new epoch. Readers already pinned are unaffected — their `Arc`
    /// keeps the superseded snapshot alive until they re-pin or drop.
    ///
    /// The epoch is numbered from the slot, the authoritative copy, so epochs strictly
    /// increase even after a publication that panicked part-way.
    pub fn publish(&self, wave: u64, snapshot: T) -> u64 {
        let mut slot = self.lock_slot();
        let epoch = slot.as_ref().map_or(0, |pinned| pinned.epoch) + 1;
        let superseded = slot.replace(Pinned {
            epoch,
            wave,
            snapshot: Arc::new(snapshot),
        });
        // Advisory cells are updated while still holding the lock, so a pin can never
        // observe an epoch newer than the slot it reads.
        self.wave.store(wave, Ordering::Release);
        self.epoch.store(epoch, Ordering::Release);
        // The superseded snapshot is released after the lock: its drop runs no
        // snapshot code while the slot is held.
        drop(slot);
        drop(superseded);
        epoch
    }

    /// The slot, recovered if a thread panicked while holding it: the slot is only
    /// ever replaced whole, so a poisoned slot still holds a complete publication.
    fn lock_slot(&self) -> MutexGuard<'_, Option<Pinned<T>>> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current epoch (0 before the first publication). Lock-free: this is the
    /// reader's "is there something newer than my pin?" probe.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The wave stamp of the newest snapshot (0 before the first publication).
    /// Lock-free; `latest_wave() − pinned.wave` is a reader's staleness in waves.
    #[inline]
    pub fn latest_wave(&self) -> u64 {
        self.wave.load(Ordering::Acquire)
    }

    /// Pins the current snapshot: one brief slot lock, then the returned value is
    /// self-contained — queries against it touch no shared mutable state. `None`
    /// before the first publication.
    pub fn pin(&self) -> Option<Pinned<T>> {
        self.lock_slot().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_before_any_publication_is_none() {
        let hub: SnapshotHub<u64> = SnapshotHub::new();
        assert_eq!(hub.epoch(), 0);
        assert_eq!(hub.latest_wave(), 0);
        assert!(hub.pin().is_none());
    }

    #[test]
    fn publication_bumps_the_epoch_and_old_pins_survive() {
        let hub = SnapshotHub::new();
        assert_eq!(hub.publish(10, "alpha"), 1);
        let old = hub.pin().unwrap();
        assert_eq!((old.epoch, old.wave, *old.snapshot), (1, 10, "alpha"));
        assert_eq!(hub.publish(25, "beta"), 2);
        assert_eq!(hub.epoch(), 2);
        assert_eq!(hub.latest_wave(), 25);
        // The old pin still reads the superseded snapshot, bit for bit.
        assert_eq!((old.epoch, *old.snapshot), (1, "alpha"));
        let new = hub.pin().unwrap();
        assert_eq!((new.epoch, new.wave, *new.snapshot), (2, 25, "beta"));
    }

    #[test]
    fn a_poisoned_slot_keeps_serving_and_epochs_keep_increasing() {
        let hub = SnapshotHub::new();
        assert_eq!(hub.publish(1, 10u64), 1);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _slot = hub.slot.lock().unwrap();
            panic!("a writer died holding the slot");
        }));
        assert!(died.is_err() && hub.slot.is_poisoned());
        let pin = hub.pin().expect("the last publication survives");
        assert_eq!((pin.epoch, pin.wave, *pin.snapshot), (1, 1, 10));
        assert_eq!(hub.publish(2, 20), 2);
        assert_eq!(hub.publish(3, 30), 3);
        assert_eq!(hub.pin().unwrap().epoch, 3);
    }

    #[test]
    fn a_panicking_snapshot_drop_does_not_repeat_an_epoch() {
        struct Fragile(bool);
        impl Drop for Fragile {
            fn drop(&mut self) {
                if self.0 && !std::thread::panicking() {
                    panic!("snapshot drop failed");
                }
            }
        }
        let hub = SnapshotHub::new();
        assert_eq!(hub.publish(1, Fragile(true)), 1);
        let replaced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            hub.publish(2, Fragile(false))
        }));
        assert!(
            replaced.is_err(),
            "dropping the superseded snapshot panicked"
        );
        assert_eq!(hub.pin().unwrap().epoch, 2);
        assert_eq!(hub.publish(3, Fragile(false)), 3);
        assert_eq!(hub.epoch(), 3);
    }

    #[test]
    fn concurrent_pins_only_ever_see_whole_publications() {
        let hub = Arc::new(SnapshotHub::new());
        hub.publish(0, (0u64, 0u64));
        let stop = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let hub = Arc::clone(&hub);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while stop.load(Ordering::Relaxed) == 0 {
                        let pin = hub.pin().unwrap();
                        // Snapshots are published with both halves equal: a torn read
                        // would surface as a mismatch.
                        assert_eq!(pin.snapshot.0, pin.snapshot.1);
                        assert!(pin.epoch <= hub.epoch());
                    }
                });
            }
            for i in 1..=2000u64 {
                hub.publish(i, (i, i));
            }
            stop.store(1, Ordering::Relaxed);
        });
        assert_eq!(hub.epoch(), 2001);
    }
}
