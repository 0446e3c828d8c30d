//! A deterministic scoped worker pool for parallel wave execution.
//!
//! The paper's synchronous-daemon waves are embarrassingly parallel: every enabled
//! node's guard reads only the *old* configuration, and all writes land at the round
//! barrier (§II-A). The same shape recurs one layer up, in the composition engine's
//! from-scratch phases (verification waves, label reproofs, per-level Borůvka scans):
//! pure functions of an immutable snapshot whose results are merged at a barrier.
//!
//! [`ThreadPool`] is the substrate both layers share. It is deliberately *not* a
//! work-stealing runtime: work is split into **stable contiguous shards** (the same
//! ranges for the same input length and thread count, with no dependence on thread
//! timing), each shard runs as a pure function of shared immutable state, and results
//! are merged **in shard order** on the calling thread. Everything order-sensitive —
//! enabled-set bookkeeping, ledger charges, RNG draws — stays on the caller, so results
//! are bit-identical to the sequential path at any thread count. Workers are scoped
//! (`std::thread::scope`): they may borrow the caller's stack frame and cannot outlive
//! the parallel region, which keeps the pool dependency-free and panic-safe (a worker
//! panic propagates to the caller at the join).
//!
//! A pool with one thread never spawns: every entry point degrades to the plain
//! sequential loop, so `threads = 1` costs one branch over not using the pool at all.

use std::ops::Range;

/// Splits `len` items into at most `shards` stable contiguous ranges, balanced to
/// within one item (the first `len % shards` ranges get the extra item). Deterministic
/// in `(len, shards)`; never returns an empty range.
pub fn shard_ranges(len: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.clamp(1, len.max(1));
    if len == 0 {
        return Vec::new();
    }
    let base = len / shards;
    let extra = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// A scoped worker pool of a fixed width. See the module docs for the determinism
/// contract; construction is free (no threads are kept alive between regions — each
/// parallel region spawns scoped workers, which for the wave-sized work units this
/// repo runs is noise next to the work itself).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool running work on `threads` threads (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// A single-threaded pool (every entry point runs inline).
    pub fn sequential() -> Self {
        ThreadPool::new(1)
    }

    /// The pool width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `true` if the pool can actually run work concurrently.
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// Runs `f(shard_index, range)` once per shard of `0..len` and returns the results
    /// **in shard order** (the deterministic merge). Shard 0 runs on the calling
    /// thread; with one thread (or one shard) nothing is spawned.
    pub fn run<R, F>(&self, len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
    {
        let shards = shard_ranges(len, self.threads);
        if shards.len() <= 1 {
            return shards
                .into_iter()
                .enumerate()
                .map(|(i, r)| f(i, r))
                .collect();
        }
        std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = shards
                .iter()
                .enumerate()
                .skip(1)
                .map(|(i, r)| {
                    let r = r.clone();
                    scope.spawn(move || f(i, r))
                })
                .collect();
            let mut out = Vec::with_capacity(shards.len());
            out.push(f(0, shards[0].clone()));
            for h in handles {
                out.push(h.join().expect("pool worker panicked"));
            }
            out
        })
    }

    /// Fills `out[i] = f(scratch, i)` for every index, sharding the range across the
    /// pool. Every worker gets a private scratch value built by `init` and reused across
    /// its whole shard. This is the entry point of the packed-store guard waves: each
    /// worker keeps one decode buffer for its shard, so a wave costs `O(threads)`
    /// allocations instead of one per guard evaluation. `f` must be a pure function of
    /// `(scratch, index)` up to the scratch's contents being overwritten per call. Each
    /// worker writes a disjoint sub-slice, so no result is ever moved or merged — the
    /// output is identical to the sequential loop by construction.
    pub fn fill_with_init<R, SC, I, F>(&self, out: &mut [R], init: I, f: F)
    where
        R: Send,
        I: Fn() -> SC + Sync,
        F: Fn(&mut SC, usize) -> R + Sync,
    {
        let shards = shard_ranges(out.len(), self.threads);
        if shards.len() <= 1 {
            let mut scratch = init();
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = f(&mut scratch, i);
            }
            return;
        }
        std::thread::scope(|scope| {
            let f = &f;
            let init = &init;
            // Shard 0 runs on the calling thread (like `run`): N shards cost N − 1
            // spawns and never leave the caller's core idle at the join.
            let (first, mut rest) = out.split_at_mut(shards[0].len());
            let mut handles = Vec::with_capacity(shards.len() - 1);
            for range in &shards[1..] {
                let (chunk, tail) = rest.split_at_mut(range.len());
                rest = tail;
                let start = range.start;
                handles.push(scope.spawn(move || {
                    let mut scratch = init();
                    for (k, slot) in chunk.iter_mut().enumerate() {
                        *slot = f(&mut scratch, start + k);
                    }
                }));
            }
            let mut scratch = init();
            for (k, slot) in first.iter_mut().enumerate() {
                *slot = f(&mut scratch, k);
            }
            for h in handles {
                h.join().expect("pool worker panicked");
            }
        });
    }

    /// Runs two independent tasks, concurrently when the pool is parallel, and returns
    /// both results. The tasks must not touch shared mutable state (the type system
    /// enforces it: they only get `Send` captures).
    pub fn join<A, B, FA, FB>(&self, fa: FA, fb: FB) -> (A, B)
    where
        A: Send,
        B: Send,
        FA: FnOnce() -> A + Send,
        FB: FnOnce() -> B + Send,
    {
        if !self.is_parallel() {
            let a = fa();
            let b = fb();
            return (a, b);
        }
        std::thread::scope(|scope| {
            let hb = scope.spawn(fb);
            let a = fa();
            let b = hb.join().expect("pool worker panicked");
            (a, b)
        })
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        ThreadPool::sequential()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_exactly_and_balance() {
        for len in [0usize, 1, 7, 64, 1000] {
            for shards in [1usize, 2, 3, 8, 13] {
                let ranges = shard_ranges(len, shards);
                let covered: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(covered, len, "len {len} shards {shards}");
                let mut expected = 0;
                for r in &ranges {
                    assert_eq!(r.start, expected, "contiguous");
                    assert!(!r.is_empty(), "no empty shard");
                    expected = r.end;
                }
                if let (Some(max), Some(min)) = (
                    ranges.iter().map(|r| r.len()).max(),
                    ranges.iter().map(|r| r.len()).min(),
                ) {
                    assert!(max - min <= 1, "balanced to within one item");
                }
            }
        }
    }

    #[test]
    fn shard_ranges_are_stable_in_input_only() {
        assert_eq!(shard_ranges(10, 4), shard_ranges(10, 4));
        assert_eq!(shard_ranges(10, 4), vec![0..3, 3..6, 6..8, 8..10]);
    }

    #[test]
    fn run_merges_in_shard_order_at_any_width() {
        let items: Vec<u64> = (0..1000).collect();
        let reference: u64 = items.iter().sum();
        for threads in [1usize, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let partials = pool.run(items.len(), |_, range| items[range].iter().sum::<u64>());
            assert_eq!(partials.iter().sum::<u64>(), reference, "{threads} threads");
            // Shard order: partial sums concatenated re-derive the prefix structure.
            let ranges = shard_ranges(items.len(), threads);
            for (p, r) in partials.iter().zip(ranges) {
                assert_eq!(*p, items[r].iter().sum::<u64>());
            }
        }
    }

    #[test]
    fn fill_with_init_reuses_scratch_and_matches_fill_with() {
        let f = |scratch: &mut Vec<u64>, i: usize| {
            scratch.clear();
            scratch.extend((0..=i as u64).take(8));
            scratch.iter().sum::<u64>() ^ (i as u64)
        };
        let mut seq = vec![0u64; 333];
        ThreadPool::sequential().fill_with_init(&mut seq, Vec::new, f);
        for threads in [2usize, 5, 8] {
            let mut par = vec![0u64; 333];
            ThreadPool::new(threads).fill_with_init(&mut par, Vec::new, f);
            assert_eq!(seq, par, "{threads} threads");
        }
    }

    #[test]
    fn join_returns_both_results() {
        for threads in [1usize, 4] {
            let pool = ThreadPool::new(threads);
            let (a, b) = pool.join(|| 6 * 7, || "waves".len());
            assert_eq!((a, b), (42, 5));
        }
    }

    #[test]
    fn width_is_clamped_to_at_least_one() {
        assert_eq!(ThreadPool::new(0).threads(), 1);
        assert!(!ThreadPool::new(0).is_parallel());
        assert!(ThreadPool::new(2).is_parallel());
        assert_eq!(ThreadPool::default(), ThreadPool::sequential());
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let pool = ThreadPool::new(4);
        assert!(pool.run(0, |_, _| 1u32).is_empty());
        let mut empty: [u8; 0] = [];
        pool.fill_with_init(&mut empty, || (), |_, _| 0u8);
    }
}
