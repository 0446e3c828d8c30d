//! Pins whole executor trajectories to recorded digests.
//!
//! The other differential tests compare one configuration of today's executor with
//! another (store modes, enabled-set modes, thread counts). This one compares today's
//! executor with recorded values: an FNV-1a digest of the nodes every daemon step
//! activated, the guard/move/step/round counters and the final registers, for
//! `RootedBfs` and `MinIdSpanningTree` under all five daemons and both
//! [`ExecMode`]s, each run from an arbitrary configuration and then through three
//! bursts of 150 register faults (frontiers well above `PAR_MIN_ITEMS`, so the pool
//! path runs at two threads). Each phase runs to silence or for [`PHASE_STEPS`]
//! daemon steps, whichever comes first: from arbitrary states one `MinIdSpanningTree`
//! run to silence under the central daemon takes about 2 s in a release build (40 s
//! under `FullRescan`), and a prefix pins the layout as well as the whole run. The
//! central and uniform-random daemons index into the enabled list and the synchronous
//! daemon activates it in list order, so a digest also pins the list's layout, which
//! no set-equality oracle sees. Every digest must come out the same under both store
//! modes and at one and two threads.

use self_stabilizing_spanning_trees::core::bfs::RootedBfs;
use self_stabilizing_spanning_trees::core::spanning::MinIdSpanningTree;
use self_stabilizing_spanning_trees::graph::{generators, Graph};
use self_stabilizing_spanning_trees::runtime::{
    persist, Algorithm, ExecMode, Executor, ExecutorConfig, SchedulerKind, StoreMode,
};

/// Digests recorded when the enabled-list layout was last changed on purpose, one per
/// algorithm × daemon × enabled-set mode, in the order [`digests`] lists them.
const PINNED: [u64; 20] = [
    0xea034010407ed0c4, // RootedBfs / central / Incremental
    0xa1193610dede28a6, // RootedBfs / central / FullRescan
    0x341d224af9d8f088, // RootedBfs / synchronous / Incremental
    0x63d4c3c7d916be12, // RootedBfs / synchronous / FullRescan
    0x4b7c68c34e3fc6c4, // RootedBfs / round-robin / Incremental
    0x811082579cf32d71, // RootedBfs / round-robin / FullRescan
    0xfbb41a7ee3212640, // RootedBfs / uniform-random / Incremental
    0x108dd45803268d7f, // RootedBfs / uniform-random / FullRescan
    0xf2bdeed443009834, // RootedBfs / adversarial / Incremental
    0x4119e391fc728a84, // RootedBfs / adversarial / FullRescan
    0xbc403f2ce1dcf782, // MinIdSpanningTree / central / Incremental
    0xeba81d5de250a73f, // MinIdSpanningTree / central / FullRescan
    0x13771d78e0a7fe2f, // MinIdSpanningTree / synchronous / Incremental
    0x314ac44cfcd800b2, // MinIdSpanningTree / synchronous / FullRescan
    0xaacaee4ebd777bca, // MinIdSpanningTree / round-robin / Incremental
    0x37161d62dd2caee3, // MinIdSpanningTree / round-robin / FullRescan
    0x262bdf684001c0ec, // MinIdSpanningTree / uniform-random / Incremental
    0x1fab42e946036c0e, // MinIdSpanningTree / uniform-random / FullRescan
    0x3b6e2d4b9a3c3675, // MinIdSpanningTree / adversarial / Incremental
    0xc09541fd1366eab4, // MinIdSpanningTree / adversarial / FullRescan
];

/// Faults per burst and bursts per run.
const BURST: usize = 150;
const BURSTS: usize = 3;

/// Daemon steps per phase (the run from the initial configuration and each burst's
/// recovery) unless silence comes first.
const PHASE_STEPS: usize = 300;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Runs `algo` through its phases (see the module docs), folding every step's
/// activated nodes, the counters and the final registers into one digest.
fn trajectory<A: Algorithm>(g: &Graph, algo: A, config: ExecutorConfig) -> u64 {
    let mut exec = Executor::from_arbitrary(g, algo, config);
    let mut h = Fnv::new();
    let phase = |exec: &mut Executor<'_, A>, h: &mut Fnv| {
        for _ in 0..PHASE_STEPS {
            if exec.is_quiescent() {
                h.word(u64::MAX);
                return;
            }
            for v in exec.step_once() {
                h.word(v.0 as u64);
            }
            h.word(u64::MAX - 1);
        }
        h.word(u64::MAX - 2);
    };
    phase(&mut exec, &mut h);
    for _ in 0..BURSTS {
        for v in exec.corrupt_random_nodes(BURST) {
            h.word(v.0 as u64);
        }
        phase(&mut exec, &mut h);
    }
    for counter in [
        exec.guard_evaluations(),
        exec.moves(),
        exec.steps(),
        exec.rounds(),
    ] {
        h.word(counter);
    }
    let mut words = Vec::new();
    persist::push_codec_stream(&mut words, &exec.states(), exec.codec_ctx());
    words.into_iter().for_each(|w| h.word(w));
    h.0
}

/// The digest of every pinned cell, checked for store-mode and thread-count
/// invariance on the way, with a label per cell.
fn digests() -> Vec<(String, u64)> {
    let g = generators::workload(400, 6.0 / 400.0, 11);
    let root = g.ident(g.min_ident_node());
    let mut out = Vec::new();
    for algo in ["RootedBfs", "MinIdSpanningTree"] {
        for kind in SchedulerKind::all() {
            for mode in [ExecMode::Incremental, ExecMode::FullRescan] {
                let label = format!("{algo} / {kind} / {mode:?}");
                let run = |store: StoreMode, threads: usize| {
                    let config = ExecutorConfig::with_scheduler(5, kind)
                        .with_mode(mode)
                        .with_store(store)
                        .with_threads(threads);
                    match algo {
                        "RootedBfs" => trajectory(&g, RootedBfs::new(root), config),
                        _ => trajectory(&g, MinIdSpanningTree, config),
                    }
                };
                let digest = run(StoreMode::Packed, 1);
                for (store, threads) in [
                    (StoreMode::Packed, 2),
                    (StoreMode::Struct, 1),
                    (StoreMode::Struct, 2),
                ] {
                    assert_eq!(
                        run(store, threads),
                        digest,
                        "{label}: {store:?} store at {threads} threads"
                    );
                }
                out.push((label, digest));
            }
        }
    }
    out
}

#[test]
fn executor_trajectories_match_the_recorded_digests() {
    let actual = digests();
    let table: String = actual
        .iter()
        .map(|(label, d)| format!("    {d:#018x}, // {label}\n"))
        .collect();
    let mismatches: Vec<&str> = actual
        .iter()
        .zip(PINNED)
        .filter(|((_, d), pinned)| d != pinned)
        .map(|((label, _), _)| label.as_str())
        .collect();
    assert!(
        mismatches.is_empty(),
        "trajectories moved: {mismatches:?}\ndigests of this build:\n{table}"
    );
}
