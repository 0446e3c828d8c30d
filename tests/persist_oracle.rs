//! Differential oracles for checkpoint/restore durability.
//!
//! The paper's self-stabilization guarantee makes restore a *correctness* story, not
//! just a convenience: a snapshot restored into a running system is simply another
//! configuration handed to the verification wave. These oracles pin both halves of
//! that story:
//!
//! * **Bit-identity** — a run that is checkpointed, killed and restored finishes in
//!   exactly the configuration (and, for clean restores, with exactly the counters)
//!   of the uninterrupted run, across every daemon, thread count and register-store
//!   representation;
//! * **Typed failure** — a truncated, bit-flipped, wrong-version or wrong-graph
//!   snapshot produces a typed [`RestoreError`], never a panic and never silently
//!   loaded garbage;
//! * **Restore == self-stabilization** — snapshots taken mid-repair (between the
//!   phase events of an in-flight loop-free switch) or carrying unresolved label
//!   corruption restore into a configuration that the engine's verification wave
//!   detects and repairs, re-stabilizing to the uninterrupted run's output.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use self_stabilizing_spanning_trees::core::spanning::MinIdSpanningTree;
use self_stabilizing_spanning_trees::core::{
    CompositionEngine, EngineConfig, EngineTask, PhaseEvent,
};
use self_stabilizing_spanning_trees::graph::{generators, Graph};
use self_stabilizing_spanning_trees::runtime::bits::{BitReader, BitWriter};
use self_stabilizing_spanning_trees::runtime::persist::{
    flip_bit_in_file, truncate_file, KIND_ENGINE, KIND_EXECUTOR,
};
use self_stabilizing_spanning_trees::runtime::{
    Codec, CodecCtx, ExecMode, Executor, ExecutorConfig, RestoreError, SchedulerKind, Snapshot,
    StoreMode,
};

const DAEMONS: [SchedulerKind; 5] = [
    SchedulerKind::Central,
    SchedulerKind::Synchronous,
    SchedulerKind::RoundRobin,
    SchedulerKind::UniformRandom,
    SchedulerKind::Adversarial,
];

fn scratch_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "stst_persist_oracle_{}_{name}.snap",
        std::process::id()
    ))
}

/// Final configuration plus every counter of a finished executor run.
#[derive(Debug, PartialEq)]
struct ExecOutcome {
    states: Vec<self_stabilizing_spanning_trees::core::spanning::SpanningState>,
    moves: u64,
    steps: u64,
    rounds: u64,
    guard_evals: u64,
    screen_hits: u64,
    full_decodes: u64,
    activations: Vec<u64>,
}

fn finish(exec: &mut Executor<'_, MinIdSpanningTree>) -> ExecOutcome {
    let q = exec.run_to_quiescence(5_000_000).expect("converges");
    assert!(q.silent);
    ExecOutcome {
        states: exec.states(),
        moves: exec.moves(),
        steps: exec.steps(),
        rounds: exec.rounds(),
        guard_evals: exec.guard_evaluations(),
        screen_hits: exec.guard_screen_hits(),
        full_decodes: exec.guard_full_decodes(),
        activations: exec.activation_counts(),
    }
}

/// Checkpoint/kill/restore at an arbitrary (mid-round) step ends bit-identical —
/// configuration AND counters — to the uninterrupted run, for every daemon and
/// thread count, surviving a byte-level serialization roundtrip.
#[test]
fn executor_checkpoint_restore_is_bit_identical_across_daemons_and_threads() {
    let g = generators::workload(36, 0.25, 42);
    for daemon in DAEMONS {
        for seed in [3u64, 11] {
            for threads in [1usize, 2, 8] {
                let config = ExecutorConfig::with_scheduler(seed, daemon).with_threads(threads);

                let mut reference = Executor::from_arbitrary(&g, MinIdSpanningTree, config);
                let want = finish(&mut reference);

                // Twin run: stop mid-flight at a step count that is not a wave
                // boundary, checkpoint, and "kill" the process by dropping it.
                let mut twin = Executor::from_arbitrary(&g, MinIdSpanningTree, config);
                for _ in 0..17 {
                    if twin.is_quiescent() {
                        break;
                    }
                    twin.step_once();
                }
                let bytes = twin.checkpoint().to_bytes();
                drop(twin);

                let snap = Snapshot::from_bytes(&bytes).expect("self-produced snapshot parses");
                let mut restored = Executor::restore(&g, MinIdSpanningTree, &snap, config)
                    .expect("restore from a valid snapshot");
                let got = finish(&mut restored);

                assert_eq!(
                    got, want,
                    "restored run diverged (daemon {daemon:?}, seed {seed}, {threads} threads)"
                );
            }
        }
    }
}

/// Representation choices — register store, enabled-set mode, thread count — belong
/// to the restoring process, not the snapshot: a checkpoint taken on the packed,
/// incremental executor restores into any of them and continues bit-identically.
#[test]
fn executor_restore_is_representation_independent() {
    let g = generators::workload(30, 0.3, 7);
    let packed = ExecutorConfig::seeded(5);

    let mut reference = Executor::from_arbitrary(&g, MinIdSpanningTree, packed);
    let want = finish(&mut reference);

    let mut twin = Executor::from_arbitrary(&g, MinIdSpanningTree, packed);
    for _ in 0..23 {
        twin.step_once();
    }
    let snap = twin.checkpoint();

    for (store, mode, threads) in [
        (StoreMode::Struct, ExecMode::Incremental, 1usize),
        (StoreMode::Struct, ExecMode::Incremental, 4),
        (StoreMode::Packed, ExecMode::Incremental, 2),
        (StoreMode::Packed, ExecMode::FullRescan, 1),
    ] {
        let into = ExecutorConfig::seeded(5)
            .with_store(store)
            .with_mode(mode)
            .with_threads(threads);
        let mut restored = Executor::restore(&g, MinIdSpanningTree, &snap, into)
            .expect("cross-representation restore");
        let got = finish(&mut restored);
        // Guard and screen/decode counters are representation-dependent by design;
        // the execution itself — states, moves, steps, rounds, activations — is not.
        let what = format!("{store:?}/{mode:?}/{threads} threads");
        assert_eq!(got.states, want.states, "{what}");
        assert_eq!(got.moves, want.moves, "{what}");
        assert_eq!(got.steps, want.steps, "{what}");
        assert_eq!(got.rounds, want.rounds, "{what}");
        assert_eq!(got.activations, want.activations, "{what}");
    }
}

/// The on-disk roundtrip (write_file / read_file) preserves bit-identity too.
#[test]
fn executor_snapshot_survives_the_filesystem() {
    let g = generators::workload(24, 0.3, 9);
    let config = ExecutorConfig::with_scheduler(2, SchedulerKind::Adversarial);

    let mut reference = Executor::from_arbitrary(&g, MinIdSpanningTree, config);
    let want = finish(&mut reference);

    let mut twin = Executor::from_arbitrary(&g, MinIdSpanningTree, config);
    for _ in 0..9 {
        twin.step_once();
    }
    let path = scratch_path("fs_roundtrip");
    twin.checkpoint().write_file(&path).expect("write snapshot");
    drop(twin);

    let snap = Snapshot::read_file(&path).expect("read snapshot back");
    std::fs::remove_file(&path).ok();
    let mut restored =
        Executor::restore(&g, MinIdSpanningTree, &snap, config).expect("restore from disk");
    assert_eq!(finish(&mut restored), want);
}

/// Every corruption class named by the issue — truncation, bit flips, wrong
/// version — plus wrong-kind and wrong-graph snapshots produce the right typed
/// error. No panic, no garbage configuration.
#[test]
fn corrupted_snapshot_files_fail_with_typed_errors() {
    let g = generators::workload(20, 0.3, 4);
    let config = ExecutorConfig::seeded(1);
    let mut exec = Executor::from_arbitrary(&g, MinIdSpanningTree, config);
    for _ in 0..5 {
        exec.step_once();
    }
    let snap = exec.checkpoint();
    let pristine = snap.to_bytes();

    // Truncation: cut the file mid-payload.
    let path = scratch_path("truncated");
    snap.write_file(&path).expect("write");
    truncate_file(&path, pristine.len() / 2).expect("truncate");
    match Snapshot::read_file(&path) {
        Err(RestoreError::Truncated { expected, found }) => assert!(found < expected),
        other => panic!("truncated file must fail as Truncated, got {other:?}"),
    }

    // Bit flip in the payload: caught by the checksum before any decode runs.
    snap.write_file(&path).expect("rewrite");
    flip_bit_in_file(&path, 32 * 8 + 13).expect("flip payload bit");
    match Snapshot::read_file(&path) {
        Err(RestoreError::ChecksumMismatch { stored, computed }) => {
            assert_ne!(stored, computed)
        }
        other => panic!("bit-flipped payload must fail the checksum, got {other:?}"),
    }

    // Bit flip in the version field: rejected as a version we do not speak.
    snap.write_file(&path).expect("rewrite");
    flip_bit_in_file(&path, 8 * 8 + 1).expect("flip version bit");
    match Snapshot::read_file(&path) {
        Err(RestoreError::WrongVersion { found, supported }) => assert_ne!(found, supported),
        other => panic!("wrong version must be rejected, got {other:?}"),
    }

    // Bit flip in the magic: not one of our snapshots at all.
    snap.write_file(&path).expect("rewrite");
    flip_bit_in_file(&path, 3).expect("flip magic bit");
    assert!(matches!(
        Snapshot::read_file(&path),
        Err(RestoreError::BadMagic)
    ));
    std::fs::remove_file(&path).ok();

    // Wrong kind: an engine snapshot is not an executor snapshot.
    let engine = CompositionEngine::new(&g, EngineTask::Mst, EngineConfig::seeded(1));
    let engine_snap = engine.checkpoint();
    assert!(matches!(
        Executor::restore(&g, MinIdSpanningTree, &engine_snap, config),
        Err(RestoreError::WrongKind {
            found: 2,
            expected: 1
        })
    ));

    // Wrong graph: the fingerprint embedded in the snapshot does not match.
    let other: Graph = generators::workload(20, 0.3, 5);
    assert!(matches!(
        Executor::restore(&other, MinIdSpanningTree, &snap, config),
        Err(RestoreError::GraphMismatch)
    ));
}

/// Runs `engine` to silence, returning its final report.
fn run_to_silence(
    engine: &mut CompositionEngine<'_>,
) -> self_stabilizing_spanning_trees::core::ConstructionReport {
    loop {
        if let PhaseEvent::Stabilized { .. } = engine.step() {
            return engine.report();
        }
    }
}

fn assert_same_configuration(a: &CompositionEngine<'_>, b: &CompositionEngine<'_>, what: &str) {
    assert_eq!(a.tree(), b.tree(), "{what}: trees differ");
    assert_eq!(
        a.fragment_labels(),
        b.fragment_labels(),
        "{what}: fragment labels differ"
    );
    assert_eq!(a.nca_labels(), b.nca_labels(), "{what}: NCA labels differ");
    assert_eq!(
        a.redundant_labels(),
        b.redundant_labels(),
        "{what}: redundant labels differ"
    );
}

/// A checkpoint at a clean wave boundary restores with zero recovery rounds and
/// continues with exactly the uninterrupted run's counters: same total rounds, same
/// labels written, same improvements, same final configuration.
#[test]
fn engine_clean_boundary_restore_continues_counters_exactly() {
    let g = generators::workload(24, 0.3, 21);
    let config = EngineConfig::seeded(21);

    let mut reference = CompositionEngine::new(&g, EngineTask::Mst, config);
    let want = run_to_silence(&mut reference);

    let mut twin = CompositionEngine::new(&g, EngineTask::Mst, config);
    // Stop exactly after the first label wave: a clean boundary, nothing in flight.
    loop {
        if let PhaseEvent::LabelsReady { .. } = twin.step() {
            break;
        }
    }
    let bytes = twin.checkpoint().to_bytes();
    drop(twin);

    let snap = Snapshot::from_bytes(&bytes).expect("snapshot parses");
    let (mut restored, outcome) = CompositionEngine::restore(&snap, 1).expect("clean restore");
    assert_eq!(
        outcome.families_rebuilt, 0,
        "clean-boundary snapshot must restore verbatim"
    );
    assert_eq!(outcome.rounds, 0, "clean restore charges no rounds");

    let got = run_to_silence(&mut restored);
    assert_eq!(got.tree, want.tree);
    assert_eq!(got.total_rounds, want.total_rounds);
    assert_eq!(got.phase_rounds, want.phase_rounds);
    assert_eq!(got.labels_written, want.labels_written);
    assert_eq!(got.improvements, want.improvements);
    assert!(got.legal);
    assert_same_configuration(&restored, &reference, "clean boundary");
}

/// A checkpoint taken *between the phase events of an in-flight loop-free switch* —
/// the tree already re-hung, the label repair not yet run — is an arbitrary
/// configuration. The restore hands it to the verification wave, which rejects the
/// stale families and rebuilds them, and the engine re-stabilizes to the
/// uninterrupted run's exact final configuration.
#[test]
fn engine_mid_repair_restore_restabilizes_bit_identical() {
    let g = generators::workload(24, 0.3, 21);
    let config = EngineConfig::seeded(21);

    let mut reference = CompositionEngine::new(&g, EngineTask::Mst, config);
    let want = run_to_silence(&mut reference);
    assert!(
        want.improvements > 0,
        "oracle needs a run with at least one loop-free switch"
    );

    let mut twin = CompositionEngine::new(&g, EngineTask::Mst, config);
    loop {
        match twin.step() {
            PhaseEvent::Switched { .. } => break,
            PhaseEvent::Stabilized { .. } => {
                unreachable!("reference run has improvements, twin must switch")
            }
            _ => {}
        }
    }
    let snap = twin.checkpoint();
    drop(twin);

    let (mut restored, outcome) = CompositionEngine::restore(&snap, 2).expect("mid-repair restore");
    assert!(
        outcome.families_rebuilt > 0,
        "mid-repair snapshot must be caught by the verification wave"
    );
    assert!(outcome.rounds > 0, "recovery waves are charged rounds");

    let got = run_to_silence(&mut restored);
    assert_eq!(got.tree, want.tree, "mid-repair restore must re-stabilize");
    assert!(got.legal);
    assert_same_configuration(&restored, &reference, "mid-repair");
}

/// A snapshot taken with unresolved injected label corruption restores the corrupted
/// labels verbatim and keeps the corrupted flag: the next step runs exactly the
/// recovery the uninterrupted engine would have run, ending in the same
/// configuration with the same round totals.
#[test]
fn engine_corrupted_snapshot_recovers_like_the_uninterrupted_run() {
    let g = generators::workload(24, 0.3, 13);
    let config = EngineConfig::seeded(13);

    // Uninterrupted: stabilize, corrupt, recover in place.
    let mut reference = CompositionEngine::new(&g, EngineTask::Mst, config);
    run_to_silence(&mut reference);
    let hit = reference.corrupt_random_labels(3);
    assert!(!hit.is_empty());
    match reference.step() {
        PhaseEvent::Recovered {
            families_rebuilt, ..
        } => assert!(families_rebuilt > 0),
        other => panic!("corruption must be detected, got {other:?}"),
    }

    // Interrupted: stabilize, corrupt identically (same seed, same history),
    // checkpoint with the corruption unresolved, kill, restore, then recover.
    let mut twin = CompositionEngine::new(&g, EngineTask::Mst, config);
    run_to_silence(&mut twin);
    let twin_hit = twin.corrupt_random_labels(3);
    assert_eq!(twin_hit, hit, "same seed and history, same injected fault");
    let snap = twin.checkpoint();
    drop(twin);

    let (mut restored, outcome) =
        CompositionEngine::restore(&snap, 1).expect("corrupted snapshot restores");
    assert_eq!(
        outcome.families_rebuilt, 0,
        "unresolved corruption restores verbatim — recovery is the engine's job"
    );
    match restored.step() {
        PhaseEvent::Recovered {
            families_rebuilt, ..
        } => assert!(families_rebuilt > 0),
        other => panic!("restored corruption must be detected, got {other:?}"),
    }

    assert_eq!(restored.total_rounds(), reference.total_rounds());
    assert_eq!(restored.labels_written(), reference.labels_written());
    assert_same_configuration(&restored, &reference, "corrupted snapshot");
}

/// Stale-but-consistent certificates — proofs that verify against the wrong tree —
/// survive a checkpoint/restore and are rejected by the verification wave, exactly
/// like any other corruption.
#[test]
fn engine_stale_certificates_survive_restore_and_are_rejected() {
    let g = generators::workload(24, 0.3, 31);
    let config = EngineConfig::seeded(31);

    let mut engine = CompositionEngine::new(&g, EngineTask::Mst, config);
    run_to_silence(&mut engine);
    assert!(
        engine.corrupt_stale_certificates(),
        "the stale tree's labels must differ from the maintained ones"
    );
    let snap = engine.checkpoint();
    drop(engine);

    let (mut restored, _) =
        CompositionEngine::restore(&snap, 1).expect("stale-certificate snapshot restores");
    match restored.step() {
        PhaseEvent::Recovered {
            families_rebuilt, ..
        } => assert!(
            families_rebuilt >= 2,
            "stale NCA and redundant certificates must both be re-proved"
        ),
        other => panic!("stale certificates must be rejected, got {other:?}"),
    }
    let report = restored.report();
    assert!(report.legal, "engine re-stabilizes to a legal MST");
}

/// Crash injection at random wave boundaries: checkpoint / kill / restore cycles at
/// several points of an MDST run, each restore re-stabilizing to the uninterrupted
/// run's final tree.
#[test]
fn engine_crash_cycles_at_wave_boundaries_restabilize() {
    let g = generators::workload(18, 0.35, 8);
    let config = EngineConfig::seeded(8);

    let mut reference = CompositionEngine::new(&g, EngineTask::Mdst, config);
    let want = run_to_silence(&mut reference);

    for kill_after in [1usize, 2, 4] {
        let mut twin = CompositionEngine::new(&g, EngineTask::Mdst, config);
        let mut events = 0usize;
        let snap = loop {
            let event = twin.step();
            events += 1;
            if events >= kill_after || matches!(event, PhaseEvent::Stabilized { .. }) {
                break twin.checkpoint();
            }
        };
        drop(twin);

        let (mut restored, _) = CompositionEngine::restore(&snap, 1).expect("restore");
        let got = run_to_silence(&mut restored);
        assert_eq!(
            got.tree, want.tree,
            "crash after {kill_after} events must re-stabilize to the same MDST"
        );
        assert!(got.legal);
    }
}

/// The executor checkpoint the crafted-payload tests start from: `workload(30, 0.3, 7)`
/// with seed 5, stopped mid-run after 23 steps.
fn mid_run_executor(g: &Graph) -> Executor<'_, MinIdSpanningTree> {
    let mut exec = Executor::from_arbitrary(g, MinIdSpanningTree, ExecutorConfig::seeded(5));
    for _ in 0..23 {
        exec.step_once();
    }
    exec
}

/// A silent engine of `task` on `g`, carrying every label family its task keeps.
fn silent_engine(g: &Graph, task: EngineTask, seed: u64) -> CompositionEngine<'_> {
    let mut engine = CompositionEngine::new(g, task, EngineConfig::seeded(seed));
    run_to_silence(&mut engine);
    engine
}

/// Words of the codec bitstream `items` encode to (the layout both checkpoints use:
/// bit length, word length, then the stream words).
fn stream_words<L: Codec>(items: &[L], ctx: &CodecCtx) -> usize {
    items
        .iter()
        .map(|x| x.encoded_bits(ctx))
        .sum::<usize>()
        .div_ceil(64)
}

/// Wraps `words` as a checksum-valid snapshot: the crafted payloads below pass every
/// integrity check, so only the payload parsers stand between them and a panic.
fn revalidated(kind: u32, words: Vec<u64>) -> Snapshot {
    Snapshot::from_bytes(&Snapshot::new(kind, words).to_bytes()).expect("checksum-valid")
}

/// Drops the last word of the `stream_len`-word bitstream that ends `words` and shrinks
/// its bit and word lengths to match: the lengths agree with the stream, but its
/// registers need more bits than it holds.
fn truncate_trailing_stream(mut words: Vec<u64>, stream_len: usize) -> Vec<u64> {
    let at = words.len() - stream_len - 2;
    words.pop();
    words[at] = 64 * (stream_len as u64 - 1);
    words[at + 1] = stream_len as u64 - 1;
    words
}

/// Rewrites the bitstream whose bit length sits at `words[at]` so that its first
/// register's list length (an unescaped `len_bits` field) is escaped to `2^40`; every
/// later bit is copied unchanged.
fn escape_first_length(words: &[u64], at: usize, ctx: &CodecCtx) -> Vec<u64> {
    let (bits, len) = (words[at], words[at + 1] as usize);
    let old = &words[at + 2..at + 2 + len];
    let mut stream = Vec::new();
    let mut w = BitWriter::new(&mut stream, 0);
    CodecCtx::write_uint(&mut w, 1 << 40, ctx.len_bits);
    let skip = 1 + ctx.len_bits as u64;
    let mut r = BitReader::new(old, skip);
    let mut rest = bits - skip;
    while rest > 0 {
        let chunk = rest.min(64) as usize;
        w.write(r.read(chunk), chunk);
        rest -= chunk as u64;
    }
    let new_bits = w.position();
    let mut out = words[..at].to_vec();
    out.extend([new_bits, stream.len() as u64]);
    out.extend_from_slice(&stream);
    out.extend_from_slice(&words[at + 2 + len..]);
    out
}

/// Sets the rounds of the first two round-ledger entries of an engine payload to
/// `2^63`, so the ledger total no longer fits a `u64`. The ledger follows the header
/// (node count at word 15), the identities and the edge list.
fn overflow_ledger(mut words: Vec<u64>) -> Vec<u64> {
    let n = words[15] as usize;
    let m = words[16 + n] as usize;
    let mut at = 17 + n + 3 * m;
    assert!(
        words[at + 1] >= 2,
        "the run charged at least two ledger phases"
    );
    at += 2;
    for _ in 0..2 {
        at += 1 + (words[at] as usize).div_ceil(8);
        words[at] = 1 << 63;
        at += 1;
    }
    words
}

/// A checksum-valid executor snapshot whose state bitstream is one word short is
/// rejected as malformed, not read past its end.
#[test]
fn truncated_executor_state_stream_is_malformed() {
    let g = generators::workload(30, 0.3, 7);
    let exec = mid_run_executor(&g);
    let stream_len = stream_words(&exec.states(), exec.codec_ctx());
    let words = truncate_trailing_stream(exec.checkpoint().words().to_vec(), stream_len);
    let crafted = revalidated(KIND_EXECUTOR, words);
    assert!(matches!(
        Executor::restore(&g, MinIdSpanningTree, &crafted, ExecutorConfig::seeded(5)),
        Err(RestoreError::Malformed(_))
    ));
}

/// The same for the trailing label family of an engine checkpoint (the redundant
/// labels), for a first fragment or NCA label whose list length is escaped to `2^40`,
/// and for a round ledger whose total overflows: restore returns `Malformed` instead
/// of overrunning the stream, allocating for the forged length or overflowing.
#[test]
fn truncated_or_forged_engine_payloads_are_malformed() {
    let g = generators::workload(30, 0.3, 7);
    let engine = silent_engine(&g, EngineTask::Mst, 7);
    let ctx = engine.codec_ctx();
    let words = engine.checkpoint().words().to_vec();
    let red = stream_words(engine.redundant_labels(), &ctx);
    let nca = stream_words(engine.nca_labels(), &ctx);
    let frag = stream_words(engine.fragment_labels().expect("MST keeps fragments"), &ctx);
    // Tail layout: fragment flag + stream, label flag, NCA stream, redundant stream;
    // each stream is preceded by its bit and word lengths.
    let nca_at = words.len() - (red + 2) - (nca + 2);
    let frag_at = nca_at - 1 - (frag + 2);
    assert_eq!(words[nca_at + 1] as usize, nca, "NCA stream located");
    assert_eq!(words[frag_at + 1] as usize, frag, "fragment stream located");
    for (what, crafted) in [
        (
            "truncated redundant stream",
            truncate_trailing_stream(words.clone(), red),
        ),
        (
            "escaped fragment length",
            escape_first_length(&words, frag_at, &ctx),
        ),
        (
            "escaped NCA length",
            escape_first_length(&words, nca_at, &ctx),
        ),
        ("overflowing round ledger", overflow_ledger(words.clone())),
    ] {
        let restored = CompositionEngine::restore(&revalidated(KIND_ENGINE, crafted), 1);
        assert!(
            matches!(restored, Err(RestoreError::Malformed(_))),
            "{what}: expected a malformed-payload error"
        );
    }
}

/// Flips bits {0, 9, 31, 63} of every payload word of `snapshot`, re-wraps each case
/// and runs `restore` on it, returning the `(word, bit)` cases that panicked.
fn flip_sweep(
    snapshot: &Snapshot,
    restore: impl Fn(&Snapshot) -> Result<(), RestoreError>,
) -> Vec<(usize, u32)> {
    let mut panicked = Vec::new();
    for i in 0..snapshot.words().len() {
        for bit in [0u32, 9, 31, 63] {
            let mut words = snapshot.words().to_vec();
            words[i] ^= 1 << bit;
            let flipped = Snapshot::new(snapshot.kind(), words);
            if catch_unwind(AssertUnwindSafe(|| restore(&flipped))).is_err() {
                panicked.push((i, bit));
            }
        }
    }
    panicked
}

/// Restore never panics on a checksum-valid payload: flipping bit 0, 9, 31 or 63 of
/// any payload word of an executor, an MST engine or an MDST engine checkpoint
/// restores or fails with a typed error. (An allocation abort would take the whole
/// test binary down.)
#[test]
fn bit_flipped_payloads_restore_or_fail_typed_never_panic() {
    let g = generators::workload(30, 0.3, 7);
    let config = ExecutorConfig::seeded(5);
    let exec_snap = mid_run_executor(&g).checkpoint();
    let mst_snap = silent_engine(&g, EngineTask::Mst, 7).checkpoint();
    let g_mdst = generators::workload(18, 0.35, 8);
    let mdst_snap = silent_engine(&g_mdst, EngineTask::Mdst, 8).checkpoint();
    let engine_restore = |s: &Snapshot| CompositionEngine::restore(s, 1).map(drop);
    for (what, panicked) in [
        (
            "executor",
            flip_sweep(&exec_snap, |s| {
                Executor::restore(&g, MinIdSpanningTree, s, config).map(drop)
            }),
        ),
        ("MST engine", flip_sweep(&mst_snap, engine_restore)),
        ("MDST engine", flip_sweep(&mdst_snap, engine_restore)),
    ] {
        assert!(
            panicked.is_empty(),
            "{what}: {} flipped payloads panicked, (word, bit) = {:?}",
            panicked.len(),
            &panicked[..panicked.len().min(12)]
        );
    }
}
