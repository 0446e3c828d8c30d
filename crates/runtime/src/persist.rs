//! Versioned, checksummed snapshot container for checkpoint/restore.
//!
//! The paper's self-stabilization claim makes durability almost free: a restored
//! checkpoint — even a stale or mid-repair one — is just another *arbitrary initial
//! configuration*, and the verification wave detects and repairs whatever does not
//! hold. The persistence layer therefore only has to guarantee two things:
//!
//! 1. **Integrity**: a snapshot that passes validation is byte-for-byte what was
//!    written. The file carries a magic tag, a format version, a payload kind, the
//!    payload length and an FNV-1a-64 checksum over the payload (mixed with version
//!    and kind so header tampering is also caught). Decoding only ever runs on
//!    checksum-verified bytes, and the payload parsers bound every count they read by
//!    what the payload actually holds, so even a checksum-valid payload from a buggy
//!    or foreign producer fails typed instead of panicking.
//! 2. **Typed failure**: a snapshot that does *not* validate — truncated, bit-flipped,
//!    produced by a different format version — is rejected with a [`RestoreError`],
//!    never a panic and never silently-loaded garbage.
//!
//! Layout (all little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"STSTSNAP"
//! 8       4     version (u32, currently 1)
//! 12      4     kind    (u32; what the payload describes)
//! 16      8     payload length in u64 words
//! 24      8     FNV-1a-64 checksum over version, kind and payload words
//! 32      8*W   payload words
//! ```
//!
//! The payload itself is a flat `u64` word stream written by the owners of the state
//! (`Executor::checkpoint`, `CompositionEngine::checkpoint`) and read back through the
//! bounds-checked [`SnapshotReader`]; both store their per-node records as one
//! [`push_codec_stream`] each. `tests/snapshot_format.rs` pins the layout.

use std::fmt;
use std::fs;
use std::io::{Read as _, Write as _};
use std::path::Path;

use stst_graph::Graph;

use crate::bits::{BitReader, BitWriter};
use crate::codec::{Codec, CodecCtx};

/// File magic: identifies a snapshot produced by this workspace.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"STSTSNAP";

/// Current snapshot format version. Bumped on any incompatible payload change; old
/// versions are rejected with [`RestoreError::WrongVersion`] rather than guessed at.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Payload kind tag: an [`crate::Executor`] configuration snapshot.
pub const KIND_EXECUTOR: u32 = 1;

/// Payload kind tag: a composition-engine snapshot (tree + label families + ledger).
pub const KIND_ENGINE: u32 = 2;

/// Why a snapshot could not be restored. Every corruption class maps to a variant —
/// restore never panics and never silently loads garbage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// The underlying file could not be read or written.
    Io(String),
    /// The file ends before the declared payload (or even the header) does.
    Truncated {
        /// Bytes the header (or declared payload) required.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The file does not start with [`SNAPSHOT_MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    WrongVersion {
        /// Version recorded in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The payload (or header fields mixed into the digest) was altered on disk.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum recomputed over the bytes actually read.
        computed: u64,
    },
    /// A structurally valid snapshot of the wrong kind (e.g. an engine snapshot handed
    /// to `Executor::restore`).
    WrongKind {
        /// Kind tag recorded in the file.
        found: u32,
        /// Kind tag the caller required.
        expected: u32,
    },
    /// The payload validated but its contents do not parse as the declared kind.
    /// Reachable only from snapshots written by a buggy or foreign producer — the
    /// checksum rules out in-flight corruption.
    Malformed(&'static str),
    /// The snapshot describes a different network than the one it is being restored
    /// into (node count or topology fingerprint mismatch).
    GraphMismatch,
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            RestoreError::Truncated { expected, found } => {
                write!(
                    f,
                    "snapshot truncated: need {expected} bytes, found {found}"
                )
            }
            RestoreError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            RestoreError::WrongVersion { found, supported } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (this build reads {supported})"
                )
            }
            RestoreError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            RestoreError::WrongKind { found, expected } => {
                write!(
                    f,
                    "snapshot kind {found} where kind {expected} was required"
                )
            }
            RestoreError::Malformed(what) => write!(f, "snapshot payload malformed: {what}"),
            RestoreError::GraphMismatch => {
                write!(
                    f,
                    "snapshot describes a different network than the restore target"
                )
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// FNV-1a-64 over the version, kind and payload words. Not cryptographic — it guards
/// against torn writes and accidental corruption, which is all a local checkpoint
/// needs.
fn checksum(version: u32, kind: u32, words: &[u64]) -> u64 {
    fnv1a(
        [version as u64, kind as u64]
            .into_iter()
            .chain(words.iter().copied()),
    )
}

/// FNV-1a-64 over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for byte in words.into_iter().flat_map(u64::to_le_bytes) {
        h ^= byte as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Order-sensitive FNV-1a-64 fingerprint of a network: node count, identities and the
/// full weighted edge list. Snapshots embed it so a restore into a *different* network
/// is rejected with [`RestoreError::GraphMismatch`] instead of silently producing a
/// configuration that never belonged to the graph it now runs on.
pub fn graph_fingerprint(graph: &Graph) -> u64 {
    let counts = [graph.node_count() as u64, graph.edge_count() as u64];
    let idents = graph.nodes().map(|v| graph.ident(v));
    let edges = graph
        .edges()
        .iter()
        .flat_map(|e| [e.u.0 as u64, e.v.0 as u64, e.weight]);
    fnv1a(counts.into_iter().chain(idents).chain(edges))
}

/// A validated snapshot: a payload kind plus its word stream. Producing one from bytes
/// ([`Snapshot::from_bytes`]) runs the full header/checksum validation, so holders of
/// a `Snapshot` value know the words are exactly what some producer wrote.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    kind: u32,
    words: Vec<u64>,
}

impl Snapshot {
    /// Wraps a payload produced by a checkpointing component.
    pub fn new(kind: u32, words: Vec<u64>) -> Self {
        Snapshot { kind, words }
    }

    /// The payload kind tag ([`KIND_EXECUTOR`], [`KIND_ENGINE`], ...).
    pub fn kind(&self) -> u32 {
        self.kind
    }

    /// The raw payload words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Serialized size in bytes (header + payload).
    pub fn byte_len(&self) -> usize {
        32 + 8 * self.words.len()
    }

    /// Serializes to the on-disk layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.kind.to_le_bytes());
        out.extend_from_slice(&(self.words.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum(SNAPSHOT_VERSION, self.kind, &self.words).to_le_bytes());
        for &w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Validates and parses the on-disk layout: magic, version, declared length,
    /// checksum — in that order, so each corruption class maps to its own
    /// [`RestoreError`] variant.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RestoreError> {
        if bytes.len() < 32 {
            return Err(RestoreError::Truncated {
                expected: 32,
                found: bytes.len(),
            });
        }
        if bytes[0..8] != SNAPSHOT_MAGIC {
            return Err(RestoreError::BadMagic);
        }
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != SNAPSHOT_VERSION {
            return Err(RestoreError::WrongVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let kind = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let len = word(16) as usize;
        // Checked: a corrupted length field can be astronomically large, and the
        // byte-count comparison must reject it instead of overflowing.
        let expected = len
            .checked_mul(8)
            .and_then(|b| b.checked_add(32))
            .unwrap_or(usize::MAX);
        if bytes.len() < expected {
            return Err(RestoreError::Truncated {
                expected,
                found: bytes.len(),
            });
        }
        let stored = word(24);
        let words: Vec<u64> = (0..len).map(|i| word(32 + 8 * i)).collect();
        let computed = checksum(version, kind, &words);
        if stored != computed {
            return Err(RestoreError::ChecksumMismatch { stored, computed });
        }
        Ok(Snapshot { kind, words })
    }

    /// Requires the snapshot to be of `expected` kind, for restore entry points.
    pub fn expect_kind(&self, expected: u32) -> Result<(), RestoreError> {
        if self.kind == expected {
            Ok(())
        } else {
            Err(RestoreError::WrongKind {
                found: self.kind,
                expected,
            })
        }
    }

    /// Writes the snapshot to a file (create/truncate).
    pub fn write_file(&self, path: &Path) -> Result<(), RestoreError> {
        let mut f = fs::File::create(path).map_err(|e| RestoreError::Io(e.to_string()))?;
        f.write_all(&self.to_bytes())
            .map_err(|e| RestoreError::Io(e.to_string()))
    }

    /// Reads and validates a snapshot file.
    pub fn read_file(path: &Path) -> Result<Self, RestoreError> {
        let mut f = fs::File::open(path).map_err(|e| RestoreError::Io(e.to_string()))?;
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)
            .map_err(|e| RestoreError::Io(e.to_string()))?;
        Snapshot::from_bytes(&bytes)
    }
}

/// Bounds-checked cursor over a snapshot's payload words. Every read that would run
/// past the end returns [`RestoreError::Malformed`] instead of panicking.
pub struct SnapshotReader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Starts reading `snapshot`'s payload from the beginning.
    pub fn new(snapshot: &'a Snapshot) -> Self {
        SnapshotReader {
            words: snapshot.words(),
            pos: 0,
        }
    }

    /// The next payload word.
    pub fn next_word(&mut self) -> Result<u64, RestoreError> {
        let w = self
            .words
            .get(self.pos)
            .copied()
            .ok_or(RestoreError::Malformed("payload ended early"))?;
        self.pos += 1;
        Ok(w)
    }

    /// The next payload word as a `usize`, rejecting values that do not fit.
    pub fn next_usize(&mut self) -> Result<usize, RestoreError> {
        usize::try_from(self.next_word()?)
            .map_err(|_| RestoreError::Malformed("word exceeds usize"))
    }

    /// The next `N` payload words, as an array (an RNG state).
    pub fn next_words<const N: usize>(&mut self) -> Result<[u64; N], RestoreError> {
        let mut words = [0; N];
        words.copy_from_slice(self.take(N)?);
        Ok(words)
    }

    /// The next `len` payload words as `usize`s, rejecting values that do not fit.
    pub fn take_usizes(&mut self, len: usize) -> Result<Vec<usize>, RestoreError> {
        self.take(len)?
            .iter()
            .map(|&w| usize::try_from(w).map_err(|_| RestoreError::Malformed("word exceeds usize")))
            .collect()
    }

    /// The next `len` payload words.
    pub fn take(&mut self, len: usize) -> Result<&'a [u64], RestoreError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&end| end <= self.words.len())
            .ok_or(RestoreError::Malformed("payload ended early"))?;
        let slice = &self.words[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Payload words not yet consumed: the bound for any allocation sized by a count
    /// read from the payload.
    pub fn remaining(&self) -> usize {
        self.words.len() - self.pos
    }

    /// `true` iff every payload word has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.words.len()
    }

    /// Requires the payload to be fully consumed — trailing words mean the payload
    /// does not parse as the kind the caller assumed.
    pub fn expect_exhausted(&self) -> Result<(), RestoreError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(RestoreError::Malformed("trailing payload words"))
        }
    }
}

/// Appends `items` to a payload as one concatenated codec bitstream — the exact
/// `O(log² n)`-bit layout the packed store allocates — preceded by its bit and word
/// lengths. Both snapshot kinds store their registers or label families this way.
pub fn push_codec_stream<T: Codec>(words: &mut Vec<u64>, items: &[T], ctx: &CodecCtx) {
    let mut stream: Vec<u64> = Vec::new();
    let mut writer = BitWriter::new(&mut stream, 0);
    let mut bits = 0usize;
    for item in items {
        item.encode_into(ctx, &mut writer);
        bits += item.encoded_bits(ctx);
    }
    words.push(bits as u64);
    words.push(stream.len() as u64);
    words.extend_from_slice(&stream);
}

/// Reads `n` items written by [`push_codec_stream`]; lengths that disagree with what
/// the items decode to are [`RestoreError::Malformed`].
pub fn read_codec_stream<T: Codec>(
    r: &mut SnapshotReader<'_>,
    n: usize,
    ctx: &CodecCtx,
) -> Result<Vec<T>, RestoreError> {
    let bits = r.next_usize()?;
    let word_len = r.next_usize()?;
    let stream = r.take(word_len)?;
    if bits > word_len * 64 {
        return Err(RestoreError::Malformed("codec stream length overflow"));
    }
    let mut reader = BitReader::new(stream, 0);
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        if reader.bits_read() > bits as u64 {
            return Err(RestoreError::Malformed("codec stream ended early"));
        }
        items.push(T::decode_from(ctx, &mut reader));
    }
    if reader.bits_read() != bits as u64 {
        return Err(RestoreError::Malformed("codec stream length mismatch"));
    }
    Ok(items)
}

/// Truncates a snapshot file to `keep` bytes — a structured corruption pattern for
/// crash-injection tests (models a torn write).
pub fn truncate_file(path: &Path, keep: usize) -> Result<(), RestoreError> {
    let bytes = fs::read(path).map_err(|e| RestoreError::Io(e.to_string()))?;
    let keep = keep.min(bytes.len());
    fs::write(path, &bytes[..keep]).map_err(|e| RestoreError::Io(e.to_string()))
}

/// Flips one bit of a snapshot file — a structured corruption pattern for
/// crash-injection tests (models media corruption).
pub fn flip_bit_in_file(path: &Path, bit: usize) -> Result<(), RestoreError> {
    let mut bytes = fs::read(path).map_err(|e| RestoreError::Io(e.to_string()))?;
    if bytes.is_empty() {
        return Err(RestoreError::Truncated {
            expected: 1,
            found: 0,
        });
    }
    let at = (bit / 8) % bytes.len();
    bytes[at] ^= 1 << (bit % 8);
    fs::write(path, &bytes).map_err(|e| RestoreError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot::new(KIND_EXECUTOR, vec![3, 0, u64::MAX, 42, 0xdead_beef])
    }

    #[test]
    fn roundtrip_preserves_kind_and_words() {
        let snap = sample();
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.byte_len(), 32 + 8 * 5);
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = sample().to_bytes();
        for keep in 0..bytes.len() {
            match Snapshot::from_bytes(&bytes[..keep]) {
                Err(RestoreError::Truncated { found, .. }) => assert_eq!(found, keep),
                other => panic!("truncated to {keep} bytes gave {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let good = sample().to_bytes();
        for bit in 0..good.len() * 8 {
            let mut bad = good.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            match Snapshot::from_bytes(&bad) {
                Ok(snap) => panic!("bit flip {bit} went undetected: {snap:?}"),
                Err(
                    RestoreError::BadMagic
                    | RestoreError::WrongVersion { .. }
                    | RestoreError::ChecksumMismatch { .. }
                    | RestoreError::Truncated { .. },
                ) => {}
                Err(other) => panic!("bit flip {bit} gave unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut bytes = sample().to_bytes();
        bytes[8] = 9;
        assert_eq!(
            Snapshot::from_bytes(&bytes),
            Err(RestoreError::WrongVersion {
                found: 9,
                supported: SNAPSHOT_VERSION
            })
        );
    }

    #[test]
    fn kind_mismatch_is_typed() {
        let snap = sample();
        assert!(snap.expect_kind(KIND_EXECUTOR).is_ok());
        assert_eq!(
            snap.expect_kind(KIND_ENGINE),
            Err(RestoreError::WrongKind {
                found: KIND_EXECUTOR,
                expected: KIND_ENGINE
            })
        );
    }

    #[test]
    fn reader_is_bounds_checked() {
        let snap = Snapshot::new(KIND_ENGINE, vec![7, 8]);
        let mut r = SnapshotReader::new(&snap);
        assert_eq!(r.next_word().unwrap(), 7);
        assert_eq!(r.take(1).unwrap(), &[8]);
        assert!(r.is_exhausted());
        assert!(r.expect_exhausted().is_ok());
        assert_eq!(
            r.next_word(),
            Err(RestoreError::Malformed("payload ended early"))
        );
        let mut r = SnapshotReader::new(&snap);
        assert_eq!(
            r.take(3),
            Err(RestoreError::Malformed("payload ended early"))
        );
        assert!(r.expect_exhausted().is_err());
    }

    #[test]
    fn file_corruption_helpers_produce_typed_failures() {
        let dir = std::env::temp_dir().join("stst-persist-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        let snap = sample();
        snap.write_file(&path).unwrap();
        assert_eq!(Snapshot::read_file(&path).unwrap(), snap);

        flip_bit_in_file(&path, 40 * 8 + 3).unwrap();
        assert!(matches!(
            Snapshot::read_file(&path),
            Err(RestoreError::ChecksumMismatch { .. })
        ));

        snap.write_file(&path).unwrap();
        truncate_file(&path, 20).unwrap();
        assert!(matches!(
            Snapshot::read_file(&path),
            Err(RestoreError::Truncated { .. })
        ));

        std::fs::write(&path, b"NOTASNAPSHOTFILEATALL_PADDING_PAD").unwrap();
        assert_eq!(Snapshot::read_file(&path), Err(RestoreError::BadMagic));

        assert!(matches!(
            Snapshot::read_file(&dir.join("missing.bin")),
            Err(RestoreError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
