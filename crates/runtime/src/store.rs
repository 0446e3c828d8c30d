//! The packed configuration store: registers allocated at their accounted bit widths.
//!
//! A self-stabilizing algorithm's state is a *configuration* — one register per node.
//! The seed kept configurations as `Vec<State>` of fat Rust structs (dozens of machine
//! words per node for `O(log² n)`-bit registers). [`ConfigStore`] makes the accounted
//! space the allocated space: in [`StoreMode::Packed`] every register occupies one
//! fixed-width **bit slot** inside a shared `u64` word heap, exactly the register model
//! of the paper (a register *is* a `⌈max encoded size⌉`-bit word). Slots share a single
//! stride so addressing is one multiply — no per-node offset tables eating the savings
//! back — and the stride grows (with a full repack) the first time a register outgrows
//! it, which is rare and monotone: encoded sizes are bounded by the [`CodecCtx`] field
//! widths.
//!
//! A presence bitmap turns the same layout into the executor's *pending* buffer (the
//! cached next-state per enabled node), so both halves of the double-buffered
//! configuration — pre-round snapshot and pending writes — live in packed form.
//!
//! [`StoreMode::Struct`] retains the plain `Vec<Option<State>>` layout as the reference
//! mode: the lockstep oracle (`tests/packed_store_oracle.rs` asserts that executions
//! over the two stores are bit-identical) and the memory baseline the space tables
//! compare the packed store against. This module is the only place that knows which
//! representation a store uses: callers pass a [`StoreMode`] to the constructors
//! ([`ConfigStore::empty`], [`ConfigStore::from_slice`], [`ConfigStore::from_slots`])
//! and read registers through [`ConfigStore::get`] — a decode from the packed heap,
//! a clone from the struct vector. The packed-only accessors ([`ConfigStore::raw_parts`],
//! [`ConfigStore::field_reader`], [`ConfigStore::present_words`]) return `None` for a
//! struct store, so a caller keeps one path with a packed fast case in front of it.

use std::marker::PhantomData;

use stst_graph::NodeId;

use crate::bits::{BitReader, BitWriter};
use crate::codec::{Codec, CodecCtx, FieldReader};

/// Which representation a [`ConfigStore`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StoreMode {
    /// Bit-packed fixed-stride slots: the accounted bits are the allocated bits.
    #[default]
    Packed,
    /// Plain `Vec` of decoded structs. Reference mode for differential testing and the
    /// memory baseline of the space benches.
    Struct,
}

/// Measured memory of a store, compared against the accounted register bits in the
/// E5/E7/E11 space tables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StoreBytes {
    /// Bytes actually allocated for the slots (heap words or struct vector, plus the
    /// presence bitmap).
    pub bytes: usize,
    /// Number of slots.
    pub slots: usize,
}

/// One configuration buffer: `n` optional registers, packed or struct-backed.
#[derive(Clone, Debug)]
pub struct ConfigStore<S> {
    repr: Repr<S>,
}

#[derive(Clone, Debug)]
enum Repr<S> {
    Struct(Vec<Option<S>>),
    Packed(PackedBuf<S>),
}

#[derive(Clone, Debug)]
struct PackedBuf<S> {
    /// Bit width of one slot (the maximum encoded size seen so far).
    stride: u32,
    /// Slot `v` occupies bits `v * stride .. (v + 1) * stride` of this heap.
    heap: Vec<u64>,
    /// Presence bitmap (all-ones for a snapshot store, sparse for a pending store).
    present: Vec<u64>,
    /// Transient encode scratch for [`ConfigStore::set`]'s change detection: one
    /// slot's worth of words, reused across writes. Working space, not slot storage —
    /// excluded from [`ConfigStore::measured`].
    scratch: Vec<u64>,
    len: usize,
    _marker: PhantomData<S>,
}

impl<S: Codec + Clone> ConfigStore<S> {
    /// An empty store of `n` absent slots.
    pub fn empty(mode: StoreMode, n: usize) -> Self {
        let repr = match mode {
            StoreMode::Struct => Repr::Struct(vec![None; n]),
            StoreMode::Packed => Repr::Packed(PackedBuf {
                stride: 0,
                heap: Vec::new(),
                present: vec![0; n.div_ceil(64)],
                scratch: Vec::new(),
                len: n,
                _marker: PhantomData,
            }),
        };
        ConfigStore { repr }
    }

    /// A fully populated store holding one register per node, copied from `states`.
    /// The packed heap is sized once, from the maximum encoded size, so encoding
    /// borrows the registers and never repacks.
    pub fn from_slice(mode: StoreMode, states: &[S], ctx: &CodecCtx) -> Self {
        match mode {
            StoreMode::Struct => ConfigStore {
                repr: Repr::Struct(states.iter().cloned().map(Some).collect()),
            },
            StoreMode::Packed => ConfigStore::packed(states.len(), states.iter().map(Some), ctx),
        }
    }

    /// A store of optional slots copied from `slots` (absent slots stay absent). The
    /// packed heap is sized once, from the maximum encoded size over every present
    /// register.
    pub fn from_slots(mode: StoreMode, slots: &[Option<S>], ctx: &CodecCtx) -> Self {
        match mode {
            StoreMode::Struct => ConfigStore {
                repr: Repr::Struct(slots.to_vec()),
            },
            StoreMode::Packed => {
                ConfigStore::packed(slots.len(), slots.iter().map(Option::as_ref), ctx)
            }
        }
    }

    /// A packed store of `n` slots with the stride pre-computed over every present
    /// register (one heap allocation, no incremental repacks).
    fn packed<'a>(
        n: usize,
        slots: impl Iterator<Item = Option<&'a S>> + Clone,
        ctx: &CodecCtx,
    ) -> Self
    where
        S: 'a,
    {
        let stride = slots
            .clone()
            .flatten()
            .map(|s| s.encoded_bits(ctx))
            .max()
            .unwrap_or(0) as u32;
        let mut buf = PackedBuf {
            stride,
            heap: vec![0; (stride as u64 * n as u64).div_ceil(64) as usize],
            present: vec![0; n.div_ceil(64)],
            scratch: Vec::new(),
            len: n,
            _marker: PhantomData,
        };
        for (i, slot) in slots.enumerate() {
            if let Some(s) = slot {
                buf.encode_slot(i, s, ctx);
                buf.mark_present(i);
            }
        }
        ConfigStore {
            repr: Repr::Packed(buf),
        }
    }

    /// The store's representation mode.
    pub fn mode(&self) -> StoreMode {
        match &self.repr {
            Repr::Struct(_) => StoreMode::Struct,
            Repr::Packed(_) => StoreMode::Packed,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Struct(v) => v.len(),
            Repr::Packed(b) => b.len,
        }
    }

    /// `true` if the store has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if slot `v` holds a register.
    #[inline]
    pub fn is_present(&self, v: NodeId) -> bool {
        match &self.repr {
            Repr::Struct(s) => s[v.0].is_some(),
            Repr::Packed(b) => b.is_present(v.0),
        }
    }

    /// Decodes the register of `v`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is absent.
    #[inline]
    pub fn get(&self, v: NodeId, ctx: &CodecCtx) -> S {
        match &self.repr {
            Repr::Struct(s) => s[v.0].clone().expect("slot is present"),
            Repr::Packed(b) => {
                debug_assert!(b.is_present(v.0), "slot {v} is present");
                b.decode_slot(v.0, ctx)
            }
        }
    }

    /// Decodes the register of `v` if present.
    #[inline]
    pub fn try_get(&self, v: NodeId, ctx: &CodecCtx) -> Option<S> {
        self.is_present(v).then(|| self.get(v, ctx))
    }

    /// Writes the register of `v` (marking the slot present). Returns `true` iff the
    /// stored bits changed.
    ///
    /// A write that re-encodes to exactly the bits already stored short-circuits
    /// without touching the heap: the slot's xor-fold change [`fingerprint`] is
    /// compared first (almost always different when the value changed), then an exact
    /// window compare confirms — fingerprints can collide, so no skip decision ever
    /// rests on fingerprint equality alone. Because every codec is exactly invertible,
    /// bit-identical ⟺ value-identical, which is what keeps the struct mode's
    /// value-compare short-circuit in lockstep with this one.
    ///
    /// [`fingerprint`]: ConfigStore::fingerprint
    pub fn set(&mut self, v: NodeId, state: &S, ctx: &CodecCtx) -> bool
    where
        S: PartialEq,
    {
        match &mut self.repr {
            Repr::Struct(s) => {
                if s[v.0].as_ref() == Some(state) {
                    return false;
                }
                s[v.0] = Some(state.clone());
                true
            }
            Repr::Packed(b) => {
                let bits = state.encoded_bits(ctx) as u32;
                if bits > b.stride {
                    // Wider than every encoding the store has held, so the stored
                    // value (if any) cannot equal `state`: encoded size is a function
                    // of the value.
                    b.grow_stride(bits, ctx);
                    b.encode_slot(v.0, state, ctx);
                    b.mark_present(v.0);
                    return true;
                }
                if !b.is_present(v.0) {
                    b.encode_slot(v.0, state, ctx);
                    b.mark_present(v.0);
                    return true;
                }
                b.encode_scratch(state, ctx);
                if b.fold_scratch() == b.fingerprint_slot(v.0) && b.slot_equals_scratch(v.0) {
                    return false;
                }
                b.write_scratch_to_slot(v.0);
                true
            }
        }
    }

    /// Takes the register of `v` out of the store (clearing the slot).
    pub fn take(&mut self, v: NodeId, ctx: &CodecCtx) -> Option<S> {
        match &mut self.repr {
            Repr::Struct(s) => s[v.0].take(),
            Repr::Packed(b) => {
                if !b.is_present(v.0) {
                    return None;
                }
                let state = b.decode_slot(v.0, ctx);
                b.clear_present(v.0);
                Some(state)
            }
        }
    }

    /// Clears slot `v`.
    pub fn clear(&mut self, v: NodeId) {
        match &mut self.repr {
            Repr::Struct(s) => s[v.0] = None,
            Repr::Packed(b) => b.clear_present(v.0),
        }
    }

    /// Decodes every present slot into `out[i]` (absent slots are skipped; `out` must
    /// already have one element per slot). Used for full-snapshot reads (legality
    /// checks, tree extraction, `Executor::states`).
    pub fn decode_present_into(&self, ctx: &CodecCtx, out: &mut [Option<S>]) {
        assert_eq!(out.len(), self.len());
        match &self.repr {
            Repr::Struct(s) => out.clone_from_slice(s),
            Repr::Packed(b) => {
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = b.is_present(i).then(|| b.decode_slot(i, ctx));
                }
            }
        }
    }

    /// Decodes a fully populated store into a vector.
    ///
    /// # Panics
    ///
    /// Panics if some slot is absent.
    pub fn decode_all(&self, ctx: &CodecCtx) -> Vec<S> {
        match &self.repr {
            Repr::Struct(s) => s
                .iter()
                .map(|x| x.clone().expect("snapshot stores are fully populated"))
                .collect(),
            Repr::Packed(b) => (0..b.len)
                .map(|i| {
                    assert!(b.is_present(i), "snapshot stores are fully populated");
                    b.decode_slot(i, ctx)
                })
                .collect(),
        }
    }

    /// Sum of the accounted bits of every present register (recomputed by decoding —
    /// the store keeps no per-slot length metadata, that is part of what it saves).
    pub fn accounted_bits(&self, ctx: &CodecCtx) -> u64 {
        match &self.repr {
            Repr::Struct(s) => s.iter().flatten().map(|x| x.encoded_bits(ctx) as u64).sum(),
            Repr::Packed(b) => (0..b.len)
                .filter(|&i| b.is_present(i))
                .map(|i| b.decode_slot(i, ctx).encoded_bits(ctx) as u64)
                .sum(),
        }
    }

    /// Bytes actually allocated for this store's slots and presence bitmap. For the
    /// struct mode this is the `Vec<Option<S>>` backing allocation — the memory a
    /// system without the packed store pays.
    pub fn measured(&self) -> StoreBytes {
        match &self.repr {
            Repr::Struct(s) => StoreBytes {
                bytes: s.capacity() * std::mem::size_of::<Option<S>>(),
                slots: s.len(),
            },
            Repr::Packed(b) => StoreBytes {
                bytes: (b.heap.capacity() + b.present.capacity()) * 8 + std::mem::size_of::<u32>(),
                slots: b.len,
            },
        }
    }

    /// The slot stride in bits (packed mode only): the width of the fixed-size register
    /// word every node gets, i.e. the maximum encoded size seen so far.
    pub fn stride_bits(&self) -> Option<u32> {
        match &self.repr {
            Repr::Struct(_) => None,
            Repr::Packed(b) => Some(b.stride),
        }
    }

    /// The packed heap and slot stride, for decode-free field extraction (the guard
    /// screens build [`crate::view::RawView`]s over this). `None` in struct mode or
    /// when the stride is zero (zero-bit registers leave nothing to read).
    pub fn raw_parts(&self) -> Option<(&[u64], u32)> {
        match &self.repr {
            Repr::Packed(b) if b.stride > 0 => Some((&b.heap, b.stride)),
            _ => None,
        }
    }

    /// A decode-free cursor positioned at the start of slot `v`'s register, for
    /// escape-aware field extraction without constructing the decoded struct (the
    /// serving layer's query hot path). `None` in struct mode, when the stride is
    /// zero, or when the slot is absent — callers fall back to [`ConfigStore::get`].
    #[inline]
    pub fn field_reader(&self, v: NodeId) -> Option<FieldReader<'_>> {
        match &self.repr {
            Repr::Packed(b) if b.stride > 0 && b.is_present(v.0) => {
                Some(FieldReader::new(&b.heap, v.0 as u64 * b.stride as u64))
            }
            _ => None,
        }
    }

    /// The presence bitmap words (packed mode only): bit `v % 64` of word `v / 64` is
    /// set iff slot `v` holds a register. For the executor's pending buffer this
    /// bitmap *is* the enabled set, which lets the per-round bitset refill run as
    /// word copies + popcounts instead of per-node scatter writes.
    pub fn present_words(&self) -> Option<&[u64]> {
        match &self.repr {
            Repr::Struct(_) => None,
            Repr::Packed(b) => Some(&b.present),
        }
    }

    /// Xor-fold change fingerprint of slot `v`'s stride window, phase-normalized to
    /// the slot start so equal register bits give equal fingerprints at any slot
    /// index (packed mode only; the slot need not be present — an absent slot folds
    /// its zeroed window).
    ///
    /// Derived on demand rather than stored: a persistent word per slot would blow
    /// the ≤4× accounted-bits allocation budget the space gates pin. Equal bits ⇒
    /// equal fingerprints; the converse can fail (xor collisions), so change/skip
    /// decisions treat a fingerprint match only as "maybe unchanged" and confirm with
    /// an exact compare — see [`ConfigStore::set`].
    pub fn fingerprint(&self, v: NodeId) -> Option<u64> {
        match &self.repr {
            Repr::Struct(_) => None,
            Repr::Packed(b) => Some(b.fingerprint_slot(v.0)),
        }
    }
}

impl<S: Codec + Clone> PackedBuf<S> {
    #[inline]
    fn is_present(&self, i: usize) -> bool {
        self.present[i >> 6] & (1u64 << (i & 63)) != 0
    }

    #[inline]
    fn mark_present(&mut self, i: usize) {
        self.present[i >> 6] |= 1u64 << (i & 63);
    }

    #[inline]
    fn clear_present(&mut self, i: usize) {
        self.present[i >> 6] &= !(1u64 << (i & 63));
    }

    fn decode_slot(&self, i: usize, ctx: &CodecCtx) -> S {
        let mut r = BitReader::new(&self.heap, i as u64 * self.stride as u64);
        S::decode_from(ctx, &mut r)
    }

    fn encode_slot(&mut self, i: usize, state: &S, ctx: &CodecCtx) {
        let start = i as u64 * self.stride as u64;
        let mut w = BitWriter::new(&mut self.heap, start);
        state.encode_into(ctx, &mut w);
        // Zero the slot's tail so stale bits of a previous (longer) register can never
        // be misread by a future decode after a rewrite.
        let written = w.position() - start;
        let tail = self.stride as u64 - written;
        let mut remaining = tail;
        while remaining > 0 {
            let chunk = remaining.min(64) as usize;
            w.write(0, chunk);
            remaining -= chunk as u64;
        }
    }

    /// Encodes `state` into the reusable scratch buffer, zero-padded to exactly one
    /// stride so scratch words compare directly against a slot's bit window.
    fn encode_scratch(&mut self, state: &S, ctx: &CodecCtx) {
        self.scratch.clear();
        let mut w = BitWriter::new(&mut self.scratch, 0);
        state.encode_into(ctx, &mut w);
        let mut remaining = self.stride as u64 - w.position();
        while remaining > 0 {
            let chunk = remaining.min(64) as usize;
            w.write(0, chunk);
            remaining -= chunk as u64;
        }
    }

    /// Exact compare of slot `i`'s stride window against the scratch encoding.
    fn slot_equals_scratch(&self, i: usize) -> bool {
        let mut r = BitReader::new(&self.heap, i as u64 * self.stride as u64);
        let mut remaining = self.stride as u64;
        let mut k = 0;
        while remaining > 0 {
            let chunk = remaining.min(64) as usize;
            if r.read(chunk) != self.scratch[k] {
                return false;
            }
            k += 1;
            remaining -= chunk as u64;
        }
        true
    }

    /// Copies the scratch encoding (already padded to one stride) into slot `i`.
    fn write_scratch_to_slot(&mut self, i: usize) {
        let start = i as u64 * self.stride as u64;
        let scratch = std::mem::take(&mut self.scratch);
        let mut w = BitWriter::new(&mut self.heap, start);
        let mut remaining = self.stride as u64;
        for &word in &scratch {
            let chunk = remaining.min(64) as usize;
            w.write(word, chunk);
            remaining -= chunk as u64;
        }
        self.scratch = scratch;
    }

    /// Xor-fold of the scratch encoding (the fingerprint the slot would have after
    /// writing it).
    fn fold_scratch(&self) -> u64 {
        self.scratch.iter().fold(0, |acc, &w| acc ^ w)
    }

    /// Xor-fold fingerprint of slot `i`'s stride window, phase-normalized to the slot
    /// start.
    fn fingerprint_slot(&self, i: usize) -> u64 {
        let mut r = BitReader::new(&self.heap, i as u64 * self.stride as u64);
        let mut fp = 0u64;
        let mut remaining = self.stride as u64;
        while remaining > 0 {
            let chunk = remaining.min(64) as usize;
            fp ^= r.read(chunk);
            remaining -= chunk as u64;
        }
        fp
    }

    /// Repacks every present slot at a wider stride. Monotone and rare: encoded sizes
    /// are bounded by the ctx field widths, so the stride settles after the first few
    /// writes of a run.
    fn grow_stride(&mut self, bits: u32, ctx: &CodecCtx) {
        let old: Vec<Option<S>> = (0..self.len)
            .map(|i| self.is_present(i).then(|| self.decode_slot(i, ctx)))
            .collect();
        self.stride = bits;
        // Fresh exact-sized allocation (not `resize`): slot addresses never run past
        // it, so the heap's capacity — what `measured()` reports — stays exactly
        // `⌈stride · n / 64⌉` words with no amortized-growth slack.
        self.heap = vec![0; (bits as u64 * self.len as u64).div_ceil(64) as usize];
        for (i, slot) in old.iter().enumerate() {
            if let Some(s) = slot {
                self.encode_slot(i, s, ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> CodecCtx {
        CodecCtx {
            ident_bits: 8,
            weight_bits: 8,
            count_bits: 8,
            len_bits: 7,
        }
    }

    #[test]
    fn packed_snapshot_round_trips_every_slot() {
        let ctx = ctx();
        let states: Vec<u64> = (0..100).map(|i| (i * 37) % 251).collect();
        let store = ConfigStore::from_slice(StoreMode::Packed, &states, &ctx);
        assert_eq!(store.decode_all(&ctx), states);
        for (i, s) in states.iter().enumerate() {
            assert_eq!(store.get(NodeId(i), &ctx), *s);
        }
        assert_eq!(store.stride_bits(), Some(9)); // escape bit + 8-bit field
    }

    #[test]
    fn set_and_take_maintain_presence() {
        let ctx = ctx();
        let mut store: ConfigStore<u64> = ConfigStore::empty(StoreMode::Packed, 70);
        assert!(!store.is_present(NodeId(65)));
        store.set(NodeId(65), &42, &ctx);
        assert!(store.is_present(NodeId(65)));
        assert_eq!(store.try_get(NodeId(65), &ctx), Some(42));
        assert_eq!(store.take(NodeId(65), &ctx), Some(42));
        assert_eq!(store.take(NodeId(65), &ctx), None);
        assert!(!store.is_present(NodeId(65)));
    }

    #[test]
    fn stride_growth_repacks_without_losing_registers() {
        let ctx = ctx();
        let mut store: ConfigStore<u64> = ConfigStore::empty(StoreMode::Packed, 10);
        for i in 0..10 {
            store.set(NodeId(i), &(i as u64), &ctx);
        }
        // A value that escapes the 8-bit field forces a wider stride.
        store.set(NodeId(3), &u64::MAX, &ctx);
        assert_eq!(store.stride_bits(), Some(65));
        for i in 0..10 {
            let expected = if i == 3 { u64::MAX } else { i as u64 };
            assert_eq!(store.get(NodeId(i), &ctx), expected);
        }
    }

    #[test]
    fn rewriting_with_a_shorter_register_zeroes_the_tail() {
        let ctx = ctx();
        let mut store: ConfigStore<(u64, bool)> = ConfigStore::empty(StoreMode::Packed, 4);
        store.set(NodeId(1), &(u64::MAX, true), &ctx); // 65 + 1 bits
        store.set(NodeId(1), &(1, false), &ctx); // 9 + 1 bits, same (wide) stride
        assert_eq!(store.get(NodeId(1), &ctx), (1, false));
    }

    #[test]
    fn struct_mode_matches_packed_behavior() {
        let ctx = ctx();
        for mode in [StoreMode::Struct, StoreMode::Packed] {
            let mut store: ConfigStore<u64> = ConfigStore::empty(mode, 8);
            store.set(NodeId(2), &9, &ctx);
            store.set(NodeId(5), &200, &ctx);
            store.clear(NodeId(2));
            let mut out = vec![None; 8];
            store.decode_present_into(&ctx, &mut out);
            assert_eq!(out[2], None, "{mode:?}");
            assert_eq!(out[5], Some(200), "{mode:?}");
            assert_eq!(store.accounted_bits(&ctx), 9, "{mode:?}");
        }
    }

    #[test]
    fn slot_constructors_agree_across_modes() {
        let ctx = ctx();
        let slots = [Some(7u64), None, Some(u64::MAX), None];
        for mode in [StoreMode::Struct, StoreMode::Packed] {
            let store = ConfigStore::from_slots(mode, &slots, &ctx);
            assert_eq!(store.mode(), mode);
            let mut out = vec![None; slots.len()];
            store.decode_present_into(&ctx, &mut out);
            assert_eq!(out, slots, "{mode:?}: absent slots stay absent");
            let full = ConfigStore::from_slice(mode, &[3u64, 4], &ctx);
            assert_eq!(full.decode_all(&ctx), vec![3, 4], "{mode:?}");
        }
    }

    #[test]
    fn set_reports_whether_the_stored_bits_changed() {
        let ctx = ctx();
        for mode in [StoreMode::Struct, StoreMode::Packed] {
            let mut store: ConfigStore<u64> = ConfigStore::empty(mode, 8);
            assert!(store.set(NodeId(3), &7, &ctx), "{mode:?}: first write");
            assert!(
                !store.set(NodeId(3), &7, &ctx),
                "{mode:?}: bit-identical rewrite short-circuits"
            );
            assert!(store.set(NodeId(3), &8, &ctx), "{mode:?}: changed value");
            // An escaping value forces a stride growth in packed mode; either way the
            // value differs so the write must report a change.
            assert!(store.set(NodeId(3), &u64::MAX, &ctx), "{mode:?}: escape");
            assert!(
                !store.set(NodeId(3), &u64::MAX, &ctx),
                "{mode:?}: same escape"
            );
            assert_eq!(store.get(NodeId(3), &ctx), u64::MAX, "{mode:?}");
        }
    }

    #[test]
    fn fingerprints_track_slot_bits_not_slot_position() {
        let ctx = ctx();
        let states: Vec<u64> = vec![5, 9, 5, 200];
        let store = ConfigStore::from_slice(StoreMode::Packed, &states, &ctx);
        // Equal register bits ⇒ equal fingerprints, at unrelated bit phases.
        assert_eq!(store.fingerprint(NodeId(0)), store.fingerprint(NodeId(2)));
        assert_ne!(store.fingerprint(NodeId(0)), store.fingerprint(NodeId(1)));
        let structs = ConfigStore::from_slice(StoreMode::Struct, &[5u64], &ctx);
        assert_eq!(structs.fingerprint(NodeId(0)), None);
    }

    #[test]
    fn present_words_mirror_the_presence_bitmap() {
        let ctx = ctx();
        let mut store: ConfigStore<u64> = ConfigStore::empty(StoreMode::Packed, 70);
        store.set(NodeId(1), &1, &ctx);
        store.set(NodeId(65), &2, &ctx);
        let words = store.present_words().unwrap();
        assert_eq!(words.len(), 2);
        assert_eq!(words[0], 1 << 1);
        assert_eq!(words[1], 1 << 1);
        assert_eq!(
            words.iter().map(|w| w.count_ones()).sum::<u32>(),
            2,
            "popcount agrees with the number of present slots"
        );
        let raw = store.raw_parts().unwrap();
        assert_eq!(raw.1, store.stride_bits().unwrap());
    }

    #[test]
    fn packed_memory_is_far_below_struct_memory() {
        let ctx = ctx();
        let states: Vec<(u64, bool)> = (0..1000).map(|i| (i % 250, i % 2 == 0)).collect();
        let packed = ConfigStore::from_slice(StoreMode::Packed, &states, &ctx);
        let structs = ConfigStore::from_slice(StoreMode::Struct, &states, &ctx);
        let pb = packed.measured().bytes;
        let sb = structs.measured().bytes;
        assert!(
            pb * 4 < sb,
            "packed {pb} bytes should be at least 4x below struct {sb} bytes"
        );
        // The packed allocation is within a word-rounding of stride × slots.
        let stride = packed.stride_bits().unwrap() as usize;
        assert!(pb * 8 <= stride * 1000 + 1000 / 64 * 64 + 256);
    }
}
