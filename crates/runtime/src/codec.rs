//! Self-delimiting bit codecs for register and label contents.
//!
//! The paper's space claims are about *registers*: fixed-width words of
//! `O(log n)`/`O(log² n)` bits. The seed implementation only *accounted* those widths
//! (`bit_size()` summed `bits_for` of the current values) while the actual storage was
//! fat Rust structs. The [`Codec`] trait closes that gap: every register and label type
//! describes how to serialize itself into a [`BitWriter`] and back, and the packed
//! configuration store ([`crate::store`]) allocates exactly those bits. `bit_size`
//! accounting is *derived* from the codec ([`Codec::encoded_bits`] is by definition the
//! number of bits written), so accounting and reality can no longer drift.
//!
//! # Field widths
//!
//! Widths come from a per-instance [`CodecCtx`] built once from the graph: identities,
//! edge weights and bounded counters each get the fixed number of bits the model grants
//! them (`⌈log₂⌉` of their value range, exactly the paper's register layout). Because a
//! transient fault can leave *any* 64-bit garbage in a decoded register, every integer
//! field carries one **escape bit**: `0` + the fixed-width value when it fits, `1` + a
//! raw 64-bit word otherwise. Encoding is therefore total (never panics, never
//! truncates) and exactly invertible — `decode(encode(x)) == x` for every value, which
//! is what keeps packed executions bit-identical to the struct-backed reference
//! (`tests/packed_store_oracle.rs`). In fault-free runs the escape never fires and every
//! field costs `1 + width` bits.

use stst_graph::ids::bits_for;
use stst_graph::Graph;

use crate::bits::{BitReader, BitWriter};

/// Fixed field widths of one problem instance, shared by every codec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodecCtx {
    /// Bits of an identity field. Covers every real identity plus the `0..=2n` garbage
    /// range arbitrary initial configurations and fault injection draw from.
    pub ident_bits: u32,
    /// Bits of an edge-weight field.
    pub weight_bits: u32,
    /// Bits of a bounded counter (distances, subtree sizes, degrees — all `≤ n + 1`).
    pub count_bits: u32,
    /// Bits of a trace-length field (Borůvka levels, heavy-path segment counts — all
    /// `≤ ⌈log₂ n⌉ + 1 ≤ 65`).
    pub len_bits: u32,
}

impl CodecCtx {
    /// Builds the widths for `graph`: the instance parameters are incorruptible
    /// constants, so this is decided once per executor (and re-derived after topology
    /// mutations, which can grow the identity or weight ranges).
    pub fn for_graph(graph: &Graph) -> Self {
        let n = graph.node_count() as u64;
        let max_ident = graph.nodes().map(|v| graph.ident(v)).max().unwrap_or(0);
        let max_weight = graph.edge_ids().map(|e| graph.weight(e)).max().unwrap_or(0);
        CodecCtx {
            // +8 headroom: fault hooks nudge identities/counters by small deltas
            // (e.g. `corrupt_random_labels` bumps a fragment identity by one); the
            // escape bit covers anything larger.
            ident_bits: bits_for(max_ident.max(2 * n + 2) + 8) as u32,
            weight_bits: bits_for(max_weight + 8) as u32,
            count_bits: bits_for(n + 8) as u32,
            len_bits: 7,
        }
    }

    /// Bits of an escape-coded integer field of nominal width `width`.
    #[inline]
    pub fn uint_bits(value: u64, width: u32) -> usize {
        if fits(value, width) {
            1 + width as usize
        } else {
            1 + 64
        }
    }

    /// Writes an escape-coded integer field of nominal width `width`.
    #[inline]
    pub fn write_uint(w: &mut BitWriter<'_>, value: u64, width: u32) {
        if fits(value, width) {
            w.write(0, 1);
            w.write(value, width as usize);
        } else {
            w.write(1, 1);
            w.write(value, 64);
        }
    }

    /// Reads an escape-coded integer field of nominal width `width`.
    #[inline]
    pub fn read_uint(r: &mut BitReader<'_>, width: u32) -> u64 {
        if r.read(1) == 0 {
            r.read(width as usize)
        } else {
            r.read(64)
        }
    }

    /// Bits of an optional escape-coded integer (1 presence bit + the field).
    #[inline]
    pub fn opt_uint_bits(value: &Option<u64>, width: u32) -> usize {
        1 + value.map_or(0, |v| Self::uint_bits(v, width))
    }

    /// Writes an optional escape-coded integer.
    #[inline]
    pub fn write_opt_uint(w: &mut BitWriter<'_>, value: &Option<u64>, width: u32) {
        match value {
            None => w.write(0, 1),
            Some(v) => {
                w.write(1, 1);
                Self::write_uint(w, *v, width);
            }
        }
    }

    /// Reads an optional escape-coded integer.
    #[inline]
    pub fn read_opt_uint(r: &mut BitReader<'_>, width: u32) -> Option<u64> {
        if r.read(1) == 1 {
            Some(Self::read_uint(r, width))
        } else {
            None
        }
    }
}

#[inline]
fn fits(value: u64, width: u32) -> bool {
    width >= 64 || value < (1u64 << width)
}

/// Decode-free cursor over one encoded register in a word buffer.
///
/// Reads fields in the order the codec wrote them, checking each escape/presence bit
/// inline: extraction is pure shift/mask ([`BitReader::read`]) and never constructs
/// the register struct. A fired escape bit means the slot holds fault garbage wider
/// than the nominal field — extraction returns `None` and the caller must fall back
/// to the full [`Codec::decode_from`] path (the guard screens do exactly that).
#[derive(Clone, Debug)]
pub struct FieldReader<'a> {
    r: BitReader<'a>,
}

impl<'a> FieldReader<'a> {
    /// A cursor at absolute bit offset `pos` of `words` (a slot start in the packed
    /// heap).
    #[inline]
    pub fn new(words: &'a [u64], pos: u64) -> Self {
        FieldReader {
            r: BitReader::new(words, pos),
        }
    }

    /// Extracts an escape-coded integer of nominal width `width`, or `None` if the
    /// escape bit fired. The cursor always advances past the whole field, so further
    /// fields of the slot stay reachable either way.
    #[inline]
    pub fn uint(&mut self, width: u32) -> Option<u64> {
        if self.r.read(1) == 0 {
            Some(self.r.read(width as usize))
        } else {
            self.r.read(64);
            None
        }
    }

    /// Extracts an optional escape-coded integer: `None` if the escape bit of a
    /// present value fired, otherwise `Some(None)` for an absent field or
    /// `Some(Some(v))` for a present one.
    #[inline]
    pub fn opt_uint(&mut self, width: u32) -> Option<Option<u64>> {
        if self.r.read(1) == 0 {
            Some(None)
        } else {
            self.uint(width).map(Some)
        }
    }

    /// Extracts one raw flag bit (a `bool` field or a presence bit whose payload the
    /// caller reads field-by-field, e.g. the fragment tuple of an FR label). Raw bits
    /// have no escape shape, so extraction is total.
    #[inline]
    pub fn bit(&mut self) -> bool {
        self.r.read(1) == 1
    }

    /// The number of bits consumed since construction.
    #[inline]
    pub fn bits_read(&self) -> u64 {
        self.r.bits_read()
    }
}

/// A register or label content that can be bit-packed.
///
/// The contract the packed store and the differential oracles rely on:
///
/// 1. **round trip**: `decode_from(ctx, encode_into(ctx, x)) == x` for every value —
///    including garbage left by fault injection (the escape bit makes integer fields
///    total);
/// 2. **exact accounting**: `encoded_bits(ctx, x)` equals the bits `encode_into`
///    writes and `decode_from` consumes, for every value.
///
/// Both are pinned by seeded property tests next to every implementation.
pub trait Codec: Sized {
    /// Exact number of bits [`Codec::encode_into`] writes for `self`.
    fn encoded_bits(&self, ctx: &CodecCtx) -> usize;

    /// Serializes `self` at the writer's cursor.
    fn encode_into(&self, ctx: &CodecCtx, w: &mut BitWriter<'_>);

    /// Deserializes one value at the reader's cursor.
    fn decode_from(ctx: &CodecCtx, r: &mut BitReader<'_>) -> Self;
}

impl Codec for u64 {
    fn encoded_bits(&self, ctx: &CodecCtx) -> usize {
        CodecCtx::uint_bits(*self, ctx.ident_bits)
    }

    fn encode_into(&self, ctx: &CodecCtx, w: &mut BitWriter<'_>) {
        CodecCtx::write_uint(w, *self, ctx.ident_bits);
    }

    fn decode_from(ctx: &CodecCtx, r: &mut BitReader<'_>) -> Self {
        CodecCtx::read_uint(r, ctx.ident_bits)
    }
}

impl Codec for bool {
    fn encoded_bits(&self, _ctx: &CodecCtx) -> usize {
        1
    }

    fn encode_into(&self, _ctx: &CodecCtx, w: &mut BitWriter<'_>) {
        w.write(u64::from(*self), 1);
    }

    fn decode_from(_ctx: &CodecCtx, r: &mut BitReader<'_>) -> Self {
        r.read(1) == 1
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encoded_bits(&self, ctx: &CodecCtx) -> usize {
        self.0.encoded_bits(ctx) + self.1.encoded_bits(ctx)
    }

    fn encode_into(&self, ctx: &CodecCtx, w: &mut BitWriter<'_>) {
        self.0.encode_into(ctx, w);
        self.1.encode_into(ctx, w);
    }

    fn decode_from(ctx: &CodecCtx, r: &mut BitReader<'_>) -> Self {
        let a = A::decode_from(ctx, r);
        let b = B::decode_from(ctx, r);
        (a, b)
    }
}

/// Asserts the [`Codec`] contract for one value: exact round trip, and `encoded_bits`
/// matching both the bits written and the bits consumed. Shared by the per-type
/// property tests of every crate implementing the trait.
pub fn assert_codec_roundtrip<T: Codec + PartialEq + std::fmt::Debug>(ctx: &CodecCtx, value: &T) {
    let mut words = Vec::new();
    let mut w = BitWriter::new(&mut words, 0);
    value.encode_into(ctx, &mut w);
    let written = w.position();
    assert_eq!(
        written as usize,
        value.encoded_bits(ctx),
        "encoded_bits must match the bits actually written for {value:?}"
    );
    let mut r = BitReader::new(&words, 0);
    let decoded = T::decode_from(ctx, &mut r);
    assert_eq!(&decoded, value, "decode(encode(x)) must be x");
    assert_eq!(
        r.bits_read(),
        written,
        "decode must consume exactly the bits encode wrote for {value:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use stst_graph::generators;

    fn ctx() -> CodecCtx {
        CodecCtx {
            ident_bits: 9,
            weight_bits: 11,
            count_bits: 7,
            len_bits: 7,
        }
    }

    #[test]
    fn ctx_for_graph_covers_the_garbage_range() {
        let g = generators::workload(24, 0.2, 1);
        let ctx = CodecCtx::for_graph(&g);
        // Arbitrary states draw identities from 0..=2n and counters from 0..=n+1.
        assert!(1u64 << ctx.ident_bits > 2 * 24 + 2);
        assert!(1u64 << ctx.count_bits > 24 + 1);
        let max_w = g.edge_ids().map(|e| g.weight(e)).max().unwrap();
        assert!(1u64 << ctx.weight_bits > max_w);
    }

    #[test]
    fn in_range_values_cost_one_bit_over_the_field_width() {
        let ctx = ctx();
        assert_eq!(CodecCtx::uint_bits(0, ctx.ident_bits), 10);
        assert_eq!(CodecCtx::uint_bits(511, ctx.ident_bits), 10);
        assert_eq!(511u64.encoded_bits(&ctx), 10);
    }

    #[test]
    fn out_of_range_values_escape_to_a_raw_word() {
        let ctx = ctx();
        assert_eq!(CodecCtx::uint_bits(512, ctx.ident_bits), 65);
        for value in [512u64, u64::MAX, 1 << 40] {
            assert_codec_roundtrip(&ctx, &value);
        }
    }

    #[test]
    fn primitive_codecs_round_trip_at_boundary_widths() {
        let ctx = ctx();
        for value in [0u64, 1, 2, 255, 256, 511, 512, u64::MAX] {
            assert_codec_roundtrip(&ctx, &value);
        }
        assert_codec_roundtrip(&ctx, &true);
        assert_codec_roundtrip(&ctx, &false);
        assert_codec_roundtrip(&ctx, &(7u64, true));
        assert_codec_roundtrip(&ctx, &(u64::MAX, false));
    }

    #[test]
    fn optional_fields_cost_one_presence_bit() {
        let ctx = ctx();
        assert_eq!(CodecCtx::opt_uint_bits(&None, ctx.ident_bits), 1);
        assert_eq!(CodecCtx::opt_uint_bits(&Some(3), ctx.ident_bits), 11);
        let mut words = Vec::new();
        let mut w = BitWriter::new(&mut words, 0);
        CodecCtx::write_opt_uint(&mut w, &None, ctx.ident_bits);
        CodecCtx::write_opt_uint(&mut w, &Some(500), ctx.ident_bits);
        let mut r = BitReader::new(&words, 0);
        assert_eq!(CodecCtx::read_opt_uint(&mut r, ctx.ident_bits), None);
        assert_eq!(CodecCtx::read_opt_uint(&mut r, ctx.ident_bits), Some(500));
    }

    #[test]
    fn field_reader_extracts_what_the_writer_encoded() {
        let ctx = ctx();
        let mut words = Vec::new();
        let mut w = BitWriter::new(&mut words, 7); // deliberately unaligned
        CodecCtx::write_uint(&mut w, 300, ctx.ident_bits);
        CodecCtx::write_opt_uint(&mut w, &None, ctx.ident_bits);
        CodecCtx::write_opt_uint(&mut w, &Some(41), ctx.count_bits);
        CodecCtx::write_uint(&mut w, u64::MAX, ctx.count_bits); // escapes
        CodecCtx::write_uint(&mut w, 12, ctx.count_bits); // reachable past the escape
        let written = w.position() - 7;
        let mut f = FieldReader::new(&words, 7);
        assert_eq!(f.uint(ctx.ident_bits), Some(300));
        assert_eq!(f.opt_uint(ctx.ident_bits), Some(None));
        assert_eq!(f.opt_uint(ctx.count_bits), Some(Some(41)));
        assert_eq!(
            f.uint(ctx.count_bits),
            None,
            "escape must refuse extraction"
        );
        assert_eq!(
            f.uint(ctx.count_bits),
            Some(12),
            "cursor advances past escapes"
        );
        assert_eq!(f.bits_read(), written);
    }

    #[test]
    fn u64_field_spec_locates_the_payload_in_the_fault_free_shape() {
        let ctx = ctx();
        for value in [0u64, 17, 511] {
            let mut words = Vec::new();
            let mut w = BitWriter::new(&mut words, 0);
            value.encode_into(&ctx, &mut w);
            let mut f = FieldReader::new(&words, 0);
            assert_eq!(f.uint(ctx.ident_bits), Some(value));
            assert_eq!(f.bits_read(), value.encoded_bits(&ctx) as u64);
        }
    }

    #[test]
    fn width_64_fields_never_escape() {
        let ctx = CodecCtx {
            ident_bits: 64,
            weight_bits: 64,
            count_bits: 64,
            len_bits: 7,
        };
        assert_eq!(u64::MAX.encoded_bits(&ctx), 65);
        assert_codec_roundtrip(&ctx, &u64::MAX);
    }
}
